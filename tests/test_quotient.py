"""The exact local sum by a trace on the chart quotient (``localres``).

Its values must equal the exact residue and the trace over the quotient
ring by linear-scan normal forms and Fraction elimination
(``oracles.trace_residue_sum``) as Fractions, and come within COMPARE_TOL
of the floating-point sum it replaced (``oracles.numeric_residue_sum``),
which must refuse the same inputs with the same errors.  The chart solver
of that floating-point sum is compared with the shape-position chain it
replaced (``oracles.shape_position_solve``).  Each refusal is also shown on
a system built to need it.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (
    InfiniteIntersection,
    MultiPoly,
    NonSimpleZero,
    NotTorusZero,
    NotZeroDimensional,
    ResidueProblem,
    ToricError,
    ZeroOnPolarLocus,
    compute_grading,
    euler_jacobi_check,
    load_fan,
    make_fan,
    monomial_basis,
    parse_poly,
    sum_local_residues,
    toric_residue,
)
from toricres import localres
from toricres.localres import COMPARE_TOL

from conftest import FIXTURES, load
from oracles import (SEPARATION_TOL, NotShapePosition, chart_system, chart_zero_set,
                     nullstellensatz_refusal, numeric_residue_sum, shape_position_chart_zeros,
                     shape_position_solve, shape_position_sum, solve_chart_system,
                     solver_refusal, trace_residue_sum)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

NUMERIC_FIXTURES = ["p1_numeric_a.json", "p1_numeric_b.json", "p1p1_numeric.json",
                    "p1p1_infinite.json", "pentagon_outside.json"]


def outcome(compute):
    """("value", result) or the refusal's type name."""
    try:
        return "value", compute()
    except (InfiniteIntersection, NonSimpleZero, NotShapePosition, NotTorusZero,
            NotZeroDimensional, ZeroOnPolarLocus) as exc:
        return type(exc).__name__, None


def same_zeros(a, b):
    """Equal sizes, and each zero of a within SEPARATION_TOL of one of b."""
    close = [[max(abs(x - y) for x, y in zip(p, q)) < SEPARATION_TOL for q in b] for p in a]
    return len(a) == len(b) and all(map(any, close)) and all(map(any, zip(*close)))


def assert_solvers_agree(system):
    """The refusal is the one ideal membership gives, and the shape-position
    chain, where it found a triangular basis, agrees on it or on the zeros."""
    new = outcome(lambda: solve_chart_system(system))
    assert new[0] == (solver_refusal(system) or "value")
    old = outcome(lambda: shape_position_solve(system))
    if old[0] == "NotShapePosition":
        return
    assert new[0] == old[0]
    if new[0] == "value":
        assert new[1][1] == old[1][1]
        assert same_zeros(new[1][0], old[1][0])


def assert_sums_agree(pb, H, k):
    """The refusal is the one ideal membership gives, and the floating-point
    sum gives it too; a value is the exact residue where that is defined,
    the exact trace, and within COMPARE_TOL of the floating-point sum.  The
    shape-position chain agrees on the value or the refusal.  That chain
    tested each chart for multiple zeros before the torus, so where it
    found a multiple zero the new sum may first meet a zero off the torus
    or an infinite chart."""
    new = outcome(lambda: sum_local_residues(pb, H, k))
    assert new[0] == (nullstellensatz_refusal(pb, k) or "value")
    numeric = outcome(lambda: numeric_residue_sum(pb, H, k))
    assert numeric[0] == new[0]
    if new[0] == "value":
        assert new[1] == (-1) ** k * trace_residue_sum(pb, H, k)
        assert abs(numeric[1] - new[1]) < COMPARE_TOL
        try:
            exact = toric_residue(pb, H)
        except ToricError:
            exact = None
        assert exact is None or new[1] == exact
    old = outcome(lambda: shape_position_sum(pb, H, k))
    if old[0] == "NotShapePosition":
        return
    if new[0] == "value" or old[0] == "value":
        assert new[0] == old[0]
        assert abs(new[1] - old[1]) < COMPARE_TOL
    elif new[0] != old[0]:
        assert old[0] == "NonSimpleZero"
        assert new[0] in ("NotTorusZero", "InfiniteIntersection")


def message(compute):
    """The value, or the error's type and message."""
    try:
        return compute()
    except ToricError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")
                                        if not p.name.endswith(".fan.json")))
def test_exact_sums_and_refusals_on_every_fixture(name):
    """Every fixture and k: the refusal of the floating-point sum, type and
    message, or the value that the trace and the exact residue give."""
    lp = load(name)
    pb, H = lp.problem, lp.inputs[0]
    for k in range(len(pb.polys)):
        new = message(lambda: sum_local_residues(pb, H, k))
        numeric = message(lambda: numeric_residue_sum(pb, H, k))
        if isinstance(numeric, tuple):
            assert new == numeric
            continue
        assert new == (-1) ** k * trace_residue_sum(pb, H, k)
        assert abs(numeric - new) < COMPARE_TOL
        assert new == message(lambda: toric_residue(pb, H))


# ---------------------------------------------------------------------------
# against the shape-position chain


@pytest.mark.parametrize("name", NUMERIC_FIXTURES)
def test_zero_sets_and_refusals_match_shape_position_on_fixtures(name):
    lp = load(name)
    pb = lp.problem
    for k in range(len(pb.polys)):
        for cone in range(len(pb.fan.max_cones)):
            new = outcome(lambda: chart_zero_set(pb, k, cone).zeros)
            old = outcome(lambda: shape_position_chart_zeros(pb, k, cone))
            assert new[0] == old[0]
            if new[0] == "value":
                assert same_zeros(new[1], old[1])
        assert_sums_agree(pb, lp.inputs[0], k)


def p3_fan():
    rays = [[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cones = [[j for j in range(4) if j != i] for i in range(4)]
    fan = make_fan(3, rays, cones)
    return fan, compute_grading(fan)


# fan, and the degrees (as exponent vectors) each input may take
SYSTEM_FANS = {
    "p2": (lambda: load_fan(FIXTURES / "p2.fan.json"), [(1, 0, 0), (2, 0, 0)]),
    "p1p1": (lambda: load_fan(FIXTURES / "p1p1.fan.json"),
             [(1, 0, 1, 0), (1, 0, 0, 0), (2, 0, 1, 0)]),
    "p3": (p3_fan, [(1, 0, 0, 0), (2, 0, 0, 0)]),
    "p112": (lambda: load_fan(FIXTURES / "p112.fan.json"), [(1, 0, 0), (2, 0, 0)]),
    "pentagon": (lambda: load_fan(FIXTURES / "pentagon.fan.json"),
                 [(1, 1, 1, 1, 1), (0, 1, 1, 1, 1)]),
}


@cache
def system_fan(name):
    return SYSTEM_FANS[name][0]()


@st.composite
def square_systems(draw, names):
    """A random problem on one of the named fans, and a critical-degree H
    when the critical slice is not empty."""
    name = draw(st.sampled_from(names))
    fan, grading = system_fan(name)
    polys = []
    for _ in range(fan.dim + 1):
        mons = monomial_basis(fan, grading, grading.degree(
            draw(st.sampled_from(SYSTEM_FANS[name][1]))))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(mons),
                               max_size=len(mons)).filter(any))
        polys.append(MultiPoly(fan.nvars, dict(zip(mons, coeffs))))
    pb = ResidueProblem(fan, polys, grading=grading)
    crit = pb.monomials
    H = MultiPoly(fan.nvars, {m: draw(st.integers(-3, 3)) for m in crit})
    return pb, H, draw(st.integers(0, fan.dim))


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]), st.data())
def test_chart_solver_matches_shape_position_on_random_systems(case, data):
    pb, _, k = case
    cone = data.draw(st.integers(0, len(pb.fan.max_cones) - 1))
    assert_solvers_agree(chart_system(pb, k, cone))


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_local_sums_match_shape_position_on_random_systems(case):
    pb, H, k = case
    assert_sums_agree(pb, H, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(square_systems(["p112", "pentagon"]))
def test_local_sums_match_on_orbifold_and_pentagon_systems(case):
    # the sum decides its torus and polar-locus refusals on X, the oracle
    # chart by chart: they agree because every chart maps onto its open set,
    # orbifold charts included
    pb, H, k = case
    assert_sums_agree(pb, H, k)


def linear_problem(name, texts):
    fan, grading = system_fan(name)
    return ResidueProblem(fan, [parse_poly(t, fan.variables) for t in texts],
                          grading=grading)


def test_a_sum_builds_one_quotient_ring(monkeypatch):
    built = []

    class Counted(localres._Quotient):
        def __init__(self, polys):
            built.append(len(polys))
            super().__init__(polys)

    monkeypatch.setattr(localres, "_Quotient", Counted)
    p2 = linear_problem("p2", ["x0 + 2*x1 + 3*x2", "x0 - x1 + 5*x2", "2*x0 + x1 - x2"])
    p3 = linear_problem("p3", ["x1 + 2*x2 + 3*x3 + 5*x4", "x1 - x2 + 4*x3 - 7*x4",
                               "2*x1 + x2 - x3 + 3*x4", "x1 + 3*x2 + 2*x3 - x4"])
    p1p1 = load("p1p1_numeric.json")
    for pb, H in ((p2, MultiPoly.constant(3, 1)), (p1p1.problem, p1p1.inputs[0]),
                  (p3, MultiPoly.constant(4, 1))):
        exact = toric_residue(pb, H)
        for k in range(len(pb.polys)):
            built.clear()
            assert sum_local_residues(pb, H, k) == exact
            assert built == [pb.fan.dim]


# ---------------------------------------------------------------------------
# the exact trace


def assert_trace_is_the_residue(pb, H, k):
    trace = (-1) ** k * trace_residue_sum(pb, H, k)
    assert trace == toric_residue(pb, H)
    assert sum_local_residues(pb, H, k) == trace


@pytest.mark.parametrize("name, ks", [("p1_numeric_a.json", [0]),
                                      ("p1_numeric_b.json", [0, 1]),
                                      ("p1p1_numeric.json", [0, 1, 2])])
def test_trace_over_the_quotient_is_the_exact_residue(name, ks):
    lp = load(name)
    for k in ks:
        assert_trace_is_the_residue(lp.problem, lp.inputs[0], k)


@SETTINGS
@given(square_systems(["p2", "p1p1"]))
def test_trace_is_the_exact_residue_on_random_systems(case):
    pb, H, k = case
    assume(pb.monomials)
    assume(outcome(lambda: sum_local_residues(pb, H, k))[0] == "value")
    try:
        toric_residue(pb, H)
    except Exception:  # noqa: BLE001 - only systems with a residue are compared
        assume(False)
    assert_trace_is_the_residue(pb, H, k)


# ---------------------------------------------------------------------------
# each exact refusal on a system built to need it

XY = ("x", "y")


def up(text, names=XY):
    return parse_poly(text, names)


def p1_problem(texts, H):
    fan, grading = load_fan(FIXTURES / "p1.fan.json")
    return ResidueProblem(fan, [up(t) for t in texts], grading=grading), up(H)


def test_double_zero_is_refused_by_the_jacobian_matrix():
    system = [up("(x - 1)^2"), up("y - 2")]
    assert solver_refusal(system) == "NonSimpleZero"
    with pytest.raises(NonSimpleZero, match="det M_J"):
        solve_chart_system(system)
    with pytest.raises(NonSimpleZero, match="det M_J"):
        euler_jacobi_check(2, system, up("1"))
    pb, H = p1_problem(["x + 3*y", "(x - y)^2"], "y")
    assert nullstellensatz_refusal(pb, 0) == "NonSimpleZero"
    with pytest.raises(NonSimpleZero, match="det M_J"):
        sum_local_residues(pb, H, 0)


def test_zero_with_a_vanishing_coordinate_is_refused():
    with pytest.raises(NotTorusZero):
        euler_jacobi_check(2, [up("x^2 - x"), up("y - 1")], up("1"))
    # the zero x = 0 of x^2 - y^2 in the chart of the first cone
    pb, H = p1_problem(["x + 3*y", "x^2 - x*y"], "y")
    assert nullstellensatz_refusal(pb, 0) == "NotTorusZero"
    with pytest.raises(NotTorusZero):
        sum_local_residues(pb, H, 0)


def test_a_coordinate_below_the_old_tolerance_is_in_the_torus():
    # 10^-7 is below SEPARATION_TOL, which the shape-position chain took
    # for zero; the exact test sees a zero in the torus
    x = ("x",)
    assert euler_jacobi_check(1, [up("x - 1/10000000", x)], up("1", x)) == (False, 10 ** 7)


def test_dropped_input_vanishing_at_a_zero_is_refused():
    pb, H = p1_problem(["x - y", "(x - y)*(x + 2*y)"], "y")
    assert nullstellensatz_refusal(pb, 0) == "ZeroOnPolarLocus"
    with pytest.raises(ZeroOnPolarLocus, match="common zero on X"):
        sum_local_residues(pb, H, 0)
    assert outcome(lambda: shape_position_sum(pb, H, 0))[0] == "ZeroOnPolarLocus"


def test_positive_dimensional_system_is_refused():
    system = [up("x*y"), up("x^2*y")]
    assert solver_refusal(system) == "NotZeroDimensional"
    with pytest.raises(NotZeroDimensional):
        solve_chart_system(system)
    with pytest.raises(NotZeroDimensional):
        euler_jacobi_check(2, system, up("1"))
    lp = load("p1p1_infinite.json")
    assert nullstellensatz_refusal(lp.problem, 0) == "InfiniteIntersection"
    with pytest.raises(InfiniteIntersection):
        sum_local_residues(lp.problem, lp.inputs[0], 0)


def test_large_zeros_are_kept_by_the_relative_residual():
    # on the line y = 2x - 1 the cubic has zeros of size about 10^2, where
    # rounding alone leaves residuals above RESIDUAL_TOL in absolute terms
    f = up("3*x^3 - 5*x^2*y + 7*y^3 - 2*x*y - 9000000")
    zeros, qdim = solve_chart_system([f, up("y - 2*x + 1")])
    line = f.substitute({1: up("2*x - 1")})
    roots = np.roots([float(line.coefficient((d, 0))) for d in range(3, -1, -1)])
    assert qdim == 3
    assert same_zeros([(z[0],) for z in zeros], [(r,) for r in roots])
    assert all(abs(z[1] - (2 * z[0] - 1)) < SEPARATION_TOL for z in zeros)
