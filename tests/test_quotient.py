"""The exact local sum by a trace on the chart quotient (``localres``).

Its values must equal the exact residue and the trace over the quotient
ring of the first chart that holds every zero (``oracles.holding_cones``) by
linear-scan normal forms and Fraction elimination
(``oracles.trace_residue_sum``) as Fractions, with that chart's sign, and
the value of the sum behind the torus screen that it replaced
(``oracles.screen_residue_sum``) wherever that one has a value; and come
within COMPARE_TOL
of the floating-point sum it replaced (``oracles.numeric_residue_sum``),
which must refuse the same inputs with the same errors, and equal the
sum on the chart quotient keyed by exponent tuples (``oracles.TupleQuotient``),
refusal messages and all.  The chart solver
of that floating-point sum is compared with the shape-position chain it
replaced (``oracles.shape_position_solve``).  Each refusal is also shown on
a system built to need it.
"""

from fractions import Fraction
from functools import cache, partial
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (
    GroebnerBasis,
    InfiniteIntersection,
    MultiPoly,
    NonSimpleZero,
    NotTorusZero,
    NotZeroDimensional,
    ResidueProblem,
    ToricError,
    ZeroOnPolarLocus,
    compute_grading,
    dehomogenize,
    euler_jacobi_check,
    grevlex,
    lex,
    load_fan,
    make_fan,
    monomial_basis,
    parse_poly,
    quotient_is_finite,
    standard_monomials,
    sum_local_residues,
    toric_residue,
)
from toricres import localres, residues
from toricres.localres import COMPARE_TOL

import oracles
from conftest import FIXTURES, load
from oracles import (SEPARATION_TOL, NotShapePosition, chart_system, chart_zero_set, coefficient,
                     fraction_matrix, fraction_times_variable, holding_cones,
                     nullstellensatz_refusal, numeric_residue_sum, screen_residue_sum,
                     shape_position_chart_zeros, shape_position_solve, shape_position_sum,
                     solve_chart_system, solver_refusal, substitute, trace_residue_sum)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

NUMERIC_FIXTURES = ["p1_numeric_a.json", "p1_numeric_b.json", "p1p1_numeric.json",
                    "p1p1_infinite.json", "pentagon_outside.json"]
RESIDUE_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json")
                          if not p.name.endswith(".fan.json"))


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


def signed_trace(pb, H, k):
    """The oracle's exact trace on the chart that holds every zero, with
    the sign of the sum on it."""
    cone = holding_cones(pb, k)[0]
    return (-1) ** k * pb.cone_sign(cone) * trace_residue_sum(pb, H, k, cone)


def assert_sums_agree(pb, H, k):
    """The refusal is the one ideal membership gives, and the floating-point
    sum gives it too; a value is the exact residue where that is defined,
    the exact trace, and within COMPARE_TOL of the floating-point sum.  The
    shape-position chain's value is the sum's.  That chain refused every
    zero off the torus, which the sum takes where one chart holds every
    zero, and tested each chart for multiple zeros before the torus, and
    the sum refuses a common zero of all inputs first: those are the only
    refusals in which they differ."""
    new = outcome(lambda: sum_local_residues(pb, H, k))
    assert new[0] == (nullstellensatz_refusal(pb, k) or "value")
    numeric = outcome(lambda: numeric_residue_sum(pb, H, k))
    assert numeric[0] == new[0]
    if new[0] == "value":
        assert new[1] == signed_trace(pb, H, k)
        assert abs(numeric[1] - new[1]) < COMPARE_TOL
        try:
            exact = toric_residue(pb, H)
        except ToricError:
            exact = None
        assert exact is None or new[1] == exact
    old = outcome(lambda: shape_position_sum(pb, H, k))
    if old[0] == "NotShapePosition":
        return
    if old[0] == "value":
        assert new[0] == "value"
        assert abs(new[1] - old[1]) < COMPARE_TOL
    elif new[0] == "value":
        assert old[0] == "NotTorusZero"
    elif new[0] != old[0]:
        assert new[0] == "ZeroOnPolarLocus" or old[0] in ("NonSimpleZero", "NotTorusZero")


def message(compute):
    """The value, or the error's type and message."""
    try:
        return compute()
    except ToricError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_exact_sums_and_refusals_on_every_fixture(name):
    """Every fixture and k: the refusal of the floating-point sum, type and
    message, or the value that the trace gives, which is the exact residue
    where that is defined (on p1p1_infinite, whose input x lies outside the
    irrelevant ideal, it is not, and the sum is 0 at k = 1 and 2)."""
    lp = load(name)
    pb, H = lp.problem, lp.inputs[0]
    for k in range(len(pb.polys)):
        new = message(lambda: sum_local_residues(pb, H, k))
        numeric = message(lambda: numeric_residue_sum(pb, H, k))
        if isinstance(numeric, tuple):
            assert new == numeric
            continue
        assert new == signed_trace(pb, H, k)
        assert abs(numeric - new) < COMPARE_TOL
        exact = message(lambda: toric_residue(pb, H))
        assert new == exact or (name, exact[0]) == ("p1p1_infinite.json", "HypothesesFailed")


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
    # the sum finds its chart by a count and decides its polar-locus refusal
    # on X, the oracle by ideal membership chart by chart: they agree because
    # every chart maps onto its open set, orbifold charts included
    pb, H, k = case
    assert_sums_agree(pb, H, k)


def assert_tables_match_the_fraction_route(pb, H):
    """In sigma's chart, for each dropped input whose quotient is finite,
    the integer Jacobian is the oracle's Fraction determinant, and the
    multiplication tables and the matrices of h, f_k*J and J equal the ones
    built from Fraction normal forms, least denominators and all."""
    h = dehomogenize(H, pb.fan, pb.sigma)
    for k in range(len(pb.polys)):
        try:
            fk, quotient = localres._chart(pb, k, pb.sigma)
        except InfiniteIntersection:
            continue
        assert quotient._times_variable == fraction_times_variable(quotient)
        J = oracles.fraction_jacobian(quotient.polys)
        assert quotient.jacobian == J
        for g in (h, fk * J, J):
            assert quotient.matrix(g) == fraction_matrix(quotient, g)


@pytest.mark.parametrize("name", NUMERIC_FIXTURES)
def test_quotient_tables_match_the_fraction_route_on_fixtures(name):
    lp = load(name)
    assert_tables_match_the_fraction_route(lp.problem, lp.inputs[0])


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_quotient_tables_match_the_fraction_route_on_random_systems(case):
    assert_tables_match_the_fraction_route(*case[:2])


# ---------------------------------------------------------------------------
# the packed quotient: pure-power leads, standard monomials, the border pass


def chart_systems(pb):
    """Every chart system of a problem: all inputs, and each input dropped."""
    for cone in range(len(pb.fan.max_cones)):
        charts = [dehomogenize(F, pb.fan, cone) for F in pb.polys]
        yield charts
        for k in range(len(charts)):
            yield charts[:k] + charts[k + 1:]


def assert_packed_views_match_tuples(system):
    """Finiteness and B read on the packed table are the tuple references,
    under grevlex and lex."""
    nv = system[0].nvars
    for order in (grevlex(nv), lex(nv)):
        gb = GroebnerBasis.of(system, order)
        finite = quotient_is_finite(gb)
        assert finite == oracles.tuple_quotient_is_finite(gb)
        if finite:
            assert standard_monomials(gb) == oracles.tuple_standard_monomials(gb)
        else:
            with pytest.raises(ValueError):
                standard_monomials(gb)


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_packed_finiteness_and_basis_match_tuples_on_every_fixture_chart(name):
    for system in chart_systems(load(name).problem):
        assert_packed_views_match_tuples(system)


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_packed_finiteness_and_basis_match_tuples_on_random_systems(case):
    for system in chart_systems(case[0]):
        assert_packed_views_match_tuples(system)


def assert_variables_commute(quotient):
    """M_{x_i} M_{x_j} = M_{x_j} M_{x_i}: the integer tables of
    ``_times_variable``, each D_j times M_{x_j}, compose to equal columns."""
    def apply(table, col):
        out = {}
        for e, c in col.items():
            for f, x in table[e].items():
                out[f] = out.get(f, 0) + c * x
        return {f: x for f, x in out.items() if x}

    tables = [table for _, table in quotient._times_variable]
    for i, ti in enumerate(tables):
        for tj in tables[:i]:
            for b in quotient.basis:
                assert apply(ti, tj[b]) == apply(tj, ti[b])


def finite_quotients(pb):
    for system in chart_systems(pb):
        try:
            yield localres._Quotient(system)
        except NotZeroDimensional:
            continue


def test_the_multiplication_tables_commute_on_every_numeric_fixture_chart():
    quotients = [q for name in NUMERIC_FIXTURES for q in finite_quotients(load(name).problem)]
    assert any(len(q.basis) > 1 and len(q._times_variable) > 1 for q in quotients)
    for quotient in quotients:
        assert_variables_commute(quotient)


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_the_multiplication_tables_commute_on_random_systems(case):
    for quotient in finite_quotients(case[0]):
        assert_variables_commute(quotient)


def assert_scales_compose_the_unit(quotient):
    """The scales read along ``_steps`` are the composed M_1: its column b
    is s_b*e_b, and L is the lcm of the s_b."""
    scales, L = quotient._scales
    cols = quotient._compose(dict.fromkeys(quotient.basis[:1], 1))
    assert [cols[b] for b in quotient.basis] == [{b: s} for b, s in zip(quotient.basis, scales)]
    assert L == lcm(*scales)


def test_the_scales_are_the_composed_unit_on_every_numeric_fixture_chart():
    quotients = [q for name in NUMERIC_FIXTURES for q in finite_quotients(load(name).problem)]
    assert any(q._scales[1] > 1 for q in quotients)
    for quotient in quotients:
        assert_scales_compose_the_unit(quotient)


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_the_scales_are_the_composed_unit_on_random_systems(case):
    for quotient in finite_quotients(case[0]):
        assert_scales_compose_the_unit(quotient)


def test_a_trace_reduces_two_polynomials_and_no_monomial(monkeypatch):
    """The tables come from the border pass, so one trace divides the
    integer terms of f_k*J and h on the packed table and nothing else."""
    divided = []
    real = localres.divide

    def counted(terms, table, packing, modulus=0):
        divided.append(terms)
        return real(terms, table, packing, modulus)

    monkeypatch.setattr(localres, "divide", counted)
    for name in NUMERIC_FIXTURES:
        lp = load(name)
        pb = lp.problem
        h = dehomogenize(lp.inputs[0], pb.fan, pb.sigma)
        for k in range(len(pb.polys)):
            try:
                fk, quotient = localres._chart(pb, k, pb.sigma)
            except InfiniteIntersection:
                continue
            divided.clear()
            quotient.trace(h, fk)
            pack = quotient.gb.packing.pack_terms
            assert divided == [pack((fk * quotient.jacobian).num), pack(h.num)]


def tuple_quotient_outcome(compute):
    """The value, or the refusal's type and message, with the chart
    quotient on exponent tuples (``oracles.TupleQuotient``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localres, "_Quotient", oracles.TupleQuotient)
        return message(compute)


def assert_sums_match_the_tuple_quotient(pb, H):
    """Every k: the sum, or its refusal with its message, is the one the
    tuple-keyed quotient gives, and so is the torus sum of each system."""
    for k in range(len(pb.polys)):
        sum_k = partial(sum_local_residues, pb, H, k)
        assert message(sum_k) == tuple_quotient_outcome(sum_k)
        torus = partial(euler_jacobi_check, pb.fan.dim, chart_system(pb, k, pb.sigma),
                        dehomogenize(H, pb.fan, pb.sigma))
        assert message(torus) == tuple_quotient_outcome(torus)


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_sums_and_refusals_match_the_tuple_quotient_on_fixtures(name):
    lp = load(name)
    assert_sums_match_the_tuple_quotient(lp.problem, lp.inputs[0])


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_sums_and_refusals_match_the_tuple_quotient_on_random_systems(case):
    assert_sums_match_the_tuple_quotient(*case[:2])


def assert_trace_is_the_reference(quotient, h, g):
    """``_Quotient.trace`` is the Fraction that the old trace, one Z[t]/t^2
    elimination of G_{g*J} + t*G_h (``oracles.trace_of_solve``), gives
    from the full matrices, and None exactly where that one is.  Returns
    the value."""
    d_gj, A = quotient.matrix(g * quotient.jacobian)
    d_h, B = quotient.matrix(h)
    t = oracles.trace_of_solve(A, B)
    got = quotient.trace(h, g)
    assert got == (None if t is None else t * d_gj / d_h)
    assert got is None or type(got) is Fraction
    return got


def assert_every_chart_trace_is_the_reference(pb, H):
    """On every chart with input k dropped that is finite, h against f_k
    and against the product of the variables."""
    values = []
    for cone in range(len(pb.fan.max_cones)):
        h = dehomogenize(H, pb.fan, cone)
        for k in range(len(pb.polys)):
            try:
                fk, quotient = localres._chart(pb, k, cone)
            except InfiniteIntersection:
                continue
            torus = MultiPoly.monomial((1,) * pb.fan.dim)
            values += [assert_trace_is_the_reference(quotient, h, g) for g in (fk, torus)]
    return values


def test_the_trace_is_the_reference_on_every_numeric_fixture_chart():
    values = [v for name in NUMERIC_FIXTURES
              for v in assert_every_chart_trace_is_the_reference(load(name).problem,
                                                                 load(name).inputs[0])]
    assert None in values and any(v for v in values) and 0 in values


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_the_trace_is_the_reference_on_random_systems(case):
    assert_every_chart_trace_is_the_reference(*case[:2])


def test_a_quotient_with_no_standard_monomial_has_trace_0():
    """A unit ideal leaves B empty: no zero, so the sum over them is 0, as
    the reference gives from two empty matrices."""
    quotient = localres._Quotient([MultiPoly.constant(1, 3)])
    assert quotient.basis == []
    assert quotient._scales == ([], 1)
    one = MultiPoly.constant(1, 1)
    assert assert_trace_is_the_reference(quotient, one, one) == 0
    assert euler_jacobi_check(1, [MultiPoly.constant(1, 3)], one) == (True, 0)


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


def test_a_sum_makes_no_zero_locus_pass_of_its_own(monkeypatch):
    """The sum reads the problem's cached zero-locus report: with it built,
    no sum calls ``no_common_zeros_on_x`` or builds a zero-locus basis."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    problems = [load(name) for name in ("p1_numeric_a.json", "p1p1_numeric.json",
                                        "pentagon_small.json")]
    for lp in problems:
        assert lp.problem.zero_locus().ok
    assert not hasattr(localres, "no_common_zeros_on_x")
    monkeypatch.setattr(residues, "no_common_zeros_on_x",
                        counted("zero locus", residues.no_common_zeros_on_x))
    monkeypatch.setattr(residues, "packed_basis", counted("chart basis", residues.packed_basis))
    for lp in problems:
        for k in range(len(lp.problem.polys)):
            message(lambda: sum_local_residues(lp.problem, lp.inputs[0], k))
    assert calls == []


def screen_outcomes(pb, H, k):
    """The value or refusal, type and message, of the sum behind the torus
    screen split on coordinate hyperplanes and decided whole; they must be
    equal, and where they are a value, the sum's is the identical
    Fraction."""
    split = message(lambda: screen_residue_sum(pb, H, k))
    assert split == message(lambda: screen_residue_sum(pb, H, k, oracles.whole_chart_zero_locus))
    if not isinstance(split, tuple):
        got = sum_local_residues(pb, H, k)
        assert got == split and type(got) is Fraction
    return split


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_the_split_screen_keeps_every_fixture_sum_and_refusal(name):
    lp = load(name)
    for k in range(len(lp.problem.polys)):
        screen_outcomes(lp.problem, lp.inputs[0], k)


@SETTINGS
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_the_split_screen_keeps_every_sum_and_refusal(case):
    screen_outcomes(*case)


# ---------------------------------------------------------------------------
# the exact trace


def assert_trace_is_the_residue(pb, H, k):
    trace = signed_trace(pb, H, k)
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
    # the zeros [0 : 1] and [1 : 0] of x*y: each chart of P^1 holds one of
    # them, so no single chart holds both
    pb, H = p1_problem(["x + 3*y", "x*y"], "y")
    assert nullstellensatz_refusal(pb, 0) == "NotTorusZero"
    with pytest.raises(NotTorusZero, match="no single chart holds every zero"):
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


def test_the_split_screen_keeps_each_built_refusal():
    """Each refusal of the sum behind the screen on the systems above,
    type and message, is the one it gives with the screen's charts
    decided whole."""
    kinds = set()
    for texts in (["x + 3*y", "(x - y)^2"], ["x + 3*y", "x^2 - x*y"], ["x + 3*y", "x*y"],
                  ["x - y", "(x - y)*(x + 2*y)"]):
        pb, H = p1_problem(texts, "y")
        for k in range(2):
            split = screen_outcomes(pb, H, k)
            if isinstance(split, tuple):
                kinds.add(split[0])
    assert kinds >= {"NonSimpleZero", "NotTorusZero", "ZeroOnPolarLocus"}


def test_large_zeros_are_kept_by_the_relative_residual():
    # on the line y = 2x - 1 the cubic has zeros of size about 10^2, where
    # rounding alone leaves residuals above RESIDUAL_TOL in absolute terms
    f = up("3*x^3 - 5*x^2*y + 7*y^3 - 2*x*y - 9000000")
    zeros, qdim = solve_chart_system([f, up("y - 2*x + 1")])
    line = substitute(f, {1: up("2*x - 1")})
    roots = np.roots([float(coefficient(line, (d, 0))) for d in range(3, -1, -1)])
    assert qdim == 3
    assert same_zeros([(z[0],) for z in zeros], [(r,) for r in roots])
    assert all(abs(z[1] - (2 * z[0] - 1)) < SEPARATION_TOL for z in zeros)
