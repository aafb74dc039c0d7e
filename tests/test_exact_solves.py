"""The integer solves against the Fraction elimination they replaced.

``lattice.cramer`` must give the solution ``oracles.solve_rational`` gives
on every nonsingular square system and refuse every singular one, and
``lattice.trace_of_solve`` the trace of the solutions for the columns of B;
``cone_functionals`` must return the tuples of
``oracles.fraction_cone_functionals`` wherever each maximal cone has dim
independent rays, and refuse the other fans by naming the cone; the
flatness test of ``polytopes._pulled_volume`` must agree with the rank of
the vertex differences over Q; and the Cayley weight functional of
``jacobian_ideal_degree_check``, found by one Smith solve, must be the
rational one.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    DegenerateVolume,
    HPolytope,
    InvalidFan,
    Unbounded,
    build_cayley,
    cone_functionals,
    degree_of,
    is_ample,
    is_cartier,
    is_q_ample,
    jacobian_ideal_degree_check,
    load_fan,
    make_fan,
    representative_divisor,
)
from toricres import polytopes
from toricres.cli import main
from toricres.lattice import cramer, smith_normal_form, trace_of_solve

from conftest import FIXTURES, load
from oracles import (fraction_cone_functionals, fraction_jacobian_ideal_degree_check,
                     fraction_vertices, mat_rank, solve_rational, weight_system)
from test_differential import stellar_fans_3d
from test_polytope_layer import cut_boxes
from test_volume import complete_polygon_fans

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

FAN_FIXTURES = ["p1", "p2", "p1p1", "p112", "pentagon", "torsion"]
PROBLEM_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json")
                          if not p.name.endswith(".fan.json"))


# ---------------------------------------------------------------------------
# cramer


@st.composite
def square_systems(draw):
    """A square integer system of size 1-4; about half are made singular by
    a row that is an integer combination of the others."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    rhs = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        mult = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rows[k] = [sum(m * row[j] for m, (i, row) in zip(mult, enumerate(rows)) if i != k)
                   for j in range(n)]
    return rows, rhs


@SETTINGS
@given(square_systems())
def test_cramer_matches_rational_elimination(system):
    rows, rhs = system
    got = cramer(rows, rhs)
    if mat_rank(rows) < len(rows):
        assert got is None
        return
    num, den = got
    assert den > 0
    assert gcd(den, *num) == 1
    assert tuple(Fraction(x, den) for x in num) == solve_rational(rows, rhs)


def test_cramer_reduces_and_fixes_the_sign():
    # det -2: the solution (1, -1/2) comes back over a positive denominator
    assert cramer([[0, 2], [1, 0]], [-1, 1]) == ((2, -1), 2)
    assert cramer([[0, 2], [1, 0]], [-2, 1]) == ((1, -1), 1)
    assert cramer([[-4]], [6]) == ((-3,), 2)
    assert cramer([[1, 2], [2, 4]], [1, 2]) is None
    assert cramer([], []) == ((), 1)


# ---------------------------------------------------------------------------
# trace_of_solve


@st.composite
def matrix_pairs(draw):
    """Integer A and B of size 1-6; about half of the A are made singular
    by a row that is an integer combination of the others, and some have
    a zero leading entry, so that the elimination must pivot."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2 * n)]
    A, B = A[:n], A[n:]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        mult = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        A[k] = [sum(m * row[j] for m, (i, row) in zip(mult, enumerate(A)) if i != k)
                for j in range(n)]
    if draw(st.booleans()):
        A[0][0] = 0
    return A, B


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_pairs())
def test_trace_of_solve_matches_rational_elimination(pair):
    A, B = pair
    got = trace_of_solve(A, B)
    if mat_rank(A) < len(A):
        assert got is None
        return
    columns = [solve_rational(A, [row[j] for row in B]) for j in range(len(A))]
    assert got == sum((x[j] for j, x in enumerate(columns)), Fraction(0))


def test_trace_of_solve_pivots_on_constant_terms():
    # A[0][0] = 0 while B[0][0] != 0: the pivot must come from A alone
    assert trace_of_solve([[0, 1], [1, 0]], [[5, 0], [0, 7]]) == 0
    assert trace_of_solve([[0, 2], [3, 0]], [[0, 1], [1, 0]]) == Fraction(1, 2) + Fraction(1, 3)
    assert trace_of_solve([[2]], [[3]]) == Fraction(3, 2)
    assert trace_of_solve([[1, 2], [2, 4]], [[1, 0], [0, 1]]) is None
    assert trace_of_solve([], []) == 0


# ---------------------------------------------------------------------------
# cone functionals


def _coefficient_vectors(nvars):
    ints = [tuple((3 * i + s) % 5 - 2 for i in range(nvars)) for s in range(4)]
    rationals = [tuple(Fraction(c, 1 + i % 3) for i, c in enumerate(v)) for v in ints]
    return ints + rationals + [(0,) * nvars]


def assert_functionals_as_oracle(fan, coeffs):
    """Identical tuples, reprs included, when every cone is square and
    nonsingular; an InvalidFan that names a cone otherwise."""
    square = [len(c) == fan.dim and cramer([fan.rays[i] for i in c], [0] * fan.dim) is not None
              for c in fan.max_cones]
    if all(square):
        got, want = cone_functionals(fan, coeffs), fraction_cone_functionals(fan, coeffs)
        assert got == want
        assert repr(got) == repr(want)
    else:
        k = square.index(False)
        with pytest.raises(InvalidFan, match=f"cone {k} does not have {fan.dim} independent"):
            cone_functionals(fan, coeffs)


@pytest.mark.parametrize("name", FAN_FIXTURES)
def test_cone_functionals_match_the_fraction_code_on_fixtures(name):
    fan, _ = load_fan(FIXTURES / f"{name}.fan.json")
    for coeffs in _coefficient_vectors(fan.nvars):
        assert_functionals_as_oracle(fan, coeffs)


@SETTINGS
@given(st.one_of(complete_polygon_fans(), stellar_fans_3d()), st.data())
def test_cone_functionals_match_the_fraction_code_on_random_fans(fan, data):
    coeffs = data.draw(st.lists(st.integers(-3, 5) | st.fractions(-3, 5, max_denominator=4),
                                min_size=fan.nvars, max_size=fan.nvars))
    assert_functionals_as_oracle(fan, coeffs)


# a cone with one ray, one with dependent rays and consistent coefficients,
# one with more rays than the dimension: each passed the ampleness tests
# when the Fraction solve pinned its free variables to 0
DEGENERATE = [
    (make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2,)]), (1, 1, 1), 2),
    (make_fan(2, [(1, 0), (0, 1), (-1, -1), (-1, 0)], [(0, 1), (1, 2), (0, 3)]),
     (1, 1, 1, -1), 2),
    (make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)]), (1, 1, -2), 0),
]


@pytest.mark.parametrize("fan, coeffs, cone", DEGENERATE)
def test_degenerate_maximal_cones_are_refused(fan, coeffs, cone):
    assert fraction_cone_functionals(fan, coeffs)  # the old solve accepted them
    for test in (cone_functionals, is_cartier, is_ample, is_q_ample):
        with pytest.raises(InvalidFan, match=f"cone {cone} does not have 2 independent rays"):
            test(fan, coeffs)


def test_cli_ample_refuses_a_degenerate_cone(tmp_path, capsys):
    path = tmp_path / "thin.fan.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                                "max_cones": [[1, 2], [2, 3], [3]]}))
    assert main(["ample", str(path), "--coeffs", "1,1,1"]) == 3
    out = capsys.readouterr()
    assert "ample: True" not in out.out
    assert "invalid fan: cone 2 does not have 2 independent rays" in out.err


# ---------------------------------------------------------------------------
# flatness


def assert_flatness_as_rank(poly):
    """The volume is 0 exactly when the vertex differences have rank below
    the dimension over Q; emptiness and unboundedness refuse as before."""
    try:
        vol = polytopes._pulled_volume(poly)
    except (DegenerateVolume, Unbounded) as exc:
        if isinstance(exc, DegenerateVolume):
            assert fraction_vertices(poly) == []
        return
    verts = fraction_vertices(poly)
    diffs = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
    assert (vol == 0) == (poly.dim > 0 and mat_rank(diffs) < poly.dim)


@SETTINGS
@given(st.integers(1, 3).flatmap(cut_boxes))
def test_flatness_matches_the_rank_of_the_vertices(poly):
    assert_flatness_as_rank(poly)


def test_flatness_hand_picked():
    square = ((1, 0), (-1, 0), (0, 1), (0, -1))
    cases = [
        # full square with a zero row tight everywhere: not flat
        HPolytope(2, square + ((0, 0),), (1, 1, 1, 1, 0)),
        # a segment (y = 0) with a zero row: flat
        HPolytope(2, square + ((0, 0),), (1, 1, 0, 0, 0)),
        # a point, and a triangle in the plane x + y + z = 1
        HPolytope(2, square, (0, 0, 0, 0)),
        HPolytope(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, -1, -1), (0, 0, 0)),
                  (0, 0, 0, -1, 1, 0)),
        HPolytope(1, ((1,), (-1,), (0,)), (Fraction(1, 2), Fraction(1, 3), 0)),
        HPolytope(0, ((),), (0,)),
    ]
    flat = [polytopes._pulled_volume(poly) == 0 for poly in cases]
    assert flat == [False, True, True, True, False, False]
    for poly in cases:
        assert_flatness_as_rank(poly)


# ---------------------------------------------------------------------------
# the Cayley weight functional


@pytest.mark.parametrize("name", PROBLEM_FIXTURES)
def test_weight_functional_matches_the_rational_one(name):
    lp = load(name)
    divs = [representative_divisor(lp.grading, degree_of(p, lp.grading))
            for p in lp.problem.polys]
    cd = build_cayley(lp.fan, lp.grading, divs, require_ample=False)
    rows, rhs = weight_system(cd)
    assert smith_normal_form(rows).solve(rhs) == solve_rational(rows, rhs)
    polys = list(lp.problem.polys)
    assert jacobian_ideal_degree_check(cd, polys) == fraction_jacobian_ideal_degree_check(cd, polys)
