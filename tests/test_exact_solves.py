"""The integer solves against the Fraction elimination they replaced.

``lattice.cramer`` must give the solution ``oracles.solve_rational`` gives
on every nonsingular square system and refuse every singular one;
``lattice.bareiss`` must give the determinant ``oracles.fraction_mat_det``
gives and, as X with A·X = det(A)·B, the product of the minors adjugate
``oracles.adjugate`` with B, with Cramer's solutions ``oracles.cramer``
over the determinant; ``oracles.trace_of_solve``, the reference trace of
the local sums, must give the trace of the solutions for the columns of
B, and refuse pairs of other shapes;
``oracles.cone_functionals``, the Fraction view of ``support_meets``, must
return the tuples of ``oracles.fraction_cone_functionals`` wherever each
maximal cone has dim independent rays, and refuse the other fans by
naming the cone; and the
Cayley weight functional of ``jacobian_ideal_degree_check``, found by one
Smith solve, must be the rational one.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    InvalidFan,
    build_cayley,
    degree_of,
    is_ample,
    is_cartier,
    is_q_ample,
    jacobian_ideal_degree_check,
    load_fan,
    make_fan,
    representative_divisor,
)
from toricres.cli import main
from toricres.lattice import bareiss, cramer, mat_identity, smith_normal_form

from conftest import FIXTURES, load, complete_polygon_fans
import oracles
from oracles import (adjugate, cone_functionals, fraction_cone_functionals,
                     fraction_jacobian_ideal_degree_check, fraction_mat_det, mat_mul, mat_rank,
                     solve_rational, trace_of_solve, weight_system)
from test_differential import stellar_fans_3d

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


@SETTINGS
@given(square_systems())
def test_adjugate_solves_as_cramer_does(system):
    """``bareiss`` against I is the minors adjugate, adj(A)·A = det(A)·I, and
    against b it is adj(A)·b, over det A Cramer's solution."""
    rows, rhs = system
    n = len(rows)
    det, adj = bareiss(rows, mat_identity(n))
    got = cramer(rows, rhs)
    assert got == oracles.cramer(rows, rhs)
    if det:
        assert adj == adjugate(rows)
        assert mat_mul(adj, rows) == [[det * (i == j) for j in range(n)] for i in range(n)]
        num, den = got
        column = bareiss(rows, [[b] for b in rhs])[1]
        assert [Fraction(x, det) for x, in column] == [Fraction(x, den) for x in num]
    else:
        assert adj is None and got is None


def test_adjugate_is_integer_only():
    assert bareiss([[5]], [[1]]) == (5, [[1]])
    assert bareiss([[1, 2], [3, 4]], mat_identity(2)) == (-2, [[4, -2], [-3, 1]])
    with pytest.raises(TypeError):
        bareiss([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(TypeError):
        bareiss([[1, 0], [0, 1]], [[1], [Fraction(1, 2)]])
    with pytest.raises(TypeError):
        bareiss([[Fraction(2)]], [[1]])


# ---------------------------------------------------------------------------
# bareiss


@st.composite
def eliminations(draw):
    """A square integer A of size 0-7 and an integer B of as many rows with
    0, 1 or n columns.  A is random, singular by a row that is an integer
    combination of the others, or an upper triangular matrix with a nonzero
    diagonal under a random row permutation: its k-th pivot column is zero
    at row k unless the permutation fixes that row, so the elimination
    swaps rows, an odd or an even number of times as the permutation's
    sign."""
    n = draw(st.integers(0, 7))
    entry = st.integers(-3, 3)
    kind = draw(st.sampled_from(["random", "singular", "permuted"]))
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "singular" and n > 1:
        k = draw(st.integers(0, n - 1))
        mult = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        A[k] = [sum(m * row[j] for m, (i, row) in zip(mult, enumerate(A)) if i != k)
                for j in range(n)]
    elif kind == "permuted":
        pivots = draw(st.lists(st.integers(1, 3).flatmap(lambda x: st.sampled_from([x, -x])),
                               min_size=n, max_size=n))
        U = [[0] * i + [p] + row[i + 1:] for i, (p, row) in enumerate(zip(pivots, A))]
        A = [U[i] for i in draw(st.permutations(range(n)))]
    m = draw(st.sampled_from(sorted({0, 1, n})))
    B = [draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)) for _ in range(n)]
    return A, B


def swap_parity(A):
    """The parity of the row swaps of an elimination that swaps a zero
    pivot with the first row below it that is nonzero in its column,
    counted over Q."""
    M = [[Fraction(x) for x in row] for row in A]
    parity = 0
    for k in range(len(M)):
        i = next((i for i in range(k, len(M)) if M[i][k]), None)
        if i is None:
            return parity
        if i != k:
            M[k], M[i] = M[i], M[k]
            parity ^= 1
        for r in M[k + 1:]:
            f = r[k] / M[k][k]
            r[:] = [x - f * y for x, y in zip(r, M[k])]
    return parity


@settings(max_examples=300, deadline=None, derandomize=True)
@given(eliminations())
def test_bareiss_solves_against_the_minors_adjugate(pair):
    """det A is the Fraction determinant, and X is adj(A)·B with A·X =
    det(A)·B, through odd and even swap counts alike; no B gives no
    columns."""
    A, B = pair
    det, X = bareiss(A, B)
    assert det == fraction_mat_det(A)
    if det == 0:
        assert X is None
        assert bareiss(A) == (0, None)
        return
    assert X == mat_mul(adjugate(A), B)
    assert mat_mul(A, X) == [[det * b for b in row] for row in B]
    assert bareiss(A) == (det, [[] for _ in A])


def test_bareiss_swaps_rows_an_odd_and_an_even_number_of_times():
    """Permutation matrices: one swap, then two, then three; each X is the
    adjugate against B, which is det A times the transposed permutation."""
    B = [[1, 2], [3, 4], [5, 6]]
    for A, parity, det in (([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 1, -1),
                           ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 0, 1),
                           ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], 1, -1)):
        n = len(A)
        assert swap_parity(A) == parity
        got, X = bareiss(A, B + [[7, 8]] * (n - 3))
        assert got == det
        assert X == mat_mul(adjugate(A), B + [[7, 8]] * (n - 3))
        assert bareiss(A, mat_identity(n)) == (det, adjugate(A))
    # a zero pivot met after the first step: only rows 2 and 3 swap
    A = [[2, 1, 0], [4, 2, 1], [1, 0, 3]]
    assert swap_parity(A) == 1
    assert bareiss(A, mat_identity(3)) == (fraction_mat_det(A), adjugate(A))


def test_bareiss_refuses_a_non_square_matrix():
    for A, B in (([[1, 2]], ()), ([[1], [2]], ()), ([[1, 0], [0, 1]], [[1]])):
        with pytest.raises(ValueError, match="non-square"):
            bareiss(A, B)
    assert bareiss([]) == bareiss([], []) == (1, [])


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


def test_trace_of_solve_refuses_a_non_square_or_mismatched_pair():
    # a B of another size was indexed past its end (IndexError) or cut short
    for A, B in (([[1, 0], [0, 1]], [[1]]), ([[1, 2]], [[1, 2]]), ([[1]], [[1], [2]]),
                 ([[1, 0], [0, 1]], [[1, 0], [0]]), ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(ValueError, match="non-square or mismatched"):
            trace_of_solve(A, B)


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
