"""Randomized invariants: lattice transforms, reduction, grading, orders."""

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    GroebnerBasis,
    MonomialOrder,
    MultiPoly,
    ResidueProblem,
    dehomogenize,
    grevlex,
    load_fan,
    parse_poly,
    poly_det,
    toric_residue,
)
from toricres.divisors import is_ample, is_cartier, is_q_ample
from toricres.lattice import dot, mat_det, smith_normal_form
from toricres.polytopes import monomial_basis

from conftest import FIXTURES, load
from oracles import (cofactor_det, fraction_mat_det, mat_rank, minor_rank, order_key,
                     rational_kernel, rref, smith_verify, solve_rational)

DEFAULTS = settings(max_examples=40, deadline=None, derandomize=True)

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4).filter(lambda c: c != 0)


def polys_st(nvars, max_deg=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: MultiPoly(nvars, d))


# ---------------------------------------------------------------------------
# lattice


@DEFAULTS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_form_reconstructs(rows, cols, data):
    A = data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    dec = smith_normal_form(A)
    assert smith_verify(dec, A)


# small entries and rows that repeat combinations of earlier rows make
# rank-deficient and inconsistent systems common
@st.composite
def linear_systems(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    A = []
    for _ in range(rows):
        if A and draw(st.booleans()):
            weights = draw(st.lists(entry, min_size=len(A), max_size=len(A)))
            A.append([sum(w * r[j] for w, r in zip(weights, A)) for j in range(cols)])
        else:
            A.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    if draw(st.booleans()):
        y = draw(st.lists(entry, min_size=cols, max_size=cols))
        b = [dot(row, y) for row in A]
    else:
        b = draw(st.lists(entry, min_size=rows, max_size=rows))
    return A, b


def integer_multiple(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in v]


@DEFAULTS
@given(linear_systems())
def test_solve_rational_against_ranks(system):
    A, b = system
    x = solve_rational(A, b)
    inconsistent = minor_rank([row + [bi] for row, bi in zip(A, b)]) > minor_rank(A)
    assert (x is None) == inconsistent
    if x is not None:
        assert [sum(a * xi for a, xi in zip(row, x)) for row in A] == b


@DEFAULTS
@given(linear_systems())
def test_kernel_and_rank_against_minors(system):
    A, _ = system
    ncols = len(A[0])
    rank = minor_rank(A)
    assert mat_rank(A) == rank
    kernel = rational_kernel(A, ncols)
    for v in kernel:
        assert all(sum(a * vi for a, vi in zip(row, v)) == 0 for row in A)
    assert rank + len(kernel) == ncols
    assert minor_rank([integer_multiple(v) for v in kernel]) == len(kernel)


def square_matrices(entries):
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@DEFAULTS
@given(square_matrices(st.fractions(min_value=-4, max_value=4, max_denominator=6)
                       | st.just(Fraction(0))))
def test_determinant_is_exact_over_the_rationals(A):
    # a rational determinant is the integer one of the rows scaled to
    # integers, over the product of the scales
    n = len(A)
    scales = [lcm(*(x.denominator for x in row)) for row in A]
    d = mat_det([[int(x * c) for x in row] for row, c in zip(A, scales)])
    assert type(d) is int
    assert Fraction(d, prod(scales)) == cofactor_det(A) == fraction_mat_det(A)
    assert (d != 0) == (minor_rank(A) == n) == (mat_rank(A) == n)


@DEFAULTS
@given(square_matrices(st.integers(-9, 9)))
def test_integer_determinant_stays_an_int(A):
    d = mat_det(A)
    assert type(d) is int
    assert d == cofactor_det(A)


def test_determinant_refuses_fractions():
    for A in ([[Fraction(1, 2)]], [[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(2, 3)]],
              [[1, 0], [0, Fraction(2)]]):
        with pytest.raises(TypeError):
            mat_det(A)
    assert fraction_mat_det([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert fraction_mat_det([[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(2, 3)]]) == 0


@DEFAULTS
@given(linear_systems())
def test_rref_is_reduced_echelon(system):
    A, _ = system
    ncols = len(A[0])
    rows, pivots = rref(A, ncols)
    assert len(rows) == len(pivots) == minor_rank(A)
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(rows, pivots)):
        assert all(x == 0 for x in row[:c])
        assert [r[c] for r in rows] == [int(k == i) for k in range(len(rows))]


# ---------------------------------------------------------------------------
# reduction


NAMES3 = ("x", "y", "z")
GB3 = GroebnerBasis.of(
    [parse_poly("x^2 - y*z", NAMES3), parse_poly("y^2 - x*z", NAMES3)],
    grevlex(3))


@DEFAULTS
@given(polys_st(3), coeffs, coeffs)
def test_normal_form_constant_on_ideal_cosets(h, a0, a1):
    f0, f1 = GB3.generators[0], GB3.generators[1]
    shifted = h + a0 * f0 + a1 * f1
    assert GB3.reduce(shifted) == GB3.reduce(h)


@DEFAULTS
@given(polys_st(3), polys_st(3), coeffs, coeffs)
def test_normal_form_is_linear(h1, h2, c1, c2):
    left = GB3.reduce(c1 * h1 + c2 * h2)
    right = c1 * GB3.reduce(h1) + c2 * GB3.reduce(h2)
    assert left == right


# ---------------------------------------------------------------------------
# grading


@DEFAULTS
@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_ray_pairings_have_degree_zero(m):
    for fixture in ("pentagon", "p1p1"):
        lp = load({"pentagon": "pentagon_small.json",
                   "p1p1": "p1p1_numeric.json"}[fixture])
        e = tuple(dot(m, ray) for ray in lp.fan.rays)
        deg = lp.grading.degree(e)
        assert all(x == 0 for x in deg.free)
        assert all(x == 0 for x in deg.torsion)


@DEFAULTS
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(*[st.integers(-3, 3) for _ in range(4)]))
def test_positivity_ignores_principal_shifts(m, base):
    lp = load("p1p1_numeric.json")
    fan = lp.fan
    shifted = tuple(b + dot(m, ray) for b, ray in zip(base, fan.rays))
    for test in (is_cartier, is_q_ample, is_ample):
        assert test(fan, base).ok == test(fan, shifted).ok


# ---------------------------------------------------------------------------
# polynomial ring


@DEFAULTS
@given(polys_st(2), polys_st(2), polys_st(2))
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a * (b * c) == (a * b) * c
    assert a + MultiPoly.zero(2) == a


@pytest.mark.parametrize("name", ["p1", "p2", "p1p1", "p112", "pentagon", "torsion"])
def test_a_chart_is_one_to_one_on_a_degree_class(name):
    """``dehomogenize`` keeps every monomial of one degree apart on every
    cone, orbifold and torsion cones included: two exponents of one degree
    differ by (<m, ray_i>)_i for an m in M, and the cone's rays span M_Q.
    ``toric_jacobian`` divides by xhat_sigma on this fact.  The sum of the
    monomials of each degree of an exponent vector with entries at most 2
    keeps all its terms on each chart."""
    fan, grading = load_fan(FIXTURES / f"{name}.fan.json")
    degrees = {grading.degree(e) for e in itertools.product(range(3), repeat=fan.nvars)}
    for degree in degrees:
        p = MultiPoly(fan.nvars, dict.fromkeys(monomial_basis(fan, grading, degree), 1))
        for k in range(len(fan.max_cones)):
            assert len(dehomogenize(p, fan, k).num) == len(p.num), (degree, k)


@DEFAULTS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(polys_st(2, max_deg=2, max_terms=2),
                                min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_permutation_expansion(M):
    n = len(M)
    got = poly_det(M)
    want = MultiPoly.zero(2)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = MultiPoly(2, {(0, 0): Fraction(sign)})
        for i in range(n):
            term = term * M[i][perm[i]]
        want = want + term
    assert got == want


# ---------------------------------------------------------------------------
# monomial orders


ORDERS = (grevlex(3), MonomialOrder("lex", (0, 1, 2)),
          MonomialOrder("grevlex", (2, 0, 1)), MonomialOrder("lex", (1, 2, 0)))


@DEFAULTS
@given(st.tuples(*[st.integers(0, 6) for _ in range(3)]),
       st.tuples(*[st.integers(0, 6) for _ in range(3)]),
       st.tuples(*[st.integers(0, 6) for _ in range(3)]))
def test_order_keys_are_multiplicative(a, b, c):
    for order in ORDERS:
        ka, kb = order_key(order, a), order_key(order, b)
        shift = lambda e: tuple(x + y for x, y in zip(e, c))
        if ka < kb:
            assert order_key(order, shift(a)) < order_key(order, shift(b))
        elif ka == kb:
            assert a == b
        one = (0, 0, 0)
        assert order_key(order, one) <= ka


# ---------------------------------------------------------------------------
# residue functional


@pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (1, 2)])
def test_residue_alternates_under_swaps(i, j):
    lp = load("p2_fermat.json")
    pb = lp.problem
    base = toric_residue(pb, lp.inputs[0])
    polys = list(pb.polys)
    polys[i], polys[j] = polys[j], polys[i]
    swapped = ResidueProblem(pb.fan, polys, order=pb.order, sigma=pb.sigma,
                             grading=pb.grading)
    assert toric_residue(swapped, lp.inputs[0]) == -base
