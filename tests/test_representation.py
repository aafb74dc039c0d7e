"""The one polynomial representation: integer terms over one denominator.

A ``MultiPoly`` is the pair (d, num), num a dict of nonzero ints over one
denominator d > 0, in lowest terms, gcd(d, *num) = 1.  Every builder must
return such a pair, and its Fraction view ``terms`` must be the value that
Fraction arithmetic gives: sums from a Fraction sum of the terms, products
and powers from ``oracles.fraction_product``, and the chart moves, the
normal form and the determinant from the validating and Fraction routes of
``oracles``.  ``from_integer_terms`` keeps a dict it need not reduce by
reference, so no consumer may change the ``num`` of a polynomial it is
given; the residue, the basis, the zero-locus test and the local sum are
checked for that on every fixture.
"""

import copy
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from toricres import (GroebnerBasis, MultiPoly, ResidueProblem, ToricError, decompose,
                      dehomogenize, no_common_zeros_on_x, parse_poly, poly_det,
                      sum_local_residues, toric_jacobian, toric_residue)

from conftest import FIXTURES, load
from oracles import (basis_toric_jacobian, constructor_decompose, constructor_dehomogenize,
                     fraction_product, linear_scan_normal_form)
from test_functional import outcome
from test_quotient import SYSTEM_FANS, square_systems

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

NAMES = ("x", "y", "z")

coefficients = st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-5, max_value=5, max_denominator=12))
scales = st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(bool)


def term_dicts(nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), coefficients, max_size=5)


def assert_lowest(p, terms):
    """p holds its pair in lowest terms, in ints, and reads as ``terms``."""
    assert type(p.d) is int and p.d > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert math.gcd(p.d, *p.num.values()) == 1
    assert all(len(e) == p.nvars and all(type(x) is int for x in e) for e in p.num)
    assert p.terms == terms
    assert all(type(c) is Fraction for c in p.terms.values())


def fraction_sum(*pairs):
    """The terms of the sum of s*t over the pairs (t, s) of Fraction term
    dicts t and rationals s, summed in Fractions."""
    out = {}
    for terms, s in pairs:
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + s * Fraction(c)
    return {e: c for e, c in out.items() if c}


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), term_dicts(n), term_dicts(n))),
       coefficients, st.integers(0, 3))
def test_arithmetic_returns_lowest_terms(case, c, k):
    n, a, b = case
    p, q = MultiPoly(n, a), MultiPoly(n, b)
    assert_lowest(p, fraction_sum((a, 1)))
    assert_lowest(p + q, fraction_sum((a, 1), (b, 1)))
    assert_lowest(p - q, fraction_sum((a, 1), (b, -1)))
    assert_lowest(-p, fraction_sum((a, -1)))
    assert_lowest(p + c, fraction_sum((a, 1), ({(0,) * n: c}, 1)))
    assert_lowest(c - p, fraction_sum((a, -1), ({(0,) * n: c}, 1)))
    assert_lowest(p * c, fraction_sum((a, c)))
    assert_lowest(c * p, fraction_sum((a, c)))
    assert_lowest(p * q, fraction_product(p, q).terms)
    power = MultiPoly.constant(n, 1)
    for _ in range(k):
        power = fraction_product(power, p)
    assert_lowest(p ** k, power.terms)
    for i in range(n):
        assert_lowest(p.partial(i), fraction_sum(*[
            ({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]}, 1) for e, c in a.items() if e[i]]))


@SETTINGS
@given(term_dicts(3))
def test_parsed_polynomials_are_in_lowest_terms(terms):
    """A sum of signed rational terms, each as p/q*x^a*y^b*z^c."""
    monomials = ["*".join([str(abs(Fraction(c)))] + [f"{v}^{k}" for v, k in zip(NAMES, e) if k])
                 for e, c in terms.items()]
    signs = ["-" if c < 0 else "+" for c in terms.values()]
    text = "".join(s + m for s, m in zip(signs, monomials)) or "0"
    assert_lowest(parse_poly(text, NAMES), fraction_sum((terms, 1)))


@SETTINGS
@given(square_systems(sorted(SYSTEM_FANS)), st.lists(scales, min_size=5, max_size=5))
def test_chart_moves_normal_forms_and_determinants_return_lowest_terms(case, factors):
    """On each random system with its inputs scaled by rationals: the chart
    of every input on every cone, the input's decomposition, the
    determinant of the decomposition matrix, the toric Jacobian when the
    inputs share a degree, and the normal forms of the scaled H and of each
    input times a variable."""
    pb, H, _ = case
    fan, grading = pb.fan, pb.grading
    polys = [F * s for F, s in zip(pb.polys, factors)]
    for F in polys:
        for k in range(len(fan.max_cones)):
            q = dehomogenize(F, fan, k)
            assert_lowest(q, constructor_dehomogenize(F, fan, k).terms)
            parts = outcome(lambda: decompose(F, fan, k))
            expected = outcome(lambda: constructor_decompose(F, fan, k))
            assert parts == expected
            if parts[0] == "value":
                for part, slow in zip(parts[1], expected[1], strict=True):
                    assert_lowest(part, slow.terms)
    cols = outcome(lambda: [decompose(F, fan, pb.sigma) for F in polys])
    if cols[0] == "value":
        M = [list(row) for row in zip(*cols[1])]
        assert_lowest(poly_det(M), oracles.poly_det(M).terms)
    if len(set(pb.degrees)) == 1:
        scaled = ResidueProblem(fan, polys, order=pb.order, sigma=pb.sigma, grading=grading)
        J = outcome(lambda: toric_jacobian(scaled))
        expected = outcome(lambda: basis_toric_jacobian(scaled))
        assert J == expected
        if J[0] == "value":
            assert_lowest(J[1], expected[1].terms)
    gb = GroebnerBasis.of(polys, pb.order)
    for p in [H * factors[-1]] + [F * MultiPoly.variable(fan.nvars, 0) for F in polys]:
        assert_lowest(gb.reduce(p), linear_scan_normal_form(p, gb.generators, pb.order).terms)


def test_from_integer_terms_reduces_with_one_gcd_and_keeps_a_reduced_dict():
    kept = {(1, 0): 3, (0, 1): -4}
    p = MultiPoly.from_integer_terms(2, 5, kept)
    assert p.num is kept and p.d == 5
    q = MultiPoly.from_integer_terms(2, -10, {(1, 0): 6, (0, 1): -8})
    assert (q.d, q.num) == (5, {(1, 0): -3, (0, 1): 4})
    zero = MultiPoly.from_integer_terms(2, -7, {})
    assert (zero.d, zero.num) == (1, {}) and zero == MultiPoly.zero(2) == 0


def test_equal_polynomials_have_equal_pairs_and_hashes():
    half = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(3, 4)})
    same = MultiPoly.from_integer_terms(2, 8, {(1, 0): 4, (0, 0): 6})
    assert (half.d, half.num) == (same.d, same.num) == (4, {(1, 0): 2, (0, 0): 3})
    assert half == same and hash(half) == hash(same)
    for c in (0, 3, Fraction(-5, 6)):
        constant = MultiPoly(2, {(0, 0): c})
        assert constant == c and hash(constant) == hash(c)


def snapshot(polys):
    return [(p, p.num, copy.deepcopy(p.num), p.d) for p in polys]


def assert_unchanged(before):
    for p, num, content, d in before:
        assert p.num is num and p.num == content and p.d == d


RESIDUE_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json"))


def assert_consumers_leave_inputs_unchanged(pb, inputs):
    before = snapshot(pb.polys + tuple(inputs))
    gb = GroebnerBasis.of(list(pb.polys), pb.order)
    no_common_zeros_on_x(pb.fan, pb.polys)
    no_common_zeros_on_x(pb.fan, pb.polys, gb)
    for H in inputs:
        for call in [lambda: toric_residue(pb, H)] + [
                lambda k=k: sum_local_residues(pb, H, k) for k in range(len(pb.polys))]:
            try:
                call()
            except ToricError:
                pass
    assert_unchanged(before)


def test_consumers_leave_their_inputs_unchanged_on_fixtures():
    """The residue, the basis, the zero-locus test with and without a basis
    and every local sum of every fixture read the ``num`` of their inputs
    and change none of them, refusals included."""
    for name in RESIDUE_FIXTURES:
        lp = load(name)
        assert_consumers_leave_inputs_unchanged(lp.problem, lp.inputs)


@settings(SETTINGS, max_examples=15)
@given(square_systems(sorted(SYSTEM_FANS)))
def test_consumers_leave_their_inputs_unchanged_on_random_systems(case):
    pb, H, _ = case
    assert_consumers_leave_inputs_unchanged(pb, [H])
