import re
from fractions import Fraction

import pytest

from toricres import (
    HPolytope,
    MultiPoly,
    PositivityReport,
    divisor_polytope,
    intersection_number,
    is_ample,
    is_cartier,
    is_q_ample,
    lattice_points,
    monomial_basis,
    representative_divisor,
)

from oracles import cone_functionals, in_irrelevant_ideal


def pentagon_class(a, b, c):
    # coefficients on the divisors of z, t, u; those variables have the
    # standard-basis degrees in the fixture grading
    return (0, 0, a, b, c)


def test_pentagon_cartier_parity(pentagon):
    fan, _ = pentagon
    assert is_cartier(fan, pentagon_class(1, 1, 1)).ok
    assert is_cartier(fan, pentagon_class(2, 2, 2)).ok
    assert is_cartier(fan, pentagon_class(1, 3, 1)).ok
    assert not is_cartier(fan, pentagon_class(2, 3, 1)).ok
    assert not is_cartier(fan, pentagon_class(1, 3, 2)).ok
    assert not is_cartier(fan, pentagon_class(0, 1, 0)).ok


def test_pentagon_ample_window(pentagon):
    fan, _ = pentagon
    # strict convexity needs b > a > 0 and b > c > 0; Cartier needs parity
    assert is_ample(fan, pentagon_class(1, 3, 1)).ok
    assert not is_ample(fan, pentagon_class(2, 3, 1)).ok       # not Cartier
    assert is_q_ample(fan, pentagon_class(2, 3, 1)).ok
    assert is_q_ample(fan, pentagon_class(1, 3, 2)).ok
    assert not is_q_ample(fan, pentagon_class(1, 1, 1)).ok     # b = a
    assert not is_q_ample(fan, pentagon_class(3, 3, 1)).ok
    assert not is_q_ample(fan, pentagon_class(0, 2, 1)).ok     # a = 0
    assert not is_q_ample(fan, pentagon_class(1, 2, 0)).ok     # c = 0


def test_p1p1_ample_iff_positive(p1p1):
    fan, _ = p1p1
    for a in range(0, 3):
        for b in range(0, 3):
            verdict = is_ample(fan, (a, 0, b, 0)).ok
            assert verdict == (a > 0 and b > 0)


def test_p2_everything_cartier(p2):
    fan, _ = p2
    for coeffs in ((1, 0, 0), (0, 2, 1), (5, 3, 2), (0, 0, 0)):
        assert is_cartier(fan, coeffs).ok
    assert is_ample(fan, (1, 0, 0)).ok
    assert not is_ample(fan, (0, 0, 0)).ok


def test_p112_q_ample_not_cartier(p112):
    fan, _ = p112
    assert not is_cartier(fan, (1, 0, 0)).ok
    assert is_q_ample(fan, (1, 0, 0)).ok
    assert is_cartier(fan, (0, 0, 1)).ok
    assert is_ample(fan, (0, 0, 1)).ok


def test_witness_reporting(pentagon):
    fan, _ = pentagon
    report = is_cartier(fan, pentagon_class(2, 3, 1))
    assert report.witnesses
    ok = is_cartier(fan, pentagon_class(1, 1, 1))
    assert not ok.witnesses
    assert len(cone_functionals(fan, pentagon_class(1, 1, 1))) == 5


def test_ample_invariant_under_principal_shift(pentagon, p1p1):
    for fan, g in (pentagon, p1p1):
        coeffs = representative_divisor(g, g.degree((0,) * (fan.nvars - 3) + (1, 1, 1)))
        base = is_q_ample(fan, coeffs).ok
        for m in ((1, 0), (0, 1), (-2, 3)):
            shifted = [c + sum(mi * ri for mi, ri in zip(m, fan.rays[i]))
                       for i, c in enumerate(coeffs)]
            assert is_q_ample(fan, shifted).ok == base
            assert is_cartier(fan, shifted).ok == is_cartier(fan, coeffs).ok


def test_ample_implies_section_ring_in_irrelevant_ideal(pentagon):
    fan, g = pentagon
    coeffs = pentagon_class(1, 3, 1)
    assert is_ample(fan, coeffs).ok
    alpha = g.degree(coeffs)
    for m in monomial_basis(fan, g, alpha):
        assert in_irrelevant_ideal(MultiPoly.monomial(m), fan)


# every reader of a divisor's coefficients, as a function of (fan, coeffs)
COEFFICIENT_READERS = {
    "intersection_number": intersection_number,
    "is_cartier": is_cartier,
    "is_q_ample": is_q_ample,
    "is_ample": is_ample,
    "divisor_polytope": divisor_polytope,
    "HPolytope": lambda fan, coeffs: HPolytope(fan.dim, fan.rays, coeffs),
}


@pytest.mark.parametrize("name", sorted(COEFFICIENT_READERS))
@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, "1/3", "1"])
def test_a_float_or_string_coefficient_is_refused(pentagon, name, bad):
    """A float would be read in binary (0.1 as 3602879701896397/2^55) and
    a string parsed; both are refused, as ``MultiPoly`` refuses them."""
    fan, _ = pentagon
    message = re.escape(f"coefficient {bad!r} is neither an int nor a Fraction")
    with pytest.raises(TypeError, match=message):
        COEFFICIENT_READERS[name](fan, pentagon_class(1, bad, 1))


@pytest.mark.parametrize("coeffs, volume, cartier, strict, vertices, points", [
    (pentagon_class(1, 3, 1), 5, (), (), [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)], 6),
    (pentagon_class(2, 3, 1), Fraction(13, 2), (2,), (),
     [(0, 0), (0, 1), (1, 2), (2, 0), (Fraction(5, 2), Fraction(1, 2))], 7),
    (pentagon_class(Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)), Fraction(5, 4),
     (1, 2, 3, 4), (), [(0, 0), (0, Fraction(1, 2)), (Fraction(1, 2), 0),
                        (Fraction(1, 2), 1), (1, Fraction(1, 2))], 1),
])
def test_int_and_fraction_coefficients_keep_their_values(pentagon, coeffs, volume, cartier,
                                                         strict, vertices, points):
    """Ints, Fractions and ints as Fractions read alike, to the values
    pinned here."""
    fan, _ = pentagon
    for c in (coeffs, tuple(map(Fraction, coeffs))):
        assert intersection_number(fan, c) == volume
        assert is_cartier(fan, c) == PositivityReport(not cartier, not cartier, cartier)
        assert is_q_ample(fan, c) == PositivityReport(not strict, not cartier, strict)
        assert is_ample(fan, c) == (PositivityReport(False, False, cartier) if cartier
                                    else PositivityReport(not strict, True, strict))
        poly = divisor_polytope(fan, c)
        assert poly.vertices == vertices and len(lattice_points(poly)) == points
        assert HPolytope(fan.dim, fan.rays, c).offsets == tuple(map(Fraction, coeffs))
