"""Intersection numbers from the fan's fixed points, against two oracles.

``intersection_number`` is one sum over the maximal cones.  It must equal
the recursion in the intersection ring (``oracles.ring_intersection``) on
every divisor, nef or not, Cartier or not, with integer or rational
coefficients, and the volume n!·vol(P_D) of the pyramid recursion over
facets (``oracles.facet_recursion_volume``) on every nef divisor.  It must
be unchanged by a principal divisor, polarize to the ring's mixed products,
give the known values of Hirzebruch surfaces and weighted projective
spaces, and refuse a fan that is not complete and simplicial.  Given n
divisors it is their mixed product D_1···D_n, the ring's, symmetric in
them, with one ``support_meets`` per divisor, and one for D^n.
"""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (InvalidFan, divisor_polytope, intersection_number, is_complete, load_fan,
                      make_fan, polytopes)

from conftest import F1, FIXTURES, INCOMPLETE, complete_polygon_fans
from oracles import facet_recursion_volume, ring_intersection
from test_differential import stellar_fans_3d
from test_fan_vertices import is_nef

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

FAN_FIXTURES = ["p1", "p2", "p1p1", "p112", "pentagon", "torsion"]


def hirzebruch(a):
    """F_a: D_1 is the curve of self-intersection -a, D_3 the one of a."""
    return make_fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def simplex_fan(rays):
    """The fan of every n-subset of n+1 rays: a weighted projective space."""
    n = len(rays[0])
    return make_fan(n, rays, list(itertools.combinations(range(n + 1), n)))


UNITS_3D = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
P3 = simplex_fan(UNITS_3D + [(-1, -1, -1)])
P1112 = simplex_fan([(1, 0, 0), (0, 1, 0), (-1, -1, -2), (0, 0, 1)])
# P^3 blown up at the fixed point of cone {0, 1, 2}, the new ray 4 being E
BLOWN_UP_P3 = make_fan(3, UNITS_3D + [(-1, -1, -1), (1, 1, 1)],
                       [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)])
P1_CUBED = make_fan(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
                    [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)])
NAMED_FANS = {"F1": F1, "F2": hirzebruch(2), "P3": P3, "P1112": P1112,
              "blown-up P3": BLOWN_UP_P3, "P1^3": P1_CUBED,
              **{name: load_fan(FIXTURES / f"{name}.fan.json")[0] for name in FAN_FIXTURES}}


def coefficient_box(fan, lo, hi, step=1):
    """Every step-th class with coefficients in lo..hi, in lexicographic order."""
    return itertools.islice(itertools.product(range(lo, hi + 1), repeat=fan.nvars),
                            0, None, step)


@pytest.mark.parametrize("name", sorted(NAMED_FANS))
def test_small_classes_are_the_ring_value(name):
    """D^n in the ring on every class with coefficients in -1..2 in
    dimension 2 and below, and on every fifth one in -1..1 in dimension 3;
    the volume of P_D on the nef ones."""
    fan = NAMED_FANS[name]
    nef = 0
    box = coefficient_box(fan, -1, 2) if fan.dim <= 2 else coefficient_box(fan, -1, 1, 5)
    for coeffs in box:
        value = intersection_number(fan, coeffs)
        assert type(value) is Fraction
        assert value == ring_intersection(fan, [coeffs] * fan.dim), coeffs
        if is_nef(fan, coeffs):
            nef += 1
            assert value == facet_recursion_volume(divisor_polytope(fan, coeffs)), coeffs
    assert nef > 1


@pytest.mark.parametrize("name", sorted(NAMED_FANS))
def test_rational_classes_are_the_ring_value(name):
    """Q-divisors: halves and thirds of small classes, and (D/k)^n = D^n/k^n."""
    fan = NAMED_FANS[name]
    for coeffs in coefficient_box(fan, -1, 2, 7 * fan.dim ** 2):
        for k in (2, 3):
            scaled = [Fraction(a, k) for a in coeffs]
            value = intersection_number(fan, scaled)
            assert value == ring_intersection(fan, [scaled] * fan.dim)
            assert value == intersection_number(fan, coeffs) / k ** fan.dim


@pytest.mark.parametrize("fan, coeffs, want", [
    (F1, (0, 1, 0, 1), 0),              # E + H, though its polytope has volume 1
    (F1, (0, 3, 0, 1), -8),             # 3E + H, the same polytope
    (F1, (0, 1, 0, 0), -1),             # the exceptional curve
    (F1, (0, 0, 0, 1), 1),              # a line
    (hirzebruch(2), (0, 1, 0, 0), -2),
    (hirzebruch(2), (0, 0, 0, 1), 2),
    (NAMED_FANS["p112"], (1, 0, 0), Fraction(1, 2)),  # a weight-1 divisor
    (NAMED_FANS["p112"], (0, 0, 1), 2),               # the weight-2 divisor
    (NAMED_FANS["p1"], (1, 2), 3),
    (NAMED_FANS["p2"], (1, 1, 1), 9),
    (P3, (0, 0, 0, 2), 8),
    (P1112, (1, 0, 0, 0), Fraction(1, 2)),
    (P1112, (0, 0, 0, 1), 4),
    (BLOWN_UP_P3, (0, 0, 0, 0, 1), 1),  # E^3 = 1 for E the exceptional P^2
    (BLOWN_UP_P3, (0, 0, 0, 1, -1), 0),  # H - E: the pencil of planes through the point
    (P1_CUBED, (1, 0, 1, 0, 1, 0), 6),
])
def test_known_values(fan, coeffs, want):
    assert intersection_number(fan, coeffs) == want
    assert ring_intersection(fan, [coeffs] * fan.dim) == want


@SETTINGS
@given(st.one_of(complete_polygon_fans(), stellar_fans_3d()), st.data())
def test_random_fans_against_both_oracles(fan, data):
    """Any class against the ring, a principal divisor added changes
    nothing, and on 3-folds the classes pulled back from O(d) on P^3 plus a
    principal divisor, which are nef, against the volume.  Nef polygon
    classes are checked in ``test_volume``."""
    if not is_complete(fan).ok:
        with pytest.raises(InvalidFan, match="need a complete fan"):
            intersection_number(fan, (0,) * fan.nvars)
        return
    n = fan.dim
    coeffs = data.draw(st.lists(st.integers(-3, 4) | st.fractions(-3, 4, max_denominator=3),
                                min_size=fan.nvars, max_size=fan.nvars))
    value = intersection_number(fan, coeffs)
    assert value == ring_intersection(fan, [coeffs] * n)
    m = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    moved = [a + sum(x * r for x, r in zip(m, ray)) for a, ray in zip(coeffs, fan.rays)]
    assert intersection_number(fan, moved) == value
    d = data.draw(st.integers(0, 3))
    if n == 3:
        pulled = [d * max(0, *(-x for x in ray)) + sum(x * r for x, r in zip(m, ray))
                  for ray in fan.rays]
        assert intersection_number(fan, pulled) == facet_recursion_volume(
            divisor_polytope(fan, pulled)) == d ** 3


@pytest.mark.parametrize("name", ["F1", "p112", "torsion", "P3", "blown-up P3", "P1112"])
def test_polarization_gives_the_ring_mixed_products(name):
    """n!·D_1···D_n = sum over nonempty S of (-1)^(n-|S|) (sum_S D_i)^n."""
    fan = NAMED_FANS[name]
    n = fan.dim
    basis = [tuple(int(i == j) for j in range(fan.nvars)) for i in range(fan.nvars)]
    for divisors in itertools.combinations_with_replacement(basis + [(1,) * fan.nvars], n):
        polar = sum(((-1) ** (n - len(S)) * intersection_number(
            fan, [sum(col) for col in zip(*S)])
            for k in range(1, n + 1) for S in itertools.combinations(divisors, k)), Fraction(0))
        assert polar / factorial(n) == ring_intersection(fan, divisors), divisors


def small_divisors(fan):
    """Each ray's divisor, the sum of all, and a Q-divisor."""
    basis = [tuple(int(i == j) for j in range(fan.nvars)) for i in range(fan.nvars)]
    return basis + [(1,) * fan.nvars, (Fraction(1, 2),) + (-1,) * (fan.nvars - 1)]


@pytest.mark.parametrize("name", sorted(NAMED_FANS))
def test_mixed_products_are_the_ring_value(name):
    """D_1···D_n on every choice of n divisors of ``small_divisors``, in
    every order, and the self-product of one as D^n."""
    fan = NAMED_FANS[name]
    for divisors in itertools.combinations_with_replacement(small_divisors(fan), fan.dim):
        value = intersection_number(fan, *divisors)
        assert type(value) is Fraction
        assert value == ring_intersection(fan, divisors), divisors
        assert value == intersection_number(fan, *divisors[::-1])
        if len(set(divisors)) == 1:
            assert value == intersection_number(fan, divisors[0])


@pytest.mark.parametrize("fan, divisors, want", [
    (NAMED_FANS["p1p1"], [(1, 0, 0, 0), (0, 0, 1, 0)], 1),   # a fibre of each ruling
    (NAMED_FANS["p1p1"], [(1, 0, 0, 0), (2, 0, 0, 0)], 0),   # two fibres of one ruling
    (NAMED_FANS["p1p1"], [(2, 0, 1, 0), (1, 0, 1, 0)], 3),   # (2, 1)·(1, 1)
    (F1, [(0, 1, 0, 0), (0, 0, 0, 1)], 0),                  # E·H
    (NAMED_FANS["p112"], [(1, 0, 0), (0, 0, 1)], 1),         # weight 1 by weight 2
    (P3, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 3)], 6),
])
def test_known_mixed_values(fan, divisors, want):
    assert intersection_number(fan, *divisors) == want
    assert ring_intersection(fan, divisors) == want


def test_one_support_meets_per_divisor(monkeypatch):
    calls = []
    real = polytopes.support_meets

    def counted(fan, coeffs):
        calls.append(coeffs)
        return real(fan, coeffs)

    monkeypatch.setattr(polytopes, "support_meets", counted)
    assert intersection_number(P3, (0, 0, 0, 2)) == 8
    assert calls == [(0, 0, 0, 2)]
    calls.clear()
    assert intersection_number(P3, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)) == 1
    assert len(calls) == 3


def test_a_count_of_divisors_other_than_1_or_n_is_refused():
    with pytest.raises(ValueError, match="takes 1 or 3 divisors, got 2"):
        intersection_number(P3, (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError, match="takes 1 or 2 divisors, got 0"):
        intersection_number(F1)


def test_a_fan_that_is_not_complete_and_simplicial_is_refused():
    with pytest.raises(InvalidFan, match="need a complete fan: rays \\[2\\] lie in no"):
        intersection_number(INCOMPLETE, (0, 0, 1))
    # the normal fan of the octahedron: complete, each cone over a square
    # face of the cube, with four rays
    corners = list(itertools.product((1, -1), repeat=3))
    faces = [[k for k, c in enumerate(corners) if c[axis] == s]
             for axis in range(3) for s in (1, -1)]
    cube_faces = make_fan(3, corners, faces)
    with pytest.raises(InvalidFan, match="need a complete fan: a maximal cone is not simplicial"):
        intersection_number(cube_faces, (1,) * 8)
    with pytest.raises(InvalidFan, match="one coefficient per ray"):
        intersection_number(F1, (1, 0, 0))
