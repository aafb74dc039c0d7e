"""The pulling-triangulation volume against the facet-recursion oracle.

Every full-dimensional case must give the same Fraction as the old pyramid
recursion over facets (``oracles.facet_recursion_volume``); polygons are
also checked against the shoelace area.  The refusals, and the vertex
enumerations a call makes (none for a nef class on a complete fan), are
pinned separately.
"""

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (
    DegenerateVolume,
    HPolytope,
    Unbounded,
    divisor_polytope,
    intersection_number,
    is_complete,
    lattice_points,
    make_fan,
    normalized_volume,
    polytope_volume,
)
from toricres import polytopes

from oracles import facet_recursion_volume

DEFAULTS = settings(max_examples=40, deadline=None, derandomize=True)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angular_key(v):
    # half-plane first, then the exact cross product inside a half-plane
    def cmp(a, b):
        ha = a[1] < 0 or (a[1] == 0 and a[0] < 0)
        hb = b[1] < 0 or (b[1] == 0 and b[0] < 0)
        if ha != hb:
            return 1 if ha else -1
        c = _cross(a, b)
        return -1 if c > 0 else (1 if c < 0 else 0)
    return cmp_to_key(cmp)(v)


def shoelace_twice_area(verts):
    """Twice the area of a convex polygon, from its vertices in any order."""
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    ring = sorted(verts, key=lambda v: _angular_key((v[0] - cx, v[1] - cy)))
    return abs(sum(_cross(p, q) for p, q in zip(ring, ring[1:] + ring[:1])))


@st.composite
def complete_polygon_fans(draw):
    """Rays sorted by angle with every consecutive turn strictly under pi,
    so the consecutive pairs are the maximal cones of a complete fan."""
    raw = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4))
                        .filter(any), min_size=3, max_size=9))
    rays = sorted({(x // gcd(x, y), y // gcd(x, y)) for x, y in raw}, key=_angular_key)
    assume(len(rays) >= 3)
    assume(all(_cross(u, v) > 0 for u, v in zip(rays, rays[1:] + rays[:1])))
    k = len(rays)
    return make_fan(2, rays, [(i, (i + 1) % k) for i in range(k)])


def _check_against_oracle(poly):
    want = facet_recursion_volume(poly)
    try:
        got = normalized_volume(poly)
    except DegenerateVolume:
        assert want == 0
        return None
    assert got == want
    assert polytope_volume(poly) == want / factorial(poly.dim)
    return got


@DEFAULTS
@given(complete_polygon_fans(), st.data())
def test_polygons_of_random_complete_fans(fan, data):
    assert is_complete(fan).ok
    coeffs = data.draw(st.lists(st.integers(-3, 5), min_size=fan.nvars,
                                max_size=fan.nvars))
    poly = divisor_polytope(fan, coeffs)
    got = _check_against_oracle(poly)
    if got is not None:
        assert got == shoelace_twice_area(polytopes._vertices(poly))


def cut_boxes(n):
    """A box around the origin cut by rational half-spaces that keep the
    origin inside, so the polytope is full-dimensional."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    box = st.lists(st.integers(1, 3), min_size=2 * n, max_size=2 * n)
    cut = st.tuples(st.tuples(*[st.integers(-2, 2)] * n).filter(any),
                    st.fractions(min_value=Fraction(1, 3), max_value=6,
                                 max_denominator=3))
    return st.tuples(box, st.lists(cut, min_size=1, max_size=3)).map(
        lambda bc: HPolytope(
            n,
            tuple(unit) + tuple(tuple(-x for x in u) for u in unit)
            + tuple(nr for nr, _ in bc[1]),
            tuple(bc[0]) + tuple(off for _, off in bc[1])))


@DEFAULTS
@given(cut_boxes(3))
def test_cut_boxes_in_three_dimensions(poly):
    assert _check_against_oracle(poly) > 0


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cut_boxes(4))
def test_cut_boxes_in_four_dimensions(poly):
    assert _check_against_oracle(poly) > 0


def test_cube_and_non_simple_octahedron():
    cube = HPolytope(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                         (0, 0, 1), (0, 0, -1)), (1,) * 6)
    assert normalized_volume(cube) == facet_recursion_volume(cube) == 48
    # every vertex of the octahedron lies on four facets
    octa = HPolytope(3, tuple(itertools.product((1, -1), repeat=3)), (1,) * 8)
    assert len(polytopes._vertices(octa)) == 6
    assert normalized_volume(octa) == facet_recursion_volume(octa) == 8
    assert polytope_volume(octa) == Fraction(4, 3)


def test_parallel_duplicate_redundant_and_zero_inequalities():
    square = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
    extra = [((1, 0), 1),             # duplicate
             ((2, 0), 2),             # the same facet, not primitive
             ((-1, 0), 2),            # parallel and looser
             ((1, 1), 5),             # redundant, tight nowhere
             ((1, 1), 2),             # redundant, tight at one vertex
             ((0, 0), 0),             # zero normal, tight everywhere
             ((0, 0), Fraction(1, 2))]  # zero normal, tight nowhere
    rows = square + extra
    poly = HPolytope(2, tuple(r for r, _ in rows), tuple(o for _, o in rows))
    assert normalized_volume(poly) == facet_recursion_volume(poly) == 8
    cube = [(tuple(s * int(i == j) for j in range(3)), 1)
            for i in range(3) for s in (1, -1)]
    rows = cube + [((2, 0, 0), 2), ((1, 1, 1), 3), ((1, 1, 0), 3),
                   ((0, 0, 0), 0)]
    poly = HPolytope(3, tuple(r for r, _ in rows), tuple(o for _, o in rows))
    assert normalized_volume(poly) == facet_recursion_volume(poly) == 48


def test_dimension_zero_and_one():
    point = HPolytope(0, ((), ()), (0, 1))
    assert normalized_volume(point) == facet_recursion_volume(point) == 1
    assert polytope_volume(point) == 1
    segment = HPolytope(1, ((1,), (-1,), (-2,), (3,)),
                        (Fraction(-1, 2), Fraction(7, 3), 9, 4))
    assert normalized_volume(segment) == facet_recursion_volume(segment)
    assert polytope_volume(segment) == Fraction(11, 6)


def test_refusals():
    empty = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (-1, 0, 1, 1))
    flat = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 0, 1, 1))
    for poly in (empty, flat, HPolytope(0, ((),), (-1,))):
        with pytest.raises(DegenerateVolume):
            normalized_volume(poly)
        with pytest.raises(DegenerateVolume):
            polytope_volume(poly)
    half = HPolytope(2, ((1, 0), (0, 1), (-1, 0)), (0, 0, 1))
    for fn in (normalized_volume, polytope_volume, lattice_points):
        with pytest.raises(Unbounded):
            fn(half)


def test_vertices_are_enumerated_once(p2, pentagon, monkeypatch):
    """A nef class on a complete fan reads its vertices from the fan and
    enumerates no n-subset; a class that is not nef, and any class on an
    incomplete fan, enumerates them once per polytope."""
    calls = []
    real = polytopes._vertices

    def counted(poly):
        calls.append(poly.dim)
        return real(poly)

    monkeypatch.setattr(polytopes, "_vertices", counted)
    p3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                  [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    for fan, coeffs, want, enumerations in (
            (p2[0], (2, 0, 0), 4, []), (pentagon[0], (1, 1, 1, 1, 1), 5, []),
            (p3, (0, 0, 0, 2), 8, []), (F1, (0, 3, 0, 1), 1, [2]),
            (INCOMPLETE, (0, 0, 1), 1, [2])):
        calls.clear()
        vol = intersection_number(fan, coeffs)
        assert vol == want
        assert calls == enumerations
        calls.clear()
        lattice_points(divisor_polytope(fan, coeffs))
        assert calls == enumerations


F1 = make_fan(2, [(1, 0), (1, 1), (0, 1), (-1, -1)],
              [(0, 1), (1, 2), (2, 3), (0, 3)])
# the cone {0, 1} of the P^2 fan alone: P_D is still a triangle for
# D = (0, 0, 1), but the one cone functional is one of its vertices
INCOMPLETE = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1)])


def test_intersection_number_is_the_volume_not_d_squared_off_the_nef_cone():
    # D = E + H and 3E + H on F1, with E the exceptional curve (E^2 = -1)
    # and H a line (H^2 = 1, H.E = 0): D^2 is 0 and -8, but the polytope of
    # either is the unit triangle of the nef part H
    assert intersection_number(F1, (0, 1, 0, 1)) == 1
    assert intersection_number(F1, (0, 3, 0, 1)) == 1
    # nef classes give D^2: H^2 = 1 and (H + F)^2 = 3, with F = H - E the
    # fibre class (F^2 = 0, H.F = 1)
    assert intersection_number(F1, (0, 0, 0, 1)) == 1
    assert intersection_number(F1, (1, 0, 0, 1)) == 3


def test_a_flat_divisor_polytope_has_intersection_number_zero(p1p1, monkeypatch):
    # nef classes that are not big: the zero class and a ruling on P1xP1,
    # the fibre class on F1; each polytope is a point or a segment
    fan = p1p1[0]
    assert intersection_number(fan, (0, 0, 0, 0)) == 0
    assert intersection_number(fan, (1, 0, 0, 0)) == 0
    assert intersection_number(F1, (1, 0, 0, 0)) == 0
    with pytest.raises(DegenerateVolume, match="empty"):
        intersection_number(fan, (-1, 0, 0, 0))
    # the flat class is nef on a complete fan, so its vertices, the two
    # distinct cone functionals, come from the fan with no enumeration
    calls = []
    real = polytopes._vertices
    monkeypatch.setattr(polytopes, "_vertices", lambda poly: calls.append(1) or real(poly))
    assert intersection_number(fan, (1, 0, 0, 0)) == 0
    assert calls == []
