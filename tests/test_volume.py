"""Intersection numbers of nef classes against the facet-recursion volume,
and the polytope layer on degenerate rows.

For a nef D, D^n is n!·vol(P_D), so ``intersection_number`` must give the
Fraction of the pyramid recursion over facets
(``oracles.facet_recursion_volume``) and, on polygons, the shoelace area;
off the nef cone it must give D^n, which the volume does not.  The vertex
enumerations a call makes (none for an intersection number, none for the
lattice points of a nef class on a complete fan) are pinned, and vertices
and lattice points on degenerate rows are checked against the oracles.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    HPolytope,
    InvalidFan,
    Unbounded,
    divisor_polytope,
    intersection_number,
    is_complete,
    lattice_points,
    make_fan,
)
from toricres import polytopes

from conftest import F1, INCOMPLETE, _angular_key, _cross, complete_polygon_fans
from oracles import box_lattice_points, facet_recursion_volume, fraction_vertices
from test_fan_vertices import nef_hull_class

DEFAULTS = settings(max_examples=40, deadline=None, derandomize=True)


def shoelace_twice_area(verts):
    """Twice the area of a convex polygon, from its vertices in any order."""
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    ring = sorted(verts, key=lambda v: _angular_key((v[0] - cx, v[1] - cy)))
    return abs(sum(_cross(p, q) for p, q in zip(ring, ring[1:] + ring[:1])))


@DEFAULTS
@given(complete_polygon_fans(), st.data())
def test_polygons_of_random_complete_fans(fan, data):
    """The nef class with the polytope of a random class; the random class
    itself is checked against the ring in ``test_fan_vertices``."""
    assert is_complete(fan).ok
    coeffs = data.draw(st.lists(st.integers(-3, 5), min_size=fan.nvars,
                                max_size=fan.nvars))
    nef = nef_hull_class(fan, coeffs)
    if nef is not None:
        verts = divisor_polytope(fan, nef).vertices
        want = facet_recursion_volume(divisor_polytope(fan, nef))
        assert intersection_number(fan, nef) == want
        assert want == (shoelace_twice_area(verts) if len(verts) >= 3 else 0)


def assert_points_as_oracles(poly):
    assert polytopes._vertices(poly) == fraction_vertices(poly)
    assert lattice_points(poly) == box_lattice_points(poly)


def test_cube_and_non_simple_octahedron():
    # the cube is P_D of D = sum D_i on (P^1)^3, so D^3 is its volume 48
    units = [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    p1_cubed = make_fan(3, units, [c for c in itertools.combinations(range(6), 3)
                                   if all(c[k] // 2 != c[k + 1] // 2 for k in range(2))])
    cube = HPolytope(3, tuple(units), (1,) * 6)
    assert divisor_polytope(p1_cubed, (1,) * 6).vertices == polytopes._vertices(cube)
    assert intersection_number(p1_cubed, (1,) * 6) == facet_recursion_volume(cube) == 48
    assert_points_as_oracles(cube)
    # every vertex of the octahedron lies on four facets
    octa = HPolytope(3, tuple(itertools.product((1, -1), repeat=3)), (1,) * 8)
    assert len(polytopes._vertices(octa)) == 6
    assert_points_as_oracles(octa)


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
    assert polytopes._vertices(poly) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert_points_as_oracles(poly)
    cube = [(tuple(s * int(i == j) for j in range(3)), 1)
            for i in range(3) for s in (1, -1)]
    rows = cube + [((2, 0, 0), 2), ((1, 1, 1), 3), ((1, 1, 0), 3),
                   ((0, 0, 0), 0)]
    poly = HPolytope(3, tuple(r for r, _ in rows), tuple(o for _, o in rows))
    assert len(polytopes._vertices(poly)) == 8
    assert_points_as_oracles(poly)


def test_dimension_zero_and_one():
    point = HPolytope(0, ((), ()), (0, 1))
    assert point.vertices == [()]
    assert lattice_points(point) == [()]
    segment = HPolytope(1, ((1,), (-1,), (-2,), (3,)),
                        (Fraction(-1, 2), Fraction(7, 3), 9, 4))
    assert segment.vertices == [(Fraction(1, 2),), (Fraction(7, 3),)]
    assert lattice_points(segment) == [(1,), (2,)]
    assert_points_as_oracles(segment)


def test_refusals():
    empty = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (-1, 0, 1, 1))
    flat = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 0, 1, 1))
    assert empty.vertices == [] and lattice_points(empty) == []
    assert flat.vertices == [(0, -1), (0, 1)]
    assert lattice_points(flat) == [(0, -1), (0, 0), (0, 1)]
    assert HPolytope(0, ((),), (-1,)).vertices == []
    half = HPolytope(2, ((1, 0), (0, 1), (-1, 0)), (0, 0, 1))
    for fn in (lambda p: p.vertices, lattice_points):
        with pytest.raises(Unbounded):
            fn(half)


def test_vertices_are_enumerated_once(p2, pentagon, monkeypatch):
    """An intersection number reads no polytope.  A nef class on a complete
    fan reads its vertices from the fan and enumerates no n-subset; a class
    that is not nef, and any class on an incomplete fan, enumerates them
    once per polytope."""
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
            (p3, (0, 0, 0, 2), 8, []), (F1, (0, 3, 0, 1), -8, [2]),
            (INCOMPLETE, (0, 0, 1), None, [2])):
        calls.clear()
        if want is None:
            with pytest.raises(InvalidFan):
                intersection_number(fan, coeffs)
        else:
            assert intersection_number(fan, coeffs) == want
        assert calls == []
        lattice_points(divisor_polytope(fan, coeffs))
        assert calls == enumerations


def test_intersection_number_is_d_squared_off_the_nef_cone():
    # D = E + H and 3E + H on F1: D^2 is 0 and -8, though the polytope of
    # either is the unit triangle of the nef part H, of volume 1
    assert intersection_number(F1, (0, 1, 0, 1)) == 0
    assert intersection_number(F1, (0, 3, 0, 1)) == -8
    for coeffs in ((0, 1, 0, 1), (0, 3, 0, 1)):
        assert facet_recursion_volume(divisor_polytope(F1, coeffs)) == 1
    assert intersection_number(F1, (0, 1, 0, 0)) == -1
    # nef classes give their volume: H^2 = 1 and (H + F)^2 = 3, with
    # F = H - E the fibre class (F^2 = 0, H.F = 1)
    assert intersection_number(F1, (0, 0, 0, 1)) == 1
    assert intersection_number(F1, (1, 0, 0, 1)) == 3


def test_a_flat_divisor_polytope_has_intersection_number_zero(p1p1, monkeypatch):
    # nef classes that are not big: the zero class and a ruling on P1xP1,
    # the fibre class on F1; each polytope is a point or a segment
    fan = p1p1[0]
    assert intersection_number(fan, (0, 0, 0, 0)) == 0
    assert intersection_number(fan, (1, 0, 0, 0)) == 0
    assert intersection_number(F1, (1, 0, 0, 0)) == 0
    # minus a ruling has an empty polytope and D^2 = 0
    assert divisor_polytope(fan, (-1, 0, 0, 0)).vertices == []
    assert intersection_number(fan, (-1, 0, 0, 0)) == 0
    calls = []
    real = polytopes._vertices
    monkeypatch.setattr(polytopes, "_vertices", lambda poly: calls.append(1) or real(poly))
    assert intersection_number(fan, (1, 0, 0, 0)) == 0
    assert calls == []
