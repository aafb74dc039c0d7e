from fractions import Fraction

import pytest

from toricres import (
    HPolytope,
    Unbounded,
    degree_of,
    divisor_polytope,
    intersection_number,
    lattice_points,
    monomial_basis,
)
from toricres.poly import MultiPoly
from toricres.polytopes import _vertices

from oracles import contains


def test_p2_simplex(p2):
    fan, _ = p2
    for d in (1, 2, 3):
        poly = divisor_polytope(fan, (0, 0, d))
        pts = lattice_points(poly)
        assert len(pts) == (d + 1) * (d + 2) // 2
        assert intersection_number(fan, (0, 0, d)) == d * d


def test_p1p1_square(p1p1):
    fan, _ = p1p1
    poly = divisor_polytope(fan, (1, 0, 1, 0))
    assert len(lattice_points(poly)) == 4
    assert intersection_number(fan, (1, 0, 1, 0)) == 2


def test_contains_refuses_a_point_of_another_dimension():
    """A point of another dimension is refused, not cut or padded to the
    polytope's: (0, 0, 7) against a 2-D triangle."""
    triangle = HPolytope(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, 1))
    assert contains(triangle, (0, 0)) and not contains(triangle, (1, 1))
    for point in [(0, 0, 7), (0,), ()]:
        with pytest.raises(ValueError, match=f"point has {len(point)} entries in dimension 2"):
            contains(triangle, point)


def test_point_polytope(p2):
    fan, _ = p2
    poly = divisor_polytope(fan, (0, 0, 0))
    assert lattice_points(poly) == [(0, 0)]


def test_vertices_skip_parallel_facets():
    # the parallel pairs of facets meet nowhere; only the corners are vertices
    square = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 1, 1, 1))
    assert _vertices(square) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_normals_of_the_wrong_length_are_refused():
    # unchecked, zip in the dot products would cut a longer normal short,
    # and a shorter one would be indexed past its end
    for normals in (((1, 0, 5), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),
                    ((1,), (-1, 0), (0, 1), (0, -1))):
        with pytest.raises(ValueError, match="one entry per dimension"):
            HPolytope(2, normals, (1, 1, 1, 1))


def test_normals_that_are_not_integers_are_refused():
    # int() would truncate the normal 1/2 to 0, and the segment 0 <= x <= 2
    # would read as unbounded
    with pytest.raises(TypeError):
        HPolytope(1, ((Fraction(1, 2),), (-1,)), (0, 2))
    with pytest.raises(TypeError):
        HPolytope(2, ((1.0, 0), (0, 1)), (0, 0))
    assert HPolytope(1, ((True,), (-1,)), (0, 2)).normals == ((1,), (-1,))


def test_segment_volume(p1):
    # the segment [0, 3] is P_D of D = 3 D_2 on P^1, whose length is deg D
    fan, _ = p1
    poly = HPolytope(1, ((1,), (-1,)), (Fraction(0), Fraction(3)))
    assert divisor_polytope(fan, (0, 3)).vertices == poly.vertices == [(0,), (3,)]
    assert lattice_points(poly) == [(0,), (1,), (2,), (3,)]
    assert intersection_number(fan, (0, 3)) == 3


def test_unbounded_detected():
    half = HPolytope(2, ((1, 0), (0, 1)), (Fraction(0), Fraction(0)))
    with pytest.raises(Unbounded):
        lattice_points(half)


def test_intersection_numbers(p1, p2, p1p1, p112):
    fan1, _ = p1
    assert intersection_number(fan1, (3, 0)) == 3
    fan2, _ = p2
    for d in (1, 2, 3):
        assert intersection_number(fan2, (d, 0, 0)) == d * d
    fan3, _ = p1p1
    assert intersection_number(fan3, (1, 0, 1, 0)) == 2
    assert intersection_number(fan3, (2, 0, 3, 0)) == 12
    fan4, _ = p112
    assert intersection_number(fan4, (0, 0, 1)) == 2
    # an odd class on this fan has half-integral self-intersection
    assert intersection_number(fan4, (1, 0, 0)) == Fraction(1, 2)
    assert type(intersection_number(fan4, (0, 0, 1))) is Fraction


def test_intersection_scaling(p2):
    fan, _ = p2
    base = intersection_number(fan, (1, 0, 0))
    for k in (2, 3):
        assert intersection_number(fan, (k, 0, 0)) == k * k * base


def test_monomial_basis_counts(pentagon, p1p1):
    fan, g = pentagon
    rho = g.degree((3, 0, 0, 3, 7))  # x^3 t^3 u^7 has degree (3,6,4)
    assert rho.free == (3, 6, 4)
    mons = monomial_basis(fan, g, rho)
    assert len(mons) == 22
    small = monomial_basis(fan, g, g.degree((1, 0, 0, 1, 2)))
    assert len(small) == 4
    fan2, g2 = p1p1
    quad = monomial_basis(fan2, g2, g2.degree((2, 0, 0, 0)))
    assert sorted(quad) == [(0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)]


def test_monomial_basis_degrees_match(pentagon):
    fan, g = pentagon
    rho = g.degree((1, 0, 0, 1, 2))
    for m in monomial_basis(fan, g, rho):
        assert degree_of(MultiPoly.monomial(m), g) == rho


def test_monomial_basis_representative_free(p1p1):
    fan, g = p1p1
    # two different divisors in the class (2,2)
    a = monomial_basis(fan, g, g.degree((2, 0, 2, 0)))
    b = monomial_basis(fan, g, g.degree((1, 1, 0, 2)))
    assert sorted(a) == sorted(b)
    assert len(a) == 9


def test_empty_degree_slice(p1p1):
    fan, g = p1p1
    minus = g.degree((1, 0, 0, 0)) - g.degree((0, 0, 2, 0))
    assert monomial_basis(fan, g, minus) == []
