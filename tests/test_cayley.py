"""Bundle lift: ray layout, shared degree, polytope gluing, weight check."""

from fractions import Fraction

import pytest

from toricres import (
    DegreeMismatch,
    MultiPoly,
    NotAmple,
    build_cayley,
    bundle_class,
    cayley_polytope_check,
    critical_degree_lifted,
    degree_of,
    equal_degree_check,
    jacobian_ideal_degree_check,
)
from toricres.grading import representative_divisor

from conftest import load, poly


def test_lifted_rays_line_equal_divisors(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(1, 0), (1, 0)])
    # equal divisors leave every base ray with a zero e-part
    assert cd.bundle.rays == ((0, 1), (0, -1), (-1, 0), (1, 0))
    assert cd.variables == ("x", "y", "y0", "y1")
    assert cd.n == 1 and cd.base_count == 2


def test_lifted_rays_record_coefficient_gaps(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(1, 0), (2, 0)])
    assert cd.bundle.rays == ((1, 1), (0, -1), (-1, 0), (1, 0))


def test_bundle_grading_and_degrees(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(1, 0), (1, 0)])
    assert cd.grading.free_rows == ((1, 1, 0, 0), (0, 0, 1, 1))
    gamma = bundle_class(cd)
    assert gamma.free == (1, 1)
    # two inputs of the bundle class against four variables of total class
    # (2, 2) leaves the zero class
    assert critical_degree_lifted(cd).free == (0, 0)


def test_not_ample_divisor_is_refused(p1):
    fan, g = p1
    with pytest.raises(NotAmple):
        build_cayley(fan, g, [(1, 0), (0, 0)])


def test_wrong_divisor_count(p1):
    fan, g = p1
    with pytest.raises(DegreeMismatch):
        build_cayley(fan, g, [(1, 0), (1, 0), (1, 0)])
    with pytest.raises(DegreeMismatch):
        build_cayley(fan, g, [(1, 0), (1, 0, 0)])


def test_degenerate_divisors_allowed_when_unchecked(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(0, 0), (0, 0)], require_ample=False)
    # both summand polytopes collapse to a point, so the bundle polytope is a
    # standard simplex and the gluing still matches
    assert cayley_polytope_check(cd)


def test_equal_degree_line(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(1, 0), (1, 0)])
    F = [poly("x", fan), poly("y", fan)]
    assert equal_degree_check(cd, F)


def test_equal_degree_rejects_wrong_input_degree(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(1, 0), (1, 0)])
    with pytest.raises(DegreeMismatch):
        equal_degree_check(cd, [poly("x", fan), poly("x^2", fan)])
    with pytest.raises(DegreeMismatch):
        equal_degree_check(cd, [poly("x", fan)])


def test_polytope_gluing_line(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(1, 0), (1, 0)])
    assert cayley_polytope_check(cd)


def test_jacobian_weights_line(p1):
    fan, g = p1
    cd = build_cayley(fan, g, [(1, 0), (1, 0)])
    assert jacobian_ideal_degree_check(cd, [poly("x", fan), poly("y", fan)])


def test_bilinear_surface_bundle():
    lp = load("p1p1_bilinear.json")
    divs = [representative_divisor(lp.grading, degree_of(p, lp.grading))
            for p in lp.problem.polys]
    cd = build_cayley(lp.fan, lp.grading, divs)
    assert len(cd.bundle.rays) == 7
    assert all(len(r) == 4 for r in cd.bundle.rays)
    assert bundle_class(cd).free == (1, 1, 1)
    assert equal_degree_check(cd, lp.problem.polys)
    assert cayley_polytope_check(cd)
    assert jacobian_ideal_degree_check(cd, lp.problem.polys)


def test_equal_degree_check_refuses_an_input_of_another_ring(p2):
    """An input with fewer or more variables than the base fan is refused
    for its ring, before any degree is compared: x^2 in two variables must
    not be read, truncated, as an input of the wrong degree."""
    fan, g = p2
    cd = build_cayley(fan, g, [(1, 0, 0)] * 3)
    good = [poly(v, fan) for v in fan.variables]
    assert equal_degree_check(cd, good)
    for bad in [MultiPoly(2, {(2, 0): 1}), MultiPoly(2, {(1, 0): 1}),
                MultiPoly(4, {(1, 0, 0, 0): 1})]:
        with pytest.raises(DegreeMismatch, match="entries for 3 variables"):
            equal_degree_check(cd, [bad, *good[1:]])


def test_build_cayley_refuses_a_divisor_entry_that_is_not_an_integer(p2):
    """int() once read 3/2 as 1, and the bundle was built for D_0 = (1, 0, 0)."""
    fan, g = p2
    for entry in (Fraction(3, 2), 1.5):
        with pytest.raises(TypeError):
            build_cayley(fan, g, [(entry, 0, 0), (1, 0, 0), (1, 0, 0)])
