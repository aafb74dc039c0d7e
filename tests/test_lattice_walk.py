"""The monomials of a degree as one integer walk, against the per-point oracles.

``monomial_basis`` must equal ``oracles.dot_divisor_monomials``, which takes
the dot products of every lattice point of the bounding box of the Fraction
vertices, and ``lattice_points`` must equal ``oracles.box_lattice_points``:
on every fixture fan, at classes that are nef and classes that are not, on
random surfaces of 8 to 38 rays, on the bundle fans of the Cayley lift, on
a 1-D and a 3-D fan, at empty polytopes, and, for the lattice points, at
rational offsets.  For a nef class on a complete fan the polytope keeps
the cone meets: its vertex view must equal ``oracles.fraction_vertices``,
its integer box the ceiling and floor of the vertices' coordinates, and
the walk must build no Fraction, read no vertex and take no dot product.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import ceil, floor

import pytest

from toricres import (
    HPolytope,
    build_cayley,
    compute_grading,
    degree_of,
    divisor_polytope,
    is_complete,
    lattice_points,
    load_fan,
    make_fan,
    monomial_basis,
    representative_divisor,
)
from toricres import polytopes
from toricres.cayley import _bundle_exponent, critical_degree_lifted

from conftest import F1, FIXTURES, INCOMPLETE, load
from oracles import (box_lattice_points, cone_functionals, contains, dot_divisor_monomials,
                     fraction_vertices, random_surface)

FAN_FIXTURES = sorted(FIXTURES.glob("*.fan.json"))
P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
# P^1 x P^1 x P^1 with its rays listed out of order
CUBE = make_fan(3, [(0, 0, -1), (1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 0), (0, 1, 0)],
                [tuple(sorted(c)) for c in itertools.product((1, 4), (2, 5), (0, 3))])


def is_nef(fan, coeffs):
    return all(contains(HPolytope(fan.dim, fan.rays, coeffs), m)
               for m in cone_functionals(fan, coeffs))


def assert_walk_as_oracle(fan, grading, coeffs):
    """The monomials of the class of ``coeffs`` and the lattice points of
    its polytope against the oracles; the vertices and the integer box
    too when the polytope kept the cone meets.  Returns the points."""
    poly = divisor_polytope(fan, coeffs)
    plain = HPolytope(fan.dim, fan.rays, coeffs)
    points = lattice_points(poly)
    assert points == box_lattice_points(plain)
    if all(isinstance(c, int) for c in coeffs):
        assert monomial_basis(fan, grading, grading.degree(coeffs)) == \
            dot_divisor_monomials(fan.rays, coeffs)
    if poly._meets is not None:
        assert_meets_view_as_oracle(poly, plain)
    return points


def assert_meets_view_as_oracle(poly, plain):
    verts = fraction_vertices(plain)
    assert poly.vertices == verts
    assert poly._box == [(ceil(min(v[j] for v in verts)), floor(max(v[j] for v in verts)))
                         for j in range(poly.dim)]


def classes(nvars, rng, count, low=-2, high=3):
    return [tuple(rng.randint(low, high) for _ in range(nvars)) for _ in range(count)]


@pytest.mark.parametrize("path", FAN_FIXTURES, ids=lambda p: p.name)
def test_every_fixture_fan_at_nef_and_other_classes(path):
    fan, grading = load_fan(path)
    nef = [is_nef(fan, a) for a in classes(fan.nvars, random.Random(path.name), 40)]
    assert any(nef) and not all(nef)
    for a in classes(fan.nvars, random.Random(path.name), 40):
        assert_walk_as_oracle(fan, grading, a)


@pytest.mark.parametrize("coeffs, nef", [
    ((0, 3, 0, 1), False),   # 3E + H: the triangle of H with E fixed
    ((0, 1, 0, 1), False),
    ((1, 0, 0, 1), True),
    ((2, 1, 3, 0), True),
])
def test_named_classes_on_f1(coeffs, nef):
    assert is_nef(F1, coeffs) == nef
    assert (divisor_polytope(F1, coeffs)._meets is not None) == nef
    assert assert_walk_as_oracle(F1, compute_grading(F1), coeffs)


@pytest.mark.parametrize("nrays", [8, 12, 17, 23, 30, 38])
def test_random_surfaces_of_8_to_38_rays(nrays):
    """An ample class, its double on the smaller fans, both nef, and the
    class moved by small random coefficients, which mostly is not."""
    rng = random.Random(nrays)
    fan, D = random_surface(rng, nrays, box=4)
    grading = compute_grading(fan)
    for k in (1, 2) if nrays < 20 else (1,):
        kD = tuple(k * a for a in D)
        assert is_nef(fan, kD)
        assert assert_walk_as_oracle(fan, grading, kD)
    assert_walk_as_oracle(fan, grading, tuple(a + rng.randint(-2, 1) for a in D))


@pytest.mark.parametrize("name", ["p2_fermat.json", "p1p1_bilinear.json", "pentagon_main.json",
                                  "p112_fermat.json", "torsion_fermat.json"])
def test_the_bundle_fans_of_the_cayley_lift(name):
    """The bundle polytope of the lift and its lifted critical slice, on
    the bundle fan in dimension 2n."""
    lp = load(name)
    divs = [representative_divisor(lp.grading, degree_of(p, lp.grading))
            for p in lp.problem.polys]
    cd = build_cayley(lp.fan, lp.grading, divs, require_ample=False)
    assert is_complete(cd.bundle).ok
    bundle = _bundle_exponent(cd)
    assert assert_walk_as_oracle(cd.bundle, cd.grading, bundle)
    slice_class = representative_divisor(cd.grading, critical_degree_lifted(cd))
    assert_walk_as_oracle(cd.bundle, cd.grading, slice_class)


def test_a_one_dimensional_fan(p1):
    fan, grading = p1
    assert fan.dim == 1
    for a in itertools.product(range(-3, 4), repeat=fan.nvars):
        assert_walk_as_oracle(fan, grading, a)
    assert lattice_points(divisor_polytope(fan, (2, 1))) == [(-2,), (-1,), (0,), (1,)]


@pytest.mark.parametrize("fan", [P3, CUBE], ids=["p3", "cube"])
def test_three_dimensional_fans(fan):
    grading = compute_grading(fan)
    nef = [is_nef(fan, a) for a in classes(fan.nvars, random.Random(fan.nvars), 30, -3, 3)]
    assert any(nef) and not all(nef)
    for a in classes(fan.nvars, random.Random(fan.nvars), 30, -3, 3):
        assert_walk_as_oracle(fan, grading, a)


@pytest.mark.parametrize("fan, coeffs", [
    (load_fan(FIXTURES / "p1p1.fan.json")[0], (-1, 0, 0, 0)),
    (load_fan(FIXTURES / "p2.fan.json")[0], (-1, 0, 0)),
    (F1, (0, -2, 0, 1)),
    (P3, (-1, -1, 0, 0)),
])
def test_empty_polytopes(fan, coeffs):
    grading = compute_grading(fan)
    assert assert_walk_as_oracle(fan, grading, coeffs) == []
    assert monomial_basis(fan, grading, grading.degree(coeffs)) == []


def test_a_polytope_whose_box_holds_no_point():
    """The triangle 0 <= x, 0 <= y, 3x + 3y <= 1 has vertices but no point
    but the origin, and the segment below it none at all."""
    tri = HPolytope(2, ((1, 0), (0, 1), (-3, -3)), (0, 0, 1))
    assert lattice_points(tri) == box_lattice_points(tri) == [(0, 0)]
    thin = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
                     (Fraction(-1, 3), Fraction(2, 3), 0, 0))
    assert thin.vertices and lattice_points(thin) == box_lattice_points(thin) == []


@pytest.mark.parametrize("path", FAN_FIXTURES, ids=lambda p: p.name)
def test_rational_offsets(path):
    """Lattice points alone: a class with denominators has no monomials."""
    fan, grading = load_fan(path)
    rng = random.Random(path.name)
    for a in classes(fan.nvars, rng, 25, -4, 6):
        assert_walk_as_oracle(fan, grading, tuple(Fraction(x, 3) for x in a))
        assert_walk_as_oracle(fan, grading, tuple(Fraction(x, 2 + i % 3) for i, x in enumerate(a)))


def test_rational_offsets_on_random_surfaces():
    rng = random.Random(46)
    kept = 0
    for nrays in (8, 17, 26):
        fan, D = random_surface(rng, nrays, box=3)
        grading = compute_grading(fan)
        for den in (2, 3, 5):
            a = tuple(Fraction(x, den) for x in D)
            kept += divisor_polytope(fan, a)._meets is not None
            assert_walk_as_oracle(fan, grading, a)
    assert kept == 9


def test_an_incomplete_fan_keeps_no_meets():
    poly = divisor_polytope(INCOMPLETE, (0, 0, 1))
    assert poly._meets is None
    assert lattice_points(poly) == box_lattice_points(poly) == [(0, 0), (0, 1), (1, 0)]


@contextmanager
def counted(name):
    """Record the arguments of each call of ``polytopes.<name>``, which still runs."""
    calls = []
    real = getattr(polytopes, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytopes, name, spy)
        yield calls


def surfaces_with_nef_classes():
    rng = random.Random(7)
    for nrays in (8, 20, 38):
        fan, D = random_surface(rng, nrays, box=4)
        yield fan, compute_grading(fan), D
    pentagon, grading = load_fan(FIXTURES / "pentagon.fan.json")
    yield pentagon, grading, (0, 0, 2, 2, 1)
    yield P3, compute_grading(P3), (0, 0, 0, 3)


@pytest.mark.parametrize("case", list(surfaces_with_nef_classes()),
                         ids=["8", "20", "38", "pentagon", "p3"])
def test_a_nef_walk_builds_no_fraction_reads_no_vertex_and_takes_no_dot(case, monkeypatch):
    """``monomial_basis`` of a nef class on a complete fan builds only the
    polytope's offsets as Fractions, one per ray; its box, its runs and its
    monomials build none, read no vertex and take no dot product."""
    fan, grading, coeffs = case
    assert is_nef(fan, coeffs)
    degree = grading.degree(coeffs)
    want = dot_divisor_monomials(fan.rays, coeffs)

    def unread(poly):
        raise AssertionError("the walk read the vertices")
    monkeypatch.setattr(HPolytope, "vertices", property(unread))
    with counted("Fraction") as fractions, counted("dot") as dots:
        assert monomial_basis(fan, grading, degree) == want
    assert len(fractions) == fan.nvars and dots == []
    points = box_lattice_points(HPolytope(fan.dim, fan.rays, coeffs))
    poly = divisor_polytope(fan, coeffs)
    with counted("Fraction") as fractions, counted("dot") as dots:
        assert polytopes.divisor_monomials(poly) == want
        assert lattice_points(poly) == points
    assert fractions == [] and dots == []
