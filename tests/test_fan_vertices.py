"""Divisor polytopes whose vertices come from the fan, against the n-subset path.

``divisor_polytope`` on a complete fan keeps the cone meets when every m_σ
satisfies all rows (D is nef), so that the vertex list is the sorted
distinct cone functionals m_σ, and otherwise sets the vertex list to the
n-subset enumeration without a boundedness test; on an
incomplete fan it leaves the vertices to ``HPolytope.vertices``, the
boundedness test and the enumeration.  Either way the vertex list, the
lattice points and the exponent vectors must equal those of the plain
``HPolytope`` on the same rows (the n-subset path) and of the oracles
(``fraction_vertices``, ``box_lattice_points``, ``dot_divisor_monomials``).
On a complete fan the intersection number D^n must equal
``oracles.ring_intersection``, and for a nef class the volume
``facet_recursion_volume`` of the polytope as well; an incomplete fan has
none.  Random classes on complete polygon fans are seldom nef, so each
polygon is also checked at the nef class with the same polytope, and each
stellar 3-fold at classes pulled back from P^3.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    HPolytope,
    InvalidFan,
    Unbounded,
    build_cayley,
    cayley_polytope_check,
    compute_grading,
    degree_of,
    divisor_polytope,
    intersection_number,
    is_complete,
    lattice_points,
    load_problem,
    make_fan,
    monomial_basis,
    representative_divisor,
)
from toricres import lattice, polytopes

from conftest import F1, FIXTURES, INCOMPLETE, complete_polygon_fans, load
from oracles import (box_lattice_points, cone_functionals, dot_divisor_monomials,
                     facet_recursion_volume, fraction_vertices, ring_intersection)
from test_differential import stellar_fans_3d

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

P1P1 = make_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Unbounded as exc:
        return type(exc).__name__, str(exc)


@contextmanager
def counted(name):
    """Record each call of ``polytopes.<name>``, which still runs."""
    calls = []
    real = getattr(polytopes, name)
    with mock.patch.object(polytopes, name, lambda poly: calls.append(poly.dim) or real(poly)):
        yield calls


def path_calls(fan, coeffs):
    """The boundedness tests and the n-subset enumerations, by dimension,
    that building the fan's divisor polytope and reading its vertices make."""
    with counted("_is_bounded") as bounded, counted("_vertices") as enumerated:
        outcome(lambda: divisor_polytope(fan, coeffs).vertices)
    return bounded, enumerated


def is_nef(fan, coeffs):
    return all(divisor_polytope(fan, coeffs).contains(m) for m in cone_functionals(fan, coeffs))


def assert_same_as_n_subsets(fan, coeffs):
    """The fan's divisor polytope against the plain polytope on its rows.
    Returns the vertex list, or the refusal."""
    poly = divisor_polytope(fan, coeffs)
    plain = HPolytope(fan.dim, fan.rays, tuple(Fraction(c) for c in coeffs))
    got = outcome(lambda p: p.vertices, poly)
    assert got == outcome(lambda p: p.vertices, plain)
    assert repr(got) == repr(outcome(lambda p: p.vertices, plain))
    if got[0] == "value":
        assert got[1] == polytopes._vertices(plain) == fraction_vertices(plain)
    points = outcome(lattice_points, poly)
    assert points == outcome(lattice_points, plain) == outcome(box_lattice_points, plain)
    if is_complete(fan).ok:
        value = intersection_number(fan, coeffs)
        assert value == ring_intersection(fan, [coeffs] * fan.dim)
        if is_nef(fan, coeffs):
            assert value == facet_recursion_volume(plain)
    else:
        with pytest.raises(InvalidFan, match="need a complete fan"):
            intersection_number(fan, coeffs)
    if points[0] == "value" and all(Fraction(c).denominator == 1 for c in coeffs):
        want = dot_divisor_monomials(fan.rays, coeffs)
        assert polytopes.divisor_monomials(poly) == want
        assert polytopes.divisor_monomials(plain) == want
    return got


def nef_hull_class(fan, coeffs):
    """The class a_i = -min <v, ray_i> over the vertices v of P_D: the same
    polytope, and on a complete polygon fan a nef class, since the fan's
    rays include every edge normal of P_D; None when P_D is empty."""
    verts = fraction_vertices(HPolytope(fan.dim, fan.rays, tuple(Fraction(c) for c in coeffs)))
    if not verts:
        return None
    return tuple(-min(sum(x * r for x, r in zip(v, ray)) for v in verts) for ray in fan.rays)


@SETTINGS
@given(complete_polygon_fans(), st.data())
def test_polygons_of_random_complete_fans(fan, data):
    """The rays relabelled at random, so that the exponent vectors' order is
    not the lattice points' order."""
    perm = data.draw(st.permutations(range(fan.nvars)))
    pos = {old: new for new, old in enumerate(perm)}
    fan = make_fan(2, [fan.rays[i] for i in perm],
                   [(pos[i], pos[j]) for i, j in fan.max_cones])
    coeffs = data.draw(st.lists(st.integers(-3, 5), min_size=fan.nvars, max_size=fan.nvars))
    assert_same_as_n_subsets(fan, coeffs)
    assert path_calls(fan, coeffs) == ([], [] if is_nef(fan, coeffs) else [2])
    hull = nef_hull_class(fan, coeffs)
    if hull is not None:
        assert is_nef(fan, hull)
        assert assert_same_as_n_subsets(fan, hull)[1] == sorted(set(cone_functionals(fan, hull)))
        assert path_calls(fan, hull) == ([], [])


@SETTINGS
@given(stellar_fans_3d(), st.data())
def test_stellar_three_folds(fan, data):
    """Complete stellar subdivisions of P^3, and fans with one cone
    replaced, which are seldom complete; the classes pulled back from
    O(d) on P^3, moved by a principal divisor, are nef on the complete ones."""
    coeffs = data.draw(st.lists(st.integers(-3, 5), min_size=fan.nvars, max_size=fan.nvars))
    assert_same_as_n_subsets(fan, coeffs)
    d = data.draw(st.integers(0, 3))
    m = data.draw(st.tuples(*[st.integers(-2, 2)] * 3))
    pulled = tuple(d * max(0, *(-x for x in ray)) + sum(a * b for a, b in zip(m, ray))
                   for ray in fan.rays)
    assert_same_as_n_subsets(fan, pulled)
    complete = is_complete(fan).ok
    assert not complete or is_nef(fan, pulled)
    assert path_calls(fan, pulled) == (([], []) if complete else ([3], [3]))


@pytest.mark.parametrize("fan, coeffs, nef, volume", [
    (P3, (0, 0, 0, 2), True, 8),
    (F1, (1, 0, 0, 1), True, 3),
    (F1, (0, 3, 0, 1), False, 1),        # 3E + H: the polytope of H, D^2 = -8
    (F1, (0, 1, 0, 1), False, 1),        # E + H, D^2 = 0
    (P1P1, (1, 0, 0, 0), True, 0),       # flat: a segment
    (P1P1, (0, 0, 0, 0), True, 0),       # a point
    (P1P1, (-1, 0, 0, 0), False, None),  # empty, D^2 = 0
])
def test_named_classes(fan, coeffs, nef, volume):
    """``volume`` is n!·vol(P_D), None for an empty P_D; it is D^n exactly
    when D is nef, and D^n is the ring's value either way."""
    verts = assert_same_as_n_subsets(fan, coeffs)
    assert is_nef(fan, coeffs) == nef
    assert path_calls(fan, coeffs) == ([], [] if nef else [fan.dim])
    if nef:
        assert verts == ("value", sorted(set(cone_functionals(fan, coeffs))))
    if volume is None:
        assert verts == ("value", [])
    else:
        assert facet_recursion_volume(divisor_polytope(fan, coeffs)) == volume
    assert intersection_number(fan, coeffs) == ring_intersection(fan, [coeffs] * fan.dim)
    assert (intersection_number(fan, coeffs) == volume) == nef


def test_an_incomplete_fan_keeps_the_n_subset_path():
    """One cone of the P^2 fan: its functional m_σ = 0 satisfies every row
    of the triangle P_D for D = (0, 0, 1), yet it is one vertex of three."""
    fan, coeffs = INCOMPLETE, (0, 0, 1)
    assert not is_complete(fan).ok
    assert cone_functionals(fan, coeffs) == [(0, 0)]
    with pytest.raises(InvalidFan, match="need a complete fan"):
        intersection_number(fan, coeffs)
    assert path_calls(fan, coeffs) == ([2], [2])
    assert divisor_polytope(fan, coeffs).vertices == [(0, 0), (0, 1), (1, 0)]
    grading = compute_grading(fan)
    assert monomial_basis(fan, grading, grading.degree(coeffs)) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert_same_as_n_subsets(fan, coeffs)


@pytest.mark.parametrize("name", ["p2_fermat.json", "p1p1_bilinear.json", "pentagon_main.json",
                                  "pentagon_small.json", "p112_fermat.json",
                                  "torsion_fermat.json"])
def test_fixture_monomials_and_cayley_base_points(name):
    """The critical slice and every input degree of each fixture, against
    the per-point dot products; the bundle-lift check reads the bundle
    polytope from the bundle fan, and its base polygons, one per distinct
    divisor, from the base fan: it enumerates vertices only for a class
    that is not nef, and never tests boundedness."""
    lp = load(name)
    pb, fan, grading = lp.problem, lp.fan, lp.grading
    degrees = [pb.critical] + [degree_of(p, grading) for p in pb.polys]
    for degree in degrees:
        a = representative_divisor(grading, degree)
        assert monomial_basis(fan, grading, degree) == dot_divisor_monomials(fan.rays, a)
        assert_same_as_n_subsets(fan, a)
    divs = [representative_divisor(grading, d) for d in degrees[1:]]
    cd = build_cayley(fan, grading, divs, require_ample=False)
    with counted("_is_bounded") as bounded, counted("_vertices") as enumerated:
        cayley_polytope_check(cd)
    not_nef = [d for d in dict.fromkeys(divs) if not is_nef(fan, d)]
    bundle_nef = is_nef(cd.bundle, cd.divisors[0] + (1,) + (0,) * fan.dim)
    assert bounded == []
    assert sorted(enumerated) == [2] * len(not_nef) + ([] if bundle_nef else [4])


def test_completeness_is_computed_once_per_fan(monkeypatch):
    calls = []
    real = lattice._completeness
    monkeypatch.setattr(lattice, "_completeness", lambda fan: calls.append(fan) or real(fan))
    lp = load_problem(FIXTURES / "pentagon_main.json")
    assert len(calls) == 1
    assert is_complete(lp.fan) is lp.fan.completeness
    lp.problem.monomials
    intersection_number(lp.fan, (1, 1, 1, 1, 1))
    assert calls == [lp.fan]
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert is_complete(fan).ok and is_complete(fan).ok
    divisor_polytope(fan, (0, 0, 1))
    assert calls == [lp.fan, fan]
