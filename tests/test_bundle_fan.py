"""The bundle lift on its own fan, against the lift on bare lifted rays.

``build_cayley`` builds the maximal cones of the bundle
P(O(D_0) + ... + O(D_n)), each base cone joined with every maximal cone of
the fiber P^n, and both bundle-lift checks read their polytopes through
``divisor_polytope`` on that fan.  The lift as it was, a plain
``HPolytope`` on the lifted rays (``oracles.hpolytope_*``), must give the
same lifted critical slice, the same bundle lattice points and the same
check values, on ample triples and on unchecked ones.  Equal outputs alone
cannot see a missing bundle cone: an incomplete bundle fan falls back to
the old path.  So the paths are counted too: an ample lift makes no
boundedness test and enumerates no vertex list in the bundle's dimension.
"""

import random
from contextlib import contextmanager
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    MultiPoly,
    build_cayley,
    cayley_polytope_check,
    compute_grading,
    critical_degree_lifted,
    divisor_polytope,
    equal_degree_check,
    grading_from_rays,
    is_ample,
    is_complete,
    is_simplicial,
    lattice_points,
    load_fan,
    make_fan,
    monomial_basis,
)
import toricres.cayley as cayley_mod
from toricres import polytopes
from toricres.cayley import _bundle_exponent

from conftest import FIXTURES, complete_polygon_fans
from oracles import (hpolytope_bundle_points, hpolytope_cayley_polytope_check,
                     hpolytope_equal_degree_check, hpolytope_lifted_slice, lifted_rays)
from test_differential import stellar_fans_3d

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
# P^3 blown up at the fixed point of the cone {0, 1, 2}: the ray (1, 1, 1)
# subdivides that cone; a*H - b*E is ample for a > b > 0, with H = D_3 and
# E = D_4
BLOWUP = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
                  [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)])


@contextmanager
def counted(name):
    """Record the dimension of each call of ``polytopes.<name>``, which still runs."""
    calls = []
    real = getattr(polytopes, name)
    with mock.patch.object(polytopes, name, lambda poly: calls.append(poly.dim) or real(poly)):
        yield calls


def inputs(fan, grading, divisors, rng):
    """One input per divisor, a sum of its monomials with coefficients 1-3,
    or None when some divisor has no monomial."""
    polys = []
    for d in divisors:
        basis = monomial_basis(fan, grading, grading.degree(d))
        if not basis:
            return None
        picked = rng.sample(basis, min(len(basis), 3))
        polys.append(MultiPoly(fan.nvars, {e: rng.randint(1, 3) for e in picked}))
    return polys


def lift_against_hpolytope_path(fan, divisors, require_ample=True, seed=0):
    """The lift's slice, points and checks against the lift on bare lifted
    rays.  Returns the bundle data and the boundedness tests and vertex
    enumerations, by dimension, that the two checks made."""
    grading = compute_grading(fan)
    cd = build_cayley(fan, grading, divisors, require_ample=require_ample)
    assert cd.bundle.rays == lifted_rays(fan, cd.divisors)
    assert monomial_basis(cd.bundle, cd.grading, critical_degree_lifted(cd)) == \
        hpolytope_lifted_slice(cd)
    assert lattice_points(divisor_polytope(cd.bundle, _bundle_exponent(cd))) == \
        hpolytope_bundle_points(cd)
    polys = inputs(fan, grading, cd.divisors, random.Random(seed))
    with counted("_is_bounded") as bounded, counted("_vertices") as enumerated:
        ok = cayley_polytope_check(cd)
        equal = polys and equal_degree_check(cd, polys)
    assert ok == hpolytope_cayley_polytope_check(cd)
    if polys:
        assert equal == hpolytope_equal_degree_check(cd, polys)
    if require_ample:
        assert ok and equal
    return cd, bounded, enumerated


def assert_matches_hpolytope_path(fan, divisors, require_ample=True, seed=0):
    """As ``lift_against_hpolytope_path``, and the bundle fan has one cone
    per base cone and fiber cone, and is complete and simplicial when the
    base fan is complete."""
    cd, bounded, enumerated = lift_against_hpolytope_path(fan, divisors, require_ample, seed)
    assert cd.grading == grading_from_rays(cd.bundle.rays)
    assert len(cd.bundle.max_cones) == (fan.dim + 1) * len(fan.max_cones)
    if is_complete(fan).ok:
        assert is_complete(cd.bundle).ok and is_simplicial(cd.bundle)
    return cd, bounded, enumerated


def assert_ample_lift(fan, divisors, seed=0):
    """An ample lift on a complete fan reads every polytope from a fan."""
    assert all(is_ample(fan, d).ok for d in divisors)
    cd, bounded, enumerated = assert_matches_hpolytope_path(fan, divisors, seed=seed)
    assert bounded == []
    assert 2 * fan.dim not in enumerated
    return cd


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def ample_class(rays, extra, shift):
    """An ample Cartier class on the complete polygon fan with the given
    rays in counterclockwise order: the polygon whose edge i has inner
    normal ray i and length l_i > 0, with sum l_i ray_i = 0, and
    a_i = -<p_i, ray_i> at its vertex p_i, moved by <shift, ray_i>.

    Each ray u_i gives one primitive relation c*u_i + p*u_j + q*u_{j+1} = 0,
    with c > 0 and p, q >= 0, from the cone (u_j, u_{j+1}) that holds -u_i.
    The lengths are the sum of all of them over its gcd, which is positive
    on every edge, plus the relations of the rays listed in ``extra``,
    which are nef."""
    k = len(rays)
    relations = []
    for i, u in enumerate(rays):
        j = next(j for j in range(k)
                 if _cross(rays[(j + 1) % k], u) >= 0 and _cross(u, rays[j]) >= 0)
        v, w = rays[j], rays[(j + 1) % k]
        r = {i: _cross(v, w), j: _cross(w, u), (j + 1) % k: _cross(u, v)}
        relations.append({t: c // gcd(*r.values()) for t, c in r.items()})
    total = [sum(r.get(t, 0) for r in relations) for t in range(k)]
    lengths = [x // gcd(*total) for x in total]
    for i in extra:
        for t, c in relations[i].items():
            lengths[t] += c
    point, coeffs = (0, 0), []
    for u, length in zip(rays, lengths):
        coeffs.append(-(point[0] * u[0] + point[1] * u[1]) + shift[0] * u[0] + shift[1] * u[1])
        point = (point[0] + length * u[1], point[1] - length * u[0])
    assert point == (0, 0)
    return tuple(coeffs)


@settings(SETTINGS, max_examples=20)
@given(complete_polygon_fans(), st.data())
def test_ample_triples_on_random_complete_polygon_fans(fan, data):
    rays = st.integers(0, fan.nvars - 1)
    divisors = [ample_class(fan.rays, data.draw(st.lists(rays, max_size=2)),
                            data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
                for _ in range(3)]
    if data.draw(st.booleans()):
        divisors[2] = divisors[0]
    assert_ample_lift(fan, divisors, seed=data.draw(st.integers(0, 99)))


@SETTINGS
@given(complete_polygon_fans(), st.data())
def test_unchecked_triples_on_random_complete_polygon_fans(fan, data):
    divisors = [data.draw(st.lists(st.integers(-2, 3), min_size=fan.nvars, max_size=fan.nvars))
                for _ in range(3)]
    _, bounded, _ = assert_matches_hpolytope_path(fan, divisors, require_ample=False,
                                                  seed=data.draw(st.integers(0, 99)))
    assert bounded == []


@settings(SETTINGS, max_examples=12)
@given(stellar_fans_3d(), st.data())
def test_unchecked_quadruples_on_stellar_three_folds(fan, data):
    """Classes pulled back from P^3, moved by principal divisors: nef but
    seldom ample on the complete fans; the other fans are seldom complete,
    and their bundle polytopes take the boundedness test."""
    divisors = []
    for _ in range(4):
        d = data.draw(st.integers(0, 2))
        m = data.draw(st.tuples(*[st.integers(-1, 1)] * 3))
        divisors.append(tuple(d * max(0, *(-x for x in ray)) + sum(a * b for a, b in zip(m, ray))
                              for ray in fan.rays))
    _, bounded, _ = assert_matches_hpolytope_path(fan, divisors, require_ample=False)
    assert (bounded == []) == is_complete(fan).ok


@pytest.mark.parametrize("divisors", [
    [(1, 0), (1, 0)],
    [(1, 0), (2, 0)],
    [(0, 1), (3, -1)],
    [(2, 1), (1, 0)],
])
def test_ample_pairs_on_the_line(divisors):
    fan, _ = load_fan(FIXTURES / "p1.fan.json")
    assert_ample_lift(fan, divisors)


@pytest.mark.parametrize("divisors", [
    [(0, 0, 1)] * 3,
    [(0, 0, 1), (0, 0, 2), (1, 1, 1)],
    [(2, 0, 0), (0, 1, 0), (0, 0, 1)],
])
def test_ample_triples_on_the_plane(divisors):
    fan, _ = load_fan(FIXTURES / "p2.fan.json")
    assert_ample_lift(fan, divisors)


@pytest.mark.parametrize("fan, divisors", [
    (P3, [(0, 0, 0, 1)] * 4),
    (P3, [(0, 0, 0, 1), (0, 0, 0, 2), (1, 0, 0, 0), (0, 1, 1, 0)]),
    (BLOWUP, [(0, 0, 0, 2, -1)] * 4),
    (BLOWUP, [(0, 0, 0, 2, -1), (0, 0, 0, 3, -1), (0, 0, 0, 3, -2), (0, 0, 0, 2, -1)]),
])
def test_ample_quadruples_on_three_folds(fan, divisors):
    assert_ample_lift(fan, divisors)


def test_unchecked_pairs_on_the_line():
    fan, _ = load_fan(FIXTURES / "p1.fan.json")
    for divisors in ([(0, 0), (0, 0)], [(1, 0), (-1, 0)], [(0, -2), (1, 1)]):
        assert_matches_hpolytope_path(fan, divisors, require_ample=False)


def test_a_base_variable_named_y0():
    """The bundle fan's variables are its own, so a base variable named y0
    repeats no name; the display names keep the base names."""
    plane, _ = load_fan(FIXTURES / "p2.fan.json")
    fan = make_fan(2, plane.rays, plane.max_cones, variables=("y0", "y1", "x"))
    cd = assert_ample_lift(fan, [(0, 0, 1), (0, 0, 2), (1, 0, 0)])
    assert cd.variables == ("y0", "y1", "x", "y0", "y1", "y2")
    assert cd.bundle.variables == tuple(f"x{i}" for i in range(1, 7))


def test_a_dropped_bundle_cone_shows_in_the_path_counts(monkeypatch):
    """Without one bundle cone the outputs stay equal, but the bundle fan is
    incomplete and its polytopes take the boundedness test."""
    fan, _ = load_fan(FIXTURES / "p2.fan.json")
    real = cayley_mod.make_fan
    monkeypatch.setattr(cayley_mod, "make_fan",
                        lambda dim, rays, cones: real(dim, rays, cones[1:]))
    cd, bounded, enumerated = lift_against_hpolytope_path(fan, [(0, 0, 1)] * 3)
    assert len(cd.bundle.max_cones) == 8 and not is_complete(cd.bundle).ok
    assert bounded and 4 in enumerated
