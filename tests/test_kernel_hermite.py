"""The one-pass grading against the Smith-plus-Hermite grading it replaced.

``grading_from_rays`` reads the free rows, the reduced left Hermite basis
of the rays' relations, off ``kernel_hermite_rows``, one pass over the rays
from right to left, and takes a Smith form of the rays only for torsion
rows.  ``representative_divisor`` fills the unit columns of the free rows
from the degree and solves the special and torsion rows alone.  Each
``Grading`` must equal ``oracles.smith_hermite_grading``, free rows,
torsion rows and moduli, and each representative must equal
``oracles.per_call_representative_divisor``: on the fixture fans, random
surfaces with 8-38 rays, 3-D stellar subdivisions, weighted and fake
weighted projective spaces with their rays in any order (pivots above 1
and torsion), P^1 x P^1 (whose independent rays Q are not the last two),
incomplete fans, and lists of rays that need not span.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import toricres.grading as grading_mod
from toricres import (InvalidFan, NotSurjective, compute_grading, grading_from_rays, load_fan,
                      representative_divisor, smith_normal_form)
from toricres.lattice import dot, kernel_hermite_rows, mat_det

from conftest import FIXTURES, INCOMPLETE, complete_polygon_fans
from oracles import per_call_representative_divisor, random_surface, smith_hermite_grading
from test_differential import fans_2d, stellar_fans_3d

FANS = sorted(p.name for p in FIXTURES.glob("*.fan.json"))
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def assert_matches_the_oracles(rays, rng, grading=None, draws=6):
    """The grading of ``rays`` equals the oracle's, or both refuse them as
    not spanning; and ``grading``, by default the computed one, lifts
    ``draws`` degrees of exponents in [-4, 6] as the per-call oracle does."""
    try:
        expected = smith_hermite_grading(rays)
    except NotSurjective:
        with pytest.raises(NotSurjective, match="do not span"):
            grading_from_rays(rays)
        return
    computed = grading_from_rays(rays)
    assert computed == expected
    grading = grading or computed
    for _ in range(draws):
        target = grading.degree([rng.randint(-4, 6) for _ in rays])
        assert representative_divisor(grading, target) \
            == per_call_representative_divisor(grading, target)


def pivots(grading):
    return [next(a for a in row if a) for row in grading.free_rows]


@pytest.mark.parametrize("name", FANS)
def test_fixture_gradings_match_the_oracles(name):
    """Both the loaded grading (the pentagon's is the user's table) and the
    computed one lift as the per-call oracle does."""
    fan, loaded = load_fan(FIXTURES / name)
    rng = random.Random(name)
    assert_matches_the_oracles(fan.rays, rng, loaded)
    assert_matches_the_oracles(fan.rays, rng)


def test_p1p1_has_its_independent_rays_first():
    """The rays of P^1 x P^1 pair off as ±e_1, ±e_2, so the rightmost
    independent rays are rays 1 and 3, not the last two; rays 0 and 2 are
    the unit pivots."""
    fan, _ = load_fan(FIXTURES / "p1p1.fan.json")
    g = compute_grading(fan)
    assert g.free_rows == ((1, 1, 0, 0), (0, 0, 1, 1))
    assert_matches_the_oracles(fan.rays, random.Random(0))


@settings(SETTINGS, max_examples=40)
@given(st.integers(8, 38), st.integers(0, 10 ** 6))
def test_random_surfaces_match_the_oracles(nrays, seed):
    rng = random.Random(seed)
    fan, _ = random_surface(rng, nrays, 2 if nrays <= 16 else 4)
    assert_matches_the_oracles(fan.rays, rng)


@SETTINGS
@given(st.one_of(stellar_fans_3d(), fans_2d(), complete_polygon_fans()), st.randoms())
def test_stellar_and_incomplete_fans_match_the_oracles(fan, rng):
    assert_matches_the_oracles(fan.rays, rng)


def test_an_incomplete_fan_matches_the_oracles():
    assert_matches_the_oracles(INCOMPLETE.rays, random.Random(1))


@st.composite
def weighted_projective_rays(draw):
    """The rays of a weighted projective space P(q_0, ..., q_n), n <= 3, in
    a drawn order: the images of the unit vectors under a map Z^(n+1) -> Z^n
    onto with kernel Zq, the last n rows of a unimodular U with U·q = ±e_0.
    Half the time a drawn matrix of determinant above 1 in absolute value
    maps them into a sublattice: a fake weighted projective space, whose
    grading has torsion."""
    n = draw(st.integers(1, 3))
    q = draw(st.lists(st.integers(1, 6), min_size=n + 1, max_size=n + 1)
             .filter(lambda q: gcd(*q) == 1))
    U = smith_normal_form([[w] for w in q]).U
    rays = [tuple(U[r][i] for r in range(1, n + 1)) for i in range(n + 1)]
    if draw(st.booleans()):
        M = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=n, max_size=n)
                 .filter(lambda M: abs(mat_det(M)) > 1))
        rays = [tuple(dot(row, ray) for row in M) for ray in rays]
    return draw(st.permutations(rays))


@SETTINGS
@given(weighted_projective_rays(), st.randoms())
def test_weighted_projective_spaces_match_the_oracles(rays, rng):
    assert_matches_the_oracles(rays, rng)


def test_weighted_orders_reach_pivots_above_one_and_torsion():
    """P(1, 2, 3) has pivot 3 or 2 when its heavy ray comes first, and its
    rays doubled span an index-4 sublattice: a fake weighted plane with
    torsion Z/2 x Z/2."""
    U = smith_normal_form([[1], [2], [3]]).U
    rays = [(U[1][i], U[2][i]) for i in range(3)]
    seen = set()
    for order in ([2, 0, 1], [1, 0, 2], [0, 1, 2]):
        g = grading_from_rays([rays[i] for i in order])
        seen.add(pivots(g)[0])
        assert_matches_the_oracles([rays[i] for i in order], random.Random(2))
    assert seen == {1, 2, 3}
    doubled = [(2 * x, 2 * y) for x, y in rays]
    g = grading_from_rays(doubled)
    assert g.moduli == (2, 2) and pivots(g) == [1]
    assert_matches_the_oracles(doubled, random.Random(3))


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=7)))
def test_any_ray_list_matches_the_oracle(rays):
    """Rays that may repeat, vanish or span less than rank n: the pass
    refuses exactly the lists the oracle refuses, and its index is the
    product of the oracle's Smith diagonal."""
    try:
        expected = smith_hermite_grading(rays)
    except NotSurjective:
        with pytest.raises(NotSurjective, match="do not span"):
            grading_from_rays(rays)
        assert kernel_hermite_rows(rays, len(rays[0]))[1] == 0
        return
    assert grading_from_rays(rays) == expected
    index = 1
    for s in smith_normal_form(rays).diagonal:
        index *= s
    assert kernel_hermite_rows(rays, len(rays[0])) == (expected.free_rows, index)


def test_no_rays_or_ragged_rays_are_refused():
    """An empty list and rays of unequal lengths once raised a bare
    IndexError; they are refused as ``FanData`` refuses them."""
    with pytest.raises(InvalidFan, match="no rays"):
        grading_from_rays([])
    with pytest.raises(InvalidFan, match="ray 1 has wrong length"):
        grading_from_rays([[1, 0], [0]])
    with pytest.raises(InvalidFan, match="ray 2 has wrong length"):
        grading_from_rays([[1, 0], [0, 1], [-1, -1, 0]])


@settings(SETTINGS, max_examples=30)
@given(st.integers(8, 38), st.integers(0, 10 ** 6))
def test_surfaces_make_a_smith_form_only_for_special_or_torsion_rows(nrays, seed):
    """A random surface's grading calls ``smith_normal_form`` on its rays
    only when they span a proper sublattice.  Its lift makes at most one,
    over at most its special and torsion rows (a special row with a unit
    column elsewhere needs none), and none when every pivot is 1 and there
    is no torsion."""
    rng = random.Random(seed)
    fan, _ = random_surface(rng, nrays, 2 if nrays <= 16 else 4)
    calls = []
    real = grading_mod.smith_normal_form
    grading_mod.smith_normal_form = lambda A, *cols: calls.append(A) or real(A, *cols)
    try:
        g = compute_grading(fan)
        in_grading = list(calls)
        representative_divisor(g, g.degree([1] * fan.nvars))
    finally:
        grading_mod.smith_normal_form = real
    assert in_grading == [fan.rays] * bool(g.moduli)
    lift = calls[len(in_grading):]
    most = len([p for p in pivots(g) if p > 1]) + len(g.moduli)
    assert len(lift) <= 1 and all(0 < len(A) <= most for A in lift)
    if not most:
        assert lift == []
