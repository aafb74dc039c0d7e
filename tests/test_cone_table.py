"""The fan's cone table and walls against the solves they replace.

``FanData.cone_table`` holds det R and adj R of every maximal cone's rays
R, from one ``lattice.bareiss`` per cone, and must agree cone by cone with
the Fraction determinant and the n^2 minors of ``oracles.adjugate``, and
its meets with the n+1 determinants of ``oracles.cramer``, on random,
fixture and bundle fans; ``FanData.walls`` must be the ordered pairs of
neighbouring cones found by comparing every pair of cones.  The Cartier, Q-ample and
ample reports, and the nef decision of ``divisor_polytope``, read wall
slacks on a complete fan; they must agree with the answers read from the
full slack table of one Cramer solve per cone
(``oracles.slack_table_positivity``) on ample, nef-only and non-nef
divisors, integer and rational, on random surfaces, P^3, stellar
three-folds and bundle fans, and on fans that are not complete.
"""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import toricres.polytopes as polytopes_mod
from toricres import (
    InvalidFan,
    build_cayley,
    compute_grading,
    cone_det,
    divisor_polytope,
    is_ample,
    is_cartier,
    is_complete,
    is_q_ample,
    load_fan,
    make_fan,
)
from toricres.cayley import _bundle_exponent
from toricres.divisors import support_meets
from toricres.lattice import freeze

from conftest import FIXTURES, complete_polygon_fans
from oracles import (adjugate, cramer, fraction_mat_det, nef_boundary, random_surface,
                     slack_table_positivity)
from test_differential import stellar_fans_3d

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

FAN_FILES = ("p1", "p2", "p1p1", "p112", "pentagon", "torsion")
P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
# the upper half plane only, and a fan whose third cone has the dependent
# rays (1,0), (-1,0)
HALF_PLANE = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
DEPENDENT = make_fan(2, [(1, 0), (0, 1), (-1, -1), (-1, 0)], [(0, 1), (1, 2), (0, 3)])


@st.composite
def any_fans(draw):
    """Distinct primitive rays in dimension 1 to 3 and random sorted cones,
    most of dim rays, some of fewer or more, dependent ones included."""
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * dim).filter(lambda v: any(v) and gcd(*v) == 1)
    rays = draw(st.lists(vec, min_size=dim + 1, max_size=dim + 4, unique=True))
    size = st.sampled_from([dim] * 4 + [max(1, dim - 1), dim + 1])
    cones = draw(st.lists(size.flatmap(lambda k: st.sets(
        st.integers(0, len(rays) - 1), min_size=min(k, len(rays)), max_size=min(k, len(rays)))),
        min_size=1, max_size=6))
    return make_fan(dim, rays, cones)


def expected_entry(fan, k):
    rays = fan.cone_rays(k)
    det = fraction_mat_det(rays) if len(rays) == fan.dim else 0
    return (det, freeze(adjugate(rays))) if det else (0, None)


@SETTINGS
@given(st.one_of(any_fans(), complete_polygon_fans(), stellar_fans_3d()), st.data())
def test_cone_table_matches_mat_det_adjugate_and_cramer(fan, data):
    for k in range(len(fan.max_cones)):
        assert fan.cone_table[k] == expected_entry(fan, k)
        assert cone_det(fan, k) == fan.cone_table[k][0]
    coeffs = data.draw(st.lists(st.fractions(-4, 4, max_denominator=3),
                                min_size=fan.nvars, max_size=fan.nvars))
    bad = next((k for k, (det, _) in enumerate(fan.cone_table) if not det), None)
    if bad is not None:
        message = f"^cone {bad} does not have {fan.dim} independent rays$"
        with pytest.raises(InvalidFan, match=message):
            support_meets(fan, coeffs)
        return
    d, scaled, meets = support_meets(fan, coeffs)
    assert all(x * d == a for x, a in zip(coeffs, scaled))
    assert meets == [cramer(fan.cone_rays(k), [-scaled[i] for i in cone])
                     for k, cone in enumerate(fan.max_cones)]


def pairwise_walls(fan):
    """(k, j) for every two cones sharing dim-1 rays, j the other's ray off
    the shared face, found by comparing every pair."""
    return sorted((k, *set(c2) - set(c1))
                  for k, c1 in enumerate(fan.max_cones) for c2 in fan.max_cones
                  if len(set(c1) & set(c2)) == fan.dim - 1 and len(c2) == fan.dim)


def bundle_fans():
    p2, g2 = load_fan(FIXTURES / "p2.fan.json")
    surface, D = random_surface(random.Random(5), 8)
    return [build_cayley(p2, g2, [(1, 0, 0), (2, 0, 0), (1, 1, 1)]),
            build_cayley(surface, compute_grading(surface), [D] * 3)]


def complete_fans():
    fans = [load_fan(FIXTURES / f"{name}.fan.json")[0] for name in FAN_FILES]
    return fans + [P3] + [cd.bundle for cd in bundle_fans()]


@pytest.mark.parametrize("fan", complete_fans() + [HALF_PLANE, DEPENDENT])
def test_cone_tables_of_fixture_and_bundle_fans_match_the_minors(fan):
    assert list(fan.cone_table) == [expected_entry(fan, k) for k in range(len(fan.max_cones))]


@pytest.mark.parametrize("fan", complete_fans())
def test_walls_are_the_neighbouring_cone_pairs(fan):
    assert is_complete(fan)
    assert sorted(fan.walls) == pairwise_walls(fan)
    # every facet is shared by two cones, so each wall comes once from each side
    assert len(fan.walls) == len(fan.max_cones) * fan.dim


@SETTINGS
@given(st.one_of(complete_polygon_fans(), stellar_fans_3d()))
def test_walls_of_random_complete_fans(fan):
    assume(is_complete(fan))
    assert sorted(fan.walls) == pairwise_walls(fan)


def assert_positivity_as_slack_table(fan, coeffs):
    """All four answers against ``oracles.slack_table_positivity``; on a
    complete fan ``divisor_polytope`` enumerates n-subsets exactly when D
    is not nef."""
    cartier, q_ample, ample, nef = slack_table_positivity(fan, coeffs)
    assert is_cartier(fan, coeffs) == cartier
    assert is_q_ample(fan, coeffs) == q_ample
    assert is_ample(fan, coeffs) == ample
    if is_complete(fan):
        with mock.patch.object(polytopes_mod, "_vertices", wraps=polytopes_mod._vertices) as spy:
            divisor_polytope(fan, coeffs)
        assert spy.called != nef
    return nef, q_ample.ok


def divisor_ladder(fan, D, rng):
    """An ample D; D + t*E at the nef boundary for random E, past it and
    before it; -D; each also halved."""
    out = [list(D), [-x for x in D]]
    for _ in range(3):
        E = [rng.randint(-3, 3) for _ in range(fan.nvars)]
        edge = nef_boundary(fan, D, E)
        if edge is not None:
            past = [2 * x - a for x, a in zip(edge, D)]
            inside = [(x + a) / 2 for x, a in zip(edge, D)]
            out += [edge, past, inside]
    return out + [[Fraction(x, 2) for x in c] for c in out]


def run_ladder(fan, D, seed):
    """The ladder holds an ample, a non-nef and a nef-only divisor."""
    got = [assert_positivity_as_slack_table(fan, c)
           for c in divisor_ladder(fan, D, random.Random(seed))]
    assert got[0] == (True, True) and not got[1][0]
    assert (True, False) in got


@pytest.mark.parametrize("seed", range(8))
def test_positivity_on_random_surfaces(seed):
    rng = random.Random(seed)
    fan, D = random_surface(rng, rng.choice([5, 8, 13]))
    run_ladder(fan, D, seed)


def test_positivity_on_p3_and_bundle_fans():
    run_ladder(P3, (1, 0, 0, 0), 0)
    for cd in bundle_fans():
        run_ladder(cd.bundle, _bundle_exponent(cd), 1)


@pytest.mark.parametrize("name", FAN_FILES)
def test_positivity_on_fixture_fans(name):
    fan, _ = load_fan(FIXTURES / f"{name}.fan.json")
    for shift in range(-2, 3):
        for k in range(fan.nvars):
            coeffs = [shift + (i == k) + (i * shift) % 3 for i in range(fan.nvars)]
            assert_positivity_as_slack_table(fan, coeffs)
            assert_positivity_as_slack_table(fan, [Fraction(c, 3) for c in coeffs])


def test_positivity_on_fans_that_are_not_complete():
    assert not is_complete(HALF_PLANE)
    for coeffs in ((1, 1, 1), (0, 1, 0), (-1, 2, Fraction(1, 2)), (0, 0, 0)):
        assert_positivity_as_slack_table(HALF_PLANE, coeffs)
    for test in (is_cartier, is_q_ample, is_ample, slack_table_positivity):
        with pytest.raises(InvalidFan, match="^cone 2 does not have 2 independent rays$"):
            test(DEPENDENT, (1, 1, 1, 1))
