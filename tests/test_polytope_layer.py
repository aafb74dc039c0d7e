"""The integer polytope layer against the Fraction code it replaced.

``_vertices`` and ``lattice_points`` must return the same ordered lists, of
the same types, as ``oracles.fraction_vertices`` (every n-subset eliminated
over Q) and ``oracles.box_lattice_points`` (every point of the vertices'
bounding box tested), and refuse alike.  Lattice polygons are also counted
by Pick's theorem, with the area from the facet recursion; ampleness
witnesses are compared with ``oracles.fraction_strictness_failures``, and a
guard pins that neither routine tests a point with ``HPolytope.contains``
and that no ``toricres`` module binds a Fraction eliminator.
"""

import importlib
import pkgutil
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (
    HPolytope,
    PositivityReport,
    Unbounded,
    build_cayley,
    cayley_polytope_check,
    degree_of,
    divisor_polytope,
    is_ample,
    is_q_ample,
    lattice_points,
    load_fan,
    make_fan,
    representative_divisor,
)
import toricres
from toricres import cayley, divisors, polytopes

from conftest import FIXTURES, _cross, complete_polygon_fans, load
from oracles import (box_lattice_points, cone_functionals, facet_recursion_volume,
                     fraction_strictness_failures, fraction_vertices)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def outcome(fn, poly):
    try:
        return "value", fn(poly)
    except Unbounded as exc:
        return type(exc).__name__, str(exc)


def assert_same_as_oracles(poly):
    """Vertices and lattice points equal the oracles' as ordered lists, with
    equal reprs (so Fractions stay Fractions and ints stay ints)."""
    got, want = polytopes._vertices(poly), fraction_vertices(poly)
    assert got == want
    assert repr(got) == repr(want)
    got, want = outcome(lattice_points, poly), outcome(box_lattice_points, poly)
    assert got == want
    assert repr(got) == repr(want)


@SETTINGS
@given(complete_polygon_fans(), st.data())
def test_polygons_of_random_complete_fans(fan, data):
    coeffs = data.draw(st.lists(st.integers(-3, 5), min_size=fan.nvars, max_size=fan.nvars))
    assert_same_as_oracles(divisor_polytope(fan, coeffs))


@st.composite
def cut_boxes(draw, n):
    """A box, which may be empty or flat, cut by half-spaces with rational
    offsets, some of them with a zero, duplicate or parallel normal."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = [(u, draw(st.integers(-1, 3))) for u in unit]
    rows += [(tuple(-x for x in u), draw(st.integers(-1, 3))) for u in unit]
    offset = st.fractions(min_value=-3, max_value=6, max_denominator=3)
    for _ in range(draw(st.integers(0, 3))):
        rows.append((draw(st.tuples(*[st.integers(-2, 2)] * n)), draw(offset)))
    for _ in range(draw(st.integers(0, 2))):
        nr, off = draw(st.sampled_from(rows))
        k = draw(st.integers(1, 3))
        rows.append((tuple(k * x for x in nr), k * off + draw(st.sampled_from((0, 0, 1, -1)))))
    return HPolytope(n, tuple(nr for nr, _ in rows), tuple(off for _, off in rows))


@SETTINGS
@given(cut_boxes(2))
def test_cut_boxes_in_two_dimensions(poly):
    assert_same_as_oracles(poly)


@SETTINGS
@given(cut_boxes(3))
def test_cut_boxes_in_three_dimensions(poly):
    assert_same_as_oracles(poly)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cut_boxes(4))
def test_cut_boxes_in_four_dimensions(poly):
    assert_same_as_oracles(poly)


def test_hand_picked_polytopes():
    # a cube cut by x + y <= 1, a row with a zero last entry: the prefix
    # (1, 1) has the whole z-interval [-1, 1] from the other rows
    cube = [(tuple(s * int(i == j) for j in range(3)), 1) for i in range(3) for s in (1, -1)]
    cut = HPolytope(3, tuple(nr for nr, _ in cube) + ((-1, -1, 0),),
                    tuple(off for _, off in cube) + (1,))
    assert (1, 1, 0) not in lattice_points(cut)
    assert len(lattice_points(cut)) == 27 - 3
    # rational bounds on the last coordinate, tight nowhere on a lattice point
    thin = HPolytope(2, ((1, 0), (-1, 0), (0, 2), (0, -3), (1, 3)),
                     (0, 2, Fraction(1, 3), Fraction(5, 2), Fraction(1, 2)))
    for poly in (cut, thin, HPolytope(0, ((),), (0,)), HPolytope(0, ((),), (-1,)),
                 HPolytope(1, ((2,), (-3,)), (Fraction(1, 2), Fraction(7, 3))),
                 HPolytope(2, ((1, 0), (0, 1), (-1, 0)), (0, 0, 1)),
                 # a slab: normals of rank 1 < n - 1, so no kernel line of
                 # two of them exists and only the rank shows it unbounded
                 HPolytope(3, ((1, 0, 0), (-1, 0, 0), (0, 0, 0)), (1, 1, 0))):
        assert_same_as_oracles(poly)


@pytest.mark.parametrize("name", ["p1p1_bilinear.json", "p2_fermat.json", "pentagon_main.json",
                                  "pentagon_small.json", "p112_fermat.json",
                                  "torsion_fermat.json"])
def test_cayley_polytopes_of_the_fixtures(name, monkeypatch):
    """Every polytope the bundle-lift check scans, the 4-D Cayley polytope
    among them, for the degrees of each 2-D fixture's inputs: one base
    polygon per distinct divisor."""
    lp = load(name)
    divs = [representative_divisor(lp.grading, degree_of(p, lp.grading))
            for p in lp.problem.polys]
    scanned = []
    real = cayley.lattice_points
    monkeypatch.setattr(cayley, "lattice_points", lambda poly: scanned.append(poly) or real(poly))
    cd = build_cayley(lp.fan, lp.grading, divs, require_ample=False)
    cayley_polytope_check(cd)
    assert [poly.dim for poly in scanned] == [4] + [2] * len(set(cd.divisors))
    for poly in scanned:
        assert_same_as_oracles(poly)


@st.composite
def lattice_polygons(draw):
    """The convex hull of random lattice points, by the monotone chain, as
    the inequalities of its counterclockwise edges, with those edges."""
    pts = sorted(set(draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                                   min_size=3, max_size=9))))

    def chain(points):
        out = []
        for p in points:
            while len(out) > 1 and _cross((out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                                          (p[0] - out[-2][0], p[1] - out[-2][1])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1])
    assume(len(hull) >= 3)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    normals = tuple((p[1] - q[1], q[0] - p[0]) for p, q in edges)
    offsets = tuple(-(nr[0] * p[0] + nr[1] * p[1]) for nr, (p, _) in zip(normals, edges))
    return HPolytope(2, normals, offsets), edges


@SETTINGS
@given(lattice_polygons())
def test_lattice_polygon_counts_follow_picks_theorem(polygon):
    # #points = area + boundary/2 + 1, with twice the area the normalized volume
    poly, edges = polygon
    boundary = sum(gcd(q[0] - p[0], q[1] - p[1]) for p, q in edges)
    assert 2 * len(lattice_points(poly)) == facet_recursion_volume(poly) + boundary + 2
    assert lattice_points(poly) == box_lattice_points(poly)


def test_lattice_points_and_vertices_use_no_fraction_path(p2, pentagon, monkeypatch):
    """A return to per-point containment tests or to elimination over Q
    fails here, with no timing involved."""
    calls = []
    monkeypatch.setattr(HPolytope, "contains", lambda self, point: calls.append("contains"))
    for poly in (divisor_polytope(p2[0], (0, 0, 3)),
                 divisor_polytope(pentagon[0], (1, 1, 1, 1, 1)),
                 divisor_polytope(P3, (Fraction(1, 2), 0, 0, 2))):
        assert lattice_points(poly)
        assert polytopes._vertices(poly)
    assert calls == []
    modules = [toricres] + [importlib.import_module(f"toricres.{info.name}")
                            for info in pkgutil.iter_modules(toricres.__path__)]
    assert len(modules) > 10
    for module in modules:
        bound = [name for name in ("rref", "mat_rank", "solve_rational")
                 if hasattr(module, name)]
        assert bound == [], (module.__name__, bound)


def _assert_strictness_as_oracle(fan, coeffs):
    ms = cone_functionals(fan, coeffs)
    bad = fraction_strictness_failures(fan, ms, coeffs)
    assert divisors._witnesses(fan, coeffs)[1] == tuple(bad)
    cartier = all(x.denominator == 1 for m in ms for x in m)
    assert is_q_ample(fan, coeffs) == PositivityReport(not bad, cartier, tuple(bad))
    if cartier:
        assert is_ample(fan, coeffs) == PositivityReport(not bad, True, tuple(bad))


@pytest.mark.parametrize("name", ["p1", "p2", "p1p1", "p112", "pentagon", "torsion"])
def test_ampleness_witnesses_match_the_fraction_comparison_on_fixtures(name):
    fan, _ = load_fan(FIXTURES / f"{name}.fan.json")
    for shift in range(-2, 4):
        for k in range(fan.nvars):
            coeffs = [shift + (i == k) + (i * shift) % 3 for i in range(fan.nvars)]
            _assert_strictness_as_oracle(fan, coeffs)
            _assert_strictness_as_oracle(fan, [Fraction(c, 2) for c in coeffs])


@SETTINGS
@given(complete_polygon_fans(), st.data())
def test_ampleness_witnesses_match_the_fraction_comparison_on_random_fans(fan, data):
    coeffs = data.draw(st.lists(st.fractions(min_value=-3, max_value=5, max_denominator=3),
                                min_size=fan.nvars, max_size=fan.nvars))
    _assert_strictness_as_oracle(fan, coeffs)
    _assert_strictness_as_oracle(fan, [int(c) for c in coeffs])
