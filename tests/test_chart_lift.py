"""The chart lift against the Smith-form lift it replaced.

``poly.homogenize_to_degree`` solves <m, ray_i> = e_i - a_i on the cone's
rays from one representative exponent vector a of the target degree;
``oracles.smith_homogenize_to_degree`` solves the stacked degree system on
the off-cone variables.  On every cone of every fixture fan, and on a thin
and a dependent cone, both must give the same lift or raise the same error
type with the same message, for free and torsion targets alike.  The chart
Jacobians of every fixture problem, and of random systems of its degrees,
are lifted to the critical degree on every cone, as ``toric_jacobian``
lifts them on sigma's.
"""

import itertools
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    DegreeClass,
    DegreeMismatch,
    MultiPoly,
    ToricError,
    compute_grading,
    degree_of,
    dehomogenize,
    homogenize_to_degree,
    load_fan,
    make_fan,
    monomial_basis,
    poly_det,
)

from conftest import FIXTURES, load
from oracles import smith_homogenize_to_degree

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

FAN_FIXTURES = ["p1", "p2", "p1p1", "p112", "pentagon", "torsion"]


def _cases():
    cases = []
    for name in FAN_FIXTURES:
        fan, grading = load_fan(FIXTURES / f"{name}.fan.json")
        cases += [(name, fan, grading, k) for k in range(len(fan.max_cones))]
    p2, g2 = load_fan(FIXTURES / "p2.fan.json")
    cases.append(("p2 thin cone", make_fan(2, p2.rays, [(0,)]), g2, 0))
    flat = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 2), (0, 1), (1, 2)])
    cases.append(("dependent cone", flat, compute_grading(flat), 0))
    return cases


CASES = _cases()


def outcome(lift, q, fan, k, target, grading):
    try:
        return lift(q, fan, k, target, grading)
    except ToricError as exc:
        return type(exc), str(exc)


@st.composite
def lift_inputs(draw):
    _, fan, grading, k = draw(st.sampled_from(CASES))
    free = tuple(draw(st.integers(-2, 6)) for _ in range(grading.rank))
    torsion = tuple(draw(st.integers(0, m - 1)) for m in grading.moduli)
    target = DegreeClass(free, torsion, grading.moduli)
    nchart = len(fan.max_cones[k])
    exps = st.tuples(*[st.integers(0, 4) for _ in range(nchart)])
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=4))
    return MultiPoly(nchart, terms), fan, k, target, grading


@SETTINGS
@given(lift_inputs())
def test_lift_matches_smith_lift(args):
    assert outcome(homogenize_to_degree, *args) == outcome(smith_homogenize_to_degree, *args)


def test_lift_sweep_matches_and_reaches_every_outcome():
    """Every chart monomial with exponents at most 2 against every degree of
    an exponent vector with entries at most 1, on every case: the lifts
    agree, and each of the three refusals and a lift all occur."""
    seen = set()
    for _, fan, grading, k in CASES:
        targets = {grading.degree(e)
                   for e in itertools.product(range(2), repeat=fan.nvars)}
        nchart = len(fan.max_cones[k])
        for target in sorted(targets, key=lambda d: (d.free, d.torsion)):
            for e in itertools.product(range(3), repeat=nchart):
                q = MultiPoly.monomial(e)
                got = outcome(homogenize_to_degree, q, fan, k, target, grading)
                assert got == outcome(smith_homogenize_to_degree, q, fan, k, target, grading)
                seen.add(got[1] if isinstance(got, tuple) else "lift")
    assert seen == {"lift", "off-cone exponents are not determined by the degree",
                    "no integral exponent pattern reaches the degree",
                    "degree gap needs a negative exponent"}



PROBLEM_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json")
                          if not p.name.endswith(".fan.json"))


def chart_jacobian(fan, polys, k):
    """det of the chart inputs over their partials on cone k."""
    charts = [dehomogenize(p, fan, k) for p in polys]
    return poly_det([charts] + [[f.partial(j) for f in charts] for j in range(fan.dim)])


def assert_jacobians_lift_alike(problem, polys):
    """Every cone's chart Jacobian lifts alike; returns how many lifted."""
    lifted = 0
    for k in range(len(problem.fan.max_cones)):
        args = (chart_jacobian(problem.fan, polys, k), problem.fan, k, problem.critical,
                problem.grading)
        got = outcome(homogenize_to_degree, *args)
        assert got == outcome(smith_homogenize_to_degree, *args)
        lifted += isinstance(got, MultiPoly)
    return lifted


@cache
def problem_fixture(name):
    return load(name).problem


def test_chart_jacobians_of_the_fixtures():
    lifted = [assert_jacobians_lift_alike(problem_fixture(name), problem_fixture(name).polys)
              for name in PROBLEM_FIXTURES]
    assert all(lifted)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(PROBLEM_FIXTURES), st.data())
def test_chart_jacobians_of_random_systems(name, data):
    """The fixture's input degrees with random coefficients on every monomial."""
    pb = problem_fixture(name)
    polys = []
    for p in pb.polys:
        mons = monomial_basis(pb.fan, pb.grading, degree_of(p, pb.grading))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(mons),
                                    max_size=len(mons)).filter(any))
        polys.append(MultiPoly(pb.fan.nvars, dict(zip(mons, coeffs))))
    assert_jacobians_lift_alike(pb, polys)


def test_a_chart_refuses_a_polynomial_of_another_ring():
    """``dehomogenize`` reads each exponent at the cone's rays, so a
    polynomial of more or fewer variables than the fan would be cut or
    indexed past its end; it is refused like ``decompose`` refuses it."""
    fan, _ = load_fan(FIXTURES / "p2.fan.json")
    for nvars in (2, 4):
        with pytest.raises(DegreeMismatch, match="polynomial ring does not match the fan"):
            dehomogenize(MultiPoly.variable(nvars, 0), fan, 0)


def test_a_lift_refuses_a_chart_polynomial_of_another_ring():
    """``homogenize_to_degree`` reads a chart term on the cone's dim rays:
    x0 of one variable on P^2 once lifted to x2 through that cut."""
    fan, grading = load_fan(FIXTURES / "p2.fan.json")
    target = grading.degree((1, 0, 0))
    for q in (MultiPoly.variable(1, 0), MultiPoly.variable(3, 0), MultiPoly.zero(3)):
        with pytest.raises(DegreeMismatch, match="chart polynomial ring does not match the cone"):
            homogenize_to_degree(q, fan, 0, target, grading)
    assert homogenize_to_degree(MultiPoly.variable(2, 0), fan, 0, target, grading) \
        == MultiPoly.variable(3, 1)
