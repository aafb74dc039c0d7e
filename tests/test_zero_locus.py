"""The zero-locus test mod P against the test over Q alone.

``no_common_zeros_on_x`` builds a basis over Q only for the charts that are
not the unit ideal mod P; ``oracles.q_chart_zero_locus`` builds one for
every chart.  Their ``ok``, ``witness_cone`` and ``witness_monomial`` must
agree on every input, including inputs that vanish mod P, inputs with a
denominator P and common zeros that exist only over Q or only mod P.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (MultiPoly, buchberger, compute_grading, dehomogenize, grevlex,
                      load_fan, make_fan, monomial_basis, no_common_zeros_on_x)
from toricres.residues import P, _mod_p, irrelevant_ideal

from conftest import FIXTURES, load
from oracles import evaluate, q_chart_zero_locus

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

RESIDUE_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json"))


def outcome(report):
    return report.ok, report.witness_cone, report.witness_monomial


def both(fan, polys):
    """The report of the package and the outcome of the Q oracle."""
    report = no_common_zeros_on_x(fan, polys)
    assert outcome(report) == outcome(q_chart_zero_locus(fan, polys))
    return report


def chart_is_unit(fan, polys, k, modulus):
    charts = [dehomogenize(F, fan, k) for F in polys]
    if modulus:
        charts = [_mod_p(q) for q in charts]
    return buchberger(charts, grevlex(fan.dim), modulus) == [MultiPoly.constant(fan.dim, 1)]


# ---------------------------------------------------------------------------
# fixtures


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_zero_locus_matches_q_oracle_on_fixtures(name):
    pb = load(name).problem
    both(pb.fan, pb.polys)


def test_fixtures_are_decided_mod_p_alone():
    """No fixture has a common zero on X, not even the two whose inputs
    have a term outside the irrelevant ideal; the failures are the
    constructed inputs below."""
    assert {"p1p1_infinite.json", "pentagon_outside.json"} <= set(RESIDUE_FIXTURES)
    for name in RESIDUE_FIXTURES:
        pb = load(name).problem
        report = no_common_zeros_on_x(pb.fan, pb.polys)
        assert report.ok and report.q_charts == ()


# ---------------------------------------------------------------------------
# dense systems

P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# each degree is given by the exponent of one monomial of that degree
DENSE_FANS = {
    "p2": (load_fan(FIXTURES / "p2.fan.json"), [(1, 0, 0), (2, 0, 0)]),
    "p3": ((P3, compute_grading(P3)), [(1, 0, 0, 0)]),
    "pentagon": (load_fan(FIXTURES / "pentagon.fan.json"),
                 [(0, 0, 1, 1, 0), (1, 1, 1, 1, 1)]),
    "p112": (load_fan(FIXTURES / "p112.fan.json"), [(0, 0, 1), (0, 0, 2)]),
    "torsion": (load_fan(FIXTURES / "torsion.fan.json"), [(1, 0, 0), (1, 1, 1)]),
}


@st.composite
def dense_systems(draw, coeffs=st.integers(-3, 3)):
    """(fan, n+1 forms) with each form's degree drawn from the fan's list
    and its coefficients, zeros included, drawn from ``coeffs``."""
    (fan, grading), degrees = DENSE_FANS[draw(st.sampled_from(sorted(DENSE_FANS)))]
    polys = []
    for _ in range(fan.dim + 1):
        mons = monomial_basis(fan, grading, grading.degree(draw(st.sampled_from(degrees))))
        cs = draw(st.lists(coeffs, min_size=len(mons), max_size=len(mons)).filter(any))
        polys.append(MultiPoly(fan.nvars, dict(zip(mons, cs))))
    return fan, polys


@SETTINGS
@given(dense_systems())
def test_zero_locus_matches_q_oracle_on_dense_systems(system):
    both(*system)


@SETTINGS
@given(dense_systems())
def test_every_chart_unit_mod_p_makes_every_chart_unit_over_q(system):
    """The theorem the mod-P test rests on (``no_common_zeros_on_x``)."""
    fan, polys = system
    cones = range(len(fan.max_cones))
    if all(chart_is_unit(fan, polys, k, P) for k in cones):
        assert all(chart_is_unit(fan, polys, k, 0) for k in cones)
        assert no_common_zeros_on_x(fan, polys).q_charts == ()


@SETTINGS
@given(dense_systems(), st.data())
def test_unit_mod_p_implies_unit_over_q_on_chart_ideals(system, data):
    """Per chart the implication fails only when a zero over Q leaves the
    chart mod P, i.e. when P divides a nonzero integer formed from the
    coefficients; with coefficients of size at most 3 those integers are
    far below P.  ``test_a_zero_that_leaves_its_chart_mod_p`` is the case
    where P does divide one."""
    fan, polys = system
    k = data.draw(st.integers(0, len(fan.max_cones) - 1))
    if chart_is_unit(fan, polys, k, P):
        assert chart_is_unit(fan, polys, k, 0)


# ---------------------------------------------------------------------------
# inputs that must fail or fall back to Q


def vanish_at(polys, point):
    """Each form minus a multiple of its first monomial, so it vanishes at
    the point; all coordinates of the point are nonzero."""
    out = []
    for F in polys:
        m = min(F.terms)
        value = evaluate(F, point) / evaluate(MultiPoly.monomial(m), point)
        out.append(F - MultiPoly.monomial(m, value))
    return out


@SETTINGS
@given(dense_systems(st.integers(1, 9)), st.data())
def test_a_common_zero_on_the_torus_fails_at_the_first_cone(system, data):
    fan, polys = system
    point = tuple(Fraction(data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
                  for _ in range(fan.nvars))
    polys = vanish_at(polys, point)
    assume(all(not F.is_zero() for F in polys))
    report = both(fan, polys)
    assert not report.ok and report.witness_cone == 0 and report.q_charts == (0,)


@SETTINGS
@given(dense_systems(st.integers(1, 9)), st.data())
def test_a_common_zero_at_a_torus_fixed_point_fails_over_q(system, data):
    """Drop every term free of the cone's variables, so all forms vanish at
    the cone's fixed point, where every cone coordinate is zero."""
    fan, polys = system
    k = data.draw(st.integers(0, len(fan.max_cones) - 1))
    cone = fan.max_cones[k]
    polys = [MultiPoly(fan.nvars, {e: c for e, c in F.terms.items()
                                   if any(e[i] for i in cone)}) for F in polys]
    assume(all(not F.is_zero() for F in polys))
    report = both(fan, polys)
    assert not report.ok and report.witness_cone <= k
    assert report.witness_cone in report.q_charts


def test_a_zero_that_leaves_its_chart_mod_p():
    """x - P*y vanishes at [P : 1], in both charts of P^1 over Q; mod P the
    zero is [0 : 1], outside the chart of cone 0, whose ideal (1 - P*y) is
    the unit ideal mod P.  The failure found at cone 1 must still name
    cone 0, the first cone that fails over Q."""
    fan, _ = load_fan(FIXTURES / "p1.fan.json")
    F = MultiPoly(2, {(1, 0): 1, (0, 1): -P})
    assert chart_is_unit(fan, [F, F], 0, P) and not chart_is_unit(fan, [F, F], 0, 0)
    report = both(fan, [F, F])
    assert not report.ok and report.witness_cone == 0 and report.q_charts == (0, 1)


@pytest.mark.parametrize("q", [P, 3], ids=["P", "3"])
def test_a_fan_that_is_not_complete_decides_every_chart_over_q(q):
    """On the fan of P^2 without cone (x, z), x - q*y, z - q*y and x - z
    vanish at [q : 1 : q].  For q = P that zero is [0 : 1 : 0] mod P, on
    neither chart, and both chart ideals are the unit ideal mod P; with no
    proper model the mod-P shortcut proves nothing, and cone 0 must fail
    over Q for either q."""
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)], variables=("x", "y", "z"))
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    polys = [x - y * q, z - y * q, x - z]
    assert (q == P) == all(chart_is_unit(fan, polys, k, P) for k in (0, 1))
    report = both(fan, polys)
    assert not report.ok and report.witness_cone == 0


@SETTINGS
@given(dense_systems(st.integers(1, 9)), st.data())
def test_an_input_that_is_zero_mod_p_falls_back_to_q(system, data):
    fan, polys = system
    j = data.draw(st.integers(0, len(polys) - 1))
    polys[j] = polys[j] * P
    report = both(fan, polys)
    assume(report.ok)
    assert report.q_charts


@SETTINGS
@given(dense_systems(st.integers(1, 9)), st.data())
def test_a_denominator_p_sends_every_chart_to_q(system, data):
    fan, polys = system
    j = data.draw(st.integers(0, len(polys) - 1))
    e = data.draw(st.sampled_from(sorted(polys[j].terms)))
    polys[j] = polys[j] + MultiPoly.monomial(e, Fraction(1, P))
    report = both(fan, polys)
    assume(report.ok)
    assert report.q_charts == tuple(range(len(fan.max_cones)))


# ---------------------------------------------------------------------------
# the two rungs that took over 420 s over Q


def seeded_dense_system(fan, grading, degree, seed):
    """n+1 forms of one degree with coefficients in +-1..9, terms in the
    irrelevant ideal, as the benchmark's dense systems are made."""
    rng = random.Random(seed)
    gens = irrelevant_ideal(fan)
    mons = [m for m in monomial_basis(fan, grading, degree)
            if any(all(a <= b for a, b in zip(g, m)) for g in gens)]
    coeffs = [c for c in range(-9, 10) if c]
    return [MultiPoly(fan.nvars, {m: rng.choice(coeffs) for m in mons})
            for _ in range(fan.dim + 1)]


@pytest.mark.parametrize("name, exponent", [("pentagon", (2, 2, 2, 2, 2)),
                                            ("p112", (0, 0, 4))])
@pytest.mark.parametrize("seed", [1, 2])
def test_cliff_rungs_are_decided_without_q(name, exponent, seed):
    fan, grading = load_fan(FIXTURES / f"{name}.fan.json")
    polys = seeded_dense_system(fan, grading, grading.degree(exponent), seed)
    report = no_common_zeros_on_x(fan, polys)
    assert report.ok and report.q_charts == ()
