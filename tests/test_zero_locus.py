"""The zero-locus test mod P against the test over Q alone.

``no_common_zeros_on_x`` builds a basis over Q only for the charts that are
not the unit ideal mod P; ``oracles.q_chart_zero_locus`` builds one for
every chart.  Their ``ok``, ``witness_cone`` and ``witness_monomial`` must
agree on every input, including inputs that vanish mod P, inputs with a
denominator P and common zeros that exist only over Q or only mod P.

Given a basis of the inputs, ``no_common_zeros_on_x`` first certifies each
chart by zhat^N reducing to zero; the report must then be the one without a
basis apart from ``q_charts``, which may only shrink.  The caps are cost
guards only: with the cap on N at 0 the report is the one without a basis,
and with the cap on the size of a remainder at 0 only ``q_charts`` may
change.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (GroebnerBasis, MultiPoly, ZeroLocusReport, compute_grading, dehomogenize,
                      grevlex, load_fan, make_fan, monomial_basis, no_common_zeros_on_x,
                      residues)
from toricres.groebner import divide
from toricres.residues import P, irrelevant_ideal

from conftest import FIXTURES, load
from oracles import evaluate, mod_p, q_chart_zero_locus, unpacked_basis
from test_quotient import SYSTEM_FANS, square_systems

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


def with_basis(fan, polys, groebner=None):
    """The report with a basis of the inputs (by default a grevlex one),
    checked against the report without one and against the Q oracle."""
    plain = both(fan, polys)
    groebner = groebner or GroebnerBasis.of(list(polys), grevlex(fan.nvars))
    report = no_common_zeros_on_x(fan, polys, groebner)
    assert replace(report, q_charts=()) == replace(plain, q_charts=())
    assert set(report.q_charts) <= set(plain.q_charts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "CERTIFICATE_STEPS", 0)
        assert no_common_zeros_on_x(fan, polys, groebner) == plain
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "CERTIFICATE_TERMS", 0)
        capped = no_common_zeros_on_x(fan, polys, groebner)
    assert replace(capped, q_charts=()) == replace(plain, q_charts=())
    return report


def chart_is_unit(fan, polys, k, modulus):
    charts = [dehomogenize(F, fan, k) for F in polys]
    if modulus:
        return unpacked_basis([mod_p(q) for q in charts], grevlex(fan.dim), modulus) \
            == [((0,) * fan.dim, 1, ())]
    return GroebnerBasis.of(charts, grevlex(fan.dim)).generators \
        == (MultiPoly.constant(fan.dim, 1),)


# ---------------------------------------------------------------------------
# fixtures


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_zero_locus_matches_q_oracle_on_fixtures(name):
    pb = load(name).problem
    with_basis(pb.fan, pb.polys, pb.groebner)


def test_fixtures_are_certified_from_their_basis(monkeypatch):
    """Every chart of every fixture is certified from the problem's own
    basis, so its zero-locus report builds no chart basis at all."""
    calls = []
    real_packed_basis = residues.packed_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return real_packed_basis(*args, **kwargs)

    monkeypatch.setattr(residues, "packed_basis", counted)
    for name in RESIDUE_FIXTURES:
        pb = load(name).problem
        assert pb.zero_locus() == ZeroLocusReport(True)
        assert calls == [], name


def test_the_mod_p_route_builds_no_polynomial_over_gf_p(monkeypatch):
    """The chart route mod P hands integer term dicts to ``packed_basis``:
    every ``MultiPoly`` it builds has Fraction coefficients."""
    problems = [load(name).problem for name in RESIDUE_FIXTURES]
    real_from_terms = MultiPoly.from_terms
    real_packed_basis = residues.packed_basis
    moduli = []

    def checked(cls, nvars, terms):
        assert all(type(c) is Fraction for c in terms.values())
        return real_from_terms(nvars, terms)

    def counted(gens, order, modulus=0):
        moduli.append(modulus)
        return real_packed_basis(gens, order, modulus)

    monkeypatch.setattr(MultiPoly, "from_terms", classmethod(checked))
    monkeypatch.setattr(residues, "packed_basis", counted)
    for pb in problems:
        assert no_common_zeros_on_x(pb.fan, pb.polys).ok
    assert set(moduli) == {P}


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
def dense_systems(draw, coeffs=st.integers(-3, 3), fans=tuple(sorted(DENSE_FANS))):
    """(fan, n+1 forms) with each form's degree drawn from the fan's list
    and its coefficients, zeros included, drawn from ``coeffs``."""
    (fan, grading), degrees = DENSE_FANS[draw(st.sampled_from(fans))]
    polys = []
    for _ in range(fan.dim + 1):
        mons = monomial_basis(fan, grading, grading.degree(draw(st.sampled_from(degrees))))
        cs = draw(st.lists(coeffs, min_size=len(mons), max_size=len(mons)).filter(any))
        polys.append(MultiPoly(fan.nvars, dict(zip(mons, cs))))
    return fan, polys


@SETTINGS
@given(dense_systems())
def test_zero_locus_matches_q_oracle_on_dense_systems(system):
    with_basis(*system)


@SETTINGS
@given(square_systems(sorted(SYSTEM_FANS)))
def test_the_certificate_keeps_the_report_on_random_systems(case):
    pb = case[0]
    with_basis(pb.fan, pb.polys, pb.groebner)


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
    """Each form minus a multiple of its first monomial that is nonzero at
    the point, so it vanishes there."""
    out = []
    for F in polys:
        value = evaluate(F, point)
        if value:
            m = min(e for e in F.terms if evaluate(MultiPoly.monomial(e), point))
            F = F - MultiPoly.monomial(m, value / evaluate(MultiPoly.monomial(m), point))
        out.append(F)
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
    with_basis(fan, polys)


@pytest.mark.parametrize("point, witness", [((1, 1, 1), 0), ((0, 1, 1), 1)],
                         ids=["torus", "off-torus"])
@SETTINGS
@given(dense_systems(st.integers(1, 9), fans=("p2",)))
def test_a_common_zero_on_p2_fails_the_charts_that_hold_it(point, witness, system):
    """[0 : 1 : 1] lies in the charts of cones 1 and 2 of P^2, not in that
    of cone 0, which the basis certifies unless the forms have another
    common zero there."""
    fan, polys = system
    polys = vanish_at(polys, tuple(map(Fraction, point)))
    assume(all(not F.is_zero() for F in polys))
    assume(all(chart_is_unit(fan, polys, k, 0) for k in range(witness)))
    report = with_basis(fan, polys)
    assert not report.ok and report.witness_cone == witness
    assert report.q_charts == (witness,)


@SETTINGS
@given(st.lists(st.integers(-3, 3), min_size=32, max_size=32))
def test_a_common_line_on_p3_fails_the_charts_that_meet_it(coeffs):
    """Forms x3*A_j + x4*B_j vanish on the line x3 = x4 = 0, which meets
    the charts of cones 2 and 3 only; cones 0 and 1 are certified unless
    the forms have another common zero there."""
    x = [MultiPoly.variable(4, i) for i in range(4)]
    rows = [coeffs[i:i + 4] for i in range(0, 32, 4)]
    linear = [sum((x[i] * c for i, c in enumerate(row)), MultiPoly.zero(4)) for row in rows]
    polys = [x[2] * linear[2 * j] + x[3] * linear[2 * j + 1] for j in range(4)]
    assume(all(not F.is_zero() for F in polys))
    assume(chart_is_unit(P3, polys, 0, 0) and chart_is_unit(P3, polys, 1, 0))
    report = with_basis(P3, polys)
    assert not report.ok and report.witness_cone == 2 and report.q_charts == (2,)


def test_a_common_plane_on_p3_ends_its_certificate_at_the_term_cap(monkeypatch):
    """Forms L*Q_j share the plane L = 0, which meets every chart of P^3.
    In the chart of the lead variable of L the remainders of zhat^N grow
    like N^2; the term cap ends that certificate, and no remainder longer
    than the cap is multiplied by zhat again."""
    sizes = []

    def counted(terms, *args):
        scale, rem = divide(terms, *args)
        sizes.append((len(terms), len(rem)))
        return scale, rem

    monkeypatch.setattr(residues, "divide", counted)
    rng = random.Random(0)
    (fan, grading), _ = DENSE_FANS["p3"]

    def form(d):
        mons = monomial_basis(fan, grading, grading.degree((d, 0, 0, 0)))
        return MultiPoly(fan.nvars, {m: rng.randint(1, 9) for m in mons})

    L = form(1)
    polys = [L * form(2) for _ in range(4)]
    report = with_basis(fan, polys)
    assert not report.ok and report.witness_cone == 0
    assert max(size for size, _ in sizes) <= residues.CERTIFICATE_TERMS
    assert max(size for _, size in sizes) > residues.CERTIFICATE_TERMS


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
    with_basis(fan, polys)


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
