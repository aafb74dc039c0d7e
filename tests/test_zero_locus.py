"""The zero-locus test mod P against the test over Q alone.

``no_common_zeros_on_x`` passes over the charts in cone order and builds a
basis over Q only for a chart that is not the unit ideal mod P;
``oracles.q_chart_zero_locus`` builds one for every chart.  Their ``ok``,
``witness_cone`` and ``witness_monomial`` must agree on every input,
including inputs that vanish mod P, inputs with a denominator P and common
zeros that exist only over Q or only mod P.  The one exception is a chart
that is the unit ideal mod P but not over Q, because P divides a
coefficient (``test_a_zero_that_leaves_its_chart_mod_p``): the pass goes
on past it, and names a later chart.

Given a basis of the inputs, ``no_common_zeros_on_x`` first certifies each
chart by zhat^N reducing to zero; the report must then be the one without a
basis, and the chart bases built, counted per modulus by ``chart_bases``,
may only fall.  The caps are cost guards only: with the cap on N at 0 the
report and the counts are the ones without a basis, and with the cap on
the size of a remainder at 0 only the counts may change.  ``chart_bases``
also fails any call that builds a basis over Q of a chart already found
to be the unit ideal mod P.

On a complete fan with n+1 rays and inputs homogeneous for its ray
relation (``oracles.leads_decide``), the pure-power leads of the basis
decide instead: an ok report reduces no zhat^N and builds no chart basis,
with the cap on N at 0 too, and any other report is the one without a
basis, counts included.  That holds for a lex basis as for a grevlex one,
and for a grading whose free row the user negated; inputs that are not
forms for the relation, and fans that are not complete, keep their
reports.  On the fixtures of the pentagon and of P^1 x P^1 the
certificate runs as before, with its divisions counted.

A chart with a monomial input is decided whole, like every other chart.
With small coefficients its report must be the one of the rule that split
such a chart on its coordinate hyperplanes, each piece mod P or else over
Q on its own (``oracles.split_chart_zero_locus``), witness included, and
the one of ``oracles.whole_chart_zero_locus``; with coefficients divisible
by P its ``ok`` must be the Q oracle's, and its witness never before the
oracle's.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (DegreeMismatch, GroebnerBasis, MultiPoly, ResidueProblem, ZeroLocusReport,
                      compute_grading, dehomogenize, grevlex, lex, load_fan, make_fan, monomial_basis,
                      no_common_zeros_on_x, quotient_is_finite, residues, validate_user_grading)
from toricres.groebner import Packing, divide
from toricres.residues import P, _certified, irrelevant_ideal, off_cone_exponent

from conftest import FIXTURES, load
from oracles import (chart_is_unit, evaluate, leads_decide, q_chart_zero_locus,
                     split_chart_zero_locus, whole_chart_zero_locus)
from test_quotient import SYSTEM_FANS, square_systems

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

RESIDUE_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json"))


def outcome(report):
    return report.ok, report.witness_cone, report.witness_monomial


@contextmanager
def chart_bases():
    """Counts the calls of ``residues.packed_basis`` per modulus, 0 for Q,
    into the Counter it yields.  A call that builds a basis over Q of
    chart polynomials already found to be the unit ideal mod P fails."""
    counts = Counter()
    unit_mod_p = set()
    real_packed_basis = residues.packed_basis

    def counted(gens, order, modulus=0):
        key = tuple(tuple(sorted(g.items())) for g in gens)
        if not modulus and key in unit_mod_p:
            raise AssertionError("a basis over Q of a chart that is unit mod P")
        counts[modulus] += 1
        table = real_packed_basis(gens, order, modulus)
        if modulus and table == [(Packing(order).one, 1, ())]:
            unit_mod_p.add(key)
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "packed_basis", counted)
        yield counts


def decide(fan, polys, groebner=None):
    """The report of the package and the chart bases it built per modulus."""
    with chart_bases() as counts:
        report = no_common_zeros_on_x(fan, polys, groebner)
    return report, counts


def both(fan, polys):
    """The report of the package without a basis, and its chart bases per
    modulus, checked against the outcome of the Q oracle."""
    report, counts = decide(fan, polys)
    assert outcome(report) == outcome(q_chart_zero_locus(fan, polys))
    return report, counts


def with_basis(fan, polys, groebner=None):
    """The report with a basis of the inputs (by default a grevlex one) and
    its chart bases per modulus, checked against the report without a
    basis and against the Q oracle.  With the cap on N at 0 the counts are
    the ones without a basis, except where the leads decide an ok report
    (``oracles.leads_decide``): then no chart basis is built."""
    plain, plain_counts = both(fan, polys)
    groebner = groebner or GroebnerBasis.of(list(polys), grevlex(fan.nvars))
    report, counts = decide(fan, polys, groebner)
    assert report == plain
    assert all(counts[m] <= plain_counts[m] for m in counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "CERTIFICATE_STEPS", 0)
        uncertified = decide(fan, polys, groebner)
    if plain.ok and leads_decide(fan, polys):
        assert uncertified == (plain, Counter())
    else:
        assert uncertified == (plain, plain_counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "CERTIFICATE_TERMS", 0)
        assert decide(fan, polys, groebner)[0] == plain
    return report, counts


# ---------------------------------------------------------------------------
# fixtures


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_zero_locus_matches_q_oracle_on_fixtures(name):
    pb = load(name).problem
    with_basis(pb.fan, pb.polys, pb.groebner)


def test_the_zero_locus_refuses_polynomials_of_another_ring():
    """x0, x1, x2 of four variables once passed on P^2, their charts cut to
    the cone's variables, with or without a basis whose leads decide it,
    and x0, x1 of two variables raised IndexError."""
    fan, _ = load_fan(FIXTURES / "p2.fan.json")
    basis = GroebnerBasis.of([MultiPoly.variable(3, i) for i in range(3)], grevlex(3))
    for nvars in (2, 4):
        polys = [MultiPoly.variable(nvars, i) for i in range(min(nvars, 3))]
        for groebner in (None, basis):
            with pytest.raises(DegreeMismatch, match="polynomial ring does not match the fan"):
                no_common_zeros_on_x(fan, polys, groebner)
    assert not no_common_zeros_on_x(fan, [MultiPoly.variable(3, i) for i in range(2)])


def test_fixtures_are_certified_from_their_basis():
    """Every chart of every fixture is certified from the problem's own
    basis, so its zero-locus report builds no chart basis at all."""
    for name in RESIDUE_FIXTURES:
        pb = load(name).problem
        with chart_bases() as counts:
            assert pb.zero_locus() == ZeroLocusReport(True)
        assert counts == {}, name


def test_the_mod_p_route_builds_no_polynomial_over_gf_p(monkeypatch):
    """The chart route mod P hands ``packed_basis`` sub-dicts of the integer
    terms of the chart polynomials, int-valued dicts that the kernel
    reduces mod P: no polynomial over GF(P) is built on the way."""
    problems = [load(name).problem for name in RESIDUE_FIXTURES]
    real_packed_basis = residues.packed_basis
    calls = []

    def recorded(gens, order, modulus=0):
        calls.append(gens)
        return real_packed_basis(gens, order, modulus)

    monkeypatch.setattr(residues, "packed_basis", recorded)
    for pb in problems:
        calls.clear()
        report, counts = decide(pb.fan, pb.polys)
        assert report.ok and set(counts) == {P}
        charts = [[dehomogenize(F, pb.fan, k).num for F in pb.polys]
                  for k in range(len(pb.fan.max_cones))]
        assert calls and all(any(all(any(g.items() <= t.items() for t in chart) for g in gens)
                                 for chart in charts) for gens in calls)
        assert all(type(c) is int for gens in calls for g in gens for c in g.values())


def test_fixtures_are_decided_mod_p_alone():
    """No fixture has a common zero on X, not even the two whose inputs
    have a term outside the irrelevant ideal; the failures are the
    constructed inputs below."""
    assert {"p1p1_infinite.json", "pentagon_outside.json"} <= set(RESIDUE_FIXTURES)
    for name in RESIDUE_FIXTURES:
        pb = load(name).problem
        report, counts = both(pb.fan, pb.polys)
        assert report.ok and counts == {P: len(pb.fan.max_cones)}


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
        assert decide(fan, polys) == (ZeroLocusReport(True), {P: len(cones)})


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
    report, counts = both(fan, polys)
    assert not report.ok and report.witness_cone == 0 and counts == {P: 1, 0: 1}
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
    report, counts = with_basis(fan, polys)
    assert not report.ok and report.witness_cone == witness and counts[0] == 1


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
    report, counts = with_basis(P3, polys)
    assert not report.ok and report.witness_cone == 2 and counts[0] == 1


def test_a_common_plane_on_p3_ends_its_certificate_at_the_term_cap(monkeypatch):
    """Forms L*Q_j share the plane L = 0, which meets every chart of P^3,
    so the report names cone 0.  In the chart of cone 3, whose zhat is x1,
    the lead variable of L, the remainders of zhat^N grow like N^2; the
    term cap ends that certificate, and no remainder longer than the cap
    is multiplied by zhat again."""
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
    groebner = GroebnerBasis.of(polys, grevlex(fan.nvars))
    report, _ = with_basis(fan, polys, groebner)
    assert not report.ok and report.witness_cone == 0
    assert off_cone_exponent(fan, 3) == (1, 0, 0, 0)
    sizes.clear()
    assert not _certified(groebner, off_cone_exponent(fan, 3))
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
    report, counts = both(fan, polys)
    assert not report.ok and report.witness_cone <= k and counts[0] == 1
    with_basis(fan, polys)


def test_a_zero_that_leaves_its_chart_mod_p():
    """x - P*y vanishes at [P : 1], in both charts of P^1 over Q; mod P the
    zero is [0 : 1], outside the chart of cone 0, whose ideal (1 - P*y) is
    the unit ideal mod P.  The pass goes on past cone 0 and names cone 1,
    which fails both mod P and over Q, though the Q oracle names cone 0,
    the first cone that fails over Q."""
    fan, _ = load_fan(FIXTURES / "p1.fan.json")
    F = MultiPoly(2, {(1, 0): 1, (0, 1): -P})
    assert chart_is_unit(fan, [F, F], 0, P) and not chart_is_unit(fan, [F, F], 0, 0)
    assert outcome(q_chart_zero_locus(fan, [F, F])) == (False, 0, (1, 0))
    report, counts = decide(fan, [F, F])
    assert report == ZeroLocusReport(False, 1, (0, 1)) and counts == {P: 2, 0: 1}


def test_each_chart_is_built_once_for_both_fields(monkeypatch):
    """On x - P*y on P^1 the pass reads cone 0 mod P and cone 1 mod P and
    over Q, from one dehomogenization of each input per chart."""
    fan, _ = load_fan(FIXTURES / "p1.fan.json")
    F = MultiPoly(2, {(1, 0): 1, (0, 1): -P})
    charts = []
    real_dehomogenize = residues.dehomogenize

    def counted(p, fan, k):
        charts.append(k)
        return real_dehomogenize(p, fan, k)

    monkeypatch.setattr(residues, "dehomogenize", counted)
    assert decide(fan, [F, F])[1] == {P: 2, 0: 1}
    assert charts == [0, 0, 1, 1]


@pytest.mark.parametrize("q", [P, 3], ids=["P", "3"])
def test_a_fan_that_is_not_complete_decides_every_chart_over_q(q):
    """On the fan of P^2 without cone (x, z), x - q*y, z - q*y and x - z
    vanish at [q : 1 : q].  For q = P that zero is [0 : 1 : 0] mod P, on
    neither chart, and both chart ideals are the unit ideal mod P; with no
    proper model the mod-P shortcut proves nothing, and cone 0 must fail
    over Q for either q, with a basis of the inputs too."""
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)], variables=("x", "y", "z"))
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    polys = [x - y * q, z - y * q, x - z]
    assert (q == P) == all(chart_is_unit(fan, polys, k, P) for k in (0, 1))
    report, counts = both(fan, polys)
    assert not report.ok and report.witness_cone == 0 and counts == {0: 1}
    assert with_basis(fan, polys)[0] == report


@SETTINGS
@given(dense_systems(st.integers(1, 9)), st.data())
def test_an_input_that_is_zero_mod_p_falls_back_to_q(system, data):
    fan, polys = system
    j = data.draw(st.integers(0, len(polys) - 1))
    polys[j] = polys[j] * P
    report, counts = both(fan, polys)
    assume(report.ok)
    assert counts[0]


@SETTINGS
@given(dense_systems(st.integers(1, 9)), st.data())
def test_a_denominator_p_sends_every_chart_to_q(system, data):
    fan, polys = system
    j = data.draw(st.integers(0, len(polys) - 1))
    e = data.draw(st.sampled_from(sorted(polys[j].terms)))
    polys[j] = polys[j] + MultiPoly.monomial(e, Fraction(1, P))
    report, counts = both(fan, polys)
    assume(report.ok)
    assert counts == {0: len(fan.max_cones)}


# ---------------------------------------------------------------------------
# a chart with a monomial input, decided whole as it was once split on its
# coordinate hyperplanes


def split_report(fan, polys):
    """The report and chart bases of the package, which decides every
    chart whole, checked against the report of the rule that split a chart
    with a monomial input piece by piece and of each chart decided whole,
    witness included, and against the Q oracle's answer."""
    report, counts = decide(fan, polys)
    assert report == split_chart_zero_locus(fan, polys) == whole_chart_zero_locus(fan, polys)
    assert report.ok == q_chart_zero_locus(fan, polys).ok
    return report, counts


@st.composite
def monomial_inputs(draw, coeffs=st.integers(1, 3)):
    """(fan, n inputs of a dense system and a monomial c*x^a with a != 0)."""
    fan, polys = draw(dense_systems(st.integers(-3, 3)))
    polys.pop(draw(st.integers(0, len(polys) - 1)))
    a = draw(st.tuples(*[st.integers(0, 2)] * fan.nvars).filter(any))
    c = draw(coeffs) * draw(st.sampled_from([1, -1]))
    return fan, polys + [MultiPoly.monomial(a, c)]


@SETTINGS
@given(monomial_inputs())
def test_a_split_chart_keeps_the_report_on_dense_systems(system):
    split_report(*system)


@SETTINGS
@given(dense_systems(st.integers(1, 9)), st.data())
def test_the_screen_keeps_the_report_on_dense_systems(system, data):
    """The inputs of the torus screen that the local sums once ran: a
    dense system less one input, and the product of all variables."""
    fan, polys = system
    polys.pop(data.draw(st.integers(0, len(polys) - 1)))
    split_report(fan, polys + [MultiPoly.monomial((1,) * fan.nvars)])


@SETTINGS
@given(dense_systems(st.integers(1, 9), fans=("p2",)))
def test_a_zero_on_a_divisor_outside_the_first_chart_is_named_where_it_lies(system):
    """Two forms vanishing at [0 : 1 : 1], on the divisor of x0, which lies
    in the charts of cones 1 and 2 of P^2 and not in that of cone 0, with
    the product of the variables: cone 1 is named, as a chart decided
    whole names it."""
    fan, polys = system
    polys = vanish_at(polys[:2], (Fraction(0), Fraction(1), Fraction(1)))
    assume(all(not F.is_zero() for F in polys))
    polys.append(MultiPoly.monomial((1, 1, 1)))
    assume(chart_is_unit(fan, polys, 0, 0))
    report, _ = split_report(fan, polys)
    assert report == ZeroLocusReport(False, 1, off_cone_exponent(fan, 1))


@SETTINGS
@given(monomial_inputs(), st.data())
def test_a_zero_at_a_torus_fixed_point_is_named_by_a_split_chart(system, data):
    """Forms without the terms free of cone k's variables all vanish at its
    fixed point, as does the monomial, whose variables include one of the
    cone's: the pass fails at cone k or before it."""
    fan, polys = system
    k = data.draw(st.integers(0, len(fan.max_cones) - 1))
    cone = fan.max_cones[k]
    *forms, monomial = polys
    assume(any(next(iter(monomial.num))[i] for i in cone))
    forms = [MultiPoly(fan.nvars, {e: c for e, c in F.terms.items() if any(e[i] for i in cone)})
             for F in forms]
    assume(all(not F.is_zero() for F in forms))
    report, _ = split_report(fan, forms + [monomial])
    assert not report.ok and report.witness_cone <= k


@SETTINGS
@given(monomial_inputs(st.just(P)), st.data())
def test_a_monomial_that_vanishes_mod_p_is_still_split(system, data):
    """With P | c the monomial is 0 mod P, and a chart decided whole is not
    the unit ideal mod P where the other inputs meet, so it is decided over
    Q; the split rule's pieces, the other inputs on each coordinate
    hyperplane of x^a, still are, and the report is the same, with or
    without a common zero on a hyperplane."""
    fan, polys = system
    *forms, monomial = polys
    if data.draw(st.booleans()):
        v = next(i for i, a in enumerate(next(iter(monomial.num))) if a)
        point = tuple(Fraction(0 if i == v else data.draw(st.sampled_from([1, 2, -1])))
                      for i in range(fan.nvars))
        forms = vanish_at(forms, point)
        assume(all(not F.is_zero() for F in forms))
    split_report(fan, forms + [monomial])


SCREEN_FANS = {name: (load_fan(FIXTURES / f"{name}.fan.json"), exponent)
               for name, exponent in [("p2", (1, 0, 0)), ("p1p1", (1, 0, 1, 0)),
                                      ("pentagon", (0, 0, 1, 1, 0))]}


@SETTINGS
@given(st.sampled_from(sorted(SCREEN_FANS)), st.data())
def test_a_screen_with_coefficients_divisible_by_p_keeps_the_q_answer(name, data):
    """The screen's inputs with coefficients in +-1, +-2, +-P and 2P, so
    that a chart may be the unit ideal over Q but not mod P, or
    mod P but not over Q: ``ok`` is the Q oracle's, and a refusal never
    names a cone before the first chart that fails over Q."""
    (fan, grading), exponent = SCREEN_FANS[name]
    mons = monomial_basis(fan, grading, grading.degree(exponent))
    coeffs = st.sampled_from([1, -1, 2, -2, P, -P, 2 * P])
    polys = [MultiPoly(fan.nvars, {m: data.draw(coeffs) for m in mons}) for _ in range(fan.dim)]
    polys.append(MultiPoly.monomial((1,) * fan.nvars))
    report, _ = decide(fan, polys)
    oracle = q_chart_zero_locus(fan, polys)
    assert report.ok == oracle.ok
    assert report.ok or report.witness_cone >= oracle.witness_cone


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
    report, counts = decide(fan, polys)
    assert report.ok and counts == {P: len(fan.max_cones)}


def test_a_zero_on_a_surface_divisor_is_found_without_a_q_basis_of_a_unit_chart():
    """Forms of the class (0,2,3,1,0) on a five-ray surface moved to vanish
    at (1,1,1,0,1), on the divisor of ray 3, which meets the charts of
    cones 2 and 3.  Cones 0 and 1 are the unit ideal mod P, and the Q basis
    of cone 0 takes minutes, so the pass must not build it: cone 2 fails
    mod P and over Q after one basis over Q."""
    fan = make_fan(2, [(-2, -1), (0, -1), (1, 2), (0, 1), (-1, 0)],
                   [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    grading = compute_grading(fan)
    mons = monomial_basis(fan, grading, grading.degree((0, 2, 3, 1, 0)))
    assert len(mons) == 18
    rng = random.Random(0)
    polys = [MultiPoly(fan.nvars, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in mons})
             for _ in range(3)]
    polys = vanish_at(polys, tuple(map(Fraction, (1, 1, 1, 0, 1))))
    report, counts = decide(fan, polys)
    assert report == ZeroLocusReport(False, 2, (1, 1, 0, 0, 1))
    assert counts == {P: 3, 0: 1}


# ---------------------------------------------------------------------------
# fans with n+1 rays: the leads of the basis decide


R1_FIXTURES = [name for name in RESIDUE_FIXTURES if name.split("_")[0] in ("p1", "p2", "p112",
                                                                          "torsion")]
# the divisions of the certificate on the fixtures of fans with more rays
CERTIFIED_DIVISIONS = {"pentagon_main.json": 23, "pentagon_not_codim1.json": 30,
                       "pentagon_outside.json": 9, "pentagon_small.json": 9,
                       "p1p1_bilinear.json": 6, "p1p1_infinite.json": 4,
                       "p1p1_not_codim1.json": 6, "p1p1_numeric.json": 8}


@contextmanager
def certificate_calls():
    """Counts the calls of ``residues._certified``, ``residues.divide`` and
    ``residues.packed_basis`` by name into the Counter it yields."""
    counts = Counter()

    def counted(name):
        real = getattr(residues, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_certified", "divide", "packed_basis"):
            mp.setattr(residues, name, counted(name))
        yield counts


def test_the_fixtures_are_sorted_by_their_rays():
    assert len(R1_FIXTURES) == 5
    assert sorted(R1_FIXTURES + list(CERTIFIED_DIVISIONS)) == RESIDUE_FIXTURES
    for name in RESIDUE_FIXTURES:
        pb = load(name).problem
        assert leads_decide(pb.fan, pb.polys) == (name in R1_FIXTURES), name


@pytest.mark.parametrize("name", R1_FIXTURES)
def test_a_fixture_on_n_plus_1_rays_is_decided_by_its_leads(name):
    pb = load(name).problem
    with certificate_calls() as calls:
        assert pb.zero_locus() == ZeroLocusReport(True)
    assert calls == {}


@pytest.mark.parametrize("name", sorted(CERTIFIED_DIVISIONS))
def test_a_fixture_on_more_rays_is_certified_chart_by_chart(name):
    pb = load(name).problem
    with certificate_calls() as calls:
        assert pb.zero_locus() == ZeroLocusReport(True)
    assert calls == {"_certified": len(pb.fan.max_cones), "divide": CERTIFIED_DIVISIONS[name]}


@SETTINGS
@given(dense_systems(fans=("p2", "p3", "p112", "torsion")))
def test_dense_systems_on_n_plus_1_rays_are_decided_by_their_leads(system):
    """A report that is ok divides nothing and builds no chart basis; one
    that is not is the report without a basis."""
    fan, polys = system
    pb = ResidueProblem(fan, polys)
    with certificate_calls() as calls:
        report = pb.zero_locus()
    assert report == no_common_zeros_on_x(fan, polys)
    assert calls["_certified"] == 0
    if report.ok:
        assert calls == {}


def test_a_common_line_on_p2_is_refused_without_the_certificate():
    """Quartics L*Q_j share the line L = 0, so the quotient is not finite:
    the pass runs without the basis, and no zhat^N is reduced."""
    rng = random.Random(0)
    (fan, grading), _ = DENSE_FANS["p2"]

    def form(d):
        mons = monomial_basis(fan, grading, grading.degree((d, 0, 0)))
        return MultiPoly(fan.nvars, {m: rng.randint(1, 9) for m in mons})

    L = form(1)
    polys = [L * form(3) for _ in range(3)]
    pb = ResidueProblem(fan, polys)
    with certificate_calls() as calls:
        report = pb.zero_locus()
    assert not report.ok and calls["_certified"] == 0
    assert report == no_common_zeros_on_x(fan, polys)
    with_basis(fan, polys, pb.groebner)


def test_inputs_that_are_not_forms_are_decided_chart_by_chart():
    """x0 - x1^2 and x1 - x0^2 on P^1 have a finite quotient and the
    common zero (1, 1): the leads alone would pass it."""
    fan, _ = load_fan(FIXTURES / "p1.fan.json")
    x0, x1 = (MultiPoly.variable(2, i) for i in range(2))
    polys = [x0 - x1 * x1, x1 - x0 * x0]
    groebner = GroebnerBasis.of(polys, grevlex(2))
    assert quotient_is_finite(groebner)
    report, _ = with_basis(fan, polys, groebner)
    assert not report.ok and report.witness_cone == 0


def test_a_flat_cone_keeps_its_report_with_a_basis():
    """Three rays whose cone 0 is flat: not complete.  x, y and z - 1 have
    the one zero (0, 0, 1), in the chart of cone 0, which omits z; the
    minors of the other cones give z the weight 0, so the inputs are forms
    for them and their quotient is finite."""
    fan = make_fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)],
                   variables=("x", "y", "z"))
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    polys = [x, y, z - 1]
    groebner = GroebnerBasis.of(polys, grevlex(3))
    assert quotient_is_finite(groebner)
    report, _ = with_basis(fan, polys, groebner)
    assert report == ZeroLocusReport(False, 0, (0, 0, 1))


@SETTINGS
@given(dense_systems(fans=("p2", "p3", "p112", "torsion")))
def test_a_lex_basis_decides_as_a_grevlex_one(system):
    fan, polys = system
    reports = []
    for order in (grevlex(fan.nvars), lex(fan.nvars)):
        groebner = GroebnerBasis.of(polys, order)
        with certificate_calls() as calls:
            reports.append(no_common_zeros_on_x(fan, polys, groebner))
        assert calls["_certified"] == 0
        if reports[-1].ok:
            assert calls == {}
    assert reports[0] == reports[1] == no_common_zeros_on_x(fan, polys)


@SETTINGS
@given(dense_systems(fans=("p2", "p112", "torsion")))
def test_a_negated_degree_basis_keeps_the_decision(system):
    """The free row of the grading negated by the user: the report and
    its route are the ones of the computed grading."""
    fan, polys = system
    grading = compute_grading(fan)
    negated = validate_user_grading(fan, [[-a for a in row] for row in grading.free_rows])
    outcomes = []
    for g in (grading, negated):
        pb = ResidueProblem(fan, polys, grading=g)
        with certificate_calls() as calls:
            outcomes.append((pb.zero_locus(), calls))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["_certified"] == 0
