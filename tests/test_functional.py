"""The residue functional against the normal-form residue it replaces.

The functional is built in one ascending pass over the critical slice
S_rho, in integers over one running denominator, and held as one integer
vector (D, D*l) in lowest terms; every coefficient the package reads from
it must equal the pivot coefficient of the linear-scan normal form
(``oracles.py``), on every fixture (codimension failures included) and on
dense H over P^2, P^3, the torsion fan, the pentagon with its user grading
and P(1,1,2).  Its Fraction view ``ResidueProblem.ell``, the codimension
report and ``normal_coefficient`` must equal the Fraction pass it replaced
(``oracles.fraction_functional``) on every fixture, on random systems over
the fans of ``test_quotient`` under grevlex and lex and on dense septics
over P^2, for H = 0, H with rational coefficients and H with terms outside
the slice.  The degree check of H is skipped when every term of H lies in
S_rho, so S_rho must be complete and the errors must keep their type,
message and precedence.  The floating-point local sum of ``oracles.py``
evaluates polynomials from precomputed complex term lists, which must give
the values the plain evaluation ``oracles.evaluate`` gives.  Every reducer
of the basis is homogeneous, under grevlex and lex, so the pass that builds
the functional stays in S_rho without a degree check of its own.
"""

import contextlib
import itertools
import math
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from toricres import (
    AllReduceToZero,
    DecompositionFailed,
    MultiPoly,
    ResidueProblem,
    compute_grading,
    cone_determinant,
    grevlex,
    jacobian_residue_check,
    lex,
    load_fan,
    make_fan,
    monomial_basis,
    parse_poly,
    residue_report,
    sigma_independence_check,
    toric_jacobian,
    toric_residue,
)

from toricres.residues import residue_functional

from conftest import FIXTURES, load
from oracles import (fraction_functional, fraction_normal_coefficient, normal_form_coefficient,
                     normal_form_residue, normal_form_sigma_independence)
import test_quotient
from test_quotient import square_systems

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

RESIDUE_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json"))

# fixtures whose first input has a residue: every hypothesis holds
VALID_FIXTURES = ["p112_fermat.json", "p1_numeric_a.json", "p1_numeric_b.json",
                  "p1p1_bilinear.json", "p1p1_numeric.json", "p2_fermat.json",
                  "pentagon_main.json", "pentagon_small.json",
                  "torsion_fermat.json"]


def outcome(compute):
    """The value, or the error's type and message; a wrapped error adds
    its cause's type and witness."""
    try:
        return ("value", compute())
    except Exception as exc:  # noqa: BLE001 - the outcome is compared whole
        cause = exc.__cause__
        return (type(exc).__name__, str(exc), type(cause).__name__,
                getattr(cause, "witness", None))


def p3_problem():
    """Four dense quadrics on P^3 with seeded small coefficients."""
    n = 3
    rays = [[-1] * n] + [[int(i == j) for j in range(n)] for i in range(n)]
    cones = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    fan = make_fan(n, rays, cones)
    grading = compute_grading(fan)
    quadrics = monomial_basis(fan, grading, grading.degree((2, 0, 0, 0)))
    rng = random.Random(3)
    polys = [MultiPoly(fan.nvars, {m: rng.randint(-3, 3) or 1 for m in quadrics})
             for _ in range(n + 1)]
    return ResidueProblem(fan, polys, grading=grading)


DENSE_PROBLEMS = {
    "p2": lambda: load("p2_fermat.json").problem,
    "p3": p3_problem,
    "torsion": lambda: load("torsion_fermat.json").problem,
    "pentagon": lambda: load("pentagon_main.json").problem,
    "p112": lambda: load("p112_fermat.json").problem,
}


@cache
def dense_problem(name):
    return DENSE_PROBLEMS[name]()


@cache
def swapped_problem(name, i, j):
    pb = dense_problem(name)
    polys = list(pb.polys)
    polys[i], polys[j] = polys[j], polys[i]
    return ResidueProblem(pb.fan, polys, order=pb.order, sigma=pb.sigma,
                          grading=pb.grading)


@cache
def oracle_c_sigma(name):
    pb = dense_problem(name)
    return normal_form_coefficient(pb, pb.delta)


coefficients = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def dense_h(draw, mons, nvars):
    coeffs = draw(st.lists(coefficients, min_size=len(mons), max_size=len(mons)))
    return MultiPoly(nvars, dict(zip(mons, coeffs)))


# ---------------------------------------------------------------------------
# the functional on every fixture


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_ell_matches_normal_forms_on_fixtures(name):
    lp = load(name)
    pb = lp.problem
    assert sorted(pb.ell) == sorted(pb.monomials)
    for m in pb.monomials:
        assert pb.ell[m] == normal_form_coefficient(pb, MultiPoly.monomial(m))
    assert outcome(lambda: pb.c_sigma) == \
        outcome(lambda: normal_form_coefficient(pb, pb.delta))
    for H in lp.inputs:
        assert pb.normal_coefficient(H) == normal_form_coefficient(pb, H)
    # a cone determinant fails to exist where an input leaves the
    # irrelevant ideal
    for k in range(len(pb.fan.max_cones)):
        assert outcome(lambda: pb.normal_coefficient(cone_determinant(pb, k))) == \
            outcome(lambda: normal_form_coefficient(pb, cone_determinant(pb, k)))
    assert outcome(lambda: toric_residue(pb, lp.inputs[0])) == \
        outcome(lambda: normal_form_residue(pb, lp.inputs[0]))


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_checks_match_normal_form_oracles_on_fixtures(name):
    lp = load(name)
    pb = lp.problem
    assert toric_residue(pb, lp.inputs[0]) == normal_form_residue(pb, lp.inputs[0])
    assert sigma_independence_check(pb) == normal_form_sigma_independence(pb)
    if all(d == pb.degrees[0] for d in pb.degrees):
        J = toric_jacobian(pb)
        assert toric_residue(pb, J) == normal_form_residue(pb, J)
        assert jacobian_residue_check(pb)


# ---------------------------------------------------------------------------
# dense H


@SETTINGS
@given(st.sampled_from(sorted(DENSE_PROBLEMS)), st.data())
def test_dense_h_matches_normal_forms(name, data):
    pb = dense_problem(name)
    H = data.draw(dense_h(pb.monomials, pb.fan.nvars))
    c_h = normal_form_coefficient(pb, H)
    assert pb.normal_coefficient(H) == c_h
    assert pb.c_sigma == oracle_c_sigma(name)
    expected = c_h / oracle_c_sigma(name)
    assert toric_residue(pb, H) == expected
    rep = residue_report(pb, H)
    assert (rep.c_h, rep.c_sigma, rep.residue) == (c_h, oracle_c_sigma(name), expected)


@SETTINGS
@given(st.sampled_from(sorted(DENSE_PROBLEMS)), st.data())
def test_swapping_two_inputs_negates_every_residue(name, data):
    pb = dense_problem(name)
    i, j = data.draw(st.sampled_from(list(itertools.combinations(range(len(pb.polys)), 2))))
    H = data.draw(dense_h(pb.monomials, pb.fan.nvars))
    assert toric_residue(swapped_problem(name, i, j), H) == -toric_residue(pb, H)


@pytest.mark.parametrize("name", sorted(DENSE_PROBLEMS))
def test_dense_problem_checks_match_oracles(name):
    pb = dense_problem(name)
    assert toric_residue(pb, pb.delta) == 1
    assert sigma_independence_check(pb) == normal_form_sigma_independence(pb)
    assert sigma_independence_check(pb)
    if all(d == pb.degrees[0] for d in pb.degrees):
        J = toric_jacobian(pb)
        assert toric_residue(pb, J) == normal_form_residue(pb, J)
        assert jacobian_residue_check(pb)


# random systems, where the codimension check may fail
SYSTEM_FANS = {
    "p2": (FIXTURES / "p2.fan.json", [(1, 0, 0), (2, 0, 0)]),
    "p3": (None, [(1, 0, 0, 0), (2, 0, 0, 0)]),
    "p1p1": (FIXTURES / "p1p1.fan.json", [(1, 0, 1, 0), (2, 0, 0, 0), (1, 0, 2, 0)]),
}


@cache
def system_fan(name):
    path, _ = SYSTEM_FANS[name]
    if path is None:
        pb = dense_problem("p3")
        return pb.fan, pb.grading
    return load_fan(path)


@SETTINGS
@given(st.sampled_from(sorted(SYSTEM_FANS)), st.data())
def test_ell_matches_normal_forms_on_random_systems(name, data):
    fan, grading = system_fan(name)
    polys = []
    for _ in range(fan.dim + 1):
        degree = grading.degree(data.draw(st.sampled_from(SYSTEM_FANS[name][1])))
        mons = monomial_basis(fan, grading, degree)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(mons),
                                    max_size=len(mons)).filter(any))
        polys.append(MultiPoly(fan.nvars, dict(zip(mons, coeffs))))
    pb = ResidueProblem(fan, polys, grading=grading)
    if not pb.monomials:
        with pytest.raises(AllReduceToZero):
            pb.ell
        return
    expected = outcome(lambda: {m: normal_form_coefficient(pb, MultiPoly.monomial(m))
                                for m in pb.monomials})
    assert outcome(lambda: pb.ell) == expected
    assert outcome(lambda: pb.c_sigma) == \
        outcome(lambda: normal_form_coefficient(pb, pb.delta))


def test_codim_failures_keep_ell_and_c_sigma():
    """Inputs f, g, c*f on P^2 generate (f, g): the critical slice of the
    quotient has dimension 4, and Delta_sigma still exists."""
    fan, grading = system_fan("p2")
    quadrics = monomial_basis(fan, grading, grading.degree((2, 0, 0)))
    rng = random.Random(0)
    for _ in range(5):
        f, g = (MultiPoly(fan.nvars, {m: rng.randint(-3, 3) for m in quadrics})
                for _ in range(2))
        pb = ResidueProblem(fan, [f, g, f * rng.choice([-2, 1, 3])], grading=grading)
        assert (pb.codim.ok, pb.codim.quotient_dim) == (False, 4)
        for m in pb.monomials:
            assert pb.ell[m] == normal_form_coefficient(pb, MultiPoly.monomial(m))
        assert pb.c_sigma == normal_form_coefficient(pb, pb.delta)
        assert pb.normal_coefficient(f * f) == normal_form_coefficient(pb, f * f)


# ---------------------------------------------------------------------------
# the integer functional against the Fraction pass it replaced


def probe_inputs(pb):
    """H = 0, a slice monomial with a rational coefficient, a dense H over
    the slice with rational coefficients, and the same H with a monomial
    one variable up added; that monomial alone, which has no term in the
    slice; the inputs and every cone determinant that exists."""
    nv = pb.fan.nvars
    rng = random.Random(len(pb.monomials))
    m = pb.monomials[0]
    up = MultiPoly.monomial(tuple(a + (i == 0) for i, a in enumerate(m)), Fraction(5, 7))
    dense = MultiPoly(nv, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                           for e in pb.monomials})
    out = [MultiPoly.zero(nv), MultiPoly.monomial(m, Fraction(-3, 4)), dense, dense + up,
           up, *pb.polys]
    for k in range(len(pb.fan.max_cones)):
        with contextlib.suppress(DecompositionFailed):
            out.append(cone_determinant(pb, k))
    return out


def assert_functional_matches_oracle(pb):
    """(D, num) is an integer vector over D > 0 in lowest terms; the report,
    the Fraction view ``ell`` and the value of every probe H equal those of
    the oracle's Fraction pass, and a value is a Fraction; a pass that
    fails fails as the oracle's does."""
    expected = outcome(lambda: fraction_functional(pb.order, pb.groebner, pb.monomials))
    got = outcome(lambda: residue_functional(pb.groebner, pb.monomials))
    if expected[0] != "value":
        assert got == expected
        return
    report, (D, num) = got[1]
    assert type(D) is int and D > 0
    assert all(type(v) is int for v in num.values())
    assert math.gcd(D, *num.values()) == 1
    expected_report, ell = expected[1]
    assert report == pb.codim == expected_report
    assert pb.ell == ell
    for H in probe_inputs(pb):
        value = pb.normal_coefficient(H)
        assert type(value) is Fraction
        assert value == fraction_normal_coefficient(ell, H)


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_integer_functional_matches_the_fraction_pass_on_fixtures(name):
    assert_functional_matches_oracle(load(name).problem)


@pytest.mark.parametrize("name", ["p2_fermat.json", "torsion_fermat.json", "pentagon_main.json"])
def test_the_functional_makes_no_fraction_and_a_value_makes_one(monkeypatch, name):
    """Building the functional makes no Fraction, and ``normal_coefficient``
    makes only the one it returns, whatever H's coefficients."""
    pb = load(name).problem
    basis, monomials = pb.groebner, pb.monomials
    probes = probe_inputs(pb)
    pb.codim
    made = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    residue_functional(basis, monomials)
    assert made == []
    for H in probes:
        pb.normal_coefficient(H)
        assert len(made) == 1
        made.clear()


def test_fixture_probes_cover_every_kind_of_h():
    """Among the fixtures some fail codimension one, and the probes hold H
    = 0, H with rational coefficients and H with terms outside the slice."""
    codim_ok = {load(name).problem.codim.ok for name in RESIDUE_FIXTURES}
    assert codim_ok == {False, True}
    pb = load("p2_fermat.json").problem
    probes = probe_inputs(pb)
    inside = pb._monomial_set
    assert any(H.is_zero() for H in probes)
    assert any(any(c.denominator > 1 for c in H.terms.values()) for H in probes)
    assert any(H.terms and not inside.issuperset(H.terms) and inside & set(H.terms)
               for H in probes)
    assert any(H.terms and not inside & set(H.terms) for H in probes)


@SETTINGS
@given(square_systems(list(test_quotient.SYSTEM_FANS)), st.sampled_from([grevlex, lex]))
def test_integer_functional_matches_the_fraction_pass_on_random_systems(case, order):
    pb, _, _ = case
    assert_functional_matches_oracle(ResidueProblem(
        pb.fan, pb.polys, order=order(pb.fan.nvars), sigma=pb.sigma, grading=pb.grading))


@pytest.mark.parametrize("seed", [1, 2])
def test_integer_functional_matches_the_fraction_pass_on_p2_septics(seed):
    """Three dense septics on P^2: 190 slice monomials, the largest
    denominators of the functional."""
    fan, grading = system_fan("p2")
    septics = monomial_basis(fan, grading, grading.degree((7, 0, 0)))
    rng = random.Random(seed)
    polys = [MultiPoly(fan.nvars, {m: rng.choice([c for c in range(-9, 10) if c])
                                   for m in septics}) for _ in range(3)]
    pb = ResidueProblem(fan, polys, grading=grading)
    assert len(pb.monomials) == 190 and pb.codim.ok
    assert_functional_matches_oracle(pb)


# ---------------------------------------------------------------------------
# S_rho is complete, and the degree shortcut keeps every error


def positive_weight(grading):
    """A combination of the free degree rows that is positive on every
    variable, with its coefficients; a complete fan has one."""
    for ks in itertools.product(range(-3, 4), repeat=grading.rank):
        w = [sum(k * row[i] for k, row in zip(ks, grading.free_rows))
             for i in range(grading.nvars)]
        if all(x > 0 for x in w):
            return w, ks
    raise AssertionError("no positive weight among small combinations")


def brute_force_slice(grading, rho):
    """Every exponent of degree rho: with a positive weight w, each such
    exponent has w.e = W, so e_i <= W / w_i; enumerate that box."""
    w, ks = positive_weight(grading)
    total = sum(k * f for k, f in zip(ks, rho.free))
    n = grading.nvars
    out = []

    def walk(i, prefix, left):
        if i == n - 1:
            if left >= 0 and left % w[i] == 0:
                e = prefix + (left // w[i],)
                if grading.degree(e) == rho:
                    out.append(e)
            return
        for k in range(left // w[i] + 1):
            walk(i + 1, prefix + (k,), left - k * w[i])

    walk(0, (), total)
    return sorted(out)


def test_fixture_fans_cover_torsion_and_user_grading():
    fans = {Path(load(name).fan_path).name for name in RESIDUE_FIXTURES}
    assert fans == {p.name for p in FIXTURES.glob("*.fan.json")}
    assert load("torsion_fermat.json").grading.moduli
    assert load("pentagon_main.json").grading.provenance == "user"


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_critical_slice_is_complete(name):
    lp = load(name)
    pb = lp.problem
    assert brute_force_slice(pb.grading, pb.critical) == sorted(pb.monomials)
    # and on the next degrees up, one per variable
    for i in range(pb.fan.nvars):
        d = pb.critical + pb.grading.variable_degree(i)
        assert brute_force_slice(pb.grading, d) == \
            sorted(monomial_basis(pb.fan, pb.grading, d))


def off_degree_inputs(pb):
    """H that the degree check must reject: a monomial one variable up, its
    sum with a critical monomial, a binomial of two such monomials and, on
    a fan with torsion, a monomial whose free degree is critical and whose
    torsion part is not, alone and with a critical monomial."""
    m = pb.monomials[0]
    up = MultiPoly.monomial(tuple(a + (i == 0) for i, a in enumerate(m)))
    inside = MultiPoly.monomial(m, 3)
    out = [up, inside + up, up * 2 + MultiPoly.monomial(
        tuple(a + (i == pb.fan.nvars - 1) for i, a in enumerate(m)))]
    top = max(sum(e) for e in pb.monomials) + 1 if pb.grading.moduli else -1
    for e in itertools.product(range(top + 1), repeat=pb.fan.nvars):
        d = pb.grading.degree(e)
        if d.free == pb.critical.free and d != pb.critical:
            out += [MultiPoly.monomial(e), inside + MultiPoly.monomial(e)]
            break
    return out


# the report of H = 0 holds Delta_sigma and c_sigma, so it fails where they do
REPORT_OF_ZERO = {"p1p1_infinite.json": "HypothesesFailed",
                  "p1p1_not_codim1.json": "HypothesesFailed",
                  "pentagon_not_codim1.json": "CodimNotOne",
                  "pentagon_outside.json": "HypothesesFailed"}


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_degree_errors_and_their_precedence_match_degree_of(name):
    lp = load(name)
    pb = lp.problem
    cases = [MultiPoly.zero(pb.fan.nvars)] + list(lp.inputs) + off_degree_inputs(pb)
    for H in cases:
        expected = outcome(lambda: normal_form_residue(pb, H))
        assert outcome(lambda: toric_residue(pb, H)) == expected
        report = outcome(lambda: residue_report(pb, H).residue)
        if H.is_zero() and name in REPORT_OF_ZERO:
            assert expected == ("value", 0)
            assert report[0] == REPORT_OF_ZERO[name]
        else:
            assert report == expected


def test_degree_cases_include_torsion_and_every_failure():
    kinds = set()
    for name in ["torsion_fermat.json", "pentagon_outside.json",
                 "p1p1_infinite.json", "p1p1_not_codim1.json", "pentagon_not_codim1.json"]:
        lp = load(name)
        pb = lp.problem
        for H in off_degree_inputs(pb) + list(lp.inputs):
            kinds.add(outcome(lambda: toric_residue(pb, H))[:3:2])
    assert ("WrongDegree", "NotHomogeneous") in kinds
    assert ("WrongDegree", "NoneType") in kinds
    assert ("HypothesesFailed", "NoneType") in kinds
    assert ("CodimNotOne", "NoneType") in kinds
    torsion = load("torsion_fermat.json").problem
    assert len(off_degree_inputs(torsion)) == 5


# ---------------------------------------------------------------------------
# numeric evaluation from complex term lists


points = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                    st.fractions(min_value=-50, max_value=50, max_denominator=30),
                    max_size=8),
    st.lists(points, min_size=n, max_size=n),
    st.booleans())))
def test_complex_evaluation_matches_multipoly_evaluate(case):
    terms, pt, as_numpy = case
    nv = len(pt)
    p = MultiPoly(nv, terms)
    x = tuple(np.array(pt, dtype=complex)) if as_numpy else tuple(pt)
    fast = oracles._evaluate(oracles._complex_terms(p), x)
    slow = oracles.evaluate(p, x)
    assert fast == slow
    assert complex(fast) == complex(slow)


def evaluate_by_multipoly(monkeypatch):
    """Route the floating-point sum's evaluation through oracles.evaluate."""
    monkeypatch.setattr(oracles, "_complex_terms", lambda p: p)
    monkeypatch.setattr(oracles, "_evaluate", oracles.evaluate)


def numeric_outcomes():
    out = []
    for name in RESIDUE_FIXTURES:
        lp = load(name)
        for k in range(len(lp.problem.polys)):
            out.append(outcome(lambda: oracles.numeric_residue_sum(lp.problem, lp.inputs[0], k)))
    names = ("x", "y")
    for texts, g in [(["x^2 - 1", "y^2 - 1"], "x*y"), (["x^2 - 1", "y^2 - 1"], "1/3"),
                     (["x^2 - 3*y", "y^2 - 2*x + 1"], "x + 2"),
                     (["x*y - 1", "x^2 - y"], "y^2"),
                     (["x^2", "y - 1"], "1"), (["x^2 - x", "y - 1"], "1")]:
        system = [parse_poly(t, names) for t in texts]
        out.append(outcome(lambda: oracles.numeric_torus_total(2, system, parse_poly(g, names))))
    return out


def test_numeric_outcomes_and_refusals_match_multipoly_evaluate(monkeypatch):
    fast = numeric_outcomes()
    evaluate_by_multipoly(monkeypatch)
    slow = numeric_outcomes()
    assert fast == slow
    assert {o[0] for o in fast} >= {"value", "NotTorusZero", "InfiniteIntersection"}


# ---------------------------------------------------------------------------
# the functional reads t*m/le inside the slice without a degree check: the
# basis of homogeneous inputs is homogeneous in the full grading group


def assert_reducers_homogeneous(pb, order):
    basis = ResidueProblem(pb.fan, pb.polys, order=order, sigma=pb.sigma,
                           grading=pb.grading).groebner
    assert basis.reducers
    for le, _, tail in basis.reducers:
        d = pb.grading.degree(le)
        assert all(pb.grading.degree(e) == d for e, _ in tail), (le, tail)


@pytest.mark.parametrize("order", [grevlex, lex])
@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_every_reducer_is_homogeneous_on_fixtures(name, order):
    pb = load(name).problem
    assert_reducers_homogeneous(pb, order(pb.fan.nvars))


@SETTINGS
@given(square_systems(list(test_quotient.SYSTEM_FANS)), st.sampled_from([grevlex, lex]))
def test_every_reducer_is_homogeneous_on_random_systems(case, order):
    pb, _, _ = case
    assert_reducers_homogeneous(pb, order(pb.fan.nvars))
