"""Fast paths against the slow paths they replace (``oracles.py``).

The heap-ordered division must give the same remainder, term for term, as
the linear scan, and the integer pseudo-division a positive scale times the
division over Fractions; Buchberger over one table of integer reducers must
give the same basis, generator for generator, as Buchberger over parallel
lists, and as its reducer table the integer reducers read back from that
basis, over Q and mod P, where it is the basis over Q reduced mod P; the
chart solver's finiteness and quotient dimension must match a grevlex
basis built apart from it; the codimension check on the cached basis must
give the same report as the check that reduces every critical-degree
monomial, and the integer functional in lowest terms the values of the
Fraction pass on the integer reducers and on the monic Fraction ones; the
linear-time completeness test must agree with the pairwise overlap test.
"""

import contextlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import toricres.divisors as divisors_mod
import toricres.groebner as groebner_mod
import toricres.lattice as lattice_mod
import toricres.localres as localres_mod
import toricres.polytopes as polytopes_mod
import toricres.residues as residues_mod
from toricres import (
    AllReduceToZero,
    GroebnerBasis,
    MonomialOrder,
    MultiPoly,
    NonSimpleZero,
    NotZeroDimensional,
    ResidueProblem,
    ToricError,
    dehomogenize,
    divisor_polytope,
    grevlex,
    is_ample,
    is_cartier,
    is_complete,
    is_q_ample,
    lex,
    load_fan,
    make_fan,
    monomial_basis,
    parse_poly,
    residue_report,
    sigma_independence_check,
    sum_local_residues,
    toric_residue,
)

from toricres.groebner import Packing, divide, s_polynomial
from toricres.residues import P, residue_functional

from conftest import FIXTURES, load
from oracles import (NotShapePosition, all_monomial_codim_check, fraction_functional,
                     grevlex_chart_dimension, heap_key, integer_reducer, integer_table,
                     is_constant, is_unit_ideal, leading_exponents, linear_scan_normal_form,
                     mod_p, multipoly_s_polynomial, pairwise_is_complete,
                     parallel_list_buchberger, primitive, reducer_table, solve_chart_system,
                     unpacked_basis)
from oracles import _monic
from oracles import divide as fraction_divide
from oracles import s_polynomial as fraction_s_polynomial
from test_quotient import square_systems

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

RESIDUE_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json"))


def pack_table(packing, table):
    """A reducer table keyed by exponent tuples, its monomials packed."""
    return [(packing.pack(le), lc, tuple(packing.pack_terms(dict(tail)).items()))
            for le, lc, tail in table]


def table_basis(table, order):
    """A ``GroebnerBasis`` on any integer reducer table, packed as the
    package packs a basis it builds."""
    return GroebnerBasis(tuple(pack_table(Packing(order), table)), order)


def packed_divide(terms, table, order, modulus=0):
    """``divide`` on the packed forms of tuple-keyed terms and a tuple
    table, its remainder read back as tuples."""
    packing = Packing(order)
    scale, rem = divide(packing.pack_terms(terms), pack_table(packing, table), packing, modulus)
    return scale, packing.unpack_terms(rem)


def packed_s_polynomial(f, g, order):
    """``s_polynomial`` of two tuple reducers, read back as tuples."""
    packing = Packing(order)
    return packing.unpack_terms(s_polynomial(*pack_table(packing, [f, g]), packing))


def codim_outcome(check):
    try:
        report = check()
    except AllReduceToZero:
        return "AllReduceToZero"
    return (report.ok, report.pivot, report.witness, report.quotient_dim)


def oracle_outcome(pb):
    return codim_outcome(lambda: all_monomial_codim_check(
        pb.fan, pb.grading, pb.polys, pb.order))


# ---------------------------------------------------------------------------
# codimension check


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_codim_matches_all_monomial_oracle_on_fixtures(name):
    pb = load(name).problem
    assert codim_outcome(lambda: pb.codim) == oracle_outcome(pb)


def test_fixture_list_covers_torsion_user_grading_and_failure():
    assert {"torsion_fermat.json", "pentagon_main.json",
            "p1p1_not_codim1.json"} <= set(RESIDUE_FIXTURES)
    assert not load("p1p1_not_codim1.json").problem.codim.ok


# each degree is given by the exponent of one monomial of that degree
DENSE_FANS = {
    "p1": (load_fan(FIXTURES / "p1.fan.json"), [(1, 0), (2, 0), (3, 0)]),
    "p2": (load_fan(FIXTURES / "p2.fan.json"), [(1, 0, 0), (2, 0, 0)]),
    "p1p1": (load_fan(FIXTURES / "p1p1.fan.json"),
             [(1, 0, 1, 0), (1, 0, 2, 0), (2, 0, 1, 0)]),
}


@SETTINGS
@given(st.sampled_from(sorted(DENSE_FANS)), st.data())
def test_codim_matches_oracle_on_dense_systems(name, data):
    (fan, grading), degrees = DENSE_FANS[name]
    polys = []
    for _ in range(fan.dim + 1):
        degree = grading.degree(data.draw(st.sampled_from(degrees)))
        mons = monomial_basis(fan, grading, degree)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(mons),
                                    max_size=len(mons)).filter(any))
        polys.append(MultiPoly(fan.nvars, dict(zip(mons, coeffs))))
    pb = ResidueProblem(fan, polys, grading=grading)
    assert codim_outcome(lambda: pb.codim) == oracle_outcome(pb)


# ---------------------------------------------------------------------------
# heap-ordered division


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def polys_st(nvars, max_deg=3, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: MultiPoly(nvars, d))


@st.composite
def division_cases(draw):
    nvars = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grevlex", "lex"]))
    order = MonomialOrder(kind, tuple(draw(st.permutations(range(nvars)))))
    p = draw(polys_st(nvars, max_deg=4, max_terms=8))
    basis = draw(st.lists(polys_st(nvars, max_deg=2, max_terms=3),
                          min_size=1, max_size=4))
    return p, basis, order


@SETTINGS
@given(division_cases())
def test_heap_division_matches_linear_scan(case):
    p, basis, order = case
    fast = table_basis(integer_table(basis, order), order).reduce(p)
    slow = linear_scan_normal_form(p, basis, order)
    assert list(fast.terms.items()) == list(slow.terms.items())


@SETTINGS
@given(division_cases())
def test_cached_reducers_match_linear_scan_on_a_basis(case):
    p, gens, order = case
    gb = GroebnerBasis.of(gens, order)
    fast = gb.reduce(p)
    slow = linear_scan_normal_form(p, gb.generators, order)
    assert list(fast.terms.items()) == list(slow.terms.items())
    monic = fraction_divide(p, reducer_table(gb.generators, order), order)
    assert list(fast.terms.items()) == list(monic.terms.items())
    assert leading_exponents(gb) == tuple(
        max(g.terms, key=order.key) for g in gb.generators)


@SETTINGS
@given(st.sampled_from(["grevlex", "lex"]), st.permutations(range(3)),
       st.lists(st.tuples(*[st.integers(0, 4)] * 3), unique=True, max_size=12))
def test_heap_key_ascends_as_the_order_descends(kind, prec, exps):
    order = MonomialOrder(kind, tuple(prec))
    assert sorted(exps, key=lambda e: heap_key(order, e)) \
        == sorted(exps, key=order.key, reverse=True)


# ---------------------------------------------------------------------------
# Buchberger over one reducer table


def term_lists(basis):
    return [list(g.terms.items()) for g in basis]


def assert_basis_matches_oracle(gens, order):
    """The reducer table is the one read back from the oracle's monic
    basis, and the generators are that basis, term for term."""
    gb = GroebnerBasis.of(gens, order)
    expected = parallel_list_buchberger(gens, order)
    assert gb.reducers == tuple(integer_table(expected, order))
    assert term_lists(gb.generators) == term_lists(expected)


def assert_mod_p_basis_matches_oracle(gens, order):
    """The table of the inputs mod P is the one read back from the
    oracle's basis of them over GF(P)."""
    gens_p = [MultiPoly.from_integer_terms(g.nvars, 1, mod_p(g)) for g in gens]
    assert unpacked_basis([g.num for g in gens_p], order, P) \
        == integer_table(parallel_list_buchberger(gens_p, order, P), order, P)


def assert_bases_match_oracle(gens, order):
    assert_basis_matches_oracle(gens, order)
    assert_mod_p_basis_matches_oracle(gens, order)


@st.composite
def ideal_cases(draw):
    """Generators under a permuted order, possibly with zero generators,
    duplicates, and a constant that makes the ideal the unit ideal."""
    nvars = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["grevlex", "lex"]))
    order = MonomialOrder(kind, tuple(draw(st.permutations(range(nvars)))))
    # at most nvars nonconstant generators, so that most ideals are proper
    gens = draw(st.lists(polys_st(nvars, max_deg=2, max_terms=4).filter(
        lambda p: not is_constant(p)), min_size=nvars - 1, max_size=nvars))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    for extra, odds in ((MultiPoly.zero(nvars), 3), (MultiPoly.constant(nvars, 3), 6)):
        if draw(st.integers(1, odds)) == odds:
            gens.insert(draw(st.integers(0, len(gens))), extra)
    return gens, order


@settings(SETTINGS, max_examples=60)
@given(ideal_cases())
def test_buchberger_matches_parallel_list_oracle(case):
    assert_basis_matches_oracle(*case)


def test_buchberger_edge_ideals_match_oracle():
    names = ("x", "y")
    order = MonomialOrder("grevlex", (1, 0))
    zero = MultiPoly.zero(2)
    f, g = parse_poly("x^2 - y", names), parse_poly("x*y - 1", names)
    for gens in ([], [zero, zero], [zero, f, zero], [f, f, g, g], [g, f, g],
                 [f, MultiPoly.constant(2, -2)]):
        assert_basis_matches_oracle(gens, order)
    assert GroebnerBasis.of([zero, zero], order).reducers == ()
    unit = GroebnerBasis.of([f, MultiPoly.constant(2, -2)], order)
    assert unit.reducers == (((0, 0), 1, ()),)
    assert unit.generators == (MultiPoly.constant(2, 1),)


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_buchberger_matches_oracle_on_fixture_ideals(name):
    pb = load(name).problem
    assert_bases_match_oracle(pb.polys, pb.order)
    dim = pb.fan.dim
    for k in range(len(pb.fan.max_cones)):
        charts = [dehomogenize(p, pb.fan, k) for p in pb.polys]
        for order in (grevlex(dim), lex(dim)):
            assert_bases_match_oracle(charts, order)
            for j in range(len(charts)):
                assert_bases_match_oracle(charts[:j] + charts[j + 1:], order)


@settings(SETTINGS, max_examples=25)
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]))
def test_buchberger_matches_oracle_on_random_systems_and_their_charts(case):
    pb = case[0]
    assert_bases_match_oracle(pb.polys, pb.order)
    for k in range(len(pb.fan.max_cones)):
        assert_bases_match_oracle([dehomogenize(p, pb.fan, k) for p in pb.polys],
                                  grevlex(pb.fan.dim))


@st.composite
def scaled_lead_cases(draw):
    """A nonzero p and a table of nonzero polynomials, not a Groebner basis,
    whose leads carry a factor of 2 to 5, so most divisions scale their
    pending terms."""
    nvars = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grevlex", "lex"]))
    order = MonomialOrder(kind, tuple(draw(st.permutations(range(nvars)))))

    def nonzero(max_deg, max_terms):
        exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
        return st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms).map(
            lambda d: MultiPoly(nvars, d))
    p = draw(nonzero(4, 8))
    basis = []
    for g in draw(st.lists(nonzero(2, 3), min_size=1, max_size=4)):
        le = max(g.terms, key=order.key)
        basis.append(MultiPoly(nvars, {**g.terms, le: g.terms[le] * draw(st.integers(2, 5))}))
    return p, basis, order


@SETTINGS
@given(st.one_of(division_cases(), scaled_lead_cases()))
def test_pseudo_division_is_a_scale_times_the_fraction_division(case):
    p, basis, order = case
    d, terms = p.d, p.num
    scale, rem = packed_divide(terms, integer_table(basis, order), order)
    expected = fraction_divide(p * d, reducer_table(basis, order), order)
    assert scale > 0
    assert list(rem) == list(expected.terms)
    assert all(rem[e] == scale * c for e, c in expected.terms.items())


def test_pseudo_division_scales_the_pending_terms():
    """x^2 + y^2 by 2x + y: cancelling x^2 scales the pending y^2 by 2."""
    names = ("x", "y")
    order = grevlex(2)
    p = parse_poly("x^2 + y^2", names)
    table = integer_table([parse_poly("2*x + y", names)], order)
    assert packed_divide(p.num, table, order) == (4, {(0, 2): 5})
    gb = GroebnerBasis.of([parse_poly("2*x + y", names)], order)
    assert gb.reducers == tuple(table)
    assert gb.reduce(p) == parse_poly("5/4*y^2", names)


@SETTINGS
@given(division_cases())
def test_division_mod_p_is_division_over_q_reduced_mod_p(case):
    """Reduction mod P is a ring map on P-integral coefficients, and no
    lead coefficient here is 0 mod P, so each step over Q maps to the same
    step mod P; the reducers over GF(P) are monic, so the scale is 1."""
    p, basis, order = case
    table_p = [integer_reducer(t, order, P) for t in map(mod_p, basis) if t]
    assert all(lc == 1 for _, lc, _ in table_p)
    scale, rem = packed_divide(mod_p(p), table_p, order, P)
    assert scale == 1
    over_q = table_basis(integer_table(basis, order), order).reduce(p)
    assert rem == mod_p(over_q)


@settings(SETTINGS, max_examples=60)
@given(ideal_cases())
def test_buchberger_mod_p_is_the_basis_over_q_reduced_mod_p(case):
    """True unless P is unlucky for the ideal, i.e. divides one of finitely
    many nonzero integers formed from its coefficients; with coefficients
    this small none of them is near P in size."""
    gens, order = case
    over_q = GroebnerBasis.of(gens, order).generators
    assert unpacked_basis([mod_p(g) for g in gens], order, P) \
        == [integer_reducer(mod_p(g), order, P) for g in over_q]


@settings(SETTINGS, max_examples=60)
@given(ideal_cases())
def test_buchberger_mod_p_matches_parallel_list_oracle(case):
    assert_mod_p_basis_matches_oracle(*case)


@SETTINGS
@given(division_cases())
def test_s_polynomial_of_monic_reducers_matches_multipoly_oracle(case):
    """Over Q the S-polynomial of the primitive reducers is lc_f*lc_g/h
    times that of the monic ones, h = gcd(lc_f, lc_g); over GF(P) the
    reducers are monic and it is the oracle's reduced mod P."""
    _, polys, order = case
    polys = [p for p in polys if not p.is_zero()]
    assume(len(polys) >= 2)
    f, g = polys[:2]
    expected = multipoly_s_polynomial(f, g, order)
    monic = [_monic(p, order, 0) for p in (f, g)]
    assert fraction_s_polynomial(*monic, f.nvars) == expected
    rf, rg = integer_table([f, g], order)
    k = Fraction(rf[1] * rg[1], math.gcd(rf[1], rg[1]))
    assert MultiPoly.from_integer_terms(f.nvars, 1, packed_s_polynomial(rf, rg, order)) \
        == expected * k
    pf, pg = (integer_reducer(mod_p(q), order, P) for q in (f, g))
    s_p = {e: c % P for e, c in packed_s_polynomial(pf, pg, order).items()}
    assert {e: c for e, c in s_p.items() if c} == mod_p(expected)


@SETTINGS
@given(ideal_cases())
def test_basis_reducers_are_primitive_with_positive_lead(case):
    gens, order = case
    gb = GroebnerBasis.of(gens, order)
    assert len(gb.reducers) == len(gb.generators)
    for (le, lc, tail), g in zip(gb.reducers, gb.generators):
        assert lc > 0 and math.gcd(lc, *(c for _, c in tail)) == 1
        assert all(type(c) is int for _, c in tail)
        assert {le: Fraction(1), **{e: Fraction(c, lc) for e, c in tail}} == g.terms


class _FractionBasis:
    """A basis read through the monic Fraction reducers of the oracle."""

    def __init__(self, gb):
        self.reducers = reducer_table(gb.generators, gb.order)


def functional_outcome(functional, pb, basis):
    try:
        return functional(pb.order, basis, pb.monomials)
    except AllReduceToZero:
        return "AllReduceToZero"


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_ell_and_reduce_match_fraction_reducers_on_fixtures(name):
    """The functional is one integer vector over a positive denominator, in
    lowest terms, whose Fraction view is the Fraction pass of the oracle on
    the integer reducers and on the monic Fraction ones."""
    pb = load(name).problem
    gb = pb.groebner
    fast = functional_outcome(lambda order, basis, monomials: residue_functional(basis, monomials),
                              pb, gb)
    oracle = functional_outcome(fraction_functional, pb, gb)
    assert oracle == functional_outcome(fraction_functional, pb, _FractionBasis(gb))
    if fast == "AllReduceToZero":
        assert oracle == fast
    else:
        report, (D, num) = fast
        assert type(D) is int and D > 0
        assert all(type(v) is int for v in num.values())
        assert math.gcd(D, *num.values()) == 1
        assert (report, {m: Fraction(v, D) for m, v in num.items()}) == oracle
    table = reducer_table(gb.generators, pb.order)
    for H in pb.polys + tuple(MultiPoly.monomial(m) for m in pb.monomials):
        assert list(gb.reduce(H).terms.items()) \
            == list(fraction_divide(H, table, pb.order).terms.items())


# ---------------------------------------------------------------------------
# chart solver: finiteness and quotient dimension


def solver_dimension(system):
    """(finite, quotient dimension) as solve_chart_system sees them, on
    every exit: the dimension is recorded where the solver counts it."""
    seen = []
    real = localres_mod.standard_monomials

    def counted(gb):
        out = real(gb)
        seen.append(len(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localres_mod, "standard_monomials", counted)
        try:
            solve_chart_system(system)
        except NotZeroDimensional:
            return False, None
        except (NonSimpleZero, NotShapePosition):
            pass
    return True, seen[0]


def chart_systems(name):
    pb = load(name).problem
    for cone in range(len(pb.fan.max_cones)):
        charts = [dehomogenize(p, pb.fan, cone) for p in pb.polys]
        for k in range(len(charts)):
            yield charts[:k] + charts[k + 1:]


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_chart_solver_dimension_matches_grevlex_oracle(name):
    for system in chart_systems(name):
        assert solver_dimension(system) == grevlex_chart_dimension(system)


def test_chart_solver_fixtures_cover_infinite_and_positive_dimensions():
    seen = {grevlex_chart_dimension(s) for s in chart_systems("p1p1_infinite.json")}
    assert (False, None) in seen
    seen |= {grevlex_chart_dimension(s) for s in chart_systems("pentagon_main.json")}
    assert {(True, 0), (True, 1), (True, 5), (True, 13)} <= seen


@st.composite
def square_systems(draw):
    """Square systems in one or two variables; a common factor, when drawn,
    makes a two-variable system positive-dimensional."""
    nvars = draw(st.integers(1, 2))
    system = draw(st.lists(polys_st(nvars, max_deg=2, max_terms=3).filter(
        lambda p: not p.is_zero()), min_size=nvars, max_size=nvars))
    if nvars == 2 and draw(st.booleans()):
        common = draw(polys_st(nvars, max_deg=1, max_terms=2).filter(
            lambda p: not is_constant(p)))
        system = [common * p for p in system]
    return system


@settings(SETTINGS, max_examples=80)
@given(square_systems())
def test_chart_solver_dimension_matches_oracle_on_random_systems(system):
    assert solver_dimension(system) == grevlex_chart_dimension(system)


# ---------------------------------------------------------------------------
# each artifact built once


def counting_buchberger(monkeypatch):
    """Record each basis the package builds: ``packed_basis`` runs
    Buchberger for ``GroebnerBasis.of`` and the zero-locus chart test
    alike."""
    calls = []
    real = groebner_mod.packed_basis

    def counted(gens, order, modulus=0):
        calls.append(order)
        return real(gens, order, modulus)

    for module in (groebner_mod, residues_mod):
        monkeypatch.setattr(module, "packed_basis", counted)
    return calls


@pytest.mark.parametrize("name", ["pentagon_main.json", "torsion_fermat.json",
                                  "p1p1_bilinear.json"])
def test_codim_and_c_sigma_reuse_the_cached_basis(monkeypatch, name):
    calls = counting_buchberger(monkeypatch)
    pb = load(name).problem
    pb.groebner
    assert len(calls) == 1
    pb.codim
    pb.c_sigma
    assert len(calls) == 1


def test_codim_alone_builds_the_basis_once(monkeypatch):
    calls = counting_buchberger(monkeypatch)
    pb = load("p2_fermat.json").problem
    assert pb.codim.ok
    pb.groebner
    pb.c_sigma
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["pentagon_main.json", "torsion_fermat.json",
                                  "p2_fermat.json"])
def test_residues_never_reduce_h_and_build_ell_once(monkeypatch, name):
    lp = load(name)
    pb = lp.problem
    H = lp.inputs[0]
    reduced = []
    built = []
    real_reduce = GroebnerBasis.reduce
    real_functional = residues_mod.residue_functional

    def counted_reduce(gb, p):
        reduced.append(p)
        return real_reduce(gb, p)

    def counted_functional(*args, **kwargs):
        built.append(args)
        return real_functional(*args, **kwargs)

    monkeypatch.setattr(GroebnerBasis, "reduce", counted_reduce)
    monkeypatch.setattr(residues_mod, "residue_functional", counted_functional)
    rep = residue_report(pb, H)
    assert rep.residue == rep.c_h / rep.c_sigma
    for k in range(1, 6):
        assert toric_residue(pb, H * k) == k * rep.residue
    assert toric_residue(pb, pb.delta) == 1
    assert sigma_independence_check(pb)
    assert pb.codim.ok
    assert reduced == []
    assert len(built) == 1


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_residues_and_local_sums_read_only_the_reducer_table(name):
    """The package never builds the Fraction generators of its basis."""
    lp = load(name)
    pb = lp.problem
    H = lp.inputs[0]
    calls = [lambda: toric_residue(pb, H), lambda: residue_report(pb, H)]
    calls += [lambda k=k: sum_local_residues(pb, H, k) for k in range(len(pb.polys))]
    for call in calls:
        with contextlib.suppress(ToricError):
            call()
    assert "generators" not in pb.groebner.__dict__


def count_eliminations(monkeypatch, calls):
    """Append the matrix of every ``lattice.mat_det`` and ``lattice.bareiss``
    call to ``calls``; a ``mat_det`` appends it twice, as itself and as its
    ``bareiss``."""
    real_det, real_bareiss = lattice_mod.mat_det, lattice_mod.bareiss
    monkeypatch.setattr(lattice_mod, "mat_det", lambda A: calls.append(A) or real_det(A))
    monkeypatch.setattr(lattice_mod, "bareiss",
                        lambda A, B=(): calls.append(A) or real_bareiss(A, B))


@pytest.mark.parametrize("test", [is_ample, is_q_ample, divisor_polytope])
def test_positivity_solves_cone_functionals_once(monkeypatch, pentagon, test):
    """One ``support_meets`` per positivity test or divisor polytope on a
    complete fan, for ample, nef-only and non-nef divisors alike, and no
    determinant or elimination on the fan's cones once its cone table is
    built."""
    fan, _ = pentagon
    assert fan.cone_table
    calls, dets = [], []
    real = divisors_mod.support_meets

    def counted(fan, coeffs):
        calls.append(tuple(coeffs))
        return real(fan, coeffs)

    monkeypatch.setattr(divisors_mod, "support_meets", counted)
    monkeypatch.setattr(polytopes_mod, "support_meets", counted)
    count_eliminations(monkeypatch, dets)
    for coeffs in ((1, 1, 1, 1, 1), (0, 0, 1, 1, 1), (0, 0, 2, 3, 1)):
        calls.clear()
        test(fan, coeffs)
        assert calls == [coeffs]
    assert dets == []
    # a non-nef polytope enumerates vertices off the cone functionals
    calls.clear()
    test(fan, (0, 0, -1, -1, -1))
    assert calls == [(0, 0, -1, -1, -1)]


def test_positivity_reads_the_cone_table_and_the_walls(monkeypatch):
    """After a fan's first positivity test no determinant or elimination is
    taken on its cones: every later Cartier, Q-ample and ample test and every nef
    divisor polytope reads the cached cone table.  Slacks are formed at the
    walls only, and at every ray off every cone only for a divisor that
    fails a wall."""
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)],
                   [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert is_ample(fan, (1, 1, 1, 1, 1))
    dets, reads = [], []
    real_slacks = divisors_mod.slacks

    def counted(*args):
        reads.append("walls" if args[3] == fan.walls else len(args[3]))
        return real_slacks(*args)

    count_eliminations(monkeypatch, dets)
    monkeypatch.setattr(divisors_mod, "slacks", counted)
    monkeypatch.setattr(polytopes_mod, "slacks", counted)
    ample, q_ample, nef_only, not_nef = ((1, 1, 1, 1, 1), (0, 0, 1, 3, 2), (0, 0, 1, 1, 1),
                                         (0, 0, -1, -1, -1))
    for coeffs in (ample, q_ample):
        reads.clear()
        assert is_q_ample(fan, coeffs) and is_cartier(fan, coeffs).ok == (coeffs == ample)
        assert is_ample(fan, coeffs).ok == (coeffs == ample)
        divisor_polytope(fan, coeffs)
        assert reads == ["walls"] * 3
    reads.clear()
    divisor_polytope(fan, nef_only)
    assert reads == ["walls"]
    for coeffs in (nef_only, not_nef):
        for test in (is_q_ample, is_ample):
            reads.clear()
            assert not test(fan, coeffs)
            assert reads == ["walls", 5 * 3]
    assert dets == []


def test_constant_in_the_ideal_gives_the_unit_basis():
    names = ("x", "y", "z")
    one = MultiPoly.constant(3, 1)
    for texts in (["x*y - 1", "y"], ["x^2 + y*z", "x*y*z - 2", "y^2*z", "z^2"],
                  ["3"]):
        gens = [parse_poly(t, names) for t in texts]
        for order in (MonomialOrder("grevlex", (0, 1, 2)), MonomialOrder("lex", (2, 0, 1))):
            gb = GroebnerBasis.of(gens, order)
            assert gb.reducers == (((0, 0, 0), 1, ()),) and gb.generators == (one,)
        assert is_unit_ideal(GroebnerBasis.of(gens, MonomialOrder("grevlex", (1, 2, 0))))


@pytest.mark.parametrize("name", ["pentagon_main.json", "torsion_fermat.json"])
def test_chart_ideals_of_a_valid_problem_are_unit(name):
    pb = load(name).problem
    one = MultiPoly.constant(pb.fan.dim, 1)
    for k in range(len(pb.fan.max_cones)):
        charts = [dehomogenize(p, pb.fan, k) for p in pb.polys]
        assert GroebnerBasis.of(charts, grevlex(pb.fan.dim)).generators == (one,)
    assert pb.zero_locus().ok


# ---------------------------------------------------------------------------
# completeness


@st.composite
def fans_2d(draw):
    """Rays sorted by angle with consecutive cones: complete exactly when
    every angular gap is below pi.  Then maybe drop or replace one cone, or
    swap two neighbours in the cyclic order, which folds the fan at both."""
    vecs = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
                         min_size=2, max_size=8))
    rays = sorted({primitive(v) for v in vecs}, key=lambda r: math.atan2(r[1], r[0]))
    assume(len(rays) >= 2)
    cycle = list(range(len(rays)))
    k = draw(st.integers(0, len(rays) - 1))
    change = draw(st.sampled_from(["none", "drop", "replace", "swap"]))
    if change == "swap":
        j = (k + 1) % len(rays)
        cycle[k], cycle[j] = cycle[j], cycle[k]
    cones = [(cycle[i], cycle[(i + 1) % len(rays)]) for i in range(len(rays))]
    if change == "drop":
        del cones[k]
    elif change == "replace":
        cones[k] = tuple(draw(st.permutations(range(len(rays))))[:2])
    return make_fan(2, rays, cones)


P3_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))


@st.composite
def stellar_fans_3d(draw):
    """Star subdivisions of the P^3 fan at edges and maximal cones, each
    adding the primitive sum of the face's rays; then maybe one cone
    replaced by a random triple of rays."""
    rays = list(P3_RAYS)
    cones = [set(c) for c in itertools.combinations(range(4), 3)]
    for _ in range(draw(st.integers(0, 3))):
        edges = {tuple(sorted(f)) for c in cones for f in itertools.combinations(c, 2)}
        face = set(draw(st.sampled_from(sorted(edges | {tuple(sorted(c)) for c in cones}))))
        rays.append(primitive(tuple(map(sum, zip(*(rays[i] for i in face))))))
        new = len(rays) - 1
        cones = ([c for c in cones if not face <= c]
                 + [(c - {i}) | {new} for c in cones if face <= c for i in face])
    if draw(st.booleans()):
        k = draw(st.integers(0, len(cones) - 1))
        cones[k] = set(draw(st.permutations(range(len(rays))))[:3])
    return make_fan(3, rays, [sorted(c) for c in cones])


@settings(SETTINGS, max_examples=150)
@given(st.one_of(fans_2d(), stellar_fans_3d()))
def test_is_complete_matches_pairwise_oracle(fan):
    assert is_complete(fan).ok == pairwise_is_complete(fan)


def test_random_fans_cover_both_outcomes():
    outcomes = set()

    @SETTINGS
    @given(st.one_of(fans_2d(), stellar_fans_3d()))
    def record(fan):
        outcomes.add((fan.dim, pairwise_is_complete(fan)))

    record()
    assert outcomes == {(2, True), (2, False), (3, True), (3, False)}


# wound twice round the origin: every facet in two cones on opposite sides
DOUBLY_WOUND = ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))
# the cone on (-1,0),(1,1) folds back over the first two cones
FOLDED = ((1, 0), (0, 1), (-1, 0), (1, 1))
# folds at (-3,-1) and (-2,1), covering the angles between them three times
# and the first cone once
ZIGZAG = ((1, 0), (0, 1), (-3, -1), (-2, 1), (0, -1))


@SETTINGS
@given(st.sampled_from([DOUBLY_WOUND, FOLDED, ZIGZAG]), st.data())
def test_wound_and_folded_fans_are_incomplete(rays, data):
    """Consecutive cones, under any labelling of the rays and with any cone
    listed first."""
    perm = data.draw(st.permutations(range(len(rays))))
    pos = {old: new for new, old in enumerate(perm)}
    first = data.draw(st.integers(0, len(rays) - 1))
    cones = [(pos[i % len(rays)], pos[(i + 1) % len(rays)])
             for i in range(first, first + len(rays))]
    fan = make_fan(2, [rays[i] for i in perm], cones)
    assert not pairwise_is_complete(fan)
    assert not is_complete(fan).ok
