"""The Hilbert-driven skip of ``packed_basis`` and the pair update beside it.

Forms under grevlex, at least as many as the variables, pop the S-pairs of
a degree unreduced once the leads of the table fill dim S_D - h_D of its
monomials, h the Froeberg series [prod(1 - t^d_i) / (1 - t)^m]_+.  The
reduced basis is unique, so every table must be the tuple kernel's
(``oracles.tuple_buchberger``, which skips nothing): on square systems of
forms, on forms with a common zero, where H(S/I) departs from h and the
count must switch off, on more forms than variables, under lex (where the
skip does not apply) and mod P.  On a seeded P^2 quintic system the skip
must leave no S-pair that reduces to zero, and on a sparse system of high
degree the count must stop itself within the kernel's own work.  The pair
update, one pass in ascending lcm, must leave the pairs of the sieve it
replaced, in the same pop order.
"""

import heapq
import inspect
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import toricres.groebner as groebner_mod
from toricres import MonomialOrder, MultiPoly, grevlex, lex, load_fan
from toricres.groebner import Packing
from toricres.residues import P

from conftest import FIXTURES
from oracles import _tuple_gm_update, tuple_buchberger, unpacked_basis
from test_zero_locus import seeded_dense_system

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# the largest form degree drawn in m variables, to keep the tuple kernel quick
TOP_DEGREE = {2: 5, 3: 3, 4: 2}


def monomials(m, d):
    """The exponents of degree d in m variables."""
    return [e for e in itertools.product(range(d + 1), repeat=m) if sum(e) == d]


@st.composite
def form(draw, m, d, zero=False):
    """A nonzero form of degree d in m variables, each coefficient in
    -3..3; with ``zero``, its last nonzero coefficient is moved so that the
    coefficients sum to 0, and it vanishes at (1, ..., 1)."""
    mons = monomials(m, d)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons))
                  .filter(lambda cs: sum(map(bool, cs)) > zero))
    terms = {e: c for e, c in zip(mons, coeffs) if c}
    if zero:
        last = list(terms)[-1]
        terms[last] -= sum(terms.values())
    return {e: c for e, c in terms.items() if c}


@st.composite
def form_systems(draw, extra=0, zero=False):
    """m + extra forms of random degrees in m = 2..4 variables."""
    m = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.integers(1, TOP_DEGREE[m]), min_size=m + extra,
                            max_size=m + extra))
    return m, [draw(form(m, d, zero)) for d in degrees]


def count_of(monkeypatch):
    """The count each ``packed_basis`` call makes, as it is returned."""
    made = []
    real = groebner_mod._lead_count

    def recorded(gens, packing):
        made.append(real(gens, packing))
        return made[-1]

    monkeypatch.setattr(groebner_mod, "_lead_count", recorded)
    return made


def state(count):
    """The variables of a count: its degree, leads, target, whether it is on
    and its set operations."""
    return inspect.getclosurevars(count).nonlocals


def assert_tables_agree(m, gens, order, modulus=0):
    assert unpacked_basis(gens, order, modulus) == tuple_buchberger(gens, order, modulus)


# ---------------------------------------------------------------------------
# tables against the tuple kernel


@SETTINGS
@given(form_systems())
def test_square_systems_of_forms_give_the_tuple_kernels_tables(system):
    m, gens = system
    assert_tables_agree(m, gens, grevlex(m))


@settings(SETTINGS, max_examples=100)
@given(form_systems(zero=True))
def test_forms_with_a_common_zero_give_the_tuple_kernels_tables(system):
    m, gens = system
    assert_tables_agree(m, gens, grevlex(m))


@SETTINGS
@given(form_systems(extra=1), st.integers(0, 1))
def test_more_forms_than_variables_give_the_tuple_kernels_tables(system, more):
    m, gens = system
    gens += [gens[0]] * more
    assert_tables_agree(m, gens, grevlex(m))


@SETTINGS
@given(form_systems(), st.data())
def test_forms_under_lex_give_the_tuple_kernels_tables(system, data):
    m, gens = system
    order = MonomialOrder("lex", tuple(data.draw(st.permutations(range(m)))))
    assert_tables_agree(m, gens, order)


@SETTINGS
@given(st.one_of(form_systems(), form_systems(zero=True), form_systems(extra=1)))
def test_forms_mod_p_give_the_tuple_kernels_tables(system):
    m, gens = system
    assert_tables_agree(m, gens, grevlex(m), P)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_common_line_switches_the_count_off_where_a_degree_finishes_short(monkeypatch, seed):
    """Quintics (x - y)*g_i, g_i dense quartics: H(S/I) is (D + 1) plus the
    Hilbert function of (g_1, g_2, g_3) one degree up, which departs from
    h = (1 + ... + t^4)^3 at degree 9 (13 against 10), while the basis has
    pairs above it.  The count ends off, below its target (a count that its
    budget stops ends at it), and the table is the tuple kernel's over Q and
    mod P."""
    fan, grading = load_fan(FIXTURES / "p2.fan.json")
    line = MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): -1})
    quartics = seeded_dense_system(fan, grading, grading.degree((4, 0, 0)), seed)
    gens = [(line * g).num for g in quartics]
    made = count_of(monkeypatch)
    assert_tables_agree(3, gens, grevlex(3))
    assert_tables_agree(3, gens, grevlex(3), P)
    for count in made:
        count = state(count)
        assert not count["on"] and count["degree"] == 9
        assert len(count["leads"]) == count["target"] - 3


def leads_of(packing, exponents):
    """A table of reducers with these leads and no tails."""
    return [(packing.pack(e), 1, ()) for e in exponents]


def test_a_degree_that_finishes_below_its_target_switches_the_count_off_for_good():
    """Three quadrics in three variables: h = 1, 3, 3, 1, so the targets
    are 3, 9 and 15 leads in degrees 2, 3 and 4.  Leads x^2, x*y, y^2 fill
    only 7 monomials of degree 3; once a pair of degree 4 pops, degree 3 is
    done below its target, and the count stays off even when the leads
    fill degree 4."""
    packing = Packing(grevlex(3))
    forms = [packing.pack_terms({e: 1}) for e in ((2, 0, 0), (1, 1, 0), (0, 2, 0))]
    filled = groebner_mod._lead_count(forms, packing)
    table = leads_of(packing, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
    budget = 10 ** 9
    assert not filled(packing.pack((1, 1, 1)), table, budget)
    assert len(state(filled)["leads"]) == 7 and state(filled)["target"] == 9
    table += leads_of(packing, monomials(3, 4))
    assert not filled(packing.pack((2, 1, 1)), table, budget)
    assert not state(filled)["on"]
    assert not filled(packing.pack((3, 1, 1)), table, budget)


def test_a_count_that_meets_its_targets_skips_and_fills_every_later_degree():
    """The same quadrics with z^2 - x*y, whose leads x^2, x*y, y^2, x*z^2,
    y*z^2 and z^4 meet the targets 3, 9 and 15: a pair of degree 3 pops
    unreduced once the degree-3 leads join, and every pair from degree 4 on
    once degree 4 holds every monomial."""
    packing = Packing(grevlex(3))
    forms = [packing.pack_terms({e: 1}) for e in ((2, 0, 0), (1, 1, 0), (0, 2, 0))]
    filled = groebner_mod._lead_count(forms, packing)
    table = leads_of(packing, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
    budget = 10 ** 9
    assert not filled(packing.pack((1, 1, 1)), table, budget)
    table += leads_of(packing, [(1, 0, 2), (0, 1, 2)])
    assert filled(packing.pack((1, 0, 2)), table, budget)
    assert not filled(packing.pack((0, 0, 4)), table, budget)
    table += leads_of(packing, [(0, 0, 4)])
    assert filled(packing.pack((0, 0, 4)), table, budget)
    assert filled(packing.pack((0, 0, 9)), table, budget)
    assert state(filled)["on"] and state(filled)["degree"] == 4


def test_the_skip_applies_to_forms_under_grevlex_at_least_as_many_as_the_variables():
    packing, lex_packing = Packing(grevlex(3)), Packing(lex(3))
    forms = [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1, (1, 1, 0): -1}]
    packed = [packing.pack_terms(g) for g in forms]
    assert groebner_mod._lead_count(packed, packing) is not None
    assert groebner_mod._lead_count(packed + packed[:1], packing) is not None
    assert groebner_mod._lead_count(packed[:2], packing) is None
    assert groebner_mod._lead_count([lex_packing.pack_terms(g) for g in forms],
                                    lex_packing) is None
    affine = packed[:2] + [packing.pack_terms({(0, 0, 2): 1, (1, 0, 0): -1})]
    assert groebner_mod._lead_count(affine, packing) is None


# ---------------------------------------------------------------------------
# what the skip saves, and what the count costs


def zero_remainders(monkeypatch):
    """How many S-polynomials ``divide`` reduces to zero, and how many it is
    handed."""
    made, seen = [], {"formed": 0, "zero": 0}
    real_s, real_divide = groebner_mod.s_polynomial, groebner_mod.divide

    def s_polynomial(*args):
        made.append(real_s(*args))
        seen["formed"] += 1
        return made[-1]

    def divide(terms, *args):
        scale, r = real_divide(terms, *args)
        if any(terms is q for q in made) and not r:
            seen["zero"] += 1
        return scale, r

    monkeypatch.setattr(groebner_mod, "s_polynomial", s_polynomial)
    monkeypatch.setattr(groebner_mod, "divide", divide)
    return seen


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_p2_quintic_system_reduces_no_s_pair_to_zero(monkeypatch, seed):
    fan, grading = load_fan(FIXTURES / "p2.fan.json")
    gens = [p.num for p in seeded_dense_system(fan, grading, grading.degree((5, 0, 0)), seed)]
    expected = tuple_buchberger(gens, grevlex(3))
    made = count_of(monkeypatch)
    seen = zero_remainders(monkeypatch)
    assert unpacked_basis(gens, grevlex(3)) == expected
    assert seen["formed"] and seen["zero"] == 0
    assert state(made[0])["on"]


def sparse_system(N):
    """x^N*y - z^(N+1), y^(N+1) - x*z^N, x^(N+1) + y^(N+1) + z^(N+1): three
    forms of degree N + 1 with a few terms each and a large quotient."""
    return [{(N, 1, 0): 1, (0, 0, N + 1): -1}, {(0, N + 1, 0): 1, (1, 0, N): -1},
            {(N + 1, 0, 0): 1, (0, N + 1, 0): 1, (0, 0, N + 1): 1}]


def test_the_count_stops_within_the_kernels_work_on_a_sparse_system(monkeypatch):
    """The count's set operations never pass the floor on the kernel's work
    that bounds them: one step per packed exponent of the input, and for
    each division the terms handed to it and a test of each remainder term
    against each reducer.  Walking every degree of this system would cost
    more than the whole basis."""
    gens = sparse_system(60)
    made = count_of(monkeypatch)
    work = [3 * sum(map(len, gens))]
    real_divide = groebner_mod.divide

    def divide(terms, table, *args):
        scale, r = real_divide(terms, table, *args)
        work.append(len(terms) + len(r) * len(table))
        return scale, r

    monkeypatch.setattr(groebner_mod, "divide", divide)
    groebner_mod.packed_basis(gens, grevlex(3))
    count = state(made[0])
    assert not count["on"]
    assert 0 < count["ops"] <= sum(work)


def test_a_sparse_system_gives_the_tuple_kernels_table():
    assert_tables_agree(3, sparse_system(6), grevlex(3))


# ---------------------------------------------------------------------------
# the pair update against the sieve it replaced


@SETTINGS
@given(st.data())
def test_the_pair_update_keeps_the_sieves_pairs_in_pop_order(data):
    """Leads appended one by one under a random order: after each, the
    pairs pop in the order of the Gebauer-Moeller sieve that rescans every
    lcm (``oracles._tuple_gm_update``, its pairs made in index order)."""
    m = data.draw(st.integers(2, 4))
    leads = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1, max_size=14))
    kind = data.draw(st.sampled_from(["grevlex", "lex"]))
    order = MonomialOrder(kind, tuple(data.draw(st.permutations(range(m)))))
    packing = Packing(order)
    table, tuple_table, pairs, tuple_pairs = [], [], [], []
    serial = itertools.count()
    for e in leads:
        pairs = groebner_mod._gm_update(table, pairs, packing.pack(e), packing, serial)
        tuple_pairs = _tuple_gm_update(tuple_table, tuple_pairs, e, order)
        table.append((packing.pack(e), 1, ()))
        tuple_table.append((e, 1, ()))
        heap = list(pairs)
        popped = [heapq.heappop(heap)[2:] for _ in pairs]
        assert popped == [p[2:] for p in sorted(tuple_pairs, key=lambda p: p[0])]
