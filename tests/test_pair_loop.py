"""The Buchberger pair loop of ``packed_basis`` against the forms it replaced.

The pair update reads its lcms from one ``Packing.lcms`` loop, finds its
equal-lcm groups in a dict and tests minimality by
``Packing.first_divisor``; it must leave the heap of the groupby form
(``oracles.groupby_gm_update``) pair for pair, under grevlex and lex,
with leads at the field maximum M.  ``Packing.lcms`` must be the
fieldwise maximum of ``oracles._lcm``.  On the five shapes of the dense
benchmark rungs the tables must be the tuple kernel's over Q and mod P,
and the final pass must divide exactly the elements whose tail a lower
lead divides.  ``degree_of`` compares terms by ``Grading.degree_values``
and must refuse with the first differing term as its witness, for a
torsion-only and a free mismatch, and accept terms whose torsion values
differ by a multiple of the modulus.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import toricres.groebner as groebner_mod
from toricres import (MonomialOrder, MultiPoly, NotHomogeneous, compute_grading, degree_of,
                      grevlex, load_fan, make_fan)
from toricres.groebner import MAX, Packing, packed_basis
from toricres.residues import P

from conftest import FIXTURES
from oracles import _divides, _lcm, groupby_gm_update, tuple_buchberger, unpacked_basis
from test_zero_locus import seeded_dense_system

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# exponents drawn from few values, M among them, so that equal lcms,
# coprime pairs and fields at the maximum all occur
EXPONENTS = st.sampled_from([0, 0, 1, 2, MAX])


@st.composite
def packings(draw):
    m = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["grevlex", "lex"]))
    return m, Packing(MonomialOrder(kind, tuple(draw(st.permutations(range(m))))))


@SETTINGS
@given(st.data())
def test_the_pair_update_leaves_the_groupby_forms_heap(data):
    """Leads appended one by one: after each, the heap is the groupby
    form's, entry for entry, serial numbers included."""
    m, packing = data.draw(packings())
    leads = data.draw(st.lists(st.tuples(*[EXPONENTS] * m), min_size=1, max_size=14))
    table, pairs, old_pairs = [], [], []
    serial, old_serial = itertools.count(), itertools.count()
    for e in leads:
        x = packing.pack(e)
        pairs = groebner_mod._gm_update(table, pairs, x, packing, serial)
        old_pairs = groupby_gm_update(table, old_pairs, x, packing, old_serial)
        table.append((x, 1, ()))
        assert pairs == old_pairs


def test_the_pair_update_meets_equal_lcm_groups_and_coprime_pairs():
    """New lead xy against x^2 and x^2*y, which share the lcm x^2*y, and
    against z^M, y*z^M and y^2*z^M: the first two meet xy in the lcm
    xy*z^M, a group that holds the coprime pair of z^M, and the third in a
    multiple of it.  The heap is the groupby form's, and its one pair is
    the last of the group x^2*y."""
    packing = Packing(grevlex(3))
    leads = [(2, 0, 0), (2, 1, 0), (0, 0, MAX), (0, 1, MAX), (0, 2, MAX)]
    table = [(packing.pack(e), 1, ()) for e in leads]
    new = packing.pack((1, 1, 0))
    pairs = groebner_mod._gm_update(table, [], new, packing, itertools.count())
    assert pairs == groupby_gm_update(table, [], new, packing, itertools.count())
    assert [(packing.unpack(L), i) for L, _, i, _ in pairs] == [((2, 1, 0), 1)]


@SETTINGS
@given(st.data())
def test_lcms_are_the_fieldwise_maxima(data):
    m, packing = data.draw(packings())
    leads = data.draw(st.lists(st.tuples(*[EXPONENTS] * m), max_size=8))
    b = data.draw(st.tuples(*[EXPONENTS] * m))
    got = packing.lcms([packing.pack(a) for a in leads], packing.pack(b))
    assert [packing.unpack(x) for x in got] == [_lcm(a, b) for a in leads]
    assert [packing.lcm(packing.pack(a), packing.pack(b)) for a in leads] == got


def _rungs():
    """The five shapes of the dense benchmark rungs: P^3 in degree 2, P^2
    in degree 5, the torsion fan at 2(-K), P(1,1,2) at twice the class of
    z and the pentagon at -K."""
    p3 = make_fan(3, [[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[j for j in range(4) if j != i] for i in range(4)])
    out = [("p3", p3, compute_grading(p3), (2, 0, 0, 0))]
    for name, e in [("p2", (5, 0, 0)), ("torsion", (2, 2, 2)), ("p112", (0, 0, 2)),
                    ("pentagon", (1, 1, 1, 1, 1))]:
        out.append((name, *load_fan(FIXTURES / f"{name}.fan.json"), e))
    return out


RUNGS = _rungs()


@pytest.mark.parametrize("modulus", [0, P])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, fan, grading, exponent", RUNGS, ids=[r[0] for r in RUNGS])
def test_dense_rung_tables_are_the_tuple_kernels(name, fan, grading, exponent, seed, modulus):
    gens = [p.num for p in seeded_dense_system(fan, grading, grading.degree(exponent), seed)]
    order = grevlex(fan.nvars)
    assert unpacked_basis(gens, order, modulus) == tuple_buchberger(gens, order, modulus)


@pytest.mark.parametrize("modulus", [0, P])
@pytest.mark.parametrize("name, fan, grading, exponent", RUNGS, ids=[r[0] for r in RUNGS])
def test_the_final_pass_divides_only_tails_a_lower_lead_divides(monkeypatch, name, fan,
                                                                grading, exponent, modulus):
    """Every ``divide`` call but the main loop's is the final pass's: its
    inputs are exactly the tails, among the minimal elements in ascending
    lead order, that a lower lead divides, each with those lower leads.
    On every rung some tails are divided and some kept."""
    calls = []
    real_divide = groebner_mod.divide

    def divide(terms, table, packing, modulus=0):
        calls.append((dict(terms), table))
        return real_divide(terms, table, packing, modulus)

    monkeypatch.setattr(groebner_mod, "divide", divide)
    gens = [p.num for p in seeded_dense_system(fan, grading, grading.degree(exponent), 1)]
    order = grevlex(fan.nvars)
    packing = groebner_mod.packing_of(order)
    reduced = packed_basis(gens, order, modulus)
    # the main loop hands divide its one table, which holds every element
    # once the loop ends; the final pass hands it slices of another list
    table = calls[0][1]
    final = [(terms, lower) for terms, lower in calls if lower is not table]
    minimal = []
    for g in sorted(table):
        if not any(_divides(packing.unpack(h[0]), packing.unpack(g[0])) for h in minimal):
            minimal.append(g)
    assert len(minimal) == len(reduced)
    expected = [(dict(g[2]), minimal[:p]) for p, g in enumerate(minimal)
                if any(_divides(packing.unpack(h[0]), packing.unpack(x))
                       for h in minimal[:p] for x, _ in g[2])]
    assert final == expected
    assert 0 < len(final) < len(reduced)


# ---------------------------------------------------------------------------
# degree_of by plain int tuples


def test_degree_values_are_the_degree_classes_fields():
    fan, grading = load_fan(FIXTURES / "torsion.fan.json")
    for e in itertools.product(range(4), repeat=3):
        d = grading.degree(e)
        assert grading.degree_values(e) == d.free + d.torsion


@pytest.mark.parametrize("terms, witness", [
    # free degree 2 throughout; torsion 4 = 1, 1, 0 and 2 mod 3
    ([(2, 0, 0), (0, 1, 1), (0, 0, 2), (1, 0, 1)], ((2, 0, 0), (0, 0, 2))),
    # free degree 2, 2 and 3
    ([(0, 0, 2), (1, 1, 0), (0, 0, 3)], ((0, 0, 2), (0, 0, 3))),
], ids=["torsion-only", "free"])
def test_degree_of_refuses_with_the_first_differing_term(terms, witness):
    fan, grading = load_fan(FIXTURES / "torsion.fan.json")
    with pytest.raises(NotHomogeneous) as info:
        degree_of(MultiPoly(3, {e: 1 for e in terms}), grading)
    assert info.value.witness == witness


def test_degree_of_reads_torsion_values_mod_their_modulus():
    """x^3, y^3 and z^3 have torsion values 6, 3 and 0: one class mod 3."""
    fan, grading = load_fan(FIXTURES / "torsion.fan.json")
    p = MultiPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert degree_of(p, grading) == grading.degree((0, 0, 3))
