"""The packed monomial kernel against the tuple kernel it replaced.

``groebner.Packing`` must keep the monomial order as integer order, make a
product of monomials a sum and divisibility one guard-bit test, and unpack
what it packed.  Buchberger, division and ``GroebnerBasis`` on packed
monomials must return the tables and remainders of the tuple kernel
(``oracles.tuple_buchberger``, ``oracles.tuple_divide``) tuple for tuple,
tail order included, over Q and mod P.  A call whose exponents outgrow
their fields must widen them and return the same answer: at ``pack``,
inside an S-polynomial tail under lex and inside a division, for
Buchberger over Q and GF(P), for ``GroebnerBasis.reduce`` and for the
zero-locus certificate.
"""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import toricres.groebner as groebner_mod
import toricres.residues as residues_mod
from toricres import (DegreeMismatch, GroebnerBasis, MonomialOrder, MultiPoly, ResidueProblem,
                      ToricError, buchberger, dehomogenize, euler_jacobi_check, grevlex, lex,
                      load_fan, no_common_zeros_on_x, parse_poly, residue_report,
                      variable_annihilation_check)
from toricres.groebner import WIDTH, Overflow, Packing, integer_terms
from toricres.residues import P, _mod_p

from conftest import FIXTURES, load
from oracles import tuple_buchberger, tuple_divide
from test_quotient import square_systems
from test_zero_locus import seeded_dense_system

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

RESIDUE_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json"))

FIELD_MAX = (1 << (WIDTH - 1)) - 1  # the largest exponent of the first packing
XYZ = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the encoding


@st.composite
def packed_exponents(draw):
    """A packing of a random order and width, and exponents that reach the
    field maximum often."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["grevlex", "lex"]))
    order = MonomialOrder(kind, tuple(draw(st.permutations(range(n)))))
    packing = Packing(order, draw(st.sampled_from([2, 3, 4, 8, WIDTH])))
    field = st.one_of(st.just(0), st.just(packing.max), st.integers(0, packing.max))
    exps = draw(st.lists(st.tuples(*[field] * n), min_size=1, max_size=8))
    return packing, exps


@SETTINGS
@given(packed_exponents())
def test_packing_keeps_order_products_divisibility_and_exponents(case):
    packing, exps = case
    order = packing.order
    xs = [packing.pack(e) for e in exps]
    assert [packing.unpack(x) for x in xs] == exps
    assert sorted(exps, key=order.key) == sorted(exps, key=packing.pack)
    for a, x in zip(exps, xs):
        for b, y in zip(exps, xs):
            assert packing.divides(x, y) == all(map(operator.le, a, b))
            assert packing.lcm(x, y) == packing.pack(tuple(map(max, a, b)))
            total = tuple(map(operator.add, a, b))
            if max(total) <= packing.max:
                assert x + y - packing.one == packing.pack(total)
            else:
                with pytest.raises(Overflow):
                    packing.pack(total)
                with pytest.raises(Overflow):
                    packing.check([x + y - packing.one])
    table = [(x, 1, ()) for x in xs]
    for e, x in zip(exps, xs):
        expected = next(r for r, b in zip(table, exps) if all(map(operator.le, b, e)))
        assert packing.first_divisor(table, x) is expected


def test_pack_refuses_an_exponent_above_the_field_maximum():
    packing = Packing(grevlex(2), WIDTH)
    assert packing.unpack(packing.pack((FIELD_MAX, 0))) == (FIELD_MAX, 0)
    with pytest.raises(Overflow):
        packing.pack((FIELD_MAX + 1, 0))
    wider = packing.wider()
    assert wider.unpack(wider.pack((FIELD_MAX + 1, 0))) == (FIELD_MAX + 1, 0)


# ---------------------------------------------------------------------------
# tables and remainders against the tuple kernel


def assert_kernels_agree(gens, order):
    """Over Q and mod P, the packed table is the tuple kernel's, and the
    basis's reducers are it over Q."""
    terms = [integer_terms(g)[1] for g in gens]
    expected = tuple_buchberger(terms, order)
    assert buchberger(terms, order) == expected
    assert GroebnerBasis.of(gens, order).reducers == tuple(expected)
    mod_p = [_mod_p(g) for g in gens]
    assert buchberger(mod_p, order, P) == tuple_buchberger(mod_p, order, P)


def assert_remainders_agree(gb, terms):
    scale, rem = gb.remainder(terms)
    expected_scale, expected = tuple_divide(terms, gb.reducers, gb.order)
    assert scale == expected_scale
    assert list(rem.items()) == list(expected.items())


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_kernels_agree_on_fixture_ideals_and_remainders(name):
    pb = load(name).problem
    n, dim = pb.fan.nvars, pb.fan.dim
    for order in (pb.order, lex(n), MonomialOrder("lex", tuple(reversed(range(n))))):
        assert_kernels_agree(pb.polys, order)
    for k in range(len(pb.fan.max_cones)):
        charts = [dehomogenize(p, pb.fan, k) for p in pb.polys]
        for order in (grevlex(dim), lex(dim)):
            assert_kernels_agree(charts, order)
    gb = pb.groebner
    for m in pb.monomials:
        for i in range(n):
            assert_remainders_agree(gb, {tuple(a + (j == i) for j, a in enumerate(m)): 1})
    for F in pb.polys:
        assert_remainders_agree(gb, integer_terms(F * F)[1])


@settings(SETTINGS, max_examples=60)
@given(square_systems(["p2", "p1p1", "p3", "p112", "pentagon"]), st.data())
def test_kernels_agree_on_random_systems_under_random_orders(case, data):
    pb = case[0]
    n = pb.fan.nvars
    kind = data.draw(st.sampled_from(["grevlex", "lex"]))
    order = MonomialOrder(kind, tuple(data.draw(st.permutations(range(n)))))
    assert_kernels_agree(pb.polys, order)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_agree_on_seeded_p2_degree_7_systems(seed):
    fan, grading = load_fan(FIXTURES / "p2.fan.json")
    polys = seeded_dense_system(fan, grading, grading.degree((7, 0, 0)), seed)
    assert_kernels_agree(polys, grevlex(3))


# ---------------------------------------------------------------------------
# widening


def record_overflows(monkeypatch):
    """(where, width) of each Overflow that ``divide`` or ``s_polynomial``
    raises; one that ``pack`` raises is not recorded."""
    seen = []
    for name in ("divide", "s_polynomial"):
        real = getattr(groebner_mod, name)

        def recorded(*args, _real=real, _name=name, **kwargs):
            try:
                return _real(*args, **kwargs)
            except Overflow:
                seen.append((_name, args[2].width))
                raise
        monkeypatch.setattr(groebner_mod, name, recorded)
    return seen


@pytest.mark.parametrize("gens, order, where", [
    # x^40000 is refused by pack
    (["x^40000 - y*z", "y^2 - z^2"], grevlex(3), []),
    # z * z^FIELD_MAX is made by the S-polynomial of the two inputs
    ([f"x*y - z^{FIELD_MAX}", "x*z - 1"], lex(3), [("s_polynomial", WIDTH)]),
    # x^2 - 1 divided by x - y^20000 makes y^40000
    (["x - y^20000", "x^2 - 1"], lex(3), [("divide", WIDTH)]),
    # x*y^FIELD_MAX - z divided by x - y makes y^(FIELD_MAX + 1)
    (["x - y", f"x*y^{FIELD_MAX} - z"], grevlex(3), [("divide", WIDTH)]),
])
def test_buchberger_widens_where_an_exponent_outgrows_its_field(monkeypatch, gens, order, where):
    seen = record_overflows(monkeypatch)
    assert_kernels_agree([parse_poly(t, XYZ) for t in gens], order)
    # once over Q, once for the basis, once mod P
    assert seen == where * 3


@pytest.mark.parametrize("basis, order, text, remainder, where", [
    # x^2 makes x*y^20000, then y^40000
    ("x - y^20000", lex(3), "x^2 + 3*z", "y^40000 + 3*z", [("divide", WIDTH)]),
    # the quotient's x*y^FIELD_MAX makes y^(FIELD_MAX + 1)
    ("x - y", grevlex(3), f"x*y^{FIELD_MAX} + z", f"y^{FIELD_MAX + 1} + z", [("divide", WIDTH)]),
    # z^40000 is refused by pack
    ("x - y^20000", lex(3), "z^40000 + x*z", "z^40000 + y^20000*z", []),
])
def test_reduce_widens_where_an_exponent_outgrows_its_field(monkeypatch, basis, order, text,
                                                            remainder, where):
    seen = record_overflows(monkeypatch)
    gb = GroebnerBasis.of([parse_poly(basis, XYZ)], order)
    p = parse_poly(text, XYZ)
    assert_remainders_agree(gb, integer_terms(p)[1])
    assert gb.reduce(p) == parse_poly(remainder, XYZ)
    assert seen == where * 2
    assert gb.packing.width == WIDTH


def test_bases_on_packings_of_different_widths_are_equal():
    narrow = GroebnerBasis.of([parse_poly("x - y", XYZ)], lex(3))
    wide = GroebnerBasis.of([parse_poly(t, XYZ) for t in ("x - y", "x^40000 - y^40000")], lex(3))
    assert wide.packing.width > narrow.packing.width
    assert wide == narrow and hash(wide) == hash(narrow)
    assert wide != GroebnerBasis.of([parse_poly("x - y", XYZ)], grevlex(3))


def record_widenings(monkeypatch):
    """Fields of 2 bits from here on: (the width of each packing widened,
    for each certificate whether it widened one)."""
    widened, certificates = [], []
    real_wider, real_certified = Packing.wider, residues_mod._certified

    def wider(self):
        widened.append(self.width)
        return real_wider(self)

    def certified(gb, zhat):
        before = len(widened)
        out = real_certified(gb, zhat)
        certificates.append(len(widened) > before)
        return out

    monkeypatch.setattr(Packing, "wider", wider)
    monkeypatch.setattr(residues_mod, "_certified", certified)
    monkeypatch.setattr(groebner_mod, "WIDTH", 2)
    return widened, certificates


def fixture_outputs(name):
    lp = load(name)
    pb = lp.problem
    try:
        reports = [residue_report(pb, H) for H in lp.inputs]
    except ToricError as exc:
        reports = type(exc).__name__
    return (pb.groebner.reducers, pb.zero_locus(), pb.codim, pb._functional[1],
            variable_annihilation_check(pb), reports)


def test_two_bit_fields_give_every_fixture_the_same_outputs(monkeypatch):
    """Every basis, functional, certificate and annihilation check of a
    fixture widens 2-bit fields, and every report and residue is the one
    made on fields of WIDTH bits."""
    expected = {name: fixture_outputs(name) for name in RESIDUE_FIXTURES}
    widened, _ = record_widenings(monkeypatch)
    for name in RESIDUE_FIXTURES:
        assert fixture_outputs(name) == expected[name], name
    assert 2 in widened


@pytest.mark.parametrize("fan_name, texts", [("p1", ["x", "x"]), ("p2", ["x0", "x1", "x0 + x1"])])
def test_a_certificate_widens_inside_its_loop(monkeypatch, fan_name, texts):
    """Inputs with a common zero: the certificate of a chart through it
    runs all CERTIFICATE_STEPS steps, its remainders zhat^N outgrow 2-bit
    fields, and the report is the one made on fields of WIDTH bits."""
    fan, _ = load_fan(FIXTURES / f"{fan_name}.fan.json")
    polys = [parse_poly(t, fan.variables) for t in texts]

    def report():
        return no_common_zeros_on_x(fan, polys, GroebnerBasis.of(polys, grevlex(fan.nvars)))

    expected = report()
    assert not expected.ok
    _, certificates = record_widenings(monkeypatch)
    assert report() == expected
    assert any(certificates)


def test_random_widths_agree_with_the_tuple_kernel(monkeypatch):
    rng = random.Random(3)
    monkeypatch.setattr(groebner_mod, "WIDTH", 3)
    for name in ("p2_fermat.json", "pentagon_main.json", "torsion_fermat.json"):
        pb = load(name).problem
        precedence = list(range(pb.fan.nvars))
        rng.shuffle(precedence)
        assert_kernels_agree(pb.polys, MonomialOrder("lex", tuple(precedence)))


# ---------------------------------------------------------------------------
# an order or ring of another size is refused where it enters


def test_residue_problem_refuses_an_order_of_another_size(p2):
    fan, grading = p2
    F = [parse_poly(t, fan.variables) for t in ("x0^2", "x1^2", "x2^2")]
    for order in (lex(2), grevlex(4)):
        with pytest.raises(DegreeMismatch, match="order"):
            ResidueProblem(fan, F, order=order, grading=grading)
    assert ResidueProblem(fan, F, order=lex(3), grading=grading).codim.ok


def test_the_basis_refuses_a_ring_of_another_size():
    F = [parse_poly(t, XYZ) for t in ("x^2 - y", "y*z")]
    with pytest.raises(DegreeMismatch):
        GroebnerBasis.of(F, grevlex(2))
    with pytest.raises(DegreeMismatch):
        buchberger([integer_terms(f)[1] for f in F], grevlex(2))
    gb = GroebnerBasis.of(F, grevlex(3))
    for p in (parse_poly("x*y", ("x", "y")), MultiPoly.variable(4, 3)):
        with pytest.raises(DegreeMismatch):
            gb.reduce(p)


def test_euler_jacobi_refuses_a_system_of_another_size():
    names = ("x", "y")
    system = [parse_poly("x^2 - 1", names), parse_poly("y^2 - 4", names)]
    g = parse_poly("x + y", names)
    for nvars in (1, 3):
        with pytest.raises(DegreeMismatch):
            euler_jacobi_check(nvars, system, g)
    with pytest.raises(DegreeMismatch):
        euler_jacobi_check(2, system, parse_poly("x + y", XYZ))
    assert euler_jacobi_check(2, system, g) == (True, 0)
