"""The packed monomial kernel against the tuple kernel it replaced.

``groebner.Packing`` must keep the monomial order as integer order, make a
product of monomials a sum and divisibility one guard-bit test, and unpack
what it packed, up to the field maximum M = 2^31 - 1.  Buchberger, division
and ``GroebnerBasis`` on packed monomials must return the tables and
remainders of the tuple kernel (``oracles.tuple_buchberger``,
``oracles.tuple_divide``) tuple for tuple, tail order included, over Q and
mod P.  A call whose exponents outgrow their fields must raise
``ExponentTooLarge`` and return nothing: at ``pack``, inside an S-polynomial
tail under lex, inside a division under lex and grevlex, for Buchberger
over Q and GF(P), for ``GroebnerBasis.reduce``, in the residue functional
and in the zero-locus certificate.  A negative exponent or one of another
length is refused where it enters.
"""

import operator
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import toricres.groebner as groebner_mod
import toricres.residues as residues_mod
from toricres import (DegreeMismatch, ExponentTooLarge, GroebnerBasis, MonomialOrder, MultiPoly,
                      ResidueProblem, dehomogenize, grevlex, lex, load_fan,
                      parse_poly)
from toricres.groebner import MAX, Packing
from toricres.residues import P, residue_functional

from conftest import FIXTURES, load
from oracles import (euler_jacobi_check, mod_p, order_key, reducers, tuple_buchberger,
                     tuple_divide, unpacked_basis)
from test_quotient import square_systems
from test_zero_locus import seeded_dense_system

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

RESIDUE_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json"))

HALF = (MAX + 1) // 2  # an exponent whose double is above the field maximum
XY = ("x", "y")
XYZ = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the encoding


@st.composite
def packed_exponents(draw):
    """The packing of a random order, and exponents that reach the field
    maximum M = 2^31 - 1 often."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["grevlex", "lex"]))
    order = MonomialOrder(kind, tuple(draw(st.permutations(range(n)))))
    field = st.one_of(st.just(0), st.just(MAX), st.integers(0, 8), st.integers(0, MAX))
    exps = draw(st.lists(st.tuples(*[field] * n), min_size=1, max_size=8))
    return Packing(order), exps


@SETTINGS
@given(packed_exponents())
def test_packing_keeps_order_products_divisibility_and_exponents(case):
    packing, exps = case
    order = packing.order
    xs = [packing.pack(e) for e in exps]
    assert [packing.unpack(x) for x in xs] == exps
    assert sorted(exps, key=partial(order_key, order)) == sorted(exps, key=packing.pack)
    for a, x in zip(exps, xs):
        for b, y in zip(exps, xs):
            assert (packing.first_divisor([(x,)], y) is not None) \
                == all(map(operator.le, a, b))
            assert packing.lcms((x,), y) == [packing.pack(tuple(map(max, a, b)))]
            total = tuple(map(operator.add, a, b))
            if max(total) <= MAX:
                assert x + y - packing.one == packing.pack(total)
            else:
                with pytest.raises(ExponentTooLarge):
                    packing.pack(total)
                with pytest.raises(ExponentTooLarge):
                    packing.check([x + y - packing.one])
    table = [(x, 1, ()) for x in xs]
    for e, x in zip(exps, xs):
        expected = next(r for r, b in zip(table, exps) if all(map(operator.le, b, e)))
        assert packing.first_divisor(table, x) is expected


def test_one_packing_serves_every_call_on_an_order(monkeypatch):
    """``packed_basis`` over Q and GF(P) and a basis's ``packing`` share
    the packing of an order, built once however many calls read it."""
    order = MonomialOrder("lex", (2, 0, 1))
    built = []
    real_init = Packing.__init__

    def counted(self, order):
        built.append(order)
        real_init(self, order)

    monkeypatch.setattr(Packing, "__init__", counted)
    groebner_mod.packing_of.cache_clear()
    gens = [{(1, 0, 0): 1, (0, 1, 0): -1}, {(0, 0, 2): 1, (0, 1, 0): 2}]
    tables = [groebner_mod.packed_basis(gens, order, modulus) for modulus in (0, P, 0)]
    assert tables[0] == tables[2] and built == [order]
    basis = GroebnerBasis(tuple(tables[0]), order)
    assert basis.packing is groebner_mod.packing_of(order) and built == [order]


def test_pack_refuses_an_exponent_above_the_field_maximum():
    """and a negative exponent, or an exponent of another length."""
    for packing in (Packing(grevlex(2)), Packing(lex(2))):
        assert packing.unpack(packing.pack((MAX, 0))) == (MAX, 0)
        with pytest.raises(ExponentTooLarge):
            packing.pack((MAX + 1, 0))
        with pytest.raises(ValueError, match="negative"):
            packing.pack((1, -1))
        for e in ((1,), (1, 0, 0)):
            with pytest.raises(DegreeMismatch):
                packing.pack(e)


def test_a_negative_exponent_is_refused_where_it_enters():
    """x^-1 once packed as x^M under lex and borrowed from the next field."""
    with pytest.raises(ValueError, match="negative"):
        MultiPoly(2, {(0, -1): 1, (1, 0): 1})
    for terms, order in (({(0, -1): 1, (1, 0): 1}, lex(2)),
                         ({(1, -1): 1, (0, 0): -1}, grevlex(2))):
        with pytest.raises(ValueError, match="negative"):
            unpacked_basis([terms], order)
        with pytest.raises(ValueError, match="negative"):
            GroebnerBasis.of([MultiPoly.from_integer_terms(2, 1, terms)], order)
    gb = GroebnerBasis.of([parse_poly("x^2 - y", XY)], lex(2))
    with pytest.raises(ValueError, match="negative"):
        gb.reduce(MultiPoly.from_integer_terms(2, 1, {(2, -1): 1}))


def test_remainder_refuses_exponents_of_another_length():
    """Packing once zipped an exponent against its weights, so x^2 and
    x^2*z^5 both reduced to y modulo x^2 - y in Q[x, y]."""
    gb = GroebnerBasis.of([parse_poly("x^2 - y", XY)], grevlex(2))
    assert gb.reduce(MultiPoly.monomial((2, 0))) == MultiPoly.monomial((0, 1))
    for e in ((2,), (2, 0, 5)):
        with pytest.raises(DegreeMismatch):
            gb.reduce(MultiPoly.from_integer_terms(2, 1, {e: 1}))


# ---------------------------------------------------------------------------
# tables and remainders against the tuple kernel


def assert_kernels_agree(gens, order):
    """Over Q and mod P, the packed table is the tuple kernel's, and the
    basis's reducers are it over Q."""
    terms = [g.num for g in gens]
    expected = tuple_buchberger(terms, order)
    assert unpacked_basis(terms, order) == expected
    assert reducers(GroebnerBasis.of(gens, order)) == tuple(expected)
    terms_p = [mod_p(g) for g in gens]
    assert unpacked_basis(terms_p, order, P) == tuple_buchberger(terms_p, order, P)


def assert_remainders_agree(gb, terms):
    """``reduce`` of the integer terms is the tuple kernel's remainder over
    its scale, in lowest terms, with its terms in the same order."""
    nvars = gb.order.nvars
    scale, expected = tuple_divide(terms, reducers(gb), gb.order)
    nf = gb.reduce(MultiPoly.from_integer_terms(nvars, 1, terms))
    assert nf == MultiPoly.from_integer_terms(nvars, scale, expected)
    assert list(nf.num) == list(expected)


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
        assert_remainders_agree(gb, (F * F).num)


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


def test_the_same_ideal_gives_equal_bases_and_another_precedence_unequal_ones():
    """A basis is its packed table and its order: the same ideal from
    permuted and scaled generators gives an equal, hash-equal basis."""
    gens = [parse_poly(t, XYZ) for t in ("x^2 - y*z", "x*y - z^2", "y^3 - x*z")]
    gb = GroebnerBasis.of(gens, grevlex(3))
    scaled = [parse_poly(t, XYZ) for t in ("3*y^3 - 3*x*z", "1/2*x^2 - 1/2*y*z", "z^2 - x*y")]
    same = GroebnerBasis.of(scaled, grevlex(3))
    assert same.table is not gb.table
    assert same == gb and hash(same) == hash(gb)
    assert GroebnerBasis.of(gens, MonomialOrder("grevlex", (2, 1, 0))) != gb
    assert GroebnerBasis.of(gens[:2], grevlex(3)) != gb


def test_random_lex_precedences_agree_with_the_tuple_kernel():
    rng = random.Random(3)
    for name in ("p2_fermat.json", "pentagon_main.json", "torsion_fermat.json"):
        pb = load(name).problem
        precedence = list(range(pb.fan.nvars))
        rng.shuffle(precedence)
        assert_kernels_agree(pb.polys, MonomialOrder("lex", tuple(precedence)))


# ---------------------------------------------------------------------------
# an exponent above the field maximum is refused


@pytest.mark.parametrize("gens, order", [
    # the S-polynomial of the two inputs makes y - z^MAX
    ([f"x*y - z^{MAX - 1}", "x*z - 1"], lex(3)),
    # x*y^(MAX - 1) - z divided by x - y makes y^MAX
    (["x - y", f"x*y^{MAX - 1} - z"], grevlex(3)),
], ids=["lex-s-polynomial", "grevlex-divide"])
def test_exponents_at_the_field_maximum_are_computed(gens, order):
    polys = [parse_poly(t, XYZ) for t in gens]
    assert_kernels_agree(polys, order)
    assert MAX in (e for g in GroebnerBasis.of(polys, order).generators for m in g.terms
                   for e in m)


def record_refusals(monkeypatch):
    """The name of each function an ExponentTooLarge passes out of,
    innermost first, among ``Packing.pack``, ``Packing.check`` and the
    ``divide`` and ``s_polynomial`` of the kernel and the certificate."""
    seen = []

    def recording(real, name):
        def recorded(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except ExponentTooLarge:
                seen.append(name)
                raise
        return recorded

    for owner, name in ((Packing, "pack"), (Packing, "check"), (groebner_mod, "divide"),
                        (groebner_mod, "s_polynomial"), (residues_mod, "divide")):
        monkeypatch.setattr(owner, name, recording(getattr(owner, name), name))
    return seen


@pytest.mark.parametrize("gens, order, where", [
    # x^(MAX + 1) is refused by pack
    ([f"x^{MAX + 1} - y*z", "y^2 - z^2"], grevlex(3), ["pack"]),
    # z * z^MAX is made by the S-polynomial of the two inputs
    ([f"x*y - z^{MAX}", "x*z - 1"], lex(3), ["check", "s_polynomial"]),
    # x^2 - 1 divided by x - y^HALF makes y^(2*HALF)
    ([f"x - y^{HALF}", "x^2 - 1"], lex(3), ["divide"]),
    # x*y^MAX - z divided by x - y makes y^(MAX + 1)
    (["x - y", f"x*y^{MAX} - z"], grevlex(3), ["divide"]),
], ids=["pack", "lex-s-polynomial", "lex-divide", "grevlex-divide"])
def test_buchberger_refuses_where_an_exponent_outgrows_its_field(monkeypatch, gens, order, where):
    polys = [parse_poly(t, XYZ) for t in gens]
    seen = record_refusals(monkeypatch)
    builds = (lambda: unpacked_basis([g.num for g in polys], order),
              lambda: GroebnerBasis.of(polys, order),
              lambda: unpacked_basis([mod_p(g) for g in polys], order, P))
    for build in builds:
        with pytest.raises(ExponentTooLarge):
            build()
    # once over Q, once for the basis, once mod P
    assert seen == where * 3


@pytest.mark.parametrize("basis, order, text, where", [
    # x^2 makes x*y^HALF, then y^(2*HALF)
    (f"x - y^{HALF}", lex(3), "x^2 + 3*z", ["divide"]),
    # the quotient's x*y^MAX makes y^(MAX + 1)
    ("x - y", grevlex(3), f"x*y^{MAX} + z", ["divide"]),
    # z^(MAX + 1) is refused by pack
    (f"x - y^{HALF}", lex(3), f"z^{MAX + 1} + x*z", ["pack"]),
], ids=["lex-divide", "grevlex-divide", "pack"])
def test_reduce_refuses_where_an_exponent_outgrows_its_field(monkeypatch, basis, order, text,
                                                             where):
    gb = GroebnerBasis.of([parse_poly(basis, XYZ)], order)
    p = parse_poly(text, XYZ)
    seen = record_refusals(monkeypatch)
    with pytest.raises(ExponentTooLarge):
        gb.reduce(p)
    assert seen == where


@pytest.mark.parametrize("order", [grevlex(2), lex(2)], ids=["grevlex", "lex"])
def test_a_certificate_refuses_inside_its_loop(monkeypatch, order):
    """Modulo x - y, x^N is y^N for every N, so the certificate of x runs
    all its steps; zhat = y^MAX is standard, so the first product zhat*r
    is y^(2*MAX), which the certificate's own guard-bit test refuses."""
    gb = GroebnerBasis.of([parse_poly("x - y", XY)], order)
    assert not residues_mod._certified(gb, (1, 0))
    seen = record_refusals(monkeypatch)
    with pytest.raises(ExponentTooLarge):
        residues_mod._certified(gb, (0, MAX))
    assert seen == ["check"]


def test_the_functional_refuses_a_monomial_above_the_field_maximum(monkeypatch):
    gb = GroebnerBasis.of([parse_poly("x - y", XYZ)], grevlex(3))
    seen = record_refusals(monkeypatch)
    with pytest.raises(ExponentTooLarge):
        residue_functional(gb, [(0, 0, 1), (0, 0, MAX + 1)])
    assert seen == ["pack"]


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
        unpacked_basis([f.num for f in F], grevlex(2))
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


def test_euler_jacobi_refuses_a_system_that_is_not_square_before_any_basis(monkeypatch):
    """Three polynomials in two variables, and none, are refused before a
    basis is built: a shape the quotient of a square system cannot take."""
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(GroebnerBasis, "of", no_basis)
    names = ("x", "y")
    system = [parse_poly(t, names) for t in ("x^2 - 1", "y^2 - 4", "x - y")]
    g = parse_poly("x + y", names)
    with pytest.raises(DegreeMismatch, match="need 2 polynomials in 2 variables"):
        euler_jacobi_check(2, system, g)
    with pytest.raises(DegreeMismatch, match="need 2 polynomials in 2 variables"):
        euler_jacobi_check(2, [], g)
    with pytest.raises(DegreeMismatch, match="need 0 polynomials in 0 variables"):
        euler_jacobi_check(0, [], MultiPoly.constant(0, 1))
