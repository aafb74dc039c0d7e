import random

import pytest

from toricres import (
    GroebnerBasis,
    MonomialOrder,
    MultiPoly,
    ParseError,
    grevlex,
    irrelevant_ideal,
    lex,
    no_common_zeros_on_x,
    parse_order,
    parse_poly,
    quotient_is_finite,
    standard_monomials,
)

from oracles import greater, is_unit_ideal, leading_exponents, radical_member, unpacked_basis

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, names=XY):
    return parse_poly(text, names)


def test_grevlex_order_key():
    o = grevlex(3)
    # same total degree: compare reversed exponents, negated
    assert greater(o, (1, 2, 0), (2, 0, 1))
    assert greater(o, (2, 0, 0), (1, 1, 0))
    assert greater(o, (1, 1, 0), (0, 0, 1))


def test_lex_order_key():
    o = lex(2)
    assert greater(o, (1, 0), (0, 5))
    assert greater(o, (1, 1), (1, 0))


def test_parse_order():
    o = parse_order("grevlex:x>y>z", XYZ)
    assert o.kind == "grevlex"
    assert o.precedence == (0, 1, 2)
    o2 = parse_order("lex:z>x>y", XYZ)
    assert o2.kind == "lex"
    assert o2.precedence == (2, 0, 1)
    for bad in ("grevlex:x>y", "foo:x>y>z", "grevlex:x>y>w", "grevlex:x>x>y"):
        with pytest.raises(ParseError):
            parse_order(bad, XYZ)


def test_buchberger_monomial_ideal():
    gb = GroebnerBasis.of([P("x^2"), P("y^2")], grevlex(2)).generators
    assert sorted(sorted(g.terms) for g in gb) == [[(0, 2)], [(2, 0)]]


def test_buchberger_linear_pair():
    gb = GroebnerBasis.of([P("x + y"), P("x - y")], grevlex(2)).generators
    leads = sorted(max(g.terms) for g in gb)
    assert leads == [(0, 1), (1, 0)]


def test_buchberger_lex_shape():
    gb = GroebnerBasis.of([P("x - y"), P("y^2")], lex(2)).generators
    assert len(gb) == 2


def test_buchberger_reads_and_returns_integer_reducers():
    """Integer term dicts in, the reduced basis out as its reducer table:
    primitive with lc > 0 over Q, monic over GF(7)."""
    order = grevlex(2)
    gens = [{(1, 0): 4, (0, 1): 2}, {(0, 2): -6, (0, 0): 3}]
    assert unpacked_basis(gens, order) \
        == [((1, 0), 2, (((0, 1), 1),)), ((0, 2), 2, (((0, 0), -1),))]
    assert unpacked_basis(gens, order, 7) \
        == [((1, 0), 1, (((0, 1), 4),)), ((0, 2), 1, (((0, 0), 3),))]
    assert unpacked_basis(gens + [{(1, 1): 2, (0, 0): 1}], order) == [((0, 0), 1, ())]
    assert unpacked_basis([{}, {}], order) == []


def test_reduced_basis_properties():
    gens = [P("x^2 + y"), P("x*y + x"), P("y^3 - y")]
    gb = GroebnerBasis.of(gens, grevlex(2))
    leads = leading_exponents(gb)
    for i, g in enumerate(gb.generators):
        assert g.terms[max(g.terms, key=gb.order.key)] == 1
        for e in g.terms:
            for j, le in enumerate(leads):
                if i != j:
                    assert not all(a <= b for a, b in zip(le, e))


def test_normal_form_examples():
    gb = GroebnerBasis.of([P("x^2"), P("y^2")], grevlex(2))
    assert gb.reduce(P("x^2*y + x*y")) == P("x*y")
    assert gb.reduce(P("x^2")).is_zero()
    gens = [P("x^2 - y"), P("y^2 - 1")]
    basis = GroebnerBasis.of(gens, grevlex(2))
    for g in gens:
        assert basis.reduce(g).is_zero()


def test_ideal_and_radical_membership():
    assert radical_member(P("x"), [P("x^2")], grevlex(2))
    assert not radical_member(P("y"), [P("x")], grevlex(2))
    assert radical_member(P("x + y"), [P("x^2"), P("x*y"), P("y^2")], grevlex(2))
    monomials = GroebnerBasis.of([P("x^2"), P("x*y"), P("y^2")], grevlex(2))
    assert not monomials.reduce(P("x + y")).is_zero()
    assert GroebnerBasis.of([P("x^2"), P("y^2")], grevlex(2)).reduce(P("x^2")).is_zero()


def test_permutation_stable_leading_ideal():
    gens = [P("x^2 - y", XYZ), P("y^2 - z", XYZ), P("x*z - y^2 + x", XYZ)]
    base = GroebnerBasis.of(gens, grevlex(3))
    want = sorted(leading_exponents(base))
    rng = random.Random(7)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        gb = GroebnerBasis.of(shuffled, grevlex(3))
        assert sorted(leading_exponents(gb)) == want
        assert sorted(map(str, gb.generators)) == sorted(map(str, base.generators))


def test_quotient_finiteness_and_standard_monomials():
    gb = GroebnerBasis.of([P("x^2"), P("y^3")], grevlex(2))
    assert quotient_is_finite(gb)
    assert len(standard_monomials(gb)) == 6
    gb2 = GroebnerBasis.of([P("x*y")], grevlex(2))
    assert not quotient_is_finite(gb2)


def test_unit_ideal():
    gb = GroebnerBasis.of([P("x"), P("x + 1")], grevlex(2))
    assert is_unit_ideal(gb)


def test_no_common_zeros_on_variety(p1, pentagon, p1p1):
    fan, _ = p1
    F_bad = [P("x", fan.variables), P("x", fan.variables)]
    rep = no_common_zeros_on_x(fan, F_bad)
    assert not rep.ok
    assert rep.witness_monomial is not None
    F_ok = [P("x", fan.variables), P("y", fan.variables)]
    assert no_common_zeros_on_x(fan, F_ok).ok

    fan2, _ = pentagon
    names = fan2.variables
    F = [P("x*y^2*z^3", names),
         P("x^2*y*u^3 + x*t^2*u^3 + y^2*z^3*t + y*z^2*t^2*u", names),
         P("x*t^2*u^3 + y^2*z^3*t + z*t^3*u^2", names)]
    assert no_common_zeros_on_x(fan2, F).ok

    fan3, _ = p1p1
    G = [P("(x+y)^2", fan3.variables), P("x*z", fan3.variables),
         P("y*t", fan3.variables)]
    assert no_common_zeros_on_x(fan3, G).ok


def test_radical_and_chart_routes_agree(p1p1, p2):
    fan, _ = p1p1
    cases = [
        [P("x*z", fan.variables), P("y*t", fan.variables),
         P("x*t + y*z", fan.variables)],
        [P("x", fan.variables), P("y*t", fan.variables),
         P("y*z", fan.variables)],
        # common zero x = z = 0
        [P("x*z", fan.variables), P("x*t", fan.variables),
         P("y*z", fan.variables)],
    ]
    assert [no_common_zeros_on_x(fan, F).ok for F in cases] == [True, True, False]
    for F in cases:
        radical = all(radical_member(MultiPoly.monomial(e), F)
                      for e in irrelevant_ideal(fan))
        assert radical == no_common_zeros_on_x(fan, F).ok


def test_an_order_given_a_list_is_hashable_and_builds_a_basis():
    """A precedence list is kept as a tuple: an order is hashed by the
    packing cache of every basis, and a list once raised a bare TypeError."""
    order = MonomialOrder("lex", [1, 0])
    assert order == MonomialOrder("lex", (1, 0)) and order.precedence == (1, 0)
    gens = [parse_poly(t, ("x", "y")) for t in ("x^2 - y", "y^2 - 1")]
    assert GroebnerBasis.of(gens, order) == GroebnerBasis.of(gens, MonomialOrder("lex", (1, 0)))
