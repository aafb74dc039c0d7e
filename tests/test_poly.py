import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricres import (
    DecompositionFailed,
    DegreeMismatch,
    MultiPoly,
    NonSquare,
    NotHomogeneous,
    ParseError,
    ZeroPolynomial,
    build_cayley,
    decompose,
    degree_of,
    dehomogenize,
    parse_poly,
    poly_det,
    poly_to_string,
    representative_divisor,
)

import toricres.poly as poly_module
from toricres.cayley import _lift_poly

from conftest import FIXTURES, load, poly
from oracles import (constructor_decompose, constructor_dehomogenize,
                     constructor_lift_poly, constructor_partial,
                     evaluate, fraction_product, is_constant, is_homogeneous,
                     substitute)
from test_quotient import SYSTEM_FANS, square_systems

XYZ = ("x", "y", "z")


def test_parse_basic_terms():
    p = parse_poly("x^2*y - 3/2*z", XYZ)
    assert p.terms == {(2, 1, 0): Fraction(1), (0, 0, 1): Fraction(-3, 2)}


def test_parse_implicit_products_and_double_star():
    assert parse_poly("x**2", ("x", "y")) == parse_poly("x^2", ("x", "y"))
    assert parse_poly("2x", ("x", "y")) == parse_poly("2*x", ("x", "y"))
    assert parse_poly("x^2y", ("x", "y")) == parse_poly("x^2*y", ("x", "y"))
    assert parse_poly("(x+y)(x-y)", ("x", "y")) \
        == parse_poly("x^2-y^2", ("x", "y"))
    # names use maximal munch, so adjacent letters are one identifier
    with pytest.raises(ParseError):
        parse_poly("xy", ("x", "y"))


def test_parse_parentheses():
    p = parse_poly("(x+y)^2", ("x", "y"))
    assert p == parse_poly("x^2 + 2*x*y + y^2", ("x", "y"))
    q = parse_poly("x*(y - (x + y))", ("x", "y"))
    assert q == parse_poly("-x^2", ("x", "y"))


def test_parse_leading_signs_and_rationals():
    p = parse_poly("-x + 1/3", ("x",))
    assert p.terms == {(1,): Fraction(-1), (0,): Fraction(1, 3)}
    assert parse_poly("+x", ("x",)).terms == {(1,): Fraction(1)}


def test_parse_longest_name_wins():
    p = parse_poly("x1*x12", ("x1", "x12"))
    assert p.terms == {(1, 1): Fraction(1)}


def test_parse_errors():
    for bad in ("", "x +", "x^", "(x", "x^-2", "w", "3//2", "x 2 +"):
        with pytest.raises(ParseError):
            parse_poly(bad, XYZ)


def test_a_zero_denominator_is_a_parse_error():
    """1/0 once raised ZeroDivisionError out of the parser."""
    for bad in ("1/0*x", "x + 3/00", "(2/0)^2", "-0/0"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly(bad, XYZ)
    assert parse_poly("0/5*x + 1/10", XYZ) == MultiPoly.constant(3, Fraction(1, 10))


@pytest.mark.parametrize("text, message", [
    ("(" * 400 + "x" + ")" * 400, "recursion depth"),
    ("1" * 5000 + "*x", "integer string conversion"),
    ("x + 1/" + "7" * 5000, "integer string conversion"),
    ("x^" + "2" * 5000, "integer string conversion"),
], ids=["parentheses", "coefficient", "denominator", "exponent"])
def test_hostile_strings_are_parse_errors(text, message):
    """Deep parentheses once escaped as RecursionError, and a literal of
    more digits than int() converts from a string as ValueError."""
    with pytest.raises(ParseError, match=f"cannot parse .*{message}"):
        parse_poly(text, XYZ)


def test_deep_parentheses_within_the_recursion_limit_still_parse():
    assert parse_poly("(" * 100 + "x+1" + ")" * 100, XYZ) == parse_poly("x+1", XYZ)


def test_a_power_past_its_bounds_is_a_parse_error():
    """A power in a string once expanded without bound: (x+y+z+1)^100 did
    not finish and 2^1000000000 built a 10^9-bit integer.  Both bounds are
    checked before expanding, so these refusals allocate nothing."""
    for text in ("(x+y+z+1)^100", "(x+y+z+1)^50", "2^1000000000", "(x+y)^1000000000"):
        with pytest.raises(ParseError, match="power too large"):
            parse_poly(text, XYZ)
    assert parse_poly("x^100000", XYZ) == MultiPoly.variable(3, 0, 100000)


def test_the_power_bounds_at_their_edges(monkeypatch):
    """With small caps: a t-term base to the k has at most C(t+k-1, k)
    terms, and its coefficients k times the bits of the sum of the base's
    |d*c| over its denominator d."""
    monkeypatch.setattr(poly_module, "MAX_POWER_TERMS", 10)
    monkeypatch.setattr(poly_module, "MAX_POWER_BITS", 8)
    assert len(parse_poly("(x+y+z)^3", XYZ).terms) == 10
    with pytest.raises(ParseError, match="power too large: over 10 terms"):
        parse_poly("(x+y+z)^4", XYZ)
    for ok, bad in (("2^8", "2^9"), ("(1/2)^8", "(1/2)^9"), ("(3x)^4", "(3x)^5"),
                    ("(x-y)^8", "(x-y)^9"), ("(1/2x+1/2y)^4", "(1/2x+1/2y)^5")):
        parse_poly(ok, XYZ)
        with pytest.raises(ParseError, match="power too large: coefficients over 8 bits"):
            parse_poly(bad, XYZ)
    assert parse_poly("x^100000 + 0^100000 + (x+y)^0", XYZ) == \
        MultiPoly.variable(3, 0, 100000) + 1


def test_a_product_past_the_term_bound_is_a_parse_error():
    """A product in a string once multiplied without bound:
    (x+1)^300*(y+1)^300 built 90,601 terms.  An a-term factor times a
    b-term factor is refused when a*b exceeds MAX_POWER_TERMS, before it is
    multiplied, whether the product is written or implicit."""
    for text in ("(x+1)^300*(y+1)^300", "(x+1)^300(y+1)^300", "(x+1)^100*(y+1)^100",
                 "(x+y+z+1)^10*(x+y+z+1)^10", "(x+1)^99*(y+1)^99*(z+1)"):
        with pytest.raises(ParseError, match="product too large: over 10000 terms"):
            parse_poly(text, XYZ)
    assert len(parse_poly("(x+1)^99*(y+1)^99", XYZ).terms) == 10000


def test_the_product_bound_at_its_edge(monkeypatch):
    """With a cap of 10: the running product's terms times the next
    factor's, never the terms of a sum inside a factor."""
    monkeypatch.setattr(poly_module, "MAX_POWER_TERMS", 10)
    assert len(parse_poly("(x+1)*(y+1)*(z+1)", XYZ).terms) == 8
    assert len(parse_poly("(x+z+1+x^2+z^2)*(y+1)", XYZ).terms) == 10
    assert len(parse_poly("x*y*2z(x+y+z+1+x^2+y^2+z^2+x*y+x*z+y*z)", XYZ).terms) == 10
    for text in ("(x+1)*(y+1)*(z+1)*(x+2)", "(x+y+z+1+x^2+y^2)*(y+1)", "(y+1)(x+y+z+1+x^2+y^2)"):
        with pytest.raises(ParseError, match="product too large: over 10 terms"):
            parse_poly(text, XYZ)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")
                                        if not p.name.endswith(".fan.json")))
def test_every_fixture_parses_within_the_power_bounds(name):
    """Every problem fixture, its system and its H alike, parses within the
    power bounds and the product bound."""
    lp = load(name)
    assert lp.problem.polys
    assert all(isinstance(H, MultiPoly) for H in lp.inputs)


# the parser's alphabet: names, digits, operators, parentheses and spaces
GRAMMAR = "xy0123456789+-*/^() "


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.text(GRAMMAR, max_size=16))
def test_every_string_over_the_grammar_parses_or_is_a_parse_error(text):
    """Any string over the alphabet either parses to a MultiPoly or raises
    ParseError; no other exception escapes.  Exponents stay at one digit
    and their product at most 30, so no draw expands past a few hundred
    terms."""
    exponents = [int(e) for e in re.findall(r"(?:\^|\*\*)(\d+)", text.replace(" ", ""))]
    assume(all(e <= 9 for e in exponents) and math.prod(exponents) <= 30)
    try:
        p = parse_poly(text, ("x", "y"))
    except ParseError:
        return
    assert isinstance(p, MultiPoly) and p.nvars == 2


def test_poly_arithmetic():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + y) ** 2 - 2 * x * y == x ** 2 + y ** 2
    p = x * y - x * y
    assert p.is_zero()
    assert not p.terms


@pytest.mark.parametrize("c", [0.1, 0.5, "1/2", "3", Decimal("0.1"), 1 + 0j],
                         ids=["float", "exact-float", "str", "int-str", "decimal", "complex"])
def test_a_coefficient_that_is_not_an_int_or_a_fraction_is_refused(c):
    """A float is not read in binary, a string is not parsed: only an int
    (any ``operator.index`` type) or a Fraction is a coefficient."""
    with pytest.raises(TypeError):
        MultiPoly(1, {(1,): c})
    with pytest.raises(TypeError):
        MultiPoly(1, {(0,): 1, (1,): c})
    with pytest.raises(TypeError):
        MultiPoly.constant(1, c)


@pytest.mark.parametrize("c", [0.1, 0.5, "1/2", Decimal("0.5"), 1 + 0j, None],
                         ids=["float", "exact-float", "str", "decimal", "complex", "none"])
def test_arithmetic_with_an_operand_that_is_not_an_int_or_a_fraction_is_refused(c):
    """Sums, differences and products take an int, a Fraction or a
    polynomial of the same ring, either side of the operator; any other
    operand is refused with TypeError, as a coefficient is."""
    x = MultiPoly.variable(2, 0)
    for op in (lambda: x + c, lambda: c + x, lambda: x - c, lambda: c - x,
               lambda: x * c, lambda: c * x):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="different rings"):
        x + MultiPoly.variable(3, 0)
    with pytest.raises(ValueError, match="different rings"):
        x * MultiPoly.variable(3, 0)
    assert x + True == x + 1 and Fraction(1, 2) - x == -x + Fraction(1, 2)
    assert 2 * x == x * 2 == x + x and x * Fraction(0) == 0


def test_a_variable_index_outside_the_ring_is_refused():
    """-1 is refused, not read as the last variable, and 3 as the index of
    no variable, in a variable and in a partial derivative."""
    assert MultiPoly.variable(3, 2, 2).partial(2) == MultiPoly.variable(3, 2) * 2
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"no variable with index {i}"):
            MultiPoly.variable(3, i)
        with pytest.raises(ValueError, match=f"no variable with index {i}"):
            MultiPoly.variable(3, 2, 2).partial(i)


def test_int_and_fraction_coefficients_are_kept_exactly():
    p = MultiPoly(2, {(1, 0): Fraction(1, 10), (0, 1): 3, (0, 0): True})
    assert p.terms == {(1, 0): Fraction(1, 10), (0, 1): 3, (0, 0): 1}
    assert (p.d, p.num) == (10, {(1, 0): 1, (0, 1): 30, (0, 0): 10})
    assert MultiPoly.constant(2, Fraction(-3, 4)).terms == {(0, 0): Fraction(-3, 4)}
    assert MultiPoly.constant(2, 7) == 7


@st.composite
def rational_polys(draw, nvars, max_terms=6, max_exponent=3):
    """A polynomial in nvars variables with rational coefficients, possibly
    zero."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exponent)] * nvars),
        st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=max_terms))
    return MultiPoly(nvars, terms)


def fraction_power(p, k):
    out = MultiPoly.constant(p.nvars, 1)
    for _ in range(k):
        out = fraction_product(out, p)
    return out


def assert_is_the_fraction_product(product, p, q):
    slow = fraction_product(p, q)
    assert product.nvars == slow.nvars
    assert product.terms == slow.terms
    assert all(type(c) is Fraction and c for c in product.terms.values())
    assert all(type(x) is int for e in product.terms for x in e)


def test_products_that_cancel_match_the_fraction_product():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p, q = x - y, x + y
    assert_is_the_fraction_product(p * q, p, q)
    assert (p * q).terms == {(2, 0): 1, (0, 2): -1}
    half = x * Fraction(1, 2) - y * Fraction(2, 3)
    assert_is_the_fraction_product(half * (x * 2 + y * 3), half, x * 2 + y * 3)
    assert (half * 6 * half).terms == {(2, 0): Fraction(3, 2), (1, 1): -4,
                                       (0, 2): Fraction(8, 3)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(rational_polys(n), rational_polys(n))))
def test_products_match_the_fraction_product(pair):
    """p*q is the double loop over Fraction terms, and so is (p+q)(p-q),
    whose cross terms cancel."""
    p, q = pair
    zero = MultiPoly.zero(p.nvars)
    assert_is_the_fraction_product(p * q, p, q)
    assert_is_the_fraction_product((p + q) * (p - q), p + q, p - q)
    assert (p + q) * (p - q) == fraction_product(p, p) - fraction_product(q, q)
    assert (p * zero).is_zero() and (zero * q).is_zero()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(rational_polys(2), rational_polys(3))
def test_a_product_across_rings_is_refused(p, q):
    for a, b in ((p, q), (q, p)):
        with pytest.raises(ValueError, match="different rings"):
            a * b
        with pytest.raises(ValueError, match="different rings"):
            fraction_product(a, b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: rational_polys(n, max_terms=4, max_exponent=2)),
       st.integers(0, 6))
def test_powers_match_repeated_fraction_products(p, k):
    power = p ** k
    assert power.nvars == p.nvars
    assert power.terms == fraction_power(p, k).terms
    assert all(type(c) is Fraction and c for c in power.terms.values())


def test_a_power_takes_one_product_per_square_and_per_set_bit(monkeypatch):
    """p ** k squares k.bit_length() - 1 times and multiplies once per set
    bit of k; a square after the last bit was once taken and thrown away."""
    products = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    p = MultiPoly.variable(2, 0) + 1
    for k in range(21):
        products.clear()
        assert p ** k == fraction_power(p, k)
        assert len(products) == max(k.bit_length() - 1, 0) + bin(k).count("1"), k


def test_exponents_that_are_not_integers_are_refused():
    # int() would truncate the exponent 1.5 to 1 and give x1*x2
    with pytest.raises(TypeError):
        MultiPoly.monomial((1.5, 1))
    with pytest.raises(TypeError):
        MultiPoly(2, {(Fraction(1, 2), 0): 1})
    assert MultiPoly.monomial((2, 1)) == MultiPoly(2, {(2, 1): Fraction(1)})


def test_poly_evaluate_and_partial():
    p = parse_poly("x^2*y + 3", ("x", "y"))
    assert evaluate(p, (2, 5)) == 23
    assert p.partial(0) == parse_poly("2*x*y", ("x", "y"))
    assert p.partial(1) == parse_poly("x^2", ("x", "y"))


def test_poly_to_string_round_trip():
    for text in ("x^2*y - 3/2*z", "x - y + z", "-2*x^3", "1"):
        p = parse_poly(text, XYZ)
        assert parse_poly(poly_to_string(p, XYZ), XYZ) == p


def test_degree_of(pentagon):
    fan, g = pentagon
    assert degree_of(poly("x*y^2*z^3", fan), g).free == (2, 3, 1)
    assert degree_of(poly("y*z*t + x*y*u", fan), g).free == (0, 2, 1)
    assert is_homogeneous(poly("z*t*u", fan), g)
    with pytest.raises(NotHomogeneous):
        degree_of(poly("x + y^2", fan), g)
    with pytest.raises(ZeroPolynomial):
        degree_of(MultiPoly.zero(5), g)


def test_poly_det_small():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert poly_det([[x]]) == x
    assert poly_det([[x, y], [y, x]]) == x ** 2 - y ** 2
    with pytest.raises(NonSquare):
        poly_det([[x, y]])


def test_poly_det_products_are_bounded(monkeypatch):
    # each minor of the bottom rows is built once: a dense 5x5 needs
    # 5*2^4 - 5 = 75 products, all of integer term dicts
    nv = 5
    M = [[MultiPoly.variable(nv, (i + j) % nv) + (i * nv + j + 1)
          for j in range(nv)] for i in range(nv)]
    products = []
    product_sum = poly_module.product_sum

    def counted(triples):
        triples = list(triples)
        products.extend(1 for a, b, _ in triples if a and b)
        return product_sum(triples)

    monkeypatch.setattr(poly_module, "product_sum", counted)
    monkeypatch.setattr(MultiPoly, "__mul__", None)
    poly_det(M)
    assert len(products) <= 80


def test_poly_det_fermat_pattern(p2):
    # diag of scaled partials reproduces the product of partial powers
    fan, g = p2
    d = (2, 3, 2)
    rows = []
    top = [poly("x0^2", fan), poly("x1^3", fan), poly("x2^2", fan)]
    rows.append([Fraction(1, d[j]) * top[j].partial(0) for j in range(3)])
    rows.append([Fraction(1, d[j]) * top[j].partial(1) for j in range(3)])
    rows.append([Fraction(1, d[j]) * top[j].partial(2) for j in range(3)])
    det = poly_det(rows)
    assert det == poly("x0*x1^2*x2", fan)


def test_dehomogenize(pentagon, p2):
    fan, _ = pentagon
    sigma = fan.max_cones.index((0, 1))  # cone carrying x and y
    assert is_constant(dehomogenize(poly("z*t*u", fan), fan, sigma))
    f1 = dehomogenize(poly("y*z*t + x*y*u", fan), fan, sigma)
    names = [fan.variables[i] for i in (0, 1)]
    assert f1 == parse_poly("y + x*y", names)
    fan2, _ = p2
    s2 = fan2.max_cones.index((1, 2))
    assert dehomogenize(poly("x0^2 + x1*x2", fan2), fan2, s2) \
        == parse_poly("1 + x1*x2", ("x1", "x2"))


def test_dehomogenize_drops_terms_that_cancel(p2):
    fan, _ = p2
    s2 = fan.max_cones.index((1, 2))
    chart = dehomogenize(poly("x0^2*x1 - x0*x1 + x2", fan), fan, s2)
    assert chart.terms == {(0, 1): Fraction(1)}
    assert all(type(c) is Fraction for c in chart.terms.values())
    assert dehomogenize(poly("x0*x1 - x1", fan), fan, s2).is_zero()


@pytest.mark.parametrize("name", sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json")))
def test_dehomogenize_matches_the_validating_constructor_on_fixtures(name):
    pb = load(name).problem
    for p in pb.polys:
        for k in range(len(pb.fan.max_cones)):
            fast = dehomogenize(p, pb.fan, k)
            slow = constructor_dehomogenize(p, pb.fan, k)
            assert fast.nvars == slow.nvars
            assert list(fast.terms.items()) == list(slow.terms.items())


def test_substitute():
    p = parse_poly("x^2*y", ("x", "y"))
    q = substitute(p, {0: MultiPoly.constant(2, 1)})
    assert q == parse_poly("y", ("x", "y"))


# ---------------------------------------------------------------------------
# builders that map exponents injectively build through ``from_integer_terms``;
# each must equal its validating construction, which sums terms that meet


def assert_same_poly(fast, slow):
    assert fast.nvars == slow.nvars
    assert list(fast.terms.items()) == list(slow.terms.items())
    assert all(type(c) is Fraction and c for c in fast.terms.values())
    assert all(len(e) == fast.nvars and all(type(x) is int for x in e) for e in fast.terms)


def outcome(compute):
    try:
        return compute()
    except DecompositionFailed as exc:
        return type(exc).__name__, str(exc)


def assert_builders_match_the_validating_constructor(fan, grading, polys):
    divisors = [representative_divisor(grading, degree_of(p, grading)) for p in polys[:fan.dim + 1]]
    cd = build_cayley(fan, grading, divisors, require_ample=False)
    for p in polys:
        for i in range(fan.nvars):
            assert_same_poly(p.partial(i), constructor_partial(p, i))
        for j in (None, *range(fan.dim + 1)):
            assert_same_poly(_lift_poly(cd, p, j), constructor_lift_poly(cd, p, j))
        for k in range(len(fan.max_cones)):
            fast = outcome(lambda: decompose(p, fan, k))
            slow = outcome(lambda: constructor_decompose(p, fan, k))
            if isinstance(slow[0], MultiPoly):
                for a, b in zip(fast, slow, strict=True):
                    assert_same_poly(a, b)
            else:
                assert fast == slow


@pytest.mark.parametrize("name", sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json")))
def test_from_terms_builders_match_the_validating_constructor_on_fixtures(name):
    lp = load(name)
    pb = lp.problem
    assert_builders_match_the_validating_constructor(
        pb.fan, pb.grading, pb.polys + tuple(H for H in lp.inputs if not H.is_zero()))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(square_systems(list(SYSTEM_FANS)))
def test_from_terms_builders_match_the_validating_constructor_on_random_systems(case):
    pb, H, _ = case
    assert_builders_match_the_validating_constructor(
        pb.fan, pb.grading, pb.polys + ((H,) if not H.is_zero() else ()))


def test_builders_refuse_a_polynomial_of_another_ring(p2):
    # the exponents are trusted once the ring matches, so the ring is checked
    fan, g = p2
    other = MultiPoly(2, {(1, 1): 1})
    with pytest.raises(DegreeMismatch):
        decompose(other, fan, 0)
    cd = build_cayley(fan, g, [(1, 0, 0)] * 3)
    with pytest.raises(DegreeMismatch):
        _lift_poly(cd, other, 0)


@pytest.mark.parametrize("value", [0, 3, -2, Fraction(0), Fraction(3), Fraction(1, 2)])
def test_a_constant_hashes_as_the_value_it_equals(value):
    """Equal objects hash equally: a constant or zero polynomial equals its
    value, so sets and dicts find either through the other."""
    c = MultiPoly.constant(2, value)
    assert c == value and hash(c) == hash(value)
    assert value in {c} and c in {value}
    assert {c: 1}[value] == 1 and {value: 1}[c] == 1
    assert MultiPoly.variable(2, 0) + c != value
