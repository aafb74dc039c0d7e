"""The per-H path: the constructor's bulk acceptance of a canonical term
dict, and the residue as one integer dot product and one Fraction.

``MultiPoly`` takes a plain dict of exact int coefficients keyed by exact
tuples of nvars exact ints by four set passes and a copy; every other dict
runs the per-term loop, kept as ``oracles.loop_canonical_terms``.  Drawn
dicts that mix int, Fraction, bool, zero and float coefficients, tuple,
tuple-subclass, bytes and int keys, bool and ``__index__`` entries, wrong
lengths and negative exponents must give the loop's ``(nvars, d, num)``,
down to the type of every stored entry and coefficient and the order of
the terms, or its error type and message.  ``toric_residue`` builds one
Fraction per H, S*c.denominator over H.d*D*c.numerator, which must equal
c(H)/c_sigma on the fixtures and on random dense systems.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import toricres.residues as residues_mod
from conftest import FIXTURES, load
from oracles import loop_canonical_terms, normal_form_residue
from toricres import MultiPoly, ResidueProblem, ToricError, load_fan, toric_residue
from toricres.polytopes import monomial_basis

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


class Index:
    """An exponent entry that is no int but has ``__index__``."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    def __repr__(self):
        return f"Index({self.v})"


class Key(tuple):
    """A key that is a tuple, but not exactly one."""


def outcome(build):
    """(nvars, d, terms in order, the types of each term's entries and
    coefficient), or the error's type and message."""
    try:
        nvars, d, num = build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return (nvars, d, list(num.items()),
            [(tuple(map(type, e)), type(c)) for e, c in num.items()])


def built(nvars, terms):
    p = MultiPoly(nvars, terms)
    return p.nvars, p.d, p.num


INT_ENTRIES = st.integers(0, 3)
ODD_ENTRIES = st.one_of(st.integers(-2, 3), st.booleans(), st.builds(Index, st.integers(0, 3)),
                        st.sampled_from([1.0, 0.5]))
INT_COEFFS = st.integers(-4, 4)
ODD_COEFFS = st.one_of(INT_COEFFS, st.booleans(), st.sampled_from([1.5, 2.0, 0.0]),
                       st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def term_dicts(draw):
    """(nvars, terms): half canonical dicts, half with some of every fault."""
    nvars = draw(st.integers(0, 3))
    exps = st.tuples(*[INT_ENTRIES] * nvars)
    if draw(st.booleans()):
        return nvars, draw(st.dictionaries(exps, INT_COEFFS, max_size=8))
    keys = st.one_of(
        exps,
        st.tuples(*[ODD_ENTRIES] * nvars),
        st.lists(INT_ENTRIES, min_size=max(nvars - 1, 0), max_size=nvars + 1).map(tuple),
        st.lists(INT_ENTRIES, min_size=nvars, max_size=nvars).map(Key),
        st.lists(INT_ENTRIES, min_size=nvars, max_size=nvars).map(bytes),
        st.integers(0, 3))
    coeffs = draw(st.sampled_from([INT_COEFFS, ODD_COEFFS]))
    return nvars, draw(st.dictionaries(keys, coeffs, max_size=8))


@SETTINGS
@given(term_dicts())
def test_the_constructor_gives_the_loops_terms_types_and_errors(case):
    nvars, terms = case
    before = dict(terms)
    want = outcome(lambda: loop_canonical_terms(nvars, terms))
    assert outcome(lambda: built(nvars, terms)) == want
    assert terms == before


@pytest.mark.parametrize("terms", [
    {(1, 0): 1, (True, 1): 2},       # a bool entry
    {(1, 0): 1, (Index(2), 1): 2},   # an __index__ entry
    {(1, 0): 1, (1.0, 1): 2},        # a float entry
    {(1, 0): 1, (0, 1): True},       # a bool coefficient
    {(1, 0): 1, Key((0, 1)): 2},     # a tuple subclass key
    {(1, 0): 1, (0, 1, 0): 2},       # a wrong length
    {(1, 0): 0, (0, -1): 2},         # a zero, then a negative exponent
    {(1, 0): 1.5, (0, 1, 1): 2},     # a float before a wrong length
], ids=["bool-entry", "index-entry", "float-entry", "bool-coefficient", "tuple-subclass",
        "length", "negative", "precedence"])
def test_a_dict_off_the_bulk_path_is_read_as_the_loop_reads_it(terms):
    assert outcome(lambda: built(2, terms)) == outcome(lambda: loop_canonical_terms(2, terms))


def summed_monomials(nvars, terms):
    """The sum of the monomials c*x^e of ``terms``, each built alone."""
    total = MultiPoly.zero(nvars)
    for e, c in terms.items():
        total = total + MultiPoly.monomial(tuple(map(int, e)), c)
    return total


@pytest.mark.parametrize("terms", [
    {(1, 0): 5, (Index(1), 0): -5},                        # cancel to 0
    {(1, 0): 1, b"\x01\x00": 2},                           # bytes meets a tuple
    {(1, 0): Fraction(1, 2), (Index(1), 0): Fraction(1, 2)},  # halves make x
    {(0, 2): 1, (1, 0): 3, (Index(1), 0): -1, b"\x01\x00": Fraction(1, 3)},
], ids=["cancel", "bytes", "halves", "three-meet"])
def test_keys_that_read_to_one_exponent_add(terms):
    """Keys equal as dict keys are one key before the constructor sees
    them; these differ as keys and read to one exponent."""
    p, want = MultiPoly(2, terms), summed_monomials(2, terms)
    assert (p.d, p.num) == (want.d, want.num)
    assert (p.nvars, p.d, p.num) == loop_canonical_terms(2, terms)


@SETTINGS
@given(st.dictionaries(st.one_of(st.tuples(INT_ENTRIES, INT_ENTRIES),
                                 st.tuples(st.builds(Index, INT_ENTRIES), INT_ENTRIES),
                                 st.lists(INT_ENTRIES, min_size=2, max_size=2).map(bytes),
                                 st.lists(INT_ENTRIES, min_size=2, max_size=2).map(Key)),
                       st.one_of(INT_COEFFS, st.fractions(min_value=-3, max_value=3,
                                                          max_denominator=5)),
                       max_size=8))
def test_a_term_dict_is_the_sum_of_its_monomials(terms):
    p, want = MultiPoly(2, terms), summed_monomials(2, terms)
    assert (p.d, p.num) == (want.d, want.num)


def test_a_canonical_dict_is_copied_with_its_zeros_dropped():
    terms = {(2, 0): 3, (1, 1): 0, (0, 2): -1}
    p = MultiPoly(2, terms)
    assert p.num == {(2, 0): 3, (0, 2): -1} and list(p.num) == [(2, 0), (0, 2)]
    nonzero = {(2, 0): 3, (0, 2): -1}
    q = MultiPoly(2, nonzero)
    assert q.num is not nonzero
    nonzero[(1, 1)] = 5
    terms.clear()
    assert q.num == p.num == {(2, 0): 3, (0, 2): -1}


@pytest.mark.parametrize("nvars, error, message", [
    (3.0, TypeError, "nvars must be an int, not float"),
    ("2", TypeError, "nvars must be an int, not str"),
    (-1, ValueError, "nvars must be nonnegative, not -1"),
])
def test_nvars_is_an_index_and_nonnegative(nvars, error, message):
    with pytest.raises(error, match=message):
        MultiPoly(nvars, {(1, 1, 1): 1})
    with pytest.raises(error, match=message):
        MultiPoly(nvars)


def test_a_float_nvars_reaches_no_residue(p2):
    fan, grading = p2
    pb = ResidueProblem(fan, [MultiPoly.variable(3, i, 2) for i in range(3)], grading=grading)
    assert toric_residue(pb, MultiPoly(3, {(1, 1, 1): 1})) == 1
    with pytest.raises(TypeError, match="nvars must be an int, not float"):
        toric_residue(pb, MultiPoly(3.0, {(1, 1, 1): 1}))
    assert type(MultiPoly(Index(2)).nvars) is int


@pytest.mark.parametrize("terms", [[((1, 0), 1)], ((1, 0), 1), 5])
def test_terms_without_items_are_refused_by_type(terms):
    with pytest.raises(TypeError, match=f"terms must be a dict, not {type(terms).__name__}"):
        MultiPoly(2, terms)


# ---------------------------------------------------------------------------
# the residue


RESIDUE_FIXTURES = ("p2_fermat.json", "p112_fermat.json", "torsion_fermat.json",
                    "p1p1_bilinear.json", "pentagon_main.json", "pentagon_small.json")


def count_fractions(monkeypatch):
    """The Fractions ``residues`` builds from here on, one entry each."""
    made, real = [], Fraction

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(residues_mod, "Fraction", counted)
    return made


def check_one_fraction_each(monkeypatch, pb, inputs):
    pb.c_sigma  # built once per problem, before the count
    want = [pb.normal_coefficient(H) / pb.c_sigma for H in inputs]
    made = count_fractions(monkeypatch)
    for H, w in zip(inputs, want):
        before = len(made)
        assert toric_residue(pb, H) == w
        assert len(made) == before + 1
    monkeypatch.undo()


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_each_fixture_residue_is_one_fraction_equal_to_c_h_over_c_sigma(monkeypatch, name):
    lp = load(name)
    pb = lp.problem
    inputs = list(lp.inputs) + [MultiPoly.monomial(m) for m in pb.monomials]
    check_one_fraction_each(monkeypatch, pb, inputs)
    for H in lp.inputs:
        assert toric_residue(pb, H) == normal_form_residue(pb, H)


DENSE = {"p2": (load_fan(FIXTURES / "p2.fan.json"), (2, 0, 0)),
         "p1p1": (load_fan(FIXTURES / "p1p1.fan.json"), (1, 0, 1, 0)),
         "pentagon": (load_fan(FIXTURES / "pentagon.fan.json"), (1, 1, 1, 1, 1))}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(DENSE)), st.data())
def test_random_residues_are_one_fraction_equal_to_c_h_over_c_sigma(name, data):
    (fan, grading), exponent = DENSE[name]
    mons = monomial_basis(fan, grading, grading.degree(exponent))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons)).filter(any)
    pb = ResidueProblem(fan, [MultiPoly(fan.nvars, dict(zip(mons, data.draw(coeffs))))
                              for _ in range(fan.dim + 1)], grading=grading)
    try:
        residues_mod._require_residue(pb)
    except ToricError:
        return
    crit = pb.monomials
    inputs = [MultiPoly(fan.nvars, dict(zip(crit, data.draw(
        st.lists(st.integers(-3, 3), min_size=len(crit), max_size=len(crit))))))
        for _ in range(3)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_one_fraction_each(monkeypatch, pb, inputs)


@pytest.mark.parametrize("sigma", [1.0, "0", None])
def test_sigma_is_read_as_an_index_before_any_work(p2, sigma):
    fan, grading = p2
    with pytest.raises(TypeError, match=f"sigma must be an integer cone index, "
                                        f"not {type(sigma).__name__}"):
        # the inputs are wrong too, but sigma is read first
        ResidueProblem(fan, [1, 2], sigma=sigma)


def test_a_bool_or_index_sigma_is_stored_as_an_int(p2):
    fan, grading = p2
    F = [MultiPoly.variable(3, i, 2) for i in range(3)]
    for sigma, want in ((True, 1), (Index(2), 2)):
        pb = ResidueProblem(fan, F, sigma=sigma, grading=grading)
        assert pb.sigma == want and type(pb.sigma) is int
