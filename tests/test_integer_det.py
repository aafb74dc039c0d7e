"""Every determinant of polynomials in integers, against the Fraction one.

``poly.poly_det`` brings each column to one denominator once, expands the
integer matrix and returns the determinant as integer terms over one
denominator, in lowest terms.  Its readers are Delta_sigma
(``ResidueProblem.delta``, with c_sigma one integer dot product and one
Fraction), each Delta_k (``cone_determinant``) of
``sigma_independence_check``, the chart Jacobian of ``toric_jacobian``,
``verify_gtl``'s det A and the chart quotient's Jacobian.  Each must equal
the Fraction minor expansion it replaced (``oracles.poly_det``) on every
fixture, on random systems over the fans of ``test_quotient``, on dense
septics over P^2 and on inputs with rational coefficients.  A maximal
cone's index is checked where it enters: -1 and the cone count are
refused alike by every public entry point that takes one.
"""

import math
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from toricres import (
    MultiPoly,
    ResidueProblem,
    cone_det,
    cone_determinant,
    cone_group_order,
    decompose,
    dehomogenize,
    load_fan,
    monomial_basis,
    poly_det,
    sigma_independence_check,
    toric_jacobian,
)
from toricres.cli import _random_admissible
from toricres.localres import _Quotient

from conftest import FIXTURES, load
from oracles import (basis_toric_jacobian, fraction_cone_determinant, fraction_jacobian,
                     fraction_normal_coefficient)
from test_functional import RESIDUE_FIXTURES, outcome
import test_quotient
from test_quotient import square_systems

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def checked(p):
    """p, once its pair (d, num) is seen to be in lowest terms in ints."""
    assert type(p.d) is int and p.d > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert math.gcd(p.d, *p.num.values()) == 1
    return p


def assert_determinants_match_oracle(pb):
    """Delta_k on every cone, c_sigma, sigma-independence and the chart
    Jacobian equal the Fraction expansion's, errors included."""
    for k in range(len(pb.fan.max_cones)):
        expected = outcome(lambda: fraction_cone_determinant(pb, k))
        assert outcome(lambda: checked(cone_determinant(pb, k))) == expected
    delta = outcome(lambda: fraction_cone_determinant(pb, pb.sigma))
    assert outcome(lambda: pb.delta) == delta
    if delta[0] != "value":
        return
    ell = outcome(lambda: pb.ell)
    expected = ell if ell[0] != "value" else \
        ("value", fraction_normal_coefficient(ell[1], delta[1]))
    assert outcome(lambda: pb.c_sigma) == expected
    if ell[0] == "value":
        assert outcome(lambda: sigma_independence_check(pb)) == outcome(lambda: all(
            fraction_normal_coefficient(ell[1], fraction_cone_determinant(pb, k))
            == pb.cone_sign(k) * expected[1] for k in range(len(pb.fan.max_cones))))
    if len(set(pb.degrees)) == 1:
        assert outcome(lambda: toric_jacobian(pb)) == outcome(lambda: basis_toric_jacobian(pb))


def assert_quotient_jacobians_match(pb):
    """The integer Jacobian of every finite chart quotient at sigma."""
    charts = [dehomogenize(F, pb.fan, pb.sigma) for F in pb.polys]
    for k in range(len(charts)):
        system = charts[:k] + charts[k + 1:]
        quotient = outcome(lambda: _Quotient(system))
        if quotient[0] == "value":
            assert checked(quotient[1].jacobian) == fraction_jacobian(system)


def scaled(pb, scales):
    """The problem of the inputs times the given rationals: the same ideal."""
    polys = [F * s for F, s in zip(pb.polys, scales)]
    return ResidueProblem(pb.fan, polys, order=pb.order, sigma=pb.sigma, grading=pb.grading)


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_determinants_match_the_fraction_expansion_on_fixtures(name):
    pb = load(name).problem
    assert_determinants_match_oracle(pb)
    assert_quotient_jacobians_match(pb)


@SETTINGS
@given(square_systems(sorted(test_quotient.SYSTEM_FANS)))
def test_determinants_match_the_fraction_expansion_on_random_systems(case):
    pb, _, _ = case
    assert_determinants_match_oracle(pb)
    assert_quotient_jacobians_match(pb)


@pytest.mark.parametrize("seed", [1, 2])
def test_determinants_match_the_fraction_expansion_on_p2_septics(seed):
    fan, grading = load_fan(FIXTURES / "p2.fan.json")
    septics = monomial_basis(fan, grading, grading.degree((7, 0, 0)))
    rng = random.Random(seed)
    polys = [MultiPoly(fan.nvars, {m: rng.choice([c for c in range(-9, 10) if c])
                                   for m in septics}) for _ in range(3)]
    pb = ResidueProblem(fan, polys, grading=grading)
    assert pb.codim.ok
    assert_determinants_match_oracle(pb)


SCALES = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3, 4), Fraction(1, 6)]


@pytest.mark.parametrize("name", ["p2_fermat.json", "torsion_fermat.json", "pentagon_main.json",
                                  "p112_fermat.json", "p1p1_bilinear.json"])
def test_rational_inputs_scale_delta_by_each_column(name):
    """Scaling input j by s_j keeps the ideal, so l, and multiplies the
    column j of every decomposition matrix: Delta_k and c_sigma scale by the
    product of the s_j, which fails if one column's scale is dropped."""
    pb = load(name).problem
    scales = SCALES[:len(pb.polys)]
    sb = scaled(pb, scales)
    for k in range(len(pb.fan.max_cones)):
        want = outcome(lambda: cone_determinant(pb, k) * prod(scales))
        assert outcome(lambda: cone_determinant(sb, k)) == want
    assert sb.ell == pb.ell
    assert sb.c_sigma == pb.c_sigma * prod(scales)
    assert_determinants_match_oracle(sb)
    assert_quotient_jacobians_match(sb)


coefficients = st.one_of(st.integers(-9, 9).map(Fraction),
                         st.fractions(min_value=-5, max_value=5, max_denominator=12))


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2), coefficients, max_size=3),
    min_size=n, max_size=n), min_size=n, max_size=n)))
def test_poly_det_matches_the_fraction_expansion_on_rational_matrices(rows):
    M = [[MultiPoly(2, t) for t in row] for row in rows]
    assert checked(poly_det(M)) == oracles.poly_det(M)


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_gtl_det_a_matches_the_fraction_expansion(name):
    """The admissible A of ``check gtl`` is nonsingular, and the det A that
    ``verify_gtl`` reads equals the Fraction one."""
    pb = load(name).problem
    rng = random.Random(7)
    for _ in range(3):
        A = _random_admissible(pb, rng)
        det_a = poly_det(A)
        assert det_a == oracles.poly_det(A) and not det_a.is_zero()
        if all(d == pb.degrees[0] for d in pb.degrees):
            assert all(p.terms.keys() <= {(0,) * pb.fan.nvars} for row in A for p in row)


# ---------------------------------------------------------------------------
# Fraction creation on the c_sigma path


def rational_problem(name):
    pb = load(name).problem
    return scaled(pb, SCALES[:len(pb.polys)])


@pytest.mark.parametrize("make", [
    lambda: load("p2_fermat.json").problem,
    lambda: load("torsion_fermat.json").problem,
    lambda: load("pentagon_main.json").problem,
    lambda: rational_problem("pentagon_main.json"),
])
def test_integer_delta_makes_no_fraction_and_c_sigma_makes_one(monkeypatch, make):
    """Building Delta_sigma in integers and its dot product with the
    functional makes no Fraction; c_sigma makes only the one it returns."""
    pb = make()
    pb.codim
    made = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    delta = pb.delta
    D, num = pb._functional[1]
    sum(num[e] * c for e, c in delta.num.items() if e in num)
    assert made == []
    pb.c_sigma
    assert len(made) == 1


# ---------------------------------------------------------------------------
# a maximal cone's index is checked where it enters


@pytest.mark.parametrize("name", ["p2_fermat.json", "pentagon_main.json"])
def test_cone_index_out_of_range_is_refused_everywhere(name):
    pb = load(name).problem
    fan, F = pb.fan, pb.polys[0]
    for k in (-1, len(fan.max_cones)):
        calls = [lambda: cone_determinant(pb, k), lambda: pb.cone_sign(k),
                 lambda: decompose(F, fan, k), lambda: dehomogenize(F, fan, k),
                 lambda: cone_det(fan, k), lambda: cone_group_order(fan, k),
                 lambda: ResidueProblem(fan, pb.polys, sigma=k, grading=pb.grading)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^no maximal cone with index {k}$"):
                call()
