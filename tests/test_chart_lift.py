"""The toric Jacobian against the chart lift it replaced.

``toric_jacobian`` divides the Cox-ring determinant det[F_i; dF_i/dx_j]
(j on sigma's rays) by |det sigma|·xhat_sigma.  The package once took the
determinant on sigma's chart instead and lifted it back to the critical
degree; ``oracles.basis_toric_jacobian`` still does, through the Smith-form
lift ``oracles.smith_homogenize_to_degree``.  On every cone
of every fixture problem, and of random systems of its degrees, both routes
must give the same polynomial or raise the same error type with the same
message.  The division gives one Jacobian whatever sigma is: sign(det tau)
·J_tau is one polynomial on every cone tau.  That the chart restriction is
one-to-one on a degree class, which makes the division exact, is checked
in ``test_properties``.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    DegreeMismatch,
    MultiPoly,
    ResidueProblem,
    ToricError,
    cone_det,
    degree_of,
    dehomogenize,
    load_fan,
    monomial_basis,
    toric_jacobian,
)

from conftest import FIXTURES, load
from oracles import basis_toric_jacobian

FAN_FIXTURES = ["p1", "p2", "p1p1", "p112", "pentagon", "torsion"]
PROBLEM_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json")
                          if not p.name.endswith(".fan.json"))


def outcome(compute, *args):
    try:
        return compute(*args)
    except ToricError as exc:
        return type(exc), str(exc)


def on_every_cone(problem, polys):
    """The problem of ``polys`` with sigma at each maximal cone in turn."""
    return [ResidueProblem(problem.fan, polys, order=problem.order, sigma=k,
                           grading=problem.grading)
            for k in range(len(problem.fan.max_cones))]


def assert_jacobians_match_the_lift(problem, polys):
    """``toric_jacobian`` equals the lifted chart Jacobian on every cone;
    returns how many cones gave a nonzero Jacobian."""
    nonzero = 0
    for pb in on_every_cone(problem, polys):
        got = outcome(toric_jacobian, pb)
        assert got == outcome(basis_toric_jacobian, pb)
        nonzero += isinstance(got, MultiPoly) and not got.is_zero()
    return nonzero


@cache
def problem_fixture(name):
    return load(name).problem


def test_chart_jacobians_of_the_fixtures():
    """Every equal-degree fixture has a cone with a nonzero Jacobian; the
    others are refused alike on every cone."""
    for name in PROBLEM_FIXTURES:
        pb = problem_fixture(name)
        nonzero = assert_jacobians_match_the_lift(pb, pb.polys)
        assert bool(nonzero) == (len(set(pb.degrees)) == 1), name


def random_system(pb, data):
    """The fixture's input degrees with random coefficients on every monomial."""
    polys = []
    for p in pb.polys:
        mons = monomial_basis(pb.fan, pb.grading, degree_of(p, pb.grading))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(mons),
                                    max_size=len(mons)).filter(any))
        polys.append(MultiPoly(pb.fan.nvars, dict(zip(mons, coeffs))))
    return polys


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(PROBLEM_FIXTURES), st.data())
def test_chart_jacobians_of_random_systems(name, data):
    pb = problem_fixture(name)
    assert_jacobians_match_the_lift(pb, random_system(pb, data))


def assert_signed_jacobians_agree(problem, polys):
    """sign(det tau)·J_tau is the same polynomial on every cone tau."""
    signed = {(1 if cone_det(pb.fan, pb.sigma) > 0 else -1) * toric_jacobian(pb)
              for pb in on_every_cone(problem, polys)}
    assert len(signed) == 1


EQUAL_DEGREE_FIXTURES = [name for name in PROBLEM_FIXTURES
                         if len(set(problem_fixture(name).degrees)) == 1]


@pytest.mark.parametrize("name", EQUAL_DEGREE_FIXTURES)
def test_signed_jacobians_agree_on_every_cone_of_the_fixtures(name):
    pb = problem_fixture(name)
    assert_signed_jacobians_agree(pb, pb.polys)


@cache
def fan_fixture(name):
    return load_fan(FIXTURES / f"{name}.fan.json")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(FAN_FIXTURES), st.data())
def test_signed_jacobians_agree_on_every_cone_of_random_systems(name, data):
    """n+1 random inputs of the degree of a random exponent vector with
    entries at most 2, torsion classes included."""
    fan, grading = fan_fixture(name)
    e = data.draw(st.tuples(*[st.integers(0, 2)] * fan.nvars).filter(any))
    mons = monomial_basis(fan, grading, grading.degree(e))
    polys = [MultiPoly(fan.nvars, dict(zip(mons, data.draw(
        st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons)).filter(any)))))
             for _ in range(fan.dim + 1)]
    assert_signed_jacobians_agree(ResidueProblem(fan, polys, grading=grading), polys)


def test_a_chart_refuses_a_polynomial_of_another_ring():
    """``dehomogenize`` reads each exponent at the cone's rays, so a
    polynomial of more or fewer variables than the fan would be cut or
    indexed past its end; it is refused like ``decompose`` refuses it."""
    fan, _ = load_fan(FIXTURES / "p2.fan.json")
    for nvars in (2, 4):
        with pytest.raises(DegreeMismatch, match="polynomial ring does not match the fan"):
            dehomogenize(MultiPoly.variable(nvars, 0), fan, 0)
