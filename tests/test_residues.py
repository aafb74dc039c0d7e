import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricres import (
    AllReduceToZero,
    CodimNotOne,
    DecompositionFailed,
    DegreeMismatch,
    HypothesesFailed,
    MultiPoly,
    ResidueProblem,
    WrongDegree,
    cone_det,
    cone_determinant,
    cone_group_order,
    decompose,
    degree_of,
    irrelevant_ideal,
    poly_det,
    residue_report,
    sigma_independence_check,
    sum_local_residues,
    toric_residue,
    variable_annihilation_check,
    verify_gtl,
)
import toricres.groebner as groebner_mod
import toricres.residues as residues_mod

from toricres.cli import _random_admissible

from conftest import FIXTURES, load, poly, polys
from oracles import in_irrelevant_ideal
from test_quotient import SYSTEM_FANS, square_systems


def exponents_to_names(gens, names):
    out = set()
    for e in gens:
        out.add("".join(n * k for n, k in zip(names, e)))
    return out


def test_irrelevant_ideal_generators(pentagon, p1p1, p2):
    fan, _ = pentagon
    gens = exponents_to_names(irrelevant_ideal(fan), fan.variables)
    assert gens == {"ztu", "xtu", "xyu", "xyz", "yzt"}
    fan2, _ = p1p1
    gens2 = exponents_to_names(irrelevant_ideal(fan2), fan2.variables)
    assert gens2 == {"xz", "xt", "yz", "yt"}
    fan3, _ = p2
    # each maximal cone misses exactly one ray, so the generators are the
    # variables themselves
    gens3 = irrelevant_ideal(fan3)
    assert sorted(gens3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_membership_refuses_a_polynomial_of_another_ring(p2):
    # x0 of two variables once read as lying in (x0, x1, x2) through a zip
    fan, _ = p2
    for nvars in (2, 4):
        with pytest.raises(DegreeMismatch, match="polynomial ring does not match the fan"):
            in_irrelevant_ideal(MultiPoly.variable(nvars, 0), fan)
    assert in_irrelevant_ideal(MultiPoly.variable(3, 0), fan)


def test_in_irrelevant_ideal(pentagon, p1p1):
    fan, _ = pentagon
    assert in_irrelevant_ideal(poly("z*t*u", fan), fan)
    assert in_irrelevant_ideal(poly("y*z*t + x*y*u", fan), fan)
    assert not in_irrelevant_ideal(poly("x*y*z + x*t*u + z*t^2", fan), fan)
    fan2, _ = p1p1
    assert not in_irrelevant_ideal(poly("(x+y)^2", fan2), fan2)
    assert in_irrelevant_ideal(poly("x*z", fan2), fan2)


def test_decompose_identity(pentagon, p1):
    fan, _ = pentagon
    sigma = fan.max_cones.index((0, 1))
    for text in ("z*t*u", "y*z*t + x*y*u", "x*y^2*z^3"):
        F = poly(text, fan)
        parts = decompose(F, fan, sigma)
        zhat = MultiPoly.monomial(tuple(
            0 if i in fan.max_cones[sigma] else 1 for i in range(fan.nvars)))
        rebuilt = parts[0] * zhat
        for pos, i in enumerate(fan.max_cones[sigma]):
            rebuilt = rebuilt + parts[pos + 1] * MultiPoly.variable(fan.nvars, i)
        assert rebuilt == F


def test_decompose_pure_z_term(pentagon):
    fan, _ = pentagon
    sigma = fan.max_cones.index((0, 1))
    parts = decompose(poly("z*t*u", fan), fan, sigma)
    assert parts[0] == MultiPoly.constant(fan.nvars, 1)
    assert parts[1].is_zero() and parts[2].is_zero()


def test_decompose_lowest_variable_rule():
    from toricres import make_fan
    fan = make_fan(2, [[-1, -1], [1, 0], [0, 1]], [[2, 3], [1, 3], [1, 2]],
                   variables=("x0", "x1", "x2"), one_based=True)
    F = poly("x1^2 + x1*x2", fan)
    sigma = fan.max_cones.index((1, 2))
    parts = decompose(F, fan, sigma)
    assert parts[0].is_zero()
    assert parts[1] == poly("x1 + x2", fan)
    assert parts[2].is_zero()


def test_decompose_rejects_outside_terms(pentagon):
    fan, _ = pentagon
    sigma = fan.max_cones.index((0, 1))
    with pytest.raises(DecompositionFailed):
        decompose(poly("z*t^2", fan), fan, sigma)


def test_cone_det_orientation(p1, p2):
    fan, _ = p1
    assert cone_det(fan, 1) == 1   # cone on the +1 ray
    assert cone_det(fan, 0) == -1  # cone on the -1 ray
    fan2, _ = p2
    for k in range(3):
        pb = ResidueProblem(fan2, polys(["x0", "x1", "x2"], fan2), sigma=k, grading=p2[1])
        assert pb.cone_sign(k) == 1
        assert abs(cone_det(fan2, k)) == cone_group_order(fan2, k) == 1


def test_delta_degree_is_critical(pentagon):
    lp = load("pentagon_main.json")
    delta = lp.problem.delta
    assert degree_of(delta, lp.grading) == lp.problem.critical
    assert len(delta.terms) == 2


def test_p1_linear_deltas(p1):
    fan, g = p1
    F = polys(["x", "y"], fan)
    for sigma, value in ((0, Fraction(1)), (1, Fraction(-1))):
        pb = ResidueProblem(fan, F, sigma=sigma, grading=g)
        assert pb.delta == MultiPoly.constant(2, value)
        assert toric_residue(pb, pb.delta) == 1


def test_codim_one_pentagon():
    lp = load("pentagon_main.json")
    report = lp.problem.codim
    assert report.ok
    assert report.pivot == (3, 0, 0, 3, 7)
    assert report.quotient_dim == 1


def test_codim_failure_with_witness():
    lp = load("p1p1_not_codim1.json")
    report = lp.problem.codim
    assert not report.ok
    square_monomials = {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}
    assert set(report.witness) <= square_monomials
    assert report.quotient_dim == 2
    # this fixture also violates the membership hypothesis, which the
    # residue entry point reports first
    with pytest.raises((CodimNotOne, HypothesesFailed)):
        toric_residue(lp.problem, lp.inputs[0])


def test_all_reduce_to_zero(p1):
    fan, g = p1
    F = [MultiPoly.constant(2, 1), poly("x*y", fan)]
    with pytest.raises(AllReduceToZero):
        ResidueProblem(fan, F, grading=g).codim


def test_residue_values_pentagon():
    lp = load("pentagon_main.json")
    rep = residue_report(lp.problem, lp.inputs[0])
    assert rep.c_sigma == Fraction(-1, 2)
    assert rep.residue == -2
    assert rep.pivot == (3, 0, 0, 3, 7)
    assert len(rep.monomials) == 22
    assert toric_residue(lp.problem, lp.problem.delta) == 1


def test_residue_vanishes_on_ideal_slice():
    lp = load("pentagon_small.json")
    pb = lp.problem
    h = poly("t", lp.fan) * pb.polys[0]
    assert degree_of(h, lp.grading) == pb.critical
    assert toric_residue(pb, h) == 0


def test_residue_linear_functional():
    lp = load("p2_fermat.json")
    pb = lp.problem
    h1 = poly("x0*x1*x2", lp.fan)
    h2 = poly("x0^3", lp.fan)
    a, b = Fraction(3), Fraction(-7, 2)
    combo = a * h1 + b * h2
    assert toric_residue(pb, combo) \
        == a * toric_residue(pb, h1) + b * toric_residue(pb, h2)


def test_wrong_degree_rejected():
    lp = load("p2_fermat.json")
    with pytest.raises(WrongDegree):
        toric_residue(lp.problem, poly("x0", lp.fan))
    with pytest.raises(WrongDegree):
        toric_residue(lp.problem, poly("x0 + x1^3", lp.fan))


def test_a_grading_of_another_fan_is_refused(p2, p112):
    """The P(1,1,2) grading on the P^2 fan: x2^4 has P(1,1,2)'s critical
    degree of (x0^2, x1^2, x2^2), which P^2's own grading refuses."""
    fan, own = p2
    F = polys(["x0^2", "x1^2", "x2^2"], fan)
    with pytest.raises(DegreeMismatch, match="other rays"):
        ResidueProblem(fan, F, grading=p112[1])
    with pytest.raises(WrongDegree):
        toric_residue(ResidueProblem(fan, F, grading=own), poly("x2^4", fan))


@pytest.mark.parametrize("call", [
    lambda pb: toric_residue(pb, 1),
    lambda pb: residue_report(pb, 2.0),
    lambda pb: sum_local_residues(pb, 1, 0),
    lambda pb: verify_gtl(pb, [[int(i == j) for j in range(3)] for i in range(3)], 1),
], ids=["toric_residue", "residue_report", "sum_local_residues", "verify_gtl"])
def test_an_h_that_is_no_polynomial_is_refused_by_type_before_any_work(monkeypatch, call):
    """A TypeError that names the type, raised before any basis is built:
    ``verify_gtl`` builds no transformed problem first."""
    lp = load("p2_fermat.json")
    monkeypatch.setattr(residues_mod, "ResidueProblem", None)
    monkeypatch.setattr(groebner_mod, "packed_basis", None)
    with pytest.raises(TypeError, match="H must be a MultiPoly, not (int|float)"):
        call(lp.problem)


def test_an_input_that_is_no_polynomial_is_refused_by_type(p2):
    fan, _ = p2
    with pytest.raises(TypeError, match="an input must be a MultiPoly, not int"):
        ResidueProblem(fan, [1, 2, 3])


def test_membership_guard():
    lp = load("pentagon_outside.json")
    pb = lp.problem
    assert pb.membership_failures
    j, witness = pb.membership_failures[0]
    assert j == 2
    assert witness == (0, 0, 1, 2, 0)  # the z*t^2 term
    with pytest.raises(HypothesesFailed):
        toric_residue(pb, lp.inputs[0])


def test_common_zero_guard(p1):
    fan, g = p1
    F = polys(["x^2", "x*y"], fan)
    pb = ResidueProblem(fan, F, grading=g)
    h = poly("x*y", fan)
    assert degree_of(h, g) == pb.critical
    with pytest.raises(HypothesesFailed):
        toric_residue(pb, h)


def test_sigma_independence():
    for name in ("pentagon_main.json", "p2_fermat.json", "p112_fermat.json"):
        lp = load(name)
        assert sigma_independence_check(lp.problem)


def test_annihilation_check():
    ok = load("pentagon_small.json")
    assert variable_annihilation_check(ok.problem).ok
    bad = load("pentagon_outside.json")
    report = variable_annihilation_check(bad.problem)
    assert not report.ok
    assert report.witness is not None


def test_annihilation_check_reads_packed_remainders(monkeypatch):
    """Each product is tested by whether its packed remainder has terms:
    no normal form is unpacked into a polynomial."""
    monkeypatch.setattr(groebner_mod.GroebnerBasis, "reduce",
                        lambda gb, p: pytest.fail("a normal form was unpacked"))
    assert variable_annihilation_check(load("pentagon_small.json").problem).ok
    report = variable_annihilation_check(load("pentagon_outside.json").problem)
    assert not report.ok and report.witness is not None


def test_annihilation_specific_product():
    lp = load("pentagon_outside.json")
    pb = lp.problem
    assert pb.codim.ok
    x_h = poly("x", lp.fan) * lp.inputs[0]  # x * xyzu
    assert not pb.groebner.reduce(x_h).is_zero()


def test_cone_determinant_other_cones():
    lp = load("pentagon_main.json")
    pb = lp.problem
    for k in range(5):
        delta_k = cone_determinant(pb, k)
        assert degree_of(delta_k, lp.grading) == pb.critical
        assert toric_residue(pb, delta_k) == pb.cone_sign(k)


def test_torsion_residue():
    lp = load("torsion_fermat.json")
    pb = lp.problem
    assert pb.critical.torsion == (0,)
    assert len(pb.monomials) == 10
    assert pb.codim.pivot == (2, 2, 2)
    assert toric_residue(pb, lp.inputs[0]) == 1
    assert toric_residue(pb, pb.delta) == 1


def test_swap_flips_sign():
    lp = load("p1_numeric_a.json")
    pb = lp.problem
    h = lp.inputs[0]
    swapped = ResidueProblem(lp.fan, [pb.polys[1], pb.polys[0]],
                             order=pb.order, sigma=pb.sigma,
                             grading=lp.grading)
    assert toric_residue(swapped, h) == -toric_residue(pb, h)


def assert_transformed_critical_degree(pb, rng):
    """verify_gtl no longer compares critical degrees: the column degree
    pattern of an admissible A makes rho_G = rho_F + deg det A."""
    A = _random_admissible(pb, rng)
    n1 = len(pb.polys)
    G = [sum((A[i][j] * pb.polys[i] for i in range(n1)), MultiPoly.zero(pb.fan.nvars))
         for j in range(n1)]
    transformed = ResidueProblem(pb.fan, G, order=pb.order, sigma=pb.sigma, grading=pb.grading)
    assert transformed.critical == pb.critical + degree_of(poly_det(A), pb.grading)


@pytest.mark.parametrize("name", sorted(
    p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".fan.json")))
def test_transformed_critical_degree_adds_deg_det_a_on_fixtures(name):
    rng = random.Random(name)
    for _ in range(5):
        assert_transformed_critical_degree(load(name).problem, rng)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(square_systems(list(SYSTEM_FANS)), st.integers(0, 2**16))
def test_transformed_critical_degree_adds_deg_det_a_on_random_systems(case, seed):
    assert_transformed_critical_degree(case[0], random.Random(seed))
