"""The local sum on the chart that holds every zero, found by one count.

``sum_local_residues`` walks the charts, sigma first, and sums on the first
chart tau with dim A_tau = |det tau| * N_k, N_k the intersection number of
the degrees of the inputs other than k.  Its refusal must be the one ideal
membership gives (``oracles.nullstellensatz_refusal``).  Its value must be
the oracle's exact trace, with its sign, on the first two charts that hold
every zero (``oracles.holding_cones``), the residue wherever that is defined,
also with zeros off the torus and on orbifold charts, and the identical
Fraction wherever the sum behind the torus screen that it replaced
(``oracles.screen_residue_sum``) had a value.  With a degree alpha_k that
is not Q-ample the walk builds every chart, and a positive-dimensional set
of zeros is refused with InfiniteIntersection even where a chart passes the
count; with a Q-ample one it stops at the first chart that passes.  A set
of zeros that no single chart holds is refused with NotTorusZero.
"""

import random
from fractions import Fraction

import pytest

from toricres import (MultiPoly, ResidueProblem, ToricError, cone_det, compute_grading,
                      is_q_ample, load_fan, monomial_basis, parse_poly, representative_divisor,
                      sum_local_residues, toric_residue)
from toricres import localres

from conftest import FIXTURES, load
from oracles import (holding_cones, nullstellensatz_refusal, random_surface, screen_residue_sum,
                     trace_residue_sum)
from test_quotient import RESIDUE_FIXTURES
from test_zero_locus import vanish_at

COEFFS = [-3, -2, -1, 1, 2, 3]


def message(compute):
    """The value, or the error's type and message."""
    try:
        return compute()
    except ToricError as exc:
        return type(exc).__name__, str(exc)


def problem_on(fan, grading, exponents, rng, point=None, k=0, sigma=0):
    """Dense forms of the degrees of the given exponents, coefficients in
    +-1..3, and a critical-degree H; with a ``point``, every form but the
    k-th is moved to vanish there."""
    polys = [MultiPoly(fan.nvars, {m: rng.choice(COEFFS)
                                   for m in monomial_basis(fan, grading, grading.degree(e))})
             for e in exponents]
    if point is not None:
        moved = vanish_at(polys[:k] + polys[k + 1:], tuple(map(Fraction, point)))
        polys = moved[:k] + [polys[k]] + moved[k:]
    pb = ResidueProblem(fan, polys, grading=grading, sigma=sigma)
    return pb, MultiPoly(fan.nvars, {m: rng.choice(COEFFS) for m in pb.monomials})


def assert_the_route(pb, H, k, traces=2):
    """The sum's value or refusal, checked against the oracles, with the
    trace on the first ``traces`` charts that hold every zero."""
    got = message(lambda: sum_local_residues(pb, H, k))
    refusal = nullstellensatz_refusal(pb, k)
    if refusal:
        assert got[0] == refusal
    else:
        assert type(got) is Fraction
        for cone in holding_cones(pb, k)[:traces]:
            assert got == (-1) ** k * pb.cone_sign(cone) * trace_residue_sum(pb, H, k, cone)
        exact = message(lambda: toric_residue(pb, H))
        assert isinstance(exact, tuple) or got == exact
    screen = message(lambda: screen_residue_sum(pb, H, k))
    assert isinstance(screen, tuple) or got == screen
    return got


@pytest.fixture
def charts_built(monkeypatch):
    """The cones whose chart quotient a sum builds, in order."""
    built = []
    real = localres._chart

    def counted(problem, k, cone):
        built.append(cone)
        return real(problem, k, cone)

    monkeypatch.setattr(localres, "_chart", counted)
    return built


@pytest.mark.parametrize("name", RESIDUE_FIXTURES)
def test_every_fixture_sum_against_the_oracles(name):
    lp = load(name)
    for k in range(len(lp.problem.polys)):
        assert_the_route(lp.problem, lp.inputs[0], k)


def test_the_fixture_sums_off_the_torus():
    """pentagon_small at k = 0 and p1_numeric_a at k = 1 have a zero off the
    torus, which the screen refused; each is now the residue, -1."""
    for name, k in (("pentagon_small.json", 0), ("p1_numeric_a.json", 1)):
        lp = load(name)
        pb, H = lp.problem, lp.inputs[0]
        assert message(lambda: screen_residue_sum(pb, H, k))[0] == "NotTorusZero"
        assert sum_local_residues(pb, H, k) == toric_residue(pb, H) == -1


# P^1 x P^1 with x, y of degree (1, 0) and z, t of degree (0, 1)
P1P1_DEGREES = {(1, 0): (1, 0, 0, 0), (0, 1): (0, 0, 1, 0), (1, 1): (1, 0, 1, 0),
                (2, 1): (2, 0, 1, 0)}


@pytest.mark.parametrize("degrees", [((1, 0), (0, 1), (1, 1)), ((2, 1), (1, 0), (1, 1))])
def test_unequal_degrees_walk_every_chart_unless_alpha_k_is_q_ample(degrees, charts_built):
    """(1, 0) and (0, 1) are not Q-ample, so a sum that drops one of them
    builds every chart before it trusts a count; dropping (1, 1) or (2, 1)
    stops at the first chart that passes."""
    fan, grading = load_fan(FIXTURES / "p1p1.fan.json")
    cones = len(fan.max_cones)
    walked = set()
    for seed in range(6):
        pb, H = problem_on(fan, grading, [P1P1_DEGREES[d] for d in degrees], random.Random(seed))
        for k in range(3):
            ample = is_q_ample(fan, representative_divisor(grading, pb.degrees[k])).ok
            assert ample == (0 not in degrees[k])
            charts_built.clear()
            got = assert_the_route(pb, H, k)
            if type(got) is Fraction:
                first = holding_cones(pb, k)[0]
                assert charts_built == (list(range(cones)) if not ample
                                        else [pb.sigma] + list(range(first))[:first])
                walked.add(ample)
    assert walked == {True, False}


# equal Q-ample degrees, as exponents, on the fixture fans
AMPLE = {"p2": (2, 0, 0), "p1p1": (1, 0, 1, 0), "pentagon": (1, 1, 1, 1, 1),
         "p112": (0, 0, 1), "torsion": (1, 1, 1)}


@pytest.mark.parametrize("name", sorted(AMPLE))
def test_built_zeros_off_the_torus_are_the_residue(name):
    """For each ray j, the forms but the k-th moved to vanish at a point of
    the divisor of ray j, off the torus: where the residue is defined and
    one chart holds every zero, the sum is the residue, on a chart whose
    cone holds ray j, where the screen refused it.  sigma is a cone
    without ray j, so the walk passes it, and on P(1,1,2) and the torsion
    fan it sums on an orbifold chart."""
    fan, grading = load_fan(FIXTURES / f"{name}.fan.json")
    rng = random.Random(7)
    chosen = []
    for j in range(fan.nvars):
        k = j % 3
        sigma = next(c for c, cone in enumerate(fan.max_cones) if j not in cone)
        point = [0 if i == j else rng.choice([1, 2, -1]) for i in range(fan.nvars)]
        pb, H = problem_on(fan, grading, [AMPLE[name]] * 3, rng, point, k, sigma)
        residue = message(lambda: toric_residue(pb, H))
        got = assert_the_route(pb, H, k)
        if isinstance(residue, tuple) or isinstance(got, tuple):
            continue
        assert got == residue
        assert message(lambda: screen_residue_sum(pb, H, k))[0] == "NotTorusZero"
        cone = holding_cones(pb, k)[0]
        assert j in fan.cone(cone)
        chosen.append((cone, sigma))
    assert len(chosen) >= 2 and all(cone != sigma for cone, sigma in chosen)
    if name in ("p112", "torsion"):
        assert any(abs(cone_det(fan, cone)) > 1 for cone, _ in chosen)


@pytest.mark.parametrize("seed", range(6))
def test_built_zeros_off_the_torus_on_random_surfaces(seed):
    """Three forms of an ample class of a random surface, moved to vanish
    at a point of the divisor of one ray: the sum is the residue for every
    k that neither refuses.  Their coefficients swell, so no Fraction trace
    is taken."""
    rng = random.Random(seed)
    while True:
        fan, divisor = random_surface(rng, rng.randint(4, 6))
        grading = compute_grading(fan)
        if len(monomial_basis(fan, grading, grading.degree(divisor))) <= 10:
            break
    j = rng.randrange(fan.nvars)
    point = [0 if i == j else rng.choice([1, 2, -1]) for i in range(fan.nvars)]
    for k in range(3):
        pb, H = problem_on(fan, grading, [divisor] * 3, random.Random(seed), point, k)
        assert_the_route(pb, H, k, traces=0)


def test_a_layout_no_single_chart_holds_is_refused():
    """[0 : 1] and [1 : 0] on P^1, and [1 : 0 : 0] and [0 : 1 : 0] on P^2:
    no chart holds both, so the sum is refused, though the residue is
    defined."""
    for fan_name, texts in (("p1", ["x + 3*y", "x*y"]), ("p2", ["x0 + x1 + x2", "x2", "x0*x1"])):
        fan, grading = load_fan(FIXTURES / f"{fan_name}.fan.json")
        pb = ResidueProblem(fan, [parse_poly(t, fan.variables) for t in texts], grading=grading)
        H = MultiPoly(fan.nvars, {pb.monomials[0]: 1})
        assert toric_residue(pb, H) is not None
        assert holding_cones(pb, 0) == [] and nullstellensatz_refusal(pb, 0) == "NotTorusZero"
        assert message(lambda: sum_local_residues(pb, H, 0)) == (
            "NotTorusZero", "no single chart holds every zero of the inputs but 0")


def test_a_curve_of_zeros_is_refused_though_a_chart_passes_the_count():
    """x, x*y and y*(x + y) on P^1 x P^1: with x dropped, alpha_0 = (1, 0)
    is not Q-ample and the zeros are the curve y = 0, which sigma's chart
    misses: its quotient is 0 = |det sigma| * N_0, N_0 = (2, 0)^2 = 0, and
    only the finiteness rule refuses the sum."""
    fan, grading = load_fan(FIXTURES / "p1p1.fan.json")
    pb = ResidueProblem(fan, [parse_poly(t, fan.variables) for t in ("x", "x*y", "y*(x + y)")],
                        grading=grading)
    assert pb.zero_locus().ok and not pb.monomials
    fk, quotient = localres._chart(pb, 0, pb.sigma)
    assert quotient.basis == []
    assert message(lambda: sum_local_residues(pb, MultiPoly.zero(4), 0)) == (
        "InfiniteIntersection", "inputs excluding 0 meet in positive dimension in cone 2")
