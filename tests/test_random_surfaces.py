"""Residue systems on complete surfaces that nobody chose.

``oracles.random_surface`` draws a complete simplicial surface of 4 to 6
rays with an ample Cartier class D.  On three dense forms of degree D with
small random coefficients, the exact residue of a random critical-degree H
must equal the exact local residue sum for every k that the sum does not
refuse, hold for every choice of sigma, and change sign when two inputs
are swapped; the zero-locus report must be the Q oracle's, also once the
forms are moved to share a zero on the torus.  Refusals, of
the residue or of a local sum, are recorded with ``hypothesis.event``.
"""

import random
from fractions import Fraction

from hypothesis import assume, event, given, settings, strategies as st

from toricres import (MultiPoly, ResidueProblem, ToricError, compute_grading, monomial_basis,
                      sigma_independence_check, sum_local_residues, toric_residue)

from oracles import random_surface
from test_zero_locus import vanish_at, with_basis

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)

# the most monomials of degree D a surface may have: larger polygons give
# critical slices that take seconds
MAX_MONOMIALS = 10


def dense_surface_system(seed: int):
    """(problem, H) drawn from ``seed``: three dense forms of one ample
    degree on a random surface, coefficients in +-1..3, and H with
    coefficients in -3..3 on the monomials of the critical degree.  A
    surface whose degree has more than MAX_MONOMIALS monomials is drawn
    again."""
    rng = random.Random(seed)
    while True:
        fan, divisor = random_surface(rng, rng.randint(4, 6))
        grading = compute_grading(fan)
        mons = monomial_basis(fan, grading, grading.degree(divisor))
        if len(mons) <= MAX_MONOMIALS:
            break
    coeffs = [-3, -2, -1, 1, 2, 3]
    polys = [MultiPoly(fan.nvars, {m: rng.choice(coeffs) for m in mons}) for _ in range(3)]
    pb = ResidueProblem(fan, polys, grading=grading)
    H = MultiPoly(fan.nvars, {m: rng.randint(-3, 3) for m in pb.monomials})
    return pb, H


def residue_or_refusal(pb, H):
    try:
        return toric_residue(pb, H)
    except ToricError as exc:
        event(f"residue refused: {type(exc).__name__}")
        return None


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_the_residue_is_the_local_sum_for_every_k_not_refused(seed):
    pb, H = dense_surface_system(seed)
    residue = residue_or_refusal(pb, H)
    assume(residue is not None)
    for k in range(len(pb.polys)):
        try:
            local = sum_local_residues(pb, H, k)
        except ToricError as exc:
            event(f"local sum refused: {type(exc).__name__}")
            continue
        assert local == residue


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_the_residue_is_independent_of_sigma_and_alternates_under_swaps(seed):
    pb, H = dense_surface_system(seed)
    residue = residue_or_refusal(pb, H)
    assume(residue is not None)
    assert sigma_independence_check(pb)
    for sigma in range(1, len(pb.fan.max_cones)):
        other = ResidueProblem(pb.fan, pb.polys, sigma=sigma, grading=pb.grading)
        assert toric_residue(other, H) == pb.cone_sign(sigma) * residue
    polys = list(pb.polys)
    polys[0], polys[-1] = polys[-1], polys[0]
    swapped = ResidueProblem(pb.fan, polys, sigma=pb.sigma, grading=pb.grading)
    assert toric_residue(swapped, H) == -residue


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_the_zero_locus_report_is_the_q_oracles(seed):
    """Also on the forms moved to vanish at a point of the torus, which
    lies in every chart, so the first cone fails."""
    pb, _ = dense_surface_system(seed)
    report, _ = with_basis(pb.fan, pb.polys, pb.groebner)
    event(f"common zero on X: {not report.ok}")
    rng = random.Random(seed)
    point = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(pb.fan.nvars))
    polys = vanish_at(pb.polys, point)
    assume(all(not F.is_zero() for F in polys))
    report, _ = with_basis(pb.fan, polys)
    assert not report.ok and report.witness_cone == 0
