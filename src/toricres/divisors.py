"""Cartier and positivity tests for torus-invariant divisors.

A divisor is a coefficient vector over the rays.  Each full simplicial cone
determines a unique rational linear functional matching the coefficients on
its rays; ``support_table`` solves every cone once, in integers.
Integrality of the functionals is the Cartier condition, strict convexity
across cones is ampleness, and convexity is nefness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidFan
from .lattice import FanData, clear_denominators, cramer, dot


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    cartier: bool
    witnesses: tuple = ()

    def __bool__(self):
        return self.ok


def support_table(fan: FanData, coeffs):
    """``(d, meets, slack)``: d the lcm of the coefficients' denominators;
    ``meets[k]`` the ``lattice.cramer`` meet ``(num, den)``, in lowest terms
    with den > 0, of <x, ray_i> = -d*a_i on the rays of maximal cone k, so
    that its functional m_k is num/(den*d); ``slack[k][j]`` = <num, ray_j>
    + d*a_j*den, of the sign of <m_k, ray_j> + a_j.  A cone without exactly
    dim independent rays raises.
    """
    if len(coeffs) != fan.nvars:
        raise InvalidFan("one coefficient per ray is required")
    d, scaled = clear_denominators(map(Fraction, coeffs))
    meets, slack = [], []
    for k, cone in enumerate(fan.max_cones):
        meet = len(cone) == fan.dim and cramer([fan.rays[i] for i in cone],
                                               [-scaled[i] for i in cone])
        if not meet:
            raise InvalidFan(f"cone {k} does not have {fan.dim} independent rays")
        num, den = meet
        meets.append(meet)
        slack.append([dot(num, ray) + a * den for ray, a in zip(fan.rays, scaled)])
    return d, meets, slack


def cone_functionals(fan: FanData, coeffs) -> list[tuple[Fraction, ...]]:
    """Per-cone m with <m, ray_i> = -a_i on the cone's rays."""
    d, meets, _ = support_table(fan, coeffs)
    return [tuple(Fraction(x, den * d) for x in num) for num, den in meets]


def _witnesses(fan: FanData, coeffs):
    """From one support table: the cones whose functional is not integral,
    and the (cone, ray) pairs, ray off the cone, with <m_cone, ray> <= -a_ray."""
    d, meets, slack = support_table(fan, coeffs)
    cartier = tuple(k for k, (num, den) in enumerate(meets) if any(x % (den * d) for x in num))
    strict = tuple((k, j) for k, (cone, row) in enumerate(zip(fan.max_cones, slack))
                   for j, s in enumerate(row) if s <= 0 and j not in cone)
    return cartier, strict


def is_cartier(fan: FanData, coeffs) -> PositivityReport:
    """Integral per-cone functionals exist."""
    cartier, _ = _witnesses(fan, coeffs)
    return PositivityReport(not cartier, not cartier, cartier)


def is_q_ample(fan: FanData, coeffs) -> PositivityReport:
    """Strictly convex rational support function exists."""
    cartier, strict = _witnesses(fan, coeffs)
    return PositivityReport(not strict, not cartier, strict)


def is_ample(fan: FanData, coeffs) -> PositivityReport:
    """Cartier with a strictly convex support function."""
    cartier, strict = _witnesses(fan, coeffs)
    if cartier:
        return PositivityReport(False, False, cartier)
    return PositivityReport(not strict, True, strict)
