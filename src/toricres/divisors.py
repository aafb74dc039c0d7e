"""Cartier and positivity tests for torus-invariant divisors.

A divisor is a coefficient vector over the rays.  Each full simplicial cone
determines a unique rational linear functional matching the coefficients on
its rays; integrality of those functionals is the Cartier condition and
strict convexity across cones is ampleness.
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


def cone_functionals(fan: FanData, coeffs) -> list[tuple[Fraction, ...]]:
    """Per-cone m with <m, ray_i> = -a_i on the cone's rays.

    With d the lcm of the coefficients' denominators, each cone solves the
    integer system <m, ray_i> = -d*a_i by Cramer's rule and divides by d.  A
    cone without exactly dim independent rays has no unique m and raises.
    """
    if len(coeffs) != fan.nvars:
        raise InvalidFan("one coefficient per ray is required")
    d, scaled = clear_denominators(map(Fraction, coeffs))
    out = []
    for k, cone in enumerate(fan.max_cones):
        meet = len(cone) == fan.dim and cramer([fan.rays[i] for i in cone],
                                               [-scaled[i] for i in cone])
        if not meet:
            raise InvalidFan(f"cone {k} does not have {fan.dim} independent rays")
        num, den = meet
        out.append(tuple(Fraction(x, den * d) for x in num))
    return out


def _cartier_failures(ms) -> tuple[int, ...]:
    return tuple(k for k, m in enumerate(ms) if any(x.denominator != 1 for x in m))


def is_cartier(fan: FanData, coeffs) -> PositivityReport:
    """Integral per-cone functionals exist."""
    witnesses = _cartier_failures(cone_functionals(fan, coeffs))
    ok = not witnesses
    return PositivityReport(ok, ok, witnesses)


def _strictness_failures(fan: FanData, ms, coeffs):
    """(cone, ray) pairs, ray off the cone, with <m_cone, ray> <= -a_ray,
    compared in integers: with L the lcm of m_cone's denominators and d that
    of the a's, as d*<L*m_cone, ray> <= -(d*a_ray)*L."""
    d, scaled = clear_denominators(map(Fraction, coeffs))
    out = []
    for k, cone in enumerate(fan.max_cones):
        L, m = clear_denominators(ms[k])
        out.extend((k, j) for j, ray in enumerate(fan.rays)
                   if j not in cone and d * dot(m, ray) <= -scaled[j] * L)
    return out


def is_q_ample(fan: FanData, coeffs) -> PositivityReport:
    """Strictly convex rational support function exists."""
    ms = cone_functionals(fan, coeffs)
    bad = _strictness_failures(fan, ms, coeffs)
    return PositivityReport(not bad, not _cartier_failures(ms), tuple(bad))


def is_ample(fan: FanData, coeffs) -> PositivityReport:
    """Cartier with a strictly convex support function."""
    ms = cone_functionals(fan, coeffs)
    witnesses = _cartier_failures(ms)
    if witnesses:
        return PositivityReport(False, False, witnesses)
    bad = _strictness_failures(fan, ms, coeffs)
    return PositivityReport(not bad, True, tuple(bad))
