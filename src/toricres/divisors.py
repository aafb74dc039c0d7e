"""Cartier and positivity tests for torus-invariant divisors.

A divisor is a coefficient vector over the rays.  Each full simplicial cone
determines a unique rational linear functional matching the coefficients on
its rays, read off the fan's ``cone_table`` by ``support_meets``.
Integrality of the functionals is the Cartier condition, strict convexity
across cones is ampleness, and convexity is nefness, both decided on the
walls of a complete fan.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidFan
from .lattice import FanData, clear_denominators, dot, is_complete, mat_vec
from .values import Value


class PositivityReport(Value):
    __slots__ = _fields = ("ok", "cartier", "witnesses")

    def __init__(self, ok: bool, cartier: bool, witnesses: tuple = ()):
        self._set(ok, cartier, witnesses)

    def __bool__(self):
        return self.ok


def support_meets(fan: FanData, coeffs):
    """``(d, scaled, meets)``: d the lcm of the coefficients' denominators,
    ``scaled`` the d*a_i, and ``meets[k]`` the meet ``(num, den)`` of
    <x, ray_i> = -d*a_i on the rays of maximal cone k, adj*rhs over det from
    ``fan.cone_table`` in ``lattice.cramer``'s lowest terms with den > 0, so
    that m_k = num/(den*d).  A cone without dim independent rays raises."""
    if len(coeffs) != fan.nvars:
        raise InvalidFan("one coefficient per ray is required")
    d, scaled = clear_denominators(map(Fraction, coeffs))
    meets = []
    for k, (cone, (det, adj)) in enumerate(zip(fan.max_cones, fan.cone_table)):
        if not det:
            raise InvalidFan(f"cone {k} does not have {fan.dim} independent rays")
        num = mat_vec(adj, [-scaled[i] for i in cone])
        g = gcd(det, *num) if det > 0 else -gcd(det, *num)
        meets.append((tuple(x // g for x in num), det // g))
    return d, scaled, meets


def slacks(fan: FanData, scaled, meets, pairs):
    """<num_k, ray_j> + d*a_j*den_k, of the sign of <m_k, ray_j> + a_j, for
    each (k, j) of ``pairs``.  On a complete fan every slack is >= 0 (nef),
    or > 0 off its cone (strictly convex), when every slack at ``fan.walls``
    is (Cox–Little–Schenck, *Toric Varieties*, §6.1, §6.4): along a generic
    segment from inside cone k to ray_j, crossing a wall changes the slope
    of the support function ψ by a negative multiple of the wall's slack, so
    ψ <= m_k there, strictly once a strict wall is crossed, as one must be
    to leave cone k; and ψ(ray_j) = -a_j.
    """
    return [dot(meets[k][0], fan.rays[j]) + scaled[j] * meets[k][1] for k, j in pairs]


def _cartier(d, meets):
    """The cones whose functional is not integral."""
    return tuple(k for k, (num, den) in enumerate(meets) if any(x % (den * d) for x in num))


def _witnesses(fan: FanData, coeffs):
    """The cones whose functional is not integral, and the (cone, ray)
    pairs, ray off the cone, with <m_cone, ray> <= -a_ray: none, read off
    the walls alone, when every wall is strict on a complete fan."""
    d, scaled, meets = support_meets(fan, coeffs)
    if is_complete(fan) and all(s > 0 for s in slacks(fan, scaled, meets, fan.walls)):
        return _cartier(d, meets), ()
    off = [(k, j) for k, cone in enumerate(fan.max_cones) for j in range(fan.nvars)
           if j not in cone]
    return _cartier(d, meets), tuple(
        kj for kj, s in zip(off, slacks(fan, scaled, meets, off)) if s <= 0)


def is_cartier(fan: FanData, coeffs) -> PositivityReport:
    """Integral per-cone functionals exist."""
    d, _, meets = support_meets(fan, coeffs)
    cartier = _cartier(d, meets)
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
