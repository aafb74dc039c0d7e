"""Rational polytopes from divisor data: lattice points and exact volumes.

A polytope is stored by inequalities <m, normal_i> + offset_i >= 0.  Volumes
are computed by an exact pyramid recursion over facets; the per-facet change
of coordinates uses an integer basis of the normal's orthogonal sublattice,
which keeps every intermediate quantity rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor, gcd

from .errors import DegenerateVolume, Unbounded
from .lattice import (
    dot,
    integer_kernel_vector,
    mat_rank,
    rational_kernel,
    rref,
    smith_normal_form,
    solve_rational,
)


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half spaces <m, normal> + offset >= 0."""

    dim: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.normals) != len(self.offsets):
            raise ValueError("one offset per normal is required")
        object.__setattr__(self, "normals",
                           tuple(tuple(int(x) for x in nr) for nr in self.normals))
        object.__setattr__(self, "offsets",
                           tuple(Fraction(o) for o in self.offsets))

    def contains(self, point) -> bool:
        return all(dot(point, nr) + off >= 0
                   for nr, off in zip(self.normals, self.offsets))


def divisor_polytope(fan, coeffs) -> HPolytope:
    """Sections polytope of the divisor with the given ray coefficients."""
    return HPolytope(fan.dim, fan.rays, tuple(Fraction(c) for c in coeffs))


def _vertices(poly: HPolytope):
    """All vertices, as rational tuples, via active-set enumeration."""
    n = poly.dim
    seen = set()
    out = []
    for subset in itertools.combinations(range(len(poly.normals)), n):
        # the active facets meet in one point when [A | b] has its pivots
        # in exactly the first n columns
        rows, pivots = rref([list(poly.normals[i]) + [-poly.offsets[i]]
                             for i in subset], n + 1)
        if pivots != list(range(n)):
            continue
        v = tuple(row[n] for row in rows)
        if v in seen:
            continue
        seen.add(v)
        if poly.contains(v):
            out.append(v)
    out.sort()
    return out


def _is_bounded(poly: HPolytope) -> bool:
    """Exact recession cone test: only the origin may satisfy all <v,n> >= 0."""
    n = poly.dim
    if rational_kernel([list(r) for r in poly.normals], n):
        return False
    for subset in itertools.combinations(range(len(poly.normals)), n - 1):
        v = integer_kernel_vector([poly.normals[i] for i in subset], n)
        if v is None:
            continue
        for s in (v, tuple(-x for x in v)):
            if all(dot(s, nr) >= 0 for nr in poly.normals):
                return False
    return True


def lattice_points(poly: HPolytope) -> list[tuple[int, ...]]:
    """All integer points, in lexicographic order."""
    if poly.dim == 0:
        return [()] if all(o >= 0 for o in poly.offsets) else []
    if not _is_bounded(poly):
        raise Unbounded("polytope has an unbounded direction")
    verts = _vertices(poly)
    if not verts:
        return []
    ranges = []
    for j in range(poly.dim):
        lo = min(v[j] for v in verts)
        hi = max(v[j] for v in verts)
        ranges.append(range(ceil(lo), floor(hi) + 1))
    return [pt for pt in itertools.product(*ranges) if poly.contains(pt)]


def _orthogonal_lattice_basis(normal):
    """Integer row basis of the sublattice orthogonal to a primitive vector."""
    n = len(normal)
    snf = smith_normal_form([list(normal)])
    # row vector times V has a single nonzero entry; columns of V past the
    # first span the kernel, so rows of V transpose give the basis
    basis = []
    for j in range(1, n):
        basis.append(tuple(snf.V[i][j] for i in range(n)))
    return basis


def _volume_rec(normals, offsets, n) -> Fraction:
    """Volume of {x : <x,normal_i> + offset_i >= 0} in R^n, exactly."""
    if n == 0:
        return Fraction(1) if all(o >= 0 for o in offsets) else Fraction(0)
    prim = []
    for nr, off in zip(normals, offsets):
        if not any(nr):
            if off < 0:
                return Fraction(0)
            continue
        g = gcd(*[abs(x) for x in nr]) if len(nr) > 1 else abs(nr[0])
        prim.append((tuple(x // g for x in nr), Fraction(off, g)))
    # keep one inequality per normal direction, the tightest, so no facet
    # is counted twice in the pyramid sum
    tight = {}
    for nr, off in prim:
        if nr not in tight or off < tight[nr]:
            tight[nr] = off
    prim = sorted(tight.items())
    if n == 1:
        lo, hi = None, None
        for (a,), off in prim:
            bound = -off / a
            if a > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise Unbounded("one-dimensional slice is unbounded")
        return max(Fraction(0), hi - lo)
    poly = HPolytope(n, tuple(nr for nr, _ in prim), tuple(off for _, off in prim))
    verts = _vertices(poly)
    if len(verts) <= n:
        return Fraction(0)
    center = tuple(sum(col, Fraction(0)) / len(verts) for col in zip(*verts))
    total = Fraction(0)
    for k, (nr, off) in enumerate(prim):
        height = dot(center, nr) + off
        if height <= 0:
            continue
        base = solve_rational([list(nr)], [-off])
        rows = _orthogonal_lattice_basis(nr)
        sub_normals = []
        sub_offsets = []
        for j, (nj, oj) in enumerate(prim):
            if j == k:
                continue
            sub_normals.append(tuple(dot(b, nj) for b in rows))
            sub_offsets.append(dot(base, nj) + oj)
        total += height * _volume_rec(sub_normals, sub_offsets, n - 1)
    return total / n


def polytope_volume(poly: HPolytope) -> Fraction:
    """Euclidean volume; raises when the polytope is not full-dimensional."""
    if not _is_bounded(poly):
        raise Unbounded("polytope has an unbounded direction")
    verts = _vertices(poly)
    if not verts:
        raise DegenerateVolume("polytope is empty")
    diffs = [[v[j] - verts[0][j] for j in range(poly.dim)] for v in verts[1:]]
    if poly.dim > 0 and mat_rank(diffs) < poly.dim:
        raise DegenerateVolume("polytope is lower-dimensional")
    return _volume_rec(list(poly.normals), list(poly.offsets), poly.dim)


def normalized_volume(poly: HPolytope) -> Fraction:
    return factorial(poly.dim) * polytope_volume(poly)


def intersection_number(fan, coeffs) -> int:
    """Top self-intersection of the divisor, as lattice-normalized volume."""
    vol = normalized_volume(divisor_polytope(fan, coeffs))
    if vol.denominator != 1:
        raise DegenerateVolume(
            f"normalized volume {vol} is not an integer")
    return int(vol)


def divisor_monomials(rays, coeffs) -> list[tuple[int, ...]]:
    """Sorted exponent vectors e_i = <m, ray_i> + a_i of the monomials of the
    divisor sum a_i D_i, one per lattice point m of its polytope."""
    poly = HPolytope(len(rays[0]), tuple(rays), tuple(Fraction(c) for c in coeffs))
    return sorted(tuple(dot(m, ray) + a for ray, a in zip(rays, coeffs))
                  for m in lattice_points(poly))


def monomial_basis(fan, grading, target) -> list[tuple[int, ...]]:
    """All exponent vectors of the given degree class, deterministically ordered.

    Uses a divisor representative of the degree; monomials correspond to
    lattice points of its polytope via e_i = <m, ray_i> + a_i.
    """
    from .grading import representative_divisor

    return divisor_monomials(fan.rays, representative_divisor(grading, target))
