"""Rational polytopes from divisor data: lattice points and exact volumes.

A polytope is stored by inequalities <m, normal_i> + offset_i >= 0.  Its
vertices are enumerated once, by eliminating every n-subset of the
inequalities.  Lattice points are read from the vertices' bounding box, and
volumes from a pulling triangulation of the vertex list, whose faces are the
sets of vertices where each inequality is tight; every quantity is an exact
Fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor

from .errors import DegenerateVolume, Unbounded
from .lattice import dot, integer_kernel_vector, mat_det, mat_rank, rational_kernel, rref


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


def _bounded_vertices(poly: HPolytope):
    """The vertex list, after refusing a polytope with an unbounded direction."""
    if poly.dim and not _is_bounded(poly):
        raise Unbounded("polytope has an unbounded direction")
    return _vertices(poly)


def lattice_points(poly: HPolytope) -> list[tuple[int, ...]]:
    """All integer points, in lexicographic order."""
    verts = _bounded_vertices(poly)
    if not verts:
        return []
    ranges = []
    for j in range(poly.dim):
        lo = min(v[j] for v in verts)
        hi = max(v[j] for v in verts)
        ranges.append(range(ceil(lo), floor(hi) + 1))
    return [pt for pt in itertools.product(*ranges) if poly.contains(pt)]


def normalized_volume(poly: HPolytope) -> Fraction:
    """n!·vol(P), exactly; raises when P is not full-dimensional."""
    if vol := _pulled_volume(poly):
        return vol
    raise DegenerateVolume("polytope is lower-dimensional")


def _pulled_volume(poly: HPolytope) -> Fraction:
    """n!·vol(P), exactly, by a pulling triangulation of the vertex list;
    0 for a nonempty lower-dimensional P, DegenerateVolume for an empty one.

    Faces are sets of vertex indices; each inequality contributes the set of
    vertices where it is tight.  Pulling the apex a = min(F) cuts a face F
    into the pyramids over its facets G with a not in G, and each G is
    triangulated the same way, so every chain of apexes down to a vertex is
    a simplex of the triangulation and the result is the sum of their
    |det|.  The facets not containing a are the inclusion-maximal nonempty
    sets F ∩ H over the tight sets H without a: a face not containing a
    lies in a facet not containing a, because a face is the intersection of
    the facets that contain it.  Parallel, duplicate, redundant and zero
    inequalities only add sets that are not maximal, or no set at all.
    """
    verts = _bounded_vertices(poly)
    if not verts:
        raise DegenerateVolume("polytope is empty")
    diffs = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
    if poly.dim > 0 and mat_rank(diffs) < poly.dim:
        return Fraction(0)
    tight = {frozenset(i for i, v in enumerate(verts) if dot(v, nr) + off == 0)
             for nr, off in zip(poly.normals, poly.offsets)}

    def pull(face, chain):
        a = min(face)
        chain = chain + (verts[a],)
        if len(face) == 1:
            return abs(mat_det([[x - y for x, y in zip(p, chain[0])]
                                for p in chain[1:]]))
        meets = {face & h for h in tight if a not in h} - {frozenset()}
        return sum((pull(g, chain) for g in meets
                    if not any(g < other for other in meets)), Fraction(0))

    return Fraction(pull(frozenset(range(len(verts))), ()))


def polytope_volume(poly: HPolytope) -> Fraction:
    """Euclidean volume; raises when the polytope is not full-dimensional."""
    return normalized_volume(poly) / factorial(poly.dim)


def intersection_number(fan, coeffs) -> int:
    """Lattice-normalized volume n!·vol(P_D) of the divisor's polytope.

    This is the top self-intersection D^n only when D is nef.  Otherwise it
    is the volume of D, the limit of n!·h^0(kD)/k^n, which can differ: on
    the Hirzebruch surface F1 (rays (1,0), (1,1), (0,1), (-1,-1)),
    D = (0,1,0,1) has D^2 = 0 and (0,3,0,1) has D^2 = -8, but both
    polytopes are the unit triangle and both values are 1.  A flat P_D, as
    for a nef D that is not big, gives 0; an empty one raises.
    """
    vol = _pulled_volume(divisor_polytope(fan, coeffs))
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
