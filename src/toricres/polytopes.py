"""Rational polytopes from divisor data, and top intersection numbers.

A polytope is stored by inequalities <m, normal_i> + offset_i >= 0 and
worked on as integer rows, each scaled by its offset's denominator.  For a
nef divisor on a complete fan it keeps the cone meets of
``divisors.support_meets``, integer numerators over a denominator, and its
integer bounding box comes from them by floor division; any other
polytope finds its vertices by integer Cramer's rule on every n-subset of
the rows and reads its box from them.  Lattice points are one integer walk
over the box in runs along the last coordinate: the row values of each
prefix are formed once, by adding one column of the rows to those of the
prefix before, and give both the run's exact interval and the exponent
vector at its first point.  No Fraction is built per point, per run or per
subset; the vertex list, exact Fractions, is built only when read.
Intersection numbers read no polytope: each is one sum of the cone
functionals over the fan's cone table.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, prod

from .divisors import slacks, support_meets
from .errors import InvalidFan, Unbounded
from .grading import representative_divisor
from .lattice import cramer, dot, hnf_rows, is_complete, mat_det
from .values import Value


class HPolytope(Value):
    """Intersection of half spaces <m, normal> + offset >= 0; normals are ints."""

    _fields = ("dim", "normals", "offsets")
    # the distinct (num, den) with vertex num/den, den > 0, when
    # ``divisor_polytope`` kept the cone meets of a nef divisor
    _meets = None

    def __init__(self, dim: int, normals: tuple[tuple[int, ...], ...],
                 offsets: tuple[Fraction, ...]):
        if len(normals) != len(offsets):
            raise ValueError("one offset per normal is required")
        if any(len(nr) != dim for nr in normals):
            raise ValueError("each normal needs one entry per dimension")
        self._set(dim, tuple(tuple(map(operator.index, nr)) for nr in normals),
                  tuple(Fraction(o) for o in offsets))

    def contains(self, point) -> bool:
        """Whether the point satisfies every inequality; ValueError unless it
        has one entry per dimension."""
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} entries in dimension {self.dim}")
        return all(dot(point, nr) + off >= 0
                   for nr, off in zip(self.normals, self.offsets))

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Integer (normal, offset) rows: each inequality times its offset's denominator."""
        return tuple((tuple(x * off.denominator for x in nr), off.numerator)
                     for nr, off in zip(self.normals, self.offsets))

    @cached_property
    def vertices(self) -> list[tuple[Fraction, ...]]:
        """The sorted vertex list, built when read: the Fraction view of the
        cone meets that ``divisor_polytope`` kept, else from n-subsets after
        a boundedness test.  ``divisor_polytope`` sets the list of a D that
        is not nef on a complete fan from n-subsets, with no such test."""
        if self._meets is not None:
            return sorted(tuple(Fraction(x, den) for x in num) for num, den in self._meets)
        if self.dim and not _is_bounded(self):
            raise Unbounded("polytope has an unbounded direction")
        return _vertices(self)

    @cached_property
    def _box(self) -> list[tuple[int, int]] | None:
        """The integer bounding box, (lo, hi) per coordinate, of the
        vertices, or None when there are none.  From kept cone meets it is
        integer floor division, lo = min ceil(num/den) and hi = max
        floor(num/den), and reads no vertex."""
        if self._meets is not None:
            return [(min(-(-num[j] // den) for num, den in self._meets),
                     max(num[j] // den for num, den in self._meets)) for j in range(self.dim)]
        verts = self.vertices
        if not verts:
            return None
        return [(ceil(min(v[j] for v in verts)), floor(max(v[j] for v in verts)))
                for j in range(self.dim)]


def divisor_polytope(fan, coeffs) -> HPolytope:
    """Sections polytope P_D of the divisor D with the given ray coefficients.

    On a complete fan the rays positively span N_R, so P_D is bounded, and D
    is nef iff every cone functional m_σ lies in P_D, read on the walls,
    and its vertices are then the distinct m_σ (Cox–Little–Schenck, *Toric
    Varieties*, §6.1).  The polytope then keeps the distinct meets
    (num, den*d), m_σ = num/(den*d), for its box and its vertex view; a D
    that is not nef enumerates n-subsets at once, with no boundedness
    test, and a fan that is not complete leaves both to ``vertices``.
    """
    poly = HPolytope(fan.dim, fan.rays, tuple(coeffs))
    if is_complete(fan):
        d, scaled, meets = support_meets(fan, poly.offsets)
        if all(s >= 0 for s in slacks(fan, scaled, meets, fan.walls)):
            object.__setattr__(poly, "_meets", {(num, den * d) for num, den in meets})
        else:
            object.__setattr__(poly, "vertices", _vertices(poly))
    return poly


def _vertices(poly: HPolytope):
    """All vertices, as sorted rational tuples, via active-set enumeration.

    Each n-subset of the rows with a nonzero determinant meets in one point,
    whose ``lattice.cramer`` key is its integer numerators over a positive
    denominator with no common factor.  A key is a vertex when
    <normal, num> + offset*den >= 0 on every row.
    """
    n, rows = poly.dim, poly._rows
    keys = {cramer([nr for nr, _ in subset], [-off for _, off in subset])
            for subset in itertools.combinations(rows, n)} - {None}
    return sorted(tuple(Fraction(x, den) for x in num) for num, den in keys
                  if all(dot(nr, num) + off * den >= 0 for nr, off in rows))


def _is_bounded(poly: HPolytope) -> bool:
    """Exact recession cone test: only the origin may satisfy all
    <v, normal> >= 0, exactly when the normals have rank n, read from one
    ``hnf_rows`` echelon form, and no kernel line of n-1 of them, spanned by
    its signed maximal minors, satisfies them all in either direction."""
    n, normals = poly.dim, poly.normals
    if len(hnf_rows(normals, n)) < n:
        return False
    for sub in itertools.combinations(normals, n - 1):
        v = [(-1) ** j * mat_det([nr[:j] + nr[j + 1:] for nr in sub]) for j in range(n)]
        if any(v) and any(all(s * dot(v, nr) >= 0 for nr in normals) for s in (1, -1)):
            return False
    return True


def _prefix_values(box, cols, s):
    """(p, s + sum_j p_j*cols[j]) for each integer p of the box, in
    lexicographic order: each step along a coordinate adds its column once."""
    if not box:
        yield (), s
        return
    (lo, hi), col = box[0], cols[0]
    s = [v + lo * c for v, c in zip(s, col)]
    for x in range(lo, hi + 1):
        for p, t in _prefix_values(box[1:], cols[1:], s):
            yield (x,) + p, t
        s = [v + c for v, c in zip(s, col)]


def _runs(poly: HPolytope):
    """The integer points of a polytope of dimension n >= 1, in lexicographic
    order, as runs (p, s, lo, hi): the points p + (x,) for lo <= x <= hi,
    at which integer row i takes the value s_i + c_i*x, c_i its last
    normal entry.

    The first n-1 coordinates run over ``_box``, and ``_prefix_values``
    forms the row values s of each prefix p once.  Rows with c = 0 are
    tested once per prefix; every other row bounds x by c*x + s >= 0, so
    x >= -(s // c) for c > 0 and x <= s // -c for c < 0.
    """
    box = poly._box
    if box is None:
        return
    cols = list(zip(*(nr for nr, _ in poly._rows)))
    flat = [i for i, c in enumerate(cols[-1]) if not c]
    up = [(i, c) for i, c in enumerate(cols[-1]) if c > 0]
    down = [(i, -c) for i, c in enumerate(cols[-1]) if c < 0]
    lo0, hi0 = box[-1]
    for p, s in _prefix_values(box[:-1], cols, [off for _, off in poly._rows]):
        if any(s[i] < 0 for i in flat):
            continue
        lo = max([lo0] + [-(s[i] // c) for i, c in up])
        hi = min([hi0] + [s[i] // c for i, c in down])
        if lo <= hi:
            yield p, s, lo, hi


def lattice_points(poly: HPolytope) -> list[tuple[int, ...]]:
    """All integer points, in lexicographic order: the runs, expanded."""
    if poly.dim == 0:
        return list(poly.vertices)  # none, or the one point ()
    return [p + (x,) for p, _, lo, hi in _runs(poly) for x in range(lo, hi + 1)]


def intersection_number(fan, *divisors) -> Fraction:
    """The intersection number D_1···D_n of n Q-divisors (coefficient
    vectors over the rays) on a complete simplicial fan, exactly, or the
    self-intersection D^n of one, as one sum over the maximal cones σ:

        D_1···D_n = sum_σ prod_j <-m_σ^(j), ξ> / (|det R_σ| · prod_i <u_σ,i, ξ>)

    with m_σ^(j) the cone functional of D_j from ``support_meets``
    (<m_σ, ray_i> = -a_i on σ's rays; one call for D^n) and u_σ,i the dual
    basis of σ's rays R_σ, the columns of adj R_σ / det R_σ from
    ``fan.cone_table``.  For nef D it is Brion's vertex formula for
    n!·vol(P_D) (Brion, *Points entiers dans les polyèdres convexes*, Ann.
    Sci. ENS 21, 1988).  For every D_j it is the Bott residue formula for
    the product of the T-equivariant classes (Edidin and Graham, Amer. J.
    Math. 120, 1998): at the fixed point of σ the class of D_j restricts to
    the character -m_σ^(j), the tangent weights are the u_σ,i, and
    1/|det R_σ| is the inverse order of the point's stabilizer.  The
    equivariant sum is a constant, so any ξ with no <u_σ,i, ξ> = 0 reads
    it: with ξ = (1, t, ..., t^(n-1)) each <adj column, ξ> is a nonzero
    integer polynomial in t, and t = 2 + max |adj R_σ entry| lies past its
    Cauchy root bound.  InvalidFan unless the fan is complete and
    simplicial; ValueError unless 1 or n divisors are given.
    """
    complete = is_complete(fan)
    if not complete:
        raise InvalidFan(f"intersection numbers need a complete fan: {complete.witness}")
    n = fan.dim
    if len(divisors) not in (1, n):
        raise ValueError(f"an intersection number takes 1 or {n} divisors, got {len(divisors)}")
    factors = [support_meets(fan, coeffs) for coeffs in divisors] * (n // len(divisors))
    t = 2 + max(abs(x) for _, adj in fan.cone_table for row in adj for x in row)
    xi = [t ** j for j in range(n)]
    total = Fraction(0)
    for meets, (det, adj) in zip(zip(*(m for _, _, m in factors)), fan.cone_table):
        weights = prod(dot(col, xi) for col in zip(*adj))
        total += Fraction(prod(-dot(num, xi) * det for num, _ in meets),
                          prod(den for _, den in meets) * abs(det) * weights)
    return total / prod(d for d, _, _ in factors)


def divisor_monomials(poly: HPolytope) -> list[tuple[int, ...]]:
    """Sorted exponent vectors e_i = <m, normal_i> + a_i of the monomials of
    the divisor sum a_i D_i (integer a_i), one per lattice point m.  A run
    (p, s, lo, hi) of ``_runs`` starts at e_i = s_i + c_i*lo, c_i the last
    normal entry, and each next e adds c: no dot product is taken."""
    out = []
    last = [nr[-1] for nr, _ in poly._rows]
    for _, s, lo, hi in _runs(poly):
        k = hi - lo + 1
        out.extend(zip(*(range(e + c * lo, e + c * (hi + 1), c) if c else itertools.repeat(e, k)
                         for e, c in zip(s, last))))
    return sorted(out)


def monomial_basis(fan, grading, target) -> list[tuple[int, ...]]:
    """All exponent vectors of the given degree class, in sorted order.

    Uses a divisor representative of the degree; monomials correspond to
    lattice points of its ``divisor_polytope`` via e_i = <m, ray_i> + a_i.
    """
    return divisor_monomials(divisor_polytope(fan, representative_divisor(grading, target)))
