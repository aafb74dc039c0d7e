"""Exact integer linear algebra and simplicial fan data.

Matrices are nested tuples/lists of Python ints, so nothing overflows and
every normal form (Smith, Hermite) carries unimodular transforms that can
be replayed and verified in tests.  There is one integer path for each
job and no arithmetic over Q: one fraction-free elimination of [A | B]
(``bareiss``) gives det A (``mat_det``), square solves (``cramer``) and
det R and adj R of each maximal cone (a fan's ``cone_table``, built once
with its ``facets`` and ``walls``); the Smith form solves over the
integers (``SmithDecomposition.solve``), and the Smith or Hermite form
gives a rank or a lattice; one pass over a fan's rays gives the Hermite
basis of their relations (``kernel_hermite_rows``).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .errors import InvalidFan
from .values import Value

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def as_index(x, must: str) -> int:
    """x as an exact int (``operator.index``), or TypeError: ``must``, not its type."""
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{must}, not {type(x).__name__}") from None


def as_rational(c):
    """c as an int or a Fraction, or TypeError: the one reader of a
    coefficient, which refuses a float, str, Decimal or complex, as those
    would be read in binary or parsed."""
    if isinstance(c, Fraction):
        return c
    try:
        return operator.index(c)
    except TypeError:
        raise TypeError(f"coefficient {c!r} is neither an int nor a Fraction") from None


def clear_denominators(values) -> tuple[int, list[int]]:
    """d, the lcm of the denominators of the rationals ``values``, and the
    integers d*v."""
    values = list(values)
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def freeze(rows) -> Mat:
    """Rows of integers as a tuple of tuples; each entry is read through
    ``operator.index``, so a float or a Fraction raises TypeError."""
    return tuple(tuple(map(operator.index, row)) for row in rows)


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return tuple(dot(row, v) for row in A)


def bareiss(A, B=()) -> tuple[int, list[list[int]] | None]:
    """(det A, X) with A·X = det(A)·B, so X = adj(A)·B, for a square integer
    matrix A and an integer matrix B of as many rows; (0, None) if det A = 0.

    One fraction-free elimination of [A | B] (Bareiss, Math. Comp. 22, 1968)
    leaves [U | C] with last pivot d = det(PA), P the row swaps.  Back
    substitution solves U·X = d·C, whose solution adj(PA)·PB is integral, so
    every division is exact; only then does the swaps' sign make it adj(A)·B.
    Entries are read through ``operator.index``: a Fraction raises TypeError.
    """
    n = len(A)
    if any(len(row) != n for row in A) or (B and len(B) != n):
        raise ValueError("elimination of a non-square matrix")
    M = [[*map(operator.index, a), *map(operator.index, b)] for a, b in zip(A, B or [()] * n)]
    sign = prev = 1
    for k in range(n):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0, None
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        Mk, pk = M[k], M[k][k]
        for Mi in M[k + 1:]:
            for j in range(k + 1, len(Mi)):
                Mi[j] = (Mi[j] * pk - Mi[k] * Mk[j]) // prev
        prev = pk
    for i in reversed(range(n)):
        for c in range(n, len(M[i])):
            M[i][c] = (prev * M[i][c] - sum(M[i][j] * M[j][c] for j in range(i + 1, n))) // M[i][i]
    return sign * prev, [[sign * x for x in row[n:]] for row in M]


def mat_det(A) -> int:
    """Exact determinant of an integer matrix: ``bareiss`` with no B."""
    return bareiss(A)[0]


def cramer(rows, rhs):
    """The one solution of the square integer system rows·x = rhs as
    ``(num, den)``, x = num/den in lowest terms with den > 0, from one
    ``bareiss``; None when det(rows) is 0."""
    den, X = bareiss(rows, [[b] for b in rhs])
    if den == 0:
        return None
    num = [x for x, in X]
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    return tuple(x // g for x in num), den // g


class SmithDecomposition(Value):
    """U A V = S with U, V unimodular and S diagonal with a divisibility chain."""

    __slots__ = _fields = ("U", "S", "V")

    def __init__(self, U: Mat, S: Mat, V: Mat):
        self._set(U, S, V)

    @property
    def diagonal(self) -> tuple[int, ...]:
        m = len(self.S)
        n = len(self.S[0]) if m else 0
        return tuple(self.S[i][i] for i in range(min(m, n)))

    def solve(self, b):
        """One integer solution of A x = b, or None; ValueError unless b has
        one entry per row of A."""
        m = len(self.S)
        n = len(self.V)
        b = tuple(b)
        if len(b) != m:
            raise ValueError(f"right-hand side has {len(b)} entries for {m} rows")
        ub = mat_vec(self.U, b)
        d = self.diagonal
        y = [0] * n
        for i in range(m):
            s = d[i] if i < len(d) else 0
            if s:
                if ub[i] % s:
                    return None
                y[i] = ub[i] // s
            elif ub[i] != 0:
                return None
        return tuple(sum(self.V[i][j] * y[j] for j in range(n)) for i in range(n))


def smith_normal_form(A, ncols: int = 0) -> SmithDecomposition:
    """Smith normal form with transforms, by pivoting on least-magnitude
    entries; ``ncols`` is the column count of an A with no rows.  The pivot
    is the first least entry in row-major order; the search for it ends
    with the row of the first entry of magnitude 1, as none is smaller.
    Once the pivot's row and column are cleared, a trailing entry the pivot
    does not divide is added into its row and the pivot sought again; a
    pivot of 1 divides every entry, so it skips that search."""
    m = len(A)
    n = len(A[0]) if m else ncols
    S = [list(map(operator.index, row)) for row in A]
    U = mat_identity(m)
    V = mat_identity(n)

    def row_sub(i, j, q):
        if q:
            S[i] = [a - q * b for a, b in zip(S[i], S[j])]
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(j, k, q):
        if q:
            for row in S:
                row[j] -= q * row[k]
            for row in V:
                row[j] -= q * row[k]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    for t in range(min(m, n)):
        while True:
            best, least = None, 0
            for i in range(t, m):
                for j, a in enumerate(S[i][t:], t):
                    if a and (best is None or abs(a) < least):
                        best, least = (i, j), abs(a)
                if least == 1:
                    break
            if best is None:
                break
            row_swap(t, best[0])
            col_swap(t, best[1])
            if S[t][t] < 0:
                row_neg(t)
            p = S[t][t]
            dirty = False
            for i in range(t + 1, m):
                q = S[i][t] // p
                row_sub(i, t, q)
                dirty |= S[i][t] != 0
            for j in range(t + 1, n):
                q = S[t][j] // p
                col_sub(j, t, q)
                dirty |= S[t][j] != 0
            if dirty:
                continue
            if p == 1:  # every integer is a multiple of a unit: nothing is off
                break
            off = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                        if S[i][j] % p), None)
            if off is None:
                break
            row_sub(t, off[0], -1)
        if all(S[i][j] == 0 for i in range(t, m) for j in range(t, n)):
            break
    return SmithDecomposition(freeze(U), freeze(S), freeze(V))


def hnf_rows(vectors, ncols, align="right"):
    """Echelon basis of the integer row span of ``vectors``.

    Returns a list of (row, pivot_column) pairs in processing order; each
    pivot is positive and later rows vanish at all earlier pivot columns.
    ``align="right"`` scans columns right to left, which is the form used
    for canonical coset representatives; ``"left"`` scans left to right.
    """
    work = [list(map(operator.index, v)) for v in vectors if any(v)]
    cols = range(ncols - 1, -1, -1) if align == "right" else range(ncols)
    out = []
    for c in cols:
        while True:
            live = [r for r in work if r[c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[c]))
            r0 = live[0]
            if r0[c] < 0:
                r0[:] = [-a for a in r0]
            for r in live[1:]:
                q = r[c] // r0[c]
                r[:] = [a - q * b for a, b in zip(r, r0)]
        live = [r for r in work if r[c] != 0]
        if not live:
            continue
        piv = live[0]
        if piv[c] < 0:
            piv[:] = [-a for a in piv]
        work = [r for r in work if r is not piv]
        out.append((tuple(piv), c))
    return out


def reduce_mod_lattice(v, hnf_basis):
    """Canonical representative of v modulo the row span described by hnf_rows."""
    a = list(map(operator.index, v))
    for row, c in hnf_basis:
        q = a[c] // row[c]
        if q:
            a = [x - q * y for x, y in zip(a, row)]
    return tuple(a)


def kernel_hermite_rows(rays, n) -> tuple[Mat, int]:
    """The reduced left Hermite basis of K = {a : Σ a_i η_i = 0}, the
    integer relations of the rays η_i in Z^n, and the index of the rays'
    span in Z^n (0 when its rank is below n), in one pass over the rays
    from right to left.

    Let Λ_j = span_Z{η_l : l > j} and K_j = K ∩ {a_l = 0, l < j}, of rank
    (m - j) - rank{η_l : l >= j}.  Column j is a pivot of K's left Hermite
    form iff rank K_j > rank K_(j+1), that is iff η_j lies in span_Q Λ_j;
    else η_j joins Q, the rightmost independent rays.  The pivot g_j, the
    least positive a_j on K_j, is the order of η_j mod Λ_j.  When g_j = 1,
    η_j lies in Λ_j and Λ_(j-1) = Λ_j: so Λ_j is spanned by the rays of Q
    and the special rays l > j, those with g_l > 1.  The pass keeps an
    echelon basis of Λ_j with each vector's integer expression over those
    rays.  Reducing η_j by it column by column, scaled each time by the
    least factor that makes the quotient exact, gives g_j, the lcm of the
    denominators of η_j's coordinates in that basis, and the expression of
    g_j·η_j.  Row j is g_j·e_j minus that expression, reduced into
    [0, g_l) at each later special pivot l, left to right, by row l, which
    is zero left of l; it has no entry at another unit pivot, as no
    expression has.  So the rows lie in K, with K's pivots and pivot values
    and the reduction of a reduced Hermite basis, which is unique: they are
    K's.  The index is the product of the pivots of Λ_(-1)'s echelon basis.
    """
    m = len(rays)
    basis = {}  # pivot column -> (vector, expression over Q and the special rays)
    rows = {}  # pivot ray -> its row, sparse
    special = []  # special pivots, right to left

    def insert(v, e):  # Euclid on rows at each column; a new pivot meets a zero row
        for c in range(n):
            if v[c]:
                b, be = basis.get(c, ([0] * n, {}))
                while v[c]:
                    q = b[c] // v[c]
                    b, v = v, [x - q * y for x, y in zip(b, v)]
                    be, e = e, {l: be.get(l, 0) - q * e.get(l, 0) for l in be.keys() | e.keys()}
                sign = 1 if b[c] > 0 else -1
                basis[c] = ([sign * x for x in b], {l: sign * a for l, a in be.items()})

    for j in range(m - 1, -1, -1):
        v, s, coef = list(rays[j]), 1, {}  # s·η_j = v + Σ coef[c]·basis[c]
        for c in range(n):
            if not v[c]:
                continue
            if c not in basis:
                s = 0
                break
            b, p = basis[c][0], basis[c][0][c]
            t = p // gcd(p, v[c])
            if t > 1:
                s, v = s * t, [t * x for x in v]
                coef = {k: t * x for k, x in coef.items()}
            q = v[c] // p
            v = [x - q * y for x, y in zip(v, b)]
            coef[c] = coef.get(c, 0) + q
        if s:
            row = {j: s}
            for c, k in coef.items():
                for l, a in basis[c][1].items():
                    row[l] = row.get(l, 0) - k * a
            for l in reversed(special):
                q = row.get(l, 0) // rows[l][l]
                if q:
                    for i, a in rows[l].items():
                        row[i] = row.get(i, 0) - q * a
            rows[j] = row
            if s > 1:
                special.append(j)
        if s != 1:
            insert(list(rays[j]), {j: 1})
    index = prod(b[c] for c, (b, _) in basis.items()) if len(basis) == n else 0
    out = []
    for j in sorted(rows):
        dense = [0] * m
        for l, a in rows[j].items():
            dense[l] = a
        out.append(tuple(dense))
    return tuple(out), index


def hnf_reduced_rows(vectors, ncols):
    """Left-aligned fully reduced Hermite form rows (canonical lattice basis)."""
    ech = hnf_rows(vectors, ncols, align="left")
    rows = [list(r) for r, _ in ech]
    pivs = [c for _, c in ech]
    for i in range(len(rows)):
        for j in range(len(rows)):
            if j == i:
                continue
            c = pivs[j]
            q = rows[i][c] // rows[j][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
    paired = sorted(zip(pivs, rows))
    return [tuple(r) for _, r in paired]


# ---------------------------------------------------------------------------
# fans


class FanData(Value):
    """A fan given by its rays and maximal cones (0-based ray index sets)."""

    _fields = ("dim", "rays", "max_cones", "variables")

    def __init__(self, dim: int, rays: Mat, max_cones: tuple[tuple[int, ...], ...],
                 variables: tuple[str, ...]):
        self._set(operator.index(dim), freeze(rays), freeze(max_cones), tuple(variables))
        n = self.dim
        if n < 1:
            raise InvalidFan("ambient dimension must be positive")
        if len(self.rays) < n:
            raise InvalidFan("fewer rays than the ambient dimension")
        seen = set()
        for k, ray in enumerate(self.rays):
            if len(ray) != n:
                raise InvalidFan(f"ray {k} has wrong length")
            if not any(ray):
                raise InvalidFan(f"ray {k} is zero")
            if gcd(*ray) != 1:
                raise InvalidFan(f"ray {k} is not primitive")
            if ray in seen:
                raise InvalidFan(f"ray {k} repeats an earlier ray")
            seen.add(ray)
        for k, cone in enumerate(self.max_cones):
            if tuple(sorted(set(cone))) != cone:
                raise InvalidFan(f"cone {k} is not a sorted duplicate-free index set")
            if any(i < 0 or i >= len(self.rays) for i in cone):
                raise InvalidFan(f"cone {k} references a missing ray")
        if len(self.variables) != len(self.rays):
            raise InvalidFan("one variable per ray is required")
        if len(set(self.variables)) != len(self.variables):
            raise InvalidFan("variable names must be distinct")

    @property
    def nvars(self) -> int:
        return len(self.rays)

    def cone(self, k) -> tuple[int, ...]:
        """Ray indices of maximal cone k; ValueError unless 0 <= k < count."""
        if not 0 <= k < len(self.max_cones):
            raise ValueError(f"no maximal cone with index {k}")
        return self.max_cones[k]

    def cone_rays(self, k):
        return tuple(self.rays[i] for i in self.cone(k))

    @cached_property
    def cone_table(self) -> tuple[tuple[int, Mat | None], ...]:
        """(det R, adj R) of each maximal cone's rays R, or (0, None) when the
        cone lacks dim independent rays: x = adj(R) b / det R solves R x = b."""
        table = [(0, None)] * len(self.max_cones)
        for k, cone in enumerate(self.max_cones):
            if len(cone) == self.dim:
                det, adj = bareiss(self.cone_rays(k), mat_identity(self.dim))
                table[k] = (det, freeze(adj)) if det else (0, None)
        return tuple(table)

    @cached_property
    def facets(self) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        """Each facet, a maximal cone's rays but the p-th, to its (cone, p) pairs."""
        facets = {}
        for k, cone in enumerate(self.max_cones):
            for p in range(len(cone)):
                facets.setdefault(cone[:p] + cone[p + 1:], []).append((k, p))
        return facets

    @cached_property
    def walls(self) -> tuple[tuple[int, int], ...]:
        """(k, j) for each facet of cone k shared with one cone k', j the apex of k'."""
        return tuple((k, self.max_cones[k2][p2])
                     for pairs in self.facets.values() if len(pairs) == 2
                     for (k, _), (k2, p2) in (pairs, pairs[::-1]))

    @cached_property
    def completeness(self) -> CompletenessReport:
        """``is_complete``'s report, computed once per fan."""
        return _completeness(self)


def make_fan(dim, rays, max_cones, variables=None, one_based=False):
    rays = freeze(rays)
    shift = 1 if one_based else 0
    cones = tuple(tuple(sorted({operator.index(i) - shift for i in cone})) for cone in max_cones)
    if variables is None:
        variables = tuple(f"x{i + 1}" for i in range(len(rays)))
    return FanData(dim, rays, cones, variables)


def cone_det(fan: FanData, k: int) -> int:
    """Signed determinant of cone k's rays in ascending order, or 0 when the
    cone lacks dim independent rays (``fan.cone_table``).  Its sign orients
    the cone and its absolute value is the index of the sublattice spanned."""
    fan.cone(k)  # ValueError unless 0 <= k < count
    return fan.cone_table[k][0]


def is_simplicial(fan: FanData) -> bool:
    """Every maximal cone is generated by dim-many independent rays."""
    return all(det for det, _ in fan.cone_table)


def cone_group_order(fan: FanData, k: int) -> int:
    """Index of the sublattice spanned by the cone's rays."""
    d = cone_det(fan, k)
    if d == 0:
        raise InvalidFan(f"cone {k} does not have {fan.dim} independent rays")
    return abs(d)


class CompletenessReport(Value):
    __slots__ = _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: str | None = None):
        self._set(ok, witness)

    def __bool__(self):
        return self.ok


def is_complete(fan: FanData) -> CompletenessReport:
    """Exact completeness test, run once per fan: ``fan.completeness``."""
    return fan.completeness


def _completeness(fan: FanData) -> CompletenessReport:
    """The completeness test behind ``is_complete``.

    Checks simpliciality, that every ray is used, that every facet of a
    maximal cone is shared by exactly two of them and that those two lie on
    opposite sides of it, and that the sum of the rays of cone 0 lies in no
    other closed cone.

    The facet conditions make the number of cones that contain a generic
    vector the same everywhere, and a point inside cone 0 lies in a second
    closed cone exactly when that number exceeds one; together the checks
    say that the cones cover the space exactly once.  No determinant is
    taken: cone k lies on the side of a facet given by the sign of det R_k
    times (-1)^(n-1-p), p its apex's position, and λ = adj(R_k)^T inner /
    det R_k writes cone 0's ray sum as sum λ_i r_i on cone k."""
    n = fan.dim
    if not fan.max_cones:
        return CompletenessReport(False, "no maximal cones")
    if not is_simplicial(fan):
        return CompletenessReport(False, "a maximal cone is not simplicial of full dimension")
    if missing := sorted(set(range(fan.nvars)).difference(*fan.max_cones)):
        return CompletenessReport(False, f"rays {missing} lie in no maximal cone")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        return CompletenessReport(False, "duplicate maximal cone")
    table = fan.cone_table
    for facet, pairs in sorted(fan.facets.items()):
        if len(pairs) != 2:
            return CompletenessReport(
                False, f"facet {facet} lies in {len(pairs)} maximal cones")
        sides = [(table[k][0] > 0) != ((n - 1 - p) % 2) for k, p in pairs]
        if sides[0] == sides[1]:
            return CompletenessReport(
                False, f"cones {pairs[0][0]} and {pairs[1][0]} lie on the same side "
                       f"of facet {facet}")
    inner = tuple(sum(col) for col in zip(*fan.cone_rays(0)))
    for k in range(1, len(fan.max_cones)):
        det, adj = table[k]
        if all(det * dot(col, inner) >= 0 for col in zip(*adj)):
            return CompletenessReport(
                False, f"cone {k} contains {inner}, an interior point of cone 0")
    return CompletenessReport(True)
