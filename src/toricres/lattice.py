"""Exact integer linear algebra and simplicial fan data.

Matrices are nested tuples/lists of Python ints, so nothing overflows and
every normal form (Smith, Hermite) carries unimodular transforms that can
be replayed and verified in tests.  There is one integer path for each
job and no arithmetic over Q: determinants are Bareiss eliminations of
integer matrices (``mat_det``, and ``cone_det`` for a cone's rays), a
square system is solved by Cramer's rule (``cramer``), a system over the
integers by the Smith form (``SmithDecomposition.solve``), the trace of
A^-1 B by one Bareiss elimination of A + tB (``trace_of_solve``), and a rank
or a lattice is read from the Smith or Hermite form.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidFan

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def vec_content(v) -> int:
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def freeze(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A:
        return []
    cols = list(zip(*B)) if B else []
    return [[dot(row, col) for col in cols] for row in A] if cols else [[] for _ in A]


def mat_vec(A, v):
    return tuple(dot(row, v) for row in A)


def mat_det(A) -> int:
    """Exact determinant of an integer matrix by fraction-free Bareiss
    elimination.  Entries must be integers: each is read through
    ``operator.index``, so a Fraction raises TypeError."""
    n = len(A)
    if n == 0:
        return 1
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    M = [list(map(operator.index, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def trace_of_solve(A, B) -> Fraction | None:
    """Tr(A^-1 B) for square integer matrices of one size, or None when
    det A = 0.

    One Bareiss elimination of A + tB over Z[t]/(t^2), pivoting on constant
    terms, since det(A + tB) = det A * (1 + t Tr(A^-1 B)) mod t^2.  Every
    Bareiss quotient is exact over Z[t], and its divisor, a previous pivot,
    has a nonzero constant term, so the quotient's two low coefficients are
    exact integer quotients.  A column with no nonzero constant term left
    means det A = 0.
    """
    n = len(A)
    P = [list(map(operator.index, row)) for row in A]
    T = [list(map(operator.index, row)) for row in B]
    p0, p1 = 1, 0
    for k in range(n):
        swap = next((i for i in range(k, n) if P[i][k]), None)
        if swap is None:
            return None
        P[k], P[swap], T[k], T[swap] = P[swap], P[k], T[swap], T[k]
        a0, a1, Pk, Tk = P[k][k], T[k][k], P[k], T[k]
        for i in range(k + 1, n):
            Pi, Ti = P[i], T[i]
            b0, b1 = Pi[k], Ti[k]
            for j in range(k + 1, n):
                q0 = (Pi[j] * a0 - b0 * Pk[j]) // p0
                Ti[j] = (Pi[j] * a1 + Ti[j] * a0 - b0 * Tk[j] - b1 * Pk[j] - q0 * p1) // p0
                Pi[j] = q0
        p0, p1 = a0, a1
    return Fraction(p1, p0)


def cramer(rows, rhs):
    """The one solution of the square integer system rows·x = rhs, or None
    when det(rows) is 0.

    Returns ``(num, den)`` with x = num/den: the Cramer numerators over the
    determinant, divided by their common gcd so that ``den`` is positive.
    """
    den = mat_det(rows)
    if den == 0:
        return None
    num = [mat_det([[*row[:j], b, *row[j + 1:]] for row, b in zip(rows, rhs)])
           for j in range(len(rows))]
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    return tuple(x // g for x in num), den // g


@dataclass(frozen=True)
class SmithDecomposition:
    """U A V = S with U, V unimodular and S diagonal with a divisibility chain."""

    U: Mat
    S: Mat
    V: Mat

    @property
    def diagonal(self) -> tuple[int, ...]:
        m = len(self.S)
        n = len(self.S[0]) if m else 0
        return tuple(self.S[i][i] for i in range(min(m, n)))

    def verify(self, A) -> bool:
        prod = mat_mul(mat_mul([list(r) for r in self.U], [list(r) for r in A]),
                       [list(r) for r in self.V])
        if freeze(prod) != self.S:
            return False
        d = self.diagonal
        for i in range(len(d) - 1):
            if d[i] == 0 and d[i + 1] != 0:
                return False
            if d[i] and d[i + 1] % d[i] != 0:
                return False
        if any(x < 0 for x in d):
            return False
        m = len(self.S)
        n = len(self.S[0]) if m else 0
        off = all(self.S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        return off and abs(mat_det(self.U)) == 1 and abs(mat_det(self.V)) == 1

    def solve(self, b):
        """One integer solution of A x = b, or None."""
        m = len(self.S)
        n = len(self.V)
        ub = mat_vec(self.U, tuple(b))
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


def smith_normal_form(A) -> SmithDecomposition:
    """Smith normal form with transforms, by pivoting on least-magnitude entries."""
    m = len(A)
    n = len(A[0]) if m else 0
    S = [[int(x) for x in row] for row in A]
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
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if S[i][j] and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                        best = (i, j)
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
    work = [[int(x) for x in v] for v in vectors if any(v)]
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
    a = [int(x) for x in v]
    for row, c in hnf_basis:
        q = a[c] // row[c]
        if q:
            a = [x - q * y for x, y in zip(a, row)]
    return tuple(a)


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


@dataclass(frozen=True)
class FanData:
    """A fan given by its rays and maximal cones (0-based ray index sets)."""

    dim: int
    rays: Mat
    max_cones: tuple[tuple[int, ...], ...]
    variables: tuple[str, ...]

    def __post_init__(self):
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
            if vec_content(ray) != 1:
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

    def cone_rays(self, k):
        return tuple(self.rays[i] for i in self.max_cones[k])


def make_fan(dim, rays, max_cones, variables=None, one_based=False):
    rays = freeze(rays)
    cones = []
    for cone in max_cones:
        idx = [int(i) - 1 for i in cone] if one_based else [int(i) for i in cone]
        cones.append(tuple(sorted(set(idx))))
    if variables is None:
        variables = tuple(f"x{i + 1}" for i in range(len(rays)))
    return FanData(int(dim), rays, tuple(cones), tuple(variables))


def cone_det(fan: FanData, k: int) -> int:
    """Signed determinant of cone k's rays in ascending order, or 0 when the
    cone lacks dim independent rays.  Its sign orients the cone and its
    absolute value is the index of the sublattice the rays span."""
    return mat_det(fan.cone_rays(k)) if len(fan.max_cones[k]) == fan.dim else 0


def is_simplicial(fan: FanData) -> bool:
    """Every maximal cone is generated by dim-many independent rays."""
    return all(cone_det(fan, k) for k in range(len(fan.max_cones)))


def cone_group_order(fan: FanData, k: int) -> int:
    """Index of the sublattice spanned by the cone's rays."""
    d = cone_det(fan, k)
    if d == 0:
        raise InvalidFan(f"cone {k} does not have {fan.dim} independent rays")
    return abs(d)


@dataclass(frozen=True)
class CompletenessReport:
    ok: bool
    witness: str | None = None

    def __bool__(self):
        return self.ok


def is_complete(fan: FanData) -> CompletenessReport:
    """Exact completeness test.

    Checks simpliciality, that every ray is used, that every facet of a
    maximal cone is shared by exactly two of them and that those two lie on
    opposite sides of it, and that the sum of the rays of cone 0 lies in no
    other closed cone.

    The facet conditions make the number of cones that contain a generic
    vector the same everywhere, and a point inside cone 0 lies in a second
    closed cone exactly when that number exceeds one; together the checks
    say that the cones cover the space exactly once.  The cost is one
    determinant per cone and facet, and one Cramer solve per cone, whose
    positive denominator lets λ >= 0 be read off the numerators.
    """
    n = fan.dim
    if not fan.max_cones:
        return CompletenessReport(False, "no maximal cones")
    if not is_simplicial(fan):
        return CompletenessReport(False, "a maximal cone is not simplicial of full dimension")
    used = set()
    for cone in fan.max_cones:
        used.update(cone)
    if used != set(range(fan.nvars)):
        missing = sorted(set(range(fan.nvars)) - used)
        return CompletenessReport(False, f"rays {missing} lie in no maximal cone")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        return CompletenessReport(False, "duplicate maximal cone")
    if n == 1:
        dirs = {fan.rays[cone[0]][0] for cone in fan.max_cones}
        if dirs == {1, -1} and len(fan.max_cones) == 2:
            return CompletenessReport(True)
        return CompletenessReport(False, "the two half-lines are not both covered exactly once")
    facet_cones = {}
    for k, cone in enumerate(fan.max_cones):
        for facet in itertools.combinations(cone, n - 1):
            facet_cones.setdefault(facet, []).append(k)
    for facet, cones in sorted(facet_cones.items()):
        if len(cones) != 2:
            return CompletenessReport(
                False, f"facet {facet} lies in {len(cones)} maximal cones")
        sides = []
        for k in cones:
            apex = next(i for i in fan.max_cones[k] if i not in facet)
            sides.append(mat_det([fan.rays[i] for i in facet + (apex,)]) > 0)
        if sides[0] == sides[1]:
            return CompletenessReport(
                False, f"cones {cones[0]} and {cones[1]} lie on the same side "
                       f"of facet {facet}")
    inner = tuple(sum(col) for col in zip(*fan.cone_rays(0)))
    for k in range(1, len(fan.max_cones)):
        num, _ = cramer(list(zip(*fan.cone_rays(k))), inner)
        if all(x >= 0 for x in num):
            return CompletenessReport(
                False, f"cone {k} contains {inner}, an interior point of cone 0")
    return CompletenessReport(True)
