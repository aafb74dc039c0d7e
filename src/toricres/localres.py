"""Numeric cross-check: residues as sums over the zeros of n of the inputs.

Dropping one input leaves a square system per chart.  Its zeros are found
exactly up to the final numeric step: lex Groebner basis, shape position
(with seeded random coordinate changes as fallback), simultaneous univariate
root iteration, back substitution, then Newton polishing in double
precision.  Only simple zeros in the dense torus are accepted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InfiniteIntersection,
    NonSimpleZero,
    NotShapePosition,
    NotTorusZero,
    NotZeroDimensional,
    ZeroOnPolarLocus,
)
from .groebner import (
    GroebnerBasis,
    leading_term,
    lex,
    quotient_is_finite,
    standard_monomials,
)
from .poly import MultiPoly, dehomogenize

RESIDUAL_TOL = 1e-9
SEPARATION_TOL = 1e-6
COMPARE_TOL = 1e-8


# ---------------------------------------------------------------------------
# exact univariate helpers (coefficient lists over Fraction, low degree first)

def _uni_coeffs(p: MultiPoly, var: int) -> list[Fraction]:
    deg = max((e[var] for e in p.terms), default=0)
    out = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        if any(e[i] for i in range(p.nvars) if i != var):
            raise ValueError("polynomial is not univariate in the given variable")
        out[e[var]] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _uni_deriv(c):
    return [i * c[i] for i in range(1, len(c))] or [Fraction(0)]


def _uni_rem(a, b):
    rem = list(a)
    db = len(b) - 1
    inv = 1 / b[-1]
    while len(rem) - 1 >= db and any(x != 0 for x in rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        f = rem[-1] * inv
        shift = len(rem) - 1 - db
        for i in range(db + 1):
            rem[shift + i] -= f * b[i]
        rem.pop()
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem or [Fraction(0)]


def _uni_gcd(a, b):
    a, b = list(a), list(b)
    while any(x != 0 for x in b):
        a, b = b, _uni_rem(a, b)
    return [x / a[-1] for x in a]


def _uni_divexact(a, b):
    rem = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        f = rem[k + db] / b[-1]
        q[k] = f
        if f:
            for i in range(db + 1):
                rem[k + i] -= f * b[i]
    return q


def _squarefree(c):
    """Monic squarefree part of a univariate coefficient list."""
    g = _uni_gcd(c, _uni_deriv(c))
    if len(g) == 1:
        return [x / c[-1] for x in c]
    q = _uni_divexact(c, g)
    return [x / q[-1] for x in q]


def _roots_dk(coeffs) -> list[complex]:
    """All roots of a squarefree polynomial by simultaneous iteration."""
    c = [complex(x) for x in coeffs]
    lead = c[-1]
    c = [x / lead for x in c]
    d = len(c) - 1
    if d == 0:
        return []
    if d == 1:
        return [-c[0]]
    radius = 1.0 + max(abs(x) for x in c[:-1])
    z = [radius * (0.4 + 0.9j) ** k for k in range(1, d + 1)]

    def ev(x):
        v = 0j
        for a in reversed(c):
            v = v * x + a
        return v

    for _ in range(500):
        moved = 0.0
        for i in range(d):
            denom = 1.0 + 0j
            for j in range(d):
                if j != i:
                    denom *= z[i] - z[j]
            if denom == 0:
                z[i] += 1e-8 * (1 + 1j)
                continue
            step = ev(z[i]) / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return z


# ---------------------------------------------------------------------------
# shape-position solving

def _shape_parts(gb: GroebnerBasis, nv: int):
    """(univariate coefficients in the last variable, substitution tails)
    or None when the basis is not triangular in shape form."""
    last = nv - 1
    q = None
    tails = {}
    for g in gb.generators:
        le, _ = leading_term(g, gb.order)
        if all(le[i] == 0 for i in range(last)):
            if q is not None:
                return None
            q = g
        elif sum(le) == 1 and 1 in le:
            i = le.index(1)
            tail = g - MultiPoly.variable(nv, i)
            if any(any(e[j] for j in range(nv) if j != last) for e in tail.terms):
                return None
            if i in tails:
                return None
            tails[i] = tail
        else:
            return None
    if q is None or set(tails) != set(range(last)):
        return None
    return _uni_coeffs(q, last), tails


def solve_chart_system(polys, seed: int = 0):
    """All complex zeros of a square zero-dimensional system.

    Returns (zeros, quotient_dim).  Raises NotZeroDimensional for a positive
    dimensional system, NotShapePosition when triangularization fails after
    seeded coordinate changes, NonSimpleZero when the count of distinct roots
    falls short of the quotient dimension.  Finiteness and the quotient
    dimension are read from the lex basis of the first attempt, which is
    a basis of the system's own ideal.
    """
    polys = [p for p in polys]
    if not polys:
        raise ValueError("empty system")
    nv = polys[0].nvars
    gb = GroebnerBasis.of(polys, lex(nv))
    if not quotient_is_finite(gb):
        raise NotZeroDimensional("chart system has positive-dimensional zeros")
    qdim = len(standard_monomials(gb))
    if qdim == 0:
        return [], 0

    system = [_complex_terms(p) for p in polys]
    rng = random.Random(seed)
    change = None
    for attempt in range(6):
        if attempt:
            # last variable becomes a generic separating functional; the
            # change matrix is unitriangular so no determinant check needed
            C = [[1 if i == j else 0 for j in range(nv)] for i in range(nv)]
            for j in range(nv - 1):
                C[nv - 1][j] = rng.randint(-9, 9)
            subs = {}
            for i in range(nv):
                acc = MultiPoly.zero(nv)
                for j in range(nv):
                    if C[i][j]:
                        acc = acc + C[i][j] * MultiPoly.variable(nv, j)
                subs[i] = acc
            change = C
            gb = GroebnerBasis.of([p.substitute(subs) for p in polys], lex(nv))
        parts = _shape_parts(gb, nv)
        if parts is None:
            continue
        qcoeffs, tails = parts
        sq = _squarefree(qcoeffs)
        roots = _roots_dk(sq)
        pts = []
        for r in roots:
            coords = [0j] * nv
            coords[nv - 1] = r
            for i in range(nv - 1):
                coords[i] = -complex(tails[i].evaluate(coords))
            if change is not None:
                coords = [sum(change[i][j] * coords[j] for j in range(nv))
                          for i in range(nv)]
            pts.append(tuple(coords))
        pts = _newton_refine(polys, system, pts)
        pts = [p for p in pts if _residual(system, p) < RESIDUAL_TOL]
        pts = _dedupe(pts)
        if len(pts) < len(roots):
            raise NonSimpleZero(
                f"found {len(pts)} isolated roots for {len(roots)} candidates")
        if len(pts) != qdim:
            raise NonSimpleZero(
                f"{qdim}-dimensional quotient but {len(pts)} distinct zeros")
        return pts, qdim
    raise NotShapePosition("no triangular basis after coordinate changes")


def _complex_terms(p: MultiPoly):
    """Terms of p as (complex(c), ((variable, power), ..)): complex(c) is what
    a Fraction c becomes when it meets a complex value, so ``_evaluate`` at
    complex points repeats the operations of ``MultiPoly.evaluate``."""
    return [(complex(c), tuple((i, k) for i, k in enumerate(e) if k))
            for e, c in p.terms.items()]


def _evaluate(terms, pt):
    """Value at pt of a polynomial given by ``_complex_terms``."""
    total = 0
    for c, powers in terms:
        v = c
        for i, k in powers:
            v = v * pt[i] ** k
        total = total + v
    return total


def _residual(system, pt) -> float:
    return max(abs(complex(_evaluate(p, pt))) for p in system)


def _dedupe(pts):
    out = []
    for p in pts:
        if all(max(abs(a - b) for a, b in zip(p, q)) > SEPARATION_TOL for q in out):
            out.append(p)
    return out


def _jacobian_terms(polys, nv: int):
    """``_complex_terms`` of every partial derivative, by row and column."""
    return [[_complex_terms(p.partial(j)) for j in range(nv)] for p in polys]


def _jacobian_at(jac, z):
    """Matrix at z of a Jacobian from ``_jacobian_terms``."""
    return np.array([[complex(_evaluate(entry, z)) for entry in row] for row in jac])


def _newton_refine(polys, system, pts, steps: int = 30):
    jac = _jacobian_terms(polys, polys[0].nvars)
    out = []
    for pt in pts:
        x = np.array(pt, dtype=complex)
        for _ in range(steps):
            xt = tuple(x)
            fval = np.array([complex(_evaluate(p, xt)) for p in system])
            if max(abs(v) for v in fval) < 1e-15:
                break
            try:
                dx = np.linalg.solve(_jacobian_at(jac, xt), -fval)
            except np.linalg.LinAlgError:
                break
            x = x + dx
            if max(abs(v) for v in dx) < 1e-15:
                break
        out.append(tuple(complex(v) for v in x))
    return out


# ---------------------------------------------------------------------------
# residue sums

@dataclass(frozen=True)
class NumericZeroSet:
    cone: int
    zeros: tuple
    jacobians: tuple
    quotient_dim: int


def chart_zero_set(problem, k: int, cone_index: int | None = None,
                   seed: int = 0) -> NumericZeroSet:
    """Zeros, in one chart, of the system with input k dropped."""
    fan = problem.fan
    cone = problem.sigma if cone_index is None else cone_index
    charts = [dehomogenize(p, fan, cone) for p in problem.polys]
    system = [f for i, f in enumerate(charts) if i != k]
    try:
        zeros, qdim = solve_chart_system(system, seed=seed)
    except NotZeroDimensional as exc:
        raise InfiniteIntersection(
            f"inputs excluding {k} meet in positive dimension in cone {cone}"
        ) from exc
    nv = fan.dim
    jac = _jacobian_terms(system, nv)
    jacs = tuple(complex(np.linalg.det(_jacobian_at(jac, z))) for z in zeros)
    return NumericZeroSet(cone, tuple(zeros), jacs, qdim)


def local_residue_simple(problem, H: MultiPoly, k: int, zero,
                         jacobian: complex, cone_index: int | None = None) -> complex:
    """Residue contribution of one simple zero: value over polar factor and
    the square system's Jacobian determinant."""
    fan = problem.fan
    cone = problem.sigma if cone_index is None else cone_index
    fk = dehomogenize(problem.polys[k], fan, cone)
    h = dehomogenize(H, fan, cone)
    fk_val = complex(_evaluate(_complex_terms(fk), zero))
    if abs(fk_val) < RESIDUAL_TOL:
        raise ZeroOnPolarLocus("dropped input vanishes at the zero")
    if abs(jacobian) < RESIDUAL_TOL:
        raise NonSimpleZero("vanishing Jacobian at the zero")
    return complex(_evaluate(_complex_terms(h), zero)) / (fk_val * jacobian)


def sum_local_residues(problem, H: MultiPoly, k: int, seed: int = 0) -> complex:
    """Signed sum of the local residues over all zeros of the k-dropped system.

    Every chart is screened first: the system must be zero-dimensional there
    and all of its zeros must stay inside the dense torus.  The sum itself is
    taken in the problem's distinguished chart, where the orientation of the
    basis makes the chart form factor cancel against the chart group order.
    """
    fan = problem.fan
    sets = {}
    for cone in range(len(fan.max_cones)):
        zs = chart_zero_set(problem, k, cone, seed=seed)
        for z in zs.zeros:
            if any(abs(c) < SEPARATION_TOL for c in z):
                raise NotTorusZero(
                    f"zero with a vanishing coordinate in cone {cone}")
        sets[cone] = zs
    zs = sets[problem.sigma]
    total = 0j
    for z, jac in zip(zs.zeros, zs.jacobians):
        total += local_residue_simple(problem, H, k, z, jac)
    return (-1) ** k * total


def euler_jacobi_check(nvars: int, f_list, g: MultiPoly, seed: int = 0):
    """Sum of torus residues of g against the given divisor polynomials,
    weighted by the torus form; returns (vanishes, total)."""
    zeros, _ = solve_chart_system(list(f_list), seed=seed)
    jac = _jacobian_terms(f_list, nvars)
    g_terms = _complex_terms(g)
    total = 0j
    for z in zeros:
        if any(abs(c) < SEPARATION_TOL for c in z):
            raise NotTorusZero("zero off the torus")
        det = complex(np.linalg.det(_jacobian_at(jac, z)))
        if abs(det) < RESIDUAL_TOL:
            raise NonSimpleZero("vanishing Jacobian at a torus zero")
        coord = 1+0j
        for c in z:
            coord *= c
        total += complex(_evaluate(g_terms, z)) / (coord * det)
    return abs(total) < COMPARE_TOL, total
