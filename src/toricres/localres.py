"""Numeric cross-check: residues as sums over the zeros of n of the inputs.

Dropping input k leaves a square system in each chart.  One grevlex basis
gives its quotient A = Q[x]/I, finite exactly when every variable has a
pure-power lead, with the standard monomials B as basis.  M_g, the exact
matrix of multiplication by g on A, has the normal form of g*x^b as column b.

By Stickelberger's theorem (Cox-Little-O'Shea, *Using Algebraic Geometry*,
ch. 2 section 4) the eigenvalues of M_g are the values g(p) at the zeros p,
each repeated by the multiplicity of p.  So det M_g = 0 exactly when g
vanishes at a zero: the test for a multiple zero (``NonSimpleZero``, g = J
the Jacobian determinant) in the one chart whose quotient the sum builds.
The sum's other refusals are common zeros on X (``no_common_zeros_on_x``).

With simple zeros the commuting M_{x_j} share an eigenbasis (Auzinger-Stetter
1988): if a seeded integer combination M_lambda = sum_j lambda_j M_{x_j}
separates the zeros, its eigenvectors V give their j-th coordinates as
diag(V^-1 M_{x_j} V), which Newton steps polish.  A lambda that does not
separate them yields fewer than |B| distinct zeros and is refused.
"""

from __future__ import annotations

import math
import random
from functools import cached_property

import numpy as np

from .errors import (
    InfiniteIntersection,
    NonSimpleZero,
    NotTorusZero,
    NotZeroDimensional,
    ZeroOnPolarLocus,
)
from .groebner import GroebnerBasis, grevlex, quotient_is_finite, standard_monomials
from .lattice import mat_det
from .poly import MultiPoly, dehomogenize, poly_det
from .polytopes import clear_denominators
from .residues import no_common_zeros_on_x

RESIDUAL_TOL = 1e-9
SEPARATION_TOL = 1e-6
COMPARE_TOL = 1e-8


# ---------------------------------------------------------------------------
# the quotient ring of a chart system

class _Quotient:
    """Q[x]/I for the ideal I of a square system with finitely many zeros,
    on the basis B of standard monomials of its grevlex basis."""

    def __init__(self, polys):
        if not polys:
            raise ValueError("empty system")
        self.polys = polys
        self.gb = GroebnerBasis.of(polys, grevlex(polys[0].nvars))
        if not quotient_is_finite(self.gb):
            raise NotZeroDimensional("chart system has positive-dimensional zeros")
        self.basis = standard_monomials(self.gb)

    @cached_property
    def _times_variable(self):
        """For each variable x_j, the normal form of x_j*x^b for each b in B."""
        return [{b: self.gb.reduce(MultiPoly.monomial(
                    tuple(k + (i == j) for i, k in enumerate(b)))).terms
                 for b in self.basis}
                for j in range(self.polys[0].nvars)]

    def _dense(self, cols):
        """Matrix whose column b holds the coefficients of cols[b]."""
        return [[cols[b].get(e, 0) for b in self.basis] for e in self.basis]

    def matrix(self, g: MultiPoly):
        """M_g with each row multiplied by the lcm of its denominators: an
        integer matrix that is singular exactly when M_g is.  B is sorted
        and closed under division, so x^b = x_j*x^c for a c earlier in B,
        and the column of b is x_j times the column of c, reduced term by
        term through ``_times_variable``."""
        cols = {b: self.gb.reduce(g).terms for b in self.basis[:1]}
        for b in self.basis[1:]:
            j = next(i for i, k in enumerate(b) if k)
            col = {}
            for e, c in cols[tuple(k - (i == j) for i, k in enumerate(b))].items():
                for f, d in self._times_variable[j][e].items():
                    col[f] = col.get(f, 0) + c * d
            cols[b] = col
        return [clear_denominators(row)[1] for row in self._dense(cols)]

    def require_simple(self):
        """NonSimpleZero unless det M_J != 0, J the Jacobian determinant."""
        J = poly_det([[p.partial(j) for j in range(p.nvars)] for p in self.polys])
        if mat_det(self.matrix(J)) == 0:
            raise NonSimpleZero("the Jacobian vanishes at a zero (det M_J = 0)")

    def zeros(self, seed: int):
        """The |B| zeros when all are simple, and the Jacobian determinant
        at each: eigenvectors of a seeded combination of the coordinate
        matrices, then Newton."""
        B, polys = self.basis, self.polys
        if not B:
            return [], []
        rng = random.Random(seed)
        coords = [np.array(self._dense(cols), dtype=float) for cols in self._times_variable]
        _, V = np.linalg.eig(sum(rng.randint(1, 99) * M for M in coords))
        diags = [np.diag(np.linalg.solve(V, M @ V)) for M in coords]
        system = [_complex_terms(p) for p in polys]
        sizes = [_complex_terms(MultiPoly.from_terms(
            p.nvars, {e: abs(c) for e, c in p.terms.items()})) for p in polys]
        jac = _jacobian_terms(polys)
        pts = _newton_refine(system, jac, list(zip(*diags)))
        pts = _dedupe([p for p in pts if _residual(system, sizes, p) < RESIDUAL_TOL])
        if len(pts) != len(B):
            raise NonSimpleZero(
                f"{len(B)} simple zeros but {len(pts)} resolved numerically")
        return pts, [complex(np.linalg.det(_jacobian_at(jac, z))) for z in pts]


# ---------------------------------------------------------------------------
# numeric evaluation and polishing

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


def _residual(system, sizes, pt) -> float:
    """Largest |f(pt)|, relative to the size of f at pt (the sum of |c*pt^e|
    over its terms, from ``sizes``) when that exceeds 1: rounding leaves
    about that size times the machine epsilon even at an exact zero."""
    apt = tuple(abs(v) for v in pt)
    return max(abs(complex(_evaluate(f, pt))) / max(1.0, abs(complex(_evaluate(s, apt))))
               for f, s in zip(system, sizes))


def _dedupe(pts):
    out = []
    for p in pts:
        if all(max(abs(a - b) for a, b in zip(p, q)) > SEPARATION_TOL for q in out):
            out.append(p)
    return out


def _jacobian_terms(polys):
    """``_complex_terms`` of every partial derivative, by row and column."""
    return [[_complex_terms(p.partial(j)) for j in range(p.nvars)] for p in polys]


def _jacobian_at(jac, z):
    """Matrix at z of a Jacobian from ``_jacobian_terms``."""
    return np.array([[complex(_evaluate(entry, z)) for entry in row] for row in jac])


def _newton_refine(system, jac, pts, steps: int = 30):
    """Newton steps from each point until |f| < 1e-15, the step is below
    1e-15 * max(1, |x|), or ``steps`` steps are taken."""
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
            if max(abs(v) for v in dx) < 1e-15 * max(1.0, *(abs(v) for v in x)):
                break
        out.append(tuple(complex(v) for v in x))
    return out


# ---------------------------------------------------------------------------
# residue sums

def _chart(problem, k: int, cone: int):
    """f_k and the quotient of the system with input k dropped, in the
    chart of a cone; InfiniteIntersection when its zeros are not finite."""
    charts = [dehomogenize(p, problem.fan, cone) for p in problem.polys]
    try:
        return charts[k], _Quotient(charts[:k] + charts[k + 1:])
    except NotZeroDimensional as exc:
        raise InfiniteIntersection(
            f"inputs excluding {k} meet in positive dimension in cone {cone}"
        ) from exc


def local_residue_simple(problem, H: MultiPoly, k: int, zero,
                         jacobian: complex, cone_index: int | None = None) -> complex:
    """Residue contribution of one simple zero: value over polar factor and
    the square system's Jacobian determinant.  Refuses by tolerance tests
    at that zero alone: |f_k| or |J| below RESIDUAL_TOL."""
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

    The zeros Z = V(F_i : i != k) must lie in the torus T, and f_k must not
    vanish on Z.  ``no_common_zeros_on_x`` decides both on X: the F_i and
    the product of all variables, then all inputs (``zero_locus``), have
    no common zero.  As X is complete, Z in the affine T is finite; every
    chart A^n -> U_tau is a finite quotient, so each chart system is then
    finite with no zero on a coordinate hyperplane, and sigma's chart holds
    all of Z.  Refusals keep the order of a screen of the charts in cone
    order: the charts up to the first cone w with a zero off T are built,
    so an infinite one raises InfiniteIntersection before NotTorusZero
    names w.  Then sigma's chart alone gets a quotient ring: NonSimpleZero
    (det M_J), ZeroOnPolarLocus, and the sum, where the index |cone_det| of
    sigma in the chart form cancels against the chart group order.
    """
    fan = problem.fan
    torus = MultiPoly.monomial((1,) * fan.nvars)
    screen = no_common_zeros_on_x(fan, problem.polys[:k] + problem.polys[k + 1:] + (torus,))
    if not screen.ok:
        for cone in range(screen.witness_cone + 1):
            _chart(problem, k, cone)
        raise NotTorusZero(f"zero with a vanishing coordinate in cone {cone}")
    fk, quotient = _chart(problem, k, problem.sigma)
    quotient.require_simple()
    if not problem.zero_locus().ok:
        raise ZeroOnPolarLocus("dropped input vanishes at a zero: a common zero on X")
    h = _complex_terms(dehomogenize(H, fan, problem.sigma))
    fk = _complex_terms(fk)
    total = sum((complex(_evaluate(h, z)) / (complex(_evaluate(fk, z)) * det)
                 for z, det in zip(*quotient.zeros(seed))), 0j)
    return (-1) ** k * total


def euler_jacobi_check(nvars: int, f_list, g: MultiPoly, seed: int = 0):
    """Sum of g/(x_1...x_n * J) over the zeros of f_list, J the Jacobian
    determinant: the torus residues of g against the given divisor
    polynomials, weighted by the torus form.  Returns (vanishes, total),
    where vanishes means |total| < COMPARE_TOL.

    Refuses with NotZeroDimensional when the zeros are not finite, with
    NonSimpleZero when det M_J = 0 (a multiple zero), with NotTorusZero when
    det M_{x_1...x_n} = 0, that is when some zero has a vanishing coordinate,
    and with NonSimpleZero when the numeric solve resolves fewer distinct
    zeros than dim Q[x]/I.
    """
    quotient = _Quotient(list(f_list))
    quotient.require_simple()
    if mat_det(quotient.matrix(MultiPoly.monomial((1,) * nvars))) == 0:
        raise NotTorusZero("zero off the torus")
    g_terms = _complex_terms(g)
    total = sum((complex(_evaluate(g_terms, z)) / (math.prod(z) * det)
                 for z, det in zip(*quotient.zeros(seed))), 0j)
    return abs(total) < COMPARE_TOL, total
