"""Local residue sums: residues as exact sums over the zeros of n of the inputs.

Dropping input k leaves a square system in each chart.  One grevlex basis
gives its quotient A = Q[x]/I, finite exactly when every variable has a
pure-power lead, with the standard monomials B as basis.  M_g, the exact
matrix of multiplication by g on A, has the normal form of g*x^b as column
b: it divides g alone and composes the M_{x_j}, which one border pass
builds, as in FGLM (Faugere, Gianni, Lazard and Mora, JSC 16, 1993), with
no division per monomial; every monomial is a packed int of the basis.

By Stickelberger's theorem (Cox-Little-O'Shea, *Using Algebraic Geometry*,
ch. 2 section 4) the eigenvalues of M_g are the values g(p) at the zeros p,
each repeated by the multiplicity of p.  So det M_g = 0 exactly when g
vanishes at a zero, and when every zero is simple and off g, the sum of
h/(g*J) over the zeros, J the Jacobian determinant, is the trace of
M_{g*J}^-1 M_h (Cattani-Dickenstein-Sturmfels, *Computing multidimensional
residues*, 1996), Tr M_q for q = h/(g*J): one integer solve for q
(``lattice.cramer``) and M_q's diagonal.  A singular M_{g*J} is refused:
NonSimpleZero when det M_J = 0, else because g vanishes at a zero.

A residue is such a trace on one chart: the first whose dimension is the
chart group order times the intersection number of the other n degrees,
which holds every zero on X, off the torus too (``sum_local_residues``).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .divisors import is_q_ample
from .errors import (
    DegreeMismatch,
    InfiniteIntersection,
    NonSimpleZero,
    NotTorusZero,
    NotZeroDimensional,
    ZeroOnPolarLocus,
)
from .grading import representative_divisor
from .groebner import GroebnerBasis, divide, grevlex, quotient_is_finite, standard_monomials
from .lattice import cone_det, cramer, mat_det
from .poly import MultiPoly, dehomogenize, poly_det
from .polytopes import intersection_number
from .residues import require_critical_degree

# how close a floating-point value of a local sum must come to the exact one;
# perfbench/workloads.py compares with it
COMPARE_TOL = 1e-8


# ---------------------------------------------------------------------------
# the quotient ring of a chart system

class _Quotient:
    """Q[x]/I for the ideal I of a square system with finitely many zeros,
    on B, the standard monomials of its grevlex basis packed, ascending.
    Another order of B permutes the rows and columns of every M_g alike,
    which leaves det M_g and Tr(M_g^-1 M_h), so every sum, as they are.

    The border pass forms NF(u) for each u = x_i*x^b outside B, b in B, in
    ascending order: a lead of the reduced basis has -tail/lc.  Another u
    has a lead dividing it properly but not x^b, so for some i with
    b_i > 0, w = u/x_i = x_j*x^(b - e_i) is in the leading ideal, with
    b - e_i in B (closed under division): a border monomial below u, and
    NF(u) = sum_c NF(w)_c * NF(x_i*x^c), each c below w, so each x_i*x^c
    is standard or a border monomial below u, formed before it."""

    def __init__(self, polys):
        self.polys = polys
        self.gb = GroebnerBasis.of(polys, grevlex(polys[0].nvars))
        if not quotient_is_finite(self.gb):
            raise NotZeroDimensional("chart system has positive-dimensional zeros")
        self.basis = sorted(map(self.gb.packing.pack, standard_monomials(self.gb)))

    @cached_property
    def _times_variable(self):
        """For each variable x_j, (D_j, table): table[b], b in B, is D_j times
        the normal form of x_j*x^b in packed integer terms, D_j the lcm of
        their denominators.  The border pass holds each form in lowest terms."""
        weights = self.gb.packing.weights
        leads = {le: (lc, tail) for le, lc, tail in self.gb.table}
        forms = {x: (1, {x: 1}) for x in self.basis}
        standard = set(forms)
        for u in sorted({x + w for x in self.basis for w in weights} - standard):
            if u in leads:
                lc, tail = leads[u]
                forms[u] = (lc, {y: -c for y, c in tail})
                continue
            # where x_i does not divide u, u - s has a guard bit: no key
            s = next(s for s in weights if u - s in forms and u - s not in standard)
            dw, w = forms[u - s]
            parts = [(c, forms[x + s]) for x, c in w.items()]
            L = lcm(*(d for _, (d, _) in parts))
            acc = {}
            for c, (d, terms) in parts:
                c *= L // d
                for y, v in terms.items():
                    acc[y] = acc.get(y, 0) + c * v
            acc = {y: v for y, v in acc.items() if v}
            g = gcd(dw * L, *acc.values())
            forms[u] = (dw * L // g, {y: v // g for y, v in acc.items()})
        out = []
        for s in weights:
            cols = [forms[x + s] for x in self.basis]
            D = lcm(*(d for d, _ in cols))
            out.append((D, {b: {y: c * (D // d) for y, c in terms.items()}
                            for b, (d, terms) in zip(self.basis, cols)}))
        return out

    @cached_property
    def jacobian(self) -> MultiPoly:
        """The Jacobian determinant J."""
        return poly_det([[p.partial(j) for j in range(p.nvars)] for p in self.polys])

    @cached_property
    def _steps(self):
        """(b, c, D_j*M_{x_j}) for each b in B past the first: x^b = x_j*x^c, c =
        b - weights[j] earlier in B, for the first such j (others have a guard bit)."""
        standard, weights = set(self.basis), self.gb.packing.weights
        return [next((b, b - s, self._times_variable[j][1]) for j, s in enumerate(weights)
                     if b - s in standard) for b in self.basis[1:]]

    @cached_property
    def _scales(self):
        """(s_b for b in B, their lcm): column b of the composed M_1 is s_b*e_b,
        s_1 = 1 and s_b = s_c*D_j along ``_steps``, as x_j*x^c = x^b is
        standard and D_j*M_{x_j} holds D_j there."""
        scales = dict.fromkeys(self.basis[:1], 1)
        for b, c, table in self._steps:
            scales[b] = scales[c] * table[c][b]
        return list(scales.values()), lcm(*scales.values())

    def _reduce(self, g: MultiPoly):
        """(d, v) with NF(g) = v/d, v packed integer terms in lowest terms."""
        scale, rem = divide(self.gb.packing.pack_terms(g.num), self.gb.table, self.gb.packing)
        k = gcd(scale * g.d, *rem.values())
        return scale * g.d // k, {y: c // k for y, c in rem.items()}

    def _compose(self, first):
        """{b: column b} from column 1 = ``first``: column b is table times column
        c along ``_steps``, s_b*NF(x^b * first) for s_b = prod_j D_j^(b_j)."""
        cols = dict(zip(self.basis[:1], [first]))
        for b, c, table in self._steps:
            col = {}
            for e, v in cols[c].items():
                for f, x in table[e].items():
                    col[f] = col.get(f, 0) + v * x
            cols[b] = col
        return cols

    def matrix(self, g: MultiPoly):
        """(d, G), G = d*M_g*diag(s_b) composed from NF(g) = v/d (``_reduce``):
        the s_b scale the G of every g by one similarity and keep det G = 0."""
        d, first = self._reduce(g)
        cols, B = self._compose(first), self.basis
        return d, [[cols[b].get(e, 0) for b in B] for e in B]

    def require_simple(self):
        """NonSimpleZero unless det M_J != 0, J the Jacobian determinant."""
        if mat_det(self.matrix(self.jacobian)[1]) == 0:
            raise NonSimpleZero("the Jacobian vanishes at a zero (det M_J = 0)")

    def trace(self, h: MultiPoly, g: MultiPoly) -> Fraction | None:
        """The sum of h/(g*J) over the zeros (0 if none), or None when M_{g*J} is singular:
        Tr M_q for q = h/(g*J).  One ``cramer`` solves G*y = v, G = d*M_{g*J}*diag(s_b)
        (``matrix``), NF(h) = v/d_h; q = (d/d_h)*(s_b*y_b), composed to s_b times M_q."""
        d, G = self.matrix(g * self.jacobian)
        d_h, v = self._reduce(h)
        if (solved := cramer(G, [v.get(b, 0) for b in self.basis])) is None:
            return None
        (y, det), (scales, L) = solved, self._scales
        cols = self._compose({b: s * x for b, s, x in zip(self.basis, scales, y) if x})
        diagonal = sum(cols[b].get(b, 0) * (L // s) for b, s in zip(self.basis, scales))
        return Fraction(diagonal * d, L * det * d_h)


# ---------------------------------------------------------------------------
# residue sums

def _chart(problem, k: int, cone: int):
    """f_k and the quotient of the system with input k dropped on a cone's chart,
    from the chart's inputs kept on the problem; InfiniteIntersection if infinite."""
    charts = problem.memo(("chart", cone), lambda: [
        dehomogenize(p, problem.fan, cone) for p in problem.polys])
    try:
        return charts[k], _Quotient(charts[:k] + charts[k + 1:])
    except NotZeroDimensional as exc:
        raise InfiniteIntersection(f"inputs excluding {k} meet in positive "
                                   f"dimension in cone {cone}") from exc


def sum_local_residues(problem, H: MultiPoly, k: int) -> Fraction:
    """Signed sum of the local residues of H over the zeros
    Z = V(F_i : i != k) on X, exactly: Res(H) under its hypotheses.

    k must be an int naming an input (TypeError before any work when it is
    not); H must have the critical degree, as for ``toric_residue``.  A
    common zero of all inputs (``problem.zero_locus``) lies on Z and on F_k:
    ZeroOnPolarLocus.  The sum is then (-1)^k * cone_sign(tau) *
    Tr_tau(h/(f_k*J)) on the first chart tau, sigma's and then the others
    in index order, with dim A_tau = |det tau| * N_k, N_k = prod_{i != k} D_i
    the intersection number of the other degrees; the index |det tau| in
    the chart form cancels against the chart group order
    (Cattani-Dickenstein-Sturmfels, *Computing multidimensional residues*,
    1996).  N_k, alpha_k's Q-ampleness and each chart's inputs are the problem's (``memo``).

    Proof.  A finite Z is a proper intersection, so each zero p has a local
    multiplicity i_p > 0 and N_k = sum_p i_p.  The chart A^n -> U_tau is
    the quotient by a group of order |det tau| (Cox, JAG 1995), so
    dim A_tau = |det tau| * sum_{p in U_tau} i_p, which is |det tau| * N_k
    exactly when U_tau holds all of Z.  Z is finite when alpha_k is Q-ample
    (``is_q_ample``): a power of F_k is a section of an ample bundle, which
    meets every complete curve, so a curve in Z would hold a common zero;
    the walk then stops at the first chart that passes.  Otherwise every
    chart is built first, an infinite one raising InfiniteIntersection, as
    every chart being finite is what makes Z finite.  No chart passing
    raises NotTorusZero: no single chart holds Z.  As f_k vanishes at no
    zero, a singular M_{f_k*J} means det M_J = 0: NonSimpleZero.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer input index, not {type(k).__name__}") from None
    require_critical_degree(problem, H)
    if not 0 <= k < len(problem.polys):
        raise ValueError(f"no input with index {k}")
    if not problem.zero_locus().ok:
        raise ZeroOnPolarLocus("dropped input vanishes at a zero: a common zero on X")
    fan, grading = problem.fan, problem.grading
    divisors = [problem.memo(("divisor", d), representative_divisor, grading, d)
                for d in problem.degrees]
    others = tuple(sorted(divisors[:k] + divisors[k + 1:]))
    count = problem.memo(("count", others), intersection_number, fan, *others)
    cones = [problem.sigma, *(c for c in range(len(fan.max_cones)) if c != problem.sigma)]
    charts = ((cone, *_chart(problem, k, cone)) for cone in cones)
    if not problem.memo(("q-ample", divisors[k]), is_q_ample, fan, divisors[k]).ok:
        charts = list(charts)
    for cone, fk, quotient in charts:
        if len(quotient.basis) == abs(cone_det(fan, cone)) * count:
            total = quotient.trace(dehomogenize(H, fan, cone), fk)
            if total is None:
                raise NonSimpleZero("the Jacobian vanishes at a zero (det M_J = 0)")
            return (-1) ** k * problem.cone_sign(cone) * total
    raise NotTorusZero(f"no single chart holds every zero of the inputs but {k}")


def euler_jacobi_check(nvars: int, f_list, g: MultiPoly):
    """Sum of g/(x_1...x_n * J) over the zeros of f_list, J the Jacobian
    determinant, exactly: the torus residues of g against the given divisor
    polynomials, weighted by the torus form.  Returns (total == 0, total).

    Refuses with DegreeMismatch, before any basis is built, unless f_list
    holds nvars >= 1 polynomials and every polynomial has nvars variables;
    with NotZeroDimensional when the zeros are not finite, with
    NonSimpleZero when det M_J = 0 (a multiple zero), and with NotTorusZero
    when some zero has a vanishing coordinate.
    """
    if nvars < 1 or len(f_list) != nvars or any(p.nvars != nvars for p in (*f_list, g)):
        raise DegreeMismatch(f"need {nvars} polynomials in {nvars} variables")
    quotient = _Quotient(list(f_list))
    total = quotient.trace(g, MultiPoly.monomial((1,) * nvars))
    if total is None:
        quotient.require_simple()
        raise NotTorusZero("zero off the torus")
    return total == 0, total
