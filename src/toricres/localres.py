"""Local residue sums: residues as exact sums over the zeros of n of the inputs.

Dropping input k leaves a square system in each chart.  One grevlex basis
gives its quotient A = Q[x]/I, finite exactly when every variable has a
pure-power lead, with the standard monomials B as basis.  M_g, the exact
matrix of multiplication by g on A, has the normal form of g*x^b as column b.

By Stickelberger's theorem (Cox-Little-O'Shea, *Using Algebraic Geometry*,
ch. 2 section 4) the eigenvalues of M_g are the values g(p) at the zeros p,
each repeated by the multiplicity of p.  So det M_g = 0 exactly when g
vanishes at a zero, and when every zero is simple and off g, the sum of
h/(g*J) over the zeros, J the Jacobian determinant, is the trace of
M_{g*J}^-1 M_h (Cattani-Dickenstein-Sturmfels, *Computing multidimensional
residues*, 1996): an exact Fraction from one integer elimination
(``lattice.trace_of_solve``).  When M_{g*J} is singular the sum is refused:
with NonSimpleZero when det M_J = 0, else because g vanishes at a zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (
    InfiniteIntersection,
    NonSimpleZero,
    NotTorusZero,
    NotZeroDimensional,
    ZeroOnPolarLocus,
)
from .groebner import GroebnerBasis, grevlex, quotient_is_finite, standard_monomials
from .lattice import mat_det, trace_of_solve
from .poly import MultiPoly, dehomogenize, poly_det
from .polytopes import clear_denominators
from .residues import no_common_zeros_on_x, require_critical_degree

# how close a floating-point value of a local sum must come to the exact one;
# perfbench/workloads.py compares with it
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
        """For each variable x_j, (D_j, table): table[b] is the normal form of
        x_j*x^b times D_j, for each b in B, as a dict of integers; D_j is the
        lcm of the denominators of those normal forms."""
        out = []
        for j in range(self.polys[0].nvars):
            forms = {b: self.gb.reduce(MultiPoly.monomial(
                        tuple(k + (i == j) for i, k in enumerate(b)))).terms
                     for b in self.basis}
            D = lcm(*(c.denominator for nf in forms.values() for c in nf.values()))
            out.append((D, {b: {e: c.numerator * (D // c.denominator) for e, c in nf.items()}
                            for b, nf in forms.items()}))
        return out

    @cached_property
    def jacobian(self) -> MultiPoly:
        return poly_det([[p.partial(j) for j in range(p.nvars)] for p in self.polys])

    def matrix(self, g: MultiPoly):
        """(d, G): G is the integer matrix whose column b is column b of M_g
        times d*s_b, where d clears the denominators of the normal form of g
        and s_b = prod_j D_j^(b_j).  B is sorted and closed under division,
        so x^b = x_j*x^c for a c earlier in B, and the column of b is x_j
        times the column of c, reduced term by term through
        ``_times_variable``.  The s_b depend on b alone, so they scale the G
        of every g by one similarity, and leave det G = 0 as it is."""
        nf = self.gb.reduce(g).terms
        d, nums = clear_denominators(nf.values())
        cols = {b: dict(zip(nf, nums)) for b in self.basis[:1]}
        for b in self.basis[1:]:
            j = next(i for i, k in enumerate(b) if k)
            table = self._times_variable[j][1]
            col = {}
            for e, c in cols[tuple(k - (i == j) for i, k in enumerate(b))].items():
                for f, x in table[e].items():
                    col[f] = col.get(f, 0) + c * x
            cols[b] = col
        return d, [[cols[b].get(e, 0) for b in self.basis] for e in self.basis]

    def require_simple(self):
        """NonSimpleZero unless det M_J != 0, J the Jacobian determinant."""
        if mat_det(self.matrix(self.jacobian)[1]) == 0:
            raise NonSimpleZero("the Jacobian vanishes at a zero (det M_J = 0)")

    def trace(self, h: MultiPoly, g: MultiPoly) -> Fraction | None:
        """The sum of h/(g*J) over the zeros, or None when M_{g*J} is
        singular.  It is (d_{gJ}/d_h) * Tr(G_{gJ}^-1 G_h): the similarity of
        ``matrix`` cancels in the trace, its scalars d do not."""
        d_gj, A = self.matrix(g * self.jacobian)
        d_h, B = self.matrix(h)
        t = trace_of_solve(A, B)
        return None if t is None else t * d_gj / d_h


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


def sum_local_residues(problem, H: MultiPoly, k: int) -> Fraction:
    """Signed sum of the local residues over all zeros of the k-dropped
    system, exactly.

    H must have the critical degree, as for ``toric_residue``, and k must
    name an input.  The zeros Z = V(F_i : i != k) must lie in the torus T,
    and f_k must not vanish on Z.  ``no_common_zeros_on_x`` decides the
    first on X: the F_i and the product of all variables have no common
    zero.  As X is complete, Z in the affine T is finite; every chart
    A^n -> U_tau is a finite quotient, so each chart system is then finite
    with no zero on a coordinate hyperplane, and sigma's chart holds all of
    Z.  Refusals keep the order of a screen of the charts in cone order: the
    charts up to the first cone w with a zero off T are built, so an
    infinite one raises InfiniteIntersection before NotTorusZero names w.
    Then sigma's chart alone gets a quotient ring, and the sum is (-1)^k
    times the trace of h/(f_k*J) over it, where the index |cone_det| of
    sigma in the chart form cancels against the chart group order.  A
    singular M_{f_k*J} raises NonSimpleZero when det M_J = 0, else
    ZeroOnPolarLocus: f_k vanishes at a zero, a common zero of all inputs.
    """
    require_critical_degree(problem, H)
    if not 0 <= k < len(problem.polys):
        raise ValueError(f"no input with index {k}")
    fan = problem.fan
    torus = MultiPoly.monomial((1,) * fan.nvars)
    screen = no_common_zeros_on_x(fan, problem.polys[:k] + problem.polys[k + 1:] + (torus,))
    if not screen.ok:
        for cone in range(screen.witness_cone + 1):
            _chart(problem, k, cone)
        raise NotTorusZero(f"zero with a vanishing coordinate in cone {cone}")
    fk, quotient = _chart(problem, k, problem.sigma)
    total = quotient.trace(dehomogenize(H, fan, problem.sigma), fk)
    if total is None:
        quotient.require_simple()
        raise ZeroOnPolarLocus("dropped input vanishes at a zero: a common zero on X")
    return (-1) ** k * total


def euler_jacobi_check(nvars: int, f_list, g: MultiPoly):
    """Sum of g/(x_1...x_n * J) over the zeros of f_list, J the Jacobian
    determinant, exactly: the torus residues of g against the given divisor
    polynomials, weighted by the torus form.  Returns (total == 0, total).

    Refuses with NotZeroDimensional when the zeros are not finite, with
    NonSimpleZero when det M_J = 0 (a multiple zero), and with NotTorusZero
    when some zero has a vanishing coordinate.
    """
    quotient = _Quotient(list(f_list))
    total = quotient.trace(g, MultiPoly.monomial((1,) * nvars))
    if total is None:
        quotient.require_simple()
        raise NotTorusZero("zero off the torus")
    return total == 0, total
