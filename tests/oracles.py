"""Independent reference values and slow reference paths for tests.

The residue values are derived by brute-force partial fractions, never by
the package's own pipeline.  The slow paths are the straightforward forms
of routines the package runs in a faster or different form: division by a
linear scan for the greatest term, the integer division, S-polynomials and
Buchberger on exponent tuples with a tuple heap key, as they ran before
each monomial was one packed int, the packed pair update with its
equal-lcm groups from ``itertools.groupby``, the heap-ordered division
over Fractions against monic reducers with its S-polynomials, the integer
reducers read back from a monic Fraction basis, Buchberger over parallel
lists with MultiPoly S-polynomials, the multiplication tables of a chart quotient
from Fraction normal forms, the chart quotient on exponent tuples as it
ran before its monomials were packed ints, the finiteness test and the standard monomials
of a quotient on exponent tuples, the quotient dimension of a chart system
from its grevlex basis, the zero-locus test that builds a basis over Q of
every chart ideal, the one that decides each chart ideal whole and the
one that split a chart with a monomial input on its coordinate
hyperplanes, the
codimension check that reduces every critical-degree monomial, the
residue functional built and applied in Fractions, the residue read from
normal forms with every degree check done by
``degree_of``, membership in the radical through a slack variable, the
completeness test that compares every pair of cones, the rank as the size
of the largest nonzero minor, the determinant by cofactor expansion, the
adjugate as n^2 signed minors and Cramer's rule as n+1 determinants, the
numeric chart solver that read zeros from a lex basis in shape position,
the chart solver and zero set the package once exported, the local sum
on the distinguished chart behind a torus screen, as it ran before the
chart that holds the zeros was found by a count, the chart of a
polynomial, its partials, its cone decomposition, its lift to a degree and
to the bundle ring through the validating constructor, a user degree basis
accepted when the degree map it defines is onto, the representative divisor
of a degree from a Smith form built per call, the
polytope volume by a pyramid recursion over facets, intersection numbers
by a recursion in the intersection ring of the fan, polytope vertices by
elimination over Q, boundedness from rational kernels, lattice points by a
bounding-box scan, exponent vectors by dot products per point, the bundle
lift's two polytopes as plain polytopes on its lifted rays, ampleness by
Fraction comparisons, the Cartier, Q-ample, ample and nef answers read
from a full slack table of one Cramer solve per cone, and the Fraction
Gauss-Jordan elimination (``rref``, ``mat_rank``, ``solve_rational``,
``solve_integer``) with the cone functionals and the Cayley weight
functional it once computed, the chart lift by a Smith form of the
off-cone degree system, the determinant over Q by row scaling, and the
cone orientations and chart Jacobian read from a positively oriented basis
of M, the determinant of a matrix of polynomials by minor expansion over
Fractions, the product of two polynomials as a double loop over their
Fraction terms, and the floating-point local sum (an eigen-solve on the chart
quotient, Newton polishing and tolerances).  The exact sum of local
residues as a trace over the quotient ring, by linear-scan normal forms
and Fraction elimination, is a reference value for both the exact residue
and the package's trace, and the chart that holds those zeros is found
by ideal membership.  Tests compare engine output against them.  The
queries only tests call (evaluation, substitution and coefficients of a
polynomial, the order comparison, homogeneity, membership in the
irrelevant ideal, the cone functionals as Fractions, the Smith-form check
with its matrix product, the Smith form that scans every entry for each pivot, a packed basis unpacked to exponent tuples, a polynomial built
unchecked from Fraction terms and a polynomial's integer terms mod P) live
here too, as does a generator of random complete surfaces with an ample
class.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import atan2, ceil, factorial, floor, gcd, lcm, prod

import numpy as np

from toricres import (AllReduceToZero, CodimNotOne, DecompositionFailed, DegreeMismatch,
                      GroebnerBasis, HypothesesFailed, PositivityReport,
                      InfiniteIntersection, InvalidFan, MonomialOrder, MultiPoly, NoIntegralLift,
                      NonSimpleZero, NonSquare, NotHomogeneous, NotTorusZero,
                      NotZeroDimensional, ToricError, Unbounded, WrongDegree, ZeroOnPolarLocus,
                      compute_grading, cone_determinant, dehomogenize,
                      is_complete, is_simplicial, make_fan, monomial_basis)
from toricres.cayley import _bundle_exponent, _lift_poly, bundle_class, critical_degree_lifted
from toricres.divisors import support_meets
from toricres.grading import Grading, critical_degree, degree_system, representative_divisor
from toricres.groebner import (Packing, grevlex, lex, packed_basis,
                               quotient_is_finite, standard_monomials)
from toricres.lattice import (FanData, SmithDecomposition, clear_denominators, cone_det, dot,
                              freeze, hnf_rows, mat_det, mat_vec, reduce_mod_lattice,
                              smith_normal_form)
from toricres.localres import _chart, _Quotient
from toricres.poly import Exponent, degree_of, poly_det as integer_poly_det
from toricres.polytopes import (HPolytope, divisor_monomials, divisor_polytope,
                                lattice_points)
from toricres.residues import (P, CodimReport, ZeroLocusReport, _require_hypotheses,
                               irrelevant_witness)


# ---------------------------------------------------------------------------
# queries the package once had as methods, which only tests call

def is_constant(p: MultiPoly) -> bool:
    return all(not any(e) for e in p.terms)


def leading_term(p: MultiPoly, order: MonomialOrder):
    if p.is_zero():
        raise ValueError("leading term of zero")
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def coefficient(p: MultiPoly, exponent) -> Fraction:
    return p.terms.get(tuple(exponent), Fraction(0))


def evaluate(p: MultiPoly, point):
    """Exact evaluation at a tuple of Fractions (or floats/complex)."""
    total = 0
    for e, c in p.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v = v * x ** k
        total = total + v
    return total


def substitute(p: MultiPoly, values: dict[int, "MultiPoly | int | Fraction"]):
    """Replace selected variables by polynomials in the same ring."""
    out = MultiPoly.zero(p.nvars)
    for e, c in p.terms.items():
        term = MultiPoly.constant(p.nvars, c)
        for i, k in enumerate(e):
            if not k:
                continue
            if i in values:
                v = values[i]
                if not isinstance(v, MultiPoly):
                    v = MultiPoly.constant(p.nvars, v)
                term = term * v ** k
            else:
                term = term * MultiPoly.variable(p.nvars, i, k)
        out = out + term
    return out


def greater(order: MonomialOrder, a: Exponent, b: Exponent) -> bool:
    return order.key(a) > order.key(b)


def is_homogeneous(p: MultiPoly, grading) -> bool:
    try:
        degree_of(p, grading)
    except NotHomogeneous:
        return False
    return True


def in_irrelevant_ideal(p: MultiPoly, fan: FanData) -> bool:
    return irrelevant_witness(p, fan) is None


def cone_functionals(fan: FanData, coeffs) -> list[tuple[Fraction, ...]]:
    """Per-cone m with <m, ray_i> = -a_i on the cone's rays: the Fraction
    view of ``divisors.support_meets``."""
    d, _, meets = support_meets(fan, coeffs)
    return [tuple(Fraction(x, den * d) for x in num) for num, den in meets]


def mat_mul(A, B):
    if not A:
        return []
    cols = list(zip(*B)) if B else []
    return [[dot(row, col) for col in cols] for row in A] if cols else [[] for _ in A]


def smith_verify(dec: SmithDecomposition, A) -> bool:
    """U A V = S with U, V unimodular and S diagonal with a divisibility chain."""
    uav = mat_mul(mat_mul([list(r) for r in dec.U], [list(r) for r in A]),
                  [list(r) for r in dec.V])
    if freeze(uav) != dec.S:
        return False
    d = dec.diagonal
    for i in range(len(d) - 1):
        if d[i] == 0 and d[i + 1] != 0:
            return False
        if d[i] and d[i + 1] % d[i] != 0:
            return False
    if any(x < 0 for x in d):
        return False
    m = len(dec.S)
    n = len(dec.S[0]) if m else 0
    off = all(dec.S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    return off and abs(mat_det(dec.U)) == 1 and abs(mat_det(dec.V)) == 1


def full_scan_smith_normal_form(A, ncols: int = 0) -> SmithDecomposition:
    """``smith_normal_form`` as it ran before its pivot search stopped at
    the first unit and a unit pivot skipped the search for an entry it does
    not divide: every entry of the trailing block is scanned, the first of
    least nonzero magnitude in row-major order is the pivot, and every
    pivot searches for an entry it does not divide."""
    m = len(A)
    n = len(A[0]) if m else ncols
    S = [list(map(operator.index, row)) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):
        if q:
            S[i] = [a - q * b for a, b in zip(S[i], S[j])]
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(j, k, q):
        if q:
            for row in S + V:
                row[j] -= q * row[k]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if S[i][j] and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            S[t], S[best[0]] = S[best[0]], S[t]
            U[t], U[best[0]] = U[best[0]], U[t]
            for row in S + V:
                row[t], row[best[1]] = row[best[1]], row[t]
            if S[t][t] < 0:
                S[t] = [-a for a in S[t]]
                U[t] = [-a for a in U[t]]
            p = S[t][t]
            dirty = False
            for i in range(t + 1, m):
                row_sub(i, t, S[i][t] // p)
                dirty |= S[i][t] != 0
            for j in range(t + 1, n):
                col_sub(j, t, S[t][j] // p)
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


# ---------------------------------------------------------------------------
# Cramer's rule and the adjugate by separate determinants, as the package ran
# them before one elimination of [A | B] gave both; and elimination over Q,
# as the package ran it before every solve went through integer Cramer or
# the Smith form


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


def adjugate(A) -> list[list[int]]:
    """adj(A) of a square integer matrix, adj(A)·A = det(A)·I, its entries
    the signed minors of A, each a ``mat_det``."""
    return [[(-1) ** (i + j) * mat_det([r[:j] + r[j + 1:] for k, r in enumerate(A) if k != i])
             for i in range(len(A))] for j in range(len(A))]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def rref(rows, ncols):
    """Reduced row echelon form over the rationals, by Gauss-Jordan.

    Returns ``(rows, pivot_columns)``: the nonzero rows as lists of
    Fractions, each with a 1 in its pivot column and 0 in every other
    pivot column, and their pivot columns in ascending order.  The pivot of
    each column is the first remaining row that is nonzero there, so the
    result is deterministic.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work[:len(pivots)], pivots


def mat_rank(A) -> int:
    """Rank over the rationals."""
    return len(rref(A, len(A[0]) if A else 0)[1])


def solve_rational(A, b):
    """One rational solution of A x = b, or None when inconsistent.

    Eliminates the augmented matrix [A | b]; a pivot in its last column
    means the system is inconsistent.  Free variables are pinned to 0.
    """
    n = len(A[0]) if A else 0
    rows, pivots = rref([list(row) + [bi] for row, bi in zip(A, b)], n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return tuple(x)


def solve_integer(A, b):
    """One integer solution of A x = b, or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    snf = smith_normal_form(A)
    ub = mat_vec(snf.U, tuple(b))
    d = snf.diagonal
    y = [0] * n
    for i in range(m):
        s = d[i] if i < len(d) else 0
        if s:
            if ub[i] % s:
                return None
            y[i] = ub[i] // s
        elif ub[i] != 0:
            return None
    return tuple(sum(snf.V[i][j] * y[j] for j in range(n)) for i in range(n))


def fraction_cone_functionals(fan: FanData, coeffs) -> list[tuple[Fraction, ...]]:
    """Per-cone m with <m, ray_i> = -a_i on the cone's rays."""
    if len(coeffs) != fan.nvars:
        raise InvalidFan("one coefficient per ray is required")
    out = []
    for cone in fan.max_cones:
        A = [list(fan.rays[i]) for i in cone]
        b = [-Fraction(coeffs[i]) for i in cone]
        m = solve_rational(A, b)
        if m is None:
            raise InvalidFan("cone rays are dependent")
        out.append(m)
    return out


def weight_system(cd):
    """Rows and right side of the Cayley weight functional: weight zero on
    every base variable and one on every y variable."""
    rows = []
    rhs = []
    for i in range(cd.base_count):
        rows.append(list(cd.grading.variable_degree(i).free))
        rhs.append(Fraction(0))
    for j in range(cd.n + 1):
        rows.append(list(cd.grading.variable_degree(cd.base_count + j).free))
        rhs.append(Fraction(1))
    return rows, rhs


def fraction_jacobian_ideal_degree_check(cd, polys) -> bool:
    """``jacobian_ideal_degree_check`` with its functional found over Q."""
    rows, rhs = weight_system(cd)
    lam = solve_rational(rows, rhs)
    if lam is None:
        return False
    rho = critical_degree_lifted(cd)
    if sum(l * r for l, r in zip(lam, rho.free)) != 0:
        return False
    bundled = MultiPoly.zero(cd.base_count + cd.n + 1)
    for j, p in enumerate(polys):
        bundled = bundled + _lift_poly(cd, p, j)
    for i in range(cd.base_count):
        partial = bundled.partial(i)
        for e in partial.terms:
            if not any(e[cd.base_count:]):
                return False
    return True


# ---------------------------------------------------------------------------
# the chart lift as the package once took it: a Smith form of the stacked
# degree system on the off-cone variables.  ``toric_jacobian`` lifted its
# chart determinant to the critical degree this way before it divided the
# Cox-ring determinant by xhat_sigma, and ``basis_toric_jacobian`` still does


class NonUniqueLift(ToricError):
    """Chart homogenization is underdetermined: the cone's rays are too few
    or dependent, so the degree leaves the off-cone exponents free."""


def smith_homogenize_to_degree(q: MultiPoly, fan, cone_index: int, target,
                               grading) -> MultiPoly:
    """Rescale a chart polynomial into the full ring at an exact degree.

    Each chart monomial must extend by a unique nonnegative exponent pattern
    on the off-cone variables so every term reaches ``target``.  The degree
    system on those variables (the off-cone columns of ``degree_system``
    and its modulus columns) is put in Smith form once
    per call.  A nonzero polynomial is refused when the form's rank, its
    count of nonzero diagonal entries, is below the number of unknowns, as
    the pattern is then not unique; each term's degree gap is then one
    integer solve against the form.
    """
    cone = fan.cone(cone_index)
    others = [i for i in range(fan.nvars) if i not in cone]
    nv = fan.nvars
    snf = smith_normal_form([[row[i] for i in others] + row[nv:]
                             for row in degree_system(grading)])
    rank = sum(1 for s in snf.diagonal if s)
    if q.terms and rank < len(others) + len(grading.torsion_rows):
        raise NonUniqueLift("off-cone exponents are not determined by the degree")
    out = {}
    for e, c in q.terms.items():
        base = [0] * nv
        for k, ray in enumerate(cone):
            base[ray] = e[k]
        have = grading.degree(base)
        rhs = ([a - b for a, b in zip(target.free, have.free)]
               + [a - b for a, b in zip(target.torsion, have.torsion)])
        sol = snf.solve(rhs)
        if sol is None:
            raise NoIntegralLift("no integral exponent pattern reaches the degree")
        fill = sol[:len(others)]
        if any(x < 0 for x in fill):
            raise NoIntegralLift("degree gap needs a negative exponent")
        for i, k in zip(others, fill):
            base[i] = int(k)
        key = tuple(base)
        out[key] = out.get(key, Fraction(0)) + c
    return MultiPoly(nv, out)


def laurent_inverse_coefficient(a: int, d: int) -> int:
    """Coefficient of t^(-1) in the expansion of t^a / t^d.

    The expansion of a monomial quotient is the single term t^(a-d); the
    point residue at 0 picks out exponent -1.
    """
    return 1 if a - d == -1 else 0


def power_system_residue(a, d) -> int:
    """Global residue of the monomial x^a against the system (x_0^d_0, ..).

    In the chart x_n = 1 the last factor is the constant 1 and the form
    splits into a product of univariate pieces, one per remaining variable,
    so the residue is the product of univariate t^(-1) coefficients.  The
    degree constraint sum(a_i + 1) = sum(d_i) makes the answer symmetric in
    all n+1 slots, so take the product over every slot.
    """
    a = tuple(int(x) for x in a)
    d = tuple(int(x) for x in d)
    if len(a) != len(d):
        raise ValueError("exponent and power tuples differ in length")
    if sum(x + 1 for x in a) != sum(d):
        raise ValueError("monomial does not have the critical degree")
    out = 1
    for ai, di in zip(a, d):
        out *= laurent_inverse_coefficient(ai, di)
    return out


def simple_pole_residue(num, den_root, den_derivative) -> Fraction:
    """Partial-fraction residue of num(t)/den(t) at a simple rational root.

    num and den_derivative are coefficient lists, low degree first; the
    residue at a simple root r is num(r) / den'(r).
    """
    r = Fraction(den_root)

    def ev(coeffs):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * r + Fraction(c)
        return acc

    top = ev(num)
    bot = ev(den_derivative)
    if bot == 0:
        raise ZeroDivisionError("root is not simple")
    return top / bot


def rational_residue_sum(num, den_roots, den_lead=1):
    """Sum of residues of num(t) / prod (t - r) over the given simple roots."""
    total = Fraction(0)
    roots = [Fraction(r) for r in den_roots]
    for i, r in enumerate(roots):
        def ev(coeffs):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * r + Fraction(c)
            return acc
        bot = Fraction(den_lead)
        for j, s in enumerate(roots):
            if j != i:
                bot *= r - s
        total += ev(num) / bot
    return total


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def leading_exponents(gb) -> tuple:
    """The leads of a basis's reducers, as exponent tuples."""
    return tuple(le for le, _, _ in gb.reducers)


def is_unit_ideal(gb) -> bool:
    return any(not any(e) for e in leading_exponents(gb))


def _pure_powers(gb, i: int) -> list[int]:
    """The exponents of the leads that are pure powers of x_i."""
    return [e[i] for e in leading_exponents(gb) if e[i] and sum(e) == e[i]]


def tuple_quotient_is_finite(gb) -> bool:
    """``groebner.quotient_is_finite`` on exponent tuples: every variable
    has a pure-power lead, or the ideal is the unit ideal."""
    return is_unit_ideal(gb) or all(_pure_powers(gb, i) for i in range(gb.order.nvars))


def tuple_standard_monomials(gb) -> list:
    """``groebner.standard_monomials`` on exponent tuples: the box below
    the least pure powers, less every multiple of a lead."""
    if not tuple_quotient_is_finite(gb):
        raise ValueError("quotient is not finite-dimensional")
    if is_unit_ideal(gb):
        return []
    box = [range(min(_pure_powers(gb, i))) for i in range(gb.order.nvars)]
    leads = leading_exponents(gb)
    return [m for m in itertools.product(*box) if not any(_divides(le, m) for le in leads)]


def linear_scan_normal_form(p, basis, order):
    """Remainder of full division by the ordered basis: each step scans the
    pending terms for the greatest one and reduces it by the first basis
    element whose lead divides it."""
    nv = p.nvars
    leads = [(leading_term(g, order), g) for g in basis if not g.is_zero()]
    rem = {}
    work = dict(p.terms)
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        hit = None
        for (le, lc), g in leads:
            if _divides(le, e):
                hit = (le, lc, g)
                break
        if hit is None:
            rem[e] = rem.get(e, Fraction(0)) + c
            if not rem[e]:
                del rem[e]
            continue
        le, lc, g = hit
        shift = tuple(x - y for x, y in zip(e, le))
        factor = c / lc
        for ge, gc in g.terms.items():
            if ge == le:
                continue
            ne = tuple(a + b for a, b in zip(ge, shift))
            s = work.get(ne, Fraction(0)) - factor * gc
            if s:
                work[ne] = s
            else:
                work.pop(ne, None)
    return MultiPoly(nv, rem)


def all_monomial_codim_check(fan, grading, polys, order) -> CodimReport:
    """Codimension-one check from scratch: a fresh basis and monomial list,
    and the linear-scan normal form of every critical-degree monomial must
    be a multiple of the single standard monomial."""
    degrees = [degree_of(p, grading) for p in polys]
    rho = critical_degree(grading, degrees)
    mons = monomial_basis(fan, grading, rho)
    if not mons:
        raise AllReduceToZero("no monomials exist in the critical degree")
    gb = GroebnerBasis.of(list(polys), order)
    leads = leading_exponents(gb)
    standard = [m for m in mons if not any(_divides(le, m) for le in leads)]
    if not standard:
        raise AllReduceToZero(
            "every critical-degree monomial reduces to zero")
    pivot = min(standard, key=order.key)
    if len(standard) > 1:
        others = sorted(standard, key=order.key)
        return CodimReport(False, pivot, (others[0], others[1]), len(standard))
    for m in mons:
        nf = linear_scan_normal_form(MultiPoly.monomial(m), gb.generators, order)
        if any(e != pivot for e in nf.terms):
            bad = next(e for e in nf.terms if e != pivot)
            return CodimReport(False, pivot, (m, bad), len(standard))
    return CodimReport(True, pivot, None, 1)


def normal_form_coefficient(problem, H) -> Fraction:
    """Coefficient of the pivot in the linear-scan normal form of H modulo
    the problem's basis; the pivot is the least critical-degree monomial
    outside the leading ideal."""
    gb = problem.groebner
    leads = leading_exponents(gb)
    standard = [m for m in problem.monomials
                if not any(_divides(le, m) for le in leads)]
    if not standard:
        raise AllReduceToZero(
            "every critical-degree monomial reduces to zero")
    pivot = min(standard, key=problem.order.key)
    nf = linear_scan_normal_form(H, gb.generators, problem.order)
    return nf.terms.get(pivot, Fraction(0))


def normal_form_residue(problem, H) -> Fraction:
    """Res(H) = c(H)/c_sigma with both coefficients read from normal forms,
    after the checks in their order: the degree of H by ``degree_of``, the
    hypotheses, the all-monomial codimension check, then c_sigma."""
    if H.is_zero():
        return Fraction(0)
    try:
        dH = degree_of(H, problem.grading)
    except NotHomogeneous as exc:
        raise WrongDegree(f"input is not homogeneous: {exc}") from exc
    if dH != problem.critical:
        raise WrongDegree(
            f"degree {dH.free}+t{dH.torsion} differs from the critical degree "
            f"{problem.critical.free}+t{problem.critical.torsion}")
    _require_hypotheses(problem)
    report = all_monomial_codim_check(problem.fan, problem.grading,
                                      problem.polys, problem.order)
    if not report.ok:
        raise CodimNotOne(
            f"critical-degree quotient has dimension {report.quotient_dim}")
    c_sigma = normal_form_coefficient(problem, problem.delta)
    if c_sigma == 0:
        raise HypothesesFailed(
            "cone determinant lies in the ideal; residue undefined")
    c_h = normal_form_coefficient(problem, H)
    return c_h / c_sigma if c_h else Fraction(0)


def normal_form_sigma_independence(problem) -> bool:
    """Every cone determinant's normal-form coefficient is the oriented
    sign of its cone times c_sigma."""
    c_sigma = normal_form_coefficient(problem, problem.delta)
    return all(normal_form_coefficient(problem, cone_determinant(problem, k))
               == problem.cone_sign(k) * c_sigma
               for k in range(len(problem.fan.max_cones)))


# ---------------------------------------------------------------------------
# the residue functional over Fractions, as ``residues.residue_functional``
# built it before it held one integer vector over a common denominator


def fraction_functional(order: MonomialOrder, groebner, monomials) -> tuple[CodimReport, dict]:
    """Codimension report and the functional as a dict of Fractions, from
    one ascending pass over ``monomials``: 1 at the pivot, 0 at every other
    standard monomial, -sum c_t*l(t*m/le)/lc at a monomial that the first
    dividing reducer (le, lc, tail) of ``groebner`` reduces."""
    if not monomials:
        raise AllReduceToZero("no monomials exist in the critical degree")
    add, sub = operator.add, operator.sub
    ell = {}
    standard = []
    for m in sorted(monomials, key=order.key):
        hit = first_divisor(groebner.reducers, m)
        if hit is None:
            ell[m] = Fraction(0) if standard else Fraction(1)
            standard.append(m)
            continue
        le, lc, tail = hit
        shift = tuple(map(sub, m, le))
        total = sum((c * ell[tuple(map(add, t, shift))] for t, c in tail), Fraction(0))
        ell[m] = -total if lc == 1 else -total / lc
    if not standard:
        raise AllReduceToZero(
            "every critical-degree monomial reduces to zero")
    if len(standard) > 1:
        return CodimReport(False, standard[0], tuple(standard[:2]), len(standard)), ell
    return CodimReport(True, standard[0], None, 1), ell


def fraction_normal_coefficient(ell: dict, H: MultiPoly) -> Fraction:
    """The Fraction functional applied to H term by term; terms outside
    the critical slice give 0."""
    return sum((c * ell[e] for e, c in H.terms.items() if e in ell), Fraction(0))


# ---------------------------------------------------------------------------
# the tuple kernel: division, S-polynomials and Buchberger as the package ran
# them on exponent tuples before each monomial was one packed int, with the
# heap key of a tuple and the integer reducer that scans for its lead

def heap_key(order: MonomialOrder, e: Exponent):
    """Key that ascends as the order descends: a min-heap of heap keys
    pops the greatest monomial first."""
    if order.kind == "lex":
        return tuple([-e[i] for i in order.precedence])
    return (-sum(e), *[e[i] for i in reversed(order.precedence)])


def first_divisor(table, e: Exponent):
    """The first reducer of ``table`` whose lead exponent divides e, or None."""
    for r in table:
        if all(map(operator.le, r[0], e)):
            return r
    return None


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def integer_reducer(terms: dict, order: MonomialOrder, modulus: int = 0):
    """(lead exponent, lead coefficient, tail terms) of nonzero integer
    terms: primitive with lc > 0 over Q, monic over GF(p)."""
    le = max(terms, key=order.key)
    lc = terms[le]
    if modulus:
        inv = pow(lc, -1, modulus)
        return le, 1, tuple((e, c * inv % modulus) for e, c in terms.items() if e != le)
    g = gcd(*terms.values()) if lc > 0 else -gcd(*terms.values())
    return le, lc // g, tuple((e, c // g) for e, c in terms.items() if e != le)


def tuple_divide(terms: dict, table, order: MonomialOrder, modulus: int = 0) -> tuple[int, dict]:
    """Pseudo-division of integer terms by a reducer table, in table order,
    over Q or, with a prime ``modulus``, over GF(modulus): ``(scale, r)``,
    r the integer terms of scale > 0 times the remainder.

    Pending terms live in a dict; a min-heap of ``heap_key`` holds each
    pending exponent once, so the greatest term is popped without scanning,
    and a term that cancels stays as zero until popped.  Every term a step
    adds is below the term it reduces.  A term c*x^e is reduced by the
    first reducer whose lead divides it: the pending terms are multiplied
    by a = lc/gcd(c, lc) (1 over GF(p), where a popped coefficient is
    reduced into [0, p)), and c/gcd(c, lc) times the shifted tail is
    subtracted.  A remainder term keeps the scale it was emitted at until
    the end.
    """
    add, sub = operator.add, operator.sub
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(terms)
    heap = [(heap_key(order, e), e) for e in work]
    heapq.heapify(heap)
    rem = []
    scale = 1
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e)
        if modulus:
            c %= modulus
        if not c:
            continue
        hit = first_divisor(table, e)
        if hit is None:
            rem.append((e, c, scale))
            continue
        le, lc, tail = hit
        g = gcd(c, lc)
        if g != lc:
            a = lc // g
            scale *= a
            work = {k: v * a for k, v in work.items()}
        c //= g
        shift = tuple(map(sub, e, le))
        for ge, gc in tail:
            ne = tuple(map(add, ge, shift))
            if ne in work:
                work[ne] -= c * gc
            else:
                work[ne] = -c * gc
                heappush(heap, (heap_key(order, ne), ne))
    return scale, {e: c * (scale // s) for e, c, s in rem}


def tuple_s_polynomial(f, g) -> dict:
    """Integer terms of (lc_g/h)*x^(L-lead_f)*f - (lc_f/h)*x^(L-lead_g)*g,
    L the lcm of the leads and h = gcd(lc_f, lc_g): the shifted tails, as
    the leads cancel."""
    fe, fc, ftail = f
    ge, gc, gtail = g
    h = gcd(fc, gc)
    a, b = gc // h, fc // h
    L = _lcm(fe, ge)
    sf, sg = _sub_exp(L, fe), _sub_exp(L, ge)
    add = operator.add
    terms = {tuple(map(add, e, sf)): a * c for e, c in ftail}
    for e, c in gtail:
        ne = tuple(map(add, e, sg))
        s = terms.get(ne, 0) - b * c
        if s:
            terms[ne] = s
        else:
            del terms[ne]
    return terms


def _tuple_gm_update(table, pairs, new_lead, order: MonomialOrder):
    """Gebauer-Moeller pair list update for a new element with lead
    new_lead, to be appended to the reducer table.

    A pair is ``(order key of lcm, lcm, i, j)``, keyed once when it is made.
    Coprime pairs survive the divisibility sieve so they can knock out other
    candidates, then are dropped at the end; old pairs whose lcm the new lead
    properly refines are discarded.
    """
    t = len(table)
    lt = new_lead
    lcms = [_lcm(le, lt) for le, _, _ in table]
    coprime = [L == tuple(map(operator.add, le, lt))
               for (le, _, _), L in zip(table, lcms)]
    C = list(range(t))
    D = []
    while C:
        i = C.pop(0)
        li = lcms[i]
        if coprime[i] or not any(_divides(lcms[j], li) for j in C + D):
            D.append(i)
    kept_old = [p for p in pairs
                if not (_divides(lt, p[1]) and lcms[p[2]] != p[1] and lcms[p[3]] != p[1])]
    return kept_old + [(order.key(lcms[i]), lcms[i], i, t) for i in D if not coprime[i]]


def groupby_gm_update(table, pairs, new_lead: int, packing: Packing, serial):
    """The packed Gebauer-Moeller pair update as it ran with one
    ``Packing.lcm`` call per lead, its equal-lcm groups from
    ``itertools.groupby`` over the stable sort and the minimality test one
    ``any`` over the minimal lcms, by one divisibility test per lcm: the new
    heap of ``(lcm, serial number, i, j)`` pairs, keeping for each minimal
    lcm its last candidate and none from a group that holds a coprime
    pair."""
    t = len(table)
    lcm = packing.lcm

    def divides(a, b):
        return packing.first_divisor([(a,)], b) is not None

    lcms = [lcm(le, new_lead) for le, _, _ in table]
    product = new_lead - packing.one
    at = lcms.__getitem__
    minimal, kept = [], []
    for L, group in itertools.groupby(sorted(range(t), key=at), key=at):
        if any(divides(m, L) for m in minimal):
            continue
        minimal.append(L)
        group = list(group)
        if all(L != table[i][0] + product for i in group):
            kept.append(group[-1])
    kept.sort()
    new = [p for p in pairs
           if not (divides(new_lead, p[0]) and lcms[p[2]] != p[0] and lcms[p[3]] != p[0])]
    new += [(lcms[i], next(serial), i, t) for i in kept]
    heapq.heapify(new)
    return new


def tuple_buchberger(gens, order: MonomialOrder, modulus: int = 0):
    """Reduced Groebner basis of the ideal generated by ``gens``, integer
    term dicts as ``tuple_divide`` reads them, over Q or, with a prime
    ``modulus``, over GF(modulus): its reducer table, ascending by lead,
    primitive with lc > 0 over Q and monic over GF(modulus).

    Each element is kept only as an integer reducer in one table: the table
    is the divisor list, the source of every S-polynomial and the list of
    leads the pair update reads.  Returns ``[((0,)*n, 1, ())]`` as soon as
    a remainder is a nonzero constant: that is the reduced basis of the
    unit ideal.
    """
    G = [g for g in gens if g]
    if not G:
        return []
    table = []
    pairs = []

    def candidates():
        yield from sorted(G, key=lambda q: order.key(max(q, key=order.key)))
        while pairs:
            best = min(pairs, key=operator.itemgetter(0))
            pairs.remove(best)
            yield tuple_s_polynomial(table[best[2]], table[best[3]])

    for q in candidates():
        r = tuple_divide(q, table, order, modulus)[1]
        if not r:
            continue
        if not any(map(any, r)):
            return [((0,) * order.nvars, 1, ())]
        g = integer_reducer(r, order, modulus)
        pairs = _tuple_gm_update(table, pairs, g[0], order)
        table.append(g)
    # minimalize: drop elements whose lead is divisible by another lead
    minimal = [g for i, g in enumerate(table)
               if not any(k != i and _divides(h[0], g[0]) and (h[0] != g[0] or k < i)
                          for k, h in enumerate(table))]
    minimal.sort(key=lambda g: order.key(g[0]))
    # reduce tails; no other minimal lead divides a lead, which keeps its
    # coefficient times the scale of the division
    reduced = []
    for g in minimal:
        le, lc, tail = g
        scale, rem = tuple_divide(dict(tail), [h for h in minimal if h is not g], order, modulus)
        reduced.append(integer_reducer({le: scale * lc, **rem}, order, modulus))
    return reduced


def unpacked_basis(gens, order: MonomialOrder, modulus: int = 0):
    """The table of ``packed_basis`` with its monomials unpacked to exponent
    tuples, as the package's public ``buchberger`` once returned it."""
    packing = Packing(order)
    return [(packing.unpack(le), lc, tuple(packing.unpack_terms(dict(tail)).items()))
            for le, lc, tail in packed_basis(gens, order, modulus)]


def fraction_poly(nvars: int, terms: dict) -> MultiPoly:
    """The polynomial of nonzero rational ``terms``, keyed by int exponent
    tuples of length nvars, built unchecked with its denominators cleared
    once."""
    d, nums = clear_denominators(terms.values())
    return MultiPoly.from_integer_terms(nvars, d, dict(zip(terms, nums)))


def mod_p(q: MultiPoly) -> dict[Exponent, int]:
    """The integer terms of q mod P: its P-integral coefficients reduced to
    ints in [1, P), the terms that vanish mod P dropped, as the zero-locus
    test once converted each chart polynomial."""
    terms = {e: c.numerator * pow(c.denominator, -1, P) % P for e, c in q.terms.items()}
    return {e: r for e, r in terms.items() if r}


# ---------------------------------------------------------------------------
# division and S-polynomials over Fractions, as Buchberger ran them before its
# arithmetic went to integers: monic reducers over Q, divided term by term

Reducer = tuple[Exponent, Fraction, tuple[tuple[Exponent, Fraction], ...]]


def reducer(g: MultiPoly, order: MonomialOrder) -> Reducer:
    """(lead exponent, lead coefficient, tail terms) of a nonzero polynomial."""
    le, lc = leading_term(g, order)
    return le, lc, tuple((e, c) for e, c in g.terms.items() if e != le)


def reducer_table(basis, order: MonomialOrder) -> list[Reducer]:
    """Reducers of the nonzero elements of basis, in basis order."""
    return [reducer(g, order) for g in basis if not g.is_zero()]


def integer_table(basis, order: MonomialOrder, modulus: int = 0):
    """The integer reducers of the nonzero elements of basis, read back
    from their coefficients, as ``GroebnerBasis`` once derived its table
    from its monic Fraction generators: primitive with lc > 0 over Q, monic
    over GF(modulus) for int coefficients."""
    return [integer_reducer(g.num, order, modulus)
            for g in basis if not g.is_zero()]


def divide(p: MultiPoly, table, order: MonomialOrder, modulus: int = 0) -> MultiPoly:
    """Remainder of full division of p by a reducer table, in table order,
    over Q or, with a prime ``modulus``, over GF(modulus).

    Pending terms live in a dict from exponent to coefficient; a min-heap of
    ``heap_key`` holds each pending exponent once, so the greatest
    term is popped without scanning.  A term that cancels stays in the dict
    as zero and is skipped when popped.  Every term a reduction step adds is
    below the term it reduces, so no exponent returns once popped.  Each
    term is reduced by the first table entry whose lead divides it.
    """
    def hkey(e):
        return heap_key(order, e)
    le_, add, sub = operator.le, operator.add, operator.sub
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(p.terms)
    heap = [(hkey(e), e) for e in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e)
        if modulus:
            c %= modulus
        if not c:
            continue
        for le, lc, tail in table:
            if all(map(le_, le, e)):
                break
        else:
            rem[e] = c
            continue
        shift = tuple(map(sub, e, le))
        factor = c if lc == 1 else c * pow(lc, -1, modulus) if modulus else c / lc
        for ge, gc in tail:
            ne = tuple(map(add, ge, shift))
            if ne in work:
                work[ne] -= factor * gc
            else:
                work[ne] = -factor * gc
                heappush(heap, (hkey(ne), ne))
    return fraction_poly(p.nvars, rem)


def s_polynomial(f: Reducer, g: Reducer, nvars: int) -> MultiPoly:
    """S-polynomial of two monic reducers: both tails shifted to the lcm of
    the leads, g's subtracted from f's.  The leads cancel, so they never
    enter the sum.  Over GF(p) both tails are reduced into [0, p), so a
    difference is zero exactly when it is zero mod p."""
    fe, _, ftail = f
    ge, _, gtail = g
    L = _lcm(fe, ge)
    sf, sg = _sub_exp(L, fe), _sub_exp(L, ge)
    add = operator.add
    terms = {tuple(map(add, e, sf)): c for e, c in ftail}
    for e, c in gtail:
        ne = tuple(map(add, e, sg))
        s = terms.get(ne, 0) - c
        if s:
            terms[ne] = s
        else:
            del terms[ne]
    return fraction_poly(nvars, terms)


def _monic(r: MultiPoly, order: MonomialOrder, modulus: int) -> Reducer:
    le, lc, tail = reducer(r, order)
    if modulus:
        inv = pow(lc, -1, modulus)
        return le, 1, tuple((e, c * inv % modulus) for e, c in tail)
    return le, Fraction(1), tuple((e, c / lc) for e, c in tail)


def multipoly_s_polynomial(f, g, order):
    """S-polynomial through MultiPoly products: each input is scaled by the
    monomial that lifts its lead to the lcm over its lead coefficient."""
    (ef, cf) = leading_term(f, order)
    (eg, cg) = leading_term(g, order)
    L = tuple(max(x, y) for x, y in zip(ef, eg))
    mf = MultiPoly.monomial(tuple(a - b for a, b in zip(L, ef)), Fraction(1, 1) / cf)
    mg = MultiPoly.monomial(tuple(a - b for a, b in zip(L, eg)), Fraction(1, 1) / cg)
    return mf * f - mg * g


def _gm_update_by_index(G_leads, pairs, new_index, new_lead):
    """Gebauer-Moeller update on (i, j) index pairs, recomputing each lcm
    wherever it is needed."""
    t = new_index
    lt = new_lead

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def pair_lcm(i):
        return lcm(G_leads[i], lt)

    def coprime(i):
        return pair_lcm(i) == tuple(a + b for a, b in zip(G_leads[i], lt))

    C = list(range(t))
    D = []
    while C:
        i = C.pop(0)
        li = pair_lcm(i)
        if coprime(i) or (all(not _divides(pair_lcm(j), li) for j in C)
                          and all(not _divides(pair_lcm(j), li) for j in D)):
            D.append(i)
    E = [i for i in D if not coprime(i)]
    kept_old = []
    for (i, j) in pairs:
        lij = lcm(G_leads[i], G_leads[j])
        if _divides(lt, lij) and pair_lcm(i) != lij and pair_lcm(j) != lij:
            continue
        kept_old.append((i, j))
    return kept_old + [(i, t) for i in E]


def parallel_list_buchberger(gens, order, modulus=0):
    """Reduced monic Groebner basis over Q or, with a prime ``modulus`` and
    int coefficients, over GF(modulus), keeping each element three times:
    as a MultiPoly, as a lead, and as a reducer.  S-polynomials are
    MultiPoly products, and each pair's lcm and order key are recomputed
    whenever the next pair is chosen."""
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return []
    nv = G[0].nvars
    basis = []
    leads = []
    table = []
    pairs = []

    def monic(r):
        c = leading_term(r, order)[1]
        if modulus:
            inv = pow(int(c), -1, modulus)
            return fraction_poly(nv, {e: v * inv % modulus for e, v in r.terms.items()})
        return r * (Fraction(1) / c)

    def pair_key(ij):
        i, j = ij
        return order.key(tuple(max(x, y) for x, y in zip(leads[i], leads[j])))

    def candidates():
        yield from sorted(G, key=lambda q: order.key(leading_term(q, order)[0]))
        while pairs:
            best = min(pairs, key=pair_key)
            pairs.remove(best)
            i, j = best
            yield multipoly_s_polynomial(basis[i], basis[j], order)

    for q in candidates():
        r = divide(q, table, order, modulus)
        if r.is_zero():
            continue
        if is_constant(r):
            return [MultiPoly.constant(nv, 1)]
        e = leading_term(r, order)[0]
        r = monic(r)
        pairs = _gm_update_by_index(leads, pairs, len(basis), e)
        basis.append(r)
        leads.append(e)
        table.append(reducer(r, order))
    minimal = [i for i, e in enumerate(leads)
               if not any(k != i and _divides(leads[k], e)
                          and (leads[k] != e or k < i) for k in range(len(basis)))]
    reduced = []
    for i in minimal:
        r = divide(basis[i], [table[k] for k in minimal if k != i], order, modulus)
        if r.is_zero():
            continue
        reduced.append(monic(r))
    reduced.sort(key=lambda q: order.key(leading_term(q, order)[0]))
    return reduced


def per_call_representative_divisor(grading, degree):
    """The canonical exponent vector of a degree, with the degree system put
    in Smith form and the pairing image in Hermite form on every call."""
    nv = grading.nvars
    rhs = list(degree.free) + list(degree.torsion)
    sol = smith_normal_form(degree_system(grading)).solve(rhs)
    if sol is None:
        raise NoIntegralLift("degree is not in the grading group image")
    n = len(grading.rays[0]) if grading.rays else 0
    image_rows = [tuple(r[j] for r in grading.rays) for j in range(n)]
    return reduce_mod_lattice(sol[:nv], hnf_rows(image_rows, nv, align="right"))


def constructor_dehomogenize(p, fan, cone_index):
    """The chart of p through the validating ``MultiPoly`` constructor,
    which sums the terms that meet and drops zero sums."""
    cone = fan.cone(cone_index)
    pos = {ray: k for k, ray in enumerate(cone)}
    out = {}
    for e, c in p.terms.items():
        ne = [0] * len(cone)
        for i, k in enumerate(e):
            if k and i in pos:
                ne[pos[i]] = k
        ne = tuple(ne)
        out[ne] = out.get(ne, Fraction(0)) + c
    return MultiPoly(len(cone), out)


def _summed(nvars, pairs):
    """The validating ``MultiPoly`` of (exponent, coefficient) pairs, with
    the coefficients of equal exponents summed first."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, Fraction(0)) + c
    return MultiPoly(nvars, out)


def constructor_partial(p, i):
    """dp/dx_i through the validating constructor."""
    return _summed(p.nvars, ((e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                             for e, c in p.terms.items() if e[i]))


def constructor_decompose(F, fan, cone_index):
    """``decompose`` through the validating constructor: a term goes to the
    slot of the first cone variable that divides it, else to zhat's."""
    cone = fan.max_cones[cone_index]
    zhat = tuple(0 if i in cone else 1 for i in range(fan.nvars))
    slots = [[] for _ in range(len(cone) + 1)]
    for e, c in F.terms.items():
        pos = next((k for k, i in enumerate(cone) if e[i]), None)
        shift = zhat if pos is None else tuple(int(j == cone[pos]) for j in range(fan.nvars))
        if any(a < b for a, b in zip(e, shift)):
            raise DecompositionFailed("term outside the irrelevant ideal for this cone",
                                      witness=e)
        slots[0 if pos is None else pos + 1].append((tuple(map(operator.sub, e, shift)), c))
    return tuple(_summed(fan.nvars, pairs) for pairs in slots)


def fraction_cone_determinant(problem, k) -> MultiPoly:
    """Delta_k as the package built it before its determinants were integer:
    the Fraction minor expansion (``poly_det``) of the decomposition matrix
    from ``constructor_decompose``, whose column j holds input j's parts."""
    cols = [constructor_decompose(F, problem.fan, k) for F in problem.polys]
    return poly_det([list(row) for row in zip(*cols)])


def fraction_jacobian(polys) -> MultiPoly:
    """The Jacobian determinant of a square chart system over Fractions."""
    return poly_det([[constructor_partial(p, j) for j in range(p.nvars)] for p in polys])


def constructor_lift_poly(cd, p, y_index=None):
    """``cayley._lift_poly`` through the validating constructor."""
    y = tuple(int(j == y_index) for j in range(cd.n + 1))
    return _summed(cd.bundle.nvars, ((e + y, c) for e, c in p.terms.items()))


def onto_degree_basis(fan, rows) -> bool:
    """Whether user free rows that vanish on the ray image present the
    grading group: as many rows as its rank, and the degree map they define
    with the computed torsion rows onto, the Smith diagonal of its
    ``degree_system`` all ones.  A map of Z^r + torsion onto itself is an
    isomorphism."""
    computed = compute_grading(fan)
    if len(rows) != computed.rank:
        return False
    user = Grading(computed.rays, freeze(rows), computed.torsion_rows, computed.moduli)
    system = degree_system(user)
    return smith_normal_form(system).diagonal == (1,) * len(system)


def grevlex_chart_dimension(polys):
    """(finite, quotient dimension) of a square system from a grevlex
    basis; the dimension is None when the quotient is infinite."""
    gb = GroebnerBasis.of(list(polys), grevlex(polys[0].nvars))
    if not quotient_is_finite(gb):
        return False, None
    return True, len(standard_monomials(gb))


def fraction_times_variable(quotient):
    """``_Quotient._times_variable`` from Fraction normal forms: each
    x_j*x^b, b in the packed B unpacked, reduced by ``GroebnerBasis.reduce``,
    the lcm D_j of their denominators, and D_j times each form as integers,
    keyed by packed monomials."""
    packing = quotient.gb.packing
    out = []
    for j in range(quotient.polys[0].nvars):
        forms = {b: quotient.gb.reduce(MultiPoly.monomial(
                    tuple(k + (i == j) for i, k in enumerate(packing.unpack(b))))).terms
                 for b in quotient.basis}
        D = lcm(*(c.denominator for nf in forms.values() for c in nf.values()))
        out.append((D, {b: {packing.pack(e): c.numerator * (D // c.denominator)
                            for e, c in nf.items()}
                        for b, nf in forms.items()}))
    return out


def fraction_matrix(quotient, g):
    """``_Quotient.matrix`` from the Fraction normal form of g, its
    denominators cleared by ``clear_denominators``, each later column
    built by the tables of ``fraction_times_variable`` from the column of
    b - e_j, j the first variable of the unpacked b."""
    packing = quotient.gb.packing
    nf = quotient.gb.reduce(g).terms
    d, nums = clear_denominators(nf.values())
    tables = fraction_times_variable(quotient)
    B = quotient.basis
    cols = {b: dict(zip(map(packing.pack, nf), nums)) for b in B[:1]}
    for b in B[1:]:
        e = packing.unpack(b)
        j = next(i for i, k in enumerate(e) if k)
        col = {}
        for x, c in cols[packing.pack(tuple(k - (i == j) for i, k in enumerate(e)))].items():
            for f, y in tables[j][1][x].items():
                col[f] = col.get(f, 0) + c * y
        cols[b] = col
    return d, [[cols[b].get(e, 0) for b in B] for e in B]


def trace_of_solve(A, B) -> Fraction | None:
    """Tr(A^-1 B) for square integer matrices of one size, or None when
    det A = 0; ValueError for other shapes.  The trace of the local sums as
    ``localres`` took it before one solve for q = h/(g*J) replaced it, kept
    as ``TupleQuotient``'s trace and as the reference of ``_Quotient.trace``.

    One Bareiss elimination of A + tB over Z[t]/(t^2), pivoting on constant
    terms, since det(A + tB) = det A * (1 + t Tr(A^-1 B)) mod t^2.  Every
    Bareiss quotient is exact over Z[t], and its divisor, a previous pivot,
    has a nonzero constant term, so the quotient's two low coefficients are
    exact integer quotients.  A column with no nonzero constant term left
    means det A = 0.
    """
    n = len(A)
    if len(B) != n or any(len(row) != n for row in (*A, *B)):
        raise ValueError("trace of a non-square or mismatched pair")
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


class TupleQuotient:
    """``localres._Quotient`` as it ran on exponent tuples: B the standard
    monomials in ascending tuple order, the border pass's forms unpacked
    into tables keyed by tuples, and each matrix reducing g through
    ``GroebnerBasis.reduce``.  Its matrices are the package's with rows and
    columns permuted alike, so every trace and determinant is the same."""

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
        packing = self.gb.packing
        weights = packing.weights
        leads = {le: (lc, tail) for le, lc, tail in self.gb.table}
        packed = [packing.pack(b) for b in self.basis]
        forms = {x: (1, {x: 1}) for x in packed}
        standard = set(forms)
        for u in sorted({x + w for x in packed for w in weights} - standard):
            if u in leads:
                lc, tail = leads[u]
                forms[u] = (lc, {y: -c for y, c in tail})
                continue
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
        unpack = packing.unpack
        out = []
        for s in weights:
            cols = [forms[x + s] for x in packed]
            D = lcm(*(d for d, _ in cols))
            out.append((D, {b: {unpack(y): c * (D // d) for y, c in terms.items()}
                            for b, (d, terms) in zip(self.basis, cols)}))
        return out

    @cached_property
    def jacobian(self) -> MultiPoly:
        return integer_poly_det([[p.partial(j) for j in range(p.nvars)] for p in self.polys])

    def matrix(self, g: MultiPoly):
        nf = self.gb.reduce(g)
        cols = {b: nf.num for b in self.basis[:1]}
        for b in self.basis[1:]:
            j = next(i for i, k in enumerate(b) if k)
            table = self._times_variable[j][1]
            col = {}
            for e, c in cols[tuple(k - (i == j) for i, k in enumerate(b))].items():
                for f, x in table[e].items():
                    col[f] = col.get(f, 0) + c * x
            cols[b] = col
        return nf.d, [[cols[b].get(e, 0) for b in self.basis] for e in self.basis]

    def require_simple(self):
        if mat_det(self.matrix(self.jacobian)[1]) == 0:
            raise NonSimpleZero("the Jacobian vanishes at a zero (det M_J = 0)")

    def trace(self, h: MultiPoly, g: MultiPoly) -> Fraction | None:
        d_gj, A = self.matrix(g * self.jacobian)
        d_h, B = self.matrix(h)
        t = trace_of_solve(A, B)
        return None if t is None else t * d_gj / d_h


def q_chart_zero_locus(fan, polys) -> ZeroLocusReport:
    """The zero-locus test over Q alone: a grevlex basis over Q of every
    chart ideal, in cone order, until one is not the unit ideal."""
    for k, cone in enumerate(fan.max_cones):
        charts = [dehomogenize(p, fan, k) for p in polys]
        if not is_unit_ideal(GroebnerBasis.of(charts, grevlex(fan.dim))):
            e = tuple(0 if i in cone else 1 for i in range(fan.nvars))
            return ZeroLocusReport(False, k, e)
    return ZeroLocusReport(True)


def chart_is_unit(fan, polys, k, modulus) -> bool:
    """Whether the chart ideal of cone k is the unit ideal over GF(modulus),
    from its polynomials mod P, or over Q for modulus 0."""
    charts = [dehomogenize(F, fan, k) for F in polys]
    if modulus:
        return unpacked_basis([mod_p(q) for q in charts], grevlex(fan.dim), modulus) \
            == [((0,) * fan.dim, 1, ())]
    return GroebnerBasis.of(charts, grevlex(fan.dim)).generators \
        == (MultiPoly.constant(fan.dim, 1),)


def whole_chart_zero_locus(fan, polys) -> ZeroLocusReport:
    """The zero-locus test without a basis as it ran before a chart with a
    monomial input was split: each chart ideal decided whole, in cone
    order, by ``chart_is_unit`` mod P on a complete fan with P-integral
    inputs, else over Q."""
    integral = is_complete(fan).ok and all(F.d % P for F in polys)
    for k, cone in enumerate(fan.max_cones):
        if not (integral and chart_is_unit(fan, polys, k, P)) and not chart_is_unit(fan, polys, k, 0):
            return ZeroLocusReport(False, k, tuple(0 if i in cone else 1 for i in range(fan.nvars)))
    return ZeroLocusReport(True)


def split_chart_zero_locus(fan, polys) -> ZeroLocusReport:
    """The zero-locus test without a basis as it ran while a chart with a
    monomial input was split: with a single nonconstant term c*x^a among
    a chart's polynomials, one system for each v with a_v > 0, the other
    polynomials at x_v = 0, else the chart ideal; the first chart with a
    system that is the unit ideal neither mod P (complete fan, P-integral
    inputs) nor over Q is the witness."""
    order = grevlex(fan.dim)
    unit_table = [(Packing(order).one, 1, ())]
    integral = is_complete(fan).ok and all(F.d % P for F in polys)
    for k, cone in enumerate(fan.max_cones):
        terms = [dehomogenize(F, fan, k).num for F in polys]
        i = next((i for i, t in enumerate(terms) if len(t) == 1 and any(next(iter(t)))), None)
        if i is None:
            systems = [terms]
        else:
            others = terms[:i] + terms[i + 1:]
            systems = [[{e: c for e, c in t.items() if not e[v]} for t in others]
                       for v, a in enumerate(next(iter(terms[i]))) if a]
        for t in systems:
            if not (integral and packed_basis(t, order, P) == unit_table) \
                    and packed_basis(t, order, 0) != unit_table:
                return ZeroLocusReport(False, k, tuple(0 if i in cone else 1
                                                       for i in range(fan.nvars)))
    return ZeroLocusReport(True)


def positive_ray_relation(fan):
    """lambda > 0 with sum lambda_j * ray_j = 0, on a fan of n+1 rays that
    positively span, from the signed maximal minors of the rays
    (-1)^j * det(rays but j), which are a relation by Cramer's rule; None
    on any other fan."""
    if fan.nvars != fan.dim + 1:
        return None
    minors = [(-1) ** j * cofactor_det([list(r) for i, r in enumerate(fan.rays) if i != j])
              for j in range(fan.nvars)]
    if all(c < 0 for c in minors):
        minors = [-c for c in minors]
    return tuple(minors) if all(c > 0 for c in minors) else None


def leads_decide(fan, polys) -> bool:
    """Whether ``no_common_zeros_on_x`` reads its answer off the leads of a
    basis: a complete fan with n+1 rays, and every input homogeneous for
    the positive ray relation."""
    weights = positive_ray_relation(fan)
    return (weights is not None and is_complete(fan).ok
            and all(len({sum(a * w for a, w in zip(e, weights)) for e in F.terms}) <= 1
                    for F in polys))


def radical_member(p, gens, order=None) -> bool:
    """Membership in the radical via a fresh slack variable.

    Appends a variable w with least precedence and asks whether
    1 - w*p lands in the unit ideal together with the generators.
    """
    nv = p.nvars
    big = nv + 1

    def lift(q):
        return MultiPoly(big, {e + (0,): c for e, c in q.terms.items()})

    w = MultiPoly.variable(big, nv)
    sat = MultiPoly.constant(big, 1) - w * lift(p)
    gens_big = [lift(g) for g in gens] + [sat]
    if order is None:
        prec = tuple(range(big))
    else:
        prec = tuple(order.precedence) + (nv,)
    gb = GroebnerBasis.of(gens_big, MonomialOrder("grevlex", prec))
    return is_unit_ideal(gb)


def _dual_rows(fan, cone):
    """Integer inequality description of a full simplicial cone."""
    n = fan.dim
    A = [[fan.rays[c][j] for j in range(n)] for c in cone]
    rows = []
    for i in range(n):
        rhs = [Fraction(int(i == k)) for k in range(n)]
        # the covector dual to the i-th generator: <m, ray_k> = delta_ik
        sol = solve_rational(A, rhs)
        den = 1
        for x in sol:
            den = den * x.denominator // gcd(den, x.denominator)
        rows.append(primitive(tuple(int(x * den) for x in sol)))
    return rows


def _cones_overlap_witness(fan, ka, kb):
    """A direction in both cones outside their common face, or None."""
    n = fan.dim
    ca, cb = fan.max_cones[ka], fan.max_cones[kb]
    D = []
    for row in _dual_rows(fan, ca) + _dual_rows(fan, cb):
        if row not in D:
            D.append(row)
    common = set(ca) & set(cb)
    cands = set()
    for subset in itertools.combinations(D, n - 1):
        v = integer_kernel_vector(list(subset), n)
        if v is None:
            continue
        for s in (v, tuple(-x for x in v)):
            if all(dot(d, s) >= 0 for d in D):
                cands.add(s)
    A = [[fan.rays[c][j] for j in range(n)] for c in ca]
    for v in sorted(cands):
        lam = solve_rational(transpose(A), v)
        if lam is None:
            continue
        for pos, c in enumerate(ca):
            if c not in common and lam[pos] != 0:
                return v
    return None


def pairwise_is_complete(fan) -> bool:
    """Completeness by the quadratic route: simplicial cones that use every
    ray, every facet in exactly two cones, and any two cones meeting exactly
    along their common face, tested pair by pair through the extreme rays
    of their intersection."""
    n = fan.dim
    if not fan.max_cones or not is_simplicial(fan):
        return False
    if set().union(*fan.max_cones) != set(range(fan.nvars)):
        return False
    if len(set(fan.max_cones)) != len(fan.max_cones):
        return False
    if n == 1:
        dirs = {fan.rays[cone[0]][0] for cone in fan.max_cones}
        return dirs == {1, -1} and len(fan.max_cones) == 2
    facet_count = {}
    for cone in fan.max_cones:
        for facet in itertools.combinations(cone, n - 1):
            facet_count[facet] = facet_count.get(facet, 0) + 1
    if any(cnt != 2 for cnt in facet_count.values()):
        return False
    return all(_cones_overlap_witness(fan, ka, kb) is None
               for ka, kb in itertools.combinations(range(len(fan.max_cones)), 2))


def minor_rank(A) -> int:
    """Rank as the size of the largest square submatrix with a nonzero
    determinant (fraction-free Bareiss, no row reduction)."""
    m = len(A)
    n = len(A[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if fraction_mat_det([[A[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def cofactor_det(A):
    """Determinant by Laplace expansion along the first row."""
    if not A:
        return 1
    return sum((-1) ** j * A[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)) if A[0][j])


# ---------------------------------------------------------------------------
# determinants as the package ran them before every determinant was an
# integer one: Bareiss over Q after row scaling, the determinant of a matrix
# of polynomials expanded over Fractions, and each cone's orientation and
# index read from a basis of M oriented positively on a cone; and the
# product of polynomials as it ran before it was an integer one


def fraction_mat_det(A) -> int | Fraction:
    """Exact determinant over Q: fraction-free Bareiss elimination after
    each row is scaled by the lcm of its denominators, then division by the
    product of the scales.  An integer matrix has an int determinant."""
    n = len(A)
    if n == 0:
        return 1
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    scales = [lcm(*(x.denominator for x in row)) for row in A]
    M = [[int(x * d) for x in row] for row, d in zip(A, scales)]
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
    det, scale = sign * M[n - 1][n - 1], prod(scales)
    return det if scale == 1 else Fraction(det, scale)


def poly_det(M: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a matrix of polynomials, over Fractions.

    Expands from the last row up: the minor of the bottom k rows on each
    k-set of columns is found once, from the row above's entries and the
    (k-1)-minors already found, skipping zero factors.  That is at most
    n·2^(n-1) - n products for an n×n matrix.
    """
    n = len(M)
    if n == 0:
        raise ValueError("empty determinant")
    if any(len(row) != n for row in M):
        raise NonSquare("determinant needs a square matrix")
    minors = {(j,): M[-1][j] for j in range(n)}
    for r in range(n - 2, -1, -1):
        row = M[r]
        below = minors
        minors = {}
        for cols in itertools.combinations(range(n), n - r):
            total = MultiPoly.zero(row[0].nvars)
            for k, j in enumerate(cols):
                minor = below[cols[:k] + cols[k + 1:]]
                if row[j].is_zero() or minor.is_zero():
                    continue
                term = fraction_product(row[j], minor)
                total = total - term if k % 2 else total + term
            minors[cols] = total
    return minors[tuple(range(n))]


def fraction_product(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p*q by a double loop over the Fraction terms, adding each product of
    two terms into its exponent and dropping a sum that cancels."""
    p._operand(q)
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return fraction_poly(p.nvars, out)


def pairing_det(fan: FanData, basis, ray_indices) -> int:
    """det of the pairing matrix between basis covectors and the chosen rays."""
    M = [[dot(m, fan.rays[i]) for i in ray_indices] for m in basis]
    return fraction_mat_det(M)


def oriented_basis(fan: FanData, cone_index: int):
    """Standard basis rows, first row negated if needed, so the pairing
    determinant against the cone's rays (in ascending ray order) is positive."""
    n = fan.dim
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    d = pairing_det(fan, rows, fan.max_cones[cone_index])
    if d == 0:
        raise ValueError("cone rays are dependent")
    if d < 0:
        rows[0] = [-x for x in rows[0]]
    return tuple(tuple(r) for r in rows)


def basis_toric_jacobian(problem) -> MultiPoly:
    """The toric Jacobian as the package once took it: the chart Jacobian on
    sigma, divided by the pairing determinant of sigma's oriented basis
    against sigma's rays, lifted to the critical degree by the Smith-form
    lift.  DegreeMismatch unless all inputs share one degree class."""
    if len(set(problem.degrees)) > 1:
        raise DegreeMismatch("inputs must share a single degree class")
    fan, k = problem.fan, problem.sigma
    charts = [dehomogenize(p, fan, k) for p in problem.polys]
    rows = [charts] + [[f.partial(j) for f in charts] for j in range(fan.dim)]
    det = poly_det(rows) * Fraction(1, pairing_det(fan, oriented_basis(fan, k),
                                                   fan.max_cones[k]))
    if det.is_zero():
        return MultiPoly.zero(fan.nvars)
    return smith_homogenize_to_degree(det, fan, k, problem.critical, problem.grading)


# ---------------------------------------------------------------------------
# the polytope layer as it was before integer rows: every n-subset of the
# inequalities eliminated over Q, boundedness from rational kernels, every
# point of the vertices' bounding box tested with Fraction dot products, and
# ampleness by Fraction comparisons


def fraction_vertices(poly):
    """All vertices, as sorted rational tuples, via active-set enumeration."""
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


def primitive(v):
    """v divided by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in v)


def rational_kernel(rows, ncols):
    """Basis of the rational null space of the given rows."""
    work, pivots = rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(work, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def integer_kernel_vector(rows, ncols):
    """Primitive integer kernel vector when the null space is a line, else None."""
    basis = rational_kernel(rows, ncols)
    if len(basis) != 1:
        return None
    v = basis[0]
    den = lcm(*(x.denominator for x in v))
    iv = tuple(int(x * den) for x in v)
    return primitive(iv)


def kernel_is_bounded(poly) -> bool:
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


def box_lattice_points(poly):
    """All integer points, in lexicographic order: the points of the
    vertices' bounding box that the polytope contains."""
    if poly.dim and not kernel_is_bounded(poly):
        raise Unbounded("polytope has an unbounded direction")
    verts = fraction_vertices(poly)
    if not verts:
        return []
    ranges = []
    for j in range(poly.dim):
        lo = min(v[j] for v in verts)
        hi = max(v[j] for v in verts)
        ranges.append(range(ceil(lo), floor(hi) + 1))
    return [pt for pt in itertools.product(*ranges) if poly.contains(pt)]


def dot_divisor_monomials(rays, coeffs):
    """Sorted exponent vectors e_i = <m, ray_i> + a_i, one per lattice point
    m of the divisor's polytope, each built from its own dot products."""
    poly = HPolytope(len(rays[0]), tuple(rays), tuple(Fraction(c) for c in coeffs))
    return sorted(tuple(dot(m, ray) + a for ray, a in zip(rays, coeffs))
                  for m in box_lattice_points(poly))


# ---------------------------------------------------------------------------
# the bundle lift as it was before the bundle fan was built: both bundle
# polytopes a plain HPolytope on the lifted rays, so that each takes the
# boundedness test and the n-subset vertices


def lifted_rays(fan, divisors):
    """The bundle's rays: each base ray after an e-part of coefficient
    differences against divisors[0], then y_0 = (-1, ..., -1, 0, ..., 0) and
    y_j = e_j for j = 1..n."""
    n = fan.dim
    lifted = []
    for i in range(fan.nvars):
        epart = tuple(divisors[j][i] - divisors[0][i] for j in range(1, n + 1))
        lifted.append(epart + fan.rays[i])
    lifted.append(tuple([-1] * n + [0] * n))
    for j in range(n):
        e = [0] * (2 * n)
        e[j] = 1
        lifted.append(tuple(e))
    return tuple(lifted)


def hpolytope_lifted_slice(cd):
    """Exponent vectors of the lifted critical degree, from a plain
    HPolytope on the lifted rays."""
    coeffs = representative_divisor(cd.grading, critical_degree_lifted(cd))
    return divisor_monomials(HPolytope(2 * cd.n, lifted_rays(cd.fan, cd.divisors), coeffs))


def hpolytope_bundle_points(cd):
    """Lattice points of the bundle polytope, from a plain HPolytope on the
    lifted rays with offsets x^{D_0} y_0."""
    return lattice_points(HPolytope(2 * cd.n, lifted_rays(cd.fan, cd.divisors),
                                    _bundle_exponent(cd)))


def hpolytope_equal_degree_check(cd, polys) -> bool:
    """``equal_degree_check`` with its lifted slice from a plain HPolytope."""
    n = cd.n
    if len(polys) != n + 1:
        raise DegreeMismatch(f"need {n + 1} polynomials")
    base_degrees = [cd.base_grading.degree(d) for d in cd.divisors]
    for j, p in enumerate(polys):
        if degree_of(p, cd.base_grading) != base_degrees[j]:
            raise DegreeMismatch(
                f"input {j} does not have the degree of divisor {j}")
    degs = [degree_of(_lift_poly(cd, p, j), cd.grading)
            for j, p in enumerate(polys)]
    gamma = bundle_class(cd)
    if any(d != gamma for d in degs):
        return False
    lifted = hpolytope_lifted_slice(cd)
    if any(any(e[cd.base_count:]) for e in lifted):
        return False
    base = monomial_basis(cd.fan, cd.base_grading, critical_degree(cd.base_grading, base_degrees))
    return sorted(e[:cd.base_count] for e in lifted) == base


def hpolytope_cayley_polytope_check(cd) -> bool:
    """``cayley_polytope_check`` with the bundle polytope a plain HPolytope
    and one base polytope per divisor."""
    n = cd.n
    got = set(hpolytope_bundle_points(cd))
    return got == {tuple(int(j == t + 1) for t in range(n)) + m for j in range(n + 1)
                   for m in lattice_points(divisor_polytope(cd.fan, cd.divisors[j]))}


def fraction_strictness_failures(fan, ms, coeffs):
    """(cone, ray) pairs, ray off the cone, with <m_cone, ray> <= -a_ray,
    compared as Fractions."""
    out = []
    for k, cone in enumerate(fan.max_cones):
        for j in range(fan.nvars):
            if j in cone:
                continue
            if dot(ms[k], fan.rays[j]) <= -Fraction(coeffs[j]):
                out.append((k, j))
    return out


# ---------------------------------------------------------------------------
# positivity as it was before the fan's cone table: one Cramer solve per cone
# and call, and every answer read from the full cones x rays slack table


def slack_table(fan, coeffs):
    """``(d, meets, slack)``: each cone's meet ``cramer`` gives for
    <x, ray_i> = -d*a_i on its rays, and slack[k][j] = <num_k, ray_j> +
    d*a_j*den_k for every cone and ray."""
    if len(coeffs) != fan.nvars:
        raise InvalidFan("one coefficient per ray is required")
    d, scaled = clear_denominators(map(Fraction, coeffs))
    meets, slack = [], []
    for k, cone in enumerate(fan.max_cones):
        meet = len(cone) == fan.dim and cramer([fan.rays[i] for i in cone],
                                               [-scaled[i] for i in cone])
        if not meet:
            raise InvalidFan(f"cone {k} does not have {fan.dim} independent rays")
        num, den = meet
        meets.append(meet)
        slack.append([dot(num, ray) + a * den for ray, a in zip(fan.rays, scaled)])
    return d, meets, slack


def slack_table_positivity(fan, coeffs):
    """``(is_cartier, is_q_ample, is_ample, nef)`` read from ``slack_table``:
    the three reports as the package gave them before it read walls, and
    whether every slack is >= 0."""
    d, meets, slack = slack_table(fan, coeffs)
    cartier = tuple(k for k, (num, den) in enumerate(meets) if any(x % (den * d) for x in num))
    strict = tuple((k, j) for k, (cone, row) in enumerate(zip(fan.max_cones, slack))
                   for j, s in enumerate(row) if s <= 0 and j not in cone)
    ample = (PositivityReport(False, False, cartier) if cartier
             else PositivityReport(not strict, True, strict))
    return (PositivityReport(not cartier, not cartier, cartier),
            PositivityReport(not strict, not cartier, strict), ample,
            all(s >= 0 for row in slack for s in row))


def nef_boundary(fan, D, E):
    """D + t*E at the largest t >= 0 with every slack >= 0, or None when no
    slack of E is negative.  Each slack <m_k, ray_j> + a_j is linear in the
    divisor, so t is the least s(D)/-s(E) over the pairs with s(E) < 0; for
    an ample D the result is nef, with some slack off its cone zero."""
    def values(coeffs):
        d, meets, slack = slack_table(fan, coeffs)
        return [Fraction(s, den * d) for (_, den), row in zip(meets, slack) for s in row]

    ts = [sd / -se for sd, se in zip(values(D), values(E)) if se < 0]
    if not ts:
        return None
    t = min(ts)
    return [Fraction(a) + t * b for a, b in zip(D, E)]


# ---------------------------------------------------------------------------
# the volume as it was before the pulling triangulation: a pyramid over each
# facet from an interior point, with the facet's slice carried into the
# normal's orthogonal sublattice and its vertices enumerated again


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
    verts = fraction_vertices(poly)
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


def facet_recursion_volume(poly) -> Fraction:
    """n!·vol(P) by the pyramid recursion over facets."""
    return factorial(poly.dim) * _volume_rec(list(poly.normals), list(poly.offsets),
                                             poly.dim)


def ring_intersection(fan, divisors) -> Fraction:
    """The intersection number D_1···D_n of n divisors (coefficient vectors
    over the rays) on a complete simplicial fan, in the intersection ring.

    The product expands multilinearly into products of the D_i.  A product
    of n distinct D_i is 1/|det τ| when their rays are a maximal cone τ and
    0 otherwise, and a product whose distinct rays lie in no maximal cone
    is 0.  Otherwise a repeated D_j, its rays lying in a maximal cone τ, is
    replaced by the linearly equivalent D_j + div(χ^m) = sum_k <m, ray_k> D_k
    with <m, ray_i> = 0 on τ's other rays and <m, ray_j> = -1, which is
    supported off τ, so each step lowers the count of repeated factors
    (Fulton, *Introduction to Toric Varieties*, §5.1).
    """
    cones = [frozenset(c) for c in fan.max_cones]
    rays = [[Fraction(x) for x in ray] for ray in fan.rays]
    memo = {}

    def product(factors):
        if factors in memo:
            return memo[factors]
        support = frozenset(factors)
        tau = next((c for c in cones if support <= c), None)
        if tau is None:
            value = Fraction(0)
        elif len(support) == len(factors):
            value = Fraction(1, abs(fraction_mat_det([rays[i] for i in sorted(tau)])))
        else:
            j = next(i for i in factors if factors.count(i) > 1)
            rest = list(factors)
            rest.remove(j)
            order = sorted(tau)
            m = solve_rational([rays[i] for i in order], [-int(i == j) for i in order])
            value = sum((dot(m, rays[k]) * product(tuple(sorted(rest + [k])))
                         for k in range(fan.nvars) if k not in tau), Fraction(0))
        memo[factors] = value
        return value

    terms = [[(i, Fraction(a)) for i, a in enumerate(coeffs) if a] for coeffs in divisors]
    return sum((prod(a for _, a in choice) * product(tuple(sorted(i for i, _ in choice)))
                for choice in itertools.product(*terms)), Fraction(0))


# ---------------------------------------------------------------------------
# the numeric chart solver as it was before multiplication matrices: a lex
# basis in shape position, exact squarefree univariate parts, Durand-Kerner
# roots and back substitution, with every refusal decided by a tolerance


def _uni_coeffs(p, var):
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


def _roots_dk(coeffs):
    """All roots of a squarefree polynomial by Durand-Kerner iteration."""
    c = [complex(x) for x in coeffs]
    c = [x / c[-1] for x in c]
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


def _shape_parts(gb, nv):
    """(univariate coefficients in the last variable, substitution tails),
    or None when the lex basis is not in shape position."""
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


class NotShapePosition(ToricError):
    """The lex basis stayed out of shape position after every coordinate
    change; only ``shape_position_solve`` raises it."""


def shape_position_solve(polys, seed=0):
    """(zeros, quotient dimension) of a square system by the shape-position
    chain, with up to five seeded unitriangular coordinate changes; refuses
    with NotZeroDimensional, NotShapePosition or NonSimpleZero."""
    polys = list(polys)
    nv = polys[0].nvars
    gb = GroebnerBasis.of(polys, lex(nv))
    if not quotient_is_finite(gb):
        raise NotZeroDimensional("chart system has positive-dimensional zeros")
    qdim = len(standard_monomials(gb))
    if qdim == 0:
        return [], 0
    system = [_complex_terms(p) for p in polys]
    jac = _jacobian_terms(polys)
    rng = random.Random(seed)
    change = None
    for attempt in range(6):
        if attempt:
            C = [[int(i == j) for j in range(nv)] for i in range(nv)]
            for j in range(nv - 1):
                C[nv - 1][j] = rng.randint(-9, 9)
            subs = {i: sum((C[i][j] * MultiPoly.variable(nv, j) for j in range(nv) if C[i][j]),
                           MultiPoly.zero(nv)) for i in range(nv)}
            change = C
            gb = GroebnerBasis.of([substitute(p, subs) for p in polys], lex(nv))
        parts = _shape_parts(gb, nv)
        if parts is None:
            continue
        qcoeffs, tails = parts
        roots = _roots_dk(_squarefree(qcoeffs))
        pts = []
        for r in roots:
            coords = [0j] * nv
            coords[nv - 1] = r
            for i in range(nv - 1):
                coords[i] = -complex(evaluate(tails[i], coords))
            if change is not None:
                coords = [sum(change[i][j] * coords[j] for j in range(nv)) for i in range(nv)]
            pts.append(tuple(coords))
        pts = _newton_refine(system, jac, pts)
        pts = _dedupe([p for p in pts
                       if max(abs(complex(_evaluate(f, p))) for f in system) < RESIDUAL_TOL])
        if len(pts) < len(roots):
            raise NonSimpleZero(f"found {len(pts)} isolated roots for {len(roots)} candidates")
        if len(pts) != qdim:
            raise NonSimpleZero(f"{qdim}-dimensional quotient but {len(pts)} distinct zeros")
        return pts, qdim
    raise NotShapePosition("no triangular basis after coordinate changes")


def chart_system(problem, k, cone):
    """The system with input k dropped, dehomogenized in the chart of a cone."""
    charts = [dehomogenize(p, problem.fan, cone) for p in problem.polys]
    return charts[:k] + charts[k + 1:]


def shape_position_chart_zeros(problem, k, cone, seed=0):
    """Zeros of ``chart_system`` by ``shape_position_solve``."""
    try:
        return shape_position_solve(chart_system(problem, k, cone), seed)[0]
    except NotZeroDimensional as exc:
        raise InfiniteIntersection(
            f"inputs excluding {k} meet in positive dimension in cone {cone}") from exc


def shape_position_sum(problem, H, k, seed=0):
    """The local residue sum as the shape-position chain took it: every
    chart solved, a zero off the torus when a coordinate is below
    SEPARATION_TOL, then ``local_residue_simple`` at each zero of the
    distinguished chart."""
    for cone in range(len(problem.fan.max_cones)):
        zeros = shape_position_chart_zeros(problem, k, cone, seed)
        if any(abs(c) < SEPARATION_TOL for z in zeros for c in z):
            raise NotTorusZero(f"zero with a vanishing coordinate in cone {cone}")
        if cone == problem.sigma:
            sigma_zeros = zeros
    jac = _jacobian_terms(chart_system(problem, k, problem.sigma))
    total = sum((local_residue_simple(problem, H, k, z, complex(np.linalg.det(_jacobian_at(jac, z))))
                 for z in sigma_zeros), 0j)
    return (-1) ** k * total


def trace_residue_sum(problem, H, k, cone=None):
    """The sum over the zeros p of the k-dropped system in the chart of a
    cone (default: the distinguished one) of h(p)/(f_k(p)*J(p)), exactly,
    as Tr(M_h * M_{f_k*J}^-1) on the quotient by that system
    (Cattani-Dickenstein-Sturmfels, *Computing multidimensional residues*,
    1996).  Needs every zero simple and off f_k, so that M_{f_k*J} is
    invertible.  Multiplication matrices come from linear-scan normal forms
    on a grevlex basis, the inverse from rref."""
    fan = problem.fan
    cone = problem.sigma if cone is None else cone
    system = chart_system(problem, k, cone)
    order = grevlex(fan.dim)
    gb = GroebnerBasis.of(system, order)
    B = standard_monomials(gb)
    m = len(B)

    def matrix(g):
        cols = [linear_scan_normal_form(g * MultiPoly.monomial(b), gb.generators, order)
                for b in B]
        return [[col.terms.get(e, Fraction(0)) for col in cols] for e in B]

    fk = dehomogenize(problem.polys[k], fan, cone)
    J = poly_det([[p.partial(j) for j in range(fan.dim)] for p in system])
    rows, pivots = rref([a + b for a, b in zip(matrix(fk * J),
                                                matrix(dehomogenize(H, fan, cone)))], 2 * m)
    if pivots[:m] != list(range(m)):
        raise ValueError("f_k*J vanishes at a zero; the trace formula does not apply")
    return sum((rows[i][m + i] for i in range(m)), Fraction(0))


def vanishes_somewhere(system, g) -> bool:
    """Whether g vanishes at a common zero of the system: by the weak
    Nullstellensatz, whether the system and g generate a proper ideal."""
    return not is_unit_ideal(GroebnerBasis.of(list(system) + [g], grevlex(g.nvars)))


def solver_refusal(system):
    """The refusal of the chart solver by ideal membership: infinitely many
    zeros, or a multiple zero (where the Jacobian vanishes); else None."""
    nv = system[0].nvars
    if not quotient_is_finite(GroebnerBasis.of(list(system), grevlex(nv))):
        return "NotZeroDimensional"
    J = poly_det([[p.partial(j) for j in range(nv)] for p in system])
    return "NonSimpleZero" if vanishes_somewhere(system, J) else None


def walk_order(problem):
    """The distinguished cone, then the others in index order."""
    cones = range(len(problem.fan.max_cones))
    return [problem.sigma] + [c for c in cones if c != problem.sigma]


def holding_cones(problem, k):
    """The cones, in ``walk_order``, whose open set holds every zero of the
    k-dropped system on X: by the weak Nullstellensatz on each chart
    (``q_chart_zero_locus``), the cones whose zhat, with the other inputs,
    has no common zero on X."""
    others = list(problem.polys[:k] + problem.polys[k + 1:])
    fan = problem.fan
    return [cone for cone in walk_order(problem)
            if q_chart_zero_locus(fan, others + [MultiPoly.monomial(
                tuple(0 if i in fan.cone(cone) else 1 for i in range(fan.nvars)))]).ok]


def nullstellensatz_refusal(problem, k):
    """The refusal of the local sum, by ideal membership in place of
    determinants, in the order the sum tests them: no common zero of all
    inputs on X, then in every chart a finite zero set, then a chart that
    holds every zero (``holding_cones``) and, in the first, simple zeros.
    None when the sum is defined."""
    fan = problem.fan
    if not q_chart_zero_locus(fan, problem.polys).ok:
        return "ZeroOnPolarLocus"
    for cone in walk_order(problem):
        if not quotient_is_finite(GroebnerBasis.of(chart_system(problem, k, cone),
                                                   grevlex(fan.dim))):
            return "InfiniteIntersection"
    cones = holding_cones(problem, k)
    if not cones:
        return "NotTorusZero"
    return "NonSimpleZero" if solver_refusal(chart_system(problem, k, cones[0])) else None


def screen_residue_sum(problem, H, k, zero_locus=split_chart_zero_locus):
    """The exact local sum as it ran behind the torus screen: refused with
    NotTorusZero, once every chart up to the screen's witness is built,
    unless ``zero_locus`` finds no common zero of the other inputs and the
    product of the variables; else the trace on the distinguished chart,
    refused with NonSimpleZero or ZeroOnPolarLocus when M_{f_k*J} is
    singular."""
    fan = problem.fan
    torus = MultiPoly.monomial((1,) * fan.nvars)
    screen = zero_locus(fan, problem.polys[:k] + problem.polys[k + 1:] + (torus,))
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


# ---------------------------------------------------------------------------
# the floating-point local sum, as the package ran it before the sum became an
# exact trace: the zeros from the eigenvectors of a seeded combination of the
# coordinate matrices (Auzinger-Stetter 1988), polished by Newton steps,
# filtered by a relative residual and deduplicated; with simple zeros the
# commuting M_{x_j} share an eigenbasis V, and the j-th coordinates of the
# zeros are diag(V^-1 M_{x_j} V)

RESIDUAL_TOL = 1e-9
SEPARATION_TOL = 1e-6


def quotient_zeros(quotient, seed: int):
    """The |B| zeros when all are simple, and the Jacobian determinant
    at each: eigenvectors of a seeded combination of the coordinate
    matrices M_{x_j}, then Newton.  ``_times_variable`` holds each column
    of M_{x_j} times D_j; each entry is rounded once, from its Fraction.
    The packed B is taken in ascending order of its exponent tuples."""
    B, polys = sorted(quotient.basis, key=quotient.gb.packing.unpack), quotient.polys
    if not B:
        return [], []
    rng = random.Random(seed)
    coords = [np.array([[Fraction(table[b].get(e, 0), D) for b in B] for e in B], dtype=float)
              for D, table in quotient._times_variable]
    _, V = np.linalg.eig(sum(rng.randint(1, 99) * M for M in coords))
    diags = [np.diag(np.linalg.solve(V, M @ V)) for M in coords]
    system = [_complex_terms(p) for p in polys]
    sizes = [_complex_terms(MultiPoly.from_integer_terms(
        p.nvars, p.d, {e: abs(c) for e, c in p.num.items()})) for p in polys]
    jac = _jacobian_terms(polys)
    pts = _newton_refine(system, jac, list(zip(*diags)))
    pts = _dedupe([p for p in pts if _residual(system, sizes, p) < RESIDUAL_TOL])
    if len(pts) != len(B):
        raise NonSimpleZero(
            f"{len(B)} simple zeros but {len(pts)} resolved numerically")
    return pts, [complex(np.linalg.det(_jacobian_at(jac, z))) for z in pts]


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


def numeric_residue_sum(problem, H, k, seed: int = 0) -> complex:
    """The local sum in floating point, with the refusals of the exact sum
    in its order: ZeroOnPolarLocus, the walk over the charts for one whose
    dimension is its group order times N_k (InfiniteIntersection,
    NotTorusZero), then NonSimpleZero (det M_J), and NonSimpleZero when
    the seeded eigen-solve resolves fewer distinct zeros than dim Q[x]/I."""
    if not problem.zero_locus().ok:
        raise ZeroOnPolarLocus("dropped input vanishes at a zero: a common zero on X")
    fan, grading = problem.fan, problem.grading
    divisors = [representative_divisor(grading, d) for d in problem.degrees]
    count = ring_intersection(fan, divisors[:k] + divisors[k + 1:])
    charts = [(cone, *_chart(problem, k, cone)) for cone in walk_order(problem)]
    cone, fk, quotient = next(
        (chart for chart in charts
         if len(chart[2].basis) == abs(cone_det(fan, chart[0])) * count),
        (None, None, None))
    if cone is None:
        raise NotTorusZero(f"no single chart holds every zero of the inputs but {k}")
    quotient.require_simple()
    h = _complex_terms(dehomogenize(H, fan, cone))
    fk = _complex_terms(fk)
    total = sum((complex(_evaluate(h, z)) / (complex(_evaluate(fk, z)) * det)
                 for z, det in zip(*quotient_zeros(quotient, seed))), 0j)
    return (-1) ** k * problem.cone_sign(cone) * total


def numeric_torus_total(nvars: int, f_list, g: MultiPoly, seed: int = 0) -> complex:
    """Sum of g/(x_1...x_n * J) over the zeros of f_list in floating point,
    with the refusals of ``euler_jacobi_check`` in its order."""
    quotient = _Quotient(list(f_list))
    quotient.require_simple()
    if mat_det(quotient.matrix(MultiPoly.monomial((1,) * nvars))[1]) == 0:
        raise NotTorusZero("zero off the torus")
    g_terms = _complex_terms(g)
    return sum((complex(_evaluate(g_terms, z)) / (prod(z) * det)
                for z, det in zip(*quotient_zeros(quotient, seed))), 0j)


# ---------------------------------------------------------------------------
# chart solving by one quotient ring, on a square system or on one chart of
# a problem, as the package exported it before the sum built its own chart


def solve_chart_system(polys, seed: int = 0):
    """(zeros, dim Q[x]/I) of a square system.  Raises NotZeroDimensional
    when the zeros are not finite, and NonSimpleZero when det M_J = 0 (a
    multiple zero) or when the combination of coordinate matrices that the
    seed picks resolves fewer distinct zeros than dim Q[x]/I."""
    quotient = _Quotient(list(polys))
    quotient.require_simple()
    return quotient_zeros(quotient, seed)[0], len(quotient.basis)


@dataclass(frozen=True)
class NumericZeroSet:
    cone: int
    zeros: tuple
    jacobians: tuple
    quotient_dim: int


def chart_zero_set(problem, k: int, cone_index: int | None = None,
                   seed: int = 0) -> NumericZeroSet:
    """Zeros, in one chart, of the system with input k dropped, with the
    Jacobian determinant at each.  Refuses like ``solve_chart_system``,
    with InfiniteIntersection for a positive-dimensional system."""
    cone = problem.sigma if cone_index is None else cone_index
    quotient = _chart(problem, k, cone)[1]
    quotient.require_simple()
    zeros, dets = quotient_zeros(quotient, seed)
    return NumericZeroSet(cone, tuple(zeros), tuple(dets), len(quotient.basis))


# ---------------------------------------------------------------------------
# random complete surfaces with an ample class


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def polygon_divisor(rays) -> list[int]:
    """An ample Cartier divisor of the complete surface whose rays, sorted
    by angle, are ``rays``: a_i = -<p_i, v_i>, p_i the vertices of a lattice
    polygon with the rays as inner edge normals.

    Edge i has direction v_i turned by -pi/2 and integer length l_i >= 1,
    so the polygon closes when sum l_i*v_i = 0.  l is k*(1, .., 1) plus a
    nonnegative integer combination a*e_i + b*e_j with a*v_i + b*v_j =
    -k*sum v, for the least k that admits one and, at that k, the least
    a + b.  The polygon starts at the origin, so every a_i is >= 0.
    """
    total = (sum(v[0] for v in rays), sum(v[1] for v in rays))
    for k in itertools.count(1):
        t = (-k * total[0], -k * total[1])
        best = None
        for i, j in itertools.combinations(range(len(rays)), 2):
            det = _cross(rays[i], rays[j])
            if det:
                a, ra = divmod(_cross(t, rays[j]), det)
                b, rb = divmod(_cross(rays[i], t), det)
                if not (ra or rb) and a >= 0 and b >= 0 and (best is None or a + b < best[0]):
                    best = (a + b, i, j, a, b)
        if best is not None:
            break
    _, i, j, a, b = best
    lengths = [k] * len(rays)
    lengths[i] += a
    lengths[j] += b
    p, divisor = (0, 0), []
    for v, length in zip(rays, lengths):
        divisor.append(-(p[0] * v[0] + p[1] * v[1]))
        p = (p[0] + length * v[1], p[1] - length * v[0])
    assert p == (0, 0)
    return divisor


def random_surface(rng: random.Random, nrays: int, box: int = 2):
    """(fan, divisor): a random complete simplicial surface whose rays are
    ``nrays`` distinct primitive vectors of [-box, box]^2, and an ample
    Cartier divisor on it from ``polygon_divisor``.  The rays are sorted by
    angle and redrawn until every turn between neighbours is under pi, so
    consecutive rays span the maximal cones."""
    cands = [(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
             if gcd(x, y) == 1]
    while True:
        rays = sorted(rng.sample(cands, nrays), key=lambda v: atan2(v[1], v[0]))
        if all(_cross(u, v) > 0 for u, v in zip(rays, rays[1:] + rays[:1])):
            break
    fan = make_fan(2, rays, [(i, (i + 1) % nrays) for i in range(nrays)])
    return fan, polygon_divisor(rays)
