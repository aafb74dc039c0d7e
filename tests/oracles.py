"""Independent reference values and slow reference paths for tests.

The residue values are derived by brute-force partial fractions, never by
the package's own pipeline.  The slow paths are the straightforward forms
of routines the package runs in a faster or different form: division by a
linear scan for the greatest term, Buchberger over parallel lists with
MultiPoly S-polynomials, the quotient dimension of a chart system from its
grevlex basis, the zero-locus test that builds a basis over Q of every
chart ideal, the codimension check that reduces every critical-degree
monomial, the residue read from normal forms with every degree check done
by ``degree_of``, membership in the radical through a slack variable, the
completeness test that compares every pair of cones, the rank as the size
of the largest nonzero minor, the determinant by cofactor expansion, the
numeric chart solver that read zeros from a lex basis in shape position,
the chart solver and zero set the package once exported, the
polytope volume by a pyramid recursion over facets, polytope vertices by
elimination over Q, boundedness from rational kernels, lattice points by a
bounding-box scan, ampleness by Fraction comparisons, and the Fraction
Gauss-Jordan elimination (``rref``, ``mat_rank``, ``solve_rational``,
``solve_integer``) with the cone functionals and the Cayley weight
functional it once computed, the chart lift by a Smith form of the
off-cone degree system, the determinant over Q by row scaling, and the
cone orientations and chart Jacobian read from a positively oriented basis
of M, and the floating-point local sum (an eigen-solve on the chart
quotient, Newton polishing and tolerances).  The exact sum of local
residues as a trace over the quotient ring, by linear-scan normal forms
and Fraction elimination, is a reference value for both the exact residue
and the package's trace.  Tests compare engine output against them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor, gcd, lcm, prod

import numpy as np

from toricres import (AllReduceToZero, CodimNotOne, GroebnerBasis, HypothesesFailed,
                      InfiniteIntersection, InvalidFan, MonomialOrder, MultiPoly, NoIntegralLift,
                      NonSimpleZero, NonUniqueLift, NotHomogeneous, NotTorusZero,
                      NotZeroDimensional, ToricError, Unbounded, WrongDegree, ZeroOnPolarLocus,
                      cone_determinant, dehomogenize, homogenize_to_degree, is_simplicial,
                      monomial_basis, no_common_zeros_on_x, poly_det)
from toricres.cayley import _lift_poly, critical_degree_lifted
from toricres.grading import critical_degree, degree_system
from toricres.groebner import (divide, grevlex, leading_term, lex, quotient_is_finite,
                               reducer, standard_monomials)
from toricres.lattice import FanData, dot, mat_det, mat_vec, smith_normal_form, vec_content
from toricres.localres import _chart, _Quotient
from toricres.poly import chart_variables, degree_of
from toricres.polytopes import HPolytope
from toricres.residues import CodimReport, ZeroLocusReport, _require_hypotheses


# ---------------------------------------------------------------------------
# elimination over Q, as the package ran it before every solve went through
# integer Cramer or the Smith form


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
# the chart lift as it was before it solved on the cone's rays: a Smith form
# of the stacked degree system on the off-cone variables


def smith_homogenize_to_degree(q: MultiPoly, fan, cone_index: int, target,
                               grading) -> MultiPoly:
    """Rescale a chart polynomial into the full ring at an exact degree.

    Each chart monomial must extend by a unique nonnegative exponent pattern
    on the off-cone variables so every term reaches ``target``.  The degree
    system on those variables (``degree_system``) is put in Smith form once
    per call.  A nonzero polynomial is refused when the form's rank, its
    count of nonzero diagonal entries, is below the number of unknowns, as
    the pattern is then not unique; each term's degree gap is then one
    integer solve against the form.
    """
    cone = chart_variables(fan, cone_index)
    others = [i for i in range(fan.nvars) if i not in cone]
    nv = fan.nvars
    snf = smith_normal_form(degree_system(grading, others))
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
    leads = gb.leading_exponents
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
    leads = gb.leading_exponents
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


def parallel_list_buchberger(gens, order):
    """Reduced monic Groebner basis, keeping each element three times: as a
    MultiPoly, as a lead, and as a reducer.  S-polynomials are MultiPoly
    products, and each pair's lcm and order key are recomputed whenever
    the next pair is chosen."""
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return []
    nv = G[0].nvars
    basis = []
    leads = []
    table = []
    pairs = []

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
        r = divide(q, table, order)
        if r.is_zero():
            continue
        if r.is_constant():
            return [MultiPoly.constant(nv, 1)]
        e, c = leading_term(r, order)
        r = r * (Fraction(1) / c)
        pairs = _gm_update_by_index(leads, pairs, len(basis), e)
        basis.append(r)
        leads.append(e)
        table.append(reducer(r, order))
    minimal = [i for i, e in enumerate(leads)
               if not any(k != i and _divides(leads[k], e)
                          and (leads[k] != e or k < i) for k in range(len(basis)))]
    reduced = []
    for i in minimal:
        r = divide(basis[i], [table[k] for k in minimal if k != i], order)
        if r.is_zero():
            continue
        e, c = leading_term(r, order)
        reduced.append(r * (Fraction(1) / c))
    reduced.sort(key=lambda q: order.key(leading_term(q, order)[0]))
    return reduced


def grevlex_chart_dimension(polys):
    """(finite, quotient dimension) of a square system from a grevlex
    basis; the dimension is None when the quotient is infinite."""
    gb = GroebnerBasis.of(list(polys), grevlex(polys[0].nvars))
    if not quotient_is_finite(gb):
        return False, None
    return True, len(standard_monomials(gb))


def q_chart_zero_locus(fan, polys) -> ZeroLocusReport:
    """The zero-locus test over Q alone: a grevlex basis over Q of every
    chart ideal, in cone order, until one is not the unit ideal."""
    for k, cone in enumerate(fan.max_cones):
        charts = [dehomogenize(p, fan, k) for p in polys]
        if not GroebnerBasis.of(charts, grevlex(fan.dim)).is_unit_ideal():
            e = tuple(0 if i in cone else 1 for i in range(fan.nvars))
            return ZeroLocusReport(False, k, e)
    return ZeroLocusReport(True)


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
    return gb.is_unit_ideal()


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
# integer one: Bareiss over Q after row scaling, and each cone's orientation
# and index read from a basis of M oriented positively on a cone


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
    """The chart Jacobian of ``residues.toric_jacobian``, divided by the
    pairing determinant of sigma's oriented basis against sigma's rays."""
    fan, k = problem.fan, problem.sigma
    charts = [dehomogenize(p, fan, k) for p in problem.polys]
    rows = [charts] + [[f.partial(j) for f in charts] for j in range(fan.dim)]
    det = poly_det(rows) * Fraction(1, pairing_det(fan, oriented_basis(fan, k),
                                                   fan.max_cones[k]))
    if det.is_zero():
        return MultiPoly.zero(fan.nvars)
    return homogenize_to_degree(det, fan, k, problem.critical, problem.grading)


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
    g = vec_content(v)
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
            gb = GroebnerBasis.of([p.substitute(subs) for p in polys], lex(nv))
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
                coords[i] = -complex(tails[i].evaluate(coords))
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


def trace_residue_sum(problem, H, k):
    """The sum over the zeros p of the k-dropped system in the distinguished
    chart of h(p)/(f_k(p)*J(p)), exactly, as Tr(M_h * M_{f_k*J}^-1) on the
    quotient by that system (Cattani-Dickenstein-Sturmfels, *Computing
    multidimensional residues*, 1996).  Needs every zero simple and off
    f_k, so that M_{f_k*J} is invertible.  Multiplication matrices come
    from linear-scan normal forms on a grevlex basis, the inverse from rref."""
    fan, cone = problem.fan, problem.sigma
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
    return not GroebnerBasis.of(list(system) + [g], grevlex(g.nvars)).is_unit_ideal()


def solver_refusal(system):
    """The refusal of the chart solver by ideal membership: infinitely many
    zeros, or a multiple zero (where the Jacobian vanishes); else None."""
    nv = system[0].nvars
    if not quotient_is_finite(GroebnerBasis.of(list(system), grevlex(nv))):
        return "NotZeroDimensional"
    J = poly_det([[p.partial(j) for j in range(nv)] for p in system])
    return "NonSimpleZero" if vanishes_somewhere(system, J) else None


def nullstellensatz_refusal(problem, k):
    """The refusal of the local sum, by ideal membership in place of
    determinants, in the order the sum tests them: in every chart a finite
    zero set, then no zero off the torus; then, in the distinguished chart,
    simple zeros and none on f_k.  None when the sum is defined."""
    fan = problem.fan
    for cone in range(len(fan.max_cones)):
        system = chart_system(problem, k, cone)
        if not quotient_is_finite(GroebnerBasis.of(system, grevlex(fan.dim))):
            return "InfiniteIntersection"
        if vanishes_somewhere(system, MultiPoly.monomial((1,) * fan.dim)):
            return "NotTorusZero"
    system = chart_system(problem, k, problem.sigma)
    if solver_refusal(system):
        return "NonSimpleZero"
    if vanishes_somewhere(system, dehomogenize(problem.polys[k], fan, problem.sigma)):
        return "ZeroOnPolarLocus"
    return None


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
    of M_{x_j} times D_j; each entry is rounded once, from its Fraction."""
    B, polys = quotient.basis, quotient.polys
    if not B:
        return [], []
    rng = random.Random(seed)
    coords = [np.array([[Fraction(table[b].get(e, 0), D) for b in B] for e in B], dtype=float)
              for D, table in quotient._times_variable]
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
    in its order: the torus screen, then NonSimpleZero (det M_J),
    ZeroOnPolarLocus, and NonSimpleZero when the seeded eigen-solve
    resolves fewer distinct zeros than dim Q[x]/I."""
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
                 for z, det in zip(*quotient_zeros(quotient, seed))), 0j)
    return (-1) ** k * total


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
