"""Independent reference values and slow reference paths for tests.

The residue values are derived by brute-force partial fractions, never by
the package's own pipeline.  The slow paths are the straightforward forms
of routines the package runs in a faster or different form: division by a
linear scan for the greatest term, Buchberger over parallel lists with
MultiPoly S-polynomials, the quotient dimension of a chart system from its
grevlex basis, the codimension check that reduces
every critical-degree monomial, the residue read from normal forms with
every degree check done by ``degree_of``, membership in the radical
through a slack variable, the completeness test that compares every pair
of cones, and the rank as the size of the largest nonzero minor.  Tests
compare engine output against them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from toricres import (AllReduceToZero, CodimNotOne, GroebnerBasis, HypothesesFailed,
                      MonomialOrder, MultiPoly, NotHomogeneous, WrongDegree,
                      cone_determinant, is_simplicial, monomial_basis)
from toricres.grading import critical_degree
from toricres.groebner import (divide, grevlex, leading_term, quotient_is_finite,
                               reducer, standard_monomials)
from toricres.lattice import (dot, integer_kernel_vector, mat_det, primitive,
                              solve_rational, transpose)
from toricres.poly import degree_of
from toricres.residues import CodimReport, _require_hypotheses


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
                if mat_det([[A[i][j] for j in cols] for i in rows]):
                    return k
    return 0
