"""Residue pipeline on a complete simplicial fan.

Given n+1 homogeneous polynomials with no common zeros on the variety, the
residue of a critical-degree input H is l(H) / l(Delta_sigma), where l sends
each critical-degree monomial to the coefficient of one standard monomial in
its normal form modulo a Groebner basis of the input ideal, and Delta_sigma
is the distinguished cone determinant.  l is built once per problem.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    AllReduceToZero,
    CodimNotOne,
    DecompositionFailed,
    DegreeMismatch,
    HypothesesFailed,
    NotHomogeneous,
    WrongDegree,
    ZeroPolynomial,
)
from .grading import DegreeClass, Grading, compute_grading, critical_degree, representative_divisor
from .groebner import GroebnerBasis, MonomialOrder, _divides, buchberger, grevlex
from .lattice import FanData, cone_det, cone_group_order
from .poly import MultiPoly, degree_of, dehomogenize, homogenize_to_degree, poly_det
from .polytopes import intersection_number, monomial_basis

Exponent = tuple[int, ...]


def irrelevant_ideal(fan: FanData) -> tuple[Exponent, ...]:
    """Monomial generators, one per maximal cone: product of off-cone variables."""
    gens = []
    for cone in fan.max_cones:
        e = tuple(0 if i in cone else 1 for i in range(fan.nvars))
        if e not in gens:
            gens.append(e)
    return tuple(gens)


def irrelevant_witness(p: MultiPoly, fan: FanData) -> Exponent | None:
    """A term of p outside the irrelevant ideal, or None when p lies inside."""
    gens = irrelevant_ideal(fan)
    for e in sorted(p.terms):
        if not any(_divides(g, e) for g in gens):
            return e
    return None


def in_irrelevant_ideal(p: MultiPoly, fan: FanData) -> bool:
    return irrelevant_witness(p, fan) is None


@dataclass(frozen=True)
class ZeroLocusReport:
    """``q_charts`` lists, ascending, the cones whose chart ideal needed a
    basis over Q; it is empty when every chart is the unit ideal mod P."""

    ok: bool
    witness_cone: int | None = None
    witness_monomial: Exponent | None = None
    q_charts: tuple[int, ...] = ()

    def __bool__(self):
        return self.ok


P = 2**61 - 1  # the prime of the modular zero-locus test


def _mod_p(q: MultiPoly) -> MultiPoly:
    """q with its P-integral coefficients reduced to ints in [1, P)."""
    terms = {e: c.numerator * pow(c.denominator, -1, P) % P for e, c in q.terms.items()}
    return MultiPoly.from_terms(q.nvars, {e: r for e, r in terms.items() if r})


def no_common_zeros_on_x(fan: FanData, polys) -> ZeroLocusReport:
    """Whether the polynomials have no common zero away from the excluded locus.

    The answer is the chart test's over Q: each maximal cone's chart ideal
    (the inputs with the off-cone variables set to 1) is the unit ideal;
    else the report names the first cone that fails.  A basis over Q is
    built only for charts that are not the unit ideal mod P, which is
    enough.  Proof: with P-integral coefficients the inputs cut out Z in X
    over Z_(P), proper as the fan is complete (Cox-Little-Schenck 3.4).
    Each chart A^n -> U_sigma is a finite quotient (Cox, JAG 1995), so it
    is surjective on points over Q-bar and over F_P-bar.  A point z of Z
    over Q-bar specializes to one over F_P-bar, which lies in some open
    U_tau; so z does too, and tau's chart ideal is unit neither mod P nor
    over Q.  So if every chart that is not unit mod P is unit over Q, Z is
    empty over Q-bar and every chart ideal is unit over Q.  Alone, unit mod
    P proves nothing (P*x - 1: its zero leaves the chart mod P), nor does
    non-unit mod P (an input that is 0 mod P, or a zero only mod P).  With
    a denominator divisible by P there is no model over Z_(P), and every
    chart is decided over Q.
    """
    order = grevlex(fan.dim)
    integral = all(c.denominator % P for F in polys for c in F.terms.values())
    over_q = {}

    def unit(k, modulus):
        charts = [dehomogenize(F, fan, k) for F in polys]
        if modulus:
            charts = [_mod_p(q) for q in charts]
        return buchberger(charts, order, modulus) == [1]

    def unit_over_q(k):
        if k not in over_q:
            over_q[k] = unit(k, 0)
        return over_q[k]

    cones = range(len(fan.max_cones))
    if all(unit_over_q(k) for k in cones if not (integral and unit(k, P))):
        return ZeroLocusReport(True, q_charts=tuple(over_q))
    # a common zero exists: the first chart that fails over Q may be one
    # that was unit mod P
    k = next(k for k in cones if not unit_over_q(k))
    e = tuple(0 if i in fan.max_cones[k] else 1 for i in range(fan.nvars))
    return ZeroLocusReport(False, k, e, tuple(sorted(over_q)))


def decompose(F: MultiPoly, fan: FanData, cone_index: int):
    """Coefficients (A_0, A_1, .., A_n) with F = A_0*zhat + sum A_k*x_{i_k}.

    zhat is the product of off-cone variables; i_1 < .. < i_n are the cone's
    rays.  Terms divisible by a cone variable go to the lowest such variable;
    the rest must be divisible by zhat.
    """
    cone = fan.max_cones[cone_index]
    nv = fan.nvars
    zhat = tuple(0 if i in cone else 1 for i in range(nv))
    parts = [dict() for _ in range(len(cone) + 1)]
    for e, c in F.terms.items():
        slot = None
        for pos, i in enumerate(cone):
            if e[i] > 0:
                slot = pos + 1
                ne = list(e)
                ne[i] -= 1
                break
        if slot is None:
            if not _divides(zhat, e):
                raise DecompositionFailed(
                    "term outside the irrelevant ideal for this cone",
                    witness=e)
            ne = [a - b for a, b in zip(e, zhat)]
            slot = 0
        key = tuple(ne)
        parts[slot][key] = parts[slot].get(key, Fraction(0)) + c
    return tuple(MultiPoly(nv, d) for d in parts)


@dataclass(frozen=True)
class CodimReport:
    ok: bool
    pivot: Exponent | None
    witness: tuple[Exponent, Exponent] | None
    quotient_dim: int

    def __bool__(self):
        return self.ok


def residue_functional(grading: Grading, order: MonomialOrder,
                       groebner: GroebnerBasis, monomials) -> tuple[CodimReport, dict]:
    """Codimension report and residue functional of the critical slice, from
    one ascending pass over its ``monomials`` against ``groebner``.

    The functional l sends m to the coefficient of the pivot, the least
    standard monomial, in the normal form of m.  A standard m is its own
    normal form: l(m) is 1 at the pivot and 0 elsewhere.  Otherwise, with
    (le, lc, tail) the first reducer dividing m, normal forms being linear
    give l(m) = -sum c_t*l(t*m/le)/lc over the tail; each t*m/le is below m
    and, the basis being homogeneous (checked with ``degree_of``), in the
    slice.  The check passes with one standard monomial, since every normal
    form in the slice is then a multiple of the pivot; otherwise the report
    names the pivot, the two least standard monomials and their count.
    """
    if not monomials:
        raise AllReduceToZero("no monomials exist in the critical degree")
    for g in groebner.generators:
        degree_of(g, grading)
    le_, add, sub = operator.le, operator.add, operator.sub
    ell = {}
    standard = []
    for m in sorted(monomials, key=order.key):
        for le, lc, tail in groebner.reducers:
            if all(map(le_, le, m)):
                break
        else:
            ell[m] = Fraction(0) if standard else Fraction(1)
            standard.append(m)
            continue
        shift = tuple(map(sub, m, le))
        total = sum((c * ell[tuple(map(add, t, shift))] for t, c in tail), Fraction(0))
        ell[m] = -total if lc == 1 else -total / lc
    if not standard:
        raise AllReduceToZero(
            "every critical-degree monomial reduces to zero")
    if len(standard) > 1:
        return CodimReport(False, standard[0], tuple(standard[:2]), len(standard)), ell
    return CodimReport(True, standard[0], None, 1), ell


class ResidueProblem:
    """Immutable bundle: fan, grading, the n+1 forms, order, cone.

    Heavy artifacts (critical degree, monomials of the critical degree,
    Groebner basis with its reducer table, residue functional ``ell`` with
    the codimension report, zero-locus report, cone determinant) are
    cached properties, computed once on first use; a stage that raises
    caches nothing and raises again on the next access.  The functional
    and the report come from one pass over the cached monomials against
    the cached basis; the residue of every H and the normalizing
    coefficient are dot products with the functional.
    Construction only validates shapes, homogeneity and the rays of sigma,
    so non-conforming inputs can still be probed.
    """

    def __init__(self, fan: FanData, polys, order: MonomialOrder | None = None,
                 sigma: int = 0, grading: Grading | None = None):
        self.fan = fan
        self.polys = tuple(polys)
        if len(self.polys) != fan.dim + 1:
            raise DegreeMismatch(
                f"need {fan.dim + 1} polynomials, got {len(self.polys)}")
        for p in self.polys:
            if p.nvars != fan.nvars:
                raise DegreeMismatch("polynomial ring does not match the fan")
            if p.is_zero():
                raise ZeroPolynomial("input polynomials must be nonzero")
        if not 0 <= sigma < len(fan.max_cones):
            raise ValueError(f"no maximal cone with index {sigma}")
        self.sigma = sigma
        self.order = order if order is not None else grevlex(fan.nvars)
        self.grading = grading if grading is not None else compute_grading(fan)
        self.degrees = tuple(degree_of(p, self.grading) for p in self.polys)
        self._sigma_det = cone_det(fan, sigma)
        if self._sigma_det == 0:
            raise ValueError("cone rays are dependent")

    @cached_property
    def critical(self) -> DegreeClass:
        return critical_degree(self.grading, self.degrees)

    @cached_property
    def groebner(self) -> GroebnerBasis:
        return GroebnerBasis.of(list(self.polys), self.order)

    @cached_property
    def monomials(self):
        return monomial_basis(self.fan, self.grading, self.critical)

    @cached_property
    def _monomial_set(self) -> frozenset:
        return frozenset(self.monomials)

    @cached_property
    def _functional(self):
        return residue_functional(self.grading, self.order, self.groebner, self.monomials)

    @property
    def codim(self) -> CodimReport:
        return self._functional[0]

    @property
    def ell(self) -> dict:
        """Critical-degree monomial -> coefficient of the pivot in its normal form."""
        return self._functional[1]

    @property
    def pivot(self) -> Exponent:
        return self.codim.pivot

    @cached_property
    def membership_failures(self):
        witnesses = (irrelevant_witness(p, self.fan) for p in self.polys)
        return tuple((j, w) for j, w in enumerate(witnesses) if w is not None)

    @cached_property
    def _zero_locus(self) -> ZeroLocusReport:
        return no_common_zeros_on_x(self.fan, self.polys)

    def zero_locus(self) -> ZeroLocusReport:
        return self._zero_locus

    @cached_property
    def delta(self) -> MultiPoly:
        return cone_determinant(self)

    @cached_property
    def c_sigma(self) -> Fraction:
        return self.normal_coefficient(self.delta)

    def cone_sign(self, cone_index: int) -> int:
        """+1 or -1 as the rays of the cone, in ascending order, are oriented
        like sigma's or not; 0 when they are dependent."""
        d = cone_det(self.fan, cone_index) * self._sigma_det
        return (d > 0) - (d < 0)

    def normal_coefficient(self, H: MultiPoly) -> Fraction:
        """Coefficient of the pivot in the normal form of H: ``ell`` applied
        to H, where terms outside the critical degree give 0."""
        ell = self.ell
        return sum((c * ell[e] for e, c in H.terms.items() if e in ell), Fraction(0))


def cone_determinant(problem: ResidueProblem, cone_index: int | None = None) -> MultiPoly:
    """Determinant of the decomposition matrix at a cone (default: the
    problem's distinguished cone); the zhat coefficients form the first row."""
    k = problem.sigma if cone_index is None else cone_index
    cols = [decompose(F, problem.fan, k) for F in problem.polys]
    n1 = len(problem.polys)
    M = [[cols[j][i] for j in range(n1)] for i in range(n1)]
    return poly_det(M)


def _require_hypotheses(problem: ResidueProblem):
    bad = problem.membership_failures
    if bad:
        j, w = bad[0]
        raise HypothesesFailed(
            f"input {j} has a term outside the irrelevant ideal: {w}")
    zr = problem.zero_locus()
    if not zr.ok:
        raise HypothesesFailed(
            f"common zero on the variety; cone {zr.witness_cone} chart fails")


def toric_residue(problem: ResidueProblem, H: MultiPoly) -> Fraction:
    """Exact residue of H, normalized so the cone determinant has residue 1."""
    c_h = _checked_coefficient(problem, H)
    return c_h / problem.c_sigma if c_h else Fraction(0)


def require_critical_degree(problem: ResidueProblem, H: MultiPoly):
    """DegreeMismatch unless H lies in the ring of the fan, WrongDegree
    unless H is 0 or has the critical degree."""
    if H.nvars != problem.fan.nvars:
        raise DegreeMismatch("polynomial ring does not match the fan")
    # an H with every term in the critical slice has the critical degree
    if H.is_zero() or problem._monomial_set.issuperset(H.terms):
        return
    try:
        dH = degree_of(H, problem.grading)
    except NotHomogeneous as exc:
        raise WrongDegree(f"input is not homogeneous: {exc}") from exc
    if dH != problem.critical:
        raise WrongDegree(
            f"degree {dH.free}+t{dH.torsion} differs from the critical degree "
            f"{problem.critical.free}+t{problem.critical.torsion}")


def _checked_coefficient(problem: ResidueProblem, H: MultiPoly) -> Fraction:
    """c(H), once the degree of H and the hypotheses of the residue hold;
    0 for H = 0, which needs no hypothesis.  Afterwards c_sigma is nonzero."""
    require_critical_degree(problem, H)
    if H.is_zero():
        return Fraction(0)
    _require_residue(problem)
    return problem.normal_coefficient(H)


def _require_residue(problem: ResidueProblem):
    """The hypotheses, codimension one and c_sigma != 0, in that order."""
    _require_hypotheses(problem)
    report = problem.codim
    if not report.ok:
        raise CodimNotOne(
            f"critical-degree quotient has dimension {report.quotient_dim}")
    if problem.c_sigma == 0:
        raise HypothesesFailed(
            "cone determinant lies in the ideal; residue undefined")


@dataclass(frozen=True)
class ResidueReport:
    critical: DegreeClass
    monomials: tuple
    pivot: Exponent
    delta: MultiPoly
    c_sigma: Fraction
    c_h: Fraction
    residue: Fraction
    codim_ok: bool


def residue_report(problem: ResidueProblem, H: MultiPoly) -> ResidueReport:
    """Res(H) with the objects it is read from.  The report holds Delta_sigma
    and c_sigma, so even H = 0 must pass the checks that define them."""
    c_h = _checked_coefficient(problem, H)
    _require_residue(problem)
    return ResidueReport(
        critical=problem.critical,
        monomials=tuple(problem.monomials),
        pivot=problem.pivot,
        delta=problem.delta,
        c_sigma=problem.c_sigma,
        c_h=c_h,
        residue=c_h / problem.c_sigma if c_h else Fraction(0),
        codim_ok=problem.codim.ok,
    )


def sigma_independence_check(problem: ResidueProblem) -> bool:
    """Across all maximal cones, the normalizing coefficients agree up to the
    sign of each cone's orientation relative to sigma (``cone_sign``)."""
    c_sigma = problem.c_sigma
    for k in range(len(problem.fan.max_cones)):
        delta_k = cone_determinant(problem, k)
        c_k = problem.normal_coefficient(delta_k)
        if c_k != problem.cone_sign(k) * c_sigma:
            return False
    return True


def verify_gtl(problem: ResidueProblem, A, H: MultiPoly) -> bool:
    """Transformed inputs G_j = sum_i A_ij F_i leave the residue invariant
    once H is multiplied by det(A)."""
    n1 = len(problem.polys)
    if len(A) != n1 or any(len(row) != n1 for row in A):
        raise DegreeMismatch("transformation matrix has the wrong shape")
    M = []
    for row in A:
        out = []
        for entry in row:
            if not isinstance(entry, MultiPoly):
                entry = MultiPoly.constant(problem.fan.nvars, entry)
            out.append(entry)
        M.append(out)
    beta = [None] * n1
    for j in range(n1):
        for i in range(n1):
            if M[i][j].is_zero():
                continue
            d = degree_of(M[i][j], problem.grading) + problem.degrees[i]
            if beta[j] is None:
                beta[j] = d
            elif beta[j] != d:
                raise DegreeMismatch(
                    f"entry ({i},{j}) breaks the column degree pattern")
        if beta[j] is None:
            raise DegreeMismatch(f"column {j} of the transformation is zero")
    G = []
    for j in range(n1):
        g = MultiPoly.zero(problem.fan.nvars)
        for i in range(n1):
            g = g + M[i][j] * problem.polys[i]
        G.append(g)
    det_a = poly_det(M)
    if det_a.is_zero():
        raise DegreeMismatch("transformation matrix is singular")
    transformed = ResidueProblem(problem.fan, G, order=problem.order,
                                 sigma=problem.sigma, grading=problem.grading)
    rho_f = problem.critical
    rho_g = transformed.critical
    if rho_g != rho_f + degree_of(det_a, problem.grading):
        raise DegreeMismatch("critical degrees do not differ by det degree")
    lhs = toric_residue(problem, H)
    rhs = toric_residue(transformed, H * det_a)
    return lhs == rhs


@dataclass(frozen=True)
class AnnihilationReport:
    ok: bool
    witness: tuple[int, Exponent] | None = None

    def __bool__(self):
        return self.ok


def variable_annihilation_check(problem: ResidueProblem) -> AnnihilationReport:
    """Every variable times every critical-degree monomial must lie in the
    ideal; the witness names the first product that does not."""
    gb = problem.groebner
    nv = problem.fan.nvars
    for i in range(nv):
        for m in problem.monomials:
            e = list(m)
            e[i] += 1
            if not gb.reduce(MultiPoly.monomial(e)).is_zero():
                return AnnihilationReport(False, (i, m))
    return AnnihilationReport(True)


def toric_jacobian(problem: ResidueProblem) -> MultiPoly:
    """Chart determinant of values stacked over partials, lifted back to the
    critical degree.  Requires all inputs to share one degree class."""
    for d in problem.degrees[1:]:
        if d != problem.degrees[0]:
            raise DegreeMismatch("inputs must share a single degree class")
    fan = problem.fan
    k = problem.sigma
    charts = [dehomogenize(p, fan, k) for p in problem.polys]
    n = fan.dim
    rows = [charts]
    for j in range(n):
        rows.append([f.partial(j) for f in charts])
    # the chart trivialization of the Euler form carries the index of the
    # cone, so the determinant overcounts by it on orbifold charts
    det = poly_det(rows) * Fraction(1, cone_group_order(fan, k))
    if det.is_zero():
        return MultiPoly.zero(fan.nvars)
    return homogenize_to_degree(det, fan, k, problem.critical, problem.grading)


def jacobian_residue_check(problem: ResidueProblem) -> bool:
    """|residue of the chart Jacobian| equals the top self-intersection
    number D^n of the shared degree class, read as n!·vol(P_D).

    The volume is D^n only for nef D; here the hypotheses give n+1 sections
    of O(D) with no common zero on X, so |D| is base-point-free, hence nef.
    """
    J = toric_jacobian(problem)
    value = toric_residue(problem, J)
    coeffs = representative_divisor(problem.grading, problem.degrees[0])
    target = intersection_number(problem.fan, coeffs)
    return abs(value) == target
