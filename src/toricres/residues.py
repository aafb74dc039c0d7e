"""Residue pipeline on a complete simplicial fan.

Given n+1 homogeneous polynomials with no common zeros on the variety, the
residue of a critical-degree input H is l(H) / l(Delta_sigma), where l sends
each critical-degree monomial to the coefficient of one standard monomial in
its normal form modulo a Groebner basis of the input ideal, and Delta_sigma
is the distinguished cone determinant.  l is built once per problem, in
integers, and held as one integer vector over a common denominator.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import (
    AllReduceToZero,
    CodimNotOne,
    DecompositionFailed,
    DegreeMismatch,
    HypothesesFailed,
    NoIntegralLift,
    NotHomogeneous,
    WrongDegree,
    ZeroPolynomial,
)
from .grading import DegreeClass, Grading, compute_grading, critical_degree, representative_divisor
from .groebner import (GroebnerBasis, MonomialOrder, divide, grevlex, packed_basis, packing_of,
                       quotient_is_finite)
from .lattice import FanData, cone_det, cone_group_order, is_complete
from .poly import Exponent, MultiPoly, degree_of, dehomogenize, poly_det
from .polytopes import intersection_number, monomial_basis
from .values import Value


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(operator.le, a, b))


def _require_ring(p, fan: FanData, name: str = "a polynomial"):
    """TypeError unless p is a MultiPoly, DegreeMismatch unless of the fan's ring."""
    if not isinstance(p, MultiPoly):
        raise TypeError(f"{name} must be a MultiPoly, not {type(p).__name__}")
    if p.nvars != fan.nvars:
        raise DegreeMismatch("polynomial ring does not match the fan")


def off_cone_exponent(fan: FanData, k: int) -> Exponent:
    """The exponent of zhat, the product of the variables off maximal cone k."""
    cone = fan.cone(k)
    return tuple(0 if i in cone else 1 for i in range(fan.nvars))


def irrelevant_ideal(fan: FanData) -> tuple[Exponent, ...]:
    """Monomial generators, one per maximal cone: product of off-cone variables."""
    return tuple(dict.fromkeys(off_cone_exponent(fan, k) for k in range(len(fan.max_cones))))


def irrelevant_witness(p: MultiPoly, fan: FanData) -> Exponent | None:
    """A term of p outside the irrelevant ideal, or None when p lies inside;
    DegreeMismatch unless p lies in the fan's ring."""
    _require_ring(p, fan)
    gens = irrelevant_ideal(fan)
    return next((e for e in sorted(p.num) if not any(_divides(g, e) for g in gens)), None)


class ZeroLocusReport(Value):
    __slots__ = _fields = ("ok", "witness_cone", "witness_monomial")

    def __init__(self, ok: bool, witness_cone: int | None = None,
                 witness_monomial: Exponent | None = None):
        self._set(ok, witness_cone, witness_monomial)

    def __bool__(self):
        return self.ok


P = 2**61 - 1  # the prime of the modular zero-locus test
# cost guards of the zhat^N certificate, never of its answer: the largest N
# tried and the most terms a remainder may keep (they grow with N on a
# common zero of positive dimension)
CERTIFICATE_STEPS = 64
CERTIFICATE_TERMS = 64


def _certified(groebner: GroebnerBasis, zhat: Exponent) -> bool:
    """Whether zhat^N reduces to zero modulo ``groebner`` for some
    N <= CERTIFICATE_STEPS: r runs through the normal forms of zhat,
    zhat*r, ..., in packed integer terms with their content removed, and
    gives up once it has more than CERTIFICATE_TERMS terms.  zhat is packed
    once; each product zhat*r is a sum of packed monomials, tested for a
    guard bit, and an exponent above the field maximum raises
    ExponentTooLarge."""
    packing, table = groebner.packing, groebner.table
    z = packing.pack(zhat)
    step = z - packing.one
    r = {z: 1}
    for _ in range(CERTIFICATE_STEPS):
        r = divide(r, table, packing)[1]
        if not r:
            return True
        if len(r) > CERTIFICATE_TERMS:
            break
        g = gcd(*r.values())
        r = {x + step: c // g for x, c in r.items()}
        packing.check(r)
    return False


def ray_relation(fan: FanData) -> tuple[int, ...] | None:
    """lambda with sum lambda_j * ray_j = 0 and every lambda_j > 0, on a
    complete fan with n+1 rays; None on any other fan.  lambda_j is
    |cone_det| of the maximal cone that omits ray j, read from the fan's
    cone table: by Cramer's rule the signed minors (-1)^j * det(rays but
    j) are a relation, and as the rays of a complete fan positively span,
    they all have one sign."""
    if fan.nvars != fan.dim + 1 or not is_complete(fan).ok:
        return None
    weights = [0] * fan.nvars
    for cone, (det, _) in zip(fan.max_cones, fan.cone_table):
        (j,) = set(range(fan.nvars)).difference(cone)
        weights[j] = abs(det)
    return tuple(weights)


def _is_weighted_form(F: MultiPoly, weights) -> bool:
    """Whether every term of F has one degree sum(weights_j * e_j)."""
    return len({sum(map(operator.mul, e, weights)) for e in F.num}) <= 1


def no_common_zeros_on_x(fan: FanData, polys, groebner: GroebnerBasis | None = None
                         ) -> ZeroLocusReport:
    """Whether the polynomials have no common zero away from the excluded locus.

    Given ``groebner``, a Groebner basis in any order of the ideal I of the
    inputs, on a complete fan with n+1 rays and inputs homogeneous for its
    ray relation lambda (``ray_relation``), the leads of the basis decide
    it, with no division: the report is ok exactly when every variable has
    a pure-power lead (``quotient_is_finite``), and otherwise the pass
    below runs without the basis.  Proof: every maximal cone omits one
    ray, so the irrelevant ideal B is generated by the variables, and X
    has no common zero exactly when V(I) over Q-bar lies in V(B) = {0}.
    lambda > 0, as the rays positively span.  Each input is a lambda-form,
    so V(I) is stable under t*x = (t^(lambda_j) * x_j) for t != 0, and the
    orbit of a point other than 0 is infinite: V(I) is finite exactly when
    it lies in {0}.  V(I) is finite exactly when S/I is finite-dimensional,
    which holds exactly when every variable has a pure-power lead, in any
    order.  When it has a common zero, the pass names the same witness as
    with the basis: the certificate below passes only charts that are the
    unit ideal over Q, which pass mod P or else over Q too.  Inputs that
    are not lambda-forms, such as x0 - x1^2 and x1 - x0^2 on P^1, can have
    a finite V(I) with a point other than 0, here (1, 1), and are decided
    chart by chart.

    Else one pass over the maximal cones in index order decides it.  A
    chart passes when it is certified from ``groebner``, else when its
    chart ideal (the inputs with the off-cone variables set to 1) is the
    unit ideal mod P (on a complete fan with P-integral inputs only) or
    else over Q.  The first chart that passes neither holds a common zero
    and is the report's witness.  It is the first cone whose chart fails
    over Q, unless an earlier chart is the unit ideal mod P but not over Q
    (the P*x - 1 case below); that one is passed.

    Given ``groebner``, a Groebner basis of the ideal I of the inputs, a
    chart is certified from it when zhat^N lies in I, zhat the product of
    the off-cone variables: setting those variables to 1 in
    zhat^N = sum A_j F_j writes 1 in the chart ideal, so it is the unit
    ideal over Q; by Cox's toric Nullstellensatz every chart that is the
    unit ideal has such an N.  The caps on N and on the size of the
    remainders bound the cost only: a chart that is not certified takes
    the fields below, which alone decide a failure.

    Proof.  The zeros of the chart ideal of a cone tau, over Q-bar or mod
    P, are the points of the chart A^n -> U_tau over Z, the common zeros
    of the inputs, which is defined over Z_(P) when the inputs are
    P-integral.  So a chart not unit over Q puts a point of Z in U_tau:
    the witness holds a common zero.  Conversely let z be a point of Z
    over Q-bar.  On a complete fan with P-integral inputs Z is proper over
    Z_(P) (Cox-Little-Schenck 3.4), so z specializes to a point over
    F_P-bar; take tau with that point in the open U_tau, so z is in U_tau
    too (elsewhere, any tau with z in U_tau).  Each chart is a finite
    quotient (Cox, JAG 1995), so z lifts to a zero x of tau's chart ideal
    over the integers of Q-bar, and x mod P lifts the specialization; tau
    is not certified, and its chart ideal holds x and x mod P: it fails
    over Q and mod P.  So the pass is ok only when Z is empty, and a chart
    it passes though it is not unit over Q (P*x - 1: its zero leaves the
    chart mod P) leaves a later witness.  Alone, unit mod P proves
    nothing, nor does non-unit mod P (an input that is 0 mod P, or a zero
    only mod P).  With a denominator divisible by P there is no model
    over Z_(P), and on a fan that is not complete Z need not be proper (a
    point over Q-bar may reduce mod P to one off X); in both cases every
    uncertified chart is decided over Q.
    Each chart's polynomials q = q.num/q.d are built once, and both fields
    read their integer terms q.num: q.d divides F.d, as q's coefficients
    are sums of F's, so where P divides no input's F.d it divides no q.d,
    and q.num spans the same chart ideal mod P as q.  DegreeMismatch
    unless every input lies in the fan's ring.
    """
    if any(F.nvars != fan.nvars for F in polys):
        raise DegreeMismatch("polynomial ring does not match the fan")
    if groebner is not None and (weights := ray_relation(fan)) is not None \
            and all(_is_weighted_form(F, weights) for F in polys):
        if quotient_is_finite(groebner):
            return ZeroLocusReport(True)
        groebner = None
    order = grevlex(fan.dim)
    unit_table = [(packing_of(order).one, 1, ())]
    integral = is_complete(fan).ok and all(F.d % P for F in polys)
    for k in range(len(fan.max_cones)):
        zhat = off_cone_exponent(fan, k)
        if groebner is not None and _certified(groebner, zhat):
            continue
        chart = [dehomogenize(F, fan, k).num for F in polys]
        if not (integral and packed_basis(chart, order, P) == unit_table) \
                and packed_basis(chart, order, 0) != unit_table:
            return ZeroLocusReport(False, k, zhat)
    return ZeroLocusReport(True)


def decompose(F: MultiPoly, fan: FanData, cone_index: int):
    """Coefficients (A_0, A_1, .., A_n) with F = A_0*zhat + sum A_k*x_{i_k}.

    zhat is the product of off-cone variables; i_1 < .. < i_n are the cone's
    rays.  Terms divisible by a cone variable go to the lowest such variable;
    the rest must be divisible by zhat.  Each slot divides its terms by one
    monomial, so no two of them meet.
    """
    _require_ring(F, fan)
    cone = fan.cone(cone_index)
    zhat = off_cone_exponent(fan, cone_index)
    parts = [dict() for _ in range(len(cone) + 1)]
    for e, c in F.num.items():
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
        parts[slot][tuple(ne)] = c
    return tuple(MultiPoly.from_integer_terms(fan.nvars, F.d, part) for part in parts)


class CodimReport(Value):
    __slots__ = _fields = ("ok", "pivot", "witness", "quotient_dim")

    def __init__(self, ok: bool, pivot: Exponent | None,
                 witness: tuple[Exponent, Exponent] | None, quotient_dim: int):
        self._set(ok, pivot, witness, quotient_dim)

    def __bool__(self):
        return self.ok


def residue_functional(groebner: GroebnerBasis, monomials) -> tuple[CodimReport, tuple[int, dict]]:
    """Codimension report and residue functional of the critical slice, from
    one ascending pass over its ``monomials`` against ``groebner``.

    The functional l sends m to the coefficient of the pivot, the least
    standard monomial, in the normal form of m.  It is returned as one
    integer vector over a common denominator, ``(D, num)`` with D > 0 and
    num[m] = D*l(m), in lowest terms.  A standard m is its own normal form:
    l(m) is 1 at the pivot and 0 elsewhere.  Otherwise, with (le, lc, tail)
    the first of the basis's primitive integer reducers that divides m,
    normal forms being linear give l(m) = total/(D*lc) with
    total = -sum c_t*num[t*m/le] over the tail; each t*m/le is below m and
    in the slice, since the basis of homogeneous inputs is homogeneous
    (S-polynomials and reductions keep every term in one degree class,
    torsion part included).  As ``divide`` keeps its scale, D runs: when lc
    does not divide total, D and every stored value are multiplied by
    a = lc/gcd(total, lc), and num[m] = total/gcd(total, lc) is prime to a,
    so (D, num), which holds num[pivot] = D, stays in lowest terms.  The
    check passes with one standard monomial, since every normal form in the
    slice is then a multiple of the pivot; otherwise the report names the
    pivot, the two least standard monomials and their count.  The pass
    runs on the basis's packed table: the monomials are packed and sorted
    as ints, t*m/le is the sum t + (m - le), and num is keyed by exponent
    tuples again at the end.  A monomial with an exponent above the field
    maximum is refused by ``pack`` with ExponentTooLarge.
    """
    if not monomials:
        raise AllReduceToZero("no monomials exist in the critical degree")

    packing, table = groebner.packing, groebner.table
    first = packing.first_divisor
    D = 1
    num = {}
    standard = []
    for x in sorted(map(packing.pack, monomials)):
        hit = first(table, x)
        if hit is None:
            num[x] = 0 if standard else D
            standard.append(x)
            continue
        le, lc, tail = hit
        shift = x - le
        total = -sum(c * num[t + shift] for t, c in tail)
        g = gcd(total, lc)
        if g != lc:
            a = lc // g
            D *= a
            num = {k: v * a for k, v in num.items()}
        num[x] = total // g
    unpack = packing.unpack
    num = {unpack(x): v for x, v in num.items()}
    standard = [unpack(x) for x in standard]
    if not standard:
        raise AllReduceToZero(
            "every critical-degree monomial reduces to zero")
    if len(standard) > 1:
        return CodimReport(False, standard[0], tuple(standard[:2]), len(standard)), (D, num)
    return CodimReport(True, standard[0], None, 1), (D, num)


class ResidueProblem:
    """Immutable bundle: fan, grading, the n+1 forms, order, cone.

    Heavy artifacts (critical degree, monomials of the critical degree,
    Groebner basis with its reducer table, residue functional with the
    codimension report, zero-locus report, cone determinant) are cached
    properties, computed once on first use; a stage that raises caches
    nothing and raises again on the next access.  The functional and the
    report come from one pass over the cached monomials against the cached
    basis, and the functional is held once, as one integer vector over a
    common denominator; the residue of every H is an integer dot product
    with it.  Delta_sigma, ``delta``, is a polynomial like every other,
    integer terms over one denominator, so c_sigma, the functional at it,
    is one integer dot product and one Fraction.  The zero-locus report
    reads the cached basis too, so building it builds the basis: on a
    complete fan with n+1 rays the basis's pure-power leads decide it, and
    on other fans it certifies each chart by a power of zhat reducing to
    zero.  Construction only validates that the inputs are MultiPolys,
    shapes, homogeneity, that the grading is the fan's and the rays of
    sigma, so non-conforming inputs can still be probed.
    """

    def __init__(self, fan: FanData, polys, order: MonomialOrder | None = None,
                 sigma: int = 0, grading: Grading | None = None):
        self.fan = fan
        self.polys = tuple(polys)
        if len(self.polys) != fan.dim + 1:
            raise DegreeMismatch(
                f"need {fan.dim + 1} polynomials, got {len(self.polys)}")
        for p in self.polys:
            _require_ring(p, fan, "an input")
            if p.is_zero():
                raise ZeroPolynomial("input polynomials must be nonzero")
        fan.cone(sigma)  # ValueError when no maximal cone has the index
        self.sigma = sigma
        self.order = order if order is not None else grevlex(fan.nvars)
        if self.order.nvars != fan.nvars:
            raise DegreeMismatch("monomial order does not match the fan's variables")
        self.grading = grading if grading is not None else compute_grading(fan)
        if self.grading.rays != fan.rays:
            raise DegreeMismatch("the grading belongs to a fan with other rays")
        self.degrees = tuple(degree_of(p, self.grading) for p in self.polys)
        self._sigma_det = cone_det(fan, sigma)
        if self._sigma_det == 0:
            raise ValueError("cone rays are dependent")
        self._memo = {}

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
        return residue_functional(self.groebner, self.monomials)

    @property
    def codim(self) -> CodimReport:
        return self._functional[0]

    @property
    def ell(self) -> dict:
        """Critical-degree monomial -> coefficient of the pivot in its normal
        form: the integer functional read as Fractions on each access."""
        D, num = self._functional[1]
        return {m: Fraction(v, D) for m, v in num.items()}

    @property
    def pivot(self) -> Exponent:
        return self.codim.pivot

    @cached_property
    def membership_failures(self):
        witnesses = (irrelevant_witness(p, self.fan) for p in self.polys)
        return tuple((j, w) for j, w in enumerate(witnesses) if w is not None)

    @cached_property
    def _zero_locus(self) -> ZeroLocusReport:
        return no_common_zeros_on_x(self.fan, self.polys, self.groebner)

    def zero_locus(self) -> ZeroLocusReport:
        return self._zero_locus

    @cached_property
    def delta(self) -> MultiPoly:
        return cone_determinant(self)

    @cached_property
    def c_sigma(self) -> Fraction:
        return self.normal_coefficient(self.delta)

    def memo(self, key, build, *args):
        """build(*args), kept for the key unless it raises (``localres``'s objects)."""
        if key not in self._memo:
            self._memo[key] = build(*args)
        return self._memo[key]

    def cone_sign(self, cone_index: int) -> int:
        """+1 or -1 as the rays of the cone, in ascending order, are oriented
        like sigma's or not; 0 when they are dependent."""
        d = cone_det(self.fan, cone_index) * self._sigma_det
        return (d > 0) - (d < 0)

    def normal_coefficient(self, H: MultiPoly) -> Fraction:
        """Coefficient of the pivot in the normal form of H: the functional
        at H = H.num/H.d, one integer dot product of H.num with D*l over
        H.d*D; terms outside the critical degree give 0."""
        D, num = self._functional[1]
        return Fraction(sum(num[e] * c for e, c in H.num.items() if e in num), H.d * D)


def cone_determinant(problem: ResidueProblem, cone_index: int | None = None) -> MultiPoly:
    """Determinant of the decomposition matrix at a cone (default: sigma),
    column j holding input j's parts, zhat's coefficients in the first row;
    ValueError when no maximal cone has the index."""
    k = problem.sigma if cone_index is None else cone_index
    cols = [decompose(F, problem.fan, k) for F in problem.polys]
    return poly_det([list(row) for row in zip(*cols)])


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
    """Exact residue of H, normalized so the cone determinant has residue 1:
    c(H)/c_sigma, once the degree of H and the hypotheses of the residue
    hold; 0 for H = 0, which needs no hypothesis."""
    require_critical_degree(problem, H)
    if H.is_zero():
        return Fraction(0)
    _require_residue(problem)
    return problem.normal_coefficient(H) / problem.c_sigma


def require_critical_degree(problem: ResidueProblem, H: MultiPoly):
    """TypeError unless H is a MultiPoly, DegreeMismatch unless it lies in
    the fan's ring, WrongDegree unless it is 0 or has the critical degree."""
    _require_ring(H, problem.fan, "H")
    # an H with every term in the critical slice has the critical degree
    if H.is_zero() or problem._monomial_set.issuperset(H.num):
        return
    try:
        dH = degree_of(H, problem.grading)
    except NotHomogeneous as exc:
        raise WrongDegree(f"input is not homogeneous: {exc}") from exc
    if dH != problem.critical:
        raise WrongDegree(
            f"degree {dH.free}+t{dH.torsion} differs from the critical degree "
            f"{problem.critical.free}+t{problem.critical.torsion}")


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


class ResidueReport(Value):
    __slots__ = _fields = ("critical", "monomials", "pivot", "delta", "c_sigma", "c_h",
                           "residue")

    def __init__(self, critical: DegreeClass, monomials: tuple, pivot: Exponent,
                 delta: MultiPoly, c_sigma: Fraction, c_h: Fraction, residue: Fraction):
        self._set(critical, monomials, pivot, delta, c_sigma, c_h, residue)


def residue_report(problem: ResidueProblem, H: MultiPoly) -> ResidueReport:
    """Res(H) with the objects it is read from.  The report holds Delta_sigma
    and c_sigma, so even H = 0 must pass the checks that define them."""
    require_critical_degree(problem, H)
    _require_residue(problem)
    c_h = problem.normal_coefficient(H)
    return ResidueReport(
        critical=problem.critical,
        monomials=tuple(problem.monomials),
        pivot=problem.pivot,
        delta=problem.delta,
        c_sigma=problem.c_sigma,
        c_h=c_h,
        residue=c_h / problem.c_sigma,
    )


def sigma_independence_check(problem: ResidueProblem) -> bool:
    """Across all maximal cones, the normalizing coefficients agree up to the
    sign of each cone's orientation relative to sigma (``cone_sign``)."""
    c_sigma = problem.c_sigma
    return all(problem.normal_coefficient(cone_determinant(problem, k))
               == problem.cone_sign(k) * c_sigma
               for k in range(len(problem.fan.max_cones)))


def verify_gtl(problem: ResidueProblem, A, H: MultiPoly) -> bool:
    """Transformed inputs G_j = sum_i A_ij F_i leave the residue invariant
    once H is multiplied by det(A).  A must be nonsingular with a column
    degree pattern, deg A_ij + deg F_i = beta_j on each nonzero entry, so
    each term of det(A) has degree sum beta_j - sum deg F_i and the G have
    the critical degree of the F plus deg det(A).  H is checked first."""
    _require_ring(H, problem.fan, "H")
    n1 = len(problem.polys)
    if len(A) != n1 or any(len(row) != n1 for row in A):
        raise DegreeMismatch("transformation matrix has the wrong shape")
    nv = problem.fan.nvars
    M = [[e if isinstance(e, MultiPoly) else MultiPoly.constant(nv, e) for e in row] for row in A]
    for j in range(n1):
        beta = None
        for i in range(n1):
            if M[i][j].num:
                d = degree_of(M[i][j], problem.grading) + problem.degrees[i]
                if beta not in (None, d):
                    raise DegreeMismatch(f"entry ({i},{j}) breaks the column degree pattern")
                beta = d
        if beta is None:
            raise DegreeMismatch(f"column {j} of the transformation is zero")
    G = [sum((M[i][j] * F for i, F in enumerate(problem.polys)), MultiPoly.zero(nv))
         for j in range(n1)]
    det_a = poly_det(M)
    if det_a.is_zero():
        raise DegreeMismatch("transformation matrix is singular")
    transformed = ResidueProblem(problem.fan, G, order=problem.order,
                                 sigma=problem.sigma, grading=problem.grading)
    lhs = toric_residue(problem, H)
    rhs = toric_residue(transformed, H * det_a)
    return lhs == rhs


class AnnihilationReport(Value):
    __slots__ = _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple[int, Exponent] | None = None):
        self._set(ok, witness)

    def __bool__(self):
        return self.ok


def variable_annihilation_check(problem: ResidueProblem) -> AnnihilationReport:
    """Every variable times every critical-degree monomial must lie in the
    ideal; the witness names the first product that does not."""
    gb = problem.groebner
    for i in range(problem.fan.nvars):
        for m in problem.monomials:
            e = list(m)
            e[i] += 1
            if not gb.reduce(MultiPoly.monomial(e)).is_zero():
                return AnnihilationReport(False, (i, m))
    return AnnihilationReport(True)


def toric_jacobian(problem: ResidueProblem) -> MultiPoly:
    """The toric Jacobian of inputs F_0..F_n of one degree, read on sigma:
    J = det[F_i; dF_i/dx_j, j in sigma] / (|det sigma|·xhat), xhat the
    product of the variables off sigma.  Setting those to 1 sends the
    determinant, of degree rho + deg xhat, to the chart determinant, and is
    one-to-one on a degree class: exponents of one degree differ by
    (<m, ray_i>)_i for an m in M, and sigma's rays span M_Q.  So J is the
    one lift of the chart determinant over |det sigma| to the critical
    degree rho.  NoIntegralLift when xhat does not divide the determinant;
    DegreeMismatch unless all inputs share one degree class."""
    if len(set(problem.degrees)) > 1:
        raise DegreeMismatch("inputs must share a single degree class")
    fan, k, polys = problem.fan, problem.sigma, problem.polys
    det = poly_det([polys] + [[F.partial(j) for F in polys] for j in fan.cone(k)])
    zhat = off_cone_exponent(fan, k)
    out = {}
    for e, c in det.num.items():
        e = tuple(map(operator.sub, e, zhat))
        if min(e) < 0:
            raise NoIntegralLift("degree gap needs a negative exponent")
        out[e] = c
    return MultiPoly.from_integer_terms(fan.nvars, det.d * cone_group_order(fan, k), out)


def jacobian_residue_check(problem: ResidueProblem) -> bool:
    """|residue of the toric Jacobian| equals the top self-intersection
    number D^n of the shared degree class."""
    J = toric_jacobian(problem)
    value = toric_residue(problem, J)
    coeffs = representative_divisor(problem.grading, problem.degrees[0])
    target = intersection_number(problem.fan, coeffs)
    return abs(value) == target
