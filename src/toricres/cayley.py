"""Bundled encoding of n+1 divisors as one: the bundle fan, polytope, grading.

The n+1 line bundle choices on an n-dimensional base are packed into the
projectivized bundle P(O(D_0) + ... + O(D_n)), whose coordinate ring adds
one variable per summand.  Its fan, each base cone joined with every maximal
cone of the fiber P^n (Cox–Little–Schenck, *Toric Varieties*, §7.3), is
built once, and both bundle polytopes are ``divisor_polytope``s on it.  One
exponent vector, x^{D_0} y_0, gives both the bundle class and the bundle
polytope's offsets, and both critical degrees are ``critical_degree``.
"""

from __future__ import annotations

import operator

from .divisors import is_ample
from .errors import DegreeMismatch, NotAmple
from .grading import Grading, compute_grading, critical_degree
from .lattice import FanData, make_fan, smith_normal_form
from .poly import MultiPoly, degree_of
from .polytopes import divisor_polytope, lattice_points, monomial_basis
from .values import Value


class CayleyData(Value):
    """``bundle`` is the bundle's fan, its rays the lifted base rays then
    y_0..y_n, under default variable names (a base variable may be named
    y0); ``grading`` is its grading; ``variables`` are the display names."""

    __slots__ = _fields = ("fan", "divisors", "bundle", "grading", "base_grading", "variables")

    def __init__(self, fan: FanData, divisors: tuple[tuple[int, ...], ...], bundle: FanData,
                 grading: Grading, base_grading: Grading, variables: tuple[str, ...]):
        self._set(fan, divisors, bundle, grading, base_grading, variables)

    @property
    def n(self) -> int:
        return self.fan.dim

    @property
    def base_count(self) -> int:
        return self.fan.nvars


def build_cayley(fan: FanData, base_grading: Grading, divisors,
                 require_ample: bool = True) -> CayleyData:
    """The bundle over the fan's variety.

    divisors is a sequence of n+1 coefficient vectors.  Base rays acquire an
    e-part recording coefficient differences against the first divisor; one
    fresh ray per summand spans the fiber directions.  A maximal cone is a
    base cone's rays plus every fiber ray but one.  Distinct divisors are
    tested once each, in order."""
    n = fan.dim
    divisors = tuple(tuple(map(operator.index, d)) for d in divisors)
    if len(divisors) != n + 1:
        raise DegreeMismatch(f"need {n + 1} divisors, got {len(divisors)}")
    for d in dict.fromkeys(divisors):
        if len(d) != fan.nvars:
            raise DegreeMismatch("divisor length does not match the ray count")
        if require_ample and not is_ample(fan, d).ok:
            raise NotAmple(f"divisor {d} is not ample")
    lifted = [tuple(d[i] - divisors[0][i] for d in divisors[1:]) + fan.rays[i]
              for i in range(fan.nvars)]
    lifted += [(-1,) * n + (0,) * n] + [tuple(int(k == j) for k in range(2 * n)) for j in range(n)]
    fiber = tuple(range(fan.nvars, fan.nvars + n + 1))
    bundle = make_fan(2 * n, lifted, [cone + fiber[:j] + fiber[j + 1:]
                                      for cone in fan.max_cones for j in range(n + 1)])
    return CayleyData(fan, divisors, bundle, compute_grading(bundle), base_grading,
                      fan.variables + tuple(f"y{j}" for j in range(n + 1)))


def _lift_poly(cd: CayleyData, p: MultiPoly, y_index: int | None = None) -> MultiPoly:
    """Embed a base polynomial into the bundle ring, optionally times y_j."""
    if p.nvars != cd.base_count:
        raise DegreeMismatch("polynomial ring does not match the base fan")
    y = tuple(int(j == y_index) for j in range(cd.n + 1))
    return MultiPoly.from_integer_terms(cd.bundle.nvars, p.d,
                                        {e + y: c for e, c in p.num.items()})


def _bundle_exponent(cd: CayleyData) -> tuple[int, ...]:
    """The exponent vector x^{D_0} y_0: degree of every y_j F_j, and the
    offsets of the bundle polytope."""
    return cd.divisors[0] + (1,) + (0,) * cd.n


def bundle_class(cd: CayleyData):
    """Degree shared by all y_j F_j when inputs match the divisor classes."""
    return cd.grading.degree(_bundle_exponent(cd))


def critical_degree_lifted(cd: CayleyData):
    return critical_degree(cd.grading, [bundle_class(cd)] * (cd.n + 1))


def equal_degree_check(cd: CayleyData, polys) -> bool:
    """All y_j-weighted inputs share one degree; the lifted critical degree
    matches the base one monomial for monomial (its slice is y-free)."""
    n, k = cd.n, cd.base_count
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
    lifted = monomial_basis(cd.bundle, cd.grading, critical_degree_lifted(cd))
    if any(any(e[k:]) for e in lifted):
        return False
    base = monomial_basis(cd.fan, cd.base_grading, critical_degree(cd.base_grading, base_degrees))
    return [e[:k] for e in lifted] == base


def cayley_polytope_check(cd: CayleyData) -> bool:
    """Lattice points of the bundle polytope equal the union of the divisor
    polytopes placed on the vertices of a standard simplex; one polytope
    per distinct divisor."""
    n = cd.n
    got = set(lattice_points(divisor_polytope(cd.bundle, _bundle_exponent(cd))))
    points = {d: lattice_points(divisor_polytope(cd.fan, d)) for d in dict.fromkeys(cd.divisors)}
    return got == {tuple(int(j == t + 1) for t in range(n)) + m
                   for j, d in enumerate(cd.divisors) for m in points[d]}


def jacobian_ideal_degree_check(cd: CayleyData, polys) -> bool:
    """Degree bookkeeping behind the codimension argument: a weight
    functional gives every y variable weight one and every base variable
    weight zero, kills the lifted critical degree, and every base partial of
    the bundled form carries a y in each term.

    The functional is found by one integer Smith solve.  It is the same
    functional as over Q: the free-degree map sends the variables onto Z^r,
    so the system's Smith diagonal is r ones, and a rational solution is
    unique and integer whenever one exists."""
    rows = [list(cd.grading.variable_degree(i).free)
            for i in range(cd.bundle.nvars)]
    rhs = [0] * cd.base_count + [1] * (cd.n + 1)
    lam = smith_normal_form(rows).solve(rhs)
    if lam is None:
        return False
    rho = critical_degree_lifted(cd)
    if sum(l * r for l, r in zip(lam, rho.free)) != 0:
        return False
    bundled = sum((_lift_poly(cd, p, j) for j, p in enumerate(polys)),
                  MultiPoly.zero(cd.bundle.nvars))
    for i in range(cd.base_count):
        partial = bundled.partial(i)
        for e in partial.num:
            if not any(e[cd.base_count:]):
                return False
    return True
