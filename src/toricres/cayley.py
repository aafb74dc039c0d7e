"""Bundled encoding of n+1 divisors as one: lifted rays, polytope, grading.

The n+1 line bundle choices on an n-dimensional base are packed into a
projectivized bundle whose coordinate ring adds one variable per bundle
summand.  Everything here works with the lifted ray data directly; no
maximal cones of the bundle space are built.  One exponent vector,
x^{D_0} y_0, gives both the bundle class and the bundle polytope's offsets,
and both critical degrees, lifted and on the base, are ``critical_degree``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divisors import is_ample
from .errors import DegreeMismatch, NotAmple
from .grading import Grading, critical_degree, grading_from_rays, representative_divisor
from .lattice import FanData, smith_normal_form
from .poly import MultiPoly, degree_of
from .polytopes import (HPolytope, divisor_monomials, divisor_polytope, lattice_points,
                        monomial_basis)


@dataclass(frozen=True)
class CayleyData:
    fan: FanData
    divisors: tuple[tuple[int, ...], ...]
    lifted_rays: tuple[tuple[int, ...], ...]
    grading: Grading
    base_grading: Grading
    variables: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.fan.dim

    @property
    def base_count(self) -> int:
        return self.fan.nvars


def build_cayley(fan: FanData, base_grading: Grading, divisors,
                 require_ample: bool = True) -> CayleyData:
    """Lifted ray data for the bundle over the fan's variety.

    divisors is a sequence of n+1 coefficient vectors.  Base rays acquire an
    e-part recording coefficient differences against the first divisor; one
    fresh ray per summand spans the fiber directions.
    """
    n = fan.dim
    divisors = tuple(tuple(int(c) for c in d) for d in divisors)
    if len(divisors) != n + 1:
        raise DegreeMismatch(f"need {n + 1} divisors, got {len(divisors)}")
    for d in divisors:
        if len(d) != fan.nvars:
            raise DegreeMismatch("divisor length does not match the ray count")
        if require_ample and not is_ample(fan, d).ok:
            raise NotAmple(f"divisor {d} is not ample")
    lifted = []
    for i in range(fan.nvars):
        epart = tuple(divisors[j][i] - divisors[0][i] for j in range(1, n + 1))
        lifted.append(epart + fan.rays[i])
    lifted.append(tuple([-1] * n + [0] * n))
    for j in range(n):
        e = [0] * (2 * n)
        e[j] = 1
        lifted.append(tuple(e))
    variables = fan.variables + tuple(f"y{j}" for j in range(n + 1))
    grading = grading_from_rays(lifted)
    return CayleyData(fan, divisors, tuple(lifted), grading, base_grading,
                      variables)


def _lift_poly(cd: CayleyData, p: MultiPoly, y_index: int | None = None) -> MultiPoly:
    """Embed a base polynomial into the bundle ring, optionally times y_j."""
    total = cd.base_count + cd.n + 1
    out = {}
    for e, c in p.terms.items():
        ne = list(e) + [0] * (cd.n + 1)
        if y_index is not None:
            ne[cd.base_count + y_index] += 1
        out[tuple(ne)] = c
    return MultiPoly(total, out)


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
    coeffs = representative_divisor(cd.grading, critical_degree_lifted(cd))
    lifted = divisor_monomials(HPolytope(2 * n, cd.lifted_rays, coeffs))
    if any(any(e[cd.base_count:]) for e in lifted):
        return False
    base = monomial_basis(cd.fan, cd.base_grading, critical_degree(cd.base_grading, base_degrees))
    return sorted(e[:cd.base_count] for e in lifted) == base


def cayley_polytope_check(cd: CayleyData) -> bool:
    """Lattice points of the bundle polytope equal the union of the divisor
    polytopes placed on the vertices of a standard simplex."""
    n = cd.n
    got = set(lattice_points(HPolytope(2 * n, cd.lifted_rays, _bundle_exponent(cd))))
    return got == {tuple(int(j == t + 1) for t in range(n)) + m for j in range(n + 1)
                   for m in lattice_points(divisor_polytope(cd.fan, cd.divisors[j]))}


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
            for i in range(cd.base_count + cd.n + 1)]
    rhs = [0] * cd.base_count + [1] * (cd.n + 1)
    lam = smith_normal_form(rows).solve(rhs)
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
