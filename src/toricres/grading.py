"""Divisor class grading of the homogeneous coordinate ring.

The grading group is the cokernel of the ray pairing map.  Its free rows are
the reduced left Hermite basis of the rays' relations, built in one pass
over the rays (``kernel_hermite_rows``); when the rays span a sublattice of
index above 1, the finite cyclic factors are read off a Smith transform of
the rays and carried alongside as torsion rows with their moduli.  Degrees
are values of that quotient map on exponent vectors.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .errors import DegreeMismatch, InvalidFan, NoIntegralLift, NotAGrading, NotSurjective
from .lattice import (
    Mat,
    Vec,
    dot,
    freeze,
    hnf_reduced_rows,
    hnf_rows,
    kernel_hermite_rows,
    reduce_mod_lattice,
    smith_normal_form,
)
from .values import Value


class DegreeClass(Value):
    """An element of the grading group: free part plus cyclic residues.
    Built and compared once per term by ``degree_of``, so its ``__init__``,
    ``__eq__`` and ``__hash__`` name the fields directly."""

    __slots__ = _fields = ("free", "torsion", "moduli")

    def __init__(self, free: Vec, torsion: Vec = (), moduli: Vec = ()):
        if len(torsion) != len(moduli):
            raise ValueError("torsion and moduli lengths differ")
        moduli = tuple(map(operator.index, moduli))
        if moduli and min(moduli) < 1:
            raise ValueError(f"moduli {moduli} must be positive")
        object.__setattr__(self, "free", tuple(map(operator.index, free)))
        object.__setattr__(self, "torsion", tuple(
            operator.index(t) % m for t, m in zip(torsion, moduli)))
        object.__setattr__(self, "moduli", moduli)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.free, self.torsion, self.moduli)
                == (other.free, other.torsion, other.moduli))

    def __hash__(self):
        return hash((self.free, self.torsion, self.moduli))

    def __add__(self, other):
        if self.moduli != other.moduli or len(self.free) != len(other.free):
            raise ValueError("degrees live in different groups")
        return DegreeClass(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
            self.moduli)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k: int):
        return DegreeClass(tuple(k * a for a in self.free),
                           tuple(k * a for a in self.torsion), self.moduli)

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


class Grading(Value):
    """Exponent-vector grading: free rows, torsion rows, and cyclic moduli."""

    _fields = ("rays", "free_rows", "torsion_rows", "moduli", "provenance")

    def __init__(self, rays: Mat, free_rows: Mat, torsion_rows: Mat = (), moduli: Vec = (),
                 provenance: str = "computed"):
        self._set(freeze(rays), freeze(free_rows), freeze(torsion_rows),
                  tuple(map(operator.index, moduli)), provenance)

    @property
    def nvars(self) -> int:
        return len(self.rays)

    @property
    def rank(self) -> int:
        return len(self.free_rows)

    def degree(self, exponent) -> DegreeClass:
        """Degree class of an exponent with one entry per variable, else DegreeMismatch."""
        e = tuple(map(operator.index, exponent))
        if len(e) != self.nvars:
            raise DegreeMismatch(f"exponent has {len(e)} entries for {self.nvars} variables")
        values = self.degree_values(e)
        return DegreeClass(values[:self.rank], values[self.rank:], self.moduli)

    def degree_values(self, e) -> tuple[int, ...]:
        """The free values, then the torsion values mod their moduli, of an
        exponent of the ring: its ``degree`` as ints, which ``degree_of`` compares."""
        mul = operator.mul
        return (*[sum(map(mul, row, e)) for row in self.free_rows],
                *[sum(map(mul, row, e)) % m for row, m in zip(self.torsion_rows, self.moduli)])

    def variable_degree(self, i: int) -> DegreeClass:
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable with index {i}")
        e = [0] * self.nvars
        e[i] = 1
        return self.degree(e)

    @cached_property
    def _divisor_system(self):
        """What ``representative_divisor`` reads, built once per grading.

        A column that is a unit vector ±e_i of the free rows is the unit
        column of row i (the first one); the other rows, the special rows,
        vanish there.  Given the rest x_R of an exponent, the unit rows fix
        x_u = ±(f_i - row_i·x_R), and the torsion rows, with that
        substituted, read t_k - c_k·f on x_R alone.  So the special rows and
        the substituted torsion rows, each with a column for its modulus,
        are one small system on the rest, put in Smith form; None when it
        has no rows, and then x_R = 0.  Last, the right-aligned Hermite
        basis of the pairing image."""
        F, T, nv = self.free_rows, self.torsion_rows, self.nvars
        unit = {}
        for j, col in enumerate(zip(*F)):
            nonzero = [i for i, a in enumerate(col) if a]
            if len(nonzero) == 1 and col[nonzero[0]] in (1, -1):
                unit.setdefault(nonzero[0], j)
        rest = sorted(set(range(nv)) - set(unit.values()))
        units = tuple((i, u, F[i][u], [(l, F[i][l]) for l in rest if F[i][l]])
                      for i, u in unit.items())
        special = [i for i in range(len(F)) if i not in unit]
        t = len(T)
        system = [[F[i][l] for l in rest] + [0] * t for i in special]
        subs = []
        for k, trow in enumerate(T):
            c = [(i, trow[u] * sign) for i, u, sign, _ in units if trow[u]]
            row = [trow[l] - sum(a * F[i][l] for i, a in c) for l in rest]
            system.append(row + [self.moduli[k] * (h == k) for h in range(t)])
            subs.append(c)
        snf = smith_normal_form(system) if system else None
        n = len(self.rays[0]) if self.rays else 0
        image_rows = [tuple(r[j] for r in self.rays) for j in range(n)]
        return (units, special, subs, rest, snf,
                tuple(hnf_rows(image_rows, nv, align="right")))


def grading_from_rays(rays) -> Grading:
    """The grading of the Cox ring of the rays: free rows from
    ``kernel_hermite_rows``, and torsion rows and moduli from a Smith form
    of the rays only when they span a sublattice of index above 1.
    InvalidFan for no rays or rays of unequal lengths; NotSurjective when
    they span less than the ambient rank."""
    rays = freeze(rays)
    if not rays:
        raise InvalidFan("no rays")
    n = len(rays[0])
    for k, ray in enumerate(rays):
        if len(ray) != n:
            raise InvalidFan(f"ray {k} has wrong length")
    free_rows, index = kernel_hermite_rows(rays, n)
    if not index:
        raise NotSurjective("rays do not span the ambient lattice")
    torsion_rows = []
    moduli = []
    if index > 1:
        snf = smith_normal_form(rays)  # rows are the rays: m maps to (<m, ray_i>)_i
        for u, s in zip(snf.U, snf.diagonal):
            if s > 1:
                torsion_rows.append(u)
                moduli.append(s)
    return Grading(rays, free_rows, torsion_rows, moduli)


def compute_grading(fan) -> Grading:
    return grading_from_rays(fan.rays)


def validate_user_grading(fan, free_rows) -> Grading:
    """Accept user free rows R iff they are a unimodular change of the
    computed free rows C.

    Each row must have one entry per ray and vanish on the image of the ray
    pairing map.  Such a row kills the saturation of that image too, the
    kernel of C, so with rank-many rows R = T·C for an integer square T.
    R presents the same free quotient exactly when |det T| = 1, that is when
    R and C span one row lattice, and so exactly when the reduced Hermite
    form of R is C, which is already reduced.  The torsion rows and moduli
    are the computed ones.
    """
    rays = fan.rays
    free_rows = freeze(free_rows)
    n = fan.dim
    cols = len(rays)
    for r, row in enumerate(free_rows):
        if len(row) != cols:
            raise NotAGrading(f"row {r} has wrong length")
        for j in range(n):
            col = [rays[i][j] for i in range(cols)]
            if dot(row, col) != 0:
                raise NotAGrading(
                    f"row {r} does not vanish on the ray pairing image")
    computed = grading_from_rays(rays)
    if len(free_rows) != computed.rank:
        raise NotSurjective(
            f"expected {computed.rank} free rows, got {len(free_rows)}")
    if freeze(hnf_reduced_rows(free_rows, cols)) != computed.free_rows:
        raise NotSurjective("rows do not generate the free quotient")
    return Grading(rays, free_rows, computed.torsion_rows, computed.moduli,
                   provenance="user")


def anticanonical_class(grading: Grading) -> DegreeClass:
    return grading.degree([1] * grading.nvars)


def critical_degree(grading: Grading, degrees) -> DegreeClass:
    """The sum of the input degrees minus the anticanonical class;
    DegreeMismatch for no degrees."""
    if not degrees:
        raise DegreeMismatch("a critical degree needs at least one input degree")
    total = degrees[0]
    for d in degrees[1:]:
        total = total + d
    return total - anticanonical_class(grading)


def representative_divisor(grading: Grading, degree: DegreeClass) -> Vec:
    """A canonical exponent vector with the given degree.

    Solves the free rows exactly and the torsion rows up to their moduli:
    the small Smith form of ``Grading._divisor_system`` gives the entries
    off the unit columns, or zeros when there is none, and each unit row
    then gives its unit column's entry.  Reducing modulo the pairing image
    by right-aligned Hermite division makes equal degrees give equal
    representatives.  Both forms are built once per grading, and on a
    torsion-free grading whose free rows have unit pivots only there is no
    Smith form.  DegreeMismatch unless the class has the grading's rank of
    free entries and its moduli.
    """
    if len(degree.free) != grading.rank or degree.moduli != grading.moduli:
        raise DegreeMismatch("degree class is not of this grading's group")
    units, special, subs, rest, snf, basis = grading._divisor_system
    f = degree.free
    x = [0] * grading.nvars
    if snf is not None:
        rhs = [f[i] for i in special]
        rhs += [t - sum(a * f[i] for i, a in c) for t, c in zip(degree.torsion, subs)]
        sol = snf.solve(rhs)
        if sol is None:
            raise NoIntegralLift("degree is not in the grading group image")
        for l, a in zip(rest, sol):
            x[l] = a
    for i, u, sign, terms in units:
        x[u] = sign * (f[i] - sum(a * x[l] for l, a in terms))
    return reduce_mod_lattice(x, basis)
