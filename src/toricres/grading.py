"""Divisor class grading of the homogeneous coordinate ring.

The grading group is the cokernel of the ray pairing map.  Its free part is
read off the Smith transform; finite cyclic factors are carried alongside as
torsion rows with their moduli.  Degrees are values of that quotient map on
exponent vectors.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .errors import DegreeMismatch, NoIntegralLift, NotAGrading, NotSurjective
from .lattice import (
    Mat,
    Vec,
    dot,
    freeze,
    hnf_reduced_rows,
    hnf_rows,
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
        """Smith form of the degree system on all variables and right-aligned
        Hermite basis of the pairing image, for ``representative_divisor``."""
        nv = self.nvars
        n = len(self.rays[0]) if self.rays else 0
        image_rows = [tuple(r[j] for r in self.rays) for j in range(n)]
        return (smith_normal_form(degree_system(self), nv + len(self.moduli)),
                tuple(hnf_rows(image_rows, nv, align="right")))


def grading_from_rays(rays) -> Grading:
    """Cokernel presentation of the ray pairing map via Smith normal form."""
    rays = freeze(rays)
    n = len(rays[0])
    cols = len(rays)
    snf = smith_normal_form(rays)  # rows are the rays: m maps to (<m, ray_i>)_i
    d = snf.diagonal
    if any(x == 0 for x in d) or len(d) < n:
        raise NotSurjective("rays do not span the ambient lattice")
    torsion_rows = []
    moduli = []
    for i, s in enumerate(d):
        if s > 1:
            torsion_rows.append(snf.U[i])
            moduli.append(s)
    free_raw = [list(snf.U[i]) for i in range(n, cols)]
    free_rows = hnf_reduced_rows(free_raw, cols)
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


def degree_system(grading: Grading) -> list[list[int]]:
    """Integer rows of the degree map on the exponent vectors.

    The free rows come first, then each torsion row with one extra column
    holding its modulus, so the first nvars entries of an integer solution
    of rows·x = (free, torsion) are exponents of that degree.
    """
    t = len(grading.torsion_rows)
    rows = [list(row) + [0] * t for row in grading.free_rows]
    for k, trow in enumerate(grading.torsion_rows):
        aux = [0] * t
        aux[k] = grading.moduli[k]
        rows.append(list(trow) + aux)
    return rows


def representative_divisor(grading: Grading, degree: DegreeClass) -> Vec:
    """A canonical exponent vector with the given degree.

    Solves the stacked integer system (free rows exactly, torsion rows up to
    their moduli), then reduces modulo the pairing image by right-aligned
    Hermite division so equal degrees give equal representatives.  Both
    forms are built once per grading.  DegreeMismatch unless the class has
    the grading's rank of free entries and its moduli.
    """
    if len(degree.free) != grading.rank or degree.moduli != grading.moduli:
        raise DegreeMismatch("degree class is not of this grading's group")
    snf, basis = grading._divisor_system
    sol = snf.solve(list(degree.free) + list(degree.torsion))
    if sol is None:
        raise NoIntegralLift("degree is not in the grading group image")
    return reduce_mod_lattice(sol[:grading.nvars], basis)
