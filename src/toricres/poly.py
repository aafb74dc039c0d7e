"""Sparse multivariate polynomials over the rationals.

Terms are stored as a dict from exponent tuples to nonzero Fractions.  The
representation is deliberately tiny; Groebner machinery and residue code
only need arithmetic, substitution, and exact degree bookkeeping.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    NoIntegralLift,
    NonSquare,
    NonUniqueLift,
    NotHomogeneous,
    ParseError,
    ZeroPolynomial,
)
from .grading import degree_system
from .lattice import smith_normal_form

Exponent = tuple[int, ...]


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    e = tuple(int(x) for x in e)
                    if len(e) != nvars:
                        raise ValueError("exponent length mismatch")
                    clean[e] = clean.get(e, Fraction(0)) + c
                    if not clean[e]:
                        del clean[e]
        self.terms = clean

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, nvars, terms):
        """Trusted constructor: terms must already map int exponent tuples
        of length nvars to nonzero Fractions.  The dict is kept, not copied
        or checked."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        c = Fraction(c)
        return cls(nvars, {tuple([0] * nvars): c} if c else {})

    @classmethod
    def variable(cls, nvars, i, power=1):
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exponent, coef=1):
        return cls(len(exponent), {tuple(exponent): Fraction(coef)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly.from_terms(self.nvars, out)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return MultiPoly.from_terms(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.nvars)
            return MultiPoly.from_terms(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly.from_terms(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return isinstance(other, MultiPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        names = tuple(f"x{i + 1}" for i in range(self.nvars))
        return f"MultiPoly({poly_to_string(self, names)})"

    # -- queries -------------------------------------------------------------

    def coefficient(self, exponent) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    def evaluate(self, point):
        """Exact evaluation at a tuple of Fractions (or floats/complex)."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x ** k
            total = total + v
        return total

    def partial(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MultiPoly(self.nvars, out)

    def substitute(self, values: dict[int, "MultiPoly | int | Fraction"]):
        """Replace selected variables by polynomials in the same ring."""
        out = MultiPoly.zero(self.nvars)
        for e, c in self.terms.items():
            term = MultiPoly.constant(self.nvars, c)
            for i, k in enumerate(e):
                if not k:
                    continue
                if i in values:
                    v = values[i]
                    if not isinstance(v, MultiPoly):
                        v = MultiPoly.constant(self.nvars, v)
                    term = term * v ** k
                else:
                    term = term * MultiPoly.variable(self.nvars, i, k)
            out = out + term
        return out


# ---------------------------------------------------------------------------
# parsing and printing

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUM = re.compile(r"\d+")


class _PolyParser:
    """Recursive descent over ``+ - * ^ **``, parentheses, rationals p/q,
    and implicit products like ``2x(y+1)``."""

    def __init__(self, text, names):
        self.text = text
        self.s = text.replace(" ", "")
        self.pos = 0
        self.index = {nm: i for i, nm in enumerate(names)}
        self.nv = len(names)

    def fail(self, what):
        raise ParseError(f"{what} near index {self.pos} in {self.text!r}")

    def peek(self):
        # NUL sentinel: never matches an operator test, unlike "" in "+-"
        return self.s[self.pos] if self.pos < len(self.s) else "\0"

    def expr(self) -> MultiPoly:
        sign = self._sign()
        total = self.term() * sign
        while self.peek() in "+-":
            sign = self._sign()
            total = total + self.term() * sign
        return total

    def _sign(self) -> int:
        sign = 1
        while self.peek() in "+-":
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        return sign

    def term(self) -> MultiPoly:
        p = self.factor()
        while True:
            if self.peek() == "*" and not self.s.startswith("**", self.pos):
                self.pos += 1
                p = p * self.factor()
            elif self.peek() == "(" or _NAME.match(self.s, self.pos) \
                    or _NUM.match(self.s, self.pos):
                p = p * self.factor()
            else:
                return p

    def factor(self) -> MultiPoly:
        base = self.base()
        if self.peek() == "^" or self.s.startswith("**", self.pos):
            self.pos += 2 if self.s.startswith("**", self.pos) else 1
            if self.peek() == "-":
                self.fail("negative exponent")
            m = _NUM.match(self.s, self.pos)
            if not m:
                self.fail("bad exponent")
            self.pos = m.end()
            return base ** int(m.group())
        return base

    def base(self) -> MultiPoly:
        if self.peek() == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.fail("unbalanced parenthesis")
            self.pos += 1
            return inner
        m = _NUM.match(self.s, self.pos)
        if m:
            num = Fraction(int(m.group()))
            self.pos = m.end()
            if self.peek() == "/":
                m2 = _NUM.match(self.s, self.pos + 1)
                if not m2:
                    self.fail("bad rational")
                num /= int(m2.group())
                self.pos = m2.end()
            return MultiPoly.constant(self.nv, num)
        m = _NAME.match(self.s, self.pos)
        if m:
            nm = m.group()
            if nm not in self.index:
                self.fail(f"unknown variable {nm!r}")
            self.pos = m.end()
            return MultiPoly.variable(self.nv, self.index[nm])
        self.fail("unparseable input")


def parse_poly(text: str, names) -> MultiPoly:
    """Parse expressions like ``3*x^2*y - 7/2*z**3 + (x+y)^2``."""
    parser = _PolyParser(text, list(names))
    if not parser.s:
        raise ParseError("empty polynomial string")
    result = parser.expr()
    if parser.pos != len(parser.s):
        parser.fail("trailing input")
    return result


def poly_to_string(p: MultiPoly, names) -> str:
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0])))
    parts = []
    for e, c in items:
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


# ---------------------------------------------------------------------------
# graded structure

def degree_of(p: MultiPoly, grading):
    """Common degree class of all terms; raises when terms disagree."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no degree")
    it = iter(p.terms)
    first = next(it)
    d0 = grading.degree(first)
    for e in it:
        d = grading.degree(e)
        if d != d0:
            raise NotHomogeneous("terms of different degree", witness=(first, e))
    return d0


def is_homogeneous(p: MultiPoly, grading) -> bool:
    try:
        degree_of(p, grading)
    except NotHomogeneous:
        return False
    return True


def poly_det(M: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a matrix of polynomials.

    Closed forms for sizes up to 3; larger sizes expand by cofactors along
    the first row, skipping zero entries, which costs on the order of n!
    products.
    """
    n = len(M)
    if n == 0:
        raise ValueError("empty determinant")
    if any(len(row) != n for row in M):
        raise NonSquare("determinant needs a square matrix")
    nv = M[0][0].nvars
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 3:
        a, b, c = M[0]
        d, e, f = M[1]
        g, h, i = M[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = MultiPoly.zero(nv)
    for j in range(n):
        if M[0][j].is_zero():
            continue
        minor = [[M[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = M[0][j] * poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


# ---------------------------------------------------------------------------
# chart moves

def chart_variables(fan, cone_index: int) -> tuple[int, ...]:
    """Ray indices of the cone in ascending order; these become chart coords."""
    return tuple(fan.max_cones[cone_index])


def dehomogenize(p: MultiPoly, fan, cone_index: int) -> MultiPoly:
    """Set the variables outside the cone to 1 and keep the cone variables.

    The result lives in a ring with dim-many variables, ordered by ascending
    ray index inside the cone.
    """
    cone = chart_variables(fan, cone_index)
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


def homogenize_to_degree(q: MultiPoly, fan, cone_index: int, target,
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
