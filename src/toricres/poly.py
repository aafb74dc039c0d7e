"""Sparse multivariate polynomials over the rationals.

A polynomial is the pair (d, num): integer terms ``num``, a dict from
exponent tuples to nonzero ints, over one denominator d > 0, in lowest
terms (gcd(d, *num) = 1).  Equal polynomials have equal pairs.  Every
kernel, over Z or GF(p), reads ``num`` and ``d`` directly and builds its
result through ``MultiPoly.from_integer_terms``; ``terms`` is the Fraction
view, built on each access.  Products and determinants of polynomials both
run on integer terms in this module (``product_sum``; ``poly_det`` over one
denominator).  The representation is deliberately tiny; Groebner machinery
and residue code only need arithmetic, substitution, and exact degree
bookkeeping.  The one chart move is ``dehomogenize``, the restriction to a
cone's chart; nothing here lifts back, so the module holds no degree map.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import (
    DegreeMismatch,
    NonSquare,
    NotHomogeneous,
    ParseError,
    ZeroPolynomial,
)
from .lattice import as_index, as_rational, clear_denominators

Exponent = tuple[int, ...]
_INT, _TUPLE = frozenset({int}), frozenset({tuple})  # the types of a bulk term dict


class MultiPoly:
    """terms, a dict (or None) of exponent -> int or Fraction, in nvars >= 0
    variables.  A plain dict of exact ints keyed by exact tuples of nvars
    exact ints passes four set checks and is copied, zeros dropped; any other
    runs the per-term loop, which canonicalizes or refuses each term and
    adds the terms of keys that read to one exponent."""

    __slots__ = ("nvars", "d", "num")

    def __init__(self, nvars: int, terms=None):
        nvars = as_index(nvars, "nvars must be an int")
        if nvars < 0:
            raise ValueError(f"nvars must be nonnegative, not {nvars}")
        self.nvars = nvars
        rational = False
        if type(terms) is dict and set(map(type, values := terms.values())) == _INT \
                and set(map(type, terms)) == _TUPLE and set(map(len, terms)) == {nvars} \
                and set(map(type, itertools.chain.from_iterable(terms))) <= _INT:
            clean = {e: c for e, c in terms.items() if c} if 0 in values else terms.copy()
        elif terms is not None and not hasattr(terms, "items"):
            raise TypeError(f"terms must be a dict, not {type(terms).__name__}")
        else:
            clean = {}
            for e, c in (terms or {}).items():
                if type(c) is not int:
                    c = as_rational(c)
                    rational = rational or type(c) is not int
                if c:
                    e = tuple(map(operator.index, e))
                    if len(e) != nvars:
                        raise ValueError("exponent length mismatch")
                    if e in clean:  # two keys read to one exponent: add them
                        c += clean[e]
                        if not c:
                            del clean[e]
                            continue
                    clean[e] = c
        # one pass over every exponent: a test per term slows building an H
        if min(itertools.chain.from_iterable(clean), default=0) < 0:
            raise ValueError("negative exponent")
        self.d = 1
        if rational:
            # the lcm of the denominators leaves d and the numerators coprime
            self.d, nums = clear_denominators(clean.values())
            clean = dict(zip(clean, nums))
        self.num = clean

    # -- construction -----------------------------------------------------

    @classmethod
    def from_integer_terms(cls, nvars, d, terms):
        """The polynomial terms/d, for nonzero integer terms keyed by int
        exponent tuples of length nvars and a nonzero int d: brought to
        lowest terms with one gcd.  The dict is kept, not copied or checked,
        when no reduction is needed."""
        g = gcd(d, *terms.values())
        if d < 0:
            g = -g
        p = cls.__new__(cls)
        p.nvars = nvars
        if g == 1:
            p.d, p.num = d, terms
        else:
            p.d, p.num = d // g, {e: c // g for e, c in terms.items()}
        return p

    @classmethod
    def zero(cls, nvars):
        return cls.from_integer_terms(nvars, 1, {})

    @classmethod
    def constant(cls, nvars, c):
        c = Fraction(as_rational(c))
        return cls.from_integer_terms(nvars, c.denominator,
                                      {(0,) * nvars: c.numerator} if c else {})

    @classmethod
    def variable(cls, nvars, i, power=1):
        if not 0 <= i < nvars:
            raise ValueError(f"no variable with index {i}")
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, exponent, coef=1):
        return cls(len(exponent), {tuple(exponent): coef})

    @property
    def terms(self) -> dict:
        """Exponent -> nonzero Fraction coefficient: a view of (d, num),
        built on each access."""
        d = self.d
        return {e: Fraction(c, d) for e, c in self.num.items()}

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic ---------------------------------------------------------

    def _operand(self, other) -> "MultiPoly":
        """other as a polynomial of this ring: a constant for an int or a
        Fraction, TypeError for any other operand that is no MultiPoly, as
        the constructor refuses it, ValueError for another ring's."""
        if not isinstance(other, MultiPoly):
            return MultiPoly.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        return other

    def __add__(self, other):
        other = self._operand(other)
        d = lcm(self.d, other.d)
        s, t = d // self.d, d // other.d
        out = {e: c * s for e, c in self.num.items()}
        for e, c in other.num.items():
            c = out.get(e, 0) + c * t
            if c:
                out[e] = c
            else:
                del out[e]
        return MultiPoly.from_integer_terms(self.nvars, d, out)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return MultiPoly.from_integer_terms(self.nvars, self.d,
                                            {e: -c for e, c in self.num.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = Fraction(as_rational(other))
            if not c:
                return MultiPoly.zero(self.nvars)
            n = c.numerator
            return MultiPoly.from_integer_terms(self.nvars, self.d * c.denominator,
                                                {e: n * v for e, v in self.num.items()})
        other = self._operand(other)
        return MultiPoly.from_integer_terms(self.nvars, self.d * other.d,
                                            product_sum([(self.num, other.num, 1)]))

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
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return isinstance(other, MultiPoly) and self.nvars == other.nvars \
            and self.d == other.d and self.num == other.num

    def __hash__(self):
        # a constant, zero included, equals its value, so it hashes as one
        one = (0,) * self.nvars
        if self.num.keys() <= {one}:
            return hash(Fraction(self.num.get(one, 0), self.d))
        return hash((self.nvars, self.d, frozenset(self.num.items())))

    def __repr__(self):
        names = tuple(f"x{i + 1}" for i in range(self.nvars))
        return f"MultiPoly({poly_to_string(self, names)})"

    # -- queries -------------------------------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable with index {i}")
        out = {}
        for e, c in self.num.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MultiPoly.from_integer_terms(self.nvars, self.d, out)


# ---------------------------------------------------------------------------
# parsing and printing

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUM = re.compile(r"\d+")

# Bounds on a power in a polynomial string, checked before it is expanded.
# The k-th power of a t-term base, d the lcm of its denominators and L the
# sum of its |d*c|, has coefficients of at most k*log2(L*d) bits and at most
# C(t+k-1, k) >= max(t, k+1) terms (t > 1, k > 0), so no large C is built.
# A product of an a-term and a b-term factor is refused when a*b exceeds
# the same term bound, before it is multiplied.
MAX_POWER_TERMS = 10_000
MAX_POWER_BITS = 1_000


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
            elif not (self.peek() == "(" or _NAME.match(self.s, self.pos)
                      or _NUM.match(self.s, self.pos)):
                return p
            q = self.factor()
            if len(p.num) * len(q.num) > MAX_POWER_TERMS:
                self.fail(f"product too large: over {MAX_POWER_TERMS} terms")
            p = p * q

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
            k = int(m.group())
            norm, t = sum(map(abs, base.num.values())), len(base.num)
            if norm and k * ((norm - 1).bit_length() + (base.d - 1).bit_length()) > MAX_POWER_BITS:
                self.fail(f"power too large: coefficients over {MAX_POWER_BITS} bits")
            if t > 1 and k and (max(t, k) > MAX_POWER_TERMS
                                or comb(t + k - 1, k) > MAX_POWER_TERMS):
                self.fail(f"power too large: over {MAX_POWER_TERMS} terms")
            return base ** k
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
                if not int(m2.group()):
                    self.fail("zero denominator")
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
    try:
        result = parser.expr()
    # parentheses nested past the recursion limit, or an integer literal of
    # more digits than int() converts from a string
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"cannot parse {text!r}: {exc}") from exc
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
    """Common degree class of all terms; NotHomogeneous, with the first term
    and the first whose ``grading.degree_values`` differ as the witness."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no degree")
    it = iter(p.num)
    first = next(it)
    d0 = grading.degree(first)
    values = grading.degree_values
    v0 = values(first)
    for e in it:
        if values(e) != v0:
            raise NotHomogeneous("terms of different degree", witness=(first, e))
    return d0


def poly_det(M: list[list[MultiPoly]]) -> MultiPoly:
    """The determinant of a square matrix of polynomials, in integers over
    one denominator.

    Each column is brought to the lcm of its entries' denominators once,
    and the determinant's denominator is the product of those scales.  The
    integer matrix is expanded from the last row up: the minor of the
    bottom k rows on each k-set of columns is found once, from the row
    above's entries and the (k-1)-minors already found, skipping zero
    factors.  That is at most n·2^(n-1) - n products for an n×n matrix.
    """
    n = len(M)
    if n == 0:
        raise ValueError("empty determinant")
    if any(len(row) != n for row in M):
        raise NonSquare("determinant needs a square matrix")
    d, cols = 1, []
    for col in zip(*M):
        scale = lcm(*(p.d for p in col))
        d *= scale
        cols.append([{e: c * (scale // p.d) for e, c in p.num.items()} for p in col])
    minors = {(j,): cols[j][-1] for j in range(n)}
    for r in range(n - 2, -1, -1):
        below = minors
        minors = {js: product_sum((cols[j][r], below[js[:k] + js[k + 1:]], (-1) ** k)
                                  for k, j in enumerate(js))
                  for js in itertools.combinations(range(n), n - r)}
    return MultiPoly.from_integer_terms(M[0][0].nvars, d, minors[tuple(range(n))])


def product_sum(triples) -> dict[Exponent, int]:
    """The integer terms of the sum of s*a*b over the triples (a, b, s) of
    integer term dicts a, b and ints s."""
    add = operator.add
    out = {}
    for a, b, s in triples:
        for e1, c1 in a.items():
            c1 *= s
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# chart restriction

def dehomogenize(p: MultiPoly, fan, cone_index: int) -> MultiPoly:
    """Set the variables outside the cone to 1 and keep the cone variables.

    The result lives in a ring with dim-many variables, ordered by ascending
    ray index inside the cone.  Terms that meet are summed, and sums that
    cancel are dropped.  DegreeMismatch unless p lies in the fan's ring.
    """
    if p.nvars != fan.nvars:
        raise DegreeMismatch("polynomial ring does not match the fan")
    cone = fan.cone(cone_index)
    out = {}
    for e, c in p.num.items():
        ne = tuple([e[i] for i in cone])
        out[ne] = out[ne] + c if ne in out else c
    return MultiPoly.from_integer_terms(len(cone), p.d, {e: c for e, c in out.items() if c})
