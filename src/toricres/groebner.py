"""Groebner bases over the rationals or over GF(p).

Over Q coefficients are ``Fraction``s.  Over GF(p), chosen by passing p as
``modulus`` (0 means Q), they are plain ints, reduced into [0, p) when a
division pops their term, so one algorithm serves both fields.

Buchberger with the Gebauer-Moeller pair update, normal selection strategy,
and full inter-reduction to the unique reduced monic basis.  Orders are
graded reverse lexicographic and lexicographic with an explicit variable
precedence, so bases are reproducible across runs.

Division is heap-ordered sparse division (Monagan-Pearce, JSC 2011) against
a reducer table of (lead exponent, lead coefficient, tail terms) triples,
built once per basis rather than once per division.  Buchberger keeps each
basis element only as a monic reducer ``(lead, 1, tail)`` in one such
table: S-polynomials shift two tails to the lcm of the leads, each S-pair
carries the order key of its lcm from the moment it is made, and the final
inter-reduction divides each minimal element's tail and keeps its lead.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ParseError
from .poly import Exponent, MultiPoly


@dataclass(frozen=True)
class MonomialOrder:
    """kind is "grevlex" or "lex"; precedence lists variables from greatest."""

    kind: str
    precedence: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if tuple(sorted(self.precedence)) != tuple(range(len(self.precedence))):
            raise ValueError("precedence must be a permutation of the variables")

    @property
    def nvars(self) -> int:
        return len(self.precedence)

    def key(self, e: Exponent):
        if self.kind == "lex":
            return tuple(e[i] for i in self.precedence)
        return (sum(e), tuple(-e[i] for i in reversed(self.precedence)))

    def heap_key(self, e: Exponent):
        """Key that ascends as the order descends: a min-heap of heap keys
        pops the greatest monomial first."""
        if self.kind == "lex":
            return tuple([-e[i] for i in self.precedence])
        return (-sum(e), *[e[i] for i in reversed(self.precedence)])

    def greater(self, a: Exponent, b: Exponent) -> bool:
        return self.key(a) > self.key(b)


def grevlex(nvars: int) -> MonomialOrder:
    return MonomialOrder("grevlex", tuple(range(nvars)))


def lex(nvars: int) -> MonomialOrder:
    return MonomialOrder("lex", tuple(range(nvars)))


def parse_order(text: str, names) -> MonomialOrder:
    """Parse strings like ``grevlex:x>y>z`` or ``lex:z>y>x``."""
    if ":" not in text:
        raise ParseError(f"order {text!r} lacks a precedence list")
    kind, _, chain = text.partition(":")
    kind = kind.strip()
    if kind not in ("grevlex", "lex"):
        raise ParseError(f"unknown order kind {kind!r}")
    listed = [t.strip() for t in chain.split(">")]
    index = {nm: i for i, nm in enumerate(names)}
    if sorted(listed) != sorted(index):
        raise ParseError(f"precedence {chain!r} must list every variable once")
    return MonomialOrder(kind, tuple(index[nm] for nm in listed))


def leading_term(p: MultiPoly, order: MonomialOrder):
    if p.is_zero():
        raise ValueError("leading term of zero")
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(operator.le, a, b))


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


Reducer = tuple[Exponent, Fraction, tuple[tuple[Exponent, Fraction], ...]]


def reducer(g: MultiPoly, order: MonomialOrder) -> Reducer:
    """(lead exponent, lead coefficient, tail terms) of a nonzero polynomial."""
    le, lc = leading_term(g, order)
    return le, lc, tuple((e, c) for e, c in g.terms.items() if e != le)


def reducer_table(basis, order: MonomialOrder) -> list[Reducer]:
    """Reducers of the nonzero elements of basis, in basis order."""
    return [reducer(g, order) for g in basis if not g.is_zero()]


def divide(p: MultiPoly, table, order: MonomialOrder, modulus: int = 0) -> MultiPoly:
    """Remainder of full division of p by a reducer table, in table order,
    over Q or, with a prime ``modulus``, over GF(modulus).

    Pending terms live in a dict from exponent to coefficient; a min-heap of
    ``order.heap_key`` holds each pending exponent once, so the greatest
    term is popped without scanning.  A term that cancels stays in the dict
    as zero and is skipped when popped.  Every term a reduction step adds is
    below the term it reduces, so no exponent returns once popped.  Each
    term is reduced by the first table entry whose lead divides it.
    """
    hkey = order.heap_key
    le_, add, sub = operator.le, operator.add, operator.sub
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(p.terms)
    heap = [(hkey(e), e) for e in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e)
        if modulus:
            c %= modulus
        if not c:
            continue
        for le, lc, tail in table:
            if all(map(le_, le, e)):
                break
        else:
            rem[e] = c
            continue
        shift = tuple(map(sub, e, le))
        factor = c if lc == 1 else c * pow(lc, -1, modulus) if modulus else c / lc
        for ge, gc in tail:
            ne = tuple(map(add, ge, shift))
            if ne in work:
                work[ne] -= factor * gc
            else:
                work[ne] = -factor * gc
                heappush(heap, (hkey(ne), ne))
    return MultiPoly.from_terms(p.nvars, rem)


def normal_form(p: MultiPoly, basis, order: MonomialOrder) -> MultiPoly:
    """Remainder of full division by the (ordered) list of basis elements."""
    return divide(p, reducer_table(basis, order), order)


def s_polynomial(f: Reducer, g: Reducer, nvars: int) -> MultiPoly:
    """S-polynomial of two monic reducers: both tails shifted to the lcm of
    the leads, g's subtracted from f's.  The leads cancel, so they never
    enter the sum.  Over GF(p) both tails are reduced into [0, p), so a
    difference is zero exactly when it is zero mod p."""
    fe, _, ftail = f
    ge, _, gtail = g
    L = _lcm(fe, ge)
    sf, sg = _sub_exp(L, fe), _sub_exp(L, ge)
    add = operator.add
    terms = {tuple(map(add, e, sf)): c for e, c in ftail}
    for e, c in gtail:
        ne = tuple(map(add, e, sg))
        s = terms.get(ne, 0) - c
        if s:
            terms[ne] = s
        else:
            del terms[ne]
    return MultiPoly.from_terms(nvars, terms)


def _monic(r: MultiPoly, order: MonomialOrder, modulus: int) -> Reducer:
    le, lc, tail = reducer(r, order)
    if modulus:
        inv = pow(lc, -1, modulus)
        return le, 1, tuple((e, c * inv % modulus) for e, c in tail)
    return le, Fraction(1), tuple((e, c / lc) for e, c in tail)


def _gm_update(table, pairs, new_lead, order: MonomialOrder):
    """Gebauer-Moeller pair list update for a new element with lead
    new_lead, to be appended to the reducer table.

    A pair is ``(order key of lcm, lcm, i, j)``, keyed once when it is made.
    Coprime pairs survive the divisibility sieve so they can knock out other
    candidates, then are dropped at the end; old pairs whose lcm the new lead
    properly refines are discarded.
    """
    t = len(table)
    lt = new_lead
    lcms = [_lcm(le, lt) for le, _, _ in table]
    coprime = [L == tuple(map(operator.add, le, lt))
               for (le, _, _), L in zip(table, lcms)]
    C = list(range(t))
    D = []
    while C:
        i = C.pop(0)
        li = lcms[i]
        if coprime[i] or not any(_divides(lcms[j], li) for j in C + D):
            D.append(i)
    kept_old = [p for p in pairs
                if not (_divides(lt, p[1]) and lcms[p[2]] != p[1] and lcms[p[3]] != p[1])]
    return kept_old + [(order.key(lcms[i]), lcms[i], i, t) for i in D if not coprime[i]]


def buchberger(gens, order: MonomialOrder, modulus: int = 0) -> list[MultiPoly]:
    """Reduced monic Groebner basis of the ideal generated by gens, over Q
    or, with a prime ``modulus``, over GF(modulus); there the coefficients
    of gens must be ints, and those of the basis are ints in [0, modulus).

    Each element is kept only as a monic reducer in one table: the table
    is the divisor list, the source of every S-polynomial and the list of
    leads the pair update reads.
    Returns ``[1]`` as soon as a remainder is a nonzero constant: that is
    the reduced basis of the unit ideal.
    """
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return []
    nv = G[0].nvars
    table: list[Reducer] = []
    pairs: list[tuple] = []

    def candidates():
        yield from sorted(G, key=lambda q: order.key(leading_term(q, order)[0]))
        while pairs:
            best = min(pairs, key=operator.itemgetter(0))
            pairs.remove(best)
            yield s_polynomial(table[best[2]], table[best[3]], nv)

    for q in candidates():
        r = divide(q, table, order, modulus)
        if r.is_zero():
            continue
        if r.is_constant():
            return [MultiPoly.constant(nv, 1)]
        g = _monic(r, order, modulus)
        pairs = _gm_update(table, pairs, g[0], order)
        table.append(g)
    # minimalize: drop elements whose lead is divisible by another lead
    minimal = [g for i, g in enumerate(table)
               if not any(k != i and _divides(h[0], g[0]) and (h[0] != g[0] or k < i)
                          for k, h in enumerate(table))]
    minimal.sort(key=lambda g: order.key(g[0]))
    # reduce tails; no other minimal lead divides a lead, which stays monic
    reduced = []
    for g in minimal:
        le, one, tail = g
        rem = divide(MultiPoly.from_terms(nv, dict(tail)),
                     [h for h in minimal if h is not g], order, modulus)
        reduced.append(MultiPoly.from_terms(nv, {le: one, **rem.terms}))
    return reduced


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple[MultiPoly, ...]
    order: MonomialOrder

    @classmethod
    def of(cls, gens, order):
        return cls(tuple(buchberger(gens, order)), order)

    @cached_property
    def reducers(self) -> tuple[Reducer, ...]:
        """Reducer table of the generators, built on first use."""
        return tuple(reducer_table(self.generators, self.order))

    def reduce(self, p: MultiPoly) -> MultiPoly:
        return divide(p, self.reducers, self.order)

    def contains(self, p: MultiPoly) -> bool:
        return self.reduce(p).is_zero()

    @property
    def leading_exponents(self) -> tuple[Exponent, ...]:
        return tuple(r[0] for r in self.reducers)

    def is_unit_ideal(self) -> bool:
        return any(not any(e) for e in self.leading_exponents)


def ideal_member(p: MultiPoly, gens, order=None) -> bool:
    order = order or grevlex(p.nvars)
    return GroebnerBasis.of(gens, order).contains(p)


def quotient_is_finite(gb: GroebnerBasis) -> bool:
    """Finite-dimensional quotient iff every variable has a pure-power lead."""
    nv = gb.order.nvars
    leads = gb.leading_exponents
    if any(not any(e) for e in leads):
        return True
    for i in range(nv):
        ok = False
        for e in leads:
            if e[i] and all(e[j] == 0 for j in range(nv) if j != i):
                ok = True
                break
        if not ok:
            return False
    return True


def standard_monomials(gb: GroebnerBasis) -> list[Exponent]:
    """All monomials outside the leading ideal; requires a finite quotient."""
    nv = gb.order.nvars
    leads = gb.leading_exponents
    if not quotient_is_finite(gb):
        raise ValueError("quotient is not finite-dimensional")
    if gb.is_unit_ideal():
        return []
    caps = []
    for i in range(nv):
        c = min(e[i] for e in leads
                if e[i] and all(e[j] == 0 for j in range(nv) if j != i))
        caps.append(c)
    out = []
    stack = [(0, tuple())]
    while stack:
        i, pref = stack.pop()
        if i == nv:
            if not any(_divides(le, pref) for le in leads):
                out.append(pref)
            continue
        for k in range(caps[i] - 1, -1, -1):
            stack.append((i + 1, pref + (k,)))
    out.sort()
    return out
