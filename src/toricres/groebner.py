"""Groebner bases over the rationals or over GF(p), in integer arithmetic.

A basis is its reducer table: over Q each reducer is primitive over Z with
a positive lead coefficient, its content removed once, when it joins a
table.  Over GF(p), chosen by passing p as ``modulus`` (0 means Q),
reducers are monic with coefficients in [0, p).  One pseudo-division
serves both: it cancels c*x^e against lead coefficient lc by scaling the
pending terms by lc/gcd(c, lc), 1 over GF(p).  A nonzero scale changes no
term's vanishing, so each step picks the reducer that division with
Fractions would.  Fractions appear only where ``GroebnerBasis`` hands its
basis or a remainder to a caller as polynomials.

Buchberger with the Gebauer-Moeller pair update, normal selection strategy,
and full inter-reduction to the reduced basis.  Orders are
graded reverse lexicographic and lexicographic with an explicit variable
precedence, so bases are reproducible across runs.

Division is heap-ordered sparse division (Monagan-Pearce, JSC 2011) against
a reducer table of (lead exponent, lead coefficient, tail terms) triples,
built once per basis rather than once per division.  Buchberger keeps each
basis element only as a reducer in one such table: S-polynomials shift two
tails to the lcm of the leads, each S-pair carries the order key of its lcm
from the moment it is made, and the final inter-reduction divides each
minimal element's tail and keeps its lead.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import ParseError
from .lattice import clear_denominators
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


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(operator.le, a, b))


def first_divisor(table, e: Exponent):
    """The first reducer of ``table`` whose lead exponent divides e, or None."""
    for r in table:
        if all(map(operator.le, r[0], e)):
            return r
    return None


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


Reducer = tuple[Exponent, int, tuple[tuple[Exponent, int], ...]]


def integer_terms(p: MultiPoly) -> tuple[int, dict[Exponent, int]]:
    """d, the lcm of the denominators of p, and the integer terms of d*p."""
    d, nums = clear_denominators(p.terms.values())
    return d, dict(zip(p.terms, nums))


def integer_reducer(terms: dict, order: MonomialOrder, modulus: int = 0) -> Reducer:
    """(lead exponent, lead coefficient, tail terms) of nonzero integer
    terms: primitive with lc > 0 over Q, monic over GF(p)."""
    le = max(terms, key=order.key)
    lc = terms[le]
    if modulus:
        inv = pow(lc, -1, modulus)
        return le, 1, tuple((e, c * inv % modulus) for e, c in terms.items() if e != le)
    g = gcd(*terms.values()) if lc > 0 else -gcd(*terms.values())
    return le, lc // g, tuple((e, c // g) for e, c in terms.items() if e != le)


def divide(terms: dict, table, order: MonomialOrder, modulus: int = 0) -> tuple[int, dict]:
    """Pseudo-division of integer terms by a reducer table, in table order,
    over Q or, with a prime ``modulus``, over GF(modulus): ``(scale, r)``,
    r the integer terms of scale > 0 times the remainder.

    Pending terms live in a dict; a min-heap of ``order.heap_key`` holds
    each pending exponent once, so the greatest term is popped without
    scanning, and a term that cancels stays as zero until popped.  Every
    term a step adds is below the term it reduces.  A term c*x^e is reduced
    by the first reducer whose lead divides it: the pending terms are
    multiplied by a = lc/gcd(c, lc) (1 over GF(p), where a popped
    coefficient is reduced into [0, p)), and c/gcd(c, lc) times the shifted
    tail is subtracted.  A remainder term keeps the scale it was emitted
    at until the end.
    """
    hkey = order.heap_key
    add, sub = operator.add, operator.sub
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(terms)
    heap = [(hkey(e), e) for e in work]
    heapq.heapify(heap)
    rem = []
    scale = 1
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e)
        if modulus:
            c %= modulus
        if not c:
            continue
        hit = first_divisor(table, e)
        if hit is None:
            rem.append((e, c, scale))
            continue
        le, lc, tail = hit
        g = gcd(c, lc)
        if g != lc:
            a = lc // g
            scale *= a
            work = {k: v * a for k, v in work.items()}
        c //= g
        shift = tuple(map(sub, e, le))
        for ge, gc in tail:
            ne = tuple(map(add, ge, shift))
            if ne in work:
                work[ne] -= c * gc
            else:
                work[ne] = -c * gc
                heappush(heap, (hkey(ne), ne))
    return scale, {e: c * (scale // s) for e, c, s in rem}


def s_polynomial(f: Reducer, g: Reducer) -> dict:
    """Integer terms of (lc_g/h)*x^(L-lead_f)*f - (lc_f/h)*x^(L-lead_g)*g,
    L the lcm of the leads and h = gcd(lc_f, lc_g): the shifted tails, as
    the leads cancel."""
    fe, fc, ftail = f
    ge, gc, gtail = g
    h = gcd(fc, gc)
    a, b = gc // h, fc // h
    L = _lcm(fe, ge)
    sf, sg = _sub_exp(L, fe), _sub_exp(L, ge)
    add = operator.add
    terms = {tuple(map(add, e, sf)): a * c for e, c in ftail}
    for e, c in gtail:
        ne = tuple(map(add, e, sg))
        s = terms.get(ne, 0) - b * c
        if s:
            terms[ne] = s
        else:
            del terms[ne]
    return terms


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


def buchberger(gens, order: MonomialOrder, modulus: int = 0) -> list[Reducer]:
    """Reduced Groebner basis of the ideal generated by ``gens``, integer
    term dicts as ``divide`` reads them, over Q or, with a prime
    ``modulus``, over GF(modulus): its reducer table, ascending by lead,
    primitive with lc > 0 over Q and monic over GF(modulus).

    Each element is kept only as an integer reducer in one table: the table
    is the divisor list, the source of every S-polynomial and the list of
    leads the pair update reads.  Returns ``[((0,)*n, 1, ())]`` as soon as
    a remainder is a nonzero constant: that is the reduced basis of the
    unit ideal.
    """
    G = [g for g in gens if g]
    if not G:
        return []
    table: list[Reducer] = []
    pairs: list[tuple] = []

    def candidates():
        yield from sorted(G, key=lambda q: order.key(max(q, key=order.key)))
        while pairs:
            best = min(pairs, key=operator.itemgetter(0))
            pairs.remove(best)
            yield s_polynomial(table[best[2]], table[best[3]])

    for q in candidates():
        r = divide(q, table, order, modulus)[1]
        if not r:
            continue
        if not any(map(any, r)):
            return [((0,) * order.nvars, 1, ())]
        g = integer_reducer(r, order, modulus)
        pairs = _gm_update(table, pairs, g[0], order)
        table.append(g)
    # minimalize: drop elements whose lead is divisible by another lead
    minimal = [g for i, g in enumerate(table)
               if not any(k != i and _divides(h[0], g[0]) and (h[0] != g[0] or k < i)
                          for k, h in enumerate(table))]
    minimal.sort(key=lambda g: order.key(g[0]))
    # reduce tails; no other minimal lead divides a lead, which keeps its
    # coefficient times the scale of the division
    reduced = []
    for g in minimal:
        le, lc, tail = g
        scale, rem = divide(dict(tail), [h for h in minimal if h is not g], order, modulus)
        reduced.append(integer_reducer({le: scale * lc, **rem}, order, modulus))
    return reduced


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis over Q as its reducer table: primitive
    integer reducers, ascending by lead, as ``buchberger`` returns them."""

    reducers: tuple[Reducer, ...]
    order: MonomialOrder

    @classmethod
    def of(cls, gens, order):
        """The basis of the ideal of the MultiPolys ``gens``."""
        return cls(tuple(buchberger([integer_terms(g)[1] for g in gens], order)), order)

    @cached_property
    def generators(self) -> tuple[MultiPoly, ...]:
        """The reduced monic basis as Fraction polynomials, built on first
        use; the package itself reads only the reducers."""
        return tuple(MultiPoly.from_integer_terms(self.order.nvars, lc, {le: lc, **dict(tail)})
                     for le, lc, tail in self.reducers)

    def reduce(self, p: MultiPoly) -> MultiPoly:
        """Remainder of p: its denominators cleared once, by d, the integer
        remainder r comes back as r/(scale*d)."""
        d, terms = integer_terms(p)
        scale, rem = divide(terms, self.reducers, self.order)
        return MultiPoly.from_integer_terms(p.nvars, scale * d, rem)

    @property
    def leading_exponents(self) -> tuple[Exponent, ...]:
        return tuple(r[0] for r in self.reducers)

    def is_unit_ideal(self) -> bool:
        return any(not any(e) for e in self.leading_exponents)


def _pure_powers(gb: GroebnerBasis, i: int) -> list[int]:
    """The exponents of the leads that are pure powers of x_i."""
    return [e[i] for e in gb.leading_exponents if e[i] and sum(e) == e[i]]


def quotient_is_finite(gb: GroebnerBasis) -> bool:
    """Finite-dimensional quotient iff every variable has a pure-power lead."""
    return gb.is_unit_ideal() or all(_pure_powers(gb, i) for i in range(gb.order.nvars))


def standard_monomials(gb: GroebnerBasis) -> list[Exponent]:
    """All monomials outside the leading ideal, in ascending tuple order;
    requires a finite quotient."""
    if not quotient_is_finite(gb):
        raise ValueError("quotient is not finite-dimensional")
    if gb.is_unit_ideal():
        return []
    box = [range(min(_pure_powers(gb, i))) for i in range(gb.order.nvars)]
    return [m for m in itertools.product(*box) if first_divisor(gb.reducers, m) is None]
