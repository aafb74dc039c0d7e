"""Groebner bases over the rationals or over GF(p), in integer arithmetic,
on packed monomials.

Inside the kernel a monomial is one int (Monagan-Pearce, CASC 2007):
``Packing`` gives each variable a field of ``WIDTH`` = 32 bits topped by a
guard bit, 0 in every valid monomial, so a field holds 0 to M = 2^31 - 1.
Lex puts e_i in its field, the first variable of the precedence highest;
grevlex puts M - e_i, the last variable highest, and the total degree
above every field.  So integer order is the monomial order, a product of
monomials is their sum less the packing of 1 (0 under lex), a quotient is
a difference, and a | e is one guard-bit test.  Every exponent a shift
makes is tested for a guard bit, which one above M sets, and ``pack``
refuses an exponent above M; either raises ``ExponentTooLarge``, and the
call returns nothing.  Lex division can raise exponents above all of its
inputs', so the refusal can come from inside a call.  Exponent tuples
appear only where a caller hands monomials in or reads them out.

A basis is its reducer table: over Q each reducer is primitive over Z with
a positive lead coefficient, its content removed once, when it joins a
table.  Over GF(p), chosen by passing p as ``modulus`` (0 means Q),
reducers are monic with coefficients in [0, p).  One pseudo-division
serves both: it cancels c*x^e against lead coefficient lc by scaling the
pending terms by lc/gcd(c, lc), 1 over GF(p).  A nonzero scale changes no
term's vanishing, so each step picks the reducer that division with
Fractions would.  ``GroebnerBasis`` hands its basis and every remainder
to a caller as polynomials, integer terms over one denominator.

Buchberger with the Gebauer-Moeller pair update, normal selection strategy,
and full inter-reduction to the reduced basis.  Orders are
graded reverse lexicographic and lexicographic with an explicit variable
precedence, so bases are reproducible across runs.  Division is
heap-ordered sparse division (Monagan-Pearce, JSC 2011) against a reducer
table of (lead, lead coefficient, descending tail) triples, built once per
basis.  Buchberger keeps each element only as a reducer in one such table:
S-polynomials shift two tails to the lcm of the leads, the pairs wait in a
heap keyed by their lcm, and the final inter-reduction divides each
minimal element's tail by the lower leads and keeps its lead.  The pair
update is one pass over the new lcms in ascending order, each tested
against the minimal lcms found before it.

Forms under grevlex, at least as many as the variables, skip the S-pairs
of a degree once the leads of the table fill it as far as the Hilbert
function allows (Traverso, JSC 22, 1996); ``packed_basis`` gives the proof.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from functools import cache, cached_property
from math import comb, gcd

from .errors import DegreeMismatch, ExponentTooLarge, ParseError
from .poly import Exponent, MultiPoly
from .values import Value


class MonomialOrder(Value):
    """kind is "grevlex" or "lex"; precedence lists variables from greatest.
    Hashed by ``packing_of``'s cache for every basis, so its ``__init__``,
    ``__eq__`` and ``__hash__`` name the fields directly."""

    __slots__ = _fields = ("kind", "precedence")

    def __init__(self, kind: str, precedence: tuple[int, ...]):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        precedence = tuple(map(operator.index, precedence))
        if tuple(sorted(precedence)) != tuple(range(len(precedence))):
            raise ValueError("precedence must be a permutation of the variables")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "precedence", precedence)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.precedence) == (other.kind, other.precedence)

    def __hash__(self):
        return hash((self.kind, self.precedence))

    @property
    def nvars(self) -> int:
        return len(self.precedence)

    def key(self, e: Exponent):
        if self.kind == "lex":
            return tuple(e[i] for i in self.precedence)
        return (sum(e), tuple(-e[i] for i in reversed(self.precedence)))


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


WIDTH = 32  # bits per field of a packed monomial, its guard bit included
MAX = (1 << (WIDTH - 1)) - 1  # M, the largest exponent a field holds
MASK = (1 << WIDTH) - 1
TOO_LARGE = f"an exponent is above {MAX}, the largest a packed field holds"


class Packing:
    """The monomials of ``order`` as ints, one field of ``WIDTH`` bits per
    variable, laid out as the module docstring says."""

    def __init__(self, order: MonomialOrder):
        n, lex_ = order.nvars, order.kind == "lex"
        self.order, self.lex = order, lex_
        rank = {v: j for j, v in enumerate(order.precedence)}
        self.shifts = tuple(WIDTH * (n - 1 - rank[i] if lex_ else rank[i]) for i in range(n))
        self.guard = sum(1 << (s + WIDTH - 1) for s in self.shifts)
        self.one = 0 if lex_ else sum(MAX << s for s in self.shifts)
        self.top = n * WIDTH  # the shift of grevlex's degree
        self.weights = tuple(1 << s if lex_ else (1 << self.top) - (1 << s) for s in self.shifts)
        self.fields = (1 << self.top) - 1
        self.pairs = sum(MASK << s for s in range(0, self.top, 2 * WIDTH))

    def __repr__(self):
        return f"Packing({self.order!r})"

    def pack(self, e: Exponent) -> int:
        """x^e packed; DegreeMismatch when e has another length than the
        order, ValueError when an exponent is negative and ExponentTooLarge
        when one is above M."""
        if len(e) != len(self.weights):
            raise DegreeMismatch("exponents do not match the order's variables")
        if min(e) < 0:
            raise ValueError(f"negative exponent in {e}")
        if max(e) > MAX:
            raise ExponentTooLarge(TOO_LARGE)
        return self.one + sum(map(operator.mul, e, self.weights))

    def unpack(self, x: int) -> Exponent:
        x ^= self.one
        return tuple([(x >> s) & MASK for s in self.shifts])

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(x): c for x, c in terms.items()}

    def check(self, exps):
        """ExponentTooLarge unless every packed monomial of ``exps`` is valid."""
        if any(x & self.guard for x in exps):
            raise ExponentTooLarge(TOO_LARGE)

    def lcms(self, leads, b: int) -> list[int]:
        """The lcm of each packed monomial of ``leads`` with b, in one loop:
        fieldwise the larger exponent.  A guard-bit comparison marks the
        fields where a's is at least b's (a's M - e_i, under grevlex).  The
        grevlex degree adds the e_i two to a slot of 2*WIDTH bits; the sum
        and each slot are below 2^(2*WIDTH) - 1, so mod it they agree."""
        G, w, lex_, one, fields, pairs = (self.guard, WIDTH, self.lex, self.one,
                                          self.fields, self.pairs)
        out = []
        for a in leads:
            d = ((a | G) - b) & G
            m = d - (d >> (w - 1))  # the value bits of the marked fields
            if lex_:
                out.append(b ^ ((a ^ b) & m))
            else:
                f = (a ^ ((a ^ b) & m)) & fields
                e = f ^ one  # the fields e_i
                degree = ((e & pairs) + ((e >> w) & pairs)) % ((1 << 2 * w) - 1)
                out.append((degree << self.top) | f)
        return out

    def lcm(self, a: int, b: int) -> int:
        """The lcm of x^a and x^b: ``lcms`` on the one lead a."""
        return self.lcms((a,), b)[0]

    def first_divisor(self, table, x: int):
        """The first reducer of ``table`` whose lead divides x, or None: the
        one divisibility test.  x^a divides x^b when b's fields are at least
        a's (at most, under grevlex): each difference keeps its guard bit."""
        G = self.guard
        if self.lex:
            t = x | G
            for r in table:
                if (t - r[0]) & G == G:
                    return r
        else:
            t = G - x
            for r in table:
                if (r[0] + t) & G == G:
                    return r
        return None


@cache
def packing_of(order: MonomialOrder) -> Packing:
    """The one ``Packing`` of ``order``: a packing depends on its order
    alone, so it is built once per order and shared."""
    return Packing(order)


# (lead, lead coefficient, tail terms): packed monomials in the kernel,
# exponent tuples in a table handed to a caller
Reducer = tuple[int | Exponent, int, tuple[tuple[int | Exponent, int], ...]]


def integer_reducer(terms: dict, modulus: int = 0) -> Reducer:
    """(lead, lead coefficient, tail terms) of nonzero integer terms listed
    in descending order, as ``divide`` returns them: primitive with lc > 0
    over Q, monic over GF(p)."""
    items = iter(terms.items())
    le, lc = next(items)
    if modulus:
        inv = pow(lc, -1, modulus)
        return le, 1, tuple((x, c * inv % modulus) for x, c in items)
    g = gcd(*terms.values()) if lc > 0 else -gcd(*terms.values())
    return le, lc // g, tuple((x, c // g) for x, c in items)


def divide(terms: dict, table, packing: Packing, modulus: int = 0) -> tuple[int, dict]:
    """Pseudo-division of packed integer terms by a packed reducer table, in
    table order, over Q or, with a prime ``modulus``, over GF(modulus):
    ``(scale, r)``, r the integer terms of scale > 0 times the remainder,
    in descending order.

    Pending terms live in a dict; a min-heap of negated monomials holds
    each pending monomial once, so the greatest term is popped without
    scanning, and a term that cancels stays as zero until popped.  Every
    term a step adds is below the term it reduces.  A term c*x^e is reduced
    by the first reducer whose lead divides it: the pending terms are
    multiplied by a = lc/gcd(c, lc) (1 over GF(p), where a popped
    coefficient is reduced into [0, p)), and c/gcd(c, lc) times the tail,
    shifted by adding e - lead, is subtracted.  A shifted monomial is tested
    for a guard bit when it joins the pending terms, so all of them are
    valid.  A remainder term keeps its scale until the end.
    """
    first, guard = packing.first_divisor, packing.guard
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(terms)
    heap = [-x for x in work]
    heapq.heapify(heap)
    rem = []
    scale = 1
    while heap:
        x = -heappop(heap)
        c = work.pop(x)
        if modulus:
            c %= modulus
        if not c:
            continue
        hit = first(table, x)
        if hit is None:
            rem.append((x, c, scale))
            continue
        le, lc, tail = hit
        g = gcd(c, lc)
        if g != lc:
            a = lc // g
            scale *= a
            work = {k: v * a for k, v in work.items()}
        c //= g
        shift = x - le
        for y, gc in tail:
            y += shift
            if y in work:
                work[y] -= c * gc
            else:
                if y & guard:
                    raise ExponentTooLarge(TOO_LARGE)
                work[y] = -c * gc
                heappush(heap, -y)
    return scale, {x: c * (scale // s) for x, c, s in rem}


def s_polynomial(f: Reducer, g: Reducer, packing: Packing) -> dict:
    """Packed integer terms of (lc_g/h)*x^(L-lead_f)*f - (lc_f/h)*x^(L-lead_g)*g,
    L the lcm of the leads and h = gcd(lc_f, lc_g): the shifted tails, as
    the leads cancel, tested for guard bits once summed (packing is
    one-to-one on them, so two that meet are one monomial)."""
    fe, fc, ftail = f
    ge, gc, gtail = g
    h = gcd(fc, gc)
    a, b = gc // h, fc // h
    L = packing.lcm(fe, ge)
    sf, sg = L - fe, L - ge
    terms = {x + sf: a * c for x, c in ftail}
    for x, c in gtail:
        x += sg
        s = terms.get(x, 0) - b * c
        if s:
            terms[x] = s
        else:
            del terms[x]
    packing.check(terms)
    return terms


def _gm_update(table, pairs, new_lead: int, packing: Packing, serial):
    """Gebauer-Moeller pair update for a new element with lead new_lead, to
    be appended to the reducer table: the new heap of pairs, each
    ``(lcm, serial number, i, j)``, so the least lcm pops first and, among
    equal ones, the pair made first.  Of the candidates (i, new), one pass
    in ascending lcm keeps, for each lcm minimal under divisibility, its
    last candidate, and none from an equal-lcm group that holds a coprime
    pair; a divisor precedes its multiple in any monomial order, so each
    lcm is tested against the minimal lcms found so far alone.  Old pairs
    whose lcm the new lead properly refines are discarded.  The lcms are
    one ``Packing.lcms`` call, and the groups a dict of last indices.
    """
    t = len(table)
    lcms = packing.lcms([r[0] for r in table], new_lead)
    product = new_lead - packing.one
    last = dict(zip(lcms, range(t)))  # a later index overwrites an earlier one
    coprime = {L for r, L in zip(table, lcms) if L == r[0] + product}
    first = packing.first_divisor
    minimal, kept = [], []
    for L in sorted(last):
        if first(minimal, L) is None:
            minimal.append((L,))
            if L not in coprime:
                kept.append(last[L])
    kept.sort()
    new = [p for p in pairs
           if not (first(((new_lead,),), p[0]) and lcms[p[2]] != p[0] and lcms[p[3]] != p[0])]
    new += [(lcms[i], next(serial), i, t) for i in kept]
    heapq.heapify(new)
    return new


def _lead_count(gens, packing: Packing):
    """The count behind ``packed_basis``'s skip, or None unless the packed
    ``gens`` are forms (every term of one total degree) under grevlex, at
    least as many as the m variables.

    Otherwise ``filled(L, table, budget)``, called as each pair pops:
    whether the leads of ``table`` cover dim S_D - h_D monomials of the
    degree D of the lcm L.  h_D is read from the sparse numerator
    prod(1 - t^d_i) as the sum of c_k * C(D - k + m - 1, m - 1), cut to 0
    from the first degree where that sum is not positive.  The count holds
    LT_D, the monomials of degree D that a lead divides, as packed ints:
    LT_(D+1) is x_i * LT_D for every i (``weights[i]`` added) with the
    leads of degree D + 1.  A step up one degree finishes the one below;
    the first that finishes short switches the count off for good.  A
    count that meets a target cut to 0 holds every monomial of its degree
    and of every later one.  A step costs 1 + m * |LT_D| set operations,
    and the count switches itself off before they pass ``budget``.
    """
    m, top = packing.order.nvars, packing.top
    degrees = [{x >> top for x in g} for g in gens]
    if packing.lex or not 0 < m <= len(gens) or any(len(ds) != 1 for ds in degrees):
        return None
    numerator = {0: 1}
    for (d,) in degrees:
        for k, c in list(numerator.items()):
            numerator[k + d] = numerator.get(k + d, 0) - c
    weights = packing.weights
    positive = True  # no coefficient of the series so far is cut

    def goal(D):
        nonlocal positive
        a = sum(c * comb(D - k + m - 1, m - 1) for k, c in numerator.items() if k <= D)
        positive = positive and a > 0
        return comb(D + m - 1, m - 1) - (a if positive else 0)

    degree = min(d for (d,) in degrees)
    target = goal(degree)
    leads, later = set(), {}
    seen = ops = 0
    on = True

    def filled(L, table, budget):
        nonlocal degree, target, leads, seen, ops, on
        if not on:
            return False
        for i in range(seen, len(table)):
            later.setdefault(table[i][0] >> top, []).append(table[i][0])
        seen = len(table)
        leads.update(later.pop(degree, ()))
        while degree < L >> top:
            if len(leads) < target:  # the degree finished below its target
                on = False
                return False
            if not positive:  # LT_degree is every monomial of its degree
                return True
            cost = 1 + m * len(leads)
            if ops + cost > budget:
                on = False
                return False
            ops += cost
            degree += 1
            leads = {x + w for x in leads for w in weights}
            leads.update(later.pop(degree, ()))
            target = goal(degree)
        return len(leads) == target

    return filled


def packed_basis(gens, order: MonomialOrder, modulus: int = 0) -> list[Reducer]:
    """Reduced Groebner basis of the ideal generated by ``gens``, integer
    term dicts keyed by exponent tuples, over Q or, with a prime
    ``modulus``, over GF(modulus): its reducer table on
    ``packing_of(order)``, ascending by lead, tails descending, primitive
    with lc > 0 over Q and monic over GF(modulus).  Coefficients need not
    be reduced mod the modulus: ``divide`` reduces each one it pops, so a
    term that is 0 there cancels.  Returns ``[(packing_of(order).one, 1,
    ())]`` once a remainder is a nonzero constant: the reduced basis of the
    unit ideal.  One loop runs the generators, by ascending lead, then the
    pairs as they pop.  The final pass divides a tail only when a lower
    lead divides a term of it: else ``divide`` and ``integer_reducer``
    would hand back the element as it is, primitive with lc > 0 or monic.

    Forms under grevlex, at least as many as the m variables, have S-pairs
    that are forms, popped in nondecreasing degree, and the Froeberg series
    h = [prod(1 - t^d_i) / (1 - t)^m]_+ is a polynomial.  Once the leads of
    the table cover dim S_D - h_D monomials of degree D (``_lead_count``),
    the rest of that degree's pairs pop without reduction; generators are
    never skipped.  The table is the one built without skipping, over Q
    and GF(p) alike, as the reduced basis is unique and no skipped pair
    has a nonzero remainder:

    - The count never exceeds dim I_D: each monomial it holds is the lead
      of an element of I.
    - Let D* be the first degree where H(S/I) departs from h.  Below D*,
      dim I_D = dim S_D - h_D, so a count that reaches it holds every lead
      of I in degree D.  A finished degree's count is dim I_D, as the table
      is a basis up to it: below D* it meets the target.
    - At D*, Froeberg's lexicographic inequality (Math. Scand. 56, 1985),
      H(S/I) >= h, which rests on exact sequences over any field, makes
      H(S/I)_D* larger.  So the count cannot reach the target there, and
      D* is the first degree that finishes short, where the count stops.
      A form that vanishes mod p multiplies h by one more 1 - t^d, which
      lowers it lexicographically, so the inequality still holds.

    A count that holds every monomial of its degree skips soundly
    whatever h is.
    """
    packing = packing_of(order)
    gens = [packing.pack_terms(g) for g in gens if g]
    filled = _lead_count(gens, packing)
    first = packing.first_divisor
    table: list[Reducer] = []
    pairs: list[tuple] = []
    serial = itertools.count()
    # the count's budget, a floor on the kernel's work so far: packing took
    # one step per exponent of the input, and divide pops every term handed
    # to it and tests each remainder term against every reducer
    work = order.nvars * sum(map(len, gens))
    todo = sorted(gens, key=max)[::-1]
    while todo or pairs:
        if todo:
            q = todo.pop()
        else:
            L, _, i, j = heapq.heappop(pairs)
            if filled and filled(L, table, work):
                continue
            q = s_polynomial(table[i], table[j], packing)
        r = divide(q, table, packing, modulus)[1]
        work += len(q) + len(r) * len(table)
        if not r:
            continue
        if next(iter(r)) == packing.one:
            return [(packing.one, 1, ())]
        g = integer_reducer(r, modulus)
        pairs = _gm_update(table, pairs, g[0], packing, serial)
        table.append(g)
    # minimalize: in ascending lead order, where a divisor comes first, drop
    # an element whose lead a lead kept before it divides
    minimal = []
    for g in sorted(table, key=operator.itemgetter(0)):
        if first(minimal, g[0]) is None:
            minimal.append(g)
    # reduce tails by the lower leads: a lead above g's divides no term
    # below it; no other minimal lead divides a lead, which keeps its
    # coefficient times the scale of the division
    reduced = []
    for p, g in enumerate(minimal):
        lower = minimal[:p]
        if any(first(lower, x) for x, _ in g[2]):
            le, lc, tail = g
            scale, rem = divide(dict(tail), lower, packing, modulus)
            g = integer_reducer({le: scale * lc, **rem}, modulus)
        reduced.append(g)
    return reduced


class GroebnerBasis(Value):
    """A reduced Groebner basis over Q as its packed reducer table, as
    ``packed_basis`` builds it, on the packing of ``order``: the one stored
    form, of which ``reducers`` and ``generators`` are views built on first
    use.  A packing is fixed by its order, so two bases are equal when
    their tables and orders are."""

    _fields = ("table", "order")

    def __init__(self, table: tuple[Reducer, ...], order: MonomialOrder):
        self._set(table, order)

    @classmethod
    def of(cls, gens, order):
        """The basis of the ideal of the MultiPolys ``gens``."""
        if any(g.nvars != order.nvars for g in gens):
            raise DegreeMismatch("polynomial ring does not match the order")
        return cls(tuple(packed_basis([g.num for g in gens], order)), order)

    @cached_property
    def packing(self) -> Packing:
        return packing_of(self.order)

    @cached_property
    def reducers(self) -> tuple[Reducer, ...]:
        """The table with its monomials as exponent tuples."""
        unpack, unpack_terms = self.packing.unpack, self.packing.unpack_terms
        return tuple((unpack(le), lc, tuple(unpack_terms(dict(tail)).items()))
                     for le, lc, tail in self.table)

    @cached_property
    def generators(self) -> tuple[MultiPoly, ...]:
        """The reduced monic basis as Fraction polynomials; the package
        itself reads only the table."""
        return tuple(MultiPoly.from_integer_terms(self.order.nvars, lc, {le: lc, **dict(tail)})
                     for le, lc, tail in self.reducers)

    def reduce(self, p: MultiPoly) -> MultiPoly:
        """Remainder of p: ``divide`` on its integer terms returns the integer
        remainder r of scale*p.num, and the normal form is r/(scale*p.d),
        brought to lowest terms."""
        if p.nvars != self.order.nvars:
            raise DegreeMismatch("polynomial ring does not match the basis")
        packing = self.packing
        scale, rem = divide(packing.pack_terms(p.num), self.table, packing)
        return MultiPoly.from_integer_terms(p.nvars, scale * p.d, packing.unpack_terms(rem))


def _least_pure_powers(gb: GroebnerBasis) -> dict[int, int]:
    """Variable -> the least exponent of a lead that is a power of it, read
    on the packed table: a lead's fields, xor the packing of 1, are its
    exponents, and a power of x_i has no field but i's.  The unit ideal's
    lead 1 is a power of every variable."""
    packing = gb.packing
    least: dict[int, int] = {}
    for le, _, _ in gb.table:
        e = (le ^ packing.one) & packing.fields
        for i, s in enumerate(packing.shifts):
            if not e & ~(MASK << s):
                least[i] = min(least.get(i, MAX), e >> s)
    return least


def quotient_is_finite(gb: GroebnerBasis) -> bool:
    """Finite-dimensional quotient iff every variable has a pure-power lead."""
    return len(_least_pure_powers(gb)) == gb.order.nvars


def standard_monomials(gb: GroebnerBasis) -> list[Exponent]:
    """All monomials outside the leading ideal, in ascending tuple order;
    requires a finite quotient.  They lie in the box below the least pure
    powers, and each one there is packed and tested against the leads."""
    least = _least_pure_powers(gb)
    if len(least) != gb.order.nvars:
        raise ValueError("quotient is not finite-dimensional")
    packing, table = gb.packing, gb.table
    one, weights = packing.one, packing.weights
    box = itertools.product(*(range(least[i]) for i in range(gb.order.nvars)))
    return [m for m in box
            if packing.first_divisor(table, one + sum(map(operator.mul, m, weights))) is None]
