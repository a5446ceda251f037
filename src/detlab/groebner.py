"""Buchberger engine and the ideal-theoretic query layer.

The engine works on primitive integer term dicts (denominators cleared,
content stripped) so reduction arithmetic stays in Z; reduced bases are
returned monic over Q.  Pair management uses the normal (sugar) selection
strategy with Gebauer and Möller's criteria (JSC 1988): the coprime and
chain criteria on the new pairs, and the chain criterion through each new
leading monomial on the old ones.  Every heavy query runs under a Budget
and raises ComputationTimeout rather than returning a wrong answer.  It
reads the cache directory from the config passed, else from its budget's.

An ideal's order is its ring's order, and an ideal holds one reduced
basis.  The orders are block orders of grevlex blocks (`MonomialOrder`):
grevlex itself, the x-first grevlex of `rees_ring`, and the elimination
orders that `eliminate` and `intersect` put on a ring of their own.  Rings
compare by variable names, so the generators of one ring serve another
that differs only in its order.

Inside the engine a monomial is one int (Monagan and Pearce's packed
monomials).  Every order is read as its nonnegative integer weight matrix
W (`MonomialOrder.weight_rows`), and the packed form of an exponent vector e
is W·e followed by the exponents that W does not already list, in fixed-
width bit fields whose top bit is a guard bit.  Integer comparison is then
the monomial order, a product or quotient of monomials is + or -, and one
subtract-and-mask tests divisibility.  The width starts at 8 bits and is
doubled until the input fits; a new term that sets a guard bit restarts the
computation at twice the width, so a field never wraps silently.  The pair
criteria compare packed lcms with the same test, and the coprime test
ANDs the leading monomials' support masks: the guard bits of the fields
that hold a nonzero exponent, ((m | guard) - low) & var_guard.  Bases stay
packed in the memory and disk caches (below); they leave the engine as
exponent tuples only for the monic basis, the leading monomials, and the
key and the containment tests of a result ideal (below), and the Hilbert
numerators pack the leading monomials again under one degree-first row.

Every reduction in the engine is made of one step, written once.  The
divisor search `_DivisorIndex.divisor(m, keep)` keeps, for each support
mask of a term, a bitset of the basis positions whose leading monomial's
support lies inside it, and returns the first of those bits among `keep`,
from the low end, whose entry passes the exact test: the divisor a scan of
the basis in order would pick, so remainders and work counts do not depend
on the index.  The cancellation `_cancel` scales the working terms and the
dict passed as `scaled`, then subtracts the reducer's shifted tail from
the terms, pushing new monomials onto the heap, and the same multiple of
a `label`, if given, from `scaled`, both by the one loop `_subtract`.
`_normal_form_int` (Buchberger, normal forms, module bases, tail
reduction) passes the basis positions but the one it leaves out as
`keep`, and its remainder as `scaled`; `_regular_reduce` (the colon
below) searches the basis of I with every position, then the labelled
elements, clearing from `keep` each that fails the signature test, and
passes its label u as `scaled` and a labelled reducer's label as
`label`.  `_spoly` (Buchberger, `certify_groebner`) is one such step on
gi's tail shifted to the lcm by `_shifted`, the one guard-checked shift,
which also makes the colon's J-pair multiples t*u and t*v.  `_minimal`,
the one minimal-monomial walk, serves the chain criterion among new
pairs and the Hilbert numerators.  The one lcm is packed too:
`_Packing.cofactor(a, b)` gives the monomial t with t*a = lcm(a, b) on the
variable fields, `_Packing.lift(t, deg a)` packs t in full, reading only
its nonzero fields, and checks the lcm's degree against the width, and
lcm(a, b) is a plus the packed t.  It serves the pairs, the J-pairs and
`certify_groebner`; the colon builds it only for the J-pairs it pushes,
after their F5 test on the variable fields alone (below).  An index
belongs to one basis list: a Buchberger run extends its own as the basis
grows, and a restart at a wider width builds a new one; a reduced basis
(`_Basis`) keeps one for its normal forms, membership tests, colons and
certification, built at the first and dropped only when `_retry_wider`
repacks the list, so it lives as long as the list's cache entry.

The same engine computes Groebner bases of submodules of a free module of
rank r (an ideal is the case r = 0).  A module term with component c and
exponent e is the flat tuple onehot_r(c) + e, ordered position over term,
component 0 highest: the weight rows are the one-hot slots, then the
order's rows.  Divisibility, lcm, s-polynomials and reduction then work
unchanged, since a term divides another only within its component.  Pairs
form within one component only; two leading terms there share their
one-hot slot, so the coprime criterion, which is unsound for modules,
never fires.

A colon I : g is computed by signatures, after the incremental G2V of Gao,
Guan and Volny (ISSAC 2010; the setting is Gao, Volny and Wang, Math. Comp.
2016), from the reduced basis G of I with no tag variable.  It works with
labelled pairs (u, v), v = u*g mod I, whose signature is lm(u); the
entries of G are (0, g_i).  J-pairs are taken in signature order, one per
signature (the smallest lcm).  One goes when lm(G) or the signature of a
colon element already found divides its signature, or when it is covered:
an element whose signature divides it reaches it with a smaller multiple of
its lm(v).  The first of these tests, F5's (Roune and Stillman, ISSAC
2012), decides most J-pairs, and it runs when the pair is formed, before
its lcm: the cofactor t with t*lm(v) = lcm, on the variable fields, plus
the signature's variable fields is the candidate signature there, and the
divisor search of G reads no other field; for a pair with an entry g_k of
G, lm(g_k) itself is tried before the search.  A pair of two labelled
elements (u, v) and (u_j, v_j) is pushed at the larger of its two
signatures, lm(u)*lcm/lm(v) and lm(u_j)*lcm/lm(v_j), which compare as
lm(u)*lm(v_j) and lm(u_j)*lm(v) do; so that side is picked first, and only
its F5 test runs.  Only a J-pair that passes gets its packed lcm and goes
on the heap, so the heap holds what it would if every lcm and both tests
were made first.  The leading term of v is reduced regularly: by G always, by a labelled element
only below the pair's signature.  A v that reaches 0
gives u in I : g, and G with those u is a Groebner basis of I : g, so only
the pairs that yield colon elements reduce to zero.  Each pair the colon
keeps ticks its budget by its number of terms, len(u) + len(v), under the
label "colon labels": the v keep their unreduced tails, which can fill
memory long before the J-pairs and reduction steps reach a step cap.

A reduced basis in a fixed order is a canonical form of its ideal: its
entries are primitive with positive leading coefficient and sorted by
leading monomial, so two ideals of one order are equal iff their entries
are, term for term (`_same_basis`).  `ideal_equal` compares them, and
falls back to mutual membership only when it cannot: for two orders on
the same variable names, or two packings after a widening.  An
intersection I ∩ J is the smaller ideal when one contains the other,
which normal forms against the two bases decide, read in the order of
I; only otherwise is it the tag-variable elimination (u*I + (1-u)*J) ∩
k[x].  The colon by an ideal,
∩ I : g over its generators, meets mostly nested pairs.  So does the
saturation, ∩ I : g^∞, where each I : g^∞ is a chain of colons by g, each
from the basis the step before returned.  Both stop at the first step
whose result equals the ideal it contains, by the same comparison.  f
lies in √I iff I : f^∞ = (1), so radical membership is one such chain,
in the ring of I.  Every ideal that `colon_poly`, `intersect` or
`eliminate` returns holds only its packed reduced basis, which generates
it (`_seeded`): no query recomputes what the engine has just produced,
the monic basis is built only when its generators are read, its cache
key comes from the integer entries, and another ideal contains it when
its entries reduce to zero there.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import tempfile
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import or_

from .config import Budget, Config, DEFAULT_CONFIG
from .polyring import (
    Polynomial, Ring, MonomialOrder, block_order, morph, clear_denominators, _content_strip,
)

# ---------------------------------------------------------------------------
# integer term-dict helpers

def to_int_terms(poly: Polynomial) -> dict:
    """Primitive integer form of a rational polynomial (content 1)."""
    return _content_strip(clear_denominators(poly.terms.items())[0])


# ---------------------------------------------------------------------------
# packed monomials

_FIELD_BITS = 8  # narrowest field width; doubled until the input fits


class _Overflow(Exception):
    """A packed field reached its guard bit; the work restarts wider."""


class _Packing:
    """Monomials of one order as ints of fixed-width bit fields.

    The fields hold W·e for the order's weight rows W, then every exponent
    that no unit row of W already holds, most significant first.  Each
    field is `width` bits and its top bit is a guard bit that stays clear.
    Integer comparison is then the monomial order, multiplication and
    division are + and -, and a divides b iff ((b | guard) - a) & guard ==
    guard.  pack(e) is the sum of e_i * units[i].

    Every variable's exponent sits alone in one field (a unit row of W or
    an appended one); `var_guard` holds the guard bits of those fields,
    `vals` their value bits and `low` the lowest bit of every field.  Since
    W is nonnegative, a divides b iff the variable fields alone pass the
    test, ((b | guard) - a) & var_guard == var_guard, and that test holds
    as well for a monomial given on its variable fields only (every other
    field 0): no field borrows from the next.

    A packing is never changed after it is built, so `holding` and `wider`
    hand out one shared packing per (rows, width).  `digest` names it in a
    disk record: a short hex sha256 of the rows and the width.
    """

    __slots__ = ("rows", "width", "units", "guard", "low", "var_guard", "vals",
                 "digest", "_given", "_reads", "_lifts", "_half", "_wmax")

    def __init__(self, rows: tuple[tuple, ...], width: int):
        self._given = rows
        self.digest = hashlib.sha256(repr((tuple(rows), width)).encode()).hexdigest()[:16]
        nvars = len(rows[0]) if rows else 0
        reads: dict[int, int] = {}  # variable -> field holding its exponent
        for k, row in enumerate(rows):
            if sum(row) == 1 and max(row) == 1:
                reads.setdefault(row.index(1), k)
        rows = list(rows)
        for i in range(nvars):
            if i not in reads:
                reads[i] = len(rows)
                rows.append(tuple(int(j == i) for j in range(nvars)))
        top = len(rows) - 1
        self.rows = rows
        self.width = width
        self.units = [sum(row[i] << (width * (top - k)) for k, row in enumerate(rows))
                      for i in range(nvars)]
        self.guard = sum(1 << (width * (top - k) + width - 1) for k in range(len(rows)))
        self.low = self.guard >> (width - 1)
        self._reads = [width * (top - reads[i]) for i in range(nvars)]
        self.var_guard = sum(1 << (s + width - 1) for s in self._reads)
        self.vals = self.var_guard - (self.var_guard >> (width - 1))
        # guard bit of a variable's field -> (its shift, the variable's unit)
        self._lifts = {1 << (s + width - 1): (s, u) for s, u in zip(self._reads, self.units)}
        self._half = 1 << (width - 1)
        self._wmax = max((max(row) for row in rows), default=0)

    @staticmethod
    def shared(rows: tuple[tuple, ...], width: int) -> "_Packing":
        """The one packing of these rows at this width.  The rows are found
        by identity, so no lookup hashes them: `MonomialOrder.weight_rows`
        and `syzygy._module_rows` hand out one tuple per order, and the
        table keeps every tuple it holds alive, so no id is reused."""
        family = _PACKINGS.get(id(rows))
        if family is None:
            family = _PACKINGS[id(rows)] = (rows, {})
        pk = family[1].get(width)
        if pk is None:
            pk = family[1][width] = _Packing(rows, width)
        return pk

    @staticmethod
    def holding(rows: tuple[tuple, ...], degree: int) -> "_Packing":
        """The narrowest packing whose fields hold every monomial of at most
        the given total degree."""
        pk = _Packing.shared(rows, _FIELD_BITS)
        while not pk.fits(degree):
            pk = pk.wider()
        return pk

    def wider(self) -> "_Packing":
        return _Packing.shared(self._given, 2 * self.width)

    def fits(self, degree: int) -> bool:
        # a field is at most wmax * degree, so this bound keeps the guards clear
        return degree * self._wmax < self._half

    def pack(self, e: tuple) -> int:
        if not self.fits(sum(e)):
            raise _Overflow
        m = 0
        for v, u in zip(e, self.units):
            if v:
                m += v * u
        return m

    def unpack(self, m: int) -> tuple:
        low = self._half - 1
        return tuple([(m >> s) & low for s in self._reads])

    def support(self, m: int) -> int:
        """The guard bits of the fields holding a nonzero exponent of m; a
        monomial divides m only if its support lies inside this one."""
        return ((m | self.guard) - self.low) & self.var_guard

    def lift(self, t: int, degree: int) -> tuple[int, int]:
        """The monomial t, given on its variable fields only, packed in
        full, and degree plus its degree; raises _Overflow when that sum
        does not fit.  For a packed a of degree d, a + lift(cofactor(a, b),
        d)[0] is lcm(a, b), of the degree returned: the one lcm routine.
        Only the nonzero fields of t are read."""
        low = self._half - 1
        rest = ((t | self.guard) - self.low) & self.var_guard
        m = 0
        while rest:
            b = rest & -rest
            rest ^= b
            s, u = self._lifts[b]
            e = (t >> s) & low
            m += e * u
            degree += e
        if not self.fits(degree):
            raise _Overflow
        return m, degree

    def cofactor(self, a: int, b: int) -> int:
        """The monomial t with t*a = lcm(a, b), for packed a and b, held in
        the variable fields only (every other field 0): b_i - a_i in each
        field where that is nonnegative, else 0."""
        vals = self.vals
        d = ((b & vals) | self.var_guard) - (a & vals)
        ge = d & self.var_guard
        return d & (ge - (ge >> (self.width - 1)))


# id of the rows -> (the rows, width -> packing)
_PACKINGS: dict[int, tuple[tuple, dict[int, _Packing]]] = {}


class _Entry:
    """A basis element: packed leading monomial with its support mask
    (`_Packing.support`), positive leading coefficient, and tail, all
    integer coefficients."""

    __slots__ = ("lm", "mask", "lc", "tail", "sugar", "pk")

    def __init__(self, terms: dict, pk: _Packing, sugar: int):
        lm = max(terms)
        lc = terms[lm]
        if lc < 0:
            terms = {m: -c for m, c in terms.items()}
            lc = -lc
        self.lm = lm
        self.mask = pk.support(lm)
        self.lc = lc
        self.tail = {m: c for m, c in terms.items() if m != lm}
        self.sugar = sugar
        self.pk = pk

    @staticmethod
    def read(lm: int, lc: int, tail: dict, pk: _Packing) -> "_Entry":
        """The entry of packed terms as they are: lc > 0 leads at lm, and
        the tail holds the rest.  No sugar: only Buchberger seeds read it."""
        g = _Entry.__new__(_Entry)
        g.lm, g.mask, g.lc, g.tail, g.sugar, g.pk = lm, pk.support(lm), lc, tail, 0, pk
        return g

    def packed(self) -> dict:
        d = dict(self.tail)
        d[self.lm] = self.lc
        return d

    def full(self) -> dict:
        """The terms keyed by exponent tuples."""
        unpack = self.pk.unpack
        d = {unpack(m): c for m, c in self.tail.items()}
        d[unpack(self.lm)] = self.lc
        return d

    def monic(self, ring: Ring) -> Polynomial:
        """The monic rational polynomial of this entry."""
        terms = {}
        for e, c in self.full().items():
            q = Fraction(c, self.lc)
            terms[e] = q.numerator if q.denominator == 1 else q
        return Polynomial(ring, terms, _clean=True)

    def repack(self, pk: _Packing) -> "_Entry":
        return _Entry({pk.pack(e): c for e, c in self.full().items()}, pk, self.sugar)


class _Basis(list):
    """A list of entries of one packing, and the divisor index of the list
    (`divisor_index`): built at the first search and kept until `widen`
    repacks the entries, so it lives as long as the list.  The monic
    rational basis of the entries (`monic`) is built at its first read and
    kept with them."""

    __slots__ = ("_index", "_polys")

    def __init__(self, entries=()):
        super().__init__(entries)
        self._index = None
        self._polys = None

    def monic(self, ring: Ring) -> list[Polynomial]:
        if self._polys is None:
            self._polys = [g.monic(ring) for g in self]
        return self._polys

    def divisor_index(self) -> "_DivisorIndex":
        if self._index is None:
            self._index = _DivisorIndex(self[0].pk, self)
        return self._index

    def widen(self) -> None:
        """Repack the entries in place at twice the width."""
        pk = self[0].pk.wider()
        self[:] = [g.repack(pk) for g in self]
        self._index = None


def _pack_entries(dicts: list[dict], sugars: list[int], rows: tuple[tuple, ...]) -> _Basis:
    """Entries of exponent-tuple term dicts, at the narrowest width that
    holds all of their monomials."""
    pk = _Packing.holding(rows, max((sum(e) for d in dicts for e in d), default=0))
    return _Basis(_Entry({pk.pack(e): c for e, c in d.items()}, pk, s)
                  for d, s in zip(dicts, sugars))


def _retry_wider(entries: _Basis, run):
    """run(entries); after a guard-bit hit, widen the entries in place (so
    later queries start wide enough) and run again."""
    while True:
        try:
            return run(entries)
        except _Overflow:
            entries.widen()


class _DivisorIndex:
    """The divisor search of one basis list, in one packing (see the module
    docstring).  `candidates(s)` is the bitset of the basis positions whose
    leading monomial's support lies inside the support mask s, built on
    first use; `append` extends the basis and every bitset built so far."""

    __slots__ = ("pk", "entries", "lms", "uses", "table")

    def __init__(self, pk: _Packing, basis=()):
        self.pk = pk
        self.entries: list[_Entry] = []
        self.lms: list[int] = []
        # guard bit of a variable's field -> positions whose lm holds it
        self.uses: dict[int, int] = {}
        self.table: dict[int, int] = {}
        for g in basis:
            self.append(g)

    def append(self, g: _Entry) -> None:
        bit = 1 << len(self.entries)
        mk = g.mask
        uses = self.uses
        rest = mk
        while rest:
            v = rest & -rest
            uses[v] = uses.get(v, 0) | bit
            rest ^= v
        table = self.table
        for s, bits in table.items():
            if mk & s == mk:
                table[s] = bits | bit
        self.entries.append(g)
        self.lms.append(g.lm)

    def candidates(self, s: int) -> int:
        bits = (1 << len(self.entries)) - 1
        for v, held in self.uses.items():
            if not v & s:
                bits &= ~held
        self.table[s] = bits
        return bits

    def divisor(self, m: int, keep: int = -1) -> int:
        """The first position among the bits of `keep` whose leading
        monomial divides the packed monomial m, or -1.  m may be given on
        its variable fields alone (`_Packing`): the search reads no other
        field."""
        pk = self.pk
        var_guard = pk.var_guard
        mg = m | pk.guard
        s = (mg - pk.low) & var_guard
        bits = self.table.get(s)
        if bits is None:
            bits = self.candidates(s)
        bits &= keep
        lms = self.lms
        while bits:
            b = bits & -bits
            k = b.bit_length() - 1
            if (mg - lms[k]) & var_guard == var_guard:
                return k
            bits ^= b
        return -1


def _shifted(terms: dict, t: int, guard: int) -> dict:
    """The packed terms times the packed monomial t; raises _Overflow when
    a product sets a guard bit."""
    out = {m + t: c for m, c in terms.items()}
    if any(m & guard for m in out):
        raise _Overflow
    return out


def _subtract(coeffs: dict, heap: list, terms: dict, shift: int, mult: int,
              guard: int) -> None:
    """Subtract mult times the packed terms shifted by `shift` from
    `coeffs`, pushing each new monomial, negated, onto `heap`; raises
    _Overflow when a new monomial sets a guard bit."""
    for tm, tc in terms.items():
        nm = tm + shift
        prev = coeffs.get(nm)
        if prev is None:
            if nm & guard:
                raise _Overflow
            coeffs[nm] = -mult * tc
            heappush(heap, -nm)
        else:
            nv = prev - mult * tc
            if nv:
                coeffs[nm] = nv
            else:
                del coeffs[nm]


def _cancel(coeffs: dict, heap: list, m: int, c: int, red: _Entry,
            scaled: dict, label: dict | None = None) -> int:
    """One reduction step: cancel the term c*m, already taken out of the
    packed term dict `coeffs`, by the multiple of `red` whose leading
    monomial is m.  With d = gcd(c, lc(red)), `coeffs` and the dict
    `scaled` are multiplied by sc = lc(red) / d, then mult = c / d times the
    shifted tail of red is subtracted from `coeffs`, its new monomials
    pushed onto `heap` (`_subtract`), and the same multiple of `label`, if
    given, from `scaled`.  Returns sc.  Raises _Overflow when a new term
    does not fit the packing."""
    d = gcd(abs(c), red.lc)
    mult = c // d
    sc = red.lc // d
    if sc != 1:
        for k in coeffs:
            coeffs[k] *= sc
        for k in scaled:
            scaled[k] *= sc
    guard = red.pk.guard
    shift = m - red.lm
    _subtract(coeffs, heap, red.tail, shift, mult, guard)
    if label is not None:
        _subtract(scaled, [], label, shift, mult, guard)
    return sc


def _reduce_terms(terms: dict, basis: _Basis, budget: Budget | None,
                  what: str = "polynomial reduction") -> tuple[dict, int]:
    """_normal_form_int of an exponent-tuple term dict by the basis, with
    the basis's own divisor index; the remainder is keyed by exponent
    tuples too."""
    if not basis:
        return dict(terms), 1
    budget = budget or DEFAULT_CONFIG.budget()

    def run(entries):
        pk = entries[0].pk
        rem, scale = _normal_form_int({pk.pack(e): c for e, c in terms.items()},
                                      entries.divisor_index(), budget, what=what)
        return {pk.unpack(m): c for m, c in rem.items()}, scale
    return _retry_wider(basis, run)


def _normal_form_int(terms: dict, index: _DivisorIndex, budget: Budget,
                     skip: int = -1, what: str = "polynomial reduction") -> tuple[dict, int]:
    """Full reduction of a packed integer term dict by the basis of the
    index, leaving out position `skip`; returns (remainder, scale).

    The invariant is scale * input == remainder (mod ideal).  The remainder
    has no term divisible by any basis leading monomial.  Each term is
    reduced by the first basis element, in basis order, whose leading
    monomial divides it.  Raises _Overflow when a new term does not fit the
    packing.
    """
    divisor, entries = index.divisor, index.entries
    keep = ~(1 << skip) if skip >= 0 else -1
    coeffs = dict(terms)
    heap = [-m for m in coeffs]
    heapify(heap)
    out: dict = {}
    scale = 1
    scale_events = 0
    while heap:
        m = -heappop(heap)
        c = coeffs.pop(m, 0)
        if not c:
            continue
        k = divisor(m, keep)
        if k < 0:
            out[m] = c
            continue
        budget.tick(1, what)
        sc = _cancel(coeffs, heap, m, c, entries[k], out)
        if sc != 1:
            scale *= sc
            scale_events += 1
            if scale_events % 32 == 0 and abs(scale) > 1 << 2048:
                # strip only factors shared with the scalar, keeping the
                # invariant scale * input == remainder exact
                g = gcd(scale, *coeffs.values(), *out.values())
                if g > 1:
                    for k in coeffs:
                        coeffs[k] //= g
                    for k in out:
                        out[k] //= g
                    scale //= g
    return out, scale


def _spoly(gi: _Entry, gj: _Entry, top: int) -> dict:
    """Integer s-polynomial (packed) of two entries whose leading monomials
    have the packed lcm `top`: gi's shifted tail, its lead cancelled by gj.
    Raises _Overflow when a shifted tail term of either does not fit."""
    out = _shifted(gi.tail, top - gi.lm, gi.pk.guard)
    _cancel(out, [], top, gi.lc, gj, {})
    return out


def _minimal(monomials, guard: int) -> list[int]:
    """The distinct packed monomials that no other divides, ascending:
    walking upwards, a monomial is divisible by another iff by a minimal
    one met before it."""
    out: list[int] = []
    for m in sorted(set(monomials)):
        mg = m | guard
        if not any((mg - a) & guard == guard for a in out):
            out.append(m)
    return out


class _Pairs:
    """The critical pairs of a growing basis under the normal (sugar)
    selection strategy and Gebauer and Möller's criteria, all on packed
    lcms: lcm(lm_i, lm_h) is lm_h times its cofactor packed by `lift`, from
    the packed leading monomials `lms` and their degrees `degs`.

    `add(h)` pairs a new element with every earlier one of its component
    (rank r > 0: the first r exponents are the one-hot component slots).
    Among the new pairs it drops each whose lcm another new lcm properly
    divides, those coprime to h, and all but the first of equal lcms (a
    coprime pair kills the later ones of its lcm).  An old pair (i, j)
    goes when lm(h) divides its lcm and differs from lcm(i, h) and
    lcm(j, h).  `pop()` returns the next live pair as (sugar, lcm, i, j)
    with i < j, or None.  An lcm past the packing raises _Overflow.
    """

    __slots__ = ("pk", "rank", "lms", "degs", "comps", "masks", "sugars",
                 "live", "heap")

    def __init__(self, pk: _Packing, rank: int = 0):
        self.pk = pk
        self.rank = rank
        self.lms: list[int] = []
        self.degs: list[int] = []
        self.comps: list[tuple] = []
        self.masks: list[int] = []
        self.sugars: list[int] = []
        self.live: dict[tuple, int] = {}  # (i, j) -> packed lcm
        self.heap: list = []

    def add(self, h: _Entry) -> None:
        pk = self.pk
        guard, cofactor, lift = pk.guard, pk.cofactor, pk.lift
        hl = h.lm
        eh = pk.unpack(hl)
        dh = sum(eh)
        comp = eh[:self.rank]
        comps = self.comps
        new: dict[int, int] = {}  # i -> packed lcm(lm_i, lm_h)
        new_degs: dict[int, int] = {}
        for i, li in enumerate(self.lms):
            if comps[i] == comp:
                t, new_degs[i] = lift(cofactor(hl, li), dh)
                new[i] = hl + t
        # the chain criterion among the new pairs: only minimal lcms stay
        minimal = set(_minimal(new.values(), guard))
        masks, hmask = self.masks, h.mask
        seen: dict[int, int] = {}
        kept = []
        for i, lk in new.items():
            if lk not in minimal:
                continue
            if not masks[i] & hmask:
                seen.setdefault(lk, -1)  # coprime kills the later ones of its lcm
            elif lk not in seen:
                seen[lk] = i
                kept.append(i)
        # the old pairs: drop (i, j) when lm(h) divides lcm(i, j) and that
        # lcm is neither lcm(i, h) nor lcm(j, h)
        live = self.live
        dead = [ij for ij, lk in live.items()
                if ((lk | guard) - hl) & guard == guard
                and new[ij[0]] != lk and new[ij[1]] != lk]
        for ij in dead:
            del live[ij]
        n = len(self.lms)
        for i in kept:
            lk, d = new[i], new_degs[i]
            sugar = max(self.sugars[i] + d - self.degs[i], h.sugar + d - dh)
            live[(i, n)] = lk
            heappush(self.heap, (sugar, lk, i, n))
        self.lms.append(hl)
        self.degs.append(dh)
        comps.append(comp)
        masks.append(hmask)
        self.sugars.append(h.sugar)

    def pop(self):
        heap, live = self.heap, self.live
        while heap:
            pair = heappop(heap)
            if live.pop(pair[2:], None) is not None:
                return pair
        return None


def groebner_entries(int_gens: list[dict], order: MonomialOrder, budget: Budget) -> _Basis:
    """Reduced Groebner basis as integer entries (primitive, positive lc)."""
    dicts = [_content_strip(dict(d)) for d in int_gens if d]
    seeds = _pack_entries(dicts, [max(sum(e) for e in d) for d in dicts], order.weight_rows())
    seeds.sort(key=lambda g: (g.lm, sorted((g.pk.unpack(m), c) for m, c in g.tail.items())))
    return _buchberger(seeds, budget)


def _buchberger(seeds: _Basis, budget: Budget, rank: int = 0) -> _Basis:
    """Reduced Groebner basis of the seed entries, taken in the given order.

    With rank r > 0 the terms are those of a free module of rank r (see the
    module docstring): pairs form only between leading terms in the same
    component, and the work is counted under the module labels.  A guard-bit
    hit restarts the whole computation at twice the field width.
    """
    if not seeds:
        return _Basis()
    return _retry_wider(seeds, lambda entries: _buchberger_at_width(entries, budget, rank))


def _buchberger_at_width(seeds: _Basis, budget: Budget, rank: int) -> _Basis:
    spair_what, reduce_what = (("module Buchberger", "module reduction") if rank
                               else ("Buchberger", "polynomial reduction"))
    pk = seeds[0].pk
    index = _DivisorIndex(pk)
    basis = index.entries
    pairs = _Pairs(pk, rank)

    def add_element(rem: dict, sugar: int) -> None:
        h = _Entry(_content_strip(rem), pk, sugar)
        pairs.add(h)
        index.append(h)

    for s in seeds:
        rem, _ = _normal_form_int(s.packed(), index, budget, what=reduce_what)
        if rem:
            add_element(rem, s.sugar)

    while (pair := pairs.pop()) is not None:
        sugar, lcm, i, j = pair
        budget.tick(1, spair_what)
        sp = _spoly(basis[i], basis[j], lcm)
        if not sp:
            continue
        rem, _ = _normal_form_int(sp, index, budget, what=reduce_what)
        if rem:
            add_element(rem, sugar)

    return _reduced(basis, budget, reduce_what)


def _reduced(basis: list[_Entry], budget: Budget, what: str) -> _Basis:
    """The reduced basis of the ideal of a Groebner basis (entries of one
    packing), sorted by leading monomial."""
    pk = basis[0].pk
    # minimalize: drop entries whose lm is divisible by another kept lm
    index = _DivisorIndex(pk)
    for g in sorted(basis, key=lambda g: g.lm):
        if index.divisor(g.lm) < 0:
            index.append(g)
    # tail-reduce each against the others (reduced basis)
    reduced: list[_Entry] = []
    for pos, g in enumerate(index.entries):
        rem, _ = _normal_form_int(g.packed(), index, budget, skip=pos, what=what)
        reduced.append(_Entry(_content_strip(rem), pk, g.sugar))
    reduced.sort(key=lambda g: g.lm)
    return _Basis(reduced)


# ---------------------------------------------------------------------------
# the colon I : g by signatures (G2V)

def _regular_reduce(u: dict, v: dict, sig: int, gidx: _DivisorIndex,
                    lidx: _DivisorIndex, sigs: list[int], us: list[dict],
                    budget: Budget) -> tuple[dict, dict]:
    """Regular top-reduction of a labelled pair (u, v), v = u*g mod I, of
    signature lm(u) = sig; returns the pair, both scaled by one integer.

    The leading term of v is reduced by the first entry of the basis of I
    (gidx) whose leading monomial divides it, or else by the first labelled
    element k (lidx, with signatures `sigs` and labels `us`) whose multiple
    t*v_k takes it off at a signature t*sigs[k] below sig; then t*u_k is
    taken off u with it, so lm(u) stays sig.  This repeats until v is zero
    or its leading term has no such reducer; the tail is left as it is.
    u and v are updated in place.  Raises _Overflow when a new term does
    not fit the packing.
    """
    heap = [-m for m in v]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = v.get(m)
        if c is None:
            continue
        k = gidx.divisor(m)
        label = None
        if k >= 0:
            red = gidx.entries[k]
        else:
            # the first labelled divisor that reduces below the signature
            keep = -1
            while (k := lidx.divisor(m, keep)) >= 0 and m - lidx.lms[k] + sigs[k] >= sig:
                keep &= ~(1 << k)
            if k < 0:
                return u, v
            red, label = lidx.entries[k], us[k]
        budget.tick(1, "polynomial reduction")
        del v[m]
        _cancel(v, heap, m, c, red, u, label)
    return u, v


def _colon_at_width(G: _Basis, g: dict, budget: Budget) -> _Basis:
    """Reduced Groebner basis of I : g as entries of the packing of G, the
    reduced basis of I, for g a nonzero exponent-tuple integer term dict."""
    pk = G[0].pk
    guard, var_guard, vals = pk.guard, pk.var_guard, pk.vals
    cofactor, lift = pk.cofactor, pk.lift
    gidx = G.divisor_index()
    divisor = gidx.divisor
    # the labelled elements (u, v) with v != 0: signature lm(u), label u,
    # the degree of lm(v), and v as the entries of lidx
    lidx = _DivisorIndex(pk)
    sigs: list[int] = []
    us: list[dict] = []
    degs: list[int] = []
    found: list[tuple] = []  # (signature, label u) of the pairs whose v reached 0
    heap: list[tuple] = []  # J-pairs (signature, lcm, element)

    def push(sig: int, top: int, i: int) -> None:
        if sig & guard:
            raise _Overflow
        heappush(heap, (sig, top, i))

    def add(sig: int, u: dict, v: dict) -> None:
        budget.tick(len(u) + len(v), "colon labels")  # the stored terms
        if not v:
            found.append((sig, u))
            return
        common = 0
        for c in itertools.chain(v.values(), u.values()):
            common = gcd(common, c)
            if common == 1:
                break
        if v[max(v)] < 0:
            common = -common
        if common != 1:
            u = {m: c // common for m, c in u.items()}
            v = {m: c // common for m, c in v.items()}
        h = _Entry(v, pk, 0)
        hm = h.lm
        dh = sum(pk.unpack(hm))
        n = len(sigs)
        # the F5 test, on the variable fields of each candidate signature
        # before its lcm is built: a signature in lm(G) is a multiple of a
        # syzygy (h, 0), h in I.  gm itself divides many of them.
        sv = sig & vals
        for gm in gidx.lms:
            t = cofactor(hm, gm)
            vh = sv + t
            if vh & var_guard:
                raise _Overflow
            if ((vh | guard) - gm) & var_guard != var_guard and divisor(vh) < 0:
                lt, _ = lift(t, dh)
                push(sig + lt, hm + lt, n)
        # a pair with an element j is pushed at the larger of its two
        # signatures, sig*lcm/hm and sigs[j]*lcm/lj, which compare as
        # sig*lj and sigs[j]*hm do (a sum of two packed monomials may set a
        # guard bit but never carries); only that side takes the F5 test
        for j, lj in enumerate(lidx.lms):
            sj = sigs[j]
            if sig + lj > sj + hm:
                s, m, d, other, k = sig, hm, dh, lj, n
            elif sig + lj < sj + hm:
                s, m, d, other, k = sj, lj, degs[j], hm, j
            else:
                continue
            t = cofactor(m, other)
            vs = (s & vals) + t
            if vs & var_guard:
                raise _Overflow
            if divisor(vs) < 0:
                lt, _ = lift(t, d)
                push(s + lt, m + lt, k)
        sigs.append(sig)
        us.append(u)
        degs.append(dh)
        lidx.append(h)

    add(0, *_regular_reduce({0: 1}, {pk.pack(e): c for e, c in g.items()}, 0,
                            gidx, lidx, sigs, us, budget))
    last = -1
    while heap:
        sig, top, i = heappop(heap)
        if sig == last:  # one J-pair per signature: the smallest lcm
            continue
        last = sig
        sg = sig | guard
        if any((sg - s) & guard == guard for s, _ in found):
            continue  # a multiple of a syzygy found
        if any((sg - s) & guard == guard and sig - s + lm < top
               for s, lm in zip(sigs, lidx.lms)):
            continue  # covered: a known element reaches sig with a smaller lm(v)
        budget.tick(1, "Buchberger")
        t = sig - sigs[i]
        u, v = _shifted(us[i], t, guard), _shifted(lidx.entries[i].packed(), t, guard)
        add(sig, *_regular_reduce(u, v, sig, gidx, lidx, sigs, us, budget))
    return _reduced(G + [_Entry(u, pk, 0) for _, u in found], budget, "polynomial reduction")


# ---------------------------------------------------------------------------
# GB cache (in-memory + optional disk cache of append-only packs)
#
# Both levels share one key: a hash of the coefficient field, the variable
# names, the order and the sorted, deduplicated term items of the
# generators.  The reduced basis of a colon I : g is stored the same way
# under a key of "colon", the key of I and the terms of g; when I is a
# result ideal, its key is of a kind of its own, "basis", and hashes the
# integer terms of its entries (`_basis_key`).  A module basis
# (`syzygy.module_groebner`) is stored under a key of "module", the order,
# the degree shifts and the vectors.  The memory cache holds the engine's
# own entry lists (`_Basis`, shared by every Ideal with that key, each with
# its divisor index and, once read, its monic basis; `_retry_wider` widens
# them in place).
#
# On disk a cache directory holds `.gb` packs, one for each process that
# wrote there.  A pack is a run of records: a header line `detlab-gb 5
# <key> <body length> sha256=<sha256 of key, newline, body>`, then the body
# in the engine's packed form.  Its first line names the packing, `<width>
# <packing digest>` (`_Packing.digest`); then one line per entry holds its
# primitive integer terms as pairs `<coefficient> <hex packed monomial>`,
# the leading term first and the monomials strictly descending.  A record
# carries no sugar: only Buchberger seeds read it, and those are packed
# afresh.  A process's first fresh basis for a directory creates its pack;
# each later one is appended with one write.  Its first lookup there reads
# every pack once into an index of key -> bodies, each file up to the
# first header that does not parse (a torn tail, or a file of an older
# format: 3 held one basis per file, 4 exponent text), skipping records
# whose digest does not match (a record copied under another key has one).
# The records the process appends join its index; those other processes
# append later are not seen, and such a basis is recomputed and appended
# again.  A body is served as it is, with no unpacking, only when it is a
# basis in the caller's packing (`_read_body`); otherwise the next record
# of its key is tried, and when none is left the basis is recomputed.

_MEMORY_CACHE: dict[str, _Basis] = {}

_DISK_FORMAT = b"detlab-gb 5"

# cache directory -> key -> bodies of its records, read at the first lookup
_DISK_INDEX: dict[str, dict[bytes, list[bytes]]] = {}
# cache directory -> (pid, fd) of the pack that process appends to; a forked
# worker sees its parent's pid there and opens a pack of its own
_PACKS: dict[str, tuple[int, int]] = {}


def _disk_record(key: str, body: bytes) -> bytes:
    digest = hashlib.sha256(key.encode() + b"\n" + body).hexdigest()
    return b"%s %s %d sha256=%s\n" % (_DISK_FORMAT, key.encode(), len(body),
                                       digest.encode()) + body


def _digest(key: tuple) -> str:
    """The cache key of a tuple: the hex sha256 of its repr.  The ideal,
    colon and module keys all go through here."""
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _cache_key(ring: Ring, gens: list[Polynomial]) -> str:
    body = sorted({tuple(sorted(g.terms.items())) for g in gens})
    # "QQ" names the one coefficient field; it stays so that keys written by
    # earlier versions still match
    return _digest(("QQ", ring.variables, ring.order.id, body))


def _basis_key(ring: Ring, entries: _Basis) -> str:
    """The key of the ideal a reduced basis generates, a kind of key of its
    own: from the integer terms of the entries, keyed by exponent tuples
    so the packing does not enter, and with no rational coefficient built."""
    body = sorted(tuple(sorted(g.full().items())) for g in entries)
    return _digest(("basis", ring.variables, ring.order.id, body))


def _colon_key(ideal_key: str, g: Polynomial) -> str:
    """The key of I : g, from the key of I (which covers the variable
    names, the order and the generators) and the terms of g."""
    return _digest(("colon", ideal_key, tuple(sorted(g.terms.items()))))


def _settings(budget: Budget | None, config: Config | None) -> Config:
    """The config passed, else the one the budget was built from, else the default."""
    return config or (budget.config if budget is not None else DEFAULT_CONFIG)


def _cached(key: str, rows: tuple[tuple, ...], config: Config, compute,
            rank: int = 0) -> _Basis:
    """The entries stored under the key in the memory cache or the disk
    cache, or else compute() and store them in both.  A disk record is
    served when it is packed in the weight rows `rows`, and holds a basis
    of a free module of the given rank when that is positive (`_read_body`)."""
    entries = _MEMORY_CACHE.get(key)
    if entries is None and config.cache_dir:
        entries = _disk_get(config.cache_dir, key, rows, rank)
    fresh = entries is None
    if fresh:
        entries = compute()
    _MEMORY_CACHE[key] = entries
    if fresh and config.cache_dir:
        _disk_put(config.cache_dir, key, entries)
    return entries


def _read_pack(data: bytes, index: dict) -> None:
    """Add the records of a pack whose digest matches to the index, up to
    the first header that does not parse; a body cut short fails its digest."""
    pos = 0
    while (end := data.find(b"\n", pos)) >= 0:
        head = data[pos:end].split(b" ")
        if len(head) != 5 or b" ".join(head[:2]) != _DISK_FORMAT \
                or not head[3].isdigit() or not head[4].startswith(b"sha256="):
            return
        start, pos = end + 1, end + 1 + int(head[3])
        body = data[start:pos]
        if hashlib.sha256(head[2] + b"\n" + body).hexdigest().encode() == head[4][7:]:
            index.setdefault(head[2], []).append(body)


def _read_packs(cache_dir: str) -> dict[bytes, list[bytes]]:
    """Key -> bodies of the records in the cache directory's packs whose
    digest matches (see `_read_pack`)."""
    index: dict[bytes, list[bytes]] = {}
    try:
        names = sorted(n for n in os.listdir(cache_dir) if n.endswith(".gb"))
    except OSError:
        names = []
    for name in names:
        try:
            with open(os.path.join(cache_dir, name), "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        _read_pack(data, index)
    return index


def _disk_index(cache_dir: str) -> dict[bytes, list[bytes]]:
    """The records of the cache directory, read from its packs at the
    process's first lookup there."""
    index = _DISK_INDEX.get(cache_dir)
    if index is None:
        index = _DISK_INDEX[cache_dir] = _read_packs(cache_dir)
    return index


def _disk_get(cache_dir: str, key: str, rows: tuple[tuple, ...], rank: int = 0) -> _Basis | None:
    """The first record of the key that `_read_body` serves, or None."""
    bodies = _disk_index(cache_dir).get(key.encode(), [])
    while bodies:
        entries = _read_body(bodies[0], rows, rank)
        if entries is not None:
            return entries
        del bodies[0]  # no basis: never tried again
    return None


def _read_body(body: bytes, rows: tuple[tuple, ...], rank: int) -> _Basis | None:
    """The entries of a record body, or None when it is no basis in the
    packing of the rows (see the cache comment above): a width that the
    engine does not make (the first width doubled, with 8 a power of two
    >= 8), a packing digest other than that packing's, no entry line, or a
    line that holds no pairs, a zero coefficient, a leading coefficient
    <= 0, a monomial with a guard bit set or negative, monomials not
    strictly descending, or, for a module basis of rank r > 0, a term
    without exactly one of the r component slots."""
    head, _, text = body.partition(b"\n")
    try:
        width, digest = head.split(b" ")
        width = int(width)
        times = width // _FIELD_BITS
        if width != times * _FIELD_BITS or times < 1 or times & (times - 1):
            return None
        pk = _Packing.shared(rows, width)
        if digest.decode() != pk.digest:
            return None
        guard = pk.guard
        # the component slots are the top r fields: one slot is the value 1
        # in one of them, and the rest of the term lies below them
        below = width * (len(pk.rows) - rank)
        slots = {1 << (width * c) for c in range(rank)}
        entries = _Basis()
        for line in text.splitlines():
            tokens = line.split()
            coeffs = list(map(int, tokens[::2]))
            monos = [int(t, 16) for t in tokens[1::2]]
            if not monos or len(coeffs) != len(monos) or coeffs[0] <= 0 or 0 in coeffs \
                    or monos[-1] < 0 or reduce(or_, monos) & guard \
                    or any(a <= b for a, b in zip(monos, monos[1:])) \
                    or rank and any(m >> below not in slots for m in monos):
                return None
            entries.append(_Entry.read(monos[0], coeffs[0],
                                       dict(zip(monos[1:], coeffs[1:])), pk))
    except (ValueError, UnicodeDecodeError):
        return None
    return entries or None


def _disk_put(cache_dir: str, key: str, entries: _Basis) -> None:
    """Append the record of the entries, as they are packed, to this
    process's pack in the cache directory, creating the pack on its first
    record."""
    pk = entries[0].pk
    lines = [f"{pk.width} {pk.digest}\n"]
    for g in entries:
        terms = [f"{g.lc} {g.lm:x}"]
        terms += [f"{c} {m:x}" for m, c in sorted(g.tail.items(), reverse=True)]
        lines.append(" ".join(terms) + "\n")
    body = "".join(lines).encode()
    pid = os.getpid()
    pack = _PACKS.get(cache_dir)
    if pack is None or pack[0] != pid:
        if pack is not None:
            os.close(pack[1])  # the parent's descriptor, inherited by a fork
        os.makedirs(cache_dir, exist_ok=True)
        pack = _PACKS[cache_dir] = (pid, tempfile.mkstemp(prefix="pack-", suffix=".gb",
                                                          dir=cache_dir)[0])
    rest = memoryview(_disk_record(key, body))
    try:
        while rest:
            rest = rest[os.write(pack[1], rest):]
    except BaseException:
        del _PACKS[cache_dir]  # a torn record ends what a read sees of the pack
        os.close(pack[1])
        raise
    _disk_index(cache_dir)[key.encode()] = [body]


# ---------------------------------------------------------------------------
# Ideal

class Ideal:
    """Generator list plus the reduced Groebner basis in the ring's order,
    computed on first use.  A result ideal (`_seeded`) holds only its
    reduced basis, which generates it."""

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        clean = {}
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero():
                clean.setdefault(g)
        self._gens: list[Polynomial] | None = list(clean)  # None: a result ideal
        self._gb: _Basis | None = None  # entries of the reduced basis

    @property
    def gens(self) -> list[Polynomial]:
        """The generators; those of a result ideal are its monic reduced
        basis, built at the first read."""
        return self._gb.monic(self.ring) if self._gens is None else self._gens

    def __repr__(self):
        show = ", ".join(str(g) for g in self.gens[:4])
        more = "" if len(self.gens) <= 4 else f", ... ({len(self.gens)} gens)"
        return f"Ideal({show}{more})"

    def is_zero(self) -> bool:
        return not (self._gb if self._gens is None else self._gens)

    def groebner_basis(self, budget: Budget | None = None,
                       config: Config | None = None) -> list[Polynomial]:
        """Reduced (monic) Groebner basis in the ring's order."""
        return self._entries(budget, config).monic(self.ring)

    @cached_property
    def _key(self) -> str:
        if self._gens is None:
            return _basis_key(self.ring, self._gb)
        return _cache_key(self.ring, self._gens)

    def _entries(self, budget=None, config=None) -> _Basis:
        """The engine's entries of the reduced basis, from this ideal, the
        memory cache, the disk cache or a computation, in that order."""
        if self._gb is None:
            config = _settings(budget, config)
            order = self.ring.order

            def compute():
                return groebner_entries([to_int_terms(g) for g in self._gens], order,
                                        budget or config.budget())
            self._gb = (_cached(self._key, order.weight_rows(), config, compute)
                        if self._gens else _Basis())
        return self._gb

    def _remainder(self, f, budget=None, config=None) -> tuple[dict, int]:
        """(integer remainder, d): the canonical remainder of f under full
        reduction is remainder / d.  f is a polynomial of this ring, or an
        entry of a basis over the same variables, whose integer terms are
        reduced as they are."""
        if isinstance(f, _Entry):
            ints, den = f.full(), 1
        elif f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        else:
            ints, den = clear_denominators(f.terms.items())
        entries = self._entries(budget, config)
        if not ints or not entries:
            return ints, den
        rem, scale = _reduce_terms(ints, entries, budget or _settings(None, config).budget())
        return rem, den * scale

    def normal_form(self, f: Polynomial, budget: Budget | None = None,
                    config: Config | None = None) -> Polynomial:
        """Canonical remainder of f under full reduction."""
        rem, d = self._remainder(f, budget, config)
        return Polynomial(self.ring, {e: Fraction(c, d) for e, c in rem.items()})

    def contains(self, f: Polynomial, budget=None, config=None) -> bool:
        """Whether the integer remainder of f is zero: no rational
        polynomial is built."""
        return not self._remainder(f, budget, config)[0]

    def contains_ideal(self, other: "Ideal", budget=None, config=None) -> bool:
        """Whether every generator of `other` lies in this ideal.  A result
        ideal is generated by its reduced basis: when that is this ideal's
        own (`_same_basis`), the answer is yes at once; otherwise the
        integer terms of its entries are reduced, and neither side builds a
        rational polynomial."""
        if other._gens is not None:
            return all(self.contains(g, budget, config) for g in other._gens)
        if other.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return (bool(_same_basis(self, other, budget, config))
                or all(not self._remainder(g, budget, config)[0] for g in other._gb))

    def leading_monomials(self, budget=None, config=None) -> list[tuple]:
        return [g.pk.unpack(g.lm) for g in self._entries(budget, config)]

    def is_unit(self, budget=None, config=None) -> bool:
        # a reduced basis holds a constant, whose monomial packs to 0, iff it is (1)
        return any(g.lm == 0 for g in self._entries(budget, config))


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, I.gens + J.gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, [a * b for a in I.gens for b in J.gens])


def ideal_power(I: Ideal, k: int) -> Ideal:
    if k < 0:
        raise ValueError("negative ideal power")
    if k == 0:
        return Ideal(I.ring, [I.ring.one()])
    acc = I
    for _ in range(k - 1):
        acc = ideal_product(acc, I)
    return acc


def _same_basis(I: Ideal, J: Ideal, budget=None, config=None) -> bool | None:
    """Whether I and J have the same reduced basis, which in one order
    decides I = J: the entries are primitive with lc > 0 and sorted by
    lm, so two equal ideals have equal lm, lc and tail entry by entry.
    None when the entries cannot tell: the orders differ (rings compare by
    variable names only), or so do the packings (one list was widened)."""
    if I.ring.order != J.ring.order:
        return None
    a, b = I._entries(budget, config), J._entries(budget, config)
    if len(a) != len(b):
        return False
    if a is b or not a:
        return True
    if a[0].pk is not b[0].pk:
        return None
    return all(x.lm == y.lm and x.lc == y.lc and x.tail == y.tail for x, y in zip(a, b))


def ideal_equal(I: Ideal, J: Ideal, budget=None, config=None) -> bool:
    """Whether I = J.  A reduced basis in a fixed order is a canonical form
    of its ideal, so both bases are computed and compared
    (`_same_basis`); only when that cannot tell (two orders, or two
    packings) does mutual membership decide."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    same = _same_basis(I, J, budget, config)
    if same is None:
        return I.contains_ideal(J, budget, config) and J.contains_ideal(I, budget, config)
    return same


# ---------------------------------------------------------------------------
# elimination, intersection, colon, saturation

def _fresh_name(base: str, taken) -> str:
    """base, or base1, base2, ..., the first not in taken."""
    name, i = base, 0
    while name in taken:
        i += 1
        name = f"{base}{i}"
    return name


def _seeded(ring: Ring, entries: _Basis) -> Ideal:
    """The result ideal generated by the reduced basis `entries` in the
    ring's order, which holds only that basis: no query computes it again,
    and its generators, the monic basis, are built at their first read."""
    out = Ideal(ring, [])
    out._gens = None
    out._gb = entries
    return out


def eliminate(I: Ideal, keep_indices, budget=None, config=None) -> Ideal:
    """I ∩ k[kept variables], returned over the subring of kept variables and
    generated by its reduced basis in the ring's order on those variables
    (grevlex for a grevlex ring).  The elimination order puts the dropped
    variables in a first block before the ring's own blocks."""
    ring = I.ring
    keep = sorted(keep_indices)
    if not all(0 <= i < ring.nvars for i in keep):
        raise ValueError(f"kept variable index out of range 0..{ring.nvars - 1}")
    drop = [i for i in range(ring.nvars) if i not in keep]
    if not drop:
        return Ideal(ring, list(I.gens))
    blocks = [[i for i in b if i in keep] for b in ring.order.blocks]
    elim = Ideal(Ring(ring.variables, block_order([drop] + blocks)), I.gens)
    kept = []
    for g in elim._entries(budget, config):
        terms = g.full()
        if not any(e[i] for e in terms for i in drop):
            kept.append({tuple(e[i] for i in keep): c for e, c in terms.items()})
    sub = Ring(tuple(ring.variables[i] for i in keep),
               block_order([[keep.index(i) for i in b] for b in blocks]))
    sugars = [max(map(sum, d)) for d in kept]
    return _seeded(sub, _pack_entries(kept, sugars, sub.order.weight_rows()))


def intersect(I: Ideal, J: Ideal, budget=None, config=None) -> Ideal:
    """I ∩ J in the ring of I, generated by its reduced basis.  When one
    ideal contains the other (normal forms against the two bases), that is
    the smaller one; otherwise the tag-variable elimination (u*I + (1-u)*J) ∩ k[x] in a
    ring whose order is the tag block before the ring's own blocks."""
    ring = I.ring
    if J.ring != ring:
        raise ValueError("ideals in different rings")
    if I.is_zero() or J.is_zero():
        return _seeded(ring, _Basis())
    for small, big in ((I, J), (J, I)):
        if big.contains_ideal(small, budget, config):
            if small.ring.order == ring.order:
                return _seeded(ring, small._entries(budget, config))
            return Ideal(ring, [morph(g, ring) for g in small.gens])
    tag = _fresh_name("u", ring.variables)
    ext = Ring((tag,) + ring.variables,
               block_order([[0]] + [[i + 1 for i in b] for b in ring.order.blocks]))
    u = ext.var(0)
    gens = [u * morph(g, ext) for g in I.groebner_basis(budget, config)]
    gens += [(ext.one() - u) * morph(g, ext) for g in J.groebner_basis(budget, config)]
    elim = eliminate(Ideal(ext, gens), range(1, ext.nvars), budget, config)
    return _seeded(ring, elim._entries())


def colon_poly(I: Ideal, g: Polynomial, budget=None, config=None) -> Ideal:
    """I : (g), computed from the reduced basis of I by signatures (see the
    module docstring); the returned ideal's generators are its reduced
    basis, and that basis is cached under the key of (I, g).  A guard-bit
    hit restarts at twice the field width."""
    ring = I.ring
    if g.ring != ring:
        raise ValueError("polynomial from a different ring")
    if g.is_zero():
        raise ZeroDivisionError("colon by zero polynomial")
    if I.is_zero():
        return _seeded(ring, _Basis())
    config = _settings(budget, config)

    def compute():
        b = budget or config.budget()
        h = to_int_terms(g)
        return _retry_wider(I._entries(b, config), lambda G: _colon_at_width(G, h, b))
    return _seeded(ring, _cached(_colon_key(I._key, g), ring.order.weight_rows(), config,
                                 compute))


def _fold(I: Ideal, J, per_generator, budget, config) -> Ideal:
    """∩ per_generator(g) over the generators g of J (or g = J for a
    polynomial), each an ideal containing I, intersected one by one into a
    running result that stops once it is I."""
    if isinstance(J, Polynomial):
        return per_generator(J)
    if J.is_zero():
        raise ZeroDivisionError("colon by the zero ideal")
    acc: Ideal | None = None
    for g in J.gens:
        c = per_generator(g)
        acc = c if acc is None else intersect(acc, c, budget, config)
        if ideal_equal(I, acc, budget, config):  # I lies in acc
            break
    return acc


def colon(I: Ideal, J, budget=None, config=None) -> Ideal:
    """I : J = ∩ I : g over the generators g of J."""
    return _fold(I, J, lambda g: colon_poly(I, g, budget, config), budget, config)


def saturation(I: Ideal, J, budget=None, config=None) -> Ideal:
    """I : J^∞ = ∩ I : g^∞ over the generators g of J, since a power of J
    lies in (g_1^k, ..., g_s^k).  Each I : g^∞ is the chain of colons
    I : g, (I : g) : g, ..., which grows until a step adds nothing or
    reaches the unit ideal."""
    def chain(g):
        cur = I
        while True:
            nxt = colon_poly(cur, g, budget, config)
            if nxt.is_unit() or ideal_equal(cur, nxt, budget, config):  # cur lies in nxt
                return nxt
            cur = nxt
    return _fold(I, J, chain, budget, config)


def radical_membership(f: Polynomial, I: Ideal, budget=None, config=None) -> bool:
    """f ∈ √I iff I : f^∞ is the unit ideal."""
    if f.ring != I.ring:
        raise ValueError("polynomial from a different ring")
    return f.is_zero() or saturation(I, f, budget, config).is_unit(budget, config)


# ---------------------------------------------------------------------------
# Hilbert series of monomial quotients, dimension, multiplicity

class HilbertData:
    """dimension, multiplicity and the Hilbert numerator N with
    HS(R/I) = N(t) / (1-t)^{#vars}."""

    __slots__ = ("dimension", "multiplicity", "numerator")

    def __init__(self, dimension: int, multiplicity: int, numerator: dict[int, int]):
        self.dimension = dimension
        self.multiplicity = multiplicity
        self.numerator = numerator

    def numerator_string(self) -> str:
        if not self.numerator:
            return "0"
        parts = []
        for d in sorted(self.numerator):
            c = self.numerator[d]
            mono = "1" if d == 0 else ("t" if d == 1 else f"t^{d}")
            body = mono if abs(c) == 1 and d else (str(abs(c)) if d == 0 else f"{abs(c)}*{mono}")
            parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
        return " ".join(parts)

    def __repr__(self):
        return (f"HilbertData(dim={self.dimension}, mult={self.multiplicity}, "
                f"N={self.numerator_string()})")


def _poly_t_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            v = out.get(d, 0) + ca * cb
            if v:
                out[d] = v
            else:
                out.pop(d, None)
    return out


@lru_cache(maxsize=None)
def _degree_rows(nvars: int) -> tuple[tuple, ...]:
    """The one weight row of the degree-first packing: the total degree,
    above the exponents, so integer order is the order of (sum(e), e)
    (no row for no variables)."""
    return ((1,) * nvars,) if nvars else ()


def _hilbert_numerator(gens, pk: _Packing, memo: dict, budget: Budget) -> dict:
    """The Hilbert numerator of the monomial ideal of the packed monomials
    `gens` in the degree-first packing `pk`, whose fields hold every
    monomial met (degrees only fall, but for the pivot variable itself)."""
    gens = tuple(_minimal(gens, pk.guard))  # by degree, then exponents
    if gens in memo:
        return memo[gens]
    budget.tick(1, "Hilbert series")
    if not gens:
        return {0: 1}
    if gens[0] == 0:
        return {}
    supports = [pk.support(g) for g in gens]
    # disjoint supports: Koszul product formula
    seen_vars = 0
    disjoint = True
    for m in supports:
        if m & seen_vars:
            disjoint = False
            break
        seen_vars |= m
    top = pk.width * (len(pk.rows) - 1)  # the degree field
    if disjoint:
        acc = {0: 1}
        for g in gens:
            acc = _poly_t_mul(acc, {0: 1, g >> top: -1})
        memo[gens] = acc
        return acc
    # pivot on the most frequent variable, the first of those
    width = pk.width
    counts = [sum(1 for m in supports if m >> (s + width - 1) & 1) for s in pk._reads]
    piv = counts.index(max(counts))
    # I + (x_piv) and I : x_piv
    bit, unit = 1 << (pk._reads[piv] + width - 1), pk.units[piv]
    plus = tuple(g for g, m in zip(gens, supports) if not m & bit) + (unit,)
    quot = tuple(g - unit if m & bit else g for g, m in zip(gens, supports))
    n_plus = _hilbert_numerator(plus, pk, memo, budget)
    n_quot = _hilbert_numerator(quot, pk, memo, budget)
    out = dict(n_plus)
    for d, c in n_quot.items():
        v = out.get(d + 1, 0) + c
        if v:
            out[d + 1] = v
        else:
            out.pop(d + 1, None)
    memo[gens] = out
    return out


def _divide_out_one_minus_t(num: dict) -> tuple[dict, int]:
    """Write num = (1-t)^c * Q with Q(1) != 0; returns (Q, c)."""
    def at_one(d):
        return sum(d.values())

    c = 0
    cur = dict(num)
    while cur and at_one(cur) == 0:
        # synthetic division by (1 - t): q_d = sum_{j<=d} cur_j
        degs = sorted(cur)
        maxd = degs[-1]
        q: dict = {}
        acc = 0
        for d in range(0, maxd):
            acc += cur.get(d, 0)
            if acc:
                q[d] = acc
        cur = q
        c += 1
    return cur, c


def hilbert_data(I: Ideal, budget=None, config=None) -> HilbertData:
    """Dimension, multiplicity, Hilbert numerator of R/I via in(I), the
    initial ideal in the ring's order."""
    config = _settings(budget, config)
    budget = budget or config.budget()
    nvars = I.ring.nvars
    if I.is_zero():
        return HilbertData(nvars, 1, {0: 1})
    lms = I.leading_monomials(budget, config)
    pk = _Packing.holding(_degree_rows(nvars), max(map(sum, lms)))
    num = _hilbert_numerator([pk.pack(e) for e in lms], pk, {}, budget)
    if not num:
        return HilbertData(-1, 0, {})
    q, c = _divide_out_one_minus_t(num)
    mult = sum(q.values())
    return HilbertData(nvars - c, abs(mult), num)


# ---------------------------------------------------------------------------
# the blowup ring and the symmetric-algebra ideal

def rees_ring(ring: Ring, nforms: int) -> Ring:
    """k[y, x] for `nforms` forms of `ring`: the variables y0.. then those
    of `ring`, in that order, so a term's y exponents are e[:nforms].  The
    order is grevlex with the x variables listed first: on the
    symmetric-algebra ideal, whose generators are linear in y, that keeps
    the bases and colons several times smaller than y-first grevlex."""
    yvars = tuple(f"y{i}" for i in range(nforms))
    n = ring.nvars
    return Ring(yvars + ring.variables,
                MonomialOrder([list(range(nforms, nforms + n)) + list(range(nforms))]))


def symmetric_algebra_ideal(forms: list[Polynomial], syzygy_columns) -> Ideal:
    """Ideal of 1-forms sum_i a_i y_i in k[y, x] from syzygy columns
    (a_0..a_n)."""
    ring = forms[0].ring
    n = len(forms)
    target = rees_ring(ring, n)
    gens = []
    for col in syzygy_columns:
        acc = target.zero()
        for i, a in enumerate(col):
            if not a.is_zero():
                acc = acc + morph(a, target) * target.var(i)
        if not acc.is_zero():
            gens.append(acc)
    return Ideal(target, gens)


# ---------------------------------------------------------------------------
# self-certification

def certify_groebner(I: Ideal, budget=None, config=None) -> bool:
    """All s-polynomials of basis pairs reduce to zero."""
    entries = I._entries(budget, config)
    if not entries:
        return True  # the zero ideal
    budget = budget or _settings(None, config).budget()

    def run(basis) -> bool:
        pk = basis[0].pk
        index = basis.divisor_index()
        for gi, gj in itertools.combinations(basis, 2):
            lt, _ = pk.lift(pk.cofactor(gi.lm, gj.lm), sum(pk.unpack(gi.lm)))
            sp = _spoly(gi, gj, gi.lm + lt)
            if sp and _normal_form_int(sp, index, budget)[0]:
                return False
        return True
    return _retry_wider(entries, run)
