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
grevlex itself, and the elimination orders that `eliminate`, `intersect`
and `rees_ideal` put on a ring of their own.  Rings compare by variable
names, so the generators of one ring serve another that differs only in
its order.

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
that hold a nonzero exponent, ((m | guard) - low) & var_guard.  The bases
leave the engine as exponent-tuple dicts.

A reduction looks up a term's divisor in a divisor index
(`_DivisorIndex`): for each support mask of a term, a bitset of the basis
positions whose leading monomial's support lies inside it.  The first of
those bits, from the low end, whose entry passes the exact test is the
divisor a scan of the basis in order would pick, so remainders and work
counts do not depend on the index.  An index belongs to one basis list:
a Buchberger run extends it as the basis grows, a restart at a wider width
builds a new one, and it is dropped when the run or the normal form ends.

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
its lm(v).  The leading term of v is reduced regularly: by G always, by a
labelled element only below the pair's signature.  A v that reaches 0
gives u in I : g, and G with those u is a Groebner basis of I : g, so only
the pairs that yield colon elements reduce to zero.

An intersection I ∩ J is the smaller ideal when one contains the other,
which normal forms against the two bases decide; only otherwise is it the
tag-variable elimination (u*I + (1-u)*J) ∩ k[x].  The colon by an ideal,
∩ I : g over its generators, meets mostly nested pairs.  Every ideal that
`colon_poly`, `intersect` or `eliminate` returns is generated by its
reduced basis, already set on it (`_seeded`), so no query recomputes what
the engine has just produced.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import tempfile
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul

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
    an appended one); `var_guard` holds the guard bits of those fields and
    `low` the lowest bit of every field.
    """

    __slots__ = ("rows", "width", "units", "guard", "low", "var_guard",
                 "_reads", "_half", "_wmax")

    def __init__(self, rows: list[tuple], width: int):
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
        self._half = 1 << (width - 1)
        self._wmax = max((max(row) for row in rows), default=0)

    @classmethod
    def holding(cls, rows: list[tuple], degree: int) -> "_Packing":
        """The narrowest packing whose fields hold every monomial of at most
        the given total degree."""
        pk = cls(rows, _FIELD_BITS)
        while not pk.fits(degree):
            pk = pk.wider()
        return pk

    def wider(self) -> "_Packing":
        return _Packing(self.rows, 2 * self.width)

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
        return tuple((m >> s) & low for s in self._reads)

    def support(self, m: int) -> int:
        """The guard bits of the fields holding a nonzero exponent of m; a
        monomial divides m only if its support lies inside this one."""
        return ((m | self.guard) - self.low) & self.var_guard

    def lcm(self, a: int, b: int) -> int:
        return self.pack(tuple(map(max, self.unpack(a), self.unpack(b))))


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


def _pack_entries(dicts: list[dict], sugars: list[int], rows: list[tuple]) -> list[_Entry]:
    """Entries of exponent-tuple term dicts, at the narrowest width that
    holds all of their monomials."""
    pk = _Packing.holding(rows, max((sum(e) for d in dicts for e in d), default=0))
    return [_Entry({pk.pack(e): c for e, c in d.items()}, pk, s)
            for d, s in zip(dicts, sugars)]


def _retry_wider(entries: list[_Entry], run):
    """run(entries) on a copy of the list; after a guard-bit hit, repack the
    entries at twice the width, store them back into the list (so later
    queries start wide enough) and run again."""
    current = list(entries)
    while True:
        try:
            return run(current)
        except _Overflow:
            pk = current[0].pk.wider()
            current = [g.repack(pk) for g in current]
            entries[:] = current


class _DivisorIndex:
    """The divisor search of one basis list, in one packing.

    For the support mask s of a term (`_Packing.support`), `candidates(s)`
    is a bitset of the basis positions whose leading monomial's support lies
    inside s, built on first use: only those can divide the term.  Walking
    its bits from low to high and taking the first position that passes the
    exact packed test finds the divisor that a scan of the basis in order
    finds.  `append` extends the basis and every bitset built so far.
    """

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


def _reduce_terms(terms: dict, basis: list[_Entry], budget: Budget | None,
                  what: str = "polynomial reduction") -> tuple[dict, int]:
    """_normal_form_int of an exponent-tuple term dict; the remainder is
    keyed by exponent tuples too."""
    if not basis:
        return dict(terms), 1
    budget = budget or DEFAULT_CONFIG.budget()

    def run(entries):
        pk = entries[0].pk
        rem, scale = _normal_form_int({pk.pack(e): c for e, c in terms.items()},
                                      _DivisorIndex(pk, entries), budget, what=what)
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
    pk = index.pk
    guard, low, var_guard = pk.guard, pk.low, pk.var_guard
    table, lms, entries = index.table, index.lms, index.entries
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
        mg = m | guard
        s = (mg - low) & var_guard
        bits = table.get(s)
        if bits is None:
            bits = index.candidates(s)
        bits &= keep
        red = None
        while bits:
            b = bits & -bits
            k = b.bit_length() - 1
            if (mg - lms[k]) & guard == guard:
                red = entries[k]
                break
            bits ^= b
        if red is None:
            out[m] = c
            continue
        budget.tick(1, what)
        d = gcd(abs(c), red.lc)
        mult = c // d
        sc = red.lc // d
        if sc != 1:
            scale *= sc
            for k in coeffs:
                coeffs[k] *= sc
            for k in out:
                out[k] *= sc
            scale_events += 1
            if scale_events % 32 == 0 and abs(scale) > 1 << 2048:
                # strip only factors shared with the scalar, keeping the
                # invariant scale * input == remainder exact
                g = abs(scale)
                for v in coeffs.values():
                    g = gcd(g, abs(v))
                    if g == 1:
                        break
                if g > 1:
                    for v in out.values():
                        g = gcd(g, abs(v))
                        if g == 1:
                            break
                if g > 1:
                    for k in coeffs:
                        coeffs[k] //= g
                    for k in out:
                        out[k] //= g
                    scale //= g
        shift = m - red.lm
        for tm, tc in red.tail.items():
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
    return out, scale


def _spoly(gi: _Entry, gj: _Entry, top: int) -> dict:
    """Integer s-polynomial (packed) of two entries whose leading monomials
    have the packed lcm `top`."""
    guard = gi.pk.guard
    d = gcd(gi.lc, gj.lc)
    mi = gj.lc // d
    mj = gi.lc // d
    si = top - gi.lm
    sj = top - gj.lm
    out: dict = {}
    for m, c in gi.tail.items():
        out[m + si] = mi * c
    for m, c in gj.tail.items():
        nm = m + sj
        v = out.get(nm, 0) - mj * c
        if v:
            out[nm] = v
        else:
            out.pop(nm, None)
    if any(m & guard for m in out):
        raise _Overflow
    return out


class _Pairs:
    """The critical pairs of a growing basis under the normal (sugar)
    selection strategy and Gebauer and Möller's criteria, all on packed
    lcms.

    `add(h)` pairs a new element with every earlier one of its component
    (rank r > 0: the first r exponents are the one-hot component slots).
    Among the new pairs it drops each whose lcm another new lcm properly
    divides, those coprime to h, and all but the first of equal lcms (a
    coprime pair kills the later ones of its lcm).  An old pair (i, j)
    goes when lm(h) divides its lcm and differs from lcm(i, h) and
    lcm(j, h).  `pop()` returns the next live pair as (sugar, lcm, i, j)
    with i < j, or None.  An lcm past the packing raises _Overflow.
    """

    __slots__ = ("pk", "rank", "exps", "degs", "comps", "masks", "sugars",
                 "live", "heap")

    def __init__(self, pk: _Packing, rank: int = 0):
        self.pk = pk
        self.rank = rank
        self.exps: list[tuple] = []  # leading exponents, for the lcms only
        self.degs: list[int] = []
        self.comps: list[tuple] = []
        self.masks: list[int] = []
        self.sugars: list[int] = []
        self.live: dict[tuple, int] = {}  # (i, j) -> packed lcm
        self.heap: list = []

    def add(self, h: _Entry) -> None:
        pk = self.pk
        guard, units = pk.guard, pk.units
        eh = pk.unpack(h.lm)
        dh = sum(eh)
        comp = eh[:self.rank]
        comps = self.comps
        new: dict[int, int] = {}  # i -> packed lcm(lm_i, lm_h)
        new_degs: dict[int, int] = {}
        for i, ei in enumerate(self.exps):
            if comps[i] == comp:
                lt = tuple(map(max, ei, eh))
                d = sum(lt)
                if not pk.fits(d):
                    raise _Overflow
                new[i] = sum(map(mul, lt, units))
                new_degs[i] = d
        # the chain criterion among the new pairs: walking the distinct lcms
        # upwards, an lcm is properly divisible by another iff by a minimal one
        minimal: list[int] = []
        divisible = set()
        for lk in sorted(set(new.values())):
            lg = lk | guard
            if any((lg - a) & guard == guard for a in minimal):
                divisible.add(lk)
            else:
                minimal.append(lk)
        masks, hmask = self.masks, h.mask
        seen: dict[int, int] = {}
        kept = []
        for i, lk in new.items():
            if lk in divisible:
                continue
            if not masks[i] & hmask:
                seen.setdefault(lk, -1)  # coprime kills the later ones of its lcm
            elif lk not in seen:
                seen[lk] = i
                kept.append(i)
        # the old pairs: drop (i, j) when lm(h) divides lcm(i, j) and that
        # lcm is neither lcm(i, h) nor lcm(j, h)
        hl = h.lm
        live = self.live
        dead = [ij for ij, lk in live.items()
                if ((lk | guard) - hl) & guard == guard
                and new[ij[0]] != lk and new[ij[1]] != lk]
        for ij in dead:
            del live[ij]
        n = len(self.exps)
        for i in kept:
            lk, d = new[i], new_degs[i]
            sugar = max(self.sugars[i] + d - self.degs[i], h.sugar + d - dh)
            live[(i, n)] = lk
            heappush(self.heap, (sugar, lk, i, n))
        self.exps.append(eh)
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


def groebner_entries(int_gens: list[dict], order: MonomialOrder, budget: Budget) -> list[_Entry]:
    """Reduced Groebner basis as integer entries (primitive, positive lc)."""
    dicts = [_content_strip(dict(d)) for d in int_gens if d]
    seeds = _pack_entries(dicts, [max(sum(e) for e in d) for d in dicts], order.weight_rows())
    seeds.sort(key=lambda g: (g.lm, sorted((g.pk.unpack(m), c) for m, c in g.tail.items())))
    return _buchberger(seeds, budget)


def _buchberger(seeds: list[_Entry], budget: Budget, rank: int = 0) -> list[_Entry]:
    """Reduced Groebner basis of the seed entries, taken in the given order.

    With rank r > 0 the terms are those of a free module of rank r (see the
    module docstring): pairs form only between leading terms in the same
    component, and the work is counted under the module labels.  A guard-bit
    hit restarts the whole computation at twice the field width.
    """
    if not seeds:
        return []
    return _retry_wider(seeds, lambda entries: _buchberger_at_width(entries, budget, rank))


def _buchberger_at_width(seeds: list[_Entry], budget: Budget, rank: int) -> list[_Entry]:
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


def _reduced(basis: list[_Entry], budget: Budget, what: str) -> list[_Entry]:
    """The reduced basis of the ideal of a Groebner basis (entries of one
    packing), sorted by leading monomial."""
    pk = basis[0].pk
    # minimalize: drop entries whose lm is divisible by another kept lm
    guard = pk.guard
    minimal: list[_Entry] = []
    for g in sorted(basis, key=lambda g: g.lm):
        lg = g.lm | guard
        if not any((lg - k.lm) & guard == guard for k in minimal):
            minimal.append(g)
    # tail-reduce each against the others (reduced basis)
    index = _DivisorIndex(pk, minimal)
    reduced: list[_Entry] = []
    for pos, g in enumerate(minimal):
        rem, _ = _normal_form_int(g.packed(), index, budget, skip=pos, what=what)
        reduced.append(_Entry(_content_strip(rem), pk, g.sugar))
    reduced.sort(key=lambda g: g.lm)
    return reduced


# ---------------------------------------------------------------------------
# the colon I : g by signatures (G2V)

def _first_divisor(index: _DivisorIndex, m: int) -> int:
    """The first basis position of the index whose leading monomial divides
    the packed monomial m, or -1."""
    guard = index.pk.guard
    mg = m | guard
    s = index.pk.support(m)
    bits = index.table.get(s)
    if bits is None:
        bits = index.candidates(s)
    lms = index.lms
    while bits:
        b = bits & -bits
        k = b.bit_length() - 1
        if (mg - lms[k]) & guard == guard:
            return k
        bits ^= b
    return -1


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
    Raises _Overflow when a new term does not fit the packing.
    """
    pk = gidx.pk
    guard = pk.guard
    llms = lidx.lms
    u = dict(u)
    coeffs = dict(v)
    heap = [-m for m in coeffs]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = coeffs.get(m)
        if c is None:
            continue
        k = _first_divisor(gidx, m)
        red = gidx.entries[k] if k >= 0 else None
        label = None
        if red is None:
            mg = m | guard
            s = pk.support(m)
            bits = lidx.table.get(s)
            if bits is None:
                bits = lidx.candidates(s)
            while bits:
                b = bits & -bits
                k = b.bit_length() - 1
                lm = llms[k]
                if (mg - lm) & guard == guard and m - lm + sigs[k] < sig:
                    red, label = lidx.entries[k], us[k]
                    break
                bits ^= b
            if red is None:
                return u, coeffs
        budget.tick(1, "polynomial reduction")
        del coeffs[m]
        d = gcd(abs(c), red.lc)
        mult = c // d
        sc = red.lc // d
        if sc != 1:
            for k in coeffs:
                coeffs[k] *= sc
            for k in u:
                u[k] *= sc
        shift = m - red.lm
        for tm, tc in red.tail.items():
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
        if label is not None:
            for tm, tc in label.items():
                nm = tm + shift
                if nm & guard:
                    raise _Overflow
                nv = u.get(nm, 0) - mult * tc
                if nv:
                    u[nm] = nv
                else:
                    del u[nm]
    return u, coeffs


def _colon_at_width(G: list[_Entry], g: dict, budget: Budget) -> list[_Entry]:
    """Reduced Groebner basis of I : g as entries of the packing of G, the
    reduced basis of I, for g a nonzero exponent-tuple integer term dict."""
    pk = G[0].pk
    guard, units = pk.guard, pk.units
    gidx = _DivisorIndex(pk, G)
    gexps = [pk.unpack(e.lm) for e in G]
    # the labelled elements (u, v) with v != 0: signature lm(u), label u,
    # and v as the entries of lidx
    lidx = _DivisorIndex(pk)
    sigs: list[int] = []
    us: list[dict] = []
    vexps: list[tuple] = []
    found: list[tuple] = []  # (signature, label u) of the pairs whose v reached 0
    heap: list[tuple] = []  # J-pairs (signature, lcm, element)

    def lcm(a: tuple, b: tuple) -> int:
        lt = tuple(map(max, a, b))
        if not pk.fits(sum(lt)):
            raise _Overflow
        return sum(map(mul, lt, units))

    def push(sig: int, top: int, i: int) -> None:
        if sig & guard:
            raise _Overflow
        if _first_divisor(gidx, sig) < 0:  # else a multiple of a syzygy (h, 0), h in I
            heappush(heap, (sig, top, i))

    def add(sig: int, u: dict, v: dict) -> None:
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
        eh = pk.unpack(h.lm)
        n = len(sigs)
        for ek in gexps:
            top = lcm(eh, ek)
            push(top - h.lm + sig, top, n)
        for j, ej in enumerate(vexps):
            top = lcm(eh, ej)
            sh, sj = top - h.lm + sig, top - lidx.lms[j] + sigs[j]
            if sh != sj:
                push(*((sh, top, n) if sh > sj else (sj, top, j)))
        sigs.append(sig)
        us.append(u)
        vexps.append(eh)
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
        u = {m + t: c for m, c in us[i].items()}
        v = {m + t: c for m, c in lidx.entries[i].packed().items()}
        if any(m & guard for m in itertools.chain(u, v)):
            raise _Overflow
        add(sig, *_regular_reduce(u, v, sig, gidx, lidx, sigs, us, budget))
    return _reduced(G + [_Entry(u, pk, 0) for _, u in found], budget, "polynomial reduction")


# ---------------------------------------------------------------------------
# GB cache (in-memory + optional content-addressed disk cache)
#
# Both levels share one key: a hash of the coefficient field, the variable
# names, the order and the sorted, deduplicated term items of the
# generators.  The reduced basis of a colon I : g is stored the same way
# under a key of "colon", the key of I and the terms of g.  The memory
# cache holds the engine's own entry lists (shared by every Ideal with that
# key; `_retry_wider` widens them in place).  A
# `.gb` file holds the same entries with no polynomial text: a header line
# with the format version and the sha256 of the key and the rest, then one
# line per entry, its primitive integer terms (positive leading
# coefficient, content 1) as groups `c e_1 ... e_n` of decimal ints, the
# leading term first.  It is written after a computation and read back
# with int() alone.  A file with another header, a wrong checksum (a record
# copied under another key's name has one) or a line that is no such
# record is never trusted: the basis is recomputed and rewritten.

_MEMORY_CACHE: dict[str, list[_Entry]] = {}

_DISK_FORMAT = b"detlab-gb 3"  # 2 held polynomial text; the first had no header


def _disk_header(key: str, body: bytes) -> bytes:
    digest = hashlib.sha256(key.encode() + b"\n" + body).hexdigest()
    return _DISK_FORMAT + b" sha256=" + digest.encode() + b"\n"


def _cache_key(ring: Ring, gens: list[Polynomial]) -> str:
    body = sorted({tuple(sorted(g.terms.items())) for g in gens})
    # "QQ" names the one coefficient field; it stays so that keys and file
    # names written by earlier versions still match
    return hashlib.sha256(repr(("QQ", ring.variables, ring.order.id, body)).encode()).hexdigest()


def _colon_key(ideal_key: str, g: Polynomial) -> str:
    """The key of I : g, from the key of I (which covers the variable
    names, the order and the generators) and the terms of g."""
    key = ("colon", ideal_key, tuple(sorted(g.terms.items())))
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _settings(budget: Budget | None, config: Config | None) -> Config:
    """The config passed, else the one the budget was built from, else the default."""
    return config or (budget.config if budget is not None else DEFAULT_CONFIG)


def _cached(key: str, order: MonomialOrder, config: Config, compute) -> list[_Entry]:
    """The entries stored under the key in the memory cache or the disk
    cache, or else compute() and store them in both."""
    entries = _MEMORY_CACHE.get(key)
    if entries is None and config.cache_dir:
        entries = _disk_get(config.cache_dir, key, order)
    fresh = entries is None
    if fresh:
        entries = compute()
    _MEMORY_CACHE[key] = entries
    if fresh and config.cache_dir:
        _disk_put(config.cache_dir, key, entries)
    return entries


def _disk_get(cache_dir: str, key: str, order: MonomialOrder) -> list[_Entry] | None:
    """The cached basis, or None when the file is missing, has another
    format or checksum, or holds a line that is no record of a nonzero
    polynomial in the order's variables."""
    path = os.path.join(cache_dir, key + ".gb")
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            body = fh.read()
    except OSError:
        return None
    if header != _disk_header(key, body):
        return None
    nvars = order.nvars
    step = nvars + 1
    dicts = []
    try:
        for line in body.splitlines():
            ints = list(map(int, line.split()))  # ValueError on a non-integer token
            coeffs = ints[::step]
            del ints[::step]
            if not coeffs or len(ints) != nvars * len(coeffs) or 0 in coeffs \
                    or min(ints, default=0) < 0:
                return None
            d = dict(zip(zip(*[iter(ints)] * nvars), coeffs))
            if len(d) != len(coeffs):
                return None
            dicts.append(d)
    except ValueError:
        return None
    if not dicts:
        return None
    return _pack_entries(dicts, [max(map(sum, d)) for d in dicts], order.weight_rows())


def _disk_put(cache_dir: str, key: str, entries: list[_Entry]) -> None:
    lines = []
    for g in entries:
        unpack = g.pk.unpack
        ints = []
        for m, c in sorted(g.packed().items(), reverse=True):
            ints.append(c)
            ints.extend(unpack(m))
        lines.append(" ".join(map(str, ints)) + "\n")
    body = "".join(lines).encode()
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".gb")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_disk_header(key, body) + body)
        os.replace(tmp, path)  # atomic single-writer discipline
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Ideal

class Ideal:
    """Generator list plus the reduced Groebner basis in the ring's order,
    computed on first use."""

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
        self.gens = list(clean)
        self._gb: list[_Entry] | None = None  # entries of the reduced basis
        self._monic: list[Polynomial] | None = None  # built on the first groebner_basis

    def __repr__(self):
        show = ", ".join(str(g) for g in self.gens[:4])
        more = "" if len(self.gens) <= 4 else f", ... ({len(self.gens)} gens)"
        return f"Ideal({show}{more})"

    def is_zero(self) -> bool:
        return not self.gens

    def groebner_basis(self, budget: Budget | None = None,
                       config: Config | None = None) -> list[Polynomial]:
        """Reduced (monic) Groebner basis in the ring's order."""
        if self._monic is None:
            self._monic = [e.monic(self.ring) for e in self._entries(budget, config)]
        return self._monic

    @cached_property
    def _key(self) -> str:
        return _cache_key(self.ring, self.gens)

    def _entries(self, budget=None, config=None) -> list[_Entry]:
        """The engine's entries of the reduced basis, from this ideal, the
        memory cache, the disk cache or a computation, in that order."""
        if self._gb is None:
            config = _settings(budget, config)
            order = self.ring.order

            def compute():
                return groebner_entries([to_int_terms(g) for g in self.gens], order,
                                        budget or config.budget())
            self._gb = _cached(self._key, order, config, compute) if self.gens else []
        return self._gb

    def normal_form(self, f: Polynomial, budget: Budget | None = None,
                    config: Config | None = None) -> Polynomial:
        """Canonical remainder of f under full reduction."""
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        entries = self._entries(budget, config)
        if f.is_zero() or not entries:
            return f
        budget = budget or _settings(None, config).budget()
        ints, den = clear_denominators(f.terms.items())
        rem, scale = _reduce_terms(ints, entries, budget)
        total = den * scale
        return Polynomial(self.ring, {e: Fraction(c, total) for e, c in rem.items()})

    def contains(self, f: Polynomial, budget=None, config=None) -> bool:
        return self.normal_form(f, budget, config).is_zero()

    def contains_ideal(self, other: "Ideal", budget=None, config=None) -> bool:
        return all(self.contains(g, budget, config) for g in other.gens)

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


def ideal_equal(I: Ideal, J: Ideal, budget=None, config=None) -> bool:
    """Mutual membership of generators."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    return I.contains_ideal(J, budget, config) and J.contains_ideal(I, budget, config)


# ---------------------------------------------------------------------------
# elimination, intersection, colon, saturation

def _fresh_names(base: str, count: int, taken) -> list[str]:
    out = []
    i = 0
    while len(out) < count:
        name = base if i == 0 else f"{base}{i}"
        if name not in taken:
            out.append(name)
        i += 1
    return out


def _seeded(ring: Ring, entries: list[_Entry]) -> Ideal:
    """The ideal generated by the reduced basis `entries` in the ring's
    order, with that basis already set on it, so no query computes it again."""
    out = Ideal(ring, [e.monic(ring) for e in entries])
    out._gb = entries
    out._monic = out.gens
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
    """I ∩ J, generated by its reduced basis.  When one ideal contains the
    other (normal forms against the two bases), that is the smaller one;
    otherwise the tag-variable elimination (u*I + (1-u)*J) ∩ k[x] in a
    ring whose order is the tag block before the ring's own blocks."""
    ring = I.ring
    if J.ring != ring:
        raise ValueError("ideals in different rings")
    if I.is_zero() or J.is_zero():
        return _seeded(ring, [])
    for small, big in ((I, J), (J, I)):
        if big.contains_ideal(small, budget, config):
            return _seeded(ring, small._entries(budget, config))
    tag = _fresh_names("u", 1, ring.variables)[0]
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
        return _seeded(ring, [])
    config = _settings(budget, config)

    def compute():
        b = budget or config.budget()
        h = to_int_terms(g)
        return _retry_wider(I._entries(b, config), lambda G: _colon_at_width(G, h, b))
    return _seeded(ring, _cached(_colon_key(I._key, g), ring.order, config, compute))


def colon(I: Ideal, J, budget=None, config=None) -> Ideal:
    """I : J = ∩ I : g over the generators g of J (or of its reduced basis,
    if that is shorter), intersected one by one into a running result."""
    if isinstance(J, Polynomial):
        return colon_poly(I, J, budget, config)
    if J.is_zero():
        raise ZeroDivisionError("colon by the zero ideal")
    gens = J.groebner_basis(budget, config)
    if len(J.gens) < len(gens):
        gens = J.gens
    acc: Ideal | None = None
    for g in gens:
        c = colon_poly(I, g, budget, config)
        acc = c if acc is None else intersect(acc, c, budget, config)
        # the result always contains I; once acc == I it cannot shrink further
        if I.contains_ideal(acc, budget, config):
            break
    return acc


def saturation(I: Ideal, J, budget=None, config=None) -> tuple[Ideal, int]:
    """Stabilized iterated colon; returns (saturation, number of steps)."""
    steps = 0
    cur = I
    while True:
        nxt = colon(cur, J, budget, config)
        steps += 1
        if ideal_equal(nxt, cur, budget, config):
            return cur, steps
        cur = nxt


def radical_membership(f: Polynomial, I: Ideal, budget=None, config=None) -> bool:
    """True iff 1 ∈ I + (1 - w*f) in the ring extended by a tag variable."""
    ring = I.ring
    if f.is_zero():
        return True
    tag = _fresh_names("w", 1, ring.variables)[0]
    ext = Ring(ring.variables + (tag,))
    w = ext.var(ext.nvars - 1)
    gens = [morph(g, ext) for g in I.gens]
    gens.append(ext.one() - w * morph(f, ext))
    return Ideal(ext, gens).is_unit(budget, config)


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


def _divides(a: tuple, b: tuple) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mask(e: tuple) -> int:
    m = 0
    for i, v in enumerate(e):
        if v:
            m |= 1 << i
    return m


def _minimalize_monomials(gens) -> tuple:
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


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


def _hilbert_numerator(gens: tuple, nvars: int, memo: dict, budget: Budget) -> dict:
    gens = _minimalize_monomials(gens)
    if gens in memo:
        return memo[gens]
    budget.tick(1, "Hilbert series")
    if not gens:
        return {0: 1}
    if any(sum(e) == 0 for e in gens):
        return {}
    # disjoint supports: Koszul product formula
    seen_vars = 0
    disjoint = True
    for e in gens:
        m = _mask(e)
        if m & seen_vars:
            disjoint = False
            break
        seen_vars |= m
    if disjoint:
        acc = {0: 1}
        for e in gens:
            acc = _poly_t_mul(acc, {0: 1, sum(e): -1})
        memo[gens] = acc
        return acc
    # pivot on the most frequent variable
    counts = [0] * nvars
    for e in gens:
        for i, v in enumerate(e):
            if v:
                counts[i] += 1
    piv = max(range(nvars), key=lambda i: counts[i])
    # I + (x_piv) and I : x_piv
    plus = tuple(e for e in gens if not e[piv]) + (
        tuple(1 if i == piv else 0 for i in range(nvars)),)
    quot = tuple(e[:piv] + (e[piv] - 1 if e[piv] else 0,) + e[piv + 1:] for e in gens)
    n_plus = _hilbert_numerator(plus, nvars, memo, budget)
    n_quot = _hilbert_numerator(quot, nvars, memo, budget)
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
    num = _hilbert_numerator(tuple(lms), nvars, {}, budget)
    if not num:
        return HilbertData(-1, 0, {})
    q, c = _divide_out_one_minus_t(num)
    mult = sum(q.values())
    return HilbertData(nvars - c, abs(mult), num)


# ---------------------------------------------------------------------------
# Rees ideal by tag elimination

def rees_ring(ring: Ring, nforms: int) -> Ring:
    yvars = tuple(f"y{i}" for i in range(nforms))
    return Ring(yvars + ring.variables)


def rees_ideal(forms: list[Polynomial], budget=None, config=None) -> Ideal:
    """Blowup-equation ideal in k[y, x] (y_i for forms[i]): the kernel of
    y_i -> t*f_i, by eliminating t with block order t >> y >> x."""
    if not forms:
        raise ValueError("need at least one form")
    ring = forms[0].ring
    degs = {f.degree for f in forms}
    if len(degs) != 1 or not all(f.is_homogeneous() for f in forms):
        raise ValueError("forms must be homogeneous of one degree")
    n = len(forms)
    nvars = 1 + n + ring.nvars
    ext = Ring(("t",) + tuple(f"y{i}" for i in range(n)) + ring.variables,
               block_order([[0], range(1, n + 1), range(n + 1, nvars)]))
    t = ext.var(0)
    gens = [ext.var(1 + i) - t * morph(f, ext) for i, f in enumerate(forms)]
    target = rees_ring(ring, n)
    out = []
    for g in Ideal(ext, gens).groebner_basis(budget, config):
        if 0 not in g.support_vars():
            out.append(morph(g, target))
    return Ideal(target, out)


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
    budget = budget or _settings(None, config).budget()

    def run(basis) -> bool:
        pk = basis[0].pk
        index = _DivisorIndex(pk, basis)
        for gi, gj in itertools.combinations(basis, 2):
            sp = _spoly(gi, gj, pk.lcm(gi.lm, gj.lm))
            if sp and _normal_form_int(sp, index, budget)[0]:
                return False
        return True
    return _retry_wider(entries, run)
