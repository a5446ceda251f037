"""Packed monomials: the packing against tuple keys, the packed
Buchberger engine against the naive division oracles, and its divisor
index and pair criteria against their plain forms."""

import itertools
import math
import operator

import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import groebner
from detlab.config import Budget, ComputationTimeout
from detlab.groebner import (Ideal, _DivisorIndex, _Entry, _Overflow, _Packing, _Pairs,
                             _normal_form_int, _pack_entries, _regular_reduce, _retry_wider,
                             _spoly, certify_groebner, groebner_entries, to_int_terms)
from detlab.polyring import Polynomial, block_order, grevlex, xring
from detlab.syzygy import _module_rows, _onehot
from oracles import (TuplePairs, linear_scan_normal_form, naive_normal_form, naive_spoly,
                     regular_reduce_reference)

_LEX3 = block_order([[0], [1], [2]])


@st.composite
def _block_orders(draw):
    """A block order on 1-6 variables: the identity or a permutation, cut
    into 1..n blocks (one block is grevlex, n singletons are lex)."""
    n = draw(st.integers(1, 6))
    perm = draw(st.just(tuple(range(n))) | st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    return block_order([perm[a:b] for a, b in zip([0] + cuts, cuts + [n])])


@st.composite
def _keyed_terms(draw):
    """(weight rows, tuple key, terms, monomials, rank) for a block order
    (rank 0), or position over term on a free module of rank 1-3 (terms
    onehot(c) + e, key onehot + order key, monomials zero on the one-hot
    slots)."""
    exps = lambda n: st.tuples(*[st.integers(0, 6)] * n)  # noqa: E731
    order = draw(_block_orders())
    if not draw(st.booleans()):
        return order.weight_rows(), order.key, exps(order.nvars), exps(order.nvars), 0
    rank = draw(st.integers(1, 3))
    keyf = order.key
    terms = st.builds(lambda c, e: _onehot(rank, c) + e,
                      st.integers(0, rank - 1), exps(order.nvars))
    monos = st.builds(lambda e: (0,) * rank + e, exps(order.nvars))
    return _module_rows(order, rank), lambda t: t[:rank] + keyf(t[rank:]), terms, monos, rank


def _fits(pk, e):
    """Every field of the exponent tuple e stays below its guard bit."""
    return all(sum(w * v for w, v in zip(row, e)) < 1 << (pk.width - 1) for row in pk.rows)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packing_is_the_order_and_divisibility(data):
    rows, key, terms, monos, _ = data.draw(_keyed_terms())
    a, b, mono = data.draw(terms), data.draw(terms), data.draw(monos)
    pk = _Packing.holding(rows, sum(a) + sum(b) + sum(mono))
    pa, pb, pm = pk.pack(a), pk.pack(b), pk.pack(mono)
    assert (pa < pb) == (key(a) < key(b))
    assert (pa == pb) == (a == b)
    g = pk.guard
    assert (((pb | g) - pa) & g == g) == all(x <= y for x, y in zip(a, b))
    assert pa + pm == pk.pack(tuple(x + y for x, y in zip(a, mono)))
    assert (pa + pm) & g == 0
    assert pk.unpack(pa) == a and pk.unpack(pb) == b


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_sum_past_the_field_width_hits_a_guard_bit(data):
    # never a silent wrap: a sum of two packed monomials either fits every
    # field and is the packed product, or sets a guard bit
    rows, _, terms, _, _ = data.draw(_keyed_terms())
    a, b = data.draw(terms), data.draw(terms)
    pk = _Packing.holding(rows, max(sum(a), sum(b)))
    s = pk.pack(a) + pk.pack(b)
    ab = tuple(x + y for x, y in zip(a, b))
    fits = _fits(pk, ab)
    assert (s & pk.guard == 0) == fits
    if fits:
        assert pk.unpack(s) == ab


def test_pack_refuses_a_monomial_past_the_width():
    pk = _Packing.holding(grevlex(3).weight_rows(), 2)
    with pytest.raises(_Overflow):
        pk.pack((200, 0, 0))
    assert pk.wider().unpack(pk.wider().pack((200, 0, 0))) == (200, 0, 0)


# ---------------------------------------------------------------------------
# the engine against the oracles

_ORDERS = [grevlex(3), _LEX3, block_order([(2, 0, 1)]), block_order([[1], [0, 2]])]


@st.composite
def _small_ideals(draw):
    """2-3 polynomials in 3 variables, 1-3 terms of degree <= 3 each."""
    exps = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 3)
    polys = st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    return draw(st.lists(polys, min_size=2, max_size=3))


def _basis(dicts, order, budget_steps=4000):
    R = xring(3, order=order)
    gens = [to_int_terms(Polynomial(R, d)) for d in dicts]
    try:
        return groebner_entries(gens, order, Budget(step_cap=budget_steps))
    except ComputationTimeout:
        assume(False)


def _narrow(dicts, order, bits):
    """The basis computed with the first field width forced down to `bits`,
    and the width the input alone would get."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_FIELD_BITS", bits)
        top = max(sum(e) for d in dicts for e in d)
        return _basis(dicts, order), _Packing.holding(order.weight_rows(), top).width


@given(_small_ideals(), st.sampled_from(_ORDERS))
@settings(max_examples=60, deadline=None)
def test_engine_matches_naive_division(dicts, order):
    keyf = order.key
    entries = _basis(dicts, order)
    basis = [g.full() for g in entries]
    lts = [max(g, key=keyf) for g in basis]
    assert lts == [g.pk.unpack(g.lm) for g in entries]
    # every generator and every s-polynomial reduces to zero
    for d in dicts:
        assert naive_normal_form(d, basis, keyf) == {}
    for f, g in itertools.combinations(basis, 2):
        assert naive_normal_form(naive_spoly(f, g, keyf), basis, keyf) == {}
    # reduced: no term of an element is divisible by another leading term
    for g, lt in zip(basis, lts):
        for e in g:
            assert not any(all(a <= b for a, b in zip(o, e)) for o in lts if o != lt)
    # a narrow first width gives the same basis; when the basis does not
    # fit that width, a guard hit must have restarted the work wider
    narrow, first = _narrow(dicts, order, 3)
    assert [g.full() for g in narrow] == basis
    if any(sum(w * v for w, v in zip(row, e)) >= 1 << (first - 1)
           for row in narrow[0].pk.rows for g in basis for e in g):
        assert narrow[0].pk.width > first


@pytest.mark.parametrize("dicts", [
    # the leading terms x0*x1^2 and x0^2*x1 fit 3-bit fields, their lcm
    # (degree 4) does not
    [{(1, 2, 0): 1, (0, 0, 1): -1}, {(2, 1, 0): 1, (1, 0, 0): -1}],
    # the lcm x0*x1*x2 fits, but the s-polynomial of x0*x1 - x2^3 and
    # x0*x2 - x1 holds x2^4
    [{(1, 1, 0): 1, (0, 0, 3): -1}, {(1, 0, 1): 1, (0, 1, 0): -1}],
])
def test_a_guard_hit_restarts_with_the_same_basis(dicts):
    narrow, first = _narrow(dicts, _LEX3, 3)
    assert first == 3 and narrow[0].pk.width == 6
    assert [g.full() for g in narrow] == [g.full() for g in _basis(dicts, _LEX3)]


def test_an_s_polynomial_term_past_the_width_is_refused():
    pk = _Packing(_LEX3.weight_rows(), 3)
    g1 = _Entry({pk.pack((1, 1, 0)): 1, pk.pack((0, 0, 3)): -1}, pk, 3)
    g2 = _Entry({pk.pack((1, 0, 1)): 1, pk.pack((0, 1, 0)): -1}, pk, 2)
    top = pk.lcm((1, 1, 0), (1, 0, 1))[0]
    for gi, gj in ((g1, g2), (g2, g1)):  # the term x2^4 of g1's shifted tail does not fit
        with pytest.raises(_Overflow):
            _spoly(gi, gj, top)
    wide = pk.wider()
    w1, w2 = g1.repack(wide), g2.repack(wide)
    sp = _spoly(w1, w2, wide.lcm((1, 1, 0), (1, 0, 1))[0])
    assert {wide.unpack(m): c for m, c in sp.items()} == {(0, 0, 4): -1, (0, 2, 0): 1}
    # the pair's sugar: max(3 + 3 - 2, 2 + 3 - 2)
    pairs = _Pairs(wide)
    pairs.add(w1)
    pairs.add(w2)
    assert pairs.pop() == (4, wide.pack((1, 1, 1)), 0, 1)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_spoly_matches_the_naive_s_polynomial(data):
    # entries of an ideal or module packing whose fields hold their terms
    # and lcm, at the narrowest such widths: the s-polynomial is the
    # oracle's, cleared by lcm(lc_i, lc_j), or _Overflow when a term of
    # either shifted tail does not fit
    rows, key, terms, _, rank = data.draw(_keyed_terms())
    polys = st.dictionaries(terms, st.integers(-4, 4).filter(bool), min_size=1, max_size=4)
    f, g = data.draw(polys), data.draw(polys)
    lf, lg = max(f, key=key), max(g, key=key)
    assume(lf[:rank] == lg[:rank])  # a module pair lies in one component
    lcm = tuple(map(max, lf, lg))
    width = next(w for w in itertools.count(2)
                 if all(_fits(_Packing(rows, w), e) for e in [lcm, *f, *g]))
    pk = _Packing(rows, width + data.draw(st.sampled_from([0, 0, 1, 2])))

    def pack(e):  # field by field, not by the degree bound of `pack`
        return sum(map(operator.mul, e, pk.units))

    gi, gj = (_Entry({pack(e): c for e, c in d.items()}, pk, 0) for d in (f, g))
    fi, fj = gi.full(), gj.full()
    shifted = [tuple(a + b - c for a, b, c in zip(e, lcm, lt))
               for d, lt in ((fi, lf), (fj, lg)) for e in d if e != lt]
    if not all(_fits(pk, e) for e in shifted):
        with pytest.raises(_Overflow):
            _spoly(gi, gj, pack(lcm))
        return
    scale = gi.lc * gj.lc // math.gcd(gi.lc, gj.lc)
    want = {e: v * scale for e, v in naive_spoly(fi, fj, pack).items()}
    assert {pk.unpack(m): c for m, c in _spoly(gi, gj, pack(lcm)).items()} == want


def test_a_guard_hit_in_reduction_restarts():
    # reducing x0^2 by x0 - x1^3 in lex reaches x1^6, past a 3-bit field
    R = xring(2, order=block_order([[0], [1]]))
    x0, x1 = R.gens()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_FIELD_BITS", 3)
        I = Ideal(R, [x0 - x1 ** 3])
        assert I.normal_form(x0 ** 2) == x1 ** 6
        assert I._entries()[0].pk.width == 6


def test_high_degree_queries_widen_the_cached_basis():
    R = xring(2)
    x0, x1 = R.gens()
    I = Ideal(R, [x0 - x1, x1 ** 2 - x1])
    assert str(I.normal_form(x0 ** 300)) == "x1"
    assert I._entries()[0].pk.width > groebner._FIELD_BITS
    assert certify_groebner(I)


# ---------------------------------------------------------------------------
# the divisor index and the pair criteria against their plain forms

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_cofactor_and_the_divisor_search_on_variable_fields(data):
    # the colon's F5 test: the cofactor lcm(a, b) / a in the variable fields
    # alone, and the divisor search on a monomial given on its variable
    # fields, which finds the position that its full packing does
    rows, _, terms, monos, _ = data.draw(_keyed_terms())
    a, b, mono = data.draw(terms), data.draw(terms), data.draw(monos)
    lms = data.draw(st.lists(terms, max_size=6))
    pk = _Packing.holding(rows, sum(a) + sum(b) + sum(mono) + max(map(sum, lms), default=0))
    t = pk.cofactor(pk.pack(a), pk.pack(b))
    want = tuple(max(x, y) - x for x, y in zip(a, b))
    assert pk.unpack(t) == want and t & ~pk.vals == 0
    assert (pk.pack(a) & pk.vals) + t == pk.pack(tuple(map(max, a, b))) & pk.vals
    index = _DivisorIndex(pk, [_Entry({pk.pack(e): 1}, pk, 0) for e in lms])
    keep = data.draw(st.integers(0, (1 << len(lms)) - 1)) if lms else -1
    for m in (a, b, mono):
        pm = pk.pack(m)
        first = next((k for k, e in enumerate(lms)
                      if keep >> k & 1 and all(x <= y for x, y in zip(e, m))), -1)
        assert index.divisor(pm, keep) == index.divisor(pm & pk.vals, keep) == first


def _reduce_both(terms, entries, skip):
    """(indexed, linear scan): each the remainder and scale, or the name of
    the exception, with the ticks spent."""
    out = []
    for reduce in (lambda b: _normal_form_int(terms, _DivisorIndex(entries[0].pk, entries),
                                              b, skip=skip),
                   lambda b: linear_scan_normal_form(terms, entries, b, skip=skip)):
        budget = Budget(step_cap=300)
        try:
            res = reduce(budget)
        except (_Overflow, ComputationTimeout) as exc:
            res = type(exc).__name__
        out.append((res, budget.steps))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_indexed_reduction_is_the_linear_scan(data):
    # same remainder, scale and reduction ticks, under every kind of order,
    # with a left-out basis position, and after _retry_wider widened the basis
    rows, _, terms, _, _ = data.draw(_keyed_terms())
    poly = st.dictionaries(terms, st.integers(-4, 4).filter(bool), min_size=1, max_size=4)
    dicts = data.draw(st.lists(poly, min_size=1, max_size=6))
    f = data.draw(poly)
    skip = data.draw(st.integers(-1, len(dicts) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_FIELD_BITS", data.draw(st.sampled_from([3, 4, 8])))
        entries = _pack_entries(dicts, [0] * len(dicts), rows)
    seen = []

    def run(current):
        pk = current[0].pk
        both = _reduce_both({pk.pack(e): c for e, c in f.items()}, current, skip)
        seen.append(both)
        if both[0][0] == "_Overflow":
            raise _Overflow
        return both
    (indexed, linear) = _retry_wider(entries, run)
    for a, b in seen:
        assert a == b
    assert indexed[0] != "_Overflow"


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_regular_reduction_is_the_plain_scan(data):
    # the colon's reduction returns the same (u, v) and spends the same
    # reduction ticks as a scan of G and then of the labelled elements in
    # list order, under every kind of order, restarting wider on a guard hit
    order = data.draw(_block_orders())
    n, key = order.nvars, order.key
    mono = st.tuples(*[st.integers(0, 3)] * n)
    poly = st.dictionaries(mono, st.integers(-4, 4).filter(bool), min_size=1, max_size=4)

    def positive(d):
        return d if d[max(d, key=key)] > 0 else {e: -c for e, c in d.items()}
    G = [positive(d) for d in data.draw(st.lists(poly, max_size=4))]
    labelled = [(s, uk, positive(vk))
                for s, uk, vk in data.draw(st.lists(st.tuples(mono, poly, poly), max_size=4))]
    u, v, sig = data.draw(poly), data.draw(poly), data.draw(mono)

    def outcome(reduce):
        budget = Budget(step_cap=200)
        try:
            res = reduce(budget)
        except ComputationTimeout:
            res = "timeout"
        return res, budget.steps

    def engine(pk, budget):
        def pack(d):
            return {pk.pack(e): c for e, c in d.items()}
        gidx = _DivisorIndex(pk, [_Entry(pack(g), pk, 0) for g in G])
        lidx = _DivisorIndex(pk, [_Entry(pack(vk), pk, 0) for _, _, vk in labelled])
        got = _regular_reduce(pack(u), pack(v), pk.pack(sig), gidx, lidx,
                              [pk.pack(s) for s, _, _ in labelled],
                              [pack(uk) for _, uk, _ in labelled], budget)
        return tuple({pk.unpack(m): c for m, c in d.items()} for d in got)

    pk = _Packing.holding(order.weight_rows(), 3 * n)
    while True:
        try:
            got = outcome(lambda b: engine(pk, b))
            break
        except _Overflow:
            pk = pk.wider()
    assert got == outcome(lambda b: regular_reduce_reference(u, v, sig, G, labelled, key, b))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packed_pair_criteria_keep_the_tuple_pairs(data):
    rows, key, terms, _, rank = data.draw(_keyed_terms())
    lts = data.draw(st.lists(terms, min_size=1, max_size=10))
    sugars = [sum(t) + data.draw(st.integers(0, 2)) for t in lts]
    pk = _Packing.holding(rows, 2 * max(map(sum, lts)))
    packed, plain = _Pairs(pk, rank), TuplePairs(key, rank)
    for lt, sugar in zip(lts, sugars):
        packed.add(_Entry({pk.pack(lt): 1}, pk, sugar))
        plain.add(lt, sugar)
        assert {ij: pk.unpack(lk) for ij, lk in packed.live.items()} == plain.pairs
    while (pair := packed.pop()) is not None:
        sugar, lk, i, j = pair
        assert plain.pop() == (sugar, pk.unpack(lk), i, j)
    assert plain.pop() is None


def test_an_lcm_past_the_width_raises_overflow():
    pk = _Packing(_LEX3.weight_rows(), 3)
    pairs = _Pairs(pk)
    pairs.add(_Entry({pk.pack((1, 2, 0)): 1}, pk, 3))
    with pytest.raises(_Overflow):
        pairs.add(_Entry({pk.pack((2, 1, 0)): 1}, pk, 3))  # lcm x0^2*x1^2
