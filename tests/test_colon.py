"""The signature colon `colon_poly`: against the tag-variable oracle, on the
cat-4-3 prime, through the GB cache, across restarts and under budgets; the
colon by an ideal and `intersect` against the tag-variable intersection;
saturation and radical membership, chains of colons, against the rounds of
tag-variable colons and the Rabinowitsch test; and the reduced bases that
ideal results carry."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import groebner, polar
from detlab.config import Budget, ComputationTimeout, Config
from detlab.groebner import (Ideal, colon, colon_poly, ideal_power, ideal_product,
                             radical_membership, saturation, symmetric_algebra_ideal,
                             _colon_key, _MEMORY_CACHE)
from detlab.hankelplucker import reduction_conjecture_check
from detlab.polyring import Polynomial, format_polynomial, grevlex, morph, xring
from detlab.structmat import (build_gp_associated, build_structured, determinant,
                              minors_ideal_gens)
from detlab.syzygy import first_syzygy_module
from oracles import (lex, membership_equal, rabinowitsch_radical_membership,
                     rounds_saturation, tag_colon, tag_intersect)
from test_groebner import _LabelBudget, _disk_records, _fresh_process

CAT43_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "cat43-colon.json"


def hankel3():
    """Gradient ideal J of the 3x3 Hankel determinant and the minor
    x1*x3 - x2^2, whose colon is the maximal ideal."""
    H = build_structured("hankel", m=3)
    f = determinant(H)
    return Ideal(H.ring, [f.diff(i) for i in range(5)]), H.ring.from_string("x1*x3 - x2^2")


def strings(ideal, config=None):
    return [format_polynomial(g) for g in ideal.groebner_basis(config=config)]


# ---------------------------------------------------------------------------
# against the tag-variable colon

_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


def _monomials(n, degree):
    """The exponent vectors of the given total degree in n variables."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _poly(data, R, homogeneous, nvars, max_terms=3):
    """A nonzero polynomial in the first nvars variables of R: homogeneous
    of a drawn degree 1..3, or with terms of degree 0..2."""
    degree = data.draw(st.integers(1, 3))
    pool = (_monomials(nvars, degree) if homogeneous
            else [e for d in range(3) for e in _monomials(nvars, d)])
    pad = (0,) * (R.nvars - nvars)
    terms = data.draw(st.dictionaries(st.sampled_from(pool), _COEFFS,
                                      min_size=1, max_size=max_terms))
    return Polynomial(R, {e + pad: c for e, c in terms.items()})


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_the_colon_matches_the_tag_variable_colon(data):
    n = data.draw(st.integers(2, 3))
    R = xring(n, data.draw(st.sampled_from([grevlex(n), lex(n)])))
    homogeneous = data.draw(st.booleans())
    kind = data.draw(st.sampled_from(["any", "member", "nonzerodivisor", "constant"]))
    # a nonzerodivisor: the last variable (plus one, for inhomogeneous
    # input) against an ideal of the other variables
    nvars = n - 1 if kind == "nonzerodivisor" else n
    gens = [_poly(data, R, homogeneous, nvars) for _ in range(data.draw(st.integers(1, 3)))]
    if kind == "any":
        g = _poly(data, R, homogeneous, n)
    elif kind == "member":
        g = sum((_poly(data, R, homogeneous, n, 2) * h for h in gens), R.zero())
        assume(not g.is_zero())
    elif kind == "nonzerodivisor":
        g = R.gens()[-1] + (R.zero() if homogeneous else R.one())
    else:
        g = R.one() * data.draw(st.sampled_from([1, -2, Fraction(3, 4)]))
    I = Ideal(R, gens)
    try:
        got = colon_poly(I, g, budget=Budget(step_cap=20_000))
        want = tag_colon(I, g, budget=Budget(step_cap=20_000))
    except ComputationTimeout:
        assume(False)
    basis = got.groebner_basis()
    assert basis == want.groebner_basis()
    assert got.gens == basis  # the generators are the seeded reduced basis
    assert all(I.contains(g * h) for h in basis)
    if kind == "member":
        assert got.is_unit()
    elif kind in ("nonzerodivisor", "constant"):
        assert basis == I.groebner_basis()


def test_the_zero_and_the_unit_ideal():
    R = xring(2)
    x0, x1 = R.gens()
    assert colon_poly(Ideal(R, []), x0).is_zero()
    assert strings(colon_poly(Ideal(R, [x0 + 1, x0]), x1)) == ["1"]


def test_the_cat43_prime_generators_match_the_recorded_digests(monkeypatch):
    # every generator of the rectangular-minor prime P of the 4x4 three-leap
    # catalecticant, as the cat-4-3 colon fact takes them
    ref = json.loads(CAT43_REFERENCE.read_text(encoding="utf-8"))["generators"]
    C = build_structured("catalecticant", m=4, r=3)
    f = determinant(C)
    J = Ideal(C.ring, [f.diff(i) for i in range(C.ring.nvars)])
    gens = minors_ideal_gens(build_gp_associated(4, 3), 3)
    assert [format_polynomial(g) for g in gens] == [t["poly"] for t in ref]
    J.groebner_basis()
    _MEMORY_CACHE.clear()
    budget = _LabelBudget()
    lcms = []
    lcm = groebner._Packing.lcm

    def counted(pk, a, b):
        lcms.append(1)
        return lcm(pk, a, b)
    monkeypatch.setattr(groebner._Packing, "lcm", counted)
    for g, t in zip(gens, ref):
        text = "\n".join(strings(colon_poly(J, g, budget=budget)))
        assert hashlib.sha256(text.encode()).hexdigest() == t["digest"], t["poly"]
    # the work of all 35 colons, pinned like the Hankel-3 colon below
    assert dict(budget.by_label) == {"Buchberger": 1373, "polynomial reduction": 10943,
                                     "colon labels": 76277}
    # the lcms built: only the J-pairs whose signature passes the F5 test
    # get one (every J-pair formed, 67967, did before the test ran first)
    assert len(lcms) == 24190


# ---------------------------------------------------------------------------
# the GB cache

def _refuse(*args):
    raise AssertionError("the colon was computed, not read")


def test_a_cached_colon_is_read_without_computing(tmp_path, monkeypatch):
    J, delta = hankel3()
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    want = strings(colon_poly(J, delta, config=cfg))
    assert _colon_key(J._key, delta) in _disk_records(tmp_path)
    _fresh_process()  # a new process, the same cache directory
    monkeypatch.setattr(groebner, "_colon_at_width", _refuse)
    monkeypatch.setattr(groebner, "groebner_entries", _refuse)
    got = colon_poly(Ideal(J.ring, J.gens), delta, config=cfg)
    assert strings(got, cfg) == want


def test_a_damaged_colon_record_is_recomputed_and_rewritten(tmp_path):
    # the colon's record follows the basis of J in the pack; a damaged byte
    # fails its digest, so a new process reads J's basis, recomputes the
    # colon and writes its record into a pack of its own
    J, delta = hankel3()
    key = _colon_key(J._key, delta)
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    J.groebner_basis(config=cfg)
    (path,) = tmp_path.glob("*.gb")
    start = path.stat().st_size
    want = strings(colon_poly(J, delta, config=cfg))
    data = path.read_bytes()
    record = data[start:]
    header, body = record.split(b"\n", 1)
    path.write_bytes(data[:start] + header + b"\n" + body.replace(b" ", b" 0", 1))
    assert list(_disk_records(tmp_path)) == [J._key]
    _fresh_process()
    assert strings(colon_poly(Ideal(J.ring, J.gens), delta, config=cfg)) == want
    (fresh,) = set(tmp_path.glob("*.gb")) - {path}
    assert fresh.read_bytes() == record
    assert _disk_records(tmp_path)[key] == [body]


# ---------------------------------------------------------------------------
# restarts, budgets and work counts

def test_a_narrow_first_width_restarts_wider_with_the_same_basis(tmp_path, monkeypatch):
    # the basis of J, read back from the disk cache at a first width of 3
    # bits, fits that width; the lcm of a J-pair of J : x2 that passes the
    # F5 test does not.  (J : delta restarts nothing: each of its J-pairs
    # whose lcm would not fit is dropped before the lcm is built.)  A record
    # is served in the packing it was written in, so J's basis is written
    # repacked at 3 bits.
    J, _ = hankel3()
    x2 = J.ring.from_string("x2")
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    want = strings(colon_poly(J, x2))
    widths = []
    at_width = groebner._colon_at_width

    def counted(G, g, budget):
        widths.append(G[0].pk.width)
        return at_width(G, g, budget)
    monkeypatch.setattr(groebner, "_FIELD_BITS", 3)
    monkeypatch.setattr(groebner, "_colon_at_width", counted)
    narrow = groebner._Packing.shared(J.ring.order.weight_rows(), 3)
    groebner._disk_put(cfg.cache_dir, J._key,
                       groebner._Basis(g.repack(narrow) for g in J._entries()))
    _fresh_process()
    assert strings(colon_poly(Ideal(J.ring, J.gens), x2, config=cfg)) == want
    assert widths == [3, 6]


def test_a_budget_stops_the_colon_and_nothing_is_cached(tmp_path):
    J, delta = hankel3()
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    J.groebner_basis(config=cfg)
    key = _colon_key(J._key, delta)
    with pytest.raises(ComputationTimeout):
        colon_poly(J, delta, budget=Budget(step_cap=5), config=cfg)
    assert key not in _MEMORY_CACHE and key not in _disk_records(tmp_path)
    got = colon_poly(J, delta, budget=Budget(step_cap=10_000), config=cfg)
    assert key in _MEMORY_CACHE and key in _disk_records(tmp_path)
    assert all(J.contains(delta * h) for h in got.gens)


def test_the_colon_work_is_counted_and_pinned():
    # J-pairs taken, reduction steps and stored terms of a colon, with the
    # basis of J already at hand: a change to the signature criteria or to
    # the reducer choice moves these counts
    J, delta = hankel3()
    J.groebner_basis()
    _MEMORY_CACHE.clear()
    budget = _LabelBudget()
    got = colon_poly(J, delta, budget=budget)
    assert strings(got) == ["x4", "x3", "x2", "x1", "x0"]
    assert dict(budget.by_label) == {"Buchberger": 5, "polynomial reduction": 9,
                                     "colon labels": 8}


def _counting_eliminate(calls):
    """`groebner.eliminate`, appending to calls on each call: a count of the
    tag-variable eliminations that `intersect` runs."""
    eliminate = groebner.eliminate

    def spy(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)
    return spy


def test_colon_by_an_ideal_runs_no_tag_elimination_on_nested_colons(monkeypatch):
    # colon(I, J) intersects each I : g into the running result; for the
    # hankel-3 J : P every new colon contains that result, so intersect
    # takes its containment shortcut and no step eliminates a tag variable,
    # and the result is still the intersection of the oracle's colons
    J, _ = hankel3()
    H = build_structured("hankel", m=3)
    P = Ideal(H.ring, minors_ideal_gens(H, 2))
    want = tag_colon(J, P.gens[0])
    for g in P.gens[1:]:
        want = tag_intersect(want, tag_colon(J, g))
    calls = []
    monkeypatch.setattr(groebner, "eliminate", _counting_eliminate(calls))
    got = groebner.colon(J, P)
    assert calls == []
    assert strings(got) == strings(want) == ["x4", "x3", "x2", "x1", "x0"]


# ---------------------------------------------------------------------------
# the intersection against the tag-variable intersection

_NESTED = ("inside", "outside", "equal")


@pytest.mark.parametrize("kind", _NESTED + ("apart", "zero", "unit"))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_the_intersection_matches_the_tag_variable_intersection(kind, data):
    n = data.draw(st.integers(2, 3))
    R = xring(n, data.draw(st.sampled_from([grevlex(n), lex(n)])))
    homogeneous = data.draw(st.booleans())
    gens = [_poly(data, R, homogeneous, n) for _ in range(data.draw(st.integers(1, 3)))]
    more = [_poly(data, R, homogeneous, n) for _ in range(data.draw(st.integers(1, 2)))]
    I = Ideal(R, gens)
    if kind in ("inside", "outside"):
        J = Ideal(R, gens + more)  # I ⊆ J; "outside" passes them as (J, I)
    elif kind == "equal":
        J = Ideal(R, gens[::-1] + [gens[0] * more[0]])
    elif kind == "apart":
        J = Ideal(R, more)
    elif kind == "zero":
        J = Ideal(R, [])
    else:
        J = Ideal(R, [R.const(data.draw(st.sampled_from([1, -2, Fraction(3, 4)])))])
    if kind == "outside" or (kind in ("zero", "unit") and data.draw(st.booleans())):
        I, J = J, I
    calls = []
    try:
        if kind == "apart":
            budget = Budget(step_cap=20_000)
            assume(not I.contains_ideal(J, budget=budget)
                   and not J.contains_ideal(I, budget=budget))
        with patch.object(groebner, "eliminate", _counting_eliminate(calls)):
            got = groebner.intersect(I, J, budget=Budget(step_cap=20_000))
        want = tag_intersect(I, J, budget=Budget(step_cap=20_000))
    except ComputationTimeout:
        assume(False)
    assert got.gens == want.gens
    assert calls == ([1] if kind == "apart" else [])
    # the generators are the reduced basis, already set on the result
    assert got.gens is got.groebner_basis()


# ---------------------------------------------------------------------------
# saturation and radical membership against the rounds of colons and the
# Rabinowitsch test

_CONSTANTS = st.sampled_from([1, -2, Fraction(3, 4)])


@pytest.mark.parametrize("kind", ["any", "zero", "unit", "constant", "apart"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_the_saturation_matches_the_rounds_of_colons(kind, data):
    R = xring(3, data.draw(st.sampled_from([grevlex(3), lex(3)])))
    x0, x1, _ = R.gens()
    homogeneous = data.draw(st.booleans())
    gens = [_poly(data, R, homogeneous, 3) for _ in range(data.draw(st.integers(1, 2)))]
    I = Ideal(R, gens)
    J = Ideal(R, [_poly(data, R, homogeneous, 3) for _ in range(data.draw(st.integers(1, 2)))])
    if kind == "zero":
        I = Ideal(R, [])
    elif kind == "unit":
        I = Ideal(R, gens + [R.const(data.draw(_CONSTANTS))])
    elif kind == "constant":
        J = Ideal(R, [R.const(data.draw(_CONSTANTS))])
    elif kind == "apart":
        # I = (x0^i * x1^j * h): I : x0^∞ and I : x1^∞ are principal, the one
        # a power of x1 times a factor of h, the other a power of x0 times
        # one, so neither contains the other and intersect eliminates a tag
        h = _poly(data, R, homogeneous, 3)
        I = Ideal(R, [x0 ** data.draw(st.integers(1, 2)) * x1 ** data.draw(st.integers(1, 2)) * h])
        J = Ideal(R, [x0, x1])
    calls = []
    try:
        with patch.object(groebner, "eliminate", _counting_eliminate(calls)):
            got = saturation(I, J, budget=Budget(step_cap=20_000))
        want = rounds_saturation(I, J, budget=Budget(step_cap=20_000))
    except ComputationTimeout:
        assume(False)
    assert got.groebner_basis() == want.groebner_basis()
    assert got.contains_ideal(I)
    if kind == "zero":
        assert got.is_zero()
    elif kind == "unit":
        assert got.is_unit()
    elif kind == "constant":
        assert got.groebner_basis() == I.groebner_basis()
    elif kind == "apart":
        assert calls


def test_saturation_by_the_zero_ideal_raises():
    R = xring(3)
    I = Ideal(R, [R.gens()[0] ** 2])
    for zero in (Ideal(R, []), R.zero()):
        with pytest.raises(ZeroDivisionError):
            saturation(I, zero)


@pytest.mark.parametrize("kind", ["any", "nilpotent", "outside", "zero", "unit", "constant"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_radical_membership_matches_the_rabinowitsch_test(kind, data):
    R = xring(3, data.draw(st.sampled_from([grevlex(3), lex(3)])))
    homogeneous = kind == "outside" or data.draw(st.booleans())
    # for "outside", homogeneous generators in x0 and x1: a proper ideal
    # whose radical leaves out x2
    nvars = 2 if kind == "outside" else 3
    gens = [_poly(data, R, homogeneous, nvars) for _ in range(data.draw(st.integers(1, 3)))]
    f = _poly(data, R, homogeneous, 3)
    I = Ideal(R, gens)
    if kind == "nilpotent":
        I = Ideal(R, gens + [f * f])
        assume(not I.contains(f, budget=Budget(step_cap=20_000)))
    elif kind == "outside":
        f = R.gens()[2]
    elif kind == "zero":
        I = Ideal(R, [])
    elif kind == "unit":
        I = Ideal(R, gens + [R.const(data.draw(_CONSTANTS))])
    elif kind == "constant":
        f = R.const(data.draw(_CONSTANTS))
    try:
        got = radical_membership(f, I, budget=Budget(step_cap=20_000))
        want = rabinowitsch_radical_membership(f, I, budget=Budget(step_cap=20_000))
    except ComputationTimeout:
        assume(False)
    assert got == want
    if kind in ("nilpotent", "unit"):
        assert got
    elif kind in ("outside", "zero"):
        assert not got
    elif kind == "constant":
        assert got == I.is_unit()


# ---------------------------------------------------------------------------
# equalities decided from reduced bases, against the routes that decided
# them by mutual membership

def _tag_colon_by_ideal(I, J, budget):
    """I : J as ∩ I : g over the generators g of J, by the tag-variable
    colon and intersection, generated by its reduced basis."""
    out = tag_colon(I, J.gens[0], budget)
    for g in J.gens[1:]:
        out = tag_intersect(out, tag_colon(I, g, budget), budget)
    return Ideal(I.ring, out.groebner_basis(budget))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_the_colon_by_an_ideal_matches_the_tag_variable_route(data):
    n = data.draw(st.integers(2, 3))
    R = xring(n, data.draw(st.sampled_from([grevlex(n), lex(n)])))
    homogeneous = data.draw(st.booleans())
    I = Ideal(R, [_poly(data, R, homogeneous, n) for _ in range(data.draw(st.integers(1, 3)))])
    J = Ideal(R, [_poly(data, R, homogeneous, n) for _ in range(data.draw(st.integers(1, 2)))])
    try:
        got = colon(I, J, budget=Budget(step_cap=20_000))
        budget = Budget(step_cap=20_000)
        want = _tag_colon_by_ideal(I, J, budget)
        equal = membership_equal(got, want, budget)
    except ComputationTimeout:
        assume(False)
    assert equal
    assert got.gens == want.gens


def _linear_type_by_membership(forms, columns, budget):
    """(status, witness) of the linear-type test by the route it replaced:
    L : f by the tag-variable colon, L = L : f by mutual membership, and
    the witness the first element of the reduced basis of L : f outside L."""
    sym = symmetric_algebra_ideal(forms, columns)
    quotient = Ideal(sym.ring, tag_colon(sym, morph(forms[0], sym.ring), budget)
                     .groebner_basis(budget))
    if membership_equal(sym, quotient, budget):
        return "LinearType", None
    return "NotLinearType", next(g for g in quotient.gens if not sym.contains(g, budget))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_linear_type_matches_the_membership_route(data):
    n = data.draw(st.integers(2, 3))
    R = xring(n)
    pool = _monomials(n, data.draw(st.integers(1, 2)))
    forms = [Polynomial(R, data.draw(st.dictionaries(st.sampled_from(pool), _COEFFS,
                                                     min_size=1, max_size=2)))
             for _ in range(data.draw(st.integers(2, 3)))]
    try:
        columns = first_syzygy_module(forms, Budget(step_cap=20_000)).columns
        want = _linear_type_by_membership(forms, columns, Budget(step_cap=20_000))
    except ComputationTimeout:
        assume(False)
    out = polar.linear_type_check(forms, columns, Budget(step_cap=20_000))
    assume(out.status != "Timeout")
    assert (out.status, out.witness) == want


def _reduction_by_membership(H, form, P, i, budget):
    """(status, witness) of the filtration check by the route it replaced:
    the colon by tag variables, equality by mutual membership, and the
    witness the first generator of either side outside the other."""
    ring = H.ring
    t = H.rows - 2 - i
    rhs = Ideal(ring, minors_ideal_gens(H, t) if t else [ring.one()])
    lhs = form.J if i == 0 else ideal_product(form.J, ideal_power(P, i))
    got = _tag_colon_by_ideal(lhs, ideal_power(P, i + 1), budget)
    if membership_equal(got, rhs, budget):
        return "Equal", None
    return "NotEqual", next(str(g) for gens, other in ((got.gens, rhs), (rhs.gens, got))
                            for g in gens if not other.contains(g, budget))


@pytest.mark.parametrize("i", [0, 1])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_the_reduction_check_matches_the_membership_route(hankel_record, i, data):
    # the Hankel record of order 3 against small ideals P of linear forms
    # and quadrics, the submaximal minor ideal among them
    H, form, minors = hankel_record(3)
    R = H.ring
    P = data.draw(st.sampled_from([minors, Ideal(R, R.gens()), None]))
    if P is None:
        P = Ideal(R, [_poly(data, R, True, 5, 2) for _ in range(data.draw(st.integers(1, 2)))])
    try:
        want = _reduction_by_membership(H, form, P, i, Budget(step_cap=20_000))
    except ComputationTimeout:
        assume(False)
    out = reduction_conjecture_check(H, form, P, i, Budget(step_cap=20_000))
    assume(out.status != "Timeout")
    assert (out.status, out.witness) == want


# ---------------------------------------------------------------------------
# results that carry their reduced basis

def _cold_entries(ring, gens):
    """The entries of the reduced basis of (gens), computed from scratch."""
    _MEMORY_CACHE.clear()
    return [e.full() for e in Ideal(ring, gens)._entries()]


def test_ideal_results_answer_from_their_seeded_basis(monkeypatch):
    R = xring(4)
    x0, x1, x2, x3 = R.gens()
    inner = Ideal(R, [x0 * x1**2 - x2**3, x0**2 * x2 - x1 * x2**2, x1 * x3 - x0 * x2])
    outer = Ideal(R, inner.gens + [x2**2 - x0 * x3])
    apart = Ideal(R, [x0**2 - x1 * x3, x1 * x2 - x3**2])
    J, _ = hankel3()
    H = build_structured("hankel", m=3)
    P = Ideal(H.ring, minors_ideal_gens(H, 2))
    results = {"intersect, nested": groebner.intersect(outer, inner),
               "intersect, apart": groebner.intersect(inner, apart),
               "eliminate": groebner.eliminate(outer, [1, 2, 3]),
               "colon": groebner.colon(J, P),
               "colon, not nested": groebner.colon(inner, apart)}
    assert results["intersect, nested"].gens == inner.groebner_basis()
    monkeypatch.setattr(groebner, "groebner_entries", _refuse)
    for name, K in results.items():
        basis = K.groebner_basis()
        assert basis == K.gens, name
        assert all(K.contains(g) for g in basis), name
        assert not K.contains(K.ring.gens()[0] ** 7 + 1), name
    seeded = {name: [e.full() for e in K._entries()] for name, K in results.items()}
    monkeypatch.undo()
    for name, K in results.items():
        assert seeded[name] == _cold_entries(K.ring, K.gens), name
