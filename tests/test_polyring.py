"""Coefficient, monomial order, and polynomial arithmetic contracts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from detlab.polyring import (Polynomial, Ring, xring, block_order, grevlex, exact_divide,
                             NOT_DIVISIBLE, parse_polynomial, format_polynomial,
                             NEG_INF, clear_denominators, evaluate_all, restrict_all)
from oracles import (hankel_entry_dicts, leibniz_det, dict_diff, grevlex_key, gf_image,
                     horner_mod, lex, term_value)

P61 = (1 << 61) - 1


def rand_poly(ring, rng, terms=4, deg=3):
    d = {}
    for _ in range(terms):
        e = [0] * ring.nvars
        for _ in range(rng.randrange(deg + 1)):
            e[rng.randrange(ring.nvars)] += 1
        c = rng.randrange(-6, 7)
        d[tuple(e)] = d.get(tuple(e), 0) + c
    return Polynomial(ring, d)


# ---------------------------------------------------------------------------
# arithmetic

def test_difference_of_squares():
    R = xring(2)
    x0, x1 = R.gens()
    assert (x0 + x1) * (x0 - x1) == x0 ** 2 - x1 ** 2


def test_mul_by_zero_annihilates():
    R = xring(3)
    f = R.from_string("x0^2 - 3*x1*x2")
    assert (f * R.zero()).is_zero()
    assert f * 0 == R.zero()


def test_square_expansion_oracle():
    # hand expansion: (x0*x2 - x1^2)^2 = x0^2x2^2 - 2x0x1^2x2 + x1^4
    R = xring(3)
    f = R.from_string("x0*x2 - x1^2")
    assert f ** 2 == R.from_string("x0^2*x2^2 - 2*x0*x1^2*x2 + x1^4")


def test_ring_axioms_random_both_modes():
    R = Ring(("x0", "x1", "x2"))
    rng = random.Random(987)
    for _ in range(1000):
        a, b, c = (rand_poly(R, rng, terms=3, deg=2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def test_pow_negative_raises_and_mixed_rings_raise():
    R = xring(2)
    S = xring(3)
    with pytest.raises(ValueError):
        R.gens()[0] ** -1
    with pytest.raises(ValueError):
        R.gens()[0] + S.gens()[0]


def test_homogeneous_product_degree():
    R = xring(3)
    rng = random.Random(5)
    for _ in range(50):
        a = rand_poly(R, rng)
        b = rand_poly(R, rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree == a.degree + b.degree or not (
            a.is_homogeneous() and b.is_homogeneous())


def test_zero_polynomial_degree_sentinel():
    R = xring(2)
    assert R.zero().degree == NEG_INF
    assert R.zero().is_homogeneous()


# ---------------------------------------------------------------------------
# exact division

def test_exact_divide_monomial_factor():
    R = xring(3)
    num = R.from_string("x0^2*x2 - x0*x1^2")
    assert exact_divide(num, R.gens()[0]) == R.from_string("x0*x2 - x1^2")


def test_exact_divide_not_divisible():
    R = xring(2)
    assert exact_divide(R.from_string("x1^2"), R.gens()[0]) is NOT_DIVISIBLE


def test_exact_divide_zero_divisor_raises():
    R = xring(2)
    with pytest.raises(ZeroDivisionError):
        exact_divide(R.gens()[0], R.zero())


def test_exact_divide_roundtrip_random():
    R = xring(3)
    rng = random.Random(11)
    for _ in range(200):
        a = rand_poly(R, rng)
        b = rand_poly(R, rng)
        if b.is_zero():
            continue
        assert exact_divide(a * b, b) == a


def test_hessian_quotient_of_hankel3_determinant():
    # the Hessian determinant of the 3x3 anti-diagonal determinant equals
    # the form times a quadric (the middle partial up to coordinates)
    from detlab.structmat import build_structured, determinant
    from detlab.polar import polar_data
    H = build_structured("hankel", m=3)
    f = determinant(H)
    Hf = determinant(polar_data(f).hessian)
    q = exact_divide(Hf, f)
    assert q is not NOT_DIVISIBLE
    assert q.degree == 2
    assert exact_divide(q, f) is NOT_DIVISIBLE


# ---------------------------------------------------------------------------
# differentiation

def test_diff_trivial_and_euler():
    R = xring(2)
    x0, x1 = R.gens()
    assert (x0 ** 2).diff(1).is_zero()
    from detlab.structmat import build_structured, determinant
    H = build_structured("hankel", m=3)
    f = determinant(H)
    euler = sum((H.ring.var(i) * f.diff(i) for i in range(5)), H.ring.zero())
    assert euler == f * 3


def test_diff_hankel3_middle_matches_cofactor_oracle():
    ents = hankel_entry_dicts(3)
    det = leibniz_det(ents)
    want = dict_diff(det, 2)
    from detlab.structmat import build_structured, determinant
    H = build_structured("hankel", m=3)
    got = determinant(H).diff(2)
    assert got.terms == want
    assert got == H.ring.from_string("x0*x4 + 2*x1*x3 - 3*x2^2")


def test_leibniz_rule_random():
    R = xring(3)
    rng = random.Random(21)
    for _ in range(100):
        a, b = rand_poly(R, rng), rand_poly(R, rng)
        for i in range(3):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


# ---------------------------------------------------------------------------
# evaluation and line restriction

def test_evaluate_examples():
    R = xring(3)
    f = R.from_string("x0*x2 - x1^2")
    assert f.evaluate([1, 0, 1]) == 1
    R2 = xring(2)
    assert (R2.from_string("x0 + x1") ** 2).evaluate([2, 3]) == 25
    with pytest.raises(ValueError):
        f.evaluate([1, 2])


def test_evaluate_det_matches_numeric_determinant():
    from detlab.structmat import build_structured, determinant
    from detlab.linalg import dense_det
    H = build_structured("hankel", m=3)
    f = determinant(H)
    pt = [1, 0, 0, 0, 1]
    assert f.evaluate(pt) == dense_det(H.evaluate(pt))


def test_evaluate_is_ring_homomorphism():
    R = xring(3)
    rng = random.Random(31)
    for _ in range(100):
        a, b = rand_poly(R, rng), rand_poly(R, rng)
        pt = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(3)]
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_restrict_to_line_examples():
    R = xring(2)
    x0, x1 = R.gens()
    assert (x0 * x1).restrict_to_line([0, 0], [1, 1], P61) == [0, 0, 1]
    # homogeneous f restricted from the origin: f(dir) * t^deg
    f = R.from_string("x0^2*x1 - x1^3")
    assert f.restrict_to_line([0, 0], [2, 3], P61) == [0, 0, 0, f.evaluate([2, 3]) % P61]
    # coefficients read mod p, trailing zeros dropped
    assert R.from_string("1/2*x0 + 7*x1").restrict_to_line([0, 1], [2, 0], 7) == [0, 1]
    assert (7 * x0).restrict_to_line([1, 1], [1, 1], 7) == []
    with pytest.raises(ValueError):
        f.restrict_to_line([0, 0], [0, 0], P61)


def test_restrict_hankel3_degree():
    from detlab.structmat import build_structured, determinant
    H = build_structured("hankel", m=3)
    f = determinant(H)
    u = f.restrict_to_line([1, 0, 2, 1, 1], [3, 1, 4, 1, 5], P61)
    assert len(u) == 4
    # direct substitution oracle at a few t values
    for t in (0, 1, 2, 7):
        pt = [1 + 3 * t, t, 2 + 4 * t, 1 + t, 1 + 5 * t]
        assert horner_mod(u, t, P61) == f.evaluate(pt) % P61


_DIFF_COEFFS = st.one_of(st.integers(-30, 30),
                         st.fractions(-30, 30, max_denominator=15))
_DIFF_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _DIFF_COEFFS, max_size=6)
_DIFF_POINTS = st.lists(st.integers(-40, 40), min_size=3, max_size=3)


@given(_DIFF_POLYS, _DIFF_POINTS, _DIFF_POINTS, st.integers(-20, 20),
       st.sampled_from([7, 11, 101, P61]))
@settings(max_examples=200, deadline=None)
def test_evaluation_mod_p_matches_the_exact_value(terms, base, direction, t, p):
    f = Polynomial(xring(3), terms)
    if any(Fraction(c).denominator % p == 0 for c in f.terms.values()):
        with pytest.raises(ZeroDivisionError):
            f.evaluate(base, p)
        return
    assert f.evaluate(base, p) == gf_image(f.evaluate(base), p)
    if any(direction):
        line = f.restrict_to_line(base, direction, p)
        assert not line or line[-1]
        point = [b + t * d for b, d in zip(base, direction)]
        assert horner_mod(line, t, p) == f.evaluate(point, p)


def test_denominator_divisible_by_p_raises():
    f = xring(2).from_string("1/14*x0 + x1")
    for read in (lambda: f.evaluate([1, 1], 7),
                 lambda: f.restrict_to_line([1, 1], [1, 2], 7)):
        with pytest.raises(ZeroDivisionError):
            read()
    assert f.evaluate([14, 3], 5) == gf_image(f.evaluate([14, 3]), 5)


def test_coordinates_are_ints_or_fractions():
    R = xring(2)
    x0, x1 = R.gens()
    # mod p a coordinate a/b is read as a * b^-1, like a coefficient
    assert x0.evaluate([Fraction(1, 2), 0], 7) == 4
    assert evaluate_all([x0, x1], [Fraction(1, 2), Fraction(-3)], 7) == [4, 4]
    assert (x0 * x1 + 1).restrict_to_line([Fraction(1, 2), 0], [1, 1], 7) == [1, 4, 1]
    for read in (lambda: x0.evaluate([Fraction(1, 7), 0], 7),
                 lambda: x0.restrict_to_line([0, 0], [Fraction(2, 7), 1], 7)):
        with pytest.raises(ZeroDivisionError):
            read()
    # exact values stay exact: a float is no exact coordinate in either mode
    assert (x0 ** 3).evaluate([Fraction(1, 10), 0]) == Fraction(1, 1000)
    for read in (lambda: (x0 ** 3).evaluate([0.1, 0]),
                 lambda: (x0 ** 3).evaluate([0.1, 0], 7),
                 lambda: x0.restrict_to_line([0.5, 0], [1, 1], 7)):
        with pytest.raises(TypeError):
            read()


_DIFF_VALUES = st.one_of(st.integers(-40, 40), st.fractions(-30, 30, max_denominator=15))


def _family(term_dicts, c):
    """The drawn polynomials, then the zero polynomial, a constant and the
    first one again: a family of one ring as `evaluate_all` gets it."""
    R = xring(3)
    polys = [Polynomial(R, t) for t in term_dicts] + [R.zero(), R.const(c)]
    return polys + polys[:1]


def _needs_inverse_of_p(polys, values, p):
    return any(Fraction(v).denominator % p == 0
               for v in [c for f in polys for c in f.terms.values()] + list(values))


@given(st.lists(_DIFF_POLYS, min_size=1, max_size=3), _DIFF_COEFFS,
       st.lists(_DIFF_VALUES, min_size=3, max_size=3),
       st.sampled_from([None, 7, 11, 101, P61]))
@settings(max_examples=200, deadline=None)
def test_evaluate_all_matches_the_term_oracle(term_dicts, c, point, p):
    polys = _family(term_dicts, c)
    if p is not None and _needs_inverse_of_p(polys, point, p):
        with pytest.raises(ZeroDivisionError):
            evaluate_all(polys, point, p)
        return
    values = evaluate_all(polys, point, p)
    assert values == [term_value(f.terms, point, p) for f in polys]
    assert values == [f.evaluate(point, p) for f in polys]
    # exact values are canonical: int when integral
    assert all(type(v) is int or v.denominator > 1 for v in values)


@given(st.lists(_DIFF_POLYS, min_size=1, max_size=3), _DIFF_COEFFS,
       st.lists(_DIFF_VALUES, min_size=3, max_size=3),
       st.lists(_DIFF_VALUES, min_size=3, max_size=3), st.integers(-20, 20),
       st.sampled_from([7, 11, 101, P61]))
@settings(max_examples=200, deadline=None)
def test_restrict_all_matches_the_term_oracle_on_the_line(term_dicts, c, base, direction, t, p):
    polys = _family(term_dicts, c)
    if not any(direction):
        with pytest.raises(ValueError):
            restrict_all(polys, base, direction, p)
        return
    if _needs_inverse_of_p(polys, base + direction, p):
        with pytest.raises(ZeroDivisionError):
            restrict_all(polys, base, direction, p)
        return
    lines = restrict_all(polys, base, direction, p)
    point = [b + t * d for b, d in zip(base, direction)]
    for f, line in zip(polys, lines):
        assert not line or line[-1]
        assert horner_mod(line, t, p) == term_value(f.terms, point, p)
    assert lines == [f.restrict_to_line(base, direction, p) for f in polys]


# ---------------------------------------------------------------------------
# orders

def test_monomial_order_examples():
    R = xring(5)
    key = R.order.key
    x2x4 = (0, 0, 1, 0, 1)
    x3sq = (0, 0, 0, 2, 0)
    assert key(x2x4) < key(x3sq)
    x0x3 = (1, 0, 0, 1, 0)
    x1x2 = (0, 1, 1, 0, 0)
    assert key(x0x3) < key(x1x2)
    lkey = lex(2).key
    assert lkey((1, 0)) > lkey((0, 100))


def test_order_total_and_multiplicative_random():
    rng = random.Random(3)
    key = grevlex(4).key
    for _ in range(300):
        u = tuple(rng.randrange(4) for _ in range(4))
        v = tuple(rng.randrange(4) for _ in range(4))
        w = tuple(rng.randrange(3) for _ in range(4))
        if key(u) < key(v):
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert key(uw) < key(vw)


def test_grevlex_key_matches_oracle():
    rng = random.Random(9)
    key = grevlex(5).key
    for _ in range(200):
        u = tuple(rng.randrange(4) for _ in range(5))
        v = tuple(rng.randrange(4) for _ in range(5))
        assert (key(u) < key(v)) == (grevlex_key(u) < grevlex_key(v))


# ---------------------------------------------------------------------------
# values mod p

def test_modular_matches_rational_reduction():
    p = (1 << 31) - 1
    R = xring(3)
    rng = random.Random(77)
    for _ in range(200):
        a, b = rand_poly(R, rng), rand_poly(R, rng)
        pt = [rng.randrange(p) for _ in range(3)]
        av, bv = a.evaluate(pt, p), b.evaluate(pt, p)
        assert (a * b).evaluate(pt, p) == av * bv % p
        assert (a + b).evaluate(pt, p) == (av + bv) % p


def test_rational_canonical_form():
    R = xring(1)
    f = Polynomial(R, {(1,): Fraction(4, 2)})
    assert f.terms == {(1,): 2}
    assert type(next(iter(f.terms.values()))) is int
    # a Fraction subclass becomes a plain Fraction, which the denominator
    # clearing recognises by its exact type
    class Ratio(Fraction):
        pass
    g = Polynomial(R, {(1,): Ratio(1, 3), (0,): Ratio(6, 2)})
    assert [type(c) for c in g.terms.values()] == [Fraction, int]
    assert clear_denominators(g.terms.items()) == ({(1,): 1, (0,): 9}, 3)


# ---------------------------------------------------------------------------
# text grammar

@pytest.mark.parametrize("s", [
    "x0^2 - x1^2",
    "-x2^3 + 2*x1*x2*x3 - x0*x3^2 - x1^2*x4 + x0*x2*x4",
    "1/2*x0 - 3/7*x1^5",
    "0",
    "42",
    "-x0",
])
def test_grammar_roundtrip(s):
    R = xring(5)
    f = parse_polynomial(R, s)
    assert parse_polynomial(R, format_polynomial(f)) == f


def test_grammar_star_optional_and_whitespace():
    R = xring(2)
    assert parse_polynomial(R, "3x0x1") == parse_polynomial(R, "3 * x0 * x1")
    assert parse_polynomial(R, "2x0^2") == 2 * R.gens()[0] ** 2


def test_roundtrip_random_bit_exact():
    R = xring(4)
    rng = random.Random(13)
    for _ in range(200):
        f = Polynomial(R, {e: Fraction(c, rng.randrange(1, 5))
                           for e, c in rand_poly(R, rng).terms.items()})
        assert parse_polynomial(R, format_polynomial(f)) == f


@given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          st.integers(-9, 9)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_add_sub_inverse_property(pairs):
    R = xring(2)
    f = Polynomial(R, {e: c for e, c in pairs})
    g = R.from_string("x0 - 2*x1 + 1")
    assert (f + g) - g == f


def test_monomial_compare_function():
    # monomials compare by their order keys
    o = grevlex(5)
    assert o.key((0, 0, 1, 0, 1)) < o.key((0, 0, 0, 2, 0))
    assert o.key((1, 0, 0, 1, 0)) < o.key((0, 1, 1, 0, 0))
    assert o.key((1, 1, 0, 0, 0)) == o.key((1, 1, 0, 0, 0))
    assert lex(2).key((1, 0)) > lex(2).key((0, 100))


def test_euler_identity_random_homogeneous():
    import random as _random
    from itertools import combinations_with_replacement
    R = xring(4)
    rng = _random.Random(515)
    monos = list(combinations_with_replacement(range(4), 3))
    for _ in range(100):
        d = {}
        for _ in range(4):
            pick = monos[rng.randrange(len(monos))]
            e = [0, 0, 0, 0]
            for i in pick:
                e[i] += 1
            d[tuple(e)] = d.get(tuple(e), 0) + rng.randrange(-5, 6)
        f = Polynomial(R, d)
        if f.is_zero():
            continue
        acc = R.zero()
        for i in range(4):
            acc = acc + R.var(i) * f.diff(i)
        assert acc == f * 3


def test_block_orders_give_the_lex_and_permuted_grevlex_rows():
    # singleton blocks are lex in the listed variable order; one permuted
    # block is grevlex in it: the degree, then the prefix sums from the end
    assert block_order([[2], [0], [1]]).weight_rows() == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert block_order([(2, 0, 1)]).weight_rows() == ((1, 1, 1), (1, 0, 1), (0, 0, 1))
    # built once per order, and one tuple for equal orders
    assert block_order([(2, 0, 1)]).weight_rows() is block_order([(2, 0, 1)]).weight_rows()
    assert block_order([(2, 0, 1)]).id == "grevlex:3:2,0,1"
    assert block_order([[0, 1, 2]]) == grevlex(3)
    with pytest.raises(ValueError):
        block_order([[0, 1], [1, 2]])


def test_order_variable_permutation():
    # priority sequence (1, 0): the second variable becomes the big one
    o = block_order([(1, 0)])
    assert o.key((1, 0)) < o.key((0, 1))
    assert o.key((0, 2)) > o.key((2, 0))
    ol = block_order([[2], [1], [0]])
    assert ol.key((5, 0, 0)) < ol.key((0, 0, 1))
