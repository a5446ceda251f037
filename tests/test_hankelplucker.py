"""Bracket minors, partial order, expansions, quadratic relations, and the
radical/colon-filtration checkers.  The checks read the Hankel record from
the `hankel_record` fixture."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import groebner
from detlab.config import Budget, Config
from detlab.groebner import Ideal, hilbert_data, ideal_equal, _MEMORY_CACHE
from detlab.hankelplucker import (MAX_ORDER, bracket_compare, bracket_minor,
                                  delta_bracket_expansion, golberg_delta_check,
                                  integrality_check, plucker_verify,
                                  reduction_conjecture_check, solve_bracket_identity,
                                  star_expansion, three_term_plucker)
from detlab.linalg import dense_rank
from detlab.structmat import MinorLadder, PolyMatrix, build_gp_associated
from detlab.polyring import Polynomial, xring
from oracles import hankel_entry_dicts, leibniz_det


def _brackets(m, r=1):
    """The ladder of the (m, r) associated matrix, which brackets are read from."""
    return MinorLadder(build_gp_associated(m, r))


# ---------------------------------------------------------------------------
# bracket minors and order

def test_bracket_minor_values():
    R5 = xring(5)
    assert bracket_minor(_brackets(3), (1, 2)) == R5.from_string("x0*x2 - x1^2")
    assert bracket_minor(_brackets(3), (1, 4)) == R5.from_string("x0*x4 - x1*x3")
    b = bracket_minor(_brackets(4), (1, 2, 3))
    assert b.degree == 3 and b.is_homogeneous()
    # expansion oracle for the 3x3 block of the rectangular matrix
    ents = hankel_entry_dicts(4)[:3]
    want = leibniz_det([row[:3] for row in ents])
    assert {k[:7]: v for k, v in b.terms.items()} == want


def test_bracket_minor_validation():
    with pytest.raises(ValueError, match=r"bad bracket \(2, 1\) for \(3,1\)"):
        bracket_minor(_brackets(3), (2, 1))
    with pytest.raises(ValueError):
        bracket_minor(_brackets(3), (1, 5))
    with pytest.raises(ValueError):
        bracket_minor(_brackets(3), (1, 2, 3))


def test_bracket_compare_cases():
    assert bracket_compare((1, 2, 3), (1, 2, 4)) == "le"
    assert bracket_compare((1, 2, 5), (1, 3, 4)) == "incomparable"
    assert bracket_compare((1, 4, 5), (2, 3, 5)) == "incomparable"
    assert bracket_compare((2, 4), (1, 3)) == "ge"
    assert bracket_compare((1, 2), (1, 2)) == "equal"
    with pytest.raises(ValueError):
        bracket_compare((1, 2), (1, 2, 3))


# ---------------------------------------------------------------------------
# star expansions

def test_star_expansion_middle_partial_m3(hankel_record):
    e = star_expansion(_brackets(3), hankel_record(3)[1], 2)
    assert e.epsilon == 1
    assert sorted(e.coefficients) == [(1, (1, 4)), (3, (2, 3))]
    R5 = xring(5)
    assert e.value(_brackets(3)) == R5.from_string("x0*x4 + 2*x1*x3 - 3*x2^2")


def test_star_expansion_endpoints_m3(hankel_record):
    _, form, _ = hankel_record(3)
    e4 = star_expansion(_brackets(3), form, 4)
    assert e4.coefficients == [(1, (1, 2))] and e4.epsilon == 1
    e3 = star_expansion(_brackets(3), form, 3)
    assert e3.coefficients == [(2, (1, 3))] and e3.epsilon == -1


def test_star_expansion_matches_derivative_everywhere(hankel_record):
    for m in (3, 4):
        _, form, _ = hankel_record(m)
        brackets = _brackets(m)
        for j in range(2 * m - 1):
            e = star_expansion(brackets, form, j)
            assert e.value(brackets) == form.f.diff(j)


def test_star_expansion_incomparability_through_m5(hankel_record):
    for m in (3, 4, 5):
        _, form, _ = hankel_record(m)
        for j in range(2 * m - 1):
            assert star_expansion(_brackets(m), form, j).pairwise_incomparable()


def test_star_expansion_range_check(hankel_record):
    with pytest.raises(ValueError):
        star_expansion(_brackets(3), hankel_record(3)[1], 5)


# ---------------------------------------------------------------------------
# minor-sum expansions

def test_golberg_m3_middle_instance(hankel_record):
    H, form, _ = hankel_record(3)
    ladder = MinorLadder(H)
    # f_2 equals the sum of the three minors along the anti-diagonal: twice
    # the one omitting row 3 and column 1, and the one omitting row 2, column 2
    want = 2 * ladder.minor([0, 1], [1, 2]) + ladder.minor([0, 2], [0, 2])
    assert form.partials[2] == want


def test_golberg_delta_check_m3_m4(hankel_record):
    for m in (3, 4):
        H, form, _ = hankel_record(m)
        rep = golberg_delta_check(H, form)
        assert rep.passed
        # documented sign normalization: alternating with the variable index
        assert rep.partial_signs == [(-1) ** i for i in range(2 * m - 1)]


def test_checks_build_the_bracket_matrix_once(hankel_record, monkeypatch):
    # a check reads all its brackets from one ladder: one associated
    # matrix per call, not one per bracket
    from detlab import hankelplucker
    builds = []
    build = hankelplucker.build_gp_associated

    def counting_build(m, r):
        builds.append((m, r))
        return build(m, r)
    monkeypatch.setattr(hankelplucker, "build_gp_associated", counting_build)
    for m in (3, 4):
        H, form, P = hankel_record(m)
        builds.clear()
        assert golberg_delta_check(H, form).passed
        assert builds == [(m, 1)]
        builds.clear()
        assert integrality_check(H, form, P).passed
        assert builds == [(m, 1)]


def test_delta_expansion_instances(hankel_record):
    H, _, _ = hankel_record(3)
    ladder, brackets = MinorLadder(H), _brackets(3)
    # the minors omitting row 2, column 2 and row 1, column 3
    assert delta_bracket_expansion(brackets, 2, 2) == ladder.minor([0, 2], [0, 2])
    assert delta_bracket_expansion(brackets, 3, 1) == ladder.minor([1, 2], [0, 1])
    # bracket content of the (2,2) minor: both incomparable pairs appear
    got = delta_bracket_expansion(brackets, 2, 2)
    assert got == bracket_minor(brackets, (1, 4)) + bracket_minor(brackets, (2, 3))


# ---------------------------------------------------------------------------
# quadratic relations

def test_three_term_relation_all_quadruples():
    for m in (3, 4, 5, 6):
        if m == 3:
            quads = itertools.combinations(range(1, 5), 4)
        else:
            quads = itertools.combinations(range(1, m + 2), 4)
        if m > 3:
            continue  # two-row case is m=3 only; larger handled below
        for q in quads:
            assert three_term_plucker(3, 1, q)


def test_three_term_relation_generic_two_row():
    # a generic (non anti-diagonal) 2x4 matrix satisfies the same relation
    R = xring(8)
    x = R.gens()
    M = PolyMatrix(2, 4, x, "custom")

    def mm(i, j):
        return M[0, i] * M[1, j] - M[0, j] * M[1, i]

    rel = mm(0, 1) * mm(2, 3) - mm(0, 2) * mm(1, 3) + mm(0, 3) * mm(1, 2)
    assert rel.is_zero()


def test_plucker_identity_m4_solved_coefficients(hankel_record):
    partials = hankel_record(4)[1].partials
    brackets = _brackets(4)
    lhs = bracket_minor(brackets, (1, 3, 4)) * bracket_minor(brackets, (1, 2, 5))
    parts = [bracket_minor(brackets, (1, 3, 5)) * partials[5],
             partials[6] * bracket_minor(brackets, (1, 4, 5))]
    sol = solve_bracket_identity(lhs, parts)
    assert sol.verified
    # display-normalization slack: solved constants have magnitudes 1/2 and 1
    assert sorted(abs(Fraction(c)) for c in sol.coefficients) == [Fraction(1, 2), 1]


@st.composite
def _combination(draw):
    """1-4 linearly independent polynomials in 3 variables, rational
    constants, and the combination of the polynomials they weigh."""
    R = xring(3)
    monos = list(itertools.product(range(3), repeat=3))
    poly = st.dictionaries(st.sampled_from(monos), st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=5)
    parts = [Polynomial(R, draw(poly)) for _ in range(draw(st.integers(1, 4)))]
    support = sorted({e for p in parts for e in p.terms})
    assume(dense_rank([[p.terms.get(e, 0) for e in support] for p in parts])[0] == len(parts))
    coeffs = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                           min_size=len(parts), max_size=len(parts)))
    lhs = R.zero()
    for c, p in zip(coeffs, parts):
        lhs = lhs + p * c
    return lhs, parts, coeffs


@given(_combination())
@settings(max_examples=100, deadline=None)
def test_bracket_identity_recovers_rational_coefficients(case):
    # independent parts have one solution: the drawn constants, as Fractions
    lhs, parts, coeffs = case
    sol = solve_bracket_identity(lhs, parts)
    assert sol.verified
    assert sol.coefficients == coeffs
    assert all(type(c) is Fraction for c in sol.coefficients)


def test_plucker_verify_explicit():
    assert plucker_verify(3, 1, [
        (1, (1, 2), (3, 4)), (-1, (1, 3), (2, 4)), (1, (1, 4), (2, 3))])


# ---------------------------------------------------------------------------
# radical and reduction checks

def test_integrality_m2_trivial(hankel_record):
    # at m=2 the gradient ideal IS the coordinate ideal
    H, form, _ = hankel_record(2)
    R = H.ring
    J = Ideal(R, form.partials)
    assert ideal_equal(J, Ideal(R, list(R.gens())))


def test_integrality_m3_full(hankel_record):
    rep = integrality_check(*hankel_record(3))
    assert rep.passed
    assert all(ok for _, ok in rep.per_minor)
    assert len(rep.per_minor) == 6
    for w in rep.quadratic_witnesses:
        assert w["identity"] and w["square_in_JP"]


def test_integrality_m4_work_is_pinned(hankel_record, monkeypatch):
    # each bracket's radical test is a chain of colons from the basis of J,
    # so the check computes the bases of J and P and no other basis; a
    # change to the chain or to the colon engine moves the steps
    H, form, P = hankel_record(4)
    _MEMORY_CACHE.clear()
    computed = []
    entries = groebner.groebner_entries

    def counted(gens, order, budget):
        computed.append(order.id)
        return entries(gens, order, budget)
    monkeypatch.setattr(groebner, "groebner_entries", counted)
    budget = Budget()
    rep = integrality_check(H, form, P, budget)
    assert rep.passed and len(rep.per_minor) == 10
    assert computed == ["grevlex:7", "grevlex:7"]
    assert budget.steps == 1368


def test_reduction_check_small_cases(hankel_record):
    assert reduction_conjecture_check(*hankel_record(2), 0).status == "Equal"
    assert reduction_conjecture_check(*hankel_record(3), 0).status == "Equal"
    assert reduction_conjecture_check(*hankel_record(3), 1).status == "Equal"


def test_reduction_check_witnesses_either_side(hankel_record):
    # at m = 3, i = 0 the expected colon is the maximal ideal m.  With J in
    # place of P the colon J : J = (1) is not inside m, and its generator 1
    # is the witness; with m in place of P the colon J : m misses x0
    H, form, P = hankel_record(3)
    J = Ideal(H.ring, form.partials)
    out = reduction_conjecture_check(H, form, J, 0)
    assert (out.status, out.witness) == ("NotEqual", "1")
    m_ideal = Ideal(H.ring, H.ring.gens())
    out = reduction_conjecture_check(H, form, m_ideal, 0)
    assert (out.status, out.witness) == ("NotEqual", "x0")


def test_reduction_check_range_validation(hankel_record):
    with pytest.raises(ValueError):
        reduction_conjecture_check(*hankel_record(5), 0)
    with pytest.raises(ValueError):
        reduction_conjecture_check(*hankel_record(3), 2)


def test_max_order_caps_raise_their_messages(hankel_record):
    checks = {"golberg": lambda H, form, P: golberg_delta_check(H, form),
              "plucker": lambda H, form, P: three_term_plucker(H.rows, 1, (1, 2, 3, 4)),
              "radical": integrality_check,
              "reduction": lambda H, form, P: reduction_conjecture_check(H, form, P, 0)}
    messages = {"golberg": "minor-sum check capped at m = 5",
                "plucker": "three-term relation capped at m = 3",
                "radical": "radical check capped at m = 4",
                "reduction": "conjecture checks capped at m = 4"}
    assert set(checks) == set(MAX_ORDER) == set(messages)
    for name, cap in MAX_ORDER.items():
        with pytest.raises(ValueError) as err:
            checks[name](*hankel_record(cap + 1))
        assert str(err.value) == messages[name]


def test_reduction_timeout_reported(hankel_record):
    cfg = Config(gb_step_cap=200)
    out = reduction_conjecture_check(*hankel_record(4, cfg), 0, budget=cfg.budget())
    assert out.status == "Timeout"


def test_three_term_relation_two_row_antidiagonal_matrices():
    # 2 x k anti-diagonal matrices up to k = 7 columns: every column
    # quadruple satisfies the 3-term quadratic relation
    from detlab.polyring import xring
    for k in (4, 5, 6, 7):
        R = xring(k + 1)
        x = R.gens()
        row0 = [x[j] for j in range(k)]
        row1 = [x[j + 1] for j in range(k)]

        def mm(i, j):
            return row0[i] * row1[j] - row0[j] * row1[i]

        for a, b, c, d in itertools.combinations(range(k), 4):
            rel = mm(a, b) * mm(c, d) - mm(a, c) * mm(b, d) + mm(a, d) * mm(b, c)
            assert rel.is_zero()


def test_golberg_m5(hankel_record):
    rep = golberg_delta_check(*hankel_record(5)[:2])
    assert rep.passed
    assert rep.partial_signs == [(-1) ** i for i in range(9)]


def test_integrality_implies_matching_dimensions(hankel_record):
    for m in (3, 4):
        H, form, P = hankel_record(m)
        rep = integrality_check(H, form, P)
        assert rep.passed
        J = Ideal(H.ring, form.partials)
        assert hilbert_data(J).dimension == hilbert_data(P).dimension
