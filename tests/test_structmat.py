"""Structured matrix constructors, determinants, minors, cofactor matrices."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from detlab.polyring import xring
from detlab.structmat import (PolyMatrix, build_structured, build_gp_associated,
                              determinant, cofactor_matrix, minors_ideal_gens,
                              parse_matrix_spec, MinorLadder)
from detlab.linalg import _bareiss
from detlab.syzygy import _exact_quotient
from detlab.config import Budget, ComputationTimeout
from detlab.polar import polar_data
from oracles import hankel_entry_dicts, leibniz_det


def _rows(M):
    return [[str(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def test_matrix_evaluate_reads_its_entries_in_one_call(monkeypatch):
    from detlab import structmat
    from detlab.polyring import evaluate_all
    calls = []

    def counting(polys, *args):
        calls.append(len(polys))
        return evaluate_all(polys, *args)
    monkeypatch.setattr(structmat, "evaluate_all", counting)
    M = build_structured("catalecticant", m=3, r=2)
    pt = list(range(-3, M.ring.nvars - 3))
    for p in (None, 7):
        assert M.evaluate(pt, p) == [[M[r, c].evaluate(pt, p) for c in range(M.cols)]
                                     for r in range(M.rows)]
    assert calls == [9, 9]


# ---------------------------------------------------------------------------
# constructors

def test_catalecticant_displays():
    H3 = build_structured("catalecticant", m=3, r=1)
    assert _rows(H3) == [["x0", "x1", "x2"], ["x1", "x2", "x3"], ["x2", "x3", "x4"]]
    C32 = build_structured("catalecticant", m=3, r=2)
    assert _rows(C32) == [["x0", "x1", "x2"], ["x2", "x3", "x4"], ["x4", "x5", "x6"]]
    SH3 = build_structured("sub-hankel", n=3)
    assert _rows(SH3) == [["x0", "x1", "x2"], ["x1", "x2", "x3"], ["x2", "x3", "0"]]


def test_gp_associated_displays():
    G1 = build_gp_associated(3, 1)
    assert _rows(G1) == [["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "x4"]]
    G2 = build_gp_associated(3, 2)
    assert _rows(G2)[0] == ["x0", "x1", "x2", "x3", "x4"]
    assert _rows(G2)[1] == ["x2", "x3", "x4", "x5", "x6"]
    G3 = build_gp_associated(4, 3)
    assert [r[0] for r in _rows(G3)] == ["x0", "x3", "x6"]
    assert G3.rows == 3 and G3.cols == 7


def test_variable_counts_and_degrees():
    for m in (2, 3, 4):
        for r in range(1, m + 1):
            C = build_structured("catalecticant", m=m, r=r)
            assert C.ring.nvars == (m - 1) * (r + 1) + 1
            d = determinant(C)
            assert d.is_homogeneous() and d.degree == m


def test_generic_equals_full_leap_and_parameter_validation():
    G = build_structured("generic", m=3)
    C = build_structured("catalecticant", m=3, r=3)
    assert _rows(G) == _rows(C)
    with pytest.raises(ValueError):
        build_structured("catalecticant", m=1, r=1)
    with pytest.raises(ValueError):
        build_structured("catalecticant", m=3, r=4)
    with pytest.raises(ValueError):
        build_structured("sub-hankel", n=1)
    with pytest.raises(ValueError):
        build_gp_associated(3, 3)


def test_degenerate_and_sc3_layouts():
    DG = build_structured("degenerate-generic", m=3)
    assert DG.ring.nvars == 8
    assert str(DG[2, 2]) == "0"
    SC = build_structured("sc3")
    assert _rows(SC) == [["x0", "x1", "x2"], ["x2", "x3", "x4"], ["x4", "x5", "0"]]


def test_overrides_and_spec_file():
    M = parse_matrix_spec("""
    kind = catalecticant
    m = 3
    r = 2
    override = 2,2:0
    """)
    assert str(M[2, 2]) == "0"
    assert M.provenance == "custom"
    M2 = parse_matrix_spec("kind = gp-associated\nm = 3\nr = 1\n")
    assert M2.cols == 4


def test_gp_associated_spec_applies_its_overrides():
    M = parse_matrix_spec("kind = gp-associated\nm = 3\nr = 1\noverride = 0,0:0\n")
    assert (M.rows, M.cols) == (2, 4)
    assert str(M[0, 0]) == "0" and str(M[0, 1]) == "x1"
    assert M.provenance == "custom"
    G = build_structured("gp_associated", m=3, r=1)
    assert G == build_gp_associated(3, 1) and G.provenance == "gp-associated(3,1)"


# ---------------------------------------------------------------------------
# determinants

def test_det_2x2_formula():
    H = build_structured("hankel", m=2)
    assert str(determinant(H)) == "-x1^2 + x0*x2"


def test_det_hankel3_against_leibniz_oracle():
    want = leibniz_det(hankel_entry_dicts(3))
    H = build_structured("hankel", m=3)
    f = determinant(H)
    assert f.terms == want
    assert f == H.ring.from_string("x0*x2*x4 - x0*x3^2 - x1^2*x4 + 2*x1*x2*x3 - x2^3")


def _bareiss_run(M):
    """(pivot rows, sign, last pivot) of the Bareiss elimination over Q[x]."""
    rows, _, sign, last = _bareiss([M.row(i) for i in range(M.rows)], _exact_quotient)
    return rows, sign, last


def _bareiss_det(M):
    """Determinant read off the Bareiss elimination, whatever the entries."""
    rows, sign, last = _bareiss_run(M)
    if len(rows) < M.rows:
        return M.ring.zero()
    return last if sign == 1 else -last


def _submatrix(M, rows, cols):
    return PolyMatrix(len(rows), len(cols), [M[r, c] for r in rows for c in cols])


def test_det_methods_agree():
    mats = [build_structured(kind, **kw) for kind, kw in (
        ("hankel", {"m": 3}), ("hankel", {"m": 4}), ("catalecticant", {"m": 3, "r": 2}),
        ("sub-hankel", {"n": 4}), ("generic", {"m": 3}), ("symmetric", {"m": 3}))]
    # the casebook's symbolic Hessians (dg-3's is zero) and generic-3 adjugate
    hessians = [polar_data(determinant(build_structured(kind, **kw))).hessian for kind, kw in (
        ("hankel", {"m": 3}), ("catalecticant", {"m": 3, "r": 2}), ("sc3", {}),
        ("degenerate-generic", {"m": 3}))]
    assert determinant(hessians[-1]).is_zero()
    for M in mats + hessians + [cofactor_matrix(build_structured("generic", m=3))]:
        assert determinant(M) == _bareiss_det(M)


def _draw_product_rows(draw, m, n, k):
    """Rows of an m x n product A*B of linear-form matrices in 3 variables
    with inner dimension k.  A third of the forms are zero and a third
    single terms, so entries vanish often."""
    R = xring(3)
    x = R.gens()
    coeff = st.sampled_from([1, -1, 2, -2])

    def form():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return R.zero()
        if kind == 1:
            return x[draw(st.integers(0, 2))] * draw(coeff)
        return sum((x[i] * draw(st.integers(-2, 2)) for i in range(3)), R.zero())

    A = [[form() for _ in range(k)] for _ in range(m)]
    B = [[form() for _ in range(n)] for _ in range(k)]
    return [[sum((A[i][t] * B[t][j] for t in range(k)), R.zero()) for j in range(n)]
            for i in range(m)]


@st.composite
def _linear_form_products(draw):
    """n x n products with inner dimension k = n, or n - 1 (then singular)
    a third of the time; rows with a zero first entry go first, so Bareiss
    has to swap rows."""
    n = draw(st.integers(1, 4))
    k = max(1, n - draw(st.sampled_from([0, 0, 1])))
    rows = _draw_product_rows(draw, n, n, k)
    rows.sort(key=lambda row: not row[0].is_zero())
    return k, PolyMatrix(n, n, sum(rows, []), "custom")


def _swap_first_product():
    # [[0, x0], [x1, 0]] * [[x2, 0], [0, x2]]: the first pivot needs a swap
    R = xring(3)
    x = R.gens()
    return 2, PolyMatrix(2, 2, [R.zero(), x[0] * x[2], x[1] * x[2], R.zero()], "custom")


@given(_linear_form_products())
@example(_swap_first_product())
@settings(max_examples=100, deadline=None)
def test_bareiss_matches_cofactor_on_products(case):
    k, M = case
    n = M.rows
    rank = len(_bareiss_run(M)[0])
    assert rank <= k
    f = determinant(M)
    assert f.is_zero() == (rank < n)
    assert f == _bareiss_det(M)


@st.composite
def _rectangular_products(draw):
    """m x n products with inner dimension k <= min(m, n), so the rank is
    at most k and often below min(m, n)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(1, min(m, n)))
    return PolyMatrix(m, n, sum(_draw_product_rows(draw, m, n, k), []), "custom")


@given(_rectangular_products())
@settings(max_examples=60, deadline=None)
def test_ladder_minors_match_bareiss_on_products(M):
    ladder = MinorLadder(M)
    ladder_rank = 0
    for t in range(1, min(M.rows, M.cols) + 1):
        pairs = [(rows, cols) for rows in itertools.combinations(range(M.rows), t)
                 for cols in itertools.combinations(range(M.cols), t)]
        level = list(ladder.minors(t))
        assert len(level) == len(pairs)
        for (rows, cols), d in zip(pairs, level):
            assert d == _bareiss_det(_submatrix(M, rows, cols))
        if any(not d.is_zero() for d in level):
            ladder_rank = t
    rank = len(_bareiss_run(M)[0])
    assert ladder_rank == rank


def test_ladder_selection_order_is_the_sign():
    G = build_structured("generic", m=3)
    ladder = MinorLadder(G)
    d = ladder.minor([0, 1], [0, 2])
    assert ladder.minor([1, 0], [0, 2]) == -d == ladder.minor([0, 1], [2, 0])
    f = determinant(G)
    assert ladder.minor([0, 2, 1], range(3)) == -f == ladder.minor(range(3), [2, 1, 0])


def test_minor_rejects_bad_selections():
    G = build_structured("generic", m=3)
    for rows, cols in (([0], [3]),          # column past the end
                       ([3], [0]),          # row past the end
                       ([0], [-1]),         # negative index
                       ([0, 1], [0]),       # unequal lengths
                       ([0, 0], [1, 2]),    # repeated row
                       ([0, 1], [2, 2]),    # repeated column
                       ([], [])):
        with pytest.raises(ValueError):
            MinorLadder(G).minor(rows, cols)


def test_matrix_indexing_stays_inside_the_matrix():
    G = build_structured("generic", m=3)
    x = G.ring.gens()
    assert G[0, 2] == x[2] and G[2, 0] == x[6]
    assert G.row(2) == x[6:9] and G.column(0) == [x[0], x[3], x[6]]
    for bad in (lambda: G[0, 3], lambda: G[0, -1], lambda: G[3, 0],
                lambda: G.row(3), lambda: G.column(-1)):
        with pytest.raises(IndexError):
            bad()


def test_ladder_ticks_once_per_memo_entry():
    # a fully nonzero n x n determinant expands every nonempty column set
    # once: 2^n - 1 memo entries
    G = build_structured("generic", m=4)
    b = Budget()
    determinant(G, b)
    assert b.steps == 2 ** 4 - 1
    with pytest.raises(ComputationTimeout, match="determinant expansion"):
        minors_ideal_gens(G, 3, Budget(step_cap=10))


def test_det_alternating_row_swap():
    for kind, kw in (("hankel", {"m": 3}), ("catalecticant", {"m": 3, "r": 2}),
                     ("sub-hankel", {"n": 3})):
        M = build_structured(kind, **kw)
        f = determinant(M)
        swapped = PolyMatrix(M.rows, M.cols,
                             M.row(1) + M.row(0) + sum((M.row(i) for i in
                                                        range(2, M.rows)), []),
                             "custom")
        assert determinant(swapped) == -f


def test_det_budget_bounds_any_determinant():
    # entries x + i are not single variables; a 6x6 expansion has 63 memo
    # entries, so a 10-step cap stops it
    R = xring(1)
    x = R.gens()[0]
    n = 6
    M = PolyMatrix(n, n, [x + i for i in range(n * n)], "custom")
    with pytest.raises(ComputationTimeout, match="determinant expansion"):
        determinant(M, Budget(step_cap=10))
    assert determinant(M).is_zero()


def test_degenerate_generic_block_structure():
    DG = build_structured("degenerate-generic", m=3)
    f = determinant(DG)
    col_vars, row_vars, blk = {2, 5}, {6, 7}, {0, 1, 3, 4}
    for e in f.terms:
        sup = {i for i, v in enumerate(e) if v}
        assert len(sup & col_vars) == 1
        assert len(sup & row_vars) == 1
        assert len(sup & blk) == 1


# ---------------------------------------------------------------------------
# adjugate

def test_adjugate_2x2():
    R = xring(4)
    x = R.gens()
    M = PolyMatrix(2, 2, [x[0], x[1], x[2], x[3]], "custom")
    adj = cofactor_matrix(M)
    assert _rows(adj) == [["x3", "-x1"], ["-x2", "x0"]]


def test_adjugate_laplace_identity_and_cauchy():
    G = build_structured("generic", m=3)
    f = determinant(G)
    adj = cofactor_matrix(G)
    ring = G.ring
    for i in range(3):
        for j in range(3):
            s = ring.zero()
            for k in range(3):
                s = s + G[i, k] * adj[k, j]
            assert s == (f if i == j else ring.zero())
    assert determinant(adj) == f ** 2


def test_adjugate_errors():
    G = build_gp_associated(3, 1)
    with pytest.raises(ValueError):
        cofactor_matrix(G)


# ---------------------------------------------------------------------------
# minors

def test_minors_entries_ideal():
    H = build_structured("hankel", m=3)
    gens = minors_ideal_gens(H, 1)
    assert sorted(str(g) for g in gens) == ["x0", "x1", "x2", "x3", "x4"]


def test_minors_gp31_count():
    G = build_gp_associated(3, 1)
    gens = minors_ideal_gens(G, 2)
    assert len(gens) == 6  # C(4,2) brackets, all distinct


def test_minors_dedupe_symmetric():
    H = build_structured("hankel", m=3)
    gens = minors_ideal_gens(H, 2)
    # 9 pair-products collapse by symmetry
    assert len(gens) == len({str(g) for g in gens})
    assert len(gens) < 9 * 2


def test_minors_range_errors():
    H = build_structured("hankel", m=3)
    with pytest.raises(ValueError):
        minors_ideal_gens(H, 0)
    with pytest.raises(ValueError):
        minors_ideal_gens(H, 4)


def test_cat32_minor_exclusion_ideal_level():
    from detlab.groebner import Ideal, ideal_equal
    C = build_structured("catalecticant", m=3, r=2)
    G = build_gp_associated(3, 2)
    b = MinorLadder(G).minor(range(2), [1, 3])
    I = Ideal(C.ring, minors_ideal_gens(C, 2))
    reduced = Ideal(C.ring, [g for g in minors_ideal_gens(G, 2) if g not in (b, -b)])
    assert ideal_equal(I, reduced)
    assert not I.contains(b)


def test_gp_associated_minor_ideal_matches_square_for_unit_leap():
    # double inclusion: the rectangular maximal minors and the square
    # submaximal minors generate the same ideal when the leap is 1
    from detlab.groebner import Ideal, ideal_equal
    for m in (3, 4):
        H = build_structured("hankel", m=m)
        G = build_gp_associated(m, 1)
        A = Ideal(H.ring, minors_ideal_gens(H, m - 1))
        B = Ideal(H.ring, minors_ideal_gens(G, m - 1))
        assert A.contains_ideal(B) and B.contains_ideal(A)
