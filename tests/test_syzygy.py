"""Linear syzygies, module syzygies, Fitting condition, Betti tables."""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import groebner, syzygy
from detlab.config import Budget, ComputationTimeout, Config
from detlab.groebner import (Ideal, hilbert_data, rees_ring, symmetric_algebra_ideal,
                             _MEMORY_CACHE)
from detlab.linalg import SparseEliminator
from detlab.polyring import Polynomial, clear_denominators, dot, morph, xring
from detlab.structmat import (PolyMatrix, build_structured, build_gp_associated, determinant,
                              minors_ideal_gens)
from detlab.syzygy import (GradedSyzygyMatrix, ModuleBasis, fitting_condition_F1,
                           first_syzygy_module, graded_betti, linear_syzygies, minimal_generators,
                           module_groebner, poly_matrix_rank, rees_bigraded_kernel,
                           rees_minimal_bidegree12, syzygy_generators,
                           _module_rows, _monomials_of_degree)
from oracles import all_minors_fitting_F1, row_minimal_generators
from test_groebner import _LabelBudget, _disk_records, _fresh_process


def partials_of(kind, **kw):
    M = build_structured(kind, **kw)
    f = determinant(M)
    return M, f, [f.diff(i) for i in range(M.ring.nvars)]


# ---------------------------------------------------------------------------
# linear syzygies

def test_koszul_pair_linear_syzygy():
    R = xring(2)
    x0, x1 = R.gens()
    syz, rank = linear_syzygies([x0, x1])
    assert rank.rank == 1 and len(syz.columns) == 1
    col = syz.columns[0]
    assert [str(p) for p in col] in (["-x1", "x0"], ["x1", "-x0"])


def test_linear_syzygies_allow_zero_forms():
    # the degree is read from the nonzero forms: (x0, 0, x1) has the
    # syzygies x0*e1, x1*e1 and the Koszul one, of rank 2
    R = xring(2)
    x0, x1 = R.gens()
    forms = [x0, R.zero(), x1]
    syz, rank = linear_syzygies(forms)
    assert len(syz.columns) == 3
    assert all(dot(col, forms).is_zero() for col in syz.columns)
    assert (rank.rank, rank.certainty) == (2, "proved")
    with pytest.raises(ValueError, match="one degree"):
        linear_syzygies([R.zero(), R.zero()])


def test_hankel3_linear_rank_and_displayed_columns():
    _, f, partials = partials_of("hankel", m=3)
    syz, rank = linear_syzygies(partials)
    assert (rank.rank, rank.certainty) == (3, "proved")
    assert len(syz.columns) == 3
    assert all(dot(col, partials).is_zero() for col in syz.columns)
    R = f.ring
    x = R.gens()
    displayed = [
        [R.zero(), x[0], 2 * x[1], 3 * x[2], 4 * x[3]],
        [-2 * x[0], -x[1], R.zero(), x[3], 2 * x[4]],
        [4 * x[1], 3 * x[2], 2 * x[3], x[4], R.zero()],
    ]
    for col in displayed:
        acc = R.zero()
        for a, p in zip(col, partials):
            acc = acc + a * p
        assert acc.is_zero()
    # the displayed columns lie in the computed linear-syzygy span
    mb = ModuleBasis(syz.columns, [2] * 5)
    for col in displayed:
        assert mb.contains(col)
    # and the full linear kernel is exactly 3-dimensional
    assert len(syz.columns) == 3


@pytest.mark.parametrize("kind,kw,expected_rank,expected_cols", [
    ("catalecticant", {"m": 3, "r": 2}, 6, 6),
    ("catalecticant", {"m": 4, "r": 2}, 6, 6),
    ("sc3", {}, 5, 7),
    ("hankel", {"m": 4}, 3, 3),
    ("symmetric", {"m": 3}, 5, 8),
    ("degenerate-generic", {"m": 3}, 7, 12),
])
def test_linear_ranks_of_case_matrices(kind, kw, expected_rank, expected_cols):
    _, _, partials = partials_of(kind, **kw)
    syz, rank = linear_syzygies(partials)
    assert all(dot(col, partials).is_zero() for col in syz.columns)
    assert rank.rank == expected_rank
    assert len(syz.columns) == expected_cols


def test_cat43_linear_rank_eleven():
    _, _, partials = partials_of("catalecticant", m=4, r=3)
    syz, rank = linear_syzygies(partials)
    assert rank.rank == 11 and len(syz.columns) == 11
    assert rank.certainty == "proved"  # full column rank at a certified point


def test_mixed_degree_forms_rejected():
    R = xring(2)
    x0, x1 = R.gens()
    with pytest.raises(ValueError):
        linear_syzygies([x0, x1 ** 2])


# ---------------------------------------------------------------------------
# full first syzygies

def test_regular_sequence_koszul_columns():
    R = xring(3)
    x = R.gens()
    syz = first_syzygy_module(list(x))
    assert len(syz.columns) == 3
    assert sorted(syz.column_degrees) == [2, 2, 2]
    assert all(dot(col, list(x)).is_zero() for col in syz.columns)
    mb = ModuleBasis(syz.columns, [1, 1, 1])
    assert mb.contains([x[1], -x[0], R.zero()])
    assert mb.contains([x[2], R.zero(), -x[0]])
    assert mb.contains([R.zero(), x[2], -x[1]])


def test_module_basis_needs_one_shift_per_component():
    x0, x1 = xring(2).gens()
    with pytest.raises(ValueError):
        ModuleBasis([[x0, x1]], [1])


def test_eagon_northcott_linear_presentation_gp31():
    G = build_gp_associated(3, 1)
    gens = minors_ideal_gens(G, 2)
    syz = first_syzygy_module(gens)
    assert all(dot(col, gens).is_zero() for col in syz.columns)
    # codimension-3 ideal with pure linear first syzygies: 8 columns
    assert all(syz.entry_degree(i) == 1 for i in range(len(syz.columns)))
    assert len(syz.columns) == 8


def test_subhankel_filtration_presentation_matches_module(subhankel_record):
    from detlab.subhankel import filtration_generators, hilbert_burch
    form = subhankel_record(4)
    gens = filtration_generators(form, 3)
    syz = first_syzygy_module(gens)
    phi = hilbert_burch(form, 3)
    mb = ModuleBasis(syz.columns, [g.degree for g in gens])
    for c in range(phi.cols):
        assert mb.contains(phi.column(c))
    assert str(phi[3, 0]) == "x4" and str(phi[3, 1]) == "0" and str(phi[3, 2]) == "0"


@st.composite
def _ternary_forms(draw):
    """2-4 forms of one degree (1 or 2) in 3 variables, small coefficients."""
    deg = draw(st.integers(1, 2))
    monos = list(_monomials_of_degree(3, deg))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos))
    rows = draw(st.lists(coeffs, min_size=2, max_size=4))
    R = xring(3)
    return deg, [Polynomial(R, dict(zip(monos, row))) for row in rows]


def _syzygies_in_degree(forms, d):
    """The syzygies of the forms whose entries have degree d: the (d, 1)
    piece of their blowup ideal, each element's y-coefficients a column."""
    R, k = forms[0].ring, len(forms)
    cols = []
    for rel in rees_bigraded_kernel(forms, d, 1):
        col = [{} for _ in forms]
        for e, c in rel.terms.items():
            col[e[:k].index(1)][e[k:]] = c
        cols.append([Polynomial(R, a) for a in col])
    return cols


@given(_ternary_forms())
@settings(max_examples=40, deadline=None)
def test_module_gb_syzygies_match_degreewise_kernels(case):
    # the module-GB syzygies are sound, and they generate every syzygy that
    # degree-wise linear algebra finds with entries of degree <= 2
    deg, forms = case
    assume(all(not f.is_zero() for f in forms))
    syz = first_syzygy_module(forms)
    assert all(dot(col, forms).is_zero() for col in syz.columns)
    mb = ModuleBasis(syz.columns, [deg] * len(forms))
    for d in range(3):
        for col in _syzygies_in_degree(forms, d):
            assert dot(col, forms).is_zero()
            assert mb.contains(col)


@given(_ternary_forms(), st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.integers(2, 5)),
                                  min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_rational_forms_have_the_relations_of_integral_forms(case, scales):
    # rescaling each form by a rational constant keeps the relation counts;
    # every relation found for the rescaled forms holds exactly
    _, forms = case
    scaled = [f * Fraction(a, b) for f, (a, b) in zip(forms, scales)]
    R = forms[0].ring
    for d in range(2):
        cols = _syzygies_in_degree(scaled, d)
        assert all(dot(col, scaled).is_zero() for col in cols)
        assert len(cols) == len(_syzygies_in_degree(forms, d))
    taus = rees_bigraded_kernel(scaled, 0, 2)
    assert all(t.compose(scaled + R.gens()).is_zero() for t in taus)
    assert len(taus) == len(rees_bigraded_kernel(forms, 0, 2))


@given(_ternary_forms())
@settings(max_examples=30, deadline=None)
def test_degreewise_syzygies_are_the_y_linear_rees_pieces(case):
    # the linear syzygies are read from the (1, 1) piece, so written as
    # y-linear forms they are that piece, in order
    _, forms = case
    assume(any(f.terms for f in forms))
    T = rees_ring(forms[0].ring, len(forms))
    as_forms = [sum((morph(a, T) * T.var(i) for i, a in enumerate(col)), T.zero())
                for col in linear_syzygies(forms)[0].columns]
    assert as_forms == rees_bigraded_kernel(forms, 1, 1)


def test_module_engine_work_is_pinned():
    # module S-pairs and reduction steps of the first syzygies of two
    # gradient ideals: module bases run the engine's reduction step and pair
    # criteria, so a change to either moves these counts
    for kind, shape, columns, work in (("hankel", dict(m=3), 10, (26, 65)),
                                       ("catalecticant", dict(m=3, r=2), 17, (115, 557))):
        _, _, partials = partials_of(kind, **shape)
        _MEMORY_CACHE.clear()  # a module basis cached by an earlier test takes no steps
        budget = _LabelBudget()
        syz = first_syzygy_module(partials, budget)
        assert len(syz.columns) == columns
        assert (budget.by_label["module Buchberger"],
                budget.by_label["module reduction"]) == work


def _module_work(budget):
    return budget.by_label["module Buchberger"], budget.by_label["module reduction"]


def test_a_module_basis_is_read_back_from_the_disk(tmp_path, monkeypatch):
    # the first syzygies of the Hankel-3 partials: a new process reads the
    # module basis from the pack and runs no module step
    _, _, partials = partials_of("hankel", m=3)
    cfg = Config(cache_dir=str(tmp_path))
    bases = []
    monkeypatch.setattr(syzygy, "module_groebner",
                        lambda *args: bases.append(module_groebner(*args)) or bases[-1])
    runs = []
    for _ in range(2):
        _fresh_process()
        budget = _LabelBudget(cfg)
        runs.append((syzygy_generators([[f] for f in partials], [0], budget),
                     _module_work(budget)))
    (computed, work), (read, none) = runs
    assert work == (26, 65) and none == (0, 0)
    assert [g.full() for g in bases[1]] == [g.full() for g in bases[0]]
    assert read.columns == computed.columns and read.column_degrees == computed.column_degrees


def test_a_module_record_without_a_one_hot_prefix_is_recomputed(tmp_path):
    # a record with a valid digest whose first term has two component
    # slots set is no module element: the basis is recomputed
    R = xring(3)
    x0, x1, x2 = R.gens()
    columns = [[x0 * x1], [x1 * x2], [x0 * x2]]
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    want = syzygy_generators(columns, [0], _LabelBudget(cfg))
    ((key, [body]),) = _disk_records(tmp_path).items()
    head, first, rest = body.split(b"\n", 2)
    pk = groebner._Packing.shared(_module_rows(R.order, 4), int(head.split()[0]))
    terms = first.split()
    # the leading monomial gains a second component slot, and stays the largest
    lm = int(terms[1], 16)
    slot = next(c for c in range(4) if not pk.unpack(lm)[c])
    terms[1] = b"%x" % (lm + pk.units[slot])
    (path,) = tmp_path.glob("*.gb")
    path.write_bytes(groebner._disk_record(key, b"\n".join([head, b" ".join(terms), rest])))
    _fresh_process()
    budget = _LabelBudget(cfg)
    got = syzygy_generators(columns, [0], budget)
    assert got.columns == want.columns and _module_work(budget)[0] > 0


def test_linear_part_subset_of_full_module():
    _, _, partials = partials_of("catalecticant", m=3, r=2)
    lin, _ = linear_syzygies(partials)
    full = first_syzygy_module(partials)
    mb = ModuleBasis(full.columns, [p.degree for p in partials])
    for col in lin.columns:
        assert mb.contains(col)
    assert [d for d in full.column_degrees if d == 3] == [3] * len(lin.columns)


def test_columns_exact_before_emission():
    _, _, partials = partials_of("sub-hankel", n=4)
    syz = first_syzygy_module(partials)
    assert all(dot(col, partials).is_zero() for col in syz.columns)


# ---------------------------------------------------------------------------
# rank certification

def test_poly_matrix_rank_deficient_exact():
    R = xring(2)
    x0, x1 = R.gens()
    from detlab.structmat import PolyMatrix
    M = PolyMatrix(2, 2, [x0, x1, x0, x1], "custom")
    res = poly_matrix_rank(M)
    assert res.rank == 1 and res.certainty == "proved"


def test_symbolic_rank_ticks_the_callers_budget():
    # row 3 is row 1 + row 2, so no point proves the rank and the 3 x 3
    # matrix goes to the symbolic elimination: 2 row updates at the first
    # pivot and 1 at the second, each one tick of the caller's budget
    R = xring(3)
    x0, x1, x2 = R.gens()
    M = PolyMatrix(3, 3, [x0, x1, x0 + x1,
                          x1, x2, x1 + x2,
                          x0 + x1, x1 + x2, x0 + x1 * 2 + x2], "custom")
    budget = Budget()
    res = poly_matrix_rank(M, budget=budget)
    assert (res.rank, res.certainty, budget.steps) == (2, "proved", 3)
    with pytest.raises(ComputationTimeout) as err:
        poly_matrix_rank(M, budget=Budget(step_cap=1))
    assert err.value.what == "Bareiss elimination"


def test_rank_bound_reported():
    _, _, partials = partials_of("catalecticant", m=3, r=2)
    _, rank = linear_syzygies(partials)
    assert rank.per_trial_bound is not None and rank.per_trial_bound < 2 ** -40


# ---------------------------------------------------------------------------
# minimal generators

@st.composite
def _graded_columns(draw):
    """Columns of 1-3 components in 2-3 variables, homogeneous for target
    degrees 0-2, of column degree 1-4 and rational coefficients; some are
    x_v times an earlier column plus a random column of the same degree,
    or zero, so that candidates of every degree can depend on the picks
    before them.  A column is zero in the components whose target exceeds
    its degree, so products of low-degree picks can reach higher exponents
    than any column holds."""
    nvars = draw(st.integers(2, 3))
    R = xring(nvars)
    targets = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    coeff = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])

    def column(d):
        return [Polynomial(R, {m: c for m in _monomials_of_degree(nvars, d - t)
                               if (c := draw(coeff))}) for t in targets]
    columns, degrees = [], []
    for _ in range(draw(st.integers(1, 6))):
        d = draw(st.integers(1, 4))
        if columns and draw(st.booleans()):
            i = draw(st.integers(0, len(columns) - 1))
            x, d = R.var(draw(st.integers(0, nvars - 1))), degrees[i] + 1
            noise = column(d) if draw(st.booleans()) else [R.zero()] * len(targets)
            col = [x * a + b for a, b in zip(columns[i], noise)]
        elif draw(st.integers(0, 5)) == 0:
            col = [R.zero()] * len(targets)
        else:
            col = column(d)
        k = draw(st.integers(0, len(columns)))
        columns.insert(k, col)
        degrees.insert(k, d)
    return nvars, GradedSyzygyMatrix(targets, columns, degrees)


@given(_graded_columns())
@settings(max_examples=150, deadline=None)
def test_minimal_generators_match_the_row_path(case):
    # the packed column reduction keeps the columns that the Fraction rank
    # test of the row path keeps, in the same order, with their degrees
    nvars, syz = case
    want = row_minimal_generators(syz.columns, syz.column_degrees, nvars)
    got = minimal_generators(syz, Budget())
    assert got.columns == [syz.columns[i] for i in want]
    assert got.column_degrees == [syz.column_degrees[i] for i in want]
    assert got.target_degrees == syz.target_degrees


def test_minimal_generators_pack_products_beyond_every_entry_degree():
    # x0^2 * (x0, 0) has an exponent 3 that no column's entries reach, and
    # it must not carry into the component field, where it would equal
    # the packing of (0, x0)
    R = xring(2)
    x0 = R.var(0)
    syz = GradedSyzygyMatrix([0, 2], [[x0, R.zero()], [R.zero(), x0]], [1, 3])
    assert row_minimal_generators(syz.columns, syz.column_degrees, 2) == [0, 1]
    assert minimal_generators(syz).columns == syz.columns


def test_minimal_generators_work_is_pinned(monkeypatch, subhankel_record):
    # "linear algebra" steps of the minimal generators of the sub-Hankel
    # order-5 syzygy module, one per pivot subtracted while the products
    # of lower-degree picks and the candidates are reduced; the count
    # repeats exactly
    gens = subhankel_record(5).syzygy_generators(Budget())
    ticks = _counting_ticks(monkeypatch)
    counts = []
    for _ in range(2):
        ticks.clear()
        assert len(minimal_generators(gens, Budget()).columns) == 6
        counts.append(dict(ticks))
    assert counts == [{"linear algebra": 194}] * 2


def test_minimal_generators_keep_their_step_cap(subhankel_record):
    # the same span tests stop when their budget runs out
    gens = subhankel_record(5).syzygy_generators(Budget())
    with pytest.raises(ComputationTimeout) as err:
        minimal_generators(gens, Budget(step_cap=194 // 2))
    assert err.value.what == "linear algebra"


# ---------------------------------------------------------------------------
# Fitting condition

def test_fitting_complete_intersection():
    R = xring(2)
    x0, x1 = R.gens()
    rep = fitting_condition_F1([x0, x1], first_syzygy_module([x0, x1]))
    assert rep.passed and rep.rank == 1
    assert rep.rows[0]["height"] >= 2
    # one form has rank 0 and no Fitting condition to meet
    rep = fitting_condition_F1([x0], first_syzygy_module([x0]))
    assert rep.passed and rep.rank == 0 and rep.rows == []


def test_fitting_fails_for_squares():
    # oracle: the three quadrics have three linear syzygies; the presentation
    # has rank 2, so t=1 needs height >= 3 in a 2-variable ring: impossible
    R = xring(2)
    x0, x1 = R.gens()
    forms = [x0 ** 2, x0 * x1, x1 ** 2]
    syz = first_syzygy_module(forms)
    assert all(syz.entry_degree(i) == 1 for i in range(len(syz.columns)))
    rep = fitting_condition_F1(forms, syz)
    assert not rep.passed
    t1 = rep.rows[0]
    assert t1["t"] == 1 and t1["required"] == 3 and t1["height"] == 2 and t1["exact"]


def test_fitting_hankel3_passes():
    _, _, partials = partials_of("hankel", m=3)
    rep = fitting_condition_F1(partials, first_syzygy_module(partials))
    assert rep.passed
    assert rep.rank == 4
    for row in rep.rows:
        assert row["pass"] and row["status"] == "complete"


def test_fitting_rank_is_the_presentation_rank():
    # the rank k - 1, certified by a nonzero minor, against the
    # evaluation-and-Bareiss rank of the same presentation
    _, _, partials = partials_of("hankel", m=3)
    syz = first_syzygy_module(partials)
    rank = fitting_condition_F1(partials, syz).rank
    assert rank == len(partials) - 1 == poly_matrix_rank(syz.as_poly_matrix()).rank


def test_fitting_refuses_what_presents_no_forms():
    R = xring(2)
    x0, x1 = R.gens()
    syz = first_syzygy_module([x0, x1])
    with pytest.raises(ValueError):
        fitting_condition_F1([R.zero(), R.zero()], syz)
    with pytest.raises(ValueError):  # a column that is no syzygy of the forms
        fitting_condition_F1([x0, x1 ** 2], syz)
    with pytest.raises(ValueError):  # the columns have rank 1, below k - 1 = 2
        fitting_condition_F1([x0, x1, x0 + x1],
                             GradedSyzygyMatrix([1, 1, 1], [[x1, -x0, R.zero()]], [2]))


def test_fitting_hankel3_work_is_pinned(monkeypatch):
    # the heights are certified by a few minors per level; the all-minors
    # check (`all_minors_fitting_F1`) computes bases of 31, 281, 844 and 841
    # generators in 21 052 steps
    _, _, partials = partials_of("hankel", m=3)
    syz = first_syzygy_module(partials)
    _MEMORY_CACHE.clear()
    sizes = []
    entries = groebner.groebner_entries

    def counted(gens, order, budget):
        sizes.append(len(gens))
        return entries(gens, order, budget)
    monkeypatch.setattr(groebner, "groebner_entries", counted)
    budget = Budget()
    assert fitting_condition_F1(partials, syz, budget).passed
    assert sizes and max(sizes) <= 16
    assert budget.steps <= 1_000


@st.composite
def _one_degree_forms(draw):
    """2-4 nonzero forms of one degree in 2 or 3 variables: distinct
    monomials, all monomials of the degree in 2 variables (Veronese type),
    or forms with small random coefficients."""
    kind = draw(st.sampled_from(["monomial", "veronese", "general"]))
    R = xring(draw(st.integers(2, 3)))
    if kind == "veronese":
        deg = draw(st.integers(1, 3))
        return [Polynomial(R, {e + (0,) * (R.nvars - 2): 1})
                for e in _monomials_of_degree(2, deg)]
    deg = draw(st.integers(1, 2))
    monos = list(_monomials_of_degree(R.nvars, deg))
    if kind == "monomial":
        picked = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=4, unique=True))
        return [Polynomial(R, {e: 1}) for e in picked]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos))
    rows = draw(st.lists(coeffs.filter(any), min_size=2, max_size=4))
    return [Polynomial(R, dict(zip(monos, row))) for row in rows]


def _agrees_with_all_minors(forms):
    syz = first_syzygy_module(forms)
    rank, heights, passed = all_minors_fitting_F1(syz)
    rep = fitting_condition_F1(forms, syz)
    assert (rep.rank, rep.passed) == (rank, passed)
    assert [row["t"] for row in rep.rows] == list(range(1, rank + 1))
    for row, ht in zip(rep.rows, heights):
        assert row["status"] == "complete" and row["pass"] == (ht >= row["required"])
        if row["exact"]:
            assert row["height"] == ht
        else:
            assert row["required"] <= row["height"] <= ht


@given(_one_degree_forms())
@settings(max_examples=60, deadline=None)
def test_fitting_matches_the_all_minors_check(forms):
    _agrees_with_all_minors(forms)


@pytest.mark.parametrize("kind,size", [("hankel", 3), ("sub-hankel", 3), ("sub-hankel", 4)])
def test_fitting_matches_the_all_minors_check_on_partials(kind, size):
    _, _, partials = partials_of(kind, **({"m": size} if kind == "hankel" else {"n": size}))
    _agrees_with_all_minors(partials)


# ---------------------------------------------------------------------------
# Betti tables

def test_betti_koszul_two_variables():
    R = xring(2)
    x = R.gens()
    bt, _ = graded_betti(Ideal(R, list(x)))
    assert dict(bt.items()) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_betti_subhankel_filtration_recurrence(subhankel_record):
    from detlab.subhankel import filtration_generators
    form = subhankel_record(4)
    for i in (1, 2, 3):
        bt, _ = graded_betti(Ideal(form.f.ring, filtration_generators(form, i)))
        assert bt[(1, i)] == i + 1
        assert bt[(2, i + 1)] == i
        assert max(index for (index, _), _ in bt.items()) == 2


def test_betti_subhankel4_gradient_shifts(subhankel_record):
    form = subhankel_record(4)
    J = Ideal(form.f.ring, form.partials)
    bt, stages = graded_betti(J)
    assert dict(bt.items()) == {(0, 0): 1, (1, 3): 5, (2, 4): 4, (2, 6): 1, (3, 7): 1}


def test_betti_alternating_sum_matches_hilbert_numerator(subhankel_record):
    for n in (3, 4):
        form = subhankel_record(n)
        J = Ideal(form.f.ring, form.partials)
        bt, _ = graded_betti(J)
        hd = hilbert_data(J)
        assert bt.alternating_sum() == hd.numerator
    # also on a minor ideal
    G = build_gp_associated(3, 1)
    P = Ideal(G.ring, minors_ideal_gens(G, 2))
    bt, _ = graded_betti(P)
    assert bt.alternating_sum() == hilbert_data(P).numerator


def test_betti_records_shifts_above_forty():
    # the complete intersection (x0^21, x1^21): its Koszul syzygy has shift 42
    R = xring(2)
    x0, x1 = R.gens()
    I = Ideal(R, [x0 ** 21, x1 ** 21])
    bt, _ = graded_betti(I)
    assert bt.complete
    assert dict(bt.items()) == {(0, 0): 1, (1, 21): 2, (2, 42): 1}
    assert bt.alternating_sum() == hilbert_data(I).numerator


def test_betti_ambient_cap():
    R = xring(8)
    with pytest.raises(ValueError):
        graded_betti(Ideal(R, [R.gens()[0]]))


# ---------------------------------------------------------------------------
# bigraded pieces

def test_bigraded_kernel_veronese_relation():
    R = xring(2)
    x0, x1 = R.gens()
    taus = rees_bigraded_kernel([x0 ** 2, x0 * x1, x1 ** 2], 0, 2)
    assert len(taus) == 1
    assert str(taus[0]) in ("-y1^2 + y0*y2", "y1^2 - y0*y2")


def _counting_ticks(monkeypatch) -> dict:
    """Steps ticked on any Budget by label, in a dict that the caller
    clears between runs."""
    ticks = {}
    tick = Budget.tick

    def counting(self, n=1, what="computation"):
        ticks[what] = ticks.get(what, 0) + n
        return tick(self, n, what)
    monkeypatch.setattr(Budget, "tick", counting)
    return ticks


def test_bigraded_kernel_work_count_lock(monkeypatch):
    # the (1,2) kernel of the cat-4-2 partials: its dimension and its work,
    # one "linear algebra" step per pivot column subtracted while the 550
    # product columns are reduced in leading-key order; a change to the
    # feed order or to the pivot choice moves the count, and it repeats
    # exactly
    ticks = _counting_ticks(monkeypatch)
    _, _, p42 = partials_of("catalecticant", m=4, r=2)
    counts = []
    for _ in range(2):
        ticks.clear()
        assert len(rees_bigraded_kernel(p42, 1, 2, Budget())) == 62
        counts.append(dict(ticks))
    assert counts == [{"bigraded kernel assembly": 550, "linear algebra": 717}] * 2


def test_bigraded_kernel_keeps_its_step_cap():
    # the (1,2) kernel of the cat-4-2 partials stops inside the column
    # reduction when its budget runs out there
    _, _, p42 = partials_of("catalecticant", m=4, r=2)
    with pytest.raises(ComputationTimeout) as err:
        rees_bigraded_kernel(p42, 1, 2, Budget(step_cap=550 + 717 // 2))
    assert err.value.what == "linear algebra"


_BIDEGREE12_CASES = {
    "cat-4-2": (("catalecticant", {"m": 4, "r": 2}), 2, 8),
    "cat-4-3": (("catalecticant", {"m": 4, "r": 3}), 4, 12),
    "cat-3-2": (("catalecticant", {"m": 3, "r": 2}), 0, None),
    "hankel-4": (("hankel", {"m": 4}), 0, None),
}


@functools.lru_cache(maxsize=None)
def _bidegree12(sid):
    (kind, kw), _, _ = _BIDEGREE12_CASES[sid]
    _, _, forms = partials_of(kind, **kw)
    columns = linear_syzygies(forms)[0].columns
    return forms, columns, rees_minimal_bidegree12(forms, columns)


def _old_span_1_2(forms, columns):
    """The (1,2) part that the syzygy 1-forms, the (0,2) relations and the
    constant (0,1) relations generate, as polynomials in the y,x ring."""
    T = rees_ring(forms[0].ring, len(forms))
    k, n = len(forms), forms[0].ring.nvars
    ys, xs = [T.var(j) for j in range(k)], [T.var(k + v) for v in range(n)]
    sigmas = [sum((morph(a, T) * ys[i] for i, a in enumerate(col)), T.zero())
              for col in columns]
    return ([s * y for s in sigmas for y in ys]
            + [t * x for t in rees_bigraded_kernel(forms, 0, 2) for x in xs]
            + [r * x * y for r in rees_bigraded_kernel(forms, 0, 1) for x in xs for y in ys])


def _span_rank(polys):
    index, elim = {}, SparseEliminator()
    for g in polys:
        ints, _ = clear_denominators(g.terms.items())
        elim.add_row({index.setdefault(e, len(index)): c for e, c in ints.items()})
    return elim.rank


def test_bidegree12_counts():
    for sid, (_, count, _) in _BIDEGREE12_CASES.items():
        _, _, (new, kdim, odim) = _bidegree12(sid)
        assert len(new) == count and kdim == odim + count


@pytest.mark.parametrize("sid", sorted(_BIDEGREE12_CASES))
def test_bidegree12_generators_complement_the_old_span(sid):
    # the new generators are relations (they vanish at y = f), independent
    # modulo the old span, and with it they fill the whole (1,2) kernel
    forms, columns, (new, kdim, odim) = _bidegree12(sid)
    R = forms[0].ring
    assert all(g.compose(forms + R.gens()).is_zero() for g in new)
    old = _old_span_1_2(forms, columns)
    assert _span_rank(old) == odim
    assert _span_rank(old + new) == odim + len(new)
    assert kdim == len(rees_bigraded_kernel(forms, 1, 2))


@pytest.mark.parametrize("sid", ["cat-4-2", "cat-4-3"])
def test_bidegree12_jacobian_dual_rank(sid):
    from detlab.polar import jacobian_dual_rank
    forms, columns, (new, _, _) = _bidegree12(sid)
    sym = symmetric_algebra_ideal(forms, columns).gens
    assert jacobian_dual_rank(forms, sym + new).rank == _BIDEGREE12_CASES[sid][2]


def test_bidegree12_reduction_step_lock(monkeypatch):
    # "linear algebra" steps of the cat-4-3 (1,2) piece: the column
    # reductions of its (0,2), (0,1) and (1,2) kernels, whose skipped
    # columns are the pivots of the known span, and the reductions of the
    # known span's rows; the count repeats exactly
    _, _, forms = partials_of("catalecticant", m=4, r=3)
    columns = linear_syzygies(forms)[0].columns
    ticks = _counting_ticks(monkeypatch)
    counts = []
    for _ in range(2):
        ticks.clear()
        rees_minimal_bidegree12(forms, columns, Budget())
        counts.append(ticks["linear algebra"])
    assert counts == [842, 842]


def test_bidegree12_multiplies_no_polynomials(monkeypatch):
    # the quadric products are built once on packed terms, and their
    # x-multiples are shifts: no Polynomial product on the cat-4-3 piece
    _, _, forms = partials_of("catalecticant", m=4, r=3)
    columns = linear_syzygies(forms)[0].columns
    calls = []
    mul = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(Polynomial, "__mul__", counting)
    new, _, _ = rees_minimal_bidegree12(forms, columns)
    assert len(new) == 4
    assert calls == []


def test_poly_matrix_rank_random_products():
    # matrices built as products A*B with inner dimension r have rank r
    # generically; the symbolic echelon rank must agree with evaluations
    import random
    from detlab.structmat import PolyMatrix
    from detlab.polyring import xring
    from detlab.linalg import _bareiss
    rng = random.Random(77)
    R = xring(3)
    x = R.gens()
    for _ in range(12):
        rows, cols, r = rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(1, 3)

        def lin():
            return sum((x[i] * rng.randrange(-3, 4) for i in range(3)), R.zero())

        A = [[lin() for _ in range(r)] for _ in range(rows)]
        B = [[lin() for _ in range(cols)] for _ in range(r)]
        ents = []
        for i in range(rows):
            for j in range(cols):
                acc = R.zero()
                for k in range(r):
                    acc = acc + A[i][k] * B[k][j]
                ents.append(acc)
        M = PolyMatrix(rows, cols, ents, "custom")
        exact = len(_bareiss([M.row(i) for i in range(M.rows)], syzygy._exact_quotient)[0])
        assert exact <= min(r, rows, cols)
        res = poly_matrix_rank(M)
        assert res.rank == exact


@st.composite
def _forms_with_linear_syzygies(draw):
    """Nonzero forms of one degree in three variables with linear syzygies:

    * "minors": the maximal minors of a random 2 x 3 or 3 x 4 matrix of
      linear forms (quadrics or cubics), whose rows are linear syzygies
      (Hilbert-Burch), of rank k - 1 unless the draw degenerates;
    * "multiples": l_i * g for random linear forms l_i and one form g,
      with the Koszul syzygies of the l_i;
    * "mixed": either kind plus repeated forms or random forms of the same
      degree, so that the rank may fall short of k - 1."""
    R = xring(3)

    def form(d):
        return Polynomial(R, {m: draw(st.integers(-2, 2)) for m in _monomials_of_degree(3, d)})

    shape = draw(st.sampled_from(["minors", "multiples", "mixed"]))
    if shape == "multiples" or shape == "mixed" and draw(st.booleans()):
        g = form(draw(st.integers(1, 2)))
        forms = [form(1) * g for _ in range(draw(st.integers(2, 4)))]
    else:
        t = draw(st.integers(2, 3))
        A = [[form(1) for _ in range(t + 1)] for _ in range(t)]
        forms = [determinant(PolyMatrix(t, t, [a for row in A for j, a in enumerate(row)
                                               if j != c]))
                 for c in range(t + 1)]
    forms = [f for f in forms if f.terms]
    assume(forms)
    if shape == "mixed":
        forms += [draw(st.sampled_from(forms)) if draw(st.booleans()) else form(forms[0].degree)
                  for _ in range(draw(st.integers(1, 2)))]
    forms = [f for f in forms if f.terms]
    assume(len(forms) > 1)
    return forms


@given(_forms_with_linear_syzygies())
@settings(max_examples=60, deadline=None)
def test_linear_rank_with_its_proved_bound_matches_bareiss(forms):
    # the columns are syzygies, so the forms lie in the left kernel and the
    # rank is at most k - 1: with that bound the rank is the symbolic
    # echelon's, and it is proved with no symbolic pass when it reaches
    # k - 1
    from detlab.linalg import _bareiss
    k = len(forms)
    syz, rank = linear_syzygies(forms)
    assume(syz.columns)
    M = syz.as_poly_matrix()
    exact = len(_bareiss([M.row(i) for i in range(M.rows)], syzygy._exact_quotient)[0])
    calls = []
    bareiss = syzygy._bareiss
    syzygy._bareiss = lambda *args: calls.append(1) or bareiss(*args)
    try:
        got = poly_matrix_rank(M, at_most=k - 1)
    finally:
        syzygy._bareiss = bareiss
    assert got.rank == rank.rank == exact
    assert got.certainty == rank.certainty == "proved"
    if exact == k - 1:
        assert calls == []


def test_betti_complete_flag():
    from detlab.structmat import build_structured, determinant
    R = xring(2)
    bt, _ = graded_betti(Ideal(R, list(R.gens())))
    assert bt.complete
    # depth-zero quotient: the resolution runs past the homological cap
    H = build_structured("hankel", m=3)
    f = determinant(H)
    J = Ideal(H.ring, [f.diff(i) for i in range(5)])
    bt, _ = graded_betti(J)
    assert not bt.complete
    assert bt[(2, 3)] == 3  # the three linear relation columns
