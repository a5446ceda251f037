"""Exact elimination: dense determinant and rank over Q and GF(p), checked
against the Leibniz permutation sum and, over Q, against a Fraction
elimination; the sparse eliminator and the polynomial kernels, checked
against a dense Fraction RREF and against the column-order feed."""

from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import given, settings, strategies as st

from detlab.config import Budget
from detlab.linalg import SparseEliminator, _echelon, dense_det, dense_rank, packed_relations
from detlab.modp import PRIME_61
from detlab.polyring import Polynomial, clear_denominators, xring
from detlab.syzygy import _monomials_of_degree, _packer
from oracles import (column_order_relations, dict_mul, fraction_echelon, fraction_kernel,
                     fraction_rref, perm_sign)

P = PRIME_61


def _leibniz(mat):
    total = 0
    for perm in permutations(range(len(mat))):
        t = perm_sign(list(perm))
        for i, j in enumerate(perm):
            t *= mat[i][j]
        total += t
    return total


def _sub(mat, rows, cols):
    return [[mat[i][j] for j in cols] for i in rows]


@st.composite
def _int_matrices(draw):
    """Integer matrices up to 6x6, half of them low-rank products A*B.

    Entries are small and often zero, so pivots need row swaps, and every
    minor stays far below p: ranks and determinants agree over Q and GF(p).
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4])

    def mat(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        k = draw(st.integers(1, min(rows, cols)))
        A, B = mat(rows, k), mat(k, cols)
        return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(cols)]
                for i in range(rows)]
    return mat(rows, cols)


@given(_int_matrices())
@settings(max_examples=150, deadline=None)
def test_dense_det_over_q_and_mod_p(M):
    n = min(len(M), len(M[0]))
    S = _sub(M, range(n), range(n))
    want = _leibniz(S)
    got = dense_det(S)
    assert got == want and type(got) is int
    assert dense_det(S, P) == want % P
    assert dense_det([[Fraction(v, 2) for v in row] for row in S]) == Fraction(want, 2 ** n)


@given(_int_matrices())
@settings(max_examples=150, deadline=None)
def test_dense_rank_over_q_and_mod_p_with_witness(M):
    r, (rows, cols) = dense_rank(M)
    assert dense_rank(M, P) == (r, (rows, cols))
    assert len(rows) == len(cols) == r
    assert rows == sorted(rows) and cols == sorted(cols)
    witness = _sub(M, rows, cols)
    assert dense_det(witness, P) != 0 and _leibniz(witness) != 0
    # no larger minor is nonzero, so r is the rank
    for rs in combinations(range(len(M)), r + 1):
        for cs in combinations(range(len(M[0])), r + 1):
            assert _leibniz(_sub(M, rs, cs)) == 0


@st.composite
def _rational_matrices(draw):
    """`_int_matrices`, some of them with rows divided by small integers,
    some with extra rows or columns, so that square, rectangular and
    singular matrices with integer and rational entries all come."""
    M = draw(_int_matrices())
    if draw(st.booleans()):
        M = [[Fraction(v, draw(st.sampled_from([1, 2, 3, -4, 6]))) for v in row] for row in M]
    if draw(st.booleans()):
        M.append([sum(col) for col in zip(*M)])  # a dependent row
    if draw(st.booleans()):
        M = [row + [Fraction(draw(st.integers(-3, 3)), 5)] for row in M]
    return M


@given(_rational_matrices(), _int_matrices())
@settings(max_examples=200, deadline=None)
def test_fraction_free_echelon_matches_fraction_elimination(M, N):
    # the same pivot rows and columns, and the same signed product of the
    # pivots: the determinant of a square matrix of full rank
    rows, cols, prod = _echelon(M)
    assert (rows, cols, prod) == fraction_echelon(M)
    assert type(prod) is Fraction
    # over GF(p) the same walk: on integer matrices, whose minors stay far
    # below p, the same pivots and that product mod p
    rows, cols, prod = fraction_echelon(N)
    assert _echelon(N, P) == (rows, cols, prod % P)


def test_dense_edge_cases():
    assert dense_det([]) == 1
    assert dense_det([[0, 0], [0, 0]], P) == 0
    assert dense_rank([[0, 0, 0]]) == (0, ([], []))
    assert dense_rank([[0, 1], [1, 0]], 7) == (2, ([0, 1], [0, 1]))
    assert dense_det([[0, 1], [1, 0]], 7) == 6



# ---------------------------------------------------------------------------
# sparse elimination against a dense Fraction RREF

def _dense(vecs, ncols):
    return [[v.get(c, 0) for c in range(ncols)] for v in vecs]


def _same_span(a, b, ncols):
    return fraction_rref(a, ncols)[0] == fraction_rref(b, ncols)[0]


@st.composite
def _sparse_int_rows(draw):
    """Integer rows with zero rows, repeated rows and multiples, half of
    them from low-rank products A*B; entries share factors, so the scale
    of a reduction and the row contents are not trivial."""
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 6, 10, -15])

    def mat(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        k = draw(st.integers(1, min(nrows, ncols)))
        A, B = mat(nrows, k), mat(k, ncols)
        rows = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(ncols)]
                for i in range(nrows)]
    else:
        rows = mat(nrows, ncols)
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([0, 1, -1, 3]))
        rows.insert(draw(st.integers(0, len(rows))), [scale * v for v in src])
    return ncols, rows


@given(_sparse_int_rows())
@settings(max_examples=200, deadline=None)
def test_sparse_eliminator_matches_fraction_rref(case):
    # each row, tagged by its index, is added twice over in tag order:
    # keyed by its column indices and by minus them.  Either way the rank grows exactly
    # when the Fraction RREF says so, and the relations of the tagged rows
    # are the canonical basis of the left kernel; under negated keys each
    # pivot is a row's first column, so the pivot set is the RREF's
    ncols, rows = case
    nrows = len(rows)
    transposed = [[row[c] for row in rows] for c in range(ncols)]
    for sign in (1, -1):
        elim = SparseEliminator(Budget())
        seen = []
        for tag, row in enumerate(rows):
            before = fraction_rref(seen, ncols)[1] if seen else []
            seen.append(row)
            grew = len(fraction_rref(seen, ncols)[1]) > len(before)
            sparse = {sign * c: v for c, v in enumerate(row) if v}
            copy = dict(sparse)
            assert elim.add_row(sparse, tag=tag) == grew
            assert sparse == copy  # input untouched
        pivots = fraction_rref(rows, ncols)[1]
        assert elim.rank == len(pivots)
        if sign < 0:
            assert sorted(-key for key in elim.pivots) == pivots
        relations = elim.kernel_basis([1] * nrows)
        assert _dense(relations, nrows) == fraction_kernel(transposed, nrows)
        for vec in relations:
            assert all(sum(vec.get(r, 0) * rows[r][c] for r in range(nrows)) == 0
                       for c in range(ncols))
    # fed last row first, the relations differ, and `kernel_basis`
    # inter-reduces them into the same canonical basis
    backwards = SparseEliminator()
    for tag in reversed(range(nrows)):
        backwards.add_row({c: v for c, v in enumerate(rows[tag]) if v}, tag=tag)
    assert backwards.kernel_basis([1] * nrows) == relations


def test_sparse_eliminator_shifts_and_untagged_rows():
    # a shifted row is its terms with every key moved by the shift; an
    # untagged row that reduces to zero records no relation
    elim = SparseEliminator()
    assert elim.add_row({3: 2, 1: 1}, shift=4)
    assert not elim.add_row({7: 4, 5: 2})
    assert not elim.add_row({})
    assert elim.add_row({5: 1})
    assert elim.rank == 2 and elim.relations == []
    assert elim.kernel_basis([]) == []


@st.composite
def _poly_families(draw):
    """Polynomials with integer or Fraction coefficients, and the degree of
    the x-monomials they are multiplied by.  Three shapes:

    * "mixed": up to six polynomials in two or three variables, some of
      them multiples of others (low-rank products);
    * "split": polynomials in the disjoint variable pairs (x0, x1) and
      (x2, x3), whose columns fall into several components;
    * "full": one polynomial, whose products with distinct monomials are
      independent, so the matrix reaches full column rank early.

    Any of them may hold a zero polynomial: columns with no rows."""
    shape = draw(st.sampled_from(["mixed", "split", "full"]))
    nvars = 4 if shape == "split" else draw(st.integers(2, 3))
    R = xring(nvars)
    coeff = st.sampled_from([1, -1, 2, 3, -4, Fraction(1, 2), Fraction(-2, 3)])

    def poly(variables=range(nvars)):
        exps = st.tuples(*[st.integers(0, 2) if i in variables else st.just(0)
                           for i in range(nvars)])
        return Polynomial(R, draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)))
    if shape == "split":
        polys = [poly(draw(st.sampled_from([(0, 1), (2, 3)])))
                 for _ in range(draw(st.integers(2, 4)))]
    elif shape == "full":
        polys = [poly()]
    else:
        polys = [poly() for _ in range(draw(st.integers(1, 4)))]
        exps = st.tuples(*[st.integers(0, 2)] * nvars)
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.sampled_from(polys)), draw(st.sampled_from(polys))
            polys.append(a * Polynomial(R, {draw(exps): draw(coeff)}) + b)
    if draw(st.booleans()):
        polys.insert(draw(st.integers(0, len(polys))), R.zero())
    return polys, list(_monomials_of_degree(nvars, draw(st.integers(0, 1))))


def _product_matrix(polys, monos):
    """Dense rows of the products p * x^m, one column per product."""
    cols = [dict_mul(dict(p.terms), {m: 1}) for p in polys for m in monos]
    row_monos = sorted({e for col in cols for e in col})
    return [[col.get(e, 0) for col in cols] for e in row_monos], len(cols)


def _packed_family(polys, monos):
    """The arguments of `packed_relations` for the products p * x^m."""
    pack = _packer(len(monos[0]), max((p.degree for p in polys if p.terms), default=0)
                   + max(map(sum, monos)))
    ints = [clear_denominators(p.terms.items()) for p in polys]
    return ([{pack(e): c for e, c in t.items()} for t, _ in ints], [den for _, den in ints],
            [pack(m) for m in monos])


@given(_poly_families(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_linear_relations_match_fraction_kernel(case, rnd):
    # the basis read off the RREF, in free-column order, is canonical: the
    # column reduction must return exactly it, whatever order each
    # polynomial holds its terms in
    polys, monos = case
    dense, ncols = _product_matrix(polys, monos)
    got = packed_relations(*_packed_family(polys, monos), Budget())
    assert _dense(got, ncols) == fraction_kernel(dense, ncols)
    shuffled = []
    for p in polys:
        terms = list(p.terms.items())
        rnd.shuffle(terms)
        shuffled.append(Polynomial(p.ring, dict(terms)))
    assert packed_relations(*_packed_family(shuffled, monos), Budget()) == got


@given(_poly_families(), st.data())
@settings(max_examples=100, deadline=None)
def test_linear_relations_modulo_known_relations(case, data):
    # a span of relations, eliminated under negated keys, gives its pivot
    # columns; skipping them, the answer is the canonical basis of the
    # matrix without them, embedded back, and a basis modulo the span
    polys, monos = case
    dense, ncols = _product_matrix(polys, monos)
    kernel = fraction_kernel(dense, ncols)
    known, rows = SparseEliminator(Budget()), []
    for _ in range(data.draw(st.integers(0, len(kernel) + 1))):
        mix = data.draw(st.lists(st.integers(-2, 2), min_size=len(kernel),
                                 max_size=len(kernel)))
        vec = [sum(a * v[c] for a, v in zip(mix, kernel)) for c in range(ncols)]
        rows.append(vec)
        known.add_row(clear_denominators((-c, x) for c, x in enumerate(vec) if x)[0])
    skip = {-key for key in known.pivots}
    assert sorted(skip) == (fraction_rref(rows, ncols)[1] if rows else [])
    got = packed_relations(*_packed_family(polys, monos), Budget(), skip)
    kept = [c for c in range(ncols) if c not in skip]
    want = []
    for v in fraction_kernel([[row[c] for c in kept] for row in dense], len(kept)):
        full = [Fraction(0)] * ncols
        for c, x in zip(kept, v):
            full[c] = x
        want.append(full)
    assert _dense(got, ncols) == want
    assert len(got) == len(kernel) - known.rank
    assert _same_span(rows + _dense(got, ncols), kernel, ncols)


@given(_poly_families(), st.data())
@settings(max_examples=150, deadline=None)
def test_leading_key_feed_matches_the_column_order_feed(case, data):
    # the columns fed in leading-key order and the relations inter-reduced
    # give exactly the basis that the column-order feed reads off, with
    # and without skipped columns; the families hold zero polynomials and
    # multiples of others, so zero and dependent columns come
    polys, monos = case
    columns, dens, shifts = _packed_family(polys, monos)
    ncols = len(polys) * len(monos)
    for skip in (frozenset(), frozenset(data.draw(st.sets(st.integers(0, ncols - 1))))):
        want = column_order_relations(columns, dens, shifts, skip)
        assert packed_relations(columns, dens, shifts, Budget(), skip) == want
