"""Dense numeric elimination: determinant and rank over Q and GF(p),
checked against the Leibniz permutation sum."""

from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import given, settings, strategies as st

from detlab.linalg import dense_det, dense_rank
from detlab.modp import PRIME_61
from oracles import perm_sign

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


def test_dense_edge_cases():
    assert dense_det([]) == 1
    assert dense_det([[0, 0], [0, 0]], P) == 0
    assert dense_rank([[0, 0, 0]]) == (0, ([], []))
    assert dense_rank([[0, 1], [1, 0]], 7) == (2, ([0, 1], [0, 1]))
    assert dense_det([[0, 1], [1, 0]], 7) == 6

