"""Exact linear algebra: sparse fraction-free elimination and dense helpers.

The sparse kernel/rank routines run over Z with cross-multiplication and
content stripping, so results are exact; they back the degree-wise syzygy
solvers and the bigraded blowup-equation pieces.  Dense helpers cover
numeric matrices (rank / determinant over Q or GF(p)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .config import Budget
from .polyring import denominator_lcm


def _strip_row(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        for k in row:
            row[k] //= g
    return row


class SparseEliminator:
    """Incremental exact RREF over Z of rows given as {col: int} dicts."""

    def __init__(self, ncols: int, budget: Budget | None = None):
        self.ncols = ncols
        self.budget = budget
        self.pivots: dict[int, dict] = {}  # pivot col -> reduced row

    def reduce_row(self, row: dict) -> dict:
        """Eliminate known pivots from `row` (destructive on a copy)."""
        row = dict(row)
        pivots = self.pivots
        while row:
            hit = None
            for c in row:
                if c in pivots:
                    hit = c
                    break
            if hit is None:
                break
            if self.budget is not None:
                self.budget.tick(1, "linear algebra")
            prow = pivots[hit]
            a = row[hit]
            b = prow[hit]
            g = gcd(abs(a), abs(b))
            ma, mb = b // g, a // g
            for c, v in prow.items():
                nv = ma * row.get(c, 0) - mb * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            for c in [c for c in row if c not in prow]:
                row[c] *= ma
            _strip_row(row)
        return row

    def add_row(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce_row(row)
        if not row:
            return False
        piv = min(row)
        # back-substitute into existing pivot rows to keep RREF shape
        for pc, prow in list(self.pivots.items()):
            if piv in prow:
                a, b = prow[piv], row[piv]
                g = gcd(abs(a), abs(b))
                ma, mb = b // g, a // g
                for c, v in row.items():
                    nv = ma * prow.get(c, 0) - mb * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
                for c in [c for c in prow if c not in row]:
                    prow[c] *= ma
                _strip_row(prow)
        self.pivots[piv] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self) -> list[dict[int, Fraction]]:
        """Basis of the right kernel, one vector per free column."""
        pivot_cols = set(self.pivots)
        free_cols = [c for c in range(self.ncols) if c not in pivot_cols]
        basis = []
        for fc in free_cols:
            vec: dict[int, Fraction] = {fc: Fraction(1)}
            for pc, prow in self.pivots.items():
                if fc in prow:
                    vec[pc] = Fraction(-prow[fc], prow[pc])
            basis.append(vec)
        return basis


def kernel_basis(rows: list[dict], ncols: int, budget: Budget | None = None) -> list[dict[int, Fraction]]:
    """Exact kernel of the matrix whose rows are {col: int|Fraction} dicts."""
    elim = SparseEliminator(ncols, budget)
    for row in rows:
        irow = _intify_row(row)
        if irow:
            elim.add_row(irow)
    return elim.kernel_basis()


def _intify_row(row: dict) -> dict:
    den = denominator_lcm(row.values())
    out = {c: int(v * den) if isinstance(v, Fraction) else v * den for c, v in row.items()}
    return {c: v for c, v in out.items() if v}


# ---------------------------------------------------------------------------
# dense numeric helpers

def dense_rank(mat: list[list], p: int | None = None) -> int:
    """Rank of a dense matrix over Q (Fraction arithmetic) or GF(p)."""
    if not mat:
        return 0
    m = [list(map((lambda v: v % p) if p is not None else Fraction, row)) for row in mat]
    rows, cols = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p) if p is not None else 1 / m[r][c]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c] * inv
                if p is not None:
                    f %= p
                for j in range(c, cols):
                    v = m[i][j] - f * m[r][j]
                    m[i][j] = v % p if p is not None else v
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def dense_det(mat: list[list], p: int | None = None):
    """Determinant by fraction-free Bareiss (Q) or modular elimination."""
    n = len(mat)
    if n == 0:
        return 1
    if p is not None:
        m = [[v % p for v in row] for row in mat]
        det = 1
        for k in range(n):
            piv = None
            for i in range(k, n):
                if m[i][k]:
                    piv = i
                    break
            if piv is None:
                return 0
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det % p
            det = det * m[k][k] % p
            inv = pow(m[k][k], -1, p)
            for i in range(k + 1, n):
                if m[i][k]:
                    f = m[i][k] * inv % p
                    for j in range(k, n):
                        m[i][j] = (m[i][j] - f * m[k][j]) % p
        return det % p
    # Bareiss over exact rationals scaled to integers
    den = denominator_lcm(v for row in mat for v in row)
    m = [[int(v * den) if isinstance(v, Fraction) else int(v) * den for v in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pk * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pk
    v = Fraction(sign * m[n - 1][n - 1], den ** n)
    return int(v) if v.denominator == 1 else v


def nonzero_minor_witness(mat: list[list], r: int, p: int | None = None):
    """Row/column subsets of size r with nonzero determinant, else None.

    Greedy: run elimination and record the pivot positions actually used.
    """
    if r == 0:
        return ([], [])
    rows, cols = len(mat), len(mat[0]) if mat else 0
    m = [list(map((lambda v: v % p) if p is not None else Fraction, row)) for row in mat]
    used_rows: list[int] = []
    used_cols: list[int] = []
    rowidx = list(range(rows))
    rr = 0
    for c in range(cols):
        pr = None
        for i in range(rr, rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[rr], m[pr] = m[pr], m[rr]
        rowidx[rr], rowidx[pr] = rowidx[pr], rowidx[rr]
        used_rows.append(rowidx[rr])
        used_cols.append(c)
        inv = pow(m[rr][c], -1, p) if p is not None else 1 / m[rr][c]
        for i in range(rr + 1, rows):
            if m[i][c]:
                f = m[i][c] * inv
                if p is not None:
                    f %= p
                for j in range(c, cols):
                    v = m[i][j] - f * m[rr][j]
                    m[i][j] = v % p if p is not None else v
        rr += 1
        if rr == r:
            return (sorted(used_rows), sorted(used_cols))
    return None
