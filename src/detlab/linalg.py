"""Exact linear algebra: sparse fraction-free elimination and dense helpers.

`SparseEliminator` runs over Z with cross-multiplication and content
stripping, so results are exact.  `linear_relations` is the one place where
polynomials become a kernel: the degree-wise syzygies, the bigraded
blowup-equation pieces and the bracket identities are all its callers.  It
accepts rational coefficients (a row is cleared of denominators when it
holds a Fraction) and rejects GF(p) input, whose relations the Z-eliminator
would miss.  The dense numeric helpers (rank with a nonzero-minor witness,
determinant) share one forward elimination, `_echelon`, over Q (Fractions)
or GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add

from .config import Budget
from .polyring import Polynomial, _content_strip, denominator_lcm


class SparseEliminator:
    """Incremental exact RREF over Z of rows given as {col: int} dicts."""

    def __init__(self, budget: Budget | None = None):
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
            _content_strip(row)
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
                _content_strip(prow)
        self.pivots[piv] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self, ncols: int) -> list[dict[int, Fraction]]:
        """Basis of the right kernel on columns 0..ncols-1, one vector per
        free column."""
        pivot_cols = set(self.pivots)
        free_cols = [c for c in range(ncols) if c not in pivot_cols]
        basis = []
        for fc in free_cols:
            vec: dict[int, Fraction] = {fc: Fraction(1)}
            for pc, prow in self.pivots.items():
                if fc in prow:
                    vec[pc] = Fraction(-prow[fc], prow[pc])
            basis.append(vec)
        return basis


def linear_relations(polys: list[Polynomial], monos: list[tuple], budget: Budget | None = None
                     ) -> list[dict[int, Fraction]]:
    """Basis of the rational relations among the products p * x^m, p in
    `polys`, m in `monos`.

    Column i*len(monos)+k holds polys[i] * x^monos[k]; there is one row per
    monomial of the products, in ascending order.  Rows are built in one
    pass from the terms, and only a row holding a Fraction is scaled.
    """
    if any(p.ring.prime is not None for p in polys):
        raise ValueError("linear relations are computed over the rationals, not GF(p)")
    rows: dict[tuple, dict] = {}
    col = 0
    for p in polys:
        terms = p.terms.items()
        for m in monos:
            for e, c in terms:
                rows.setdefault(tuple(map(add, e, m)), {})[col] = c
            col += 1
    elim = SparseEliminator(budget)
    for mono in sorted(rows):
        row = rows[mono]
        if any(isinstance(c, Fraction) for c in row.values()):
            den = denominator_lcm(row.values())
            row = {j: int(c * den) for j, c in row.items()}
        elim.add_row(row)
    return elim.kernel_basis(col)


# ---------------------------------------------------------------------------
# dense numeric helpers: one forward elimination over GF(p) or Q

def _echelon(mat: list[list], p: int | None = None):
    """Forward Gaussian elimination over GF(p) (ints mod p) or Q (Fractions).

    Each column's pivot is its first nonzero entry at or below the current
    row, swapped into place.  Returns the pivot rows (indices into `mat`),
    the pivot columns, and the product of the pivots times the sign of the
    row swaps, which is the determinant of a square matrix of full rank.
    """
    m = [[v % p for v in row] if p is not None else list(map(Fraction, row)) for row in mat]
    nrows, ncols = len(m), len(m[0]) if m else 0
    order = list(range(nrows))
    pivot_cols = []
    prod = 1
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            order[r], order[piv] = order[piv], order[r]
            prod = -prod
        top = m[r]
        prod *= top[c]
        inv = pow(top[c], -1, p) if p is not None else 1 / top[c]
        for row in m[r + 1:]:
            if row[c]:
                f = row[c] * inv
                if p is not None:
                    f %= p
                for j in range(c, ncols):
                    v = row[j] - f * top[j]
                    row[j] = v % p if p is not None else v
        pivot_cols.append(c)
        if p is not None:
            prod %= p
    return order[:len(pivot_cols)], pivot_cols, prod


def dense_rank(mat: list[list], p: int | None = None):
    """Rank over Q or GF(p), with a nonzero minor of that size:
    (rank, (sorted rows, sorted cols))."""
    rows, cols, _ = _echelon(mat, p)
    return len(rows), (sorted(rows), cols)


def dense_det(mat: list[list], p: int | None = None):
    """Determinant: an int mod p, or over Q an int when integral, else a
    Fraction; 1 for an empty matrix."""
    if not mat:
        return 1
    rows, _, det = _echelon(mat, p)
    if len(rows) < len(mat):
        return 0
    return int(det) if p is None and det.denominator == 1 else det
