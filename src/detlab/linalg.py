"""Exact linear algebra: sparse fraction-free elimination and dense helpers.

`SparseEliminator` keeps its rows over Z in reduced row echelon form (RREF):
each stored row is primitive, and holds its own pivot column and no other.
Two facts follow and make the elimination one pass per row:

* Reducing an incoming row by a pivot row changes no other pivot column of
  it, so the pivot columns the row holds on arrival are all it will ever
  hit.  They are found once, eliminated together, the content is stripped
  once, and the row costs one `Budget.tick` of that many steps under
  "linear algebra".
* A new pivot must be cleared from the stored rows that hold it, and only
  from those.  The `users` index maps each free column to the pivot
  columns whose rows hold it, so back-substitution touches just those
  rows, and `kernel_basis` reads a free column's kernel vector off it.

The RREF of a row space is unique up to row scaling, so the kernels,
ranks and `add_row` answers do not depend on how the rows are reduced.

`linear_relations` is the one place where polynomials become a kernel: the
degree-wise syzygies, the bigraded blowup-equation pieces and the bracket
identities are all its callers.  It accepts rational coefficients (rows
are cleared of denominators when a polynomial holds a Fraction).  It
eliminates only the rows that can change its answer: the columns split
into connected components (for a determinant's partials, the blocks of
its multigrading), rows are fed in a fixed pseudo-random order, and a
component stops at full column rank, where it has no relation.  Relations
the caller already has come in as `known`; their pivot columns are
dropped, and the answer is a basis modulo their span.  The dense numeric
helpers (rank with a nonzero-minor witness, determinant)
share one forward elimination, `_echelon`, over Q (Fractions) or GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .config import Budget
from .polyring import Polynomial, _content_strip, clear_denominators


class SparseEliminator:
    """Incremental exact RREF over Z of rows given as {col: int} dicts."""

    def __init__(self, budget: Budget | None = None):
        self.budget = budget
        self.pivots: dict[int, dict] = {}  # pivot col -> reduced row
        self.users: dict[int, set] = {}    # free col -> pivot cols whose rows hold it

    def reduce_row(self, row: dict) -> dict:
        """`row` with every known pivot column eliminated, as a new dict."""
        pivots = self.pivots
        hits = [c for c in row if c in pivots]
        if not hits:
            return dict(row)
        if self.budget is not None:
            self.budget.tick(len(hits), "linear algebra")
        # row * scale - sum of f_h * (pivot row h), integral for every hit
        scale = 1
        for h in hits:
            b = pivots[h][h]
            scale = lcm(scale, b // gcd(row[h], b))
        out = {c: v * scale for c, v in row.items()}
        get = out.get
        for h in hits:
            prow = pivots[h]
            f = row[h] * scale // prow[h]
            for c, v in prow.items():
                out[c] = get(c, 0) - f * v
        return _content_strip({c: v for c, v in out.items() if v})

    def add_row(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce_row(row)
        if not row:
            return False
        piv = min(row)
        users = self.users
        b = row[piv]
        # back-substitute into the stored rows holding piv to keep RREF shape
        for pc in users.pop(piv, ()):
            prow = self.pivots[pc]
            a = prow[piv]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            if ma != 1:
                for c in prow:
                    prow[c] *= ma
            for c, v in row.items():
                nv = prow.get(c, 0) - mb * v
                if nv:
                    if c not in prow:
                        users.setdefault(c, set()).add(pc)
                    prow[c] = nv
                elif c in prow:
                    del prow[c]
                    if c != piv:
                        users[c].discard(pc)
            _content_strip(prow)
        for c in row:
            if c != piv:
                users.setdefault(c, set()).add(piv)
        self.pivots[piv] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self, ncols: int, skip=()) -> list[dict[int, Fraction]]:
        """Basis of the right kernel on columns 0..ncols-1, one vector per
        free column not in `skip`."""
        pivots = self.pivots
        age = {pc: i for i, pc in enumerate(pivots)}
        basis = []
        for fc in range(ncols):
            if fc in pivots or fc in skip:
                continue
            vec: dict[int, Fraction] = {fc: Fraction(1)}
            for pc in sorted(self.users.get(fc, ()), key=age.__getitem__):
                prow = pivots[pc]
                vec[pc] = Fraction(-prow[fc], prow[pc])
            basis.append(vec)
        return basis


# an odd 64-bit multiplier: rows are fed in the order of key * _MIX mod 2^64
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def linear_relations(polys: list[Polynomial], monos: list[tuple], budget: Budget | None = None,
                     known: SparseEliminator | None = None) -> list[dict[int, Fraction]]:
    """Basis of the rational relations among the products p * x^m, p in
    `polys`, m in `monos`.

    Column i*len(monos)+k holds polys[i] * x^monos[k]; there is one row per
    monomial of the products.  Rows are built in one pass from the terms,
    keyed by the monomial packed into one int (the first variable in the
    top field), and cleared of denominators only when some polynomial holds
    a Fraction.  The basis is the one read off the RREF, one vector per
    free column in column order, so it does not depend on which rows are
    eliminated or in what order:

    * the columns split into the connected components of the graph that
      links the columns of each row, and a component whose rank reaches its
      column count has no relation, so its remaining rows are skipped;
    * rows are fed in a fixed pseudo-random order (key * _MIX mod 2^64),
      which reaches a component's full rank far sooner than monomial order.

    `known` is an eliminator holding relations the caller already has, on
    the same columns.  Any relation minus a combination of its rows is zero
    on their pivot columns, so those columns are dropped from the matrix,
    and the result is a basis of the relations modulo the span of `known`:
    each vector is zero on those columns, and there are dim ker -
    known.rank of them.  This is exact only when its rows are relations.
    """
    nvars = len(monos[0]) if monos else 0
    top = (max((p.degree for p in polys if p.terms), default=0)
           + max(map(sum, monos), default=0))
    width = max(top.bit_length(), 1)
    weights = [1 << (width * i) for i in reversed(range(nvars))]

    def pack(e):
        return sum(map(mul, e, weights))
    packed_monos = [pack(m) for m in monos]
    dropped = known.pivots if known is not None else {}
    rows: dict[int, dict] = {}
    col = 0
    fractional = False
    for p in polys:
        terms = [(pack(e), c) for e, c in p.terms.items()]
        fractional = fractional or any(type(c) is Fraction for _, c in terms)
        for m in packed_monos:
            if col not in dropped:
                for e, c in terms:
                    row = rows.get(e + m)
                    if row is None:
                        rows[e + m] = {col: c}
                    else:
                        row[col] = c
            col += 1
    # union-find over the columns; then each component counts its columns
    parent = list(range(col))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c
    for row in rows.values():
        it = iter(row)
        r = find(next(it))
        for c in it:
            if parent[c] != r:
                c = find(c)
                if c != r:
                    parent[c] = r
    root = [find(c) for c in range(col)]
    room = [0] * col
    for c in range(col):
        if c not in dropped:
            room[root[c]] += 1
    elim = SparseEliminator(budget)
    for key in sorted(rows, key=lambda k: k * _MIX & _MASK):
        row = rows[key]
        r = root[next(iter(row))]
        if not room[r]:
            continue
        if fractional:
            row, _ = clear_denominators(row.items())
        if elim.add_row(row):
            room[r] -= 1
    return elim.kernel_basis(col, dropped)


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
