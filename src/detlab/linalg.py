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

`packed_relations` is the one place where polynomials become a kernel: the
degree-wise syzygies and the bracket identities (through
`linear_relations`, which packs Polynomials for it) and the bigraded
blowup-equation pieces are all its callers.  It works on columns, after
F4 (Faugere, JPAA 139, 1999): each polynomial is cleared of denominators
and packed once, so a product p * x^m is its packed terms shifted by
x^m, and the columns are reduced in column order against pivots keyed by
their leading monomial, each carrying its combination of the product
columns.  A column that reduces to zero gives the RREF kernel vector of
its free column, so the answer is the canonical basis whatever the
elimination does.  Relations
the caller already has come in as `known`, a `SparseEliminator` on the
same columns; their pivot columns are skipped, and the answer is a basis
modulo their span.  The dense numeric helpers (rank with a nonzero-minor
witness, determinant) share one forward elimination, `_echelon`, over Q
(Fractions) or GF(p).
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

    def kernel_basis(self, ncols: int) -> list[dict[int, Fraction]]:
        """Basis of the right kernel on columns 0..ncols-1, one vector per
        free column."""
        pivots = self.pivots
        age = {pc: i for i, pc in enumerate(pivots)}
        basis = []
        for fc in range(ncols):
            if fc in pivots:
                continue
            vec: dict[int, Fraction] = {fc: Fraction(1)}
            for pc in sorted(self.users.get(fc, ()), key=age.__getitem__):
                prow = pivots[pc]
                vec[pc] = Fraction(-prow[fc], prow[pc])
            basis.append(vec)
        return basis


def _packer(nvars: int, degree: int):
    """pack(e) for exponent tuples of total degree at most `degree`: one
    field per variable, the first variable in the top field, each wide
    enough to hold `degree`.  No field carries, so the pack of a product
    of two monomials is the sum of their packs while its degree stays in
    bounds."""
    width = max(degree.bit_length(), 1)
    weights = [1 << (width * i) for i in reversed(range(nvars))]

    def pack(e):
        return sum(map(mul, e, weights))
    return pack


def linear_relations(polys: list[Polynomial], monos: list[tuple], budget: Budget | None = None,
                     known: SparseEliminator | None = None) -> list[dict[int, Fraction]]:
    """Basis of the rational relations among the products p * x^m, p in
    `polys`, m in `monos`: `packed_relations` of the polynomials cleared of
    denominators and packed once, with the monomials as shifts."""
    pack = _packer(len(monos[0]) if monos else 0,
                   max((p.degree for p in polys if p.terms), default=0)
                   + max(map(sum, monos), default=0))
    ints = [clear_denominators(p.terms.items()) for p in polys]
    return packed_relations([{pack(e): c for e, c in t.items()} for t, _ in ints],
                            [den for _, den in ints], [pack(m) for m in monos], budget, known)


def packed_relations(columns: list[dict], dens: list[int], shifts: list[int],
                     budget: Budget | None = None,
                     known: SparseEliminator | None = None) -> list[dict[int, Fraction]]:
    """Basis of the rational relations among the products p_i * x^m.

    `columns[i]` holds the integer terms {packed monomial: c} of
    dens[i] * p_i, and each x^m in `shifts` is packed the same way, so the
    product column i*len(shifts)+k is columns[i] with every key shifted by
    shifts[k]; the packing must hold every product without a carry.

    The columns are reduced in column order, fraction-free, against pivot
    columns keyed by their leading (largest) packed monomial, each carrying
    its integer combination of the product columns; a column whose leading
    monomial no pivot holds becomes a pivot, and each reduction step ticks
    the budget under "linear algebra".  A column that reduces to zero
    depends on the pivots before it, which involve only pivot columns, so
    its combination, scaled by the cleared denominators and divided by its
    own entry, is the RREF basis vector of that free column: 1 there, 0 at
    every other free column.  That basis is unique, so the answer, one
    vector per free column in column order, does not depend on the
    elimination.

    `known` is an eliminator holding relations the caller already has, on
    the same columns.  Any relation minus a combination of its rows is zero
    on their pivot columns, so those columns are skipped, and the result
    is a basis of the relations modulo the span of `known`: each vector is
    zero on those columns, and there are dim ker - known.rank of them.
    This is exact only when its rows are relations.
    """
    skip = known.pivots if known is not None else {}
    # leading monomial -> (terms, shift, combination) of a pivot column;
    # a column that needs no reduction is kept as its product's terms and
    # shift, and shifted only when it reduces another
    pivots: dict[int, tuple[dict, int, dict]] = {}
    found = []
    col = 0
    for terms in columns:
        top = max(terms, default=None)
        for s in shifts:
            if col not in skip:
                if top is not None and top + s not in pivots:
                    pivots[top + s] = (terms, s, {col: 1})
                else:
                    comb = _reduce_column(terms, s, col, pivots, budget)
                    if comb is not None:
                        found.append((col, comb))
            col += 1
    n = len(shifts)
    out = []
    for fc, comb in found:
        lead = comb[fc] * dens[fc // n]
        out.append({c: Fraction(comb[c] * dens[c // n], lead) for c in sorted(comb)})
    return out


def _reduce_column(terms: dict, shift: int, col: int, pivots: dict,
                   budget: Budget | None) -> dict | None:
    """Reduce product column `col`, `terms` shifted by `shift`, by the
    pivots; store it as a new pivot and return None, or return its
    combination when it reduces to zero."""
    vec = {e + shift: c for e, c in terms.items()}
    comb = {col: 1}
    steps = 0
    while vec:
        lead = max(vec)
        piv = pivots.get(lead)
        if piv is None:
            g = gcd(*vec.values(), *comb.values())
            if g != 1:
                vec = {e: c // g for e, c in vec.items()}
                comb = {k: c // g for k, c in comb.items()}
            pivots[lead] = (vec, 0, comb)
            break
        pterms, ps, pcomb = piv
        a, b = pterms[lead - ps], vec[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        # vec * a - pivot * b clears the leading monomial
        if a != 1:
            vec = {e: c * a for e, c in vec.items()}
            comb = {k: c * a for k, c in comb.items()}
        get = vec.get
        for e, c in pterms.items():
            e += ps
            v = get(e, 0) - b * c
            if v:
                vec[e] = v
            else:
                del vec[e]
        get = comb.get
        for k, c in pcomb.items():
            v = get(k, 0) - b * c
            if v:
                comb[k] = v
            else:
                del comb[k]
        steps += 1
    if steps and budget is not None:
        budget.tick(steps, "linear algebra")
    return None if vec else comb


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
