"""Exact linear algebra: one sparse fraction-free elimination over Z, and
dense helpers.

`SparseEliminator` is the one sparse elimination, a column reducer after
F4 (Faugere, JPAA 139, 1999).  A vector is a dict of integer terms keyed
by packed ints, added with a shift of its keys, and it is reduced against
pivots keyed by their leading (largest) key.  A vector whose leading key
no pivot holds becomes a pivot, so the rank grows; each reduction ticks
"linear algebra" once with its number of pivot subtractions.  A tagged
vector carries its integer combination of the tagged vectors, and when it
reduces to zero that combination is a relation.  Its callers:

* `packed_relations`, where polynomials become a kernel: the bigraded
  pieces of the blowup ideal, packed by `syzygy._y_products`, of which
  the linear syzygies are the (1,1) piece and the bracket identities the
  (0,1) piece.  Each polynomial is cleared of denominators and packed
  once, so a product p * x^m is its packed terms shifted by x^m, and the
  product columns are added in the order of their leading keys, tagged by
  their index: a column then meets only pivots whose leading keys are at
  most its own.  The relations found span the kernel, and `kernel_basis`
  inter-reduces them into its canonical (RREF) basis, one vector per free
  column, so the answer does not depend on the feed order.  Columns the
  caller can skip come in as `skip`, and the answer is the canonical
  basis of the matrix without them.
* `syzygy.minimal_generators`, whose span tests are `add_row` answers.
* the old span of `syzygy.rees_minimal_bidegree12`, whose rows are keyed
  by minus their column index: a row's leading key is then its first
  column, and the pivot set is that of the span's RREF.

The dense eliminations share one pivot walk, `_walk`, each with its own
row update.  The dense numeric helpers (rank with a nonzero-minor witness,
determinant) run `_echelon`, over GF(p), or over Q with each row cleared
of its denominators and the rows sent through `_bareiss`.  That is the one
fraction-free (Bareiss) elimination of the package, over any integral
domain given its exact division: Z here, and Q[x] for the symbolic rank of
`syzygy.poly_matrix_rank`, metered by the caller's budget.  GF(p) stays
off it: a Bareiss update does about twice the work per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .config import Budget
from .polyring import _content_strip, clear_denominators


class SparseEliminator:
    """Incremental fraction-free column reduction over Z of packed vectors.

    `pivots` maps a leading key to its pivot (terms, shift, combination):
    the vector is `terms` with every key shifted by `shift`.  `relations`
    holds (tag, combination) for each tagged vector that reduced to zero,
    in the order they came.  Tags are given to every vector or to none.
    """

    def __init__(self, budget: Budget | None = None):
        self.budget = budget
        self.pivots: dict[int, tuple[dict, int, dict]] = {}
        self.relations: list[tuple[int, dict]] = []

    def add_row(self, terms: dict, shift: int = 0, tag: int | None = None) -> bool:
        """Reduce `terms` shifted by `shift` against the pivots; returns True
        iff it became a pivot, which raises the rank.  `terms` is not
        changed; a vector that needs no reduction is kept as it stands, and
        shifted only when it reduces another."""
        pivots = self.pivots
        comb = {} if tag is None else {tag: 1}
        top = max(terms, default=None)
        if top is not None and top + shift not in pivots:
            pivots[top + shift] = (terms, shift, comb)
            return True
        vec = {e + shift: c for e, c in terms.items()}
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
            # vec * a - pivot * b clears the leading key
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
        if steps and self.budget is not None:
            self.budget.tick(steps, "linear algebra")
        if vec:
            return True
        if tag is not None:
            self.relations.append((tag, comb))
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self, dens) -> list[dict[int, Fraction]]:
        """The span of the relations in its canonical basis, as rational
        vectors with entries in tag order.

        The combinations are inter-reduced, fraction-free, until each has
        a largest tag of its own (its lead) and 0 at the leads of the
        others.  Then entry c is scaled by `dens[c]`, the denominator
        cleared from the vector tagged c, and each vector is divided by
        its entry at its lead; the vectors come in lead order.  That basis
        is unique: it is the RREF basis of the span, one vector per free
        column.  When every tagged vector has come in, the span is the
        whole kernel of the tagged vectors, whatever order they came in."""
        basis: dict[int, dict] = {}  # lead -> combination, 0 at the other leads
        for _, comb in self.relations:
            for lead, row in basis.items():
                if comb.get(lead):
                    comb = _combine(comb, row, lead)
            top = max(comb)
            for lead, row in basis.items():
                if row.get(top):
                    basis[lead] = _combine(row, comb, top)
            basis[top] = comb
        return [{c: Fraction(comb[c] * dens[c], comb[top] * dens[top]) for c in sorted(comb)}
                for top, comb in sorted(basis.items())]


def _combine(u: dict, v: dict, key) -> dict:
    """The integer combination a*u - b*v that clears u at `key`, divided
    by its content."""
    a, b = v[key], u[key]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {k: a * c for k, c in u.items()}
    for k, c in v.items():
        c = out.get(k, 0) - b * c
        if c:
            out[k] = c
        else:
            del out[k]
    return _content_strip(out)


def packed_relations(columns: list[dict], dens: list[int], shifts: list[int],
                     budget: Budget | None = None,
                     skip=frozenset()) -> list[dict[int, Fraction]]:
    """Basis of the rational relations among the products p_i * x^m.

    `columns[i]` holds the integer terms {packed monomial: c} of
    dens[i] * p_i, and each x^m in `shifts` is packed the same way, so the
    product column i*len(shifts)+k is columns[i] with every key shifted by
    shifts[k]; the packing must hold every product without a carry.  The
    product columns are added to a `SparseEliminator` sorted by (leading
    key, column index), tagged by their index, and the answer is its
    `kernel_basis`: the RREF basis, one vector per free column in column
    order.

    The product columns in `skip` are left out.  When they are the pivot
    columns of relations the caller already has, the answer is a basis of
    the relations modulo their span: any relation minus a combination of
    them is zero on those columns.
    """
    n = len(shifts)
    feed = sorted((max(terms, default=0) + s, i * n + k, terms, s)
                  for i, terms in enumerate(columns) for k, s in enumerate(shifts)
                  if i * n + k not in skip)
    elim = SparseEliminator(budget)
    for _, col, terms, s in feed:
        elim.add_row(terms, s, col)
    return elim.kernel_basis([den for den in dens for _ in shifts])


# ---------------------------------------------------------------------------
# dense helpers: one pivot walk, with a row update over GF(p) and a
# fraction-free one over an integral domain (Z, or Q[x])

def _walk(rows: list[list], update):
    """The pivot walk of a forward elimination of `rows`, in place.

    Each column's pivot is its first nonzero entry at or below the current
    row, swapped into place; `update(r, c)` then eliminates below the
    pivot at (r, c).  Returns the pivot rows (indices into `rows` as
    given), the pivot columns and the sign of the row swaps.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    order = list(range(nrows))
    pivot_cols = []
    sign = 1
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            order[r], order[piv] = order[piv], order[r]
            sign = -sign
        update(r, c)
        pivot_cols.append(c)
    return order[:len(pivot_cols)], pivot_cols, sign


def _echelon(mat: list[list], p: int | None = None):
    """Forward elimination over GF(p) (ints mod p) or Q (ints and Fractions).
    Returns the pivot rows (indices into `mat`) and columns of `_walk`, and
    the product of the pivots times the sign of the row swaps, which is the
    determinant of a square matrix of full rank.

    Over Q each row is cleared of its denominators and the integer rows go
    through `_bareiss`.  An entry then differs from the one a Fraction
    elimination leaves only by a nonzero factor, so the pivots fall in the
    same rows and columns, and the last pivot is the determinant of the
    pivot rows' scaled minor: divided by their scales, it is the product
    of the Fraction pivots.
    """
    if p is None:
        cleared = [clear_denominators(enumerate(row)) for row in mat]
        rows, cols, sign, last = _bareiss([list(ints.values()) for ints, _ in cleared],
                                          int.__floordiv__)
        return rows, cols, Fraction(sign * last, prod(cleared[i][1] for i in rows))
    m = [[v % p for v in row] for row in mat]
    ncols = len(m[0]) if m else 0

    def update(r, c):
        top = m[r]
        inv = pow(top[c], -1, p)
        for row in m[r + 1:]:
            if row[c]:
                f = row[c] * inv % p
                for j in range(c, ncols):
                    row[j] = (row[j] - f * top[j]) % p
    rows, cols, det = _walk(m, update)
    for r, c in enumerate(cols):
        det = det * m[r][c] % p
    return rows, cols, det


def _bareiss(rows: list[list], divide, budget: Budget | None = None):
    """Fraction-free (Bareiss) forward elimination of `rows` over an
    integral domain, in place, on the pivots of `_walk`.  A row below the
    pivot is updated to pivot * row - row[c] * pivot row, divided exactly
    by the previous pivot with `divide` (integer `//`, or an exact
    polynomial quotient), so every entry stays in the domain and is a minor
    of the input.  With a budget, each row update ticks "Bareiss
    elimination" once.  Returns the pivot rows (indices into `rows` as
    given), the pivot columns, the sign of the row swaps and the last
    pivot: for a square matrix of full rank the determinant is sign * last
    pivot.
    """
    ncols = len(rows[0]) if rows else 0
    prev = 1

    def update(r, c):
        nonlocal prev
        top = rows[r]
        pk = top[c]
        for row in rows[r + 1:]:
            if budget is not None:
                budget.tick(1, "Bareiss elimination")
            f = row[c]
            for j in range(c + 1, ncols):
                v = pk * row[j] - f * top[j]
                # the first pivot's updates are 2-minors: nothing to divide
                row[j] = divide(v, prev) if r else v
        prev = pk
    order, cols, sign = _walk(rows, update)
    return order, cols, sign, prev


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
