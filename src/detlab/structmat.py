"""Structured matrix constructors and exact determinant/minor machinery.

All constructors produce matrices whose entries are single variables or
zero over a fresh ring with the minimal variable set.  Every family but
the symmetric one is one catalecticant grid, `_grid`, with entry (i, j) =
x_{r*i+j}: Hankel (r = 1), generic (r = m), catalecticant and the
(m-1) x (m+r) gp-associated matrix are whole grids, and the three
degenerations are grids with zeroed entries (sub-Hankel where i+j > n,
degenerate-generic at the last corner, sc3 as cat(3,2) zeroed at (2, 2)).

Every minor and every determinant, whatever its entries (Hessians
included), comes from one minor ladder, `MinorLadder`: Laplace expansion
along the first selected row, memoized on (rows, cols), so the t-minors
of a matrix are built from its (t-1)-minors with ring `+` and `*` only.  There is no
one-minor function: determinants, minor ideals, adjugates, cofactor sums,
Fitting ideals, the `hankelplucker` checks and the casebook's minor facts
each hold one ladder per matrix.  No elimination lives here: the symbolic rank of a
polynomial matrix (`syzygy.poly_matrix_rank`) runs on `linalg._bareiss`,
the one fraction-free elimination of the package.
"""

from __future__ import annotations

import itertools

from .config import Budget
from .polyring import Polynomial, evaluate_all, xring


class PolyMatrix:
    """Rectangular matrix of polynomials with constructor provenance."""

    __slots__ = ("rows", "cols", "entries", "provenance", "ring")

    def __init__(self, rows: int, cols: int, entries: list[Polynomial],
                 provenance: str = "custom"):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count must equal rows*cols")
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)
        self.provenance = provenance
        self.ring = entries[0].ring

    def _check(self, r: int, c: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside a {self.rows}x{self.cols} matrix")

    def __getitem__(self, rc):
        r, c = rc
        self._check(r, c)
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> list[Polynomial]:
        self._check(r, 0)
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def column(self, c: int) -> list[Polynomial]:
        self._check(0, c)
        return [self.entries[r * self.cols + c] for r in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def evaluate(self, point, p: int | None = None) -> list[list]:
        """Entrywise values at `point`, exact or mod p (`evaluate_all`)."""
        vals = evaluate_all(self.entries, point, p)
        return [vals[r:r + self.cols] for r in range(0, len(vals), self.cols)]

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        body = "; ".join(", ".join(str(self[r, c]) for c in range(self.cols))
                         for r in range(self.rows))
        return f"PolyMatrix[{self.rows}x{self.cols}; {self.provenance}]({body})"


# ---------------------------------------------------------------------------
# constructors

def build_structured(kind: str, m: int | None = None, r: int | None = None,
                     n: int | None = None, overrides: dict | None = None) -> PolyMatrix:
    """Build one of the supported matrix families over its minimal ring.

    kinds: generic(m), symmetric(m), catalecticant(m, r), hankel(m),
    sub-hankel(n), degenerate-generic(m), sc3, gp-associated(m, r), plus
    per-entry overrides (position -> variable index or 0) giving
    provenance "custom".
    """
    kind = kind.lower().replace("_", "-")
    if kind in ("hankel", "generic"):
        if m is None or m < 2:
            raise ValueError(f"{kind} needs m >= 2")
        mat = _catalecticant(m, 1 if kind == "hankel" else m)
    elif kind == "catalecticant":
        mat = _catalecticant(m, r)
    elif kind == "symmetric":
        mat = _symmetric(m)
    elif kind == "sub-hankel":
        if n is None or n < 2:
            raise ValueError("sub-hankel needs n >= 2")
        mat = _grid(n, n, 1, f"sub-hankel({n})", lambda i, j: i + j > n)
    elif kind == "degenerate-generic":
        if m is None or m < 3:
            raise ValueError("degenerate-generic needs m >= 3")
        mat = _grid(m, m, m, f"degenerate-generic({m})", lambda i, j: i == j == m - 1)
    elif kind == "sc3":
        mat = _grid(3, 3, 2, "sc3", lambda i, j: i == j == 2)
    elif kind == "gp-associated":
        mat = build_gp_associated(m, r)
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if overrides:
        ents = list(mat.entries)
        ring = mat.ring
        for (i, j), v in overrides.items():
            if not (0 <= i < mat.rows and 0 <= j < mat.cols):
                raise ValueError(f"override position {(i, j)} out of range")
            ents[i * mat.cols + j] = ring.zero() if v in (0, "0", None) else ring.var(int(v))
        mat = PolyMatrix(mat.rows, mat.cols, ents, "custom")
    return mat


def _grid(rows: int, cols: int, r: int, name: str, zero=None) -> PolyMatrix:
    """rows x cols matrix with entry (i, j) = x_{r*i+j}, or 0 where
    zero(i, j), over the variables x_0 up to the last one used."""
    idx = [None if zero and zero(i, j) else r * i + j
           for i in range(rows) for j in range(cols)]
    ring = xring(max(k for k in idx if k is not None) + 1)
    ents = [ring.zero() if k is None else ring.var(k) for k in idx]
    return PolyMatrix(rows, cols, ents, name)


def _catalecticant(m: int, r: int) -> PolyMatrix:
    if m is None or r is None or m < 2 or not 1 <= r <= m:
        raise ValueError("catalecticant needs m >= 2 and 1 <= r <= m")
    name = {1: f"hankel({m})", m: f"generic({m})"}.get(r, f"catalecticant({m},{r})")
    return _grid(m, m, r, name)


def _symmetric(m: int) -> PolyMatrix:
    if m is None or m < 2:
        raise ValueError("symmetric needs m >= 2")
    ring = xring(m * (m + 1) // 2)

    def idx(i, j):
        if i > j:
            i, j = j, i
        return i * m - i * (i - 1) // 2 + (j - i)

    ents = [ring.var(idx(i, j)) for i in range(m) for j in range(m)]
    return PolyMatrix(m, m, ents, f"symmetric({m})")


def build_gp_associated(m: int, r: int) -> PolyMatrix:
    """(m-1) x (m+r) matrix with entry (i,j) = x_{ri+j}, sharing the
    catalecticant's variable set; its maximal minors carry the submaximal
    minor combinatorics of the square matrix."""
    if m is None or r is None or m < 2 or not 1 <= r <= m - 1:
        raise ValueError("gp-associated needs m >= 2 and 1 <= r <= m-1")
    return _grid(m - 1, m + r, r, f"gp-associated({m},{r})")


# ---------------------------------------------------------------------------
# determinants

class MinorLadder:
    """Every minor of one matrix, from one memo keyed on (rows, cols).

    A minor is expanded by Laplace along its first selected row into
    minors on the remaining rows, which the memo shares between all the
    minors read from this ladder; zero entries are skipped.  Selections
    keep their given order, so a permuted selection gives the signed
    minor.  With a budget, each new memo entry ticks "determinant
    expansion" once.  Keep a ladder local to its caller: its memo lives as
    long as it does.
    """

    __slots__ = ("matrix", "budget", "_rows", "_memo")

    def __init__(self, M: PolyMatrix, budget: Budget | None = None):
        self.matrix = M
        self.budget = budget
        self._rows = [M.row(i) for i in range(M.rows)]
        self._memo: dict[tuple, Polynomial] = {}

    def minor(self, rows, cols) -> Polynomial:
        """Determinant of the submatrix on `rows` x `cols`, in that order."""
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise ValueError(f"minor needs as many rows as columns, got {rows} x {cols}")
        if not rows:
            raise ValueError("minor of an empty selection")
        for sel, size, what in ((rows, self.matrix.rows, "row"),
                                (cols, self.matrix.cols, "column")):
            if len(set(sel)) != len(sel):
                raise ValueError(f"repeated {what} index in {sel}")
            if not all(0 <= i < size for i in sel):
                raise ValueError(f"{what} index out of range in {sel} (size {size})")
        return self._expand(rows, cols)

    def minors(self, t: int):
        """The t x t minors, row sets outer and column sets inner, each in
        combination order."""
        M = self.matrix
        if not 1 <= t <= min(M.rows, M.cols):
            raise ValueError("minor size out of range")
        col_sets = list(itertools.combinations(range(M.cols), t))
        for rows in itertools.combinations(range(M.rows), t):
            for cols in col_sets:
                yield self._expand(rows, cols)

    def _expand(self, rows: tuple, cols: tuple) -> Polynomial:
        memo = self._memo
        got = memo.get((rows, cols))
        if got is not None:
            return got
        if self.budget is not None:
            self.budget.tick(1, "determinant expansion")
        top, rest = self._rows[rows[0]], rows[1:]
        acc = self.matrix.ring.zero()
        for pos, c in enumerate(cols):
            e = top[c]
            if e.is_zero():
                continue
            term = e * self._expand(rest, cols[:pos] + cols[pos + 1:]) if rest else e
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[rows, cols] = acc
        return acc


def determinant(M: PolyMatrix, budget: Budget | None = None) -> Polynomial:
    """Exact determinant, read off the minor ladder; with a budget, each
    new memo entry ticks "determinant expansion"."""
    if not M.is_square():
        raise ValueError("determinant of a non-square matrix")
    return MinorLadder(M, budget).minor(range(M.rows), range(M.cols))


def cofactor_matrix(M: PolyMatrix, budget: Budget | None = None) -> PolyMatrix:
    """Adjugate: entry (i,j) = (-1)^{i+j} minor(delete row j, col i), so
    M * adj(M) = det(M) * Id and det(adj(M)) = det(M)^{m-1}."""
    if not M.is_square():
        raise ValueError("adjugate of a non-square matrix")
    n = M.rows
    if n < 2:
        raise ValueError("adjugate needs size >= 2")
    ladder = MinorLadder(M, budget)
    ents = []
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            minor = ladder.minor(rows, cols)
            ents.append(minor if (i + j) % 2 == 0 else -minor)
    return PolyMatrix(n, n, ents, f"adjugate[{M.provenance}]")


def minors_ideal_gens(M: PolyMatrix, t: int, budget: Budget | None = None) -> list[Polynomial]:
    """All t x t minors in combination order, duplicates and zeros removed."""
    return list(dict.fromkeys(d for d in MinorLadder(M, budget).minors(t)
                              if not d.is_zero()))


# ---------------------------------------------------------------------------
# matrix spec files (structured text) used by the CLI
#
#   kind = catalecticant
#   m = 3
#   r = 2
#   override = 2,2:0        # row,col:variable-index-or-0  (';'-separated)

def parse_matrix_spec(text: str) -> PolyMatrix:
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad matrix spec line: {line!r}")
        k, v = line.split("=", 1)
        kv[k.strip().lower()] = v.strip()
    kind = kv.get("kind")
    if not kind:
        raise ValueError("matrix spec needs a kind")
    overrides = {}
    if "override" in kv:
        for part in kv["override"].split(";"):
            part = part.strip()
            if not part:
                continue
            pos, val = part.split(":")
            i, j = (int(z) for z in pos.split(","))
            overrides[(i, j)] = 0 if val.strip() == "0" else int(val.strip().lstrip("x"))
    getint = lambda key: int(kv[key]) if key in kv else None
    return build_structured(kind, m=getint("m"), r=getint("r"), n=getint("n"),
                            overrides=overrides or None)
