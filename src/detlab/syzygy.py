"""Graded syzygies: linear part by exact degree-wise kernels, full first
syzygy modules by module Groebner bases, Fitting-height checks, and small
minimal free resolutions with graded Betti numbers.

The degree-wise syzygies and the bigraded blowup-equation pieces are both
kernels of `linalg.packed_relations` (forms times x-monomials, through
`linalg.linear_relations`, and y-power products of the forms times
x-monomials); this module builds the y-power products on packed integer
terms and reshapes the kernel vectors.  Coefficients are rational,
cleared of denominators on the way into the integer kernels.

Module Groebner bases run on the Buchberger engine of `groebner`: a term
with component c and exponent e in a free module of rank r is the flat
exponent tuple onehot_r(c) + e, under position-over-term with the ambient
order inside each component (packed like any monomial, with the one-hot
slots as the leading weight rows).  Pairs form within one component only,
where the coprime criterion never fires (it is unsound for modules);
pruning is by the chain criterion.  The engine works on primitive integer
vectors.  A module basis goes through the GB cache of `groebner`, in memory
and in the disk packs, like the basis of an ideal; the syzygies read from
it are still checked by exact dot products.  The span tests of
`minimal_generators` run on the same packed column reduction as the
kernels, `linalg.SparseEliminator`.

Computations take the Budget of the casebook fact or CLI command that runs
them, and the Groebner queries read the cache directory from its config;
a config is passed only to seed the rank's draws.  Without a budget the
kernels run unmetered and each engine call builds a default one.
"""

from __future__ import annotations

import hashlib
import itertools

from .config import Budget, Config, ComputationTimeout, DEFAULT_CONFIG
from .linalg import SparseEliminator, _packer, dense_rank, linear_relations, packed_relations
from .groebner import (Ideal, hilbert_data, rees_ring, _Entry, _buchberger, _cached,
                       _pack_entries, _poly_t_mul, _reduce_terms, _settings)
from .polyring import MonomialOrder, Polynomial, Ring, _content_strip, clear_denominators, dot
from .structmat import MinorLadder, PolyMatrix, _bareiss


# ---------------------------------------------------------------------------
# module Groebner bases on the groebner engine

def _onehot(rank: int, c: int) -> tuple:
    return (0,) * c + (1,) + (0,) * (rank - c - 1)


def _module_rows(order: MonomialOrder, rank: int) -> list[tuple]:
    """Weight rows of position over term: the one-hot slots, then the
    order's rows on the exponent part."""
    return ([_onehot(rank, c) + (0,) * order.nvars for c in range(rank)]
            + [(0,) * rank + row for row in order.weight_rows()])


def module_groebner(int_vectors: list[dict], order: MonomialOrder, shifts,
                    budget: Budget | None = None) -> list[_Entry]:
    """Reduced module Groebner basis of integer term-dict vectors, from the
    GB cache when it holds the basis, under a key of the order, the shifts
    and the content-stripped vectors.

    The rank is len(shifts); a term onehot(c) + e has degree sum(e) + shifts[c]
    (t.index(1) is its component c, the first nonzero slot).
    """
    rank = len(shifts)
    vecs = [_content_strip(dict(v)) for v in int_vectors if v]
    if not vecs:
        return []
    rows = _module_rows(order, rank)
    key = ("module", order.id, tuple(shifts), sorted({tuple(sorted(v.items())) for v in vecs}))

    def compute():
        seeds = _pack_entries(vecs, [max(sum(t[rank:]) + shifts[t.index(1)] for t in v)
                                     for v in vecs], rows)
        seeds.sort(key=lambda g: g.lm)
        return _buchberger(seeds, budget or DEFAULT_CONFIG.budget(), rank)
    return _cached(hashlib.sha256(repr(key).encode()).hexdigest(), rows,
                   _settings(budget, None), compute, rank)


def _column_to_int_vector(col: list[Polynomial], rank: int) -> dict:
    """Primitive integer vector of a column in a free module of the given rank."""
    items = []
    for comp, a in enumerate(col):
        hot = _onehot(rank, comp)
        items += [(hot + e, c) for e, c in a.terms.items()]
    return _content_strip(clear_denominators(items)[0])


def _int_vector_to_column(vec: dict, ring: Ring, rank: int) -> list[Polynomial]:
    cols = [dict() for _ in range(rank)]
    for t, c in vec.items():
        cols[t.index(1)][t[rank:]] = c
    return [Polynomial(ring, d, _clean=True) for d in cols]


class ModuleBasis:
    """Reduced module GB wrapper for membership/normal-form queries."""

    def __init__(self, columns: list[list[Polynomial]], shifts: list[int],
                 budget: Budget | None = None):
        if not columns:
            raise ValueError("empty module")
        self.ring = columns[0][0].ring
        self.rank = len(columns[0])
        if len(shifts) != self.rank:
            raise ValueError("need one degree shift per component")
        self.shifts = list(shifts)
        vecs = [_column_to_int_vector(c, self.rank) for c in columns]
        self.entries = module_groebner(vecs, self.ring.order, self.shifts, budget)
        self._budget = budget

    def normal_form_vector(self, col: list[Polynomial]) -> list[Polynomial]:
        vec = _column_to_int_vector(col, self.rank)
        rem, _ = _reduce_terms(vec, self.entries, self._budget, "module reduction")
        return _int_vector_to_column(_content_strip(rem), self.ring, self.rank)

    def contains(self, col: list[Polynomial]) -> bool:
        return all(a.is_zero() for a in self.normal_form_vector(col))


# ---------------------------------------------------------------------------
# first syzygies

class GradedSyzygyMatrix:
    """Columns are exact syzygies of the target forms.

    column_degrees holds the graded degree of each column as an element of
    the shifted free module (entry degree + target degree); for equal-degree
    targets d the linear columns are those of degree d+1.
    """

    def __init__(self, target_degrees: list[int], columns: list[list[Polynomial]],
                 column_degrees: list[int]):
        self.target_degrees = list(target_degrees)
        self.columns = columns
        self.column_degrees = list(column_degrees)

    def __len__(self):
        return len(self.columns)

    def entry_degree(self, i: int) -> int:
        """Degree of the entries of column i over equal-degree targets."""
        d = set(self.target_degrees)
        if len(d) != 1:
            raise ValueError("entry degree needs equal target degrees")
        return self.column_degrees[i] - d.pop()

    def as_poly_matrix(self) -> PolyMatrix:
        rows = len(self.target_degrees)
        ents = []
        for r in range(rows):
            for col in self.columns:
                ents.append(col[r])
        return PolyMatrix(rows, len(self.columns), ents, "syzygy")


def syzygy_basis_in_degree(forms: list[Polynomial], shift_degree: int,
                           budget: Budget | None = None) -> list[list[Polynomial]]:
    """k-basis of syzygies whose entries have the given degree, by exact
    linear algebra on coefficient space."""
    ring = forms[0].ring
    monos = list(_monomials_of_degree(ring.nvars, shift_degree))
    out = []
    for vec in linear_relations(forms, monos, budget):
        col = [Polynomial(ring, {mono: vec[j] for j, mono in enumerate(monos, i * len(monos))
                                 if j in vec})
               for i in range(len(forms))]
        if not dot(col, forms).is_zero():
            raise ArithmeticError("kernel vector fails exact verification")
        out.append(col)
    return out


def _monomials_of_degree(nvars: int, d: int):
    if d < 0:
        return
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def linear_syzygies(forms: list[Polynomial], budget: Budget | None = None,
                    config: Config | None = None) -> tuple[GradedSyzygyMatrix, "RankResult"]:
    """Basis of the linear syzygy space and the rank of its column matrix."""
    degs = {f.degree for f in forms}
    if len(degs) != 1:
        raise ValueError("forms must be homogeneous of one degree")
    if not all(f.is_homogeneous() for f in forms):
        raise ValueError("forms must be homogeneous")
    cols = syzygy_basis_in_degree(forms, 1, budget)
    d = degs.pop()
    mat = GradedSyzygyMatrix([d] * len(forms), cols, [d + 1] * len(cols))
    rank = poly_matrix_rank(mat.as_poly_matrix(), config=config) if cols else \
        RankResult(0, "proved", None)
    return mat, rank


# random evaluations tried, and the largest matrix (rows * cols) whose rank
# a symbolic echelon settles when the evaluations fall short
_RANK_TRIALS = 3
_RANK_EXACT_SIZE_CAP = 120


class RankResult:
    __slots__ = ("rank", "certainty", "witness", "per_trial_bound")

    def __init__(self, rank: int, certainty: str, witness, per_trial_bound=None):
        self.rank = rank
        self.certainty = certainty  # 'proved' | 'probabilistic'
        self.witness = witness
        self.per_trial_bound = per_trial_bound

    def __repr__(self):
        return f"RankResult({self.rank}, {self.certainty})"


def poly_matrix_rank(M: PolyMatrix, config: Config | None = None) -> RankResult:
    """Rank over the fraction field.

    Random evaluations over a ~2^61 prime field give a certified lower
    bound (a minor nonzero mod p is a nonzero rational).  Full row or
    column rank at a point is already exact; otherwise a fraction-free
    symbolic echelon pass settles the value when the matrix is within
    budget, and the result is labeled probabilistic beyond it.
    """
    from .modp import PRIME_61
    config = config or DEFAULT_CONFIG
    rng = config.rng("poly-matrix-rank")
    p = PRIME_61
    nv = M.ring.nvars
    maxdeg = max((int(e.degree) for e in M.entries if not e.is_zero()), default=0)
    bound = min(M.rows, M.cols) * maxdeg / p
    best = 0
    witness = None
    for _ in range(_RANK_TRIALS):
        pt = [rng.randrange(0, p) for _ in range(nv)]
        r, minor = dense_rank(M.evaluate(pt, p), p)
        if r > best:
            best = r
            witness = {"point": pt, "prime": p, "minor": minor}
        if best == min(M.rows, M.cols):
            return RankResult(best, "proved", witness, bound)
    if M.rows * M.cols <= _RANK_EXACT_SIZE_CAP:
        exact, _ = _bareiss([M.row(i) for i in range(M.rows)])
        # the evaluation bound never exceeds the true rank
        return RankResult(exact, "proved", witness, bound)
    return RankResult(best, "probabilistic", witness, bound)


def first_syzygy_module(forms: list[Polynomial],
                        budget: Budget | None = None) -> GradedSyzygyMatrix:
    """Minimal generating set of the full first syzygy module of ring elements."""
    return module_syzygies([[f] for f in forms], [0], budget)


def module_syzygies(columns: list[list[Polynomial]], target_shifts: list[int],
                    budget: Budget | None = None) -> GradedSyzygyMatrix:
    """Minimal generating set of the syzygies of column vectors in a
    shifted free module: `minimal_generators` of `syzygy_generators`."""
    return minimal_generators(syzygy_generators(columns, target_shifts, budget), budget)


def syzygy_generators(columns: list[list[Polynomial]], target_shifts: list[int],
                      budget: Budget | None = None) -> GradedSyzygyMatrix:
    """A generating set, not minimal, of the syzygies of column vectors in
    a shifted free module.

    Graph-module elimination: compute a module GB of {col_j ⊕ e_j} with the
    target components dominant; basis elements supported purely on the tag
    components are exactly a generating set of the syzygy module.  Each is
    checked to be a syzygy by exact dot products before it is returned.
    """
    if not columns:
        return GradedSyzygyMatrix([], [], [])
    ring = columns[0][0].ring
    r = len(target_shifts)
    k = len(columns)
    col_degs = []
    for col in columns:
        ds = {a.degree + target_shifts[i] for i, a in enumerate(col) if not a.is_zero()}
        if len(ds) != 1:
            raise ValueError("columns must be homogeneous w.r.t. the shifts")
        col_degs.append(ds.pop())
    shifts = list(target_shifts) + col_degs
    zero, one = ring.zero(), ring.one()
    # the graph vector col_j ⊕ e_j
    vecs = [_column_to_int_vector(col + [one if i == j else zero for i in range(k)], r + k)
            for j, col in enumerate(columns)]
    gb = module_groebner(vecs, ring.order, shifts, budget)
    syz_cols = []
    syz_degs = []
    for g in gb:
        full = g.full()
        if all(t.index(1) >= r for t in full):
            polys = _int_vector_to_column(full, ring, r + k)[r:]
            # exact dot product against the targets before emission
            for comp in range(r):
                if not dot(polys, [col[comp] for col in columns]).is_zero():
                    raise ArithmeticError("computed relation fails exact verification")
            ds = {a.degree + col_degs[i] for i, a in enumerate(polys) if not a.is_zero()}
            syz_cols.append(polys)
            syz_degs.append(ds.pop())
    return GradedSyzygyMatrix(col_degs, syz_cols, syz_degs)


def minimal_generators(syz: GradedSyzygyMatrix, budget: Budget | None = None) -> GradedSyzygyMatrix:
    """Graded minimal generating subset via degreewise exact linear algebra.

    An element of degree j is a new generator iff it is independent of
    (chosen generators of lower degree) * monomials plus same-degree picks.
    Each column is cleared of denominators and packed once, its component
    in the top field, so a product g * x^m is the packing of g shifted by
    x^m; the span tests are `SparseEliminator.add_row` answers, one
    eliminator per degree.
    """
    if not syz.columns:
        return syz
    nvars = syz.columns[0][0].ring.nvars
    degs = syz.column_degrees
    top = max(degs)
    pack = _packer(nvars + 1, max([len(syz.columns[0]) - 1]
                                  + [p.degree + top - d for col, d in zip(syz.columns, degs)
                                     for p in col if p.terms]))
    packed = [clear_denominators((pack((comp,) + e), c) for comp, p in enumerate(col)
                                 for e, c in p.terms.items())[0]
              for col in syz.columns]
    chosen: list[int] = []
    for j in sorted(set(degs)):
        elim = SparseEliminator(budget)
        for i in chosen:
            for mono in _monomials_of_degree(nvars, j - degs[i]):
                elim.add_row(packed[i], pack((0,) + mono))
        chosen += [i for i, d in enumerate(degs) if d == j and elim.add_row(packed[i])]
    return GradedSyzygyMatrix(syz.target_degrees, [syz.columns[i] for i in chosen],
                              [degs[i] for i in chosen])


# ---------------------------------------------------------------------------
# Fitting condition and Betti tables

class FittingReport:
    """The F1 check of a presentation.  Each row is a dict with keys "t",
    "height", "required", "pass", "status" ("complete" or "timeout") and
    "exact".  An exact height is ht I_t itself; otherwise "height" is the
    height of an ideal of some t-minors, a lower bound that already meets
    "required"."""

    def __init__(self, rank: int, rows: list[dict], passed: bool):
        self.rank = rank
        self.rows = rows
        self.passed = passed

    def __repr__(self):
        return f"FittingReport(rank={self.rank}, pass={self.passed})"


def _nonzero_minors(ladder: MinorLadder, t: int):
    """The distinct nonzero t-minors, column sets outer and row sets inner,
    read lazily; each minor read ticks "Fitting minors" once on the
    ladder's budget."""
    M, budget = ladder.matrix, ladder.budget
    seen = set()
    row_sets = list(itertools.combinations(range(M.rows), t))
    for cols in itertools.combinations(range(M.cols), t):
        for rows in row_sets:
            if budget is not None:
                budget.tick(1, "Fitting minors")
            d = ladder.minor(rows, cols)
            if not d.is_zero() and d not in seen:
                seen.add(d)
                yield d


def _height(ring: Ring, gens: list[Polynomial], budget: Budget | None) -> int:
    I = Ideal(ring, gens)
    if I.is_unit(budget):
        return ring.nvars  # a unit Fitting ideal meets any requirement
    return ring.nvars - hilbert_data(I, budget).dimension


def _certified_height(ring: Ring, minors, required: int,
                      budget: Budget | None) -> tuple[int, bool]:
    """(height, exact) for the ideal of `minors`, certified on a sub-ideal.

    K ⊆ I_t gives ht I_t >= ht K, so the first `required` minors (Krull:
    fewer never reach that height), then twice as many, and so on, until
    ht K meets `required`.  When the minors run out K is I_t, and the
    height is exact."""
    gens: list[Polynomial] = []
    want, ht = required, None
    for d in minors:
        gens.append(d)
        if len(gens) == want:
            ht = _height(ring, gens, budget)
            if ht >= required:
                return ht, False
            want *= 2
    if ht is None or len(gens) > want // 2:  # the last K measured was not all of I_t
        ht = _height(ring, gens, budget)
    return ht, True


def fitting_condition_F1(forms: list[Polynomial], syz: GradedSyzygyMatrix,
                         budget: Budget | None = None) -> FittingReport:
    """Height of each Fitting ideal I_t of the presentation vs rank - t + 2.

    `syz` presents the k forms: its columns are syzygies of them (as from
    `first_syzygy_module`).  Each column is checked orthogonal to the
    forms, which are not all zero, so the rank is at most k - 1; the
    certificate at t = k - 1 reads a nonzero minor, so it is k - 1.  Each
    height is certified by a few t-minors (`_certified_height`).  A
    timeout while the rank is certified propagates, since no row can be
    scored without it; a timeout in a row marks that row.
    """
    k = len(forms)
    if all(f.is_zero() for f in forms):
        raise ValueError("Fitting condition of zero forms")
    for col in syz.columns:
        if len(col) != k or not dot(col, forms).is_zero():
            raise ValueError("a presentation column is no syzygy of the forms")
    rank = k - 1
    if rank == 0:
        return FittingReport(0, [], True)
    if not syz.columns:
        raise ValueError(f"the presentation has no nonzero {rank}-minor")
    phi = syz.as_poly_matrix()
    ladder = MinorLadder(phi, budget)
    if next(_nonzero_minors(ladder, rank), None) is None:
        raise ValueError(f"the presentation has no nonzero {rank}-minor")
    rows = []
    passed = True
    for t in range(1, rank + 1):
        required = rank - t + 2
        try:
            ht, exact = _certified_height(phi.ring, _nonzero_minors(ladder, t), required,
                                          budget)
            ok = ht >= required
            rows.append({"t": t, "height": ht, "required": required,
                         "pass": ok, "status": "complete", "exact": exact})
        except ComputationTimeout:
            ok = False
            rows.append({"t": t, "height": None, "required": required,
                         "pass": False, "status": "timeout", "exact": False})
        passed = passed and ok
    return FittingReport(rank, rows, passed)


class BettiTable:
    """(homological index, internal degree) -> rank.

    `complete` records whether the resolution terminated below the
    homological cap; alternating sums only reproduce the Hilbert numerator
    for complete tables."""

    def __init__(self, data: dict[tuple[int, int], int], complete: bool = True):
        self.data = dict(data)
        self.complete = complete

    def __getitem__(self, key):
        return self.data.get(key, 0)

    def items(self):
        return self.data.items()

    def alternating_sum(self) -> dict[int, int]:
        """K-polynomial coefficients sum_i (-1)^i beta_{i,j} t^j."""
        out: dict[int, int] = {}
        for (i, j), b in self.data.items():
            v = out.get(j, 0) + ((-1) ** i) * b
            if v:
                out[j] = v
            else:
                out.pop(j, None)
        return out

    def __repr__(self):
        rows = sorted(self.data.items())
        return "BettiTable(" + ", ".join(f"b[{i},{j}]={v}" for (i, j), v in rows) + ")"


# homological levels computed, and the largest shift recorded in the table
_BETTI_HOM_CAP = 4
_BETTI_DEG_CAP = 40


def graded_betti(I: Ideal, budget: Budget | None = None,
                 syzygies: GradedSyzygyMatrix | None = None
                 ) -> tuple[BettiTable, list[GradedSyzygyMatrix]]:
    """Minimal graded Betti numbers of R/I by iterated syzygies.

    Returns the table and the list of minimal presentation matrices
    (stage k holds the differential F_{k+1} -> F_k).  A caller that holds
    the first syzygy module of `I.gens` passes it as `syzygies`; it is used
    when every generator is minimal, so the first stage is not recomputed.
    """
    if I.ring.nvars > 7:
        raise ValueError("Betti computation capped at 7 ambient variables")
    gens0 = GradedSyzygyMatrix([0], [[g] for g in I.gens], [g.degree for g in I.gens])
    gens = minimal_generators(gens0, budget)
    data: dict[tuple[int, int], int] = {(0, 0): 1}
    stages = []
    cur_cols = gens.columns
    cur_shifts = [0]
    cur_degs = gens.column_degrees
    for d in cur_degs:
        data[(1, d)] = data.get((1, d), 0) + 1
    stages.append(gens)
    level = 1
    complete = not cur_cols
    while cur_cols and level < _BETTI_HOM_CAP:
        if level == 1 and syzygies is not None and gens.columns == gens0.columns:
            syz = syzygies
        else:
            syz = module_syzygies(cur_cols, cur_shifts, budget)
        if not syz.columns:
            complete = True
            break
        level += 1
        for d in syz.column_degrees:
            if d <= _BETTI_DEG_CAP:
                data[(level, d)] = data.get((level, d), 0) + 1
        stages.append(syz)
        cur_shifts = cur_degs
        cur_cols = syz.columns
        cur_degs = syz.column_degrees
    return BettiTable(data, complete), stages


# ---------------------------------------------------------------------------
# bigraded blowup-equation pieces by exact linear algebra
#
# A bihomogeneous element F(y, x) of y-degree s lies in the blowup ideal of
# the forms iff F(f, x) == 0, so each bidegree piece is the kernel of an
# exact linear map on coefficient space.  This is the degree-capped route
# when full elimination is out of reach; results are exact, flagged
# truncated at the ideal level.

def rees_bigraded_kernel(forms: list[Polynomial], xdeg: int, ydeg: int,
                         budget: Budget | None = None) -> list[Polynomial]:
    """k-basis of bidegree (xdeg, ydeg) elements of the blowup ideal,
    returned in the y,x ring."""
    pack = _packer(forms[0].ring.nvars, ydeg * _top_degree(forms) + xdeg)
    return _bigraded_kernel(forms, _y_products(forms, ydeg, pack), xdeg, pack, budget)


def _top_degree(forms: list[Polynomial]) -> int:
    return max((f.degree for f in forms if f.terms), default=0)


def _y_products(forms: list[Polynomial], ydeg: int, pack) -> list[tuple]:
    """(beta, terms, den) for the y-monomials beta of degree ydeg: terms
    are the integer terms of den * f^beta, keyed by `pack`.  Packed
    monomials multiply by adding, as the powers of t in `_poly_t_mul` do."""
    ints = [clear_denominators(f.terms.items()) for f in forms]
    packed = [({pack(e): c for e, c in t.items()}, den) for t, den in ints]
    out = []
    for beta in _monomials_of_degree(len(forms), ydeg):
        acc, den = None, 1
        for (f, d), e in zip(packed, beta):
            for _ in range(e):
                acc, den = f if acc is None else _poly_t_mul(acc, f), den * d
        out.append((beta, {0: 1} if acc is None else acc, den))  # 0 packs x^0
    return out


def _bigraded_relations(yprods: list[tuple], shifts: list[int], budget: Budget | None,
                        skip=frozenset()) -> list[dict]:
    """The relations among the products f^beta * x^alpha, x^alpha packed
    in `shifts`: column beta * len(shifts) + alpha, the columns in `skip`
    left out (see `linalg.packed_relations`)."""
    if budget is not None:
        budget.tick(len(yprods) * len(shifts), "bigraded kernel assembly")
    return packed_relations([t for _, t, _ in yprods], [den for _, _, den in yprods], shifts,
                            budget, skip)


def _bigraded_kernel(forms: list[Polynomial], yprods: list[tuple], xdeg: int, pack,
                     budget: Budget | None, skip=frozenset()) -> list[Polynomial]:
    """The kernel of rees_bigraded_kernel from its y-products, as
    polynomials in the y,x ring."""
    target = rees_ring(forms[0].ring, len(forms))
    xmonos = list(_monomials_of_degree(forms[0].ring.nvars, xdeg))
    out = []
    for vec in _bigraded_relations(yprods, [pack(m) for m in xmonos], budget, skip):
        terms: dict = {}
        for j, v in vec.items():
            beta, alpha = divmod(j, len(xmonos))
            terms[yprods[beta][0] + xmonos[alpha]] = v
        out.append(Polynomial(target, terms))
    return out


def rees_minimal_bidegree12(forms: list[Polynomial],
                            linear_columns: list[list[Polynomial]],
                            budget: Budget | None = None):
    """Minimal generators of the blowup ideal in bidegree (1,2).

    `linear_columns` spans the linear syzygies of the forms (the columns
    of `linear_syzygies`).  The old span of the (1,2) piece is that of the
    y-multiples of the syzygy 1-forms, the x-multiples of the bidegree
    (0,2) relations and the xy-multiples of the constant (0,1) relations.
    It is eliminated first, its rows keyed by minus their column index so
    that each pivot is a row's first column, and its pivot columns are
    skipped in the kernel of the (1,2) evaluation map (see
    `linalg.packed_relations`).  That kernel comes back as a basis of a
    complement of the old span: those vectors are the new generators.
    The quadric products f_i * f_j are built once, as packed integer
    terms, for both the (0,2) and the (1,2) pieces; the x-multiples are
    shifts of them.  Returns (new_generators, kernel_dim,
    old_span_dim), where kernel_dim = old_span_dim + len(new_generators).
    """
    ring = forms[0].ring
    k, n = len(forms), ring.nvars
    pack = _packer(n, 2 * _top_degree(forms) + 1)
    quadrics = _y_products(forms, 2, pack)
    # column of y_i*y_j*x_v in the (1,2) piece, whose x-monomials are the
    # unit vectors in order
    quad = {beta: q for q, (beta, _, _) in enumerate(quadrics)}
    yy = [[quad[tuple((t == i) + (t == j) for t in range(k))] * n for j in range(k)]
          for i in range(k)]
    zero = [pack((0,) * n)]
    old = SparseEliminator(budget)

    def add(items):
        # keyed by minus the column, a row's leading key is its first column
        old.add_row(clear_denominators((-key, c) for key, c in items)[0])
    for col in linear_columns:
        for j in range(k):
            add((yy[i][j] + e.index(1), c) for i, a in enumerate(col) for e, c in a.terms.items())
    for tau in _bigraded_relations(quadrics, zero, budget):
        for v in range(n):
            add((q * n + v, c) for q, c in tau.items())
    # constant-coefficient linear relations would multiply in as well
    for rho in _bigraded_relations(_y_products(forms, 1, pack), zero, budget):
        for v in range(n):
            for j in range(k):
                add((yy[i][j] + v, c) for i, c in rho.items())
    new_gens = _bigraded_kernel(forms, quadrics, 1, pack, budget, {-key for key in old.pivots})
    return new_gens, old.rank + len(new_gens), old.rank
