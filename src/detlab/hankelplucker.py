"""Bracket combinatorics for the anti-diagonal (Hankel) family: maximal
minors of the associated rectangular matrix, their componentwise partial
order, the expansion of the determinant's partials into incomparable
brackets, quadratic (Pluecker) relations, radical certification, and the
colon-filtration conjecture checker.

Bracket indices are 1-based, mirroring the classical diagrams.  Bracket
formulas are verified up to one global sign per partial derivative; the
sign is recorded, never assumed.

Every check reads the Hankel record: the m x m matrix `H` (m = H.rows),
the polar record `form = polar.polar_data(determinant(H), config)`, whose
partials it uses, and, for the radical and filtration checks, the
submaximal minor ideal `P` and the caller's budget.  No check expands the
determinant again.  Brackets are read from a ladder of the associated
matrix, `MinorLadder(build_gp_associated(m, r))`, that the caller holds:
each check builds one for its length, so it builds that matrix once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .config import Budget
from .groebner import (Ideal, colon, ideal_equal, ideal_power, ideal_product,
                       radical_membership)
from .polyring import Polynomial, dot
from .structmat import MinorLadder, PolyMatrix, build_gp_associated, minors_ideal_gens
from .syzygy import rees_bigraded_kernel
from . import polar

# the largest order m of each capped check, read by the checks and the CLI
MAX_ORDER = {"golberg": 5, "plucker": 3, "radical": 4, "reduction": 4}
_CAPPED = {"golberg": "minor-sum check", "plucker": "three-term relation",
           "radical": "radical check", "reduction": "conjecture checks"}


def check_order(check: str, m: int, i: int | None = None) -> None:
    """Refuse an order m above the check's cap and, for the filtration
    check, an index i outside 0..m-2."""
    if m > MAX_ORDER.get(check, m):
        raise ValueError(f"{_CAPPED[check]} capped at m = {MAX_ORDER[check]}")
    if check == "reduction" and not 0 <= i <= m - 2:
        raise ValueError("filtration index out of range")


def bracket_minor(brackets: MinorLadder, cols: tuple[int, ...]) -> Polynomial:
    """Maximal minor on 1-based columns of the (m-1) x (m+r) associated
    matrix, read from its ladder `brackets`, so that the brackets a caller
    reads share their smaller minors."""
    G = brackets.matrix
    cols = tuple(cols)
    if len(cols) != G.rows or any(not 1 <= c <= G.cols for c in cols) or \
            list(cols) != sorted(set(cols)):
        raise ValueError(f"bad bracket {cols} for ({G.rows + 1},{G.cols - G.rows - 1})")
    return brackets.minor(range(G.rows), [c - 1 for c in cols])


def bracket_compare(a: tuple, b: tuple) -> str:
    """Componentwise order: 'le', 'ge', 'equal' or 'incomparable'."""
    if len(a) != len(b):
        raise ValueError("bracket length mismatch")
    le = all(x <= y for x, y in zip(a, b))
    ge = all(x >= y for x, y in zip(a, b))
    if le and ge:
        return "equal"
    if le:
        return "le"
    if ge:
        return "ge"
    return "incomparable"


@dataclass
class BracketExpansion:
    """Signed integer combination of brackets equal to a partial derivative."""

    m: int
    j: int
    coefficients: list[tuple[int, tuple]]
    epsilon: int  # global sign making the identity exact

    def brackets(self) -> list[tuple]:
        return [b for _, b in self.coefficients]

    def pairwise_incomparable(self) -> bool:
        bs = self.brackets()
        for x, y in itertools.combinations(bs, 2):
            if bracket_compare(x, y) != "incomparable":
                return False
        return True

    def value(self, brackets: MinorLadder) -> Polynomial:
        return sum(bracket_minor(brackets, b) * c for c, b in self.coefficients) * self.epsilon


def _omit(m: int, omitted: tuple[int, int]) -> tuple:
    a, b = omitted
    return tuple(c for c in range(1, m + 2) if c not in (a, b))


def star_expansion(brackets: MinorLadder, form: polar.PolarMapData, j: int) -> BracketExpansion:
    """Expansion of the j-th partial of the anti-diagonal determinant into
    incomparable brackets, with the global sign solved, not assumed; the
    brackets are read from `brackets`, the ladder of the (m, 1) matrix."""
    m = form.n // 2 + 1  # the determinant of the m x m matrix has 2m - 1 variables
    if not 0 <= j <= 2 * m - 2:
        raise ValueError("partial index out of range")
    combo: list[tuple[int, tuple]] = []
    if j < m:
        for i in range(0, j // 2 + 1):
            coeff = j + 1 - 2 * i
            omitted = (i + 1, j + 2 - i)
            if omitted[0] == omitted[1] or not all(1 <= o <= m + 1 for o in omitted):
                continue
            combo.append((coeff, _omit(m, omitted)))
    else:
        for i in range(1, (2 * m - j) // 2 + 1):
            coeff = 2 * m + 1 - j - 2 * i
            omitted = (i + 1 + j - m, m + 2 - i)
            if omitted[0] == omitted[1] or not all(1 <= o <= m + 1 for o in omitted):
                continue
            combo.append((coeff, _omit(m, omitted)))
    exp = BracketExpansion(m, j, combo, 1)
    value, target = exp.value(brackets), form.partials[j]
    if value != target:
        if -value != target:
            raise ArithmeticError(f"bracket expansion mismatch for partial {j}")
        exp.epsilon = -1
    return exp


# ---------------------------------------------------------------------------
# minor-sum expansions of the partials

@dataclass
class GolbergReport:
    m: int
    partial_signs: list[int]
    partials_ok: bool
    delta_ok: bool
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.partials_ok and self.delta_ok


def delta_bracket_expansion(brackets: MinorLadder, j: int, i: int) -> Polynomial:
    """Bracket combination carried by the minor omitting row i, column j:
    sum over valid l of [omit l, omit i+j+1-l], read from `brackets`, the
    ladder of the (m, 1) matrix."""
    m = brackets.matrix.rows + 1
    if j < i:
        j, i = i, j
    bs = [_omit(m, (l, i + j + 1 - l)) for l in range(max(1, i + j - m), min(i, (i + j) // 2) + 1)
          if l < i + j + 1 - l <= m + 1]
    if not bs:
        raise ValueError(f"empty bracket expansion for minor ({j},{i})")
    return sum(bracket_minor(brackets, b) for b in bs)


def golberg_delta_check(H: PolyMatrix, form: polar.PolarMapData) -> GolbergReport:
    """Partials as sums of submaximal minors along the anti-diagonal, and
    each minor as a bracket combination; both as exact identities."""
    m = H.rows
    check_order("golberg", m)
    ladder, brackets = MinorLadder(H), MinorLadder(build_gp_associated(m, 1))

    def sub(k, l):
        """The minor omitting row l and column k (1-based, unsigned)."""
        return ladder.minor([i for i in range(m) if i != l - 1],
                            [i for i in range(m) if i != k - 1])
    signs = []
    partials_ok = True
    details = []
    for idx in range(2 * m - 1):
        acc = sum(sub(k, idx + 2 - k) for k in range(max(1, idx + 2 - m), min(m, idx + 1) + 1))
        target = form.partials[idx]
        if acc == target:
            signs.append(1)
        elif -acc == target:
            signs.append(-1)
        else:
            signs.append(0)
            partials_ok = False
            details.append(f"partial {idx}: minor sum mismatch")
    delta_ok = True
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            direct = sub(j, i)
            try:
                expanded = delta_bracket_expansion(brackets, j, i)
            except ValueError:
                delta_ok = False
                details.append(f"minor ({j},{i}): no bracket expansion")
                continue
            if direct != expanded and direct != -expanded:
                delta_ok = False
                details.append(f"minor ({j},{i}): bracket expansion mismatch")
    return GolbergReport(m, signs, partials_ok, delta_ok, details)


# ---------------------------------------------------------------------------
# quadratic bracket relations

def plucker_verify(m: int, r: int, terms: list[tuple[int | Fraction, tuple, tuple]]) -> bool:
    """Exact-zero test of a formal sum of bracket products, read from one
    ladder of the (m, r) matrix."""
    brackets = MinorLadder(build_gp_associated(m, r))
    return bool(terms) and dot([bracket_minor(brackets, b1) * c for c, b1, _ in terms],
                               [bracket_minor(brackets, b2) for _, _, b2 in terms]).is_zero()


def three_term_plucker(m: int, r: int, quad: tuple[int, int, int, int]) -> bool:
    """The classical 3-term relation on two-row matrices (m = 3): its
    brackets are maximal minors of no larger associated matrix."""
    check_order("plucker", m)
    a, b, c, d = quad
    return plucker_verify(m, r, [
        (1, (a, b), (c, d)), (-1, (a, c), (b, d)), (1, (a, d), (b, c))])


@dataclass
class SolvedIdentity:
    coefficients: list[Fraction]
    verified: bool


def solve_bracket_identity(lhs: Polynomial, rhs_parts: list[Polynomial]) -> SolvedIdentity:
    """Solve lhs = sum_i c_i * rhs_parts[i] for rational constants exactly.

    The constant relations among rhs_parts + [lhs] are the (0,1) piece of
    their blowup ideal, sum_i a_i * y_i with y_i standing for the i-th
    part; one with a nonzero lhs coefficient solves the identity."""
    ncols = len(rhs_parts)
    ring = lhs.ring
    for rel in rees_bigraded_kernel(rhs_parts + [lhs], 0, 1):
        a = [0] * (ncols + 1)
        for e, c in rel.terms.items():
            a[e.index(1)] = c  # the term c * y_i
        if a[ncols]:
            # integral coefficients come back as ints: divide as Fractions
            coeffs = [Fraction(-c, a[ncols]) for c in a[:ncols]]
            check = dot([ring.one()] + [ring.const(-c) for c in coeffs], [lhs] + rhs_parts)
            return SolvedIdentity(coeffs, check.is_zero())
    return SolvedIdentity([], False)


# ---------------------------------------------------------------------------
# radical and colon-filtration checks

@dataclass
class IntegralityReport:
    m: int
    minors_in_radical: bool
    gradient_inside_minors: bool
    quadratic_witnesses: list[dict] = field(default_factory=list)
    per_minor: list[tuple[tuple, bool]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.minors_in_radical and self.gradient_inside_minors


def integrality_check(H: PolyMatrix, form: polar.PolarMapData, P: Ideal,
                      budget: Budget | None = None) -> IntegralityReport:
    """Radical of the gradient ideal equals the submaximal minor ideal P,
    certified both ways, with the quadratic-equation witnesses at m = 3."""
    m = H.rows
    check_order("radical", m)
    brackets = MinorLadder(build_gp_associated(m, 1))
    J = form.J
    per_minor = []
    all_in = True
    for cols in itertools.combinations(range(1, m + 2), m - 1):
        g = bracket_minor(brackets, cols)
        ok = radical_membership(g, J, budget)
        per_minor.append((cols, ok))
        all_in = all_in and ok
    inside = all(P.contains(p, budget=budget) for p in form.partials)
    witnesses = []
    if m == 3:
        JP = ideal_product(J, P)
        bs = star_expansion(brackets, form, 2).brackets()
        f2 = form.partials[2]
        for bidx, b in enumerate(bs):
            delta = bracket_minor(brackets, b)
            other = bracket_minor(brackets, bs[1 - bidx])
            sol = solve_bracket_identity(delta * delta, [f2 * delta, other * delta])
            member = JP.contains(delta * delta, budget=budget)
            witnesses.append({"bracket": b, "coefficients": [str(c) for c in sol.coefficients],
                              "identity": sol.verified, "square_in_JP": member})
    return IntegralityReport(m, all_in, inside, witnesses, per_minor)


@dataclass
class ReductionOutcome:
    """A completed colon-filtration check; a spent budget raises
    ComputationTimeout instead, so there is no timed-out outcome."""
    m: int
    i: int
    status: str  # 'Equal' | 'NotEqual'
    witness: str | None = None


def reduction_conjecture_check(H: PolyMatrix, form: polar.PolarMapData, P: Ideal, i: int,
                               budget: Budget | None = None) -> ReductionOutcome:
    """Colon filtration J*P^i : P^{i+1} against the minor ideal ladder, J
    the gradient ideal of form.  `ideal_equal` decides Equal; otherwise
    the first generator of the colon outside the ladder ideal, else of the
    ladder ideal outside the colon, is the NotEqual witness."""
    m = H.rows
    check_order("reduction", m, i)
    ring = H.ring
    J = form.J
    t = m - 2 - i
    rhs = Ideal(ring, minors_ideal_gens(H, t, budget) if t else [ring.one()])
    lhs_ideal = J if i == 0 else ideal_product(J, ideal_power(P, i))
    got = colon(lhs_ideal, ideal_power(P, i + 1), budget)
    if ideal_equal(got, rhs, budget):
        return ReductionOutcome(m, i, "Equal")
    witness = next(g for gens, other in ((got.gens, rhs), (rhs.gens, got))
                   for g in gens if not other.contains(g, budget=budget))
    return ReductionOutcome(m, i, "NotEqual", witness=str(witness))
