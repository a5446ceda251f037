"""Anti-diagonal degenerations: the sub-Hankel determinant, its partial
filtration with gcd powers, the recurrent Hilbert-Burch presentations,
multiplicities, the three-step minimal resolution, associated primes, and
linear type.

Index conventions: the order-n matrix has entry (i,j) = x_{i+j} when
i+j <= n and 0 otherwise (0-based), over k[x_0..x_n]; J_i is generated by
the first i+1 partials divided by their common power of x_n.

Every check takes the polar record (`polar.polar_data`) of the order-n
sub-Hankel determinant, with n = form.n, and reads the partials from it;
the filtration generators and ideals, the Hilbert-Burch matrices and the
displayed syzygies are functions of that record.  The checks run under the
caller's budget, whose config the Groebner queries read.

`CHECKS` lists the checks by name, `supports` says at which orders each
one runs and `ORDERS` holds the orders n accepted at all: the casebook's
subhankel-n scenarios and facts and `detlab subhankel` read them here, and
list no check or order of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .config import Budget
from .groebner import (Ideal, colon, hilbert_data, ideal_equal, ideal_sum,
                       radical_membership)
from .polyring import Polynomial, Ring, dot, exact_divide, NOT_DIVISIBLE
from .structmat import MinorLadder, PolyMatrix
from .syzygy import ModuleBasis, graded_betti
from . import polar

# the largest order n each capped check is run for, and the smallest for
# the checks whose closed forms assume n >= 3 (at n = 2 the determinant is
# a smooth conic: its Betti shifts collide and it has no embedded prime or
# heavy syzygy); `supports` reads them, for the casebook and the CLI
MAX_ORDER = {"colon": 5, "resolution": 5, "linear-type": 4}
MIN_ORDER = {"resolution": 3, "linear-type": 3}
# the orders the front ends accept: `detlab subhankel` runs its checks at
# each, and the casebook has a subhankel-n scenario at each but the first,
# the conic n = 2
ORDERS = range(2, 7)


def supports(check: str, n: int) -> bool:
    """Whether the check named `check` runs at order n."""
    return MIN_ORDER.get(check, n) <= n <= MAX_ORDER.get(check, n)


def _check_order(check: str, n: int, what: str) -> None:
    if n > MAX_ORDER[check]:
        raise ValueError(f"{what} capped at n = {MAX_ORDER[check]}")
    if n < MIN_ORDER.get(check, n):
        raise ValueError(f"{what} needs n >= {MIN_ORDER[check]}")


# ---------------------------------------------------------------------------
# the filtration and its relations

def _relation_column(ring: Ring, n: int, j: int, length: int) -> list[Polynomial]:
    """The recurrent relation tying the first j+1 partials: entry k is
    x_{n-j+k} * (2j-k)/j for k <= j and 0 below, `length` entries."""
    return [ring.var(n - j + k) * Fraction(2 * j - k, j) if k <= j else ring.zero()
            for k in range(length)]


def filtration_generators(form: polar.PolarMapData, i: int) -> list[Polynomial]:
    """The first i+1 partials divided by their common power x_n^{n-i-1}."""
    n = form.n
    if not 0 <= i <= n - 1:
        raise ValueError("filtration index out of range")
    e = n - i - 1
    xn = form.f.ring.var(n)
    out = []
    for k, g in enumerate(form.partials[:i + 1]):
        for _ in range(e):
            q = exact_divide(g, xn)
            if q is NOT_DIVISIBLE:
                raise ArithmeticError(f"partial {k} not divisible by x_n^{e}")
            g = q
        out.append(g)
    return out


def filtration_ideal(form: polar.PolarMapData, i: int) -> Ideal:
    return Ideal(form.f.ring, filtration_generators(form, i))


def hilbert_burch(form: polar.PolarMapData, i: int) -> PolyMatrix:
    """The recurrent (i+1) x i linear presentation of J_i: column j
    (from the left) carries the relation tying the first i-j+1 forms."""
    n = form.n
    if not 1 <= i <= n - 1:
        raise ValueError("need 1 <= i <= n-1")
    cols = [_relation_column(form.f.ring, n, j, i + 1) for j in range(i, 0, -1)]
    ents = [cols[c][r] for r in range(i + 1) for c in range(i)]
    return PolyMatrix(i + 1, i, ents, f"hilbert-burch({n},{i})")


def displayed_symmetric_generators(form: polar.PolarMapData) -> list[list[Polynomial]]:
    """The closed-form syzygies of all n+1 partials: the relation columns
    for i = 1..n-1 padded by zero, plus the weighted Euler-type relation."""
    n, ring = form.n, form.f.ring
    out = [_relation_column(ring, n, i, n + 1) for i in range(1, n)]
    euler = [ring.var(k) * (n - 1 - k) for k in range(n - 1)]
    out.append(euler + [ring.zero(), -ring.var(n)])
    return out


# ---------------------------------------------------------------------------
# reports

@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def recurrence_check(form: polar.PolarMapData) -> CheckReport:
    """The two exact linear relations among the partials: x_n * f_i against
    the lower partials, and the weighted Euler-type relation for f_n.  The
    displayed column for i dotted with the partials is x_n * f_i minus the
    right side; the Euler column's is the right side minus x_n * f_n."""
    n = form.n
    labels = [f"relation at i={i}" for i in range(1, n)]
    labels.append("weighted relation for the last partial")
    fails = [label for label, col in zip(labels, displayed_symmetric_generators(form))
             if not dot(col, form.partials).is_zero()]
    return CheckReport(f"recurrence(n={n})", not fails, {"failures": fails})


def gcd_power_check(form: polar.PolarMapData, i: int,
                    budget: Budget | None = None) -> CheckReport:
    """x_n^{n-i-1} divides the first i+1 partials and nothing more divides
    the quotients (their ideal has codimension >= 2)."""
    n = form.n
    ring = form.f.ring
    try:
        gens = filtration_generators(form, i)
    except ArithmeticError as exc:
        return CheckReport(f"gcd(n={n},i={i})", False, {"error": str(exc)})
    ht = ring.nvars - hilbert_data(Ideal(ring, gens), budget).dimension
    support_ok = all(
        p.support_vars() <= set(range(n - i, n + 1)) for p in form.partials[:i + 1])
    return CheckReport(f"gcd(n={n},i={i})", ht >= 2 and support_ok,
                       {"power": n - i - 1, "quotient_codim": ht, "support_ok": support_ok})


def gcd_powers_check(form: polar.PolarMapData,
                     budget: Budget | None = None) -> CheckReport:
    """`gcd_power_check` for every i: the first failing report, else the
    first report."""
    reports = [gcd_power_check(form, i, budget) for i in range(form.n)]
    return next((r for r in reports if not r.passed), reports[0])


def hilbert_burch_check(form: polar.PolarMapData,
                        budget: Budget | None = None) -> CheckReport:
    """Each recurrent presentation column is an exact relation, the maximal
    minors regenerate the filtration ideal, and the grading is linear."""
    n, ring = form.n, form.f.ring
    details = {}
    ok = True
    for i in range(1, n):
        gens = filtration_generators(form, i)
        phi = hilbert_burch(form, i)
        col_ok = all(dot(phi.column(c), gens).is_zero() for c in range(phi.cols))
        linear_ok = all(e.is_zero() or e.degree == 1 for e in phi.entries)
        ladder = MinorLadder(phi, budget)
        mins = [ladder.minor([r for r in range(i + 1) if r != drop], range(i))
                for drop in range(i + 1)]
        eq = ideal_equal(Ideal(ring, mins), Ideal(ring, gens), budget)
        details[f"i={i}"] = {"columns_are_relations": col_ok,
                             "linear": linear_ok, "minors_generate": eq}
        ok = ok and col_ok and linear_ok and eq
    return CheckReport(f"hilbert-burch(n={n})", ok, details)


def multiplicity_filtration_check(form: polar.PolarMapData,
                                  budget: Budget | None = None) -> CheckReport:
    """e(R/J_i) = binomial(i+1, 2), and the colon/length chain behind the
    last filtration quotient having length binomial(n-1, 2)."""
    n, ring = form.n, form.f.ring
    details = {}
    ok = True
    for i in range(1, n):
        hd = hilbert_data(filtration_ideal(form, i), budget)
        want = comb(i + 1, 2)
        details[f"e(R/J_{i})"] = (hd.multiplicity, want)
        ok = ok and hd.multiplicity == want
    xn = ring.var(n)
    xm = ring.var(n - 1)
    Jn1 = filtration_ideal(form, n - 1)
    lhs = ideal_sum(Ideal(ring, [xn]), Jn1)
    rhs = Ideal(ring, [xn, xm ** (n - 1)])
    eq1 = ideal_equal(lhs, rhs, budget)
    col = colon(Jn1, xn, budget)
    eq2 = ideal_equal(col, filtration_ideal(form, n - 2), budget) if n >= 3 else None
    details["(x_n, J_{n-1}) = (x_n, x_{n-1}^{n-1})"] = eq1
    details["J_{n-1} : x_n = J_{n-2}"] = eq2
    want = comb(n - 1, 2)
    got = hilbert_data(filtration_ideal(form, n - 2), budget).multiplicity \
        if n >= 3 else 0
    details["length of the last quotient"] = (got, want)
    ok = ok and eq1 and (eq2 is not False) and got == want
    return CheckReport(f"multiplicity-filtration(n={n})", ok, details)


def colon_claim_check(form: polar.PolarMapData,
                      budget: Budget | None = None) -> CheckReport:
    """(J_{n-1} : last partial) equals (x_n, x_{n-1}^{n-1}); membership of
    the weighted relation gives the trivial inclusion."""
    n, ring = form.n, form.f.ring
    _check_order("colon", n, "colon claim")
    Jn1 = filtration_ideal(form, n - 1)
    target = Ideal(ring, [ring.var(n), ring.var(n - 1) ** (n - 1)])
    got = colon(Jn1, form.partials[n], budget)
    eq = ideal_equal(got, target, budget)
    incl = got.contains(ring.var(n), budget=budget)
    return CheckReport(f"colon-claim(n={n})", eq,
                       {"equal": eq, "x_n_in_colon": incl})


def resolution_and_ass_check(form: polar.PolarMapData,
                             budget: Budget | None = None) -> CheckReport:
    """Resolution shifts, Hilbert numerator, multiplicity, radical,
    certified embedded prime, and the minimal-primary-part identification;
    the resolution starts from the record's syzygy module."""
    n, ring = form.n, form.f.ring
    _check_order("resolution", n, "resolution check")
    J = form.J
    details: dict = {}
    ok = True

    bt, stages = graded_betti(J, budget, syzygies=form.syzygy_module(budget))
    want = {(0, 0): 1, (1, n - 1): n + 1, (2, n): n, (2, 2 * n - 2): 1, (3, 2 * n - 1): 1}
    betti_ok = dict(bt.items()) == want
    details["betti"] = {"got": sorted(bt.items()), "want": sorted(want.items())}
    ok = ok and betti_ok

    hd = hilbert_data(J, budget)
    s_t = {0: 1, n - 1: -(n + 1), n: n, 2 * n - 2: 1, 2 * n - 1: -1}
    num_ok = hd.numerator == s_t and dict(bt.alternating_sum()) == s_t
    details["numerator"] = {"got": hd.numerator, "want": s_t}
    mult_ok = hd.multiplicity == comb(n - 1, 2)
    details["multiplicity"] = (hd.multiplicity, comb(n - 1, 2))
    ok = ok and num_ok and mult_ok

    xn, xm, xk = ring.var(n), ring.var(n - 1), ring.var(n - 2)
    P = Ideal(ring, [xm, xn])
    rad_ok = (radical_membership(xm, J, budget)
              and radical_membership(xn, J, budget)
              and all(P.contains(p, budget=budget) for p in form.partials))
    details["radical"] = rad_ok
    ok = ok and rad_ok

    # embedded prime certified by an explicit colon witness
    Q = Ideal(ring, [xk, xm, xn])
    JQ = colon(J, Q, budget)
    witness = None
    for h in JQ.groebner_basis(budget):
        if h.degree > 2 * n:
            continue
        if J.contains(h, budget=budget):
            continue
        if ideal_equal(colon(J, h, budget), Q, budget):
            witness = h
            break
    if witness is None:
        details["embedded_prime_witness"] = (
            f"Inconclusive: search exhausted up to degree {2 * n}")
    else:
        details["embedded_prime_witness"] = str(witness)
    ok = ok and witness is not None

    # minimal component: J inside J_{n-2} with matching multiplicity
    Jmin = filtration_ideal(form, n - 2)
    inside = all(Jmin.contains(p, budget=budget) for p in form.partials)
    e_match = hilbert_data(Jmin, budget).multiplicity == hd.multiplicity
    details["primary_part"] = {"J_in_J(n-2)": inside, "multiplicity_match": e_match}
    ok = ok and inside and e_match

    # tail differential: one column; its unique degree-1 entry is c*x_n, the
    # entries mod x_n carry the predicted x_{n-1} valuations, and the entry
    # ideal cuts out the embedded locus
    tail = stages[-1]
    tail_ok = len(tail.columns) == 1
    if tail_ok:
        psi = tail.columns[0]
        deg1 = [p for p in psi if not p.is_zero() and p.degree == 1]
        tail_ok = len(deg1) == 1 and len(deg1[0].terms) == 1 and \
            next(iter(deg1[0].terms))[n] == 1
        others = [p for p in psi if not p.is_zero() and p.degree != 1]
        vals = []
        pure = 0
        for p in others:
            bar = Polynomial(ring, {e: c for e, c in p.terms.items() if e[n] == 0})
            if bar.is_zero():
                tail_ok = False
                continue
            if len(bar.terms) == 1 and next(iter(bar.terms))[n - 1] == n - 1:
                pure += 1
                continue
            vals.append(min(e[n - 1] for e in bar.terms))
        vals.sort()
        val_ok = pure == 1 and all(v >= k for k, v in enumerate(vals))
        I1 = Ideal(ring, [p for p in psi if not p.is_zero()])
        rad_tail = all(radical_membership(ring.var(v), I1, budget)
                       for v in (n - 2, n - 1, n))
        details["tail"] = {"single_column": len(tail.columns) == 1,
                           "x_n_entry": tail_ok, "valuations": vals,
                           "pure_power_entry": pure, "valuation_ok": val_ok,
                           "radical_contains_three_vars": rad_tail}
        ok = ok and tail_ok and val_ok and rad_tail
    else:
        details["tail"] = {"single_column": False}
        ok = False
    return CheckReport(f"resolution-ass(n={n})", ok, details)


def subhankel_linear_type_check(form: polar.PolarMapData,
                                budget: Budget | None = None) -> CheckReport:
    """Linear type of the gradient ideal, and agreement of the closed-form
    1-form generators with the computed syzygies up to row operations."""
    n, ring, partials = form.n, form.f.ring, form.partials
    _check_order("linear-type", n, "blowup-equation check")
    lt = form.linear_type(budget)
    syz = form.syzygy_module(budget)
    disp = displayed_symmetric_generators(form)
    disp_ok = all(dot(col, partials).is_zero() for col in disp)
    mb = ModuleBasis(syz.columns, [p.degree for p in partials], budget)
    span_ok = all(mb.contains(col) for col in disp)
    n_linear = sum(1 for i in range(len(syz.columns)) if syz.entry_degree(i) == 1)
    heavy = [i for i in range(len(syz.columns)) if syz.entry_degree(i) == n - 1]
    shape_ok = n_linear == n and len(heavy) == 1
    tailgen_ok = False
    if shape_ok:
        yn = syz.columns[heavy[0]][n]
        bar = Polynomial(ring, {e: c for e, c in yn.terms.items() if e[n] == 0})
        tailgen_ok = (not bar.is_zero() and len(bar.terms) == 1
                      and next(iter(bar.terms))[n - 1] == n - 1)
    passed = lt.status == "LinearType" and disp_ok and span_ok and shape_ok and tailgen_ok
    return CheckReport(f"linear-type(n={n})", passed,
                       {"status": lt.status, "displayed_are_relations": disp_ok,
                        "displayed_in_span": span_ok,
                        "minimal_syzygies": {"linear": n_linear, "heavy": len(heavy)},
                        "tail_generator_shape": tailgen_ok})


# every check by name: check(form, budget) -> CheckReport
CHECKS = {
    "recurrence": lambda form, budget=None: recurrence_check(form),
    "gcd": gcd_powers_check,
    "hilbert-burch": hilbert_burch_check,
    "multiplicity": multiplicity_filtration_check,
    "colon": colon_claim_check,
    "resolution": resolution_and_ass_check,
    "linear-type": subhankel_linear_type_check,
}
