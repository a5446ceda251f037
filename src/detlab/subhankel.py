"""Anti-diagonal degenerations: the sub-Hankel determinant, its partial
filtration with gcd powers, the recurrent Hilbert-Burch presentations,
multiplicities, the three-step minimal resolution, associated primes, and
linear type.

Index conventions: the order-n matrix has entry (i,j) = x_{i+j} when
i+j <= n and 0 otherwise (0-based), over k[x_0..x_n]; J_i is generated by
the first i+1 partials divided by their common power of x_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .config import Budget, Config
from .groebner import (Ideal, colon, hilbert_data, ideal_equal, ideal_sum,
                       radical_membership)
from .polyring import Polynomial, Ring, dot, exact_divide, NOT_DIVISIBLE
from .structmat import MinorLadder, PolyMatrix, build_structured, determinant
from .syzygy import ModuleBasis, graded_betti
from . import polar


@dataclass
class SubHankelCase:
    n: int
    ring: Ring
    matrix: PolyMatrix
    f: Polynomial
    partials: list[Polynomial]

    def gcd_power(self, i: int) -> int:
        """Exponent of x_n in the gcd of the first i+1 partials."""
        return self.n - i - 1

    def filtration_generators(self, i: int) -> list[Polynomial]:
        """First i+1 partials divided by their common x_n power."""
        if not 0 <= i <= self.n - 1:
            raise ValueError("filtration index out of range")
        e = max(self.gcd_power(i), 0)
        xn = self.ring.var(self.n)
        out = []
        for k in range(i + 1):
            g = self.partials[k]
            for _ in range(e):
                q = exact_divide(g, xn)
                if q is NOT_DIVISIBLE:
                    raise ArithmeticError(f"partial {k} not divisible by x_n^{e}")
                g = q
            out.append(g)
        return out

    def filtration_ideal(self, i: int) -> Ideal:
        return Ideal(self.ring, self.filtration_generators(i))

    def hilbert_burch(self, i: int) -> PolyMatrix:
        """The recurrent (i+1) x i linear presentation of J_i: column j
        (from the left) carries the relation tying the first i-j+1 forms."""
        if not 1 <= i <= self.n - 1:
            raise ValueError("need 1 <= i <= n-1")
        n = self.n
        ring = self.ring
        cols = []
        for jj in range(i, 0, -1):  # columns for relations j = i, i-1, ..., 1
            col = []
            for k in range(i + 1):
                if k <= jj:
                    col.append(ring.var(n - jj + k) * Fraction(2 * jj - k, jj))
                else:
                    col.append(ring.zero())
            cols.append(col)
        ents = [cols[c][r] for r in range(i + 1) for c in range(i)]
        return PolyMatrix(i + 1, i, ents, f"hilbert-burch({self.n},{i})")


def subhankel_case(n: int) -> SubHankelCase:
    if not 2 <= n <= 6:
        raise ValueError("order out of supported range 2..6")
    M = build_structured("sub-hankel", n=n)
    f = determinant(M)
    ring = M.ring
    partials = [f.diff(i) for i in range(ring.nvars)]
    return SubHankelCase(n, ring, M, f, partials)


# ---------------------------------------------------------------------------
# reports

@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def recurrence_check(n: int) -> CheckReport:
    """The two exact linear relations among the partials: x_n * f_i against
    the lower partials, and the weighted Euler-type relation for f_n."""
    case = subhankel_case(n)
    ring = case.ring
    xn = ring.var(n)
    ok = True
    fails = []
    for i in range(1, n):
        lhs = xn * case.partials[i]
        rhs = ring.zero()
        for k in range(i):
            rhs = rhs - ring.var(n - i + k) * case.partials[k] * Fraction(2 * i - k, i)
        if lhs != rhs:
            ok = False
            fails.append(f"relation at i={i}")
    lhs = xn * case.partials[n]
    rhs = ring.zero()
    for k in range(n - 1):
        rhs = rhs + ring.var(k) * case.partials[k] * (n - 1 - k)
    if lhs != rhs:
        ok = False
        fails.append("weighted relation for the last partial")
    return CheckReport(f"recurrence(n={n})", ok, {"failures": fails})


def gcd_power_check(n: int, i: int, budget: Budget | None = None,
                    config: Config | None = None) -> CheckReport:
    """x_n^{n-i-1} divides the first i+1 partials and nothing more divides
    the quotients (their ideal has codimension >= 2)."""
    case = subhankel_case(n)
    e = case.gcd_power(i)
    try:
        gens = case.filtration_generators(i)
    except ArithmeticError as exc:
        return CheckReport(f"gcd(n={n},i={i})", False, {"error": str(exc)})
    J = Ideal(case.ring, gens)
    ht = case.ring.nvars - hilbert_data(J, None, budget, config).dimension
    support_ok = all(
        p.support_vars() <= set(range(n - i, n + 1)) for p in case.partials[:i + 1])
    return CheckReport(f"gcd(n={n},i={i})", ht >= 2 and support_ok,
                       {"power": e, "quotient_codim": ht, "support_ok": support_ok})


def hilbert_burch_check(n: int, budget: Budget | None = None,
                        config: Config | None = None) -> CheckReport:
    """Each recurrent presentation column is an exact relation, the maximal
    minors regenerate the filtration ideal, and the grading is linear."""
    case = subhankel_case(n)
    details = {}
    ok = True
    for i in range(1, n):
        gens = case.filtration_generators(i)
        phi = case.hilbert_burch(i)
        col_ok = all(dot(phi.column(c), gens).is_zero() for c in range(phi.cols))
        linear_ok = all(e.is_zero() or e.degree == 1 for e in phi.entries)
        ladder = MinorLadder(phi)
        mins = [ladder.minor([r for r in range(i + 1) if r != drop], range(i))
                for drop in range(i + 1)]
        mins_ideal = Ideal(case.ring, mins)
        Ji = Ideal(case.ring, gens)
        eq = ideal_equal(mins_ideal, Ji, budget, config)
        details[f"i={i}"] = {"columns_are_relations": col_ok,
                             "linear": linear_ok, "minors_generate": eq}
        ok = ok and col_ok and linear_ok and eq
    return CheckReport(f"hilbert-burch(n={n})", ok, details)


def multiplicity_filtration_check(n: int, budget: Budget | None = None,
                                  config: Config | None = None) -> CheckReport:
    """e(R/J_i) = binomial(i+1, 2), and the colon/length chain behind the
    last filtration quotient having length binomial(n-1, 2)."""
    case = subhankel_case(n)
    details = {}
    ok = True
    for i in range(1, n):
        hd = hilbert_data(case.filtration_ideal(i), None, budget, config)
        want = comb(i + 1, 2)
        details[f"e(R/J_{i})"] = (hd.multiplicity, want)
        ok = ok and hd.multiplicity == want
    ring = case.ring
    xn = ring.var(n)
    xm = ring.var(n - 1)
    Jn1 = case.filtration_ideal(n - 1)
    lhs = ideal_sum(Ideal(ring, [xn]), Jn1)
    rhs = Ideal(ring, [xn, xm ** (n - 1)])
    eq1 = ideal_equal(lhs, rhs, budget, config)
    col = colon(Jn1, xn, budget, config)
    eq2 = ideal_equal(col, case.filtration_ideal(n - 2), budget, config) if n >= 3 else None
    details["(x_n, J_{n-1}) = (x_n, x_{n-1}^{n-1})"] = eq1
    details["J_{n-1} : x_n = J_{n-2}"] = eq2
    want = comb(n - 1, 2)
    got = hilbert_data(case.filtration_ideal(n - 2), None, budget, config).multiplicity \
        if n >= 3 else 0
    details["length of the last quotient"] = (got, want)
    ok = ok and eq1 and (eq2 is not False) and got == want
    return CheckReport(f"multiplicity-filtration(n={n})", ok, details)


def colon_claim_check(n: int, budget: Budget | None = None,
                      config: Config | None = None) -> CheckReport:
    """(J_{n-1} : last partial) equals (x_n, x_{n-1}^{n-1}); membership of
    the weighted relation gives the trivial inclusion."""
    if n > 5:
        raise ValueError("colon claim capped at n = 5")
    case = subhankel_case(n)
    ring = case.ring
    Jn1 = case.filtration_ideal(n - 1)
    target = Ideal(ring, [ring.var(n), ring.var(n - 1) ** (n - 1)])
    got = colon(Jn1, case.partials[n], budget, config)
    eq = ideal_equal(got, target, budget, config)
    incl = got.contains(ring.var(n), budget=budget, config=config)
    return CheckReport(f"colon-claim(n={n})", eq,
                       {"equal": eq, "x_n_in_colon": incl})


def resolution_and_ass_check(form: polar.PolarMapData,
                             budget: Budget | None = None) -> CheckReport:
    """Resolution shifts, Hilbert numerator, multiplicity, radical,
    certified embedded prime, and the minimal-primary-part identification,
    for the polar record of the order-n sub-Hankel determinant (n = form.n);
    the resolution starts from the record's syzygy module."""
    n = form.n
    if n > 5:
        raise ValueError("resolution check capped at n = 5")
    config = form.config
    case = subhankel_case(n)
    ring = case.ring
    J = Ideal(ring, form.partials)
    details: dict = {}
    ok = True

    bt, stages = graded_betti(J, budget, config, syzygies=form.syzygy_module(budget))
    want = {(0, 0): 1, (1, n - 1): n + 1, (2, n): n, (2, 2 * n - 2): 1, (3, 2 * n - 1): 1}
    betti_ok = dict(bt.items()) == want
    details["betti"] = {"got": sorted(bt.items()), "want": sorted(want.items())}
    ok = ok and betti_ok

    hd = hilbert_data(J, None, budget, config)
    s_t = {0: 1, n - 1: -(n + 1), n: n, 2 * n - 2: 1, 2 * n - 1: -1}
    num_ok = hd.numerator == s_t and dict(bt.alternating_sum()) == s_t
    details["numerator"] = {"got": hd.numerator, "want": s_t}
    mult_ok = hd.multiplicity == comb(n - 1, 2)
    details["multiplicity"] = (hd.multiplicity, comb(n - 1, 2))
    ok = ok and num_ok and mult_ok

    xn, xm, xk = ring.var(n), ring.var(n - 1), ring.var(n - 2)
    P = Ideal(ring, [xm, xn])
    rad_ok = (radical_membership(xm, J, budget, config)
              and radical_membership(xn, J, budget, config)
              and all(P.contains(p, budget=budget, config=config) for p in case.partials))
    details["radical"] = rad_ok
    ok = ok and rad_ok

    # embedded prime certified by an explicit colon witness
    Q = Ideal(ring, [xk, xm, xn])
    JQ = colon(J, Q, budget, config)
    witness = None
    for h in JQ.groebner_basis(None, budget, config):
        if h.degree > 2 * n:
            continue
        if J.contains(h, budget=budget, config=config):
            continue
        if ideal_equal(colon(J, h, budget, config), Q, budget, config):
            witness = h
            break
    if witness is None:
        details["embedded_prime_witness"] = (
            f"Inconclusive: search exhausted up to degree {2 * n}")
    else:
        details["embedded_prime_witness"] = str(witness)
    ok = ok and witness is not None

    # minimal component: J inside J_{n-2} with matching multiplicity
    Jmin = case.filtration_ideal(n - 2)
    inside = all(Jmin.contains(p, budget=budget, config=config) for p in case.partials)
    e_match = hilbert_data(Jmin, None, budget, config).multiplicity == hd.multiplicity
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
        rad_tail = all(radical_membership(ring.var(v), I1, budget, config)
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


def displayed_symmetric_generators(n: int, ring: Ring) -> list[list[Polynomial]]:
    """The closed-form syzygies of all n+1 partials of the order-n
    sub-Hankel determinant over `ring`: the filtration columns padded by
    zero, plus the weighted Euler-type relation."""
    out = []
    for i in range(1, n):
        col = []
        for k in range(n + 1):
            if k <= i:
                col.append(ring.var(n - i + k) * Fraction(2 * i - k, i))
            else:
                col.append(ring.zero())
        out.append(col)
    euler = []
    for k in range(n + 1):
        if k <= n - 2:
            euler.append(ring.var(k) * (n - 1 - k))
        elif k == n - 1:
            euler.append(ring.zero())
        else:
            euler.append(-ring.var(n))
    out.append(euler)
    return out


def subhankel_linear_type_check(form: polar.PolarMapData,
                                budget: Budget | None = None) -> CheckReport:
    """Linear type of the gradient ideal, and agreement of the closed-form
    1-form generators with the computed syzygies up to row operations, for
    the polar record of the order-n sub-Hankel determinant (n = form.n)."""
    n = form.n
    if n > 4:
        raise ValueError("blowup-equation check capped at n = 4")
    ring, partials = form.f.ring, form.partials
    lt = form.linear_type(budget)
    syz = form.syzygy_module(budget)
    disp = displayed_symmetric_generators(n, ring)
    disp_ok = all(dot(col, partials).is_zero() for col in disp)
    mb = ModuleBasis(syz.columns, [p.degree for p in partials],
                     budget=budget, config=form.config)
    span_ok = all(mb.contains(col) for col in disp)
    n_linear = sum(1 for i in range(len(syz.columns)) if syz.entry_degree(i) == 1)
    heavy = [i for i in range(len(syz.columns)) if syz.entry_degree(i) == n - 1]
    shape_ok = n_linear == n and len(heavy) == (1 if n >= 3 else 0)
    tailgen_ok = True
    if n >= 3:
        g = syz.columns[heavy[0]]
        yn = g[n]
        bar = Polynomial(ring, {e: c for e, c in yn.terms.items() if e[n] == 0})
        tailgen_ok = (not bar.is_zero() and len(bar.terms) == 1
                      and next(iter(bar.terms))[n - 1] == n - 1)
    passed = lt.status == "LinearType" and disp_ok and span_ok and shape_ok and tailgen_ok
    return CheckReport(f"linear-type(n={n})", passed,
                       {"status": lt.status, "displayed_are_relations": disp_ok,
                        "displayed_in_span": span_ok,
                        "minimal_syzygies": {"linear": n_linear, "heavy": len(heavy)},
                        "tail_generator_shape": tailgen_ok})
