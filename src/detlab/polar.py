"""Polar-map analytics: gradients, Hessians, multiplicity of the form in
its Hessian determinant, inversion factors, linear-type and Jacobian-dual
birationality criteria, and the assembled homaloidal verdicts.

`polar_data(f, config)` is the one record of a form's polar data and the
only place where its derived objects are built: the partials, the Hessian
matrix (the partials differentiated once more), the gradient ideal `J`,
and seven readers computed once on first use (the Hessian determinant
status, the linear syzygies with their rank, the blowup equations linear
in x, the rank of their Jacobian dual matrix, the generators of the first
syzygy module of the partials that one module basis gives, the minimal
generators picked from them, and the linear-type answer, one colon of the
ideal of the generators' 1-forms).  Every Hessian analytic takes the
record; casebook facts and `homaloidal_verdict`, the single verdict entry
point, read the same record, so no derived object is computed twice.
`hessian_identity` is the one sampler for identities H(f) = c * prod g^e,
the totally-Hessian test among them.

The record's config seeds its random draws; the readers and the verdict
run under their caller's Budget, whose config gives the cache directory.
Two bounded attempts have meters of their own under the caller's deadline
(`Budget.share`): the Hessian's symbolic route (at most 60 s) and the
verdict's linear-type attempt (400 000 steps, off the caller's meter so
that the later routes keep theirs).

Certainty discipline: an exact nonzero integer evaluation is a proof (a
nonzero value mod p certifies a nonzero integer), probabilistic identity
tests carry explicit Schwartz-Zippel bounds, and a probabilistic zero
never by itself downgrades a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .config import Budget, Config, ComputationTimeout, DEFAULT_CONFIG
from .linalg import dense_det
from .modp import (PRIME_61, PRIME_61B, factor_multiplicity_upoly, udeg,
                   ugcd, uderiv, uinterpolate)
from .groebner import Ideal, colon_poly, ideal_equal, symmetric_algebra_ideal, saturation
from .polyring import (Polynomial, Ring, evaluate_all, exact_divide, morph, restrict_all,
                       NOT_DIVISIBLE)
from .structmat import PolyMatrix, determinant
from .syzygy import (GradedSyzygyMatrix, linear_syzygies, minimal_generators,
                     poly_matrix_rank, rees_minimal_bidegree12, syzygy_generators, RankResult)


# ---------------------------------------------------------------------------
# basic polar data

@dataclass
class PolarMapData:
    """The polar data of one form.

    The readers `hessian_status`, `linear_syzygies`, `blowup_equations`,
    `jacobian_dual`, `syzygy_generators`, `syzygy_module` and `linear_type`
    compute on first use and keep the result.  The first syzygy module of
    the partials comes from one module Groebner basis: `syzygy_generators`
    holds its syzygy part, which `linear_type` reads as it is, since any
    generating set gives the same symmetric-algebra ideal, and
    `syzygy_module` picks minimal generators from it for the readers of a
    minimal presentation.  A reader runs under the budget of the caller that
    first asks; when that call times out nothing is kept (nor a "Timeout"
    linear-type answer), so the next caller computes afresh under its own
    budget.
    """
    f: Polynomial
    partials: list[Polynomial]
    hessian: PolyMatrix
    J: Ideal = field(repr=False, compare=False)  # the gradient ideal
    n: int  # ambient projective dimension
    d: int  # degree of f
    config: Config
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def _once(self, key: str, compute, keep=lambda value: True):
        if key in self._memo:
            return self._memo[key]
        value = compute()
        if keep(value):
            self._memo[key] = value
        return value

    def hessian_status(self, budget: Budget | None = None) -> HessianStatus:
        return self._once("hessian", lambda: hessian_det_status(self, budget))

    def linear_syzygies(self, budget: Budget | None = None):
        """(linear syzygy matrix of the partials, its rank)."""
        return self._once("linear", lambda: linear_syzygies(self.partials, budget,
                                                            self.config))

    def blowup_equations(self, budget: Budget | None = None):
        """(symmetric-algebra 1-forms, new minimal bidegree-(1,2)
        generators): the blowup equations linear in x, in the y,x ring."""
        def compute():
            syz, _ = self.linear_syzygies(budget)
            new12, _, _ = rees_minimal_bidegree12(self.partials, syz.columns, budget)
            return symmetric_algebra_ideal(self.partials, syz.columns).gens, new12
        return self._once("blowup", compute)

    def jacobian_dual(self, budget: Budget | None = None) -> RankResult:
        """Rank of the Jacobian dual matrix of `blowup_equations`."""
        def compute():
            sym, new12 = self.blowup_equations(budget)
            return jacobian_dual_rank(self.partials, sym + new12, self.config, budget)
        return self._once("jacobian-dual", compute)

    def syzygy_generators(self, budget: Budget | None = None) -> GradedSyzygyMatrix:
        """Generators, not minimal, of the first syzygy module of the
        partials: the syzygy part of one module Groebner basis."""
        return self._once("generators", lambda: syzygy_generators(
            [[p] for p in self.partials], [0], budget))

    def syzygy_module(self, budget: Budget | None = None) -> GradedSyzygyMatrix:
        """Minimal generators of the first syzygy module of the partials,
        picked from `syzygy_generators`."""
        return self._once("module", lambda: minimal_generators(self.syzygy_generators(budget),
                                                               budget))

    def linear_type(self, budget: Budget | None = None) -> LinearTypeResult:
        """Whether the gradient ideal is of linear type, against the
        1-forms of `syzygy_generators`: any generating set of the syzygies
        gives the same symmetric-algebra ideal, so none is minimalised."""
        def compute():
            try:
                syz = self.syzygy_generators(budget)
            except ComputationTimeout:
                return LinearTypeResult("Timeout")
            return linear_type_check(self.partials, syz.columns, budget)
        return self._once("linear-type", compute, keep=lambda lt: lt.status != "Timeout")


def polar_data(f: Polynomial, config: Config | None = None) -> PolarMapData:
    if not f.is_homogeneous() or f.degree < 2:
        raise ValueError("need a homogeneous form of degree >= 2")
    nv = f.ring.nvars
    partials = [f.diff(i) for i in range(nv)]
    hessian = PolyMatrix(nv, nv, [p.diff(j) for p in partials for j in range(nv)],
                         "hessian")
    return PolarMapData(f, partials, hessian, Ideal(f.ring, partials), nv - 1,
                        int(f.degree), config or DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# Hessian determinant status

# random points tried for a nonzero Hessian determinant before the
# symbolic route (split over two primes) and per prime after it, and the
# symbolic route's wall-clock allowance
_HESSIAN_SEARCH_TRIALS = 40
_HESSIAN_ZERO_TRIALS = 25
_HESSIAN_SYMBOLIC_SECS = 60.0


@dataclass
class HessianStatus:
    kind: str  # 'nonzero' | 'probably_zero' | 'zero'
    point: list | None = None
    prime: int | None = None
    trials: int = 0
    bound: float | None = None


def hessian_det_status(form: PolarMapData, budget: Budget | None = None) -> HessianStatus:
    """Status of the determinant of the record's Hessian: 'nonzero' with an
    explicit certificate point, 'probably_zero' with its trial count over
    two primes and their bound, or 'zero' by the symbolic determinant, which
    gets at most 60 s and ends by the budget's deadline."""
    H = form.hessian
    nv = H.cols
    rng = form.config.rng("hessian-status")
    # an integer point with det != 0 mod p certifies a nonzero integer value:
    # small points first, then, after the symbolic route, points mod p
    for span, trials in ((9, _HESSIAN_SEARCH_TRIALS // 2), (None, _HESSIAN_ZERO_TRIALS)):
        if span is None and nv <= 8:
            # candidate zero: try the symbolic route within budget
            try:
                det = determinant(H, budget=(budget or Budget()).share(_HESSIAN_SYMBOLIC_SECS))
                if det.is_zero():
                    return HessianStatus("zero")
                # symbolic nonzero but unlucky sampling: widen the search
                for _ in range(200):
                    pt = [rng.randrange(-99, 100) for _ in range(nv)]
                    if det.evaluate(pt):
                        return HessianStatus("nonzero", point=pt, prime=None, trials=1)
            except ComputationTimeout:
                pass
        for p in (PRIME_61, PRIME_61B):
            for _ in range(trials):
                pt = [rng.randrange(0, span or p) for _ in range(nv)]
                if dense_det(H.evaluate(pt, p), p):
                    return HessianStatus("nonzero", point=pt, prime=p, trials=1)
    total = 2 * _HESSIAN_ZERO_TRIALS
    deg = max(0, (form.d - 2) * nv)
    bound = (deg / PRIME_61) ** total if deg else 0.0
    return HessianStatus("probably_zero", trials=total, bound=bound)


class HessianDetOnLine:
    """Line-evaluable determinant of a record's Hessian, for matrices too
    large to expand.

    The Hessian is symmetric, so only its n(n+1)/2 entries on or above the
    diagonal are restricted to the line, from one table of coordinate
    powers (`restrict_all`).  The determinant's restriction is recovered
    exactly over GF(p) from the numeric determinants, the entries read by
    Horner's rule and mirrored, at deg+1 interpolation nodes.
    """

    def __init__(self, form: PolarMapData):
        self.matrix = form.hessian
        self.degree = (form.d - 2) * self.matrix.cols

    def restrict_to_line(self, base, direction, p: int) -> list[int]:
        """Coefficients mod p, lowest first, of the determinant on the line,
        as `Polynomial.restrict_to_line` gives them."""
        n = self.matrix.cols
        upper = [(r, c) for r in range(n) for c in range(r, n)]
        lines = restrict_all([self.matrix[r, c] for r, c in upper], base, direction, p)
        pts = []
        for t in range(self.degree + 1):
            vals = [[0] * n for _ in range(n)]
            for (r, c), coeffs in zip(upper, lines):
                v = 0
                for a in reversed(coeffs):
                    v = (v * t + a) % p
                vals[r][c] = vals[c][r] = v
            pts.append((t, dense_det(vals, p)))
        return uinterpolate(pts, p)


# ---------------------------------------------------------------------------
# multiplicity of f inside g

@dataclass
class MultiplicityResult:
    value: int | None
    certainty: str  # 'proved' | 'probabilistic' | 'inconclusive'
    lines_used: int = 0
    per_line_bound: float | None = None
    residual_degree: int | None = None

    def __bool__(self):
        return self.value is not None


# agreeing trusted lines wanted, lines drawn at most, and the largest g
# (in terms) whose multiplicity is confirmed by exact division
_MULT_LINES = 3
_MULT_LINE_CAP = 10
_MULT_EXACT_CONFIRM_TERMS = 20000


def factor_multiplicity(f: Polynomial, g, config: Config | None = None) -> MultiplicityResult:
    """Largest e with f^e dividing g, by consensus of restrictions to
    random lines over a ~2^61 prime field.

    A line is trusted only when the restriction of f keeps full degree and
    is squarefree; undercounting is then impossible and overcounting is a
    Schwartz-Zippel event bounded by deg f * deg g / p per line.  When g is
    small enough, repeated exact division confirms the answer exactly.
    """
    config = config or DEFAULT_CONFIG
    if f.is_constant():
        raise ValueError("f must be nonconstant")
    if isinstance(g, Polynomial) and g.is_zero():
        raise ValueError("g must be nonzero")
    gdeg = int(g.degree) if isinstance(g, Polynomial) else g.degree
    rng = config.rng("factor-multiplicity")
    p = PRIME_61
    nv = f.ring.nvars
    fdeg = int(f.degree)
    values = []
    attempts = 0
    while len(values) < _MULT_LINES and attempts < _MULT_LINE_CAP:
        attempts += 1
        base = [rng.randrange(0, p) for _ in range(nv)]
        direction = [rng.randrange(1, p) for _ in range(nv)]
        Fl = f.restrict_to_line(base, direction, p)
        if udeg(Fl) != fdeg:
            continue
        if udeg(ugcd(Fl, uderiv(Fl, p), p)) != 0:
            continue  # restriction not squarefree; resample
        G = g.restrict_to_line(base, direction, p)
        if udeg(G) != gdeg:
            continue
        values.append(factor_multiplicity_upoly(Fl, G, p))
    if len(values) < _MULT_LINES or len(set(values)) != 1:
        return MultiplicityResult(None, "inconclusive", lines_used=len(values))
    e = values[0]
    bound = fdeg * gdeg / p
    certainty = "probabilistic"
    residual_degree = gdeg - e * fdeg
    if isinstance(g, Polynomial) and len(g.terms) <= _MULT_EXACT_CONFIRM_TERMS:
        h = g
        e_exact = 0
        while True:
            q = exact_divide(h, f)
            if q is NOT_DIVISIBLE:
                break
            e_exact += 1
            h = q
        if e_exact != e:
            return MultiplicityResult(None, "inconclusive", lines_used=len(values))
        certainty = "proved"
        residual_degree = int(h.degree)
    return MultiplicityResult(e, certainty, lines_used=len(values),
                              per_line_bound=bound, residual_degree=residual_degree)


def expected_multiplicity(n: int, dual_dim: int) -> int:
    """n - 1 - dim of the dual variety; the dual dimension is always a
    recorded case-study fact, never computed here."""
    if not 0 <= dual_dim <= n - 1:
        raise ValueError("dual dimension out of range")
    return n - 1 - dual_dim


# ---------------------------------------------------------------------------
# Hessian identities

@dataclass
class TotallyHessianResult:
    """Outcome of a Hessian identity test; `exponent` is the power of f
    that the totally-Hessian test tried."""
    holds: bool
    exponent: int | None = None
    constant: object = None     # exact rational when determined
    trials: int = 0
    bound: float | None = None
    reason: str = ""


_IDENTITY_TRIALS = 20  # sample points of a Hessian identity test


def hessian_identity(form: PolarMapData, factors) -> TotallyHessianResult:
    """Probabilistic identity test for H(f) = c * prod g^e over the pairs
    (g, e) of `factors`.

    c is read exactly at a small integer point where no g vanishes, and the
    identity is then sampled at points mod a ~2^61 prime where no g
    vanishes.  The factors are read at each point by one `evaluate_all`
    call.  A pass carries the Schwartz-Zippel bound of its samples."""
    H = form.hessian
    gs = [g for g, _ in factors]
    nv = H.cols
    rng = form.config.rng("totally-hessian")
    c = None
    for _ in range(60):
        pt = [rng.randrange(-9, 10) for _ in range(nv)]
        vals = evaluate_all(gs, pt)
        if all(vals):
            c = Fraction(dense_det(H.evaluate(pt))) / prod(
                Fraction(v) ** e for v, (_, e) in zip(vals, factors))
            break
    if c is None:
        return TotallyHessianResult(False, reason="no point with every factor nonzero found")
    p = PRIME_61
    cp = c.numerator % p * pow(c.denominator % p, -1, p) % p
    done = 0
    while done < _IDENTITY_TRIALS:
        pt = [rng.randrange(0, p) for _ in range(nv)]
        vals = evaluate_all(gs, pt, p)
        if not all(vals):
            continue
        rhs = cp * prod(pow(v, e, p) for v, (_, e) in zip(vals, factors)) % p
        if dense_det(H.evaluate(pt, p), p) != rhs:
            return TotallyHessianResult(False, trials=done + 1,
                                        reason="identity fails at a sample point")
        done += 1
    deg = max((form.d - 2) * nv, sum(e * int(g.degree) for g, e in factors))
    return TotallyHessianResult(True, constant=c, trials=done, bound=(deg / p) ** done)


def totally_hessian_check(form: PolarMapData) -> TotallyHessianResult:
    """Identity test for H(f) = c * f^((d-2)(n+1)/d), by `hessian_identity`."""
    num = (form.d - 2) * form.hessian.cols
    if num % form.d:
        return TotallyHessianResult(False, reason="exponent not integral")
    k = num // form.d
    out = hessian_identity(form, [(form.f, k)])
    if not out.trials:
        return TotallyHessianResult(False, reason="no point with f nonzero found")
    out.exponent = k
    return out


# ---------------------------------------------------------------------------
# inversion factor

@dataclass
class InversionResult:
    is_inverse: bool
    factor: Polynomial | None = None
    witness: int | None = None  # offending coordinate when not an inverse


def inversion_check(f_list: list[Polynomial], g_list: list[Polynomial]) -> InversionResult:
    """Compose: require g_j(f) = D * x_j with one common factor D."""
    if len(f_list) != len(g_list):
        raise ValueError("coordinate count mismatch")
    ring = f_list[0].ring
    if g_list[0].ring.nvars != ring.nvars:
        raise ValueError("ambient variable counts differ")
    comps = [g.compose(f_list) for g in g_list]
    x0 = ring.var(0)
    D = exact_divide(comps[0], x0)
    if D is NOT_DIVISIBLE or D.is_zero():
        return InversionResult(False, witness=0)
    for j, comp in enumerate(comps):
        if comp != D * ring.var(j):
            return InversionResult(False, witness=j)
    return InversionResult(True, factor=D)


# ---------------------------------------------------------------------------
# linear type

@dataclass
class LinearTypeResult:
    status: str  # 'LinearType' | 'NotLinearType' | 'Timeout'
    witness: Polynomial | None = None


def linear_type_check(forms: list[Polynomial], syzygy_columns: list[list[Polynomial]],
                      budget: Budget | None = None) -> LinearTypeResult:
    """Whether the ideal I of the forms is of linear type, by one colon.

    `syzygy_columns` is any generating set of the first syzygy module of
    the forms (the columns of `syzygy_generators` or of
    `first_syzygy_module`); its 1-forms generate the symmetric-algebra
    ideal L in k[y, x] (`rees_ring`).  For a nonzero f in I, Sym(I) and
    Rees(I) agree once f is inverted, and Rees(I) is R-torsion-free, so the
    Rees ideal is L : f^inf (Vasconcelos, *Arithmetic of Blowup Algebras*,
    1994, ch. 1).  Hence I is of linear type iff L : f = L, which
    `ideal_equal` decides from the two reduced bases; otherwise the first
    generator of L : f outside L, found by normal forms, is a blowup
    equation that L misses: the witness of NotLinearType.  f is the first
    form; the forms must be nonzero and homogeneous of one degree."""
    if (len({f.degree for f in forms}) != 1 or forms[0].is_zero()
            or not all(f.is_homogeneous() for f in forms)):
        raise ValueError("need nonzero forms, homogeneous of one degree")
    try:
        sym = symmetric_algebra_ideal(forms, syzygy_columns)
        quotient = colon_poly(sym, morph(forms[0], sym.ring), budget)
        if ideal_equal(sym, quotient, budget):
            return LinearTypeResult("LinearType")
        witness = next(g for g in quotient.gens if not sym.contains(g, budget=budget))
        return LinearTypeResult("NotLinearType", witness=witness)
    except ComputationTimeout:
        return LinearTypeResult("Timeout")


def jacobian_dual_rank(forms: list[Polynomial], generators: list[Polynomial],
                       config: Config | None = None, budget: Budget | None = None) -> RankResult:
    """Rank of the x-coefficient matrix of blowup equations linear in x.

    Each generator is written sum_i x_i * c_i(y); the stacked rows c(y)
    are a matrix over the y-fraction field, whose `poly_matrix_rank` is
    metered by `budget`.
    """
    if not generators:
        return RankResult(0, "proved", None)
    ring = generators[0].ring  # the y,x ring
    k = len(forms)
    nx = forms[0].ring.nvars
    yring = Ring(ring.variables[:k])
    rows = []
    for g in generators:
        coeffs = [dict() for _ in range(nx)]
        for e, c in g.terms.items():
            ye, xe = e[:k], e[k:]
            if sum(xe) != 1:
                raise ValueError("generator not linear in the x variables")
            v = next(i for i, a in enumerate(xe) if a)
            coeffs[v][ye] = c
        rows.append([Polynomial(yring, d) for d in coeffs])
    ents = [p for row in rows for p in row]
    M = PolyMatrix(len(rows), nx, ents, "jacobian-dual")
    return poly_matrix_rank(M, config=config, budget=budget)


# ---------------------------------------------------------------------------
# verdicts

@dataclass
class Evidence:
    criterion: str
    result: str
    certainty: str  # 'proved' | 'probabilistic' | 'timeout'
    witness: object = None

    def to_dict(self) -> dict:
        w = self.witness
        if w is not None and not isinstance(w, (str, int, float, list, dict)):
            w = str(w)
        return {"criterion": self.criterion, "result": self.result,
                "certainty": self.certainty, "witness": w}


@dataclass
class Verdict:
    status: str  # 'Homaloidal' | 'NotHomaloidal' | 'Inconclusive'
    evidence: list[Evidence] = field(default_factory=list)
    seed: int = 0
    millis: int = 0

    def to_dict(self, no_timings: bool = False) -> dict:
        return {"status": self.status,
                "evidence": [e.to_dict() for e in self.evidence],
                "seed": self.seed,
                "timings": {"millis": 0 if no_timings else self.millis}}


def homaloidal_verdict(form: PolarMapData, budget: Budget | None = None,
                       candidate_inverse: list[Polynomial] | None = None,
                       try_ideal_routes: bool = True) -> Verdict:
    """Decision pipeline for the polar map of the form of a `polar_data`
    record, run under `budget`, or under one `form.config.budget()` when
    none is given (the record's config seeds the draws).

    Dominance certificate + maximal linear rank proves birationality;
    linear type + submaximal rank refutes it; a verified inverse or a full
    Jacobian-dual rank also decide; the saturation low-degree obstruction
    is the last proved route.  Anything else is Inconclusive.
    `try_ideal_routes=False` skips the linear-type and saturation routes.
    """
    import time as _time
    t0 = _time.monotonic()
    v = _verdict_pipeline(form, budget or form.config.budget(), candidate_inverse,
                          try_ideal_routes)
    v.millis = int((_time.monotonic() - t0) * 1000)
    return v


def _verdict_pipeline(form, budget, candidate_inverse, try_ideal_routes) -> Verdict:
    config = form.config
    f, partials, n, d = form.f, form.partials, form.n, form.d
    ev: list[Evidence] = []

    zero_partials = [i for i, p in enumerate(partials) if p.is_zero()]
    if zero_partials:
        # the image misses a coordinate hyperplane: never dominant
        ev.append(Evidence("degenerate-polar-image",
                           f"partials vanish at indices {zero_partials}", "proved"))
        return Verdict("NotHomaloidal", ev, config.seed)

    status = form.hessian_status(budget)
    if status.kind == "nonzero":
        ev.append(Evidence("hessian-dominance", "nonzero", "proved",
                           {"point": status.point, "prime": status.prime}))
    elif status.kind == "zero":
        ev.append(Evidence("hessian-dominance", "identically zero", "proved"))
        ev.append(Evidence("degenerate-polar-image", "polar map not dominant", "proved"))
        return Verdict("NotHomaloidal", ev, config.seed)
    else:
        ev.append(Evidence("hessian-dominance", "probably zero", "probabilistic",
                           {"trials": status.trials, "bound": status.bound}))

    syz, rank = form.linear_syzygies(budget)
    ev.append(Evidence("linear-rank", f"{rank.rank} of max {n}", rank.certainty,
                       {"columns": len(syz.columns), "certificate": rank.witness}))
    dominant = status.kind == "nonzero"
    if dominant and rank.rank == n and rank.certainty == "proved":
        ev.append(Evidence("maximal-linear-rank", "dominant + rank n", "proved"))
        return Verdict("Homaloidal", ev, config.seed)

    if candidate_inverse is not None:
        inv = inversion_check(partials, candidate_inverse)
        if inv.is_inverse:
            ev.append(Evidence("verified-inverse", f"inversion factor degree {int(inv.factor.degree)}",
                               "proved", str(inv.factor)[:120]))
            return Verdict("Homaloidal", ev, config.seed)
        ev.append(Evidence("verified-inverse", f"candidate fails at coordinate {inv.witness}",
                           "proved"))

    if try_ideal_routes:
        # keep the verdict responsive: unless the record already holds the
        # answer, the attempt runs under a bounded step budget of its own,
        # off the caller's meter, so the routes below keep theirs; it ends
        # by the caller's deadline
        lt = form.linear_type(budget.share(step_cap=min(config.gb_step_cap, 400_000)))
        ev.append(Evidence("linear-type", lt.status,
                           "proved" if lt.status != "Timeout" else "timeout"))
        if lt.status == "LinearType" and rank.certainty == "proved" and rank.rank < n:
            ev.append(Evidence("linear-type-obstruction",
                               "linear type with submaximal linear rank", "proved"))
            return Verdict("NotHomaloidal", ev, config.seed)
        if lt.status == "LinearType" and dominant and rank.rank == n:
            return Verdict("Homaloidal", ev, config.seed)

    if dominant and rank.rank < n:
        # the record's blowup equations linear in x: the syzygy 1-forms plus
        # the minimal bidegree-(1,2) equations found by exact linear algebra
        try:
            sym, new12 = form.blowup_equations(budget)
        except ComputationTimeout:
            ev.append(Evidence("jacobian-dual-setup", "timeout", "timeout"))
        else:
            ev.append(Evidence("jacobian-dual-setup",
                               f"{len(sym)} linear + {len(new12)} "
                               "quadratic blowup equations", "proved"))
            jr = form.jacobian_dual(budget)
            ev.append(Evidence("jacobian-dual-rank", f"{jr.rank} of required {n}",
                               jr.certainty))
            if jr.rank == n:
                return Verdict("Homaloidal", ev, config.seed)

    if try_ideal_routes:
        try:
            J = form.J
            m = Ideal(f.ring, f.ring.gens())
            sat = saturation(J, m, budget)
            low = None
            for g in sat.groebner_basis(budget):
                if g.degree <= d - 1 and not J.contains(g, budget=budget):
                    low = g
                    break
            if low is not None:
                ev.append(Evidence("saturation-low-degree",
                                   f"saturation gains a degree-{int(low.degree)} element "
                                   f"below the Cremona bound {d}", "proved", str(low)[:120]))
                return Verdict("NotHomaloidal", ev, config.seed)
            ev.append(Evidence("saturation-low-degree", "no obstruction", "proved"))
        except ComputationTimeout:
            ev.append(Evidence("saturation-low-degree", "timeout", "timeout"))

    return Verdict("Inconclusive", ev, config.seed)
