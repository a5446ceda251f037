"""Machine-checked registry of the worked case studies: every recorded
fact carries a stable anchor, an expected value with its provenance class
(recorded value, triviality, or value derived from an independent oracle),
and the procedure that recomputes it.  The anchor is derived, never
stored: `<scenario id>/<fact id>`.

Conjectural facts are report-only: a timeout keeps the suite green, a
proved contradiction fails it.

Each fact runs under one Budget, `ctx["budget"]`, from the scenario's
config: the deadline and the step cap bound the whole fact, and every
computation below it reads the GB cache directory from that budget.  A
spent budget raises ComputationTimeout out of the check, and
`run_scenario` records that fact as a timeout: no check reads a timeout
as a failed answer.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, replace

from .config import Config, ComputationTimeout, DEFAULT_CONFIG
from .groebner import (Ideal, colon, hilbert_data, ideal_equal, ideal_sum,
                       intersect, rees_ring, saturation)
from .polyring import Ring, dot
from .structmat import (MinorLadder, PolyMatrix, build_gp_associated, build_structured,
                        determinant, cofactor_matrix, minors_ideal_gens)
from .hankelplucker import (golberg_delta_check, integrality_check,
                            reduction_conjecture_check)
from .syzygy import fitting_condition_F1
from . import polar, subhankel as subhankel_mod

SCHEMA_VERSION = 1


@dataclass
class Fact:
    fact_id: str
    description: str
    tag: str                    # recorded | trivial | derived
    check: object               # callable(ctx) -> (expected, computed, ok)
    certainty: str = "proved"   # certainty of the check when it succeeds
    required: str = "strict"    # strict | report-only
    long: bool = False


@dataclass
class Scenario:
    scenario_id: str
    description: str
    build: object               # callable(config) -> ctx dict
    facts: list[Fact]
    budget_secs: float | None = None   # wall-clock override for heavy studies


@dataclass
class FactRecord:
    fact_id: str
    anchor: str
    tag: str
    expected: str
    computed: str
    match: str                  # yes | no | timeout
    certainty: str
    millis: int

    def to_dict(self):
        return {"anchor": self.anchor, "tag": self.tag, "expected": self.expected,
                "computed": self.computed, "match": self.match,
                "certainty": self.certainty, "millis": self.millis}


@dataclass
class FactReport:
    scenario_id: str
    config: dict
    records: list[FactRecord]
    skipped_long: list[str]
    verdict: str                # pass | contradiction | incomplete

    def to_dict(self):
        return {"schema": SCHEMA_VERSION, "config": self.config,
                "scenario": self.scenario_id,
                "facts": [r.to_dict() for r in self.records],
                "skipped_long": self.skipped_long,
                "verdict": self.verdict}

    def to_json(self, no_timings: bool = False) -> str:
        d = self.to_dict()
        if no_timings:
            for f in d["facts"]:
                f["millis"] = 0
        return json.dumps(d, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# small helpers shared by scenario builders

def _eq_fact(expected, computed):
    return str(expected), str(computed), expected == computed


def _bool_fact(expected_desc, ok):
    return expected_desc, expected_desc if ok else f"NOT({expected_desc})", bool(ok)


def _build(kind, extras=None, **shape):
    """Scenario builder: the structured matrix, its determinant's polar
    record (`form`) and the record's gradient ideal (`J`); `extras(matrix)`
    returns the scenario's own further entries."""
    def build(config):
        M = build_structured(kind, **shape)
        form = polar.polar_data(determinant(M), config)
        ctx = {"matrix": M, "ring": M.ring, "form": form, "J": form.J}
        if extras is not None:
            ctx.update(extras(M))
        return ctx
    return build


def _verdict_fact(expected, accepted=None, full=False, inverse=False):
    """Check of `polar.homaloidal_verdict` on the scenario's form.

    A status in `accepted` (by default `expected` alone) matches.  Unless
    `full`, the pipeline skips the linear-type and saturation routes;
    `inverse` offers the gradient map as its own candidate inverse.  A
    status that is not accepted while some criterion timed out is a
    timeout, not a contradiction.
    """
    accepted = accepted or (expected,)

    def check(ctx):
        form = ctx["form"]
        v = polar.homaloidal_verdict(form, ctx["budget"],
                                     candidate_inverse=form.partials if inverse else None,
                                     try_ideal_routes=full)
        if v.status not in accepted and any(e.certainty == "timeout" for e in v.evidence):
            return expected, v.status, "timeout"
        return expected, v.status, v.status in accepted
    return check


def _linear_type_fact(ctx):
    """Check that the gradient ideal is of linear type, read off the
    scenario's polar record."""
    return _eq_fact("LinearType", ctx["form"].linear_type(ctx["budget"]).status)


def _linear_rank_fact(want):
    """Check of the linear rank of the partials, read off the scenario's
    polar record."""
    def check(ctx):
        _, rank = ctx["form"].linear_syzygies(ctx["budget"])
        return _eq_fact(want, rank.rank)
    return check


def _multiplicity_fact(key, mult, codim=None):
    """Check of the multiplicity of R/ctx[key] and, given `codim`, its codimension."""
    def check(ctx):
        hd = hilbert_data(ctx[key], budget=ctx["budget"])
        if codim is None:
            return _eq_fact(mult, hd.multiplicity)
        return _eq_fact((mult, codim), (hd.multiplicity, ctx["ring"].nvars - hd.dimension))
    return check


def _radical_fact(ctx):
    """Check that the radical of the gradient ideal is the minor ideal P."""
    rep = integrality_check(ctx["matrix"], ctx["form"], ctx["P"], ctx["budget"])
    return _bool_fact("radical of gradient ideal = submaximal minors", rep.passed)


def _reduction_fact(i):
    """Check of colon filtration step i."""
    def check(ctx):
        out = reduction_conjecture_check(ctx["matrix"], ctx["form"], ctx["P"], i,
                                         ctx["budget"])
        return _eq_fact("Equal", out.status)
    return check


def _bidegree12_fact(want):
    """Check of the count of new minimal bidegree-(1,2) blowup equations."""
    def check(ctx):
        _, new = ctx["form"].blowup_equations(ctx["budget"])
        return _eq_fact(want, len(new))
    return check


def _totally_hessian_fact(exponent):
    """Check that the Hessian is a scalar times the form to `exponent`."""
    def check(ctx):
        th = polar.totally_hessian_check(ctx["form"])
        return _eq_fact((True, exponent), (th.holds, th.exponent))
    return check


def _hessian_multiplicity_fact(n, dual_dim, residual_degree):
    """Check of the form's multiplicity in its Hessian determinant,
    evaluated on lines, against `polar.expected_multiplicity(n, dual_dim)`
    and the degree of the residual factor."""
    def check(ctx):
        form = ctx["form"]
        mr = polar.factor_multiplicity(form.f, polar.HessianDetOnLine(form),
                                       config=form.config, budget=ctx["budget"])
        return _eq_fact((polar.expected_multiplicity(n, dual_dim), residual_degree),
                        (mr.value, mr.residual_degree))
    return check


# ---------------------------------------------------------------------------
# scenario: hankel-3

def _hankel3_facts():
    def artinian(ctx):
        S = Ring(("x1", "x2", "x3"))
        gens = [S.from_string(s) for s in
                ("x1^2", "x1*x2", "x2^2", "x2*x3", "x3^2")]
        hd = hilbert_data(Ideal(S, gens), budget=ctx["budget"])
        return _eq_fact((0, 5), (hd.dimension, hd.multiplicity))

    def initial_terms(ctx):
        partials = ctx["form"].partials
        got = tuple(ctx["ring"].monomial(partials[i].leading_monomial()) for i in (0, 2, 4))
        R = ctx["ring"]
        want = (R.from_string("x3^2"), R.from_string("x2^2"), R.from_string("x1^2"))
        return _eq_fact([str(w) for w in want], [str(g) for g in got])

    def colon_JP(ctx):
        got = colon(ctx["J"], ctx["P"], ctx["budget"])
        m = Ideal(ctx["ring"], ctx["ring"].gens())
        return _bool_fact("J : P = irrelevant maximal ideal",
                          ideal_equal(got, m, ctx["budget"]))

    def sat(ctx):
        got = saturation(ctx["J"], Ideal(ctx["ring"], ctx["ring"].gens()), ctx["budget"])
        return _bool_fact("saturation of J = P", ideal_equal(got, ctx["P"], ctx["budget"]))

    def linrank(ctx):
        syz, rank = ctx["form"].linear_syzygies(ctx["budget"])
        partials = ctx["form"].partials
        R = ctx["ring"]
        x = R.gens()
        disp = [
            [R.zero(), x[0], 2 * x[1], 3 * x[2], 4 * x[3]],
            [-2 * x[0], -x[1], R.zero(), x[3], 2 * x[4]],
            [4 * x[1], 3 * x[2], 2 * x[3], x[4], R.zero()],
        ]
        disp_ok = all(dot(col, partials).is_zero() for col in disp)
        got = (rank.rank, len(syz.columns), disp_ok)
        return _eq_fact((3, 3, True), got)

    def fitting(ctx):
        budget = ctx["budget"]
        form = ctx["form"]
        rep = fitting_condition_F1(form.partials, form.syzygy_module(budget), budget)
        return _bool_fact("Fitting heights meet rank(phi)-t+2 for all t", rep.passed)

    def hess_mult(ctx):
        form = ctx["form"]
        Hf = determinant(form.hessian, ctx["budget"])
        mr = polar.factor_multiplicity(form.f, Hf, config=form.config)
        want = polar.expected_multiplicity(4, 2)
        got = (mr.value, mr.residual_degree)
        return _eq_fact((want, 2), got)

    return [
        Fact("mult-P", "multiplicity and codimension of the submaximal minor quotient",
             "recorded", _multiplicity_fact("P", 4, 3)),
        Fact("artinian-count", "length of the 3-variable monomial quotient of initial terms",
             "recorded", artinian),
        Fact("initial-terms", "leading monomials of the outer and middle partials",
             "recorded", initial_terms),
        Fact("radical", "radical of the gradient ideal equals the minor ideal",
             "recorded", _radical_fact),
        Fact("colon", "gradient colon minor ideal is the irrelevant ideal",
             "recorded", colon_JP),
        Fact("reduction-1", "reduction number one for the minor ideal",
             "recorded", _reduction_fact(1)),
        Fact("saturation", "saturation of the gradient ideal is the minor ideal",
             "recorded", sat),
        Fact("mult-J", "multiplicity of the gradient quotient", "recorded",
             _multiplicity_fact("J", 4)),
        Fact("linear-rank", "linear rank three with the closed-form columns",
             "recorded", linrank),
        Fact("fitting-F1", "Fitting-height condition holds", "recorded", fitting),
        Fact("linear-type", "gradient ideal is of linear type",
             "recorded", _linear_type_fact),
        Fact("verdict", "determinant is not homaloidal",
             "recorded", _verdict_fact("NotHomaloidal", full=True)),
        Fact("hessian-mult", "form divides its Hessian determinant exactly once",
             "recorded", hess_mult),
    ]


# ---------------------------------------------------------------------------
# scenario: hankel-4

def _hankel4_facts():
    def minor_sums(ctx):
        rep = golberg_delta_check(ctx["matrix"], ctx["form"])
        return _bool_fact("partials expand into submaximal minors and brackets",
                          rep.passed)

    return [
        Fact("mult-P", "multiplicity ten, codimension three for the minor quotient",
             "recorded", _multiplicity_fact("P", 10, 3)),
        Fact("mult-J", "gradient quotient has the same multiplicity", "recorded",
             _multiplicity_fact("J", 10)),
        Fact("hessian-mult", "effective multiplicity two with a degree-6 residual",
             "recorded", _hessian_multiplicity_fact(6, 3, 6), certainty="probabilistic"),
        Fact("linear-rank", "linear rank stays three", "recorded", _linear_rank_fact(3)),
        Fact("minor-sums", "minor-sum and bracket expansions of all partials",
             "derived", minor_sums),
        Fact("radical", "radical of gradient ideal equals the minor ideal",
             "recorded", _radical_fact),
        Fact("reduction-0", "colon filtration step 0 (conjecture case)",
             "recorded", _reduction_fact(0), required="report-only", long=True),
        Fact("reduction-1", "colon filtration step 1 (conjecture case)",
             "recorded", _reduction_fact(1), required="report-only", long=True),
        Fact("reduction-2", "colon filtration step 2 (conjecture case)",
             "recorded", _reduction_fact(2), required="report-only", long=True),
        Fact("linear-type", "linear type (conjecture case, budget-capped)",
             "recorded", _linear_type_fact, required="report-only", long=True),
    ]


# ---------------------------------------------------------------------------
# scenario: cat-3-2

def _cat32_extras(C):
    # one ladder holds the brackets of the 2x5 associated matrix: P's
    # generators and the bracket facts read the same expanded minors
    brackets = MinorLadder(build_gp_associated(3, 2))
    return {"I": Ideal(C.ring, minors_ideal_gens(C, 2)), "brackets": brackets,
            "P": Ideal(C.ring, list(brackets.minors(2)))}


def _cat32_facts():
    def hess_point(ctx):
        pt = [0, 0, 1, 0, 0, 1, 1]
        from .linalg import dense_det
        got = dense_det(ctx["form"].hessian.evaluate(pt))
        return _eq_fact(8, got)

    def minor_exclusion(ctx):
        # ideal-level reading: the square-matrix minors generate the same
        # ideal as the rectangular ones minus the columns-2-4 bracket, and
        # adding that bracket back recovers the full minor ideal
        budget = ctx["budget"]
        brackets = ctx["brackets"]
        b = brackets.minor(range(2), [1, 3])
        R = ctx["ring"]
        reduced = Ideal(R, [g for g in brackets.minors(2) if g not in (b, -b)])
        eq1 = ideal_equal(ctx["I"], reduced, budget)
        eq2 = ideal_equal(ctx["P"], ideal_sum(ctx["I"], Ideal(R, [b])), budget)
        not_inside = not ctx["I"].contains(b, budget=budget)
        return _eq_fact((True, True, True), (eq1, eq2, not_inside))

    def intersection(ctx):
        R = ctx["ring"]
        x = R.gens()
        L = Ideal(R, [x[0], x[2], x[4], x[6]])
        got = intersect(ctx["P"], L, ctx["budget"])
        return _bool_fact("minor ideal = prime intersection with coordinate ideal",
                          ideal_equal(got, ctx["I"], ctx["budget"]))

    def bracket_partials(ctx):
        def D(i, j):
            return ctx["brackets"].minor(range(2), [i - 1, j - 1])

        want = [D(4, 5), -D(3, 5), 2 * D(3, 4) - D(2, 5), D(1, 5),
                2 * D(2, 3) - D(1, 4), -D(1, 3), D(1, 2)]
        ok = all(w == p for w, p in zip(want, ctx["form"].partials))
        return _bool_fact("partials match the signed bracket combinations", ok)

    def colon_JI(ctx):
        R = ctx["ring"]
        x = R.gens()
        Q = Ideal(R, [x[0], x[2], x[4], x[6], x[1] * x[5] - x[3] ** 2])
        got = colon(ctx["J"], ctx["I"], ctx["budget"])
        return _bool_fact("gradient colon minor ideal is the embedded prime",
                          ideal_equal(got, Q, ctx["budget"]))

    def mults(ctx):
        hdJ = hilbert_data(ctx["J"], budget=ctx["budget"])
        hdP = hilbert_data(ctx["P"], budget=ctx["budget"])
        got = (hdJ.multiplicity, ctx["ring"].nvars - hdJ.dimension, hdP.multiplicity)
        return _eq_fact((6, 4, 5), got)

    def linrank(ctx):
        _, rank = ctx["form"].linear_syzygies(ctx["budget"])
        return _eq_fact((6, "proved"), (rank.rank, rank.certainty))

    def hess_mult(ctx):
        form = ctx["form"]
        Hf = determinant(form.hessian, ctx["budget"])
        mr = polar.factor_multiplicity(form.f, Hf, config=form.config)
        want = polar.expected_multiplicity(6, 4)
        return _eq_fact((want, 4, "proved"),
                        (mr.value, mr.residual_degree, mr.certainty))

    return [
        Fact("hessian-point", "Hessian determinant is 8 at the marked point",
             "recorded", hess_point),
        Fact("minor-exclusion", "minor sets differ by exactly one bracket",
             "recorded", minor_exclusion),
        Fact("intersection", "radical splitting of the minor ideal",
             "recorded", intersection),
        Fact("bracket-partials", "closed bracket form of the partials",
             "recorded", bracket_partials),
        Fact("colon", "embedded prime via the gradient colon", "recorded", colon_JI),
        Fact("multiplicities", "multiplicity six, codimension four, minor quotient five",
             "recorded", mults),
        Fact("linear-rank", "maximal linear rank six", "recorded", linrank),
        Fact("linear-type", "gradient ideal is of linear type",
             "recorded", _linear_type_fact),
        Fact("verdict", "determinant is homaloidal",
             "recorded", _verdict_fact("Homaloidal", full=True)),
        Fact("hessian-mult", "multiplicity one with a quartic residual",
             "recorded", hess_mult),
    ]


# ---------------------------------------------------------------------------
# scenario: cat-4-3

def _cat43_facts():
    def partial_structure(ctx):
        ladder = MinorLadder(ctx["matrix"], ctx["budget"])
        signed = {s for mm in ladder.minors(3) for s in (mm, -mm)}
        partials = ctx["form"].partials
        hits = sum(1 for p in partials if p in signed)
        sub_cols = [(0, 1, 3), (0, 2, 3)]
        sub_minors = [ladder.minor(rows, cols) for cols in sub_cols
                      for rows in itertools.combinations(range(4), 3)]
        sub_signed = {s for mm in sub_minors for s in (mm, -mm)}
        sub_hits = sum(1 for p in partials if p in sub_signed)
        return _eq_fact((10, 8), (hits, sub_hits))

    def jdual(ctx):
        return _eq_fact(12, ctx["form"].jacobian_dual(ctx["budget"]).rank)

    def residual_square(ctx):
        # residual of the Hessian = (corner-variable 3x3 anti-diagonal
        # determinant)^2 up to a nonzero scalar, by multi-point identity testing
        x = ctx["ring"].gens()
        g = determinant(PolyMatrix(3, 3, [
            x[0], x[3], x[6], x[3], x[6], x[9], x[6], x[9], x[12]], "corner"),
            ctx["budget"])
        form = ctx["form"]
        out = polar.hessian_identity(form, [(form.f, 5), (g, 2)])
        return _bool_fact("Hessian = c * f^5 * (corner determinant)^2 at 20 points",
                          out.holds and out.constant != 0)

    def colon_JP(ctx):
        budget = ctx["budget"]
        GP = build_gp_associated(4, 3)
        P = Ideal(ctx["ring"], minors_ideal_gens(GP, 3, budget))
        I = Ideal(ctx["ring"], minors_ideal_gens(ctx["matrix"], 3, budget))
        got = colon(ctx["J"], P, budget)
        return _bool_fact("gradient colon rectangular-minor prime = square-minor prime",
                          ideal_equal(got, I, budget))

    return [
        Fact("linear-rank", "linear rank eleven", "recorded", _linear_rank_fact(11)),
        Fact("partial-structure", "ten partials are signed maximal minors, eight "
             "from the two marked column triples", "recorded", partial_structure),
        Fact("bidegree-12", "four minimal blowup equations of bidegree (1,2)",
             "recorded", _bidegree12_fact(4)),
        Fact("jacobian-dual", "Jacobian dual rank twelve",
             "recorded", jdual, certainty="probabilistic"),
        Fact("verdict", "determinant is homaloidal",
             "recorded", _verdict_fact("Homaloidal"), certainty="probabilistic"),
        Fact("hessian-mult", "effective multiplicity five with a degree-6 residual",
             "recorded", _hessian_multiplicity_fact(12, 6, 6), certainty="probabilistic"),
        Fact("residual-square", "residual factors as the squared corner determinant",
             "recorded", residual_square, certainty="probabilistic"),
        Fact("colon", "unmixed part of the gradient ideal via the colon",
             "recorded", colon_JP, long=True),
    ]


# ---------------------------------------------------------------------------
# scenario: cat-4-2

def _cat42_facts():
    return [
        Fact("linear-rank", "linear rank six, three short of maximal",
             "recorded", _linear_rank_fact(6)),
        Fact("bidegree-12", "exactly two blowup equations of bidegree (1,2)",
             "recorded", _bidegree12_fact(2)),
        Fact("hessian-mult", "effective multiplicity two",
             "recorded", _hessian_multiplicity_fact(9, 6, 12), certainty="probabilistic"),
        Fact("verdict", "suspected not homaloidal; never promoted to proved", "recorded",
             # recorded exactly as the suspicion: anything but a proved Homaloidal
             _verdict_fact("Inconclusive (suspected not homaloidal)",
                           accepted=("Inconclusive", "NotHomaloidal")),
             required="report-only"),
    ]


# ---------------------------------------------------------------------------
# scenario: generic-3 and symmetric-3

def _generic3_facts():
    def involution(ctx):
        form = ctx["form"]
        inv = polar.inversion_check(form.partials, form.partials)
        ok = inv.is_inverse and inv.factor == form.f
        return _bool_fact("composition gives inversion factor equal to the form", ok)

    def involution_symmetry(ctx):
        partials = ctx["form"].partials
        inv1 = polar.inversion_check(partials, partials)
        return _bool_fact("inverse relation is symmetric for the involution",
                          inv1.is_inverse)

    def cauchy(ctx):
        adj = cofactor_matrix(ctx["matrix"], ctx["budget"])
        got = determinant(adj, ctx["budget"])
        return _bool_fact("adjugate determinant equals the square of the form",
                          got == ctx["form"].f ** 2)

    def laplace(ctx):
        adj = cofactor_matrix(ctx["matrix"], ctx["budget"])
        M = ctx["matrix"]
        ok = True
        for i in range(3):
            for j in range(3):
                s = dot([M[i, k] for k in range(3)], [adj[k, j] for k in range(3)])
                ok = ok and s == (ctx["form"].f if i == j else ctx["ring"].zero())
        return _bool_fact("matrix times adjugate is the determinant times identity", ok)

    return [
        Fact("inversion", "cofactor composition yields factor f", "recorded", involution),
        Fact("involution-symmetry", "inversion works identically both ways",
             "recorded", involution_symmetry),
        Fact("cauchy", "adjugate determinant identity", "recorded", cauchy),
        Fact("laplace", "adjugate convention fixed by the Laplace identity",
             "trivial", laplace),
        Fact("totally-hessian", "Hessian is a scalar times the cube of the form",
             "recorded", _totally_hessian_fact(3), certainty="probabilistic"),
        Fact("linear-rank", "maximal linear rank eight", "recorded", _linear_rank_fact(8)),
        Fact("verdict", "determinant is homaloidal via the verified inverse",
             "recorded", _verdict_fact("Homaloidal", inverse=True)),
    ]


def _symmetric3_facts():
    def cofactor_structure(ctx):
        S = ctx["matrix"]
        adj = cofactor_matrix(S, ctx["budget"])
        ring = ctx["ring"]
        ok = True
        for i in range(3):
            for j in range(3):
                var = S[i, j]
                vidx = next(k for k, v in enumerate(ring.variables)
                            if ring.var(k) == var)
                partial = ctx["form"].partials[vidx]
                cof = adj[j, i]
                want = cof if i == j else 2 * cof
                ok = ok and partial == want
        return _bool_fact("diagonal partials are cofactors, off-diagonal twice "
                          "the cofactor", ok)

    return [
        Fact("cofactor-structure", "partials against adjugate entries",
             "recorded", cofactor_structure),
        Fact("totally-hessian", "Hessian is a scalar times the square of the form",
             "recorded", _totally_hessian_fact(2), certainty="probabilistic"),
        Fact("linear-rank", "maximal linear rank five", "derived", _linear_rank_fact(5)),
        Fact("verdict", "determinant is homaloidal",
             "recorded", _verdict_fact("Homaloidal")),
    ]


# ---------------------------------------------------------------------------
# scenario: subhankel-n

# (fact id, check name in `subhankel.CHECKS`, description, expected text)
_SUBHANKEL_FACTS = [
    ("recurrence", "recurrence", "closed-form linear relations among the partials",
     "both closed-form relations hold"),
    ("gcd-powers", "gcd", "gcd of leading partials is the predicted power",
     "gcd powers and variable supports"),
    ("hilbert-burch", "hilbert-burch", "recurrent linear presentations of the filtration",
     "recurrent presentations verified"),
    ("multiplicities", "multiplicity", "filtration multiplicities",
     "filtration multiplicities binomial(i+1,2)"),
    ("colon-claim", "colon", "colon of the filtration by the last partial",
     "colon of the last partial"),
    ("resolution", "resolution", "three-step resolution and associated primes",
     "resolution, numerator, radical, embedded prime, primary part"),
    ("linear-type", "linear-type", "gradient ideal is of linear type",
     "linear type with matching 1-form generators"),
]


def _subhankel_check_fact(name, expected):
    """Check that the sub-Hankel check `name` passes on the scenario's form."""
    def check(ctx):
        rep = subhankel_mod.CHECKS[name](ctx["form"], ctx["budget"])
        return _bool_fact(expected, rep.passed)
    return check


def _subhankel_facts(n):
    facts = [Fact(fid, desc, "recorded", _subhankel_check_fact(name, expected))
             for fid, name, desc, expected in _SUBHANKEL_FACTS
             if subhankel_mod.supports(name, n)]
    if subhankel_mod.supports("linear-type", n):
        facts.append(Fact("verdict", "determinant is homaloidal",
                          "recorded", _verdict_fact("Homaloidal")))
    return facts


# ---------------------------------------------------------------------------
# scenario: dg-3 and sc-3

def _dg3_facts():
    def hess_zero(ctx):
        st = ctx["form"].hessian_status(ctx["budget"])
        return ("zero or probably_zero", st.kind,
                st.kind in ("zero", "probably_zero"))

    def block_structure(ctx):
        # each determinant term: one last-column variable, one last-row
        # variable, one top-left block variable
        col_vars = {2, 5}
        row_vars = {6, 7}
        blk_vars = {0, 1, 3, 4}
        ok = True
        for e in ctx["form"].f.terms:
            sup = [i for i, v in enumerate(e) if v]
            if sum(e) != 3 or len(sup) != 3:
                ok = False
                break
            ok = ok and len(col_vars & set(sup)) == 1 \
                and len(row_vars & set(sup)) == 1 and len(blk_vars & set(sup)) == 1
        return _bool_fact("every term mixes the three blocks", ok)

    def quadric_relation(ctx):
        from .syzygy import rees_bigraded_kernel
        partials = ctx["form"].partials
        taus = rees_bigraded_kernel(partials, 0, 2, ctx["budget"])
        y = rees_ring(ctx["ring"], len(partials)).gens()
        w = y[1] * y[3] - y[0] * y[4]
        found = any(t in (w, -w) for t in taus)
        return _eq_fact(("kernel dim", 1, "contains the 2x2 relation", True),
                        ("kernel dim", len(taus), "contains the 2x2 relation", found))

    def colon_boldface(ctx):
        R, budget = ctx["ring"], ctx["budget"]
        x = R.gens()
        I2 = Ideal(R, minors_ideal_gens(ctx["matrix"], 2, budget))
        J = ctx["J"]
        blockdet = x[0] * x[4] - x[1] * x[3]
        eq1 = ideal_equal(I2, ideal_sum(J, Ideal(R, [blockdet])), budget)
        got = colon(J, I2, budget)
        bold = Ideal(R, [x[2], x[5], x[6], x[7]])
        eq2 = ideal_equal(got, bold, budget)
        return _eq_fact((True, True), (eq1, eq2))

    return [
        Fact("hessian-zero", "vanishing Hessian determinant",
             "recorded", hess_zero, certainty="probabilistic"),
        Fact("block-structure", "determinant splits across the three blocks",
             "recorded", block_structure),
        Fact("quadric-relation", "single quadratic relation among the partials",
             "derived", quadric_relation),
        Fact("linear-rank", "maximal linear rank seven", "recorded", _linear_rank_fact(7)),
        Fact("colon-boldface", "minor ideal splits off the border variables",
             "recorded", colon_boldface),
        Fact("verdict", "not homaloidal once the Hessian vanishes", "recorded",
             _verdict_fact("NotHomaloidal or Inconclusive",
                           accepted=("NotHomaloidal", "Inconclusive")),
             required="report-only"),
    ]


def _sc3_facts():
    def linrank(ctx):
        syz, rank = ctx["form"].linear_syzygies(ctx["budget"])
        return _eq_fact((7, 5), (len(syz.columns), rank.rank))

    def hess_power(ctx):
        det = determinant(ctx["form"].hessian, ctx["budget"])
        terms = list(det.terms.items())
        ok = len(terms) == 1 and terms[0][0][4] == 6 and sum(terms[0][0]) == 6
        got = str(det)
        return f"c*x4^6", got, ok

    return [
        Fact("linear-rank", "seven linear relation columns of rank five",
             "recorded", linrank),
        Fact("hessian-power", "Hessian determinant is a scalar times x4^6",
             "recorded", hess_power),
        Fact("verdict", "determinant is homaloidal",
             "recorded", _verdict_fact("Homaloidal")),
    ]


# ---------------------------------------------------------------------------
# registry

def _registry() -> dict[str, Scenario]:
    scen = {}

    def add(sid, desc, build, facts, budget_secs=None):
        scen[sid] = Scenario(sid, desc, build, facts, budget_secs)

    add("hankel-3", "3x3 anti-diagonal determinant case study",
        _build("hankel", lambda H: {"P": Ideal(H.ring, minors_ideal_gens(H, 2))}, m=3),
        _hankel3_facts())
    add("hankel-4", "4x4 anti-diagonal determinant case study",
        _build("hankel", lambda H: {"P": Ideal(H.ring, minors_ideal_gens(H, 3))}, m=4),
        _hankel4_facts(), budget_secs=7200)
    add("cat-3-2", "3x3 two-leap catalecticant case study",
        _build("catalecticant", _cat32_extras, m=3, r=2), _cat32_facts())
    add("cat-4-3", "4x4 three-leap catalecticant case study",
        _build("catalecticant", m=4, r=3), _cat43_facts(), budget_secs=7200)
    add("cat-4-2", "4x4 two-leap catalecticant case study",
        _build("catalecticant", m=4, r=2), _cat42_facts())
    add("generic-3", "generic 3x3 determinant case study",
        _build("generic", m=3), _generic3_facts())
    add("symmetric-3", "generic symmetric 3x3 determinant case study",
        _build("symmetric", m=3), _symmetric3_facts())
    for n in subhankel_mod.ORDERS[1:]:  # no scenario for the conic, n = 2
        add(f"subhankel-{n}", f"order-{n} sub-Hankel degeneration case study",
            _build("sub-hankel", n=n), _subhankel_facts(n))
    add("dg-3", "generic 3x3 with one zero entry (vanishing Hessian)",
        _build("degenerate-generic", m=3), _dg3_facts())
    add("sc-3", "two-leap 3x3 catalecticant with one zero entry",
        _build("sc3"), _sc3_facts())
    return scen


_SCENARIOS = None


def registry() -> dict[str, Scenario]:
    global _SCENARIOS
    if _SCENARIOS is None:
        _SCENARIOS = _registry()
    return _SCENARIOS


def list_scenarios() -> list[dict]:
    out = []
    for sid, sc in sorted(registry().items()):
        out.append({"id": sid, "description": sc.description,
                    "facts": [{"id": f.fact_id, "anchor": f"{sid}/{f.fact_id}", "tag": f.tag,
                               "required": f.required, "long": f.long}
                              for f in sc.facts]})
    return out


def run_scenario(scenario_id: str, config: Config | None = None,
                 long: bool = False) -> FactReport:
    config = config or DEFAULT_CONFIG
    sc = registry().get(scenario_id)
    if sc is None:
        raise KeyError(f"unknown scenario {scenario_id!r}")
    if sc.budget_secs is not None and config.timeout_secs is None:
        config = replace(config, timeout_secs=sc.budget_secs)
    ctx = sc.build(config)
    records = []
    skipped = []
    contradiction = False
    incomplete = False
    for fact in sc.facts:
        if fact.long and not long:
            skipped.append(fact.fact_id)
            continue
        t0 = time.monotonic()
        ctx["budget"] = config.budget()
        try:
            expected, computed, ok = fact.check(ctx)
            if ok == "timeout":
                match, certainty = "timeout", "timeout"
            else:
                match = "yes" if ok else "no"
                certainty = fact.certainty
        except ComputationTimeout as exc:
            expected, computed, match, certainty = "", str(exc), "timeout", "timeout"
        millis = int((time.monotonic() - t0) * 1000)
        records.append(FactRecord(fact.fact_id, f"{scenario_id}/{fact.fact_id}", fact.tag,
                                  str(expected), str(computed), match, certainty,
                                  millis))
        if match == "no":
            if fact.required == "strict" or certainty == "proved":
                contradiction = True
        if match == "timeout" and fact.required == "strict":
            incomplete = True
    verdict = "contradiction" if contradiction else (
        "incomplete" if incomplete else "pass")
    return FactReport(scenario_id, config.to_dict(), records, skipped, verdict)
