"""Polar-map analytics: gradients, Hessians, multiplicities, inversion,
linear type, Jacobian duals, and verdict assembly."""

import dataclasses
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab.config import Budget, ComputationTimeout, Config
from detlab.modp import PRIME_61, factor_multiplicity_upoly, uadd, udeg, umul, utrim
from detlab.polyring import Polynomial, Ring, xring
from detlab.groebner import Ideal, symmetric_algebra_ideal
from detlab.structmat import PolyMatrix, build_structured, determinant, cofactor_matrix
from detlab.syzygy import (first_syzygy_module, linear_syzygies, rees_minimal_bidegree12,
                           syzygy_generators)
from detlab import polar
from oracles import rees_ideal
from test_colon import _monomials


def det_and_partials(kind, **kw):
    M = build_structured(kind, **kw)
    f = determinant(M)
    return M, f, [f.diff(i) for i in range(M.ring.nvars)]


# ---------------------------------------------------------------------------
# gradient and Hessian basics

def test_verdict_accepts_rational_coefficients():
    # f and 2f have the same polar map, so the same verdict and evidence
    R = xring(3)
    half = polar.homaloidal_verdict(
        polar.polar_data(R.from_string("1/2*x0^3 + x1^3 + x2^3 + x0*x1*x2")))
    whole = polar.homaloidal_verdict(
        polar.polar_data(R.from_string("x0^3 + 2*x1^3 + 2*x2^3 + 2*x0*x1*x2")))
    assert half.to_dict(no_timings=True) == whole.to_dict(no_timings=True)


def test_gradient_ideal_quadric():
    R = xring(3)
    f = R.from_string("x0*x2 - x1^2")
    partials = polar.polar_data(f).partials
    assert not any(p.is_zero() for p in partials)
    from detlab.groebner import ideal_equal
    assert ideal_equal(Ideal(R, partials), Ideal(R, list(R.gens())))


def test_gradient_ideal_generic3_cofactors():
    G, f, _ = det_and_partials("generic", m=3)
    partials = polar.polar_data(f).partials
    adj = cofactor_matrix(G)
    # partial wrt entry (i,j) equals adjugate entry (j,i) (signed cofactor)
    R = G.ring
    for i in range(3):
        for j in range(3):
            v = 3 * i + j
            assert partials[v] == adj[j, i]


def test_gradient_rejects_nonhomogeneous():
    R = xring(2)
    with pytest.raises(ValueError):
        polar.polar_data(R.from_string("x0^2 + x1"))


def test_hessian_symmetric_and_euler():
    for kind, kw in (("hankel", {"m": 3}), ("catalecticant", {"m": 3, "r": 2}),
                     ("sub-hankel", {"n": 3})):
        M, f, partials = det_and_partials(kind, **kw)
        pd = polar.polar_data(f)
        ring = f.ring
        euler = ring.zero()
        for i, p in enumerate(pd.partials):
            euler = euler + ring.var(i) * p
        assert euler == f * pd.d
        H = pd.hessian
        for i in range(H.rows):
            for j in range(H.cols):
                assert H[i, j] == H[j, i]


def test_hessian_status_certificates():
    # nonzero with explicit point
    _, f, _ = det_and_partials("catalecticant", m=3, r=2)
    st = polar.hessian_det_status(polar.polar_data(f))
    assert st.kind == "nonzero" and st.point is not None
    # single-variable square: Hessian is the constant 2
    R1 = Ring(("x0",))
    st2 = polar.hessian_det_status(polar.polar_data(R1.from_string("x0^2")))
    assert st2.kind == "nonzero"
    # vanishing Hessian of the degenerate generic matrix
    _, fdg, _ = det_and_partials("degenerate-generic", m=3)
    st3 = polar.hessian_det_status(polar.polar_data(fdg))
    assert st3.kind in ("zero", "probably_zero")


def test_cat32_hessian_point_value_eight():
    from detlab.linalg import dense_det
    _, f, _ = det_and_partials("catalecticant", m=3, r=2)
    H = polar.polar_data(f).hessian
    assert dense_det(H.evaluate([0, 0, 1, 0, 0, 1, 1])) == 8


# ---------------------------------------------------------------------------
# factor multiplicity

def test_factor_multiplicity_pure_power():
    R = xring(3)
    f = R.from_string("x0*x2 - x1^2")
    res = polar.factor_multiplicity(f, f ** 3)
    assert res.value == 3 and res.certainty == "proved"
    assert res.residual_degree == 0


def test_factor_multiplicity_hankel3():
    _, f, _ = det_and_partials("hankel", m=3)
    Hf = determinant(polar.polar_data(f).hessian)
    res = polar.factor_multiplicity(f, Hf)
    assert res.value == 1 and res.certainty == "proved"
    assert res.residual_degree == 2
    # degree accounting: e*deg f + residual degree = deg H(f)
    assert res.value * 3 + res.residual_degree == int(Hf.degree)


def test_factor_multiplicity_line_protocol_hankel4():
    _, f, _ = det_and_partials("hankel", m=4)
    res = polar.factor_multiplicity(f, polar.HessianDetOnLine(polar.polar_data(f)))
    assert res.value == 2
    assert res.lines_used == 3
    # per line: deg f * deg H / p for the line, deg H / p for each of the
    # deg H // deg f candidates' checks (deg f = 4, deg H = 14)
    assert res.per_line_bound == (4 + 14 // 4) * 14 / PRIME_61
    assert res.residual_degree == 6


@pytest.mark.parametrize("kind,shape", [("catalecticant", {"m": 3, "r": 2}),
                                        ("hankel", {"m": 3}),
                                        ("catalecticant", {"m": 4, "r": 3})])
def test_hessian_on_line_matches_nodewise_evaluation(kind, shape, monkeypatch):
    # the entries on and above the diagonal, restricted to the line in one
    # call and read at each node, give the same interpolated restriction as
    # evaluating Hp at each node's point (91 of the 169 entries on cat-4-3)
    import random
    from detlab.linalg import dense_det
    from detlab.modp import PRIME_61, uinterpolate
    from detlab.polyring import restrict_all
    restricted = []

    def counting(polys, *args):
        restricted.append(len(polys))
        return restrict_all(polys, *args)
    monkeypatch.setattr(polar, "restrict_all", counting)
    _, f, _ = det_and_partials(kind, **shape)
    H = polar.HessianDetOnLine(polar.polar_data(f))
    rng, p = random.Random(2024), PRIME_61
    base = [rng.randrange(p) for _ in range(f.ring.nvars)]
    direction = [rng.randrange(1, p) for _ in range(f.ring.nvars)]
    nodes = []
    for t in range(H.degree + 1):
        point = [(b + t * d) % p for b, d in zip(base, direction)]
        nodes.append((t, dense_det(H.matrix.evaluate(point, p), p)))
    line = H.restrict_to_line(base, direction, p)
    assert line == uinterpolate(nodes, p)
    assert line  # the Hessian determinant does not vanish here
    n = H.matrix.cols
    assert restricted == [n * (n + 1) // 2]


def test_second_sampling_prime_is_the_next_prime():
    # PRIME_61B is a strong probable prime to the bases that decide primality
    # below 3.3e24, and every n strictly between the two primes has a
    # Fermat witness, so it is the least prime above PRIME_61
    from detlab.modp import PRIME_61, PRIME_61B
    n = PRIME_61B
    assert n == 2305843009213693967
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        assert x in (1, n - 1) or any(pow(x, 1 << i, n) == n - 1 for i in range(1, r))
    for m in range(PRIME_61 + 1, PRIME_61B):
        assert any(pow(a, m - 1, m) != 1 for a in (2, 3, 5))


def test_factor_multiplicity_big_catalecticants():
    _, f43, _ = det_and_partials("catalecticant", m=4, r=3)
    res = polar.factor_multiplicity(f43, polar.HessianDetOnLine(polar.polar_data(f43)))
    assert res.value == 5
    _, f42, _ = det_and_partials("catalecticant", m=4, r=2)
    res2 = polar.factor_multiplicity(f42, polar.HessianDetOnLine(polar.polar_data(f42)))
    assert res2.value == 2


def test_factor_multiplicity_input_validation():
    R = xring(2)
    with pytest.raises(ValueError):
        polar.factor_multiplicity(R.one(), R.gens()[0])
    with pytest.raises(ValueError):
        polar.factor_multiplicity(R.gens()[0], R.zero())


@pytest.mark.parametrize("kind,shape,per_line", [("catalecticant", {"m": 4, "r": 3}, 9),
                                                 ("catalecticant", {"m": 4, "r": 2}, 17),
                                                 ("hankel", {"m": 4}, 9)])
def test_factor_multiplicity_reads_each_line_once(kind, shape, per_line, monkeypatch):
    # the Hessian's upper triangle is restricted once per line, whatever the
    # number of candidates, and the highest-first search computes 9, 17 and
    # 9 determinants a line (27, 21 and 15 for the full interpolation)
    from detlab.polyring import restrict_all
    restricted = []

    def counting(polys, *args):
        restricted.append(len(polys))
        return restrict_all(polys, *args)
    monkeypatch.setattr(polar, "restrict_all", counting)
    _, f, _ = det_and_partials(kind, **shape)
    form = polar.polar_data(f)
    budget = Budget()
    res = polar.factor_multiplicity(f, polar.HessianDetOnLine(form), budget=budget)
    n = form.hessian.cols
    assert res.lines_used == 3
    assert restricted == [n * (n + 1) // 2] * 3
    assert budget.steps == 3 * per_line


# ---------------------------------------------------------------------------
# the per-line multiplicity search against the full interpolation

def _full_interpolation_multiplicity(Fl, G, gdeg):
    """The reference answer on a line: the multiplicity of Fl in the whole
    restriction G, or None when G drops degree."""
    return factor_multiplicity_upoly(Fl, G, PRIME_61) if udeg(G) == gdeg else None


@st.composite
def _small_form(draw, R):
    mons = _monomials(R.nvars, draw(st.integers(0, 3)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons)))
    return sum((R.monomial(e, c) for e, c in zip(mons, coeffs) if c), R.zero())


_LINE_POINT = st.lists(st.integers(0, PRIME_61 - 1), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.data(), _LINE_POINT, _LINE_POINT, st.integers(0, 3), st.integers(0, 2 ** 32))
def test_line_multiplicity_matches_the_full_interpolation_on_forms(data, base, direction,
                                                                   k, seed):
    R = xring(3)
    f, h = data.draw(_small_form(R)), data.draw(_small_form(R))
    g = f ** k * h
    assume(not f.is_constant() and not g.is_zero() and any(direction))
    Fl = f.restrict_to_line(base, direction, PRIME_61)
    G = g.restrict_to_line(base, direction, PRIME_61)
    assume(udeg(Fl) >= 1)
    gdeg = int(g.degree)
    got = polar.line_multiplicity(Fl, polar._values_of(G, PRIME_61), gdeg, PRIME_61,
                                  random.Random(seed))
    assert got == _full_interpolation_multiplicity(Fl, G, gdeg)


def _stand_in_restriction(kind, Fl, e, r, rng):
    """The restriction G, of degree at most e * deg Fl + r, that a stand-in
    line-evaluable g has on the line where f restricts to Fl:
    Fl^e * R with R of degree r, or of lower degree ('low'), zero, a random
    G ('coprime'), or Fl^e * R plus a multiple of prod (t - j) over the
    nodes j < deg G, which agrees with Fl^e * R at every small node and
    only a check at a random node tells apart ('fooled'; 'fooled-wrapped'
    takes the node -1 for the last of them)."""
    p = PRIME_61
    gdeg = e * udeg(Fl) + r
    if kind == "zero":
        return []
    if kind == "coprime":
        return [rng.randrange(p) for _ in range(gdeg)] + [rng.randrange(1, p)]
    R = [rng.randrange(p) for _ in range(r)] + [rng.randrange(1, p)]
    if kind == "low":  # nonzero when r > 0: a zero R is the 'zero' case
        R = utrim(R[:rng.randrange(1, r + 1)] if r else [])
    G = umul(reduce(lambda a, b: umul(a, b, p), [Fl] * e), R, p)
    if kind.startswith("fooled"):
        roots = [*range(gdeg - 1), gdeg - 1 if kind == "fooled" else p - 1]
        W = reduce(lambda a, j: umul(a, [-j % p, 1], p), roots, [rng.randrange(1, p)])
        G = uadd(G, W, p)
    return G


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["power", "low", "zero", "coprime", "fooled", "fooled-wrapped"]),
       st.lists(st.integers(0, PRIME_61 - 1), min_size=2, max_size=5),
       st.integers(1, 4), st.integers(0, 8), st.integers(0, 2 ** 32))
def test_line_multiplicity_matches_the_full_interpolation_on_stand_ins(kind, Fl, e, r, seed):
    # the stand-in's restriction is chosen against Fl; the residual degree r
    # may exceed deg Fl, so the search may start above e
    Fl = utrim(Fl)
    assume(udeg(Fl) >= 1)
    rng = random.Random(seed)
    G = _stand_in_restriction(kind, Fl, e, r, rng)
    gdeg = e * udeg(Fl) + r
    got = polar.line_multiplicity(Fl, polar._values_of(G, PRIME_61), gdeg, PRIME_61, rng)
    assert got == _full_interpolation_multiplicity(Fl, G, gdeg)


def test_factor_multiplicity_is_not_fooled_by_the_fixed_nodes():
    # on every line g restricts to Fl^2 * R plus a multiple of the product
    # of (t - j) over its fixed nodes j; no power of f divides it
    class StandIn:
        degree = 2 * 2 + 4

        def reader(self, base, direction, p, budget=None):
            Fl = f.restrict_to_line(base, direction, p)
            G = _stand_in_restriction("fooled", Fl, 2, 4, random.Random(base[0]))
            return polar._values_of(G, p)
    R = xring(3)
    f = R.from_string("x0*x2 - x1^2 + x0*x1")
    res = polar.factor_multiplicity(f, StandIn())
    assert (res.value, res.certainty, res.lines_used) == (0, "probabilistic", 3)


def test_expected_multiplicity():
    assert polar.expected_multiplicity(4, 2) == 1      # 3x3 anti-diagonal
    assert polar.expected_multiplicity(6, 4) == 1      # 3x3 two-leap
    assert polar.expected_multiplicity(12, 6) == 5     # 4x4 three-leap
    assert polar.expected_multiplicity(6, 3) == 2      # 4x4 anti-diagonal
    assert polar.expected_multiplicity(9, 6) == 2      # 4x4 two-leap
    with pytest.raises(ValueError):
        polar.expected_multiplicity(4, 4)


# ---------------------------------------------------------------------------
# totally Hessian

def test_totally_hessian_generic3():
    _, f, _ = det_and_partials("generic", m=3)
    th = polar.totally_hessian_check(polar.polar_data(f))
    assert th.holds and th.exponent == 3
    # constant determined exactly from an integer point (oracle-checked)
    assert th.constant == -2
    assert th.bound < 1e-12


def test_totally_hessian_symmetric3():
    _, f, _ = det_and_partials("symmetric", m=3)
    th = polar.totally_hessian_check(polar.polar_data(f))
    assert th.holds and th.exponent == 2
    assert th.constant == -16


def test_totally_hessian_fails_hankel3():
    _, f, _ = det_and_partials("hankel", m=3)
    th = polar.totally_hessian_check(polar.polar_data(f))
    assert not th.holds


def test_totally_hessian_quadric_exponent_zero():
    R = xring(3)
    f = R.from_string("x0*x2 - x1^2")
    th = polar.totally_hessian_check(polar.polar_data(f))
    assert th.holds and th.exponent == 0


def test_totally_hessian_structural_failure():
    # exponent (d-2)(n+1)/d not integral
    R = xring(3)
    f = R.from_string("x0^2*x1 + x1^2*x2")  # d=3, n+1=3: (1)(3)/3 = 1 integral
    f = R.from_string("x0^4 + x1^4 + x2^4")  # d=4, (2)(3)/4 = 3/2
    th = polar.totally_hessian_check(polar.polar_data(f))
    assert not th.holds and "integral" in th.reason


def _totally_hessian_input(name):
    R = xring(3)
    if name == "quadric":
        return R.from_string("x0*x2 - x1^2")
    if name == "quartic":
        return R.from_string("x0^4 + x1^4 + x2^4")
    kind, m = name.rsplit("-", 1)
    return det_and_partials(kind, m=int(m))[1]


# every field of the result on the inputs above, as the test sampled them
# before it shared its sampler with the other Hessian identities
@pytest.mark.parametrize("name,fields", [
    ("generic-3", (True, 3, -2, 20, 0.0, "")),
    ("symmetric-3", (True, 2, -16, 20, 0.0, "")),
    ("hankel-3", (False, None, None, 0, None, "exponent not integral")),
    ("quadric", (True, 0, 2, 20, 0.0, "")),
    ("quartic", (False, None, None, 0, None, "exponent not integral")),
])
def test_totally_hessian_result_fields(name, fields):
    th = polar.totally_hessian_check(polar.polar_data(_totally_hessian_input(name)))
    assert dataclasses.astuple(th) == fields


def test_totally_hessian_without_a_sample_point(monkeypatch):
    # every drawn point is the origin, where f vanishes
    class Origin:
        def randrange(self, *args):
            return 0
    monkeypatch.setattr(Config, "rng", lambda self, tag: Origin())
    th = polar.totally_hessian_check(polar.polar_data(_totally_hessian_input("generic-3")))
    assert dataclasses.astuple(th) == (False, None, None, 0, None,
                                       "no point with f nonzero found")


@pytest.mark.parametrize("name,k,constant", [("generic-3", 3, -2), ("symmetric-3", 2, -16)])
def test_hessian_identity_pure_powers(name, k, constant):
    f = _totally_hessian_input(name)
    out = polar.hessian_identity(polar.polar_data(f), [(f, k)])
    assert out.holds and out.constant == constant
    assert out.trials == 20 and out.bound < 1e-12


@pytest.mark.parametrize("exponents,holds", [((5, 2), True), ((4, 2), False),
                                             ((5, 1), False)])
def test_hessian_identity_cat43_residual(exponents, holds):
    # H(f) = c * f^5 * g^2 with g the corner-variable anti-diagonal
    # determinant; the wrong exponents are negative controls
    C, f, _ = det_and_partials("catalecticant", m=4, r=3)
    x = C.ring.gens()
    g = determinant(PolyMatrix(3, 3, [x[0], x[3], x[6], x[3], x[6], x[9],
                                      x[6], x[9], x[12]]))
    out = polar.hessian_identity(polar.polar_data(f), [(f, exponents[0]), (g, exponents[1])])
    assert out.holds == holds
    if holds:
        assert out.constant != 0 and out.trials == 20 and out.bound < 1e-12
    else:
        assert out.reason == "identity fails at a sample point"


# ---------------------------------------------------------------------------
# inversion

def test_inversion_identity_map():
    R = xring(3)
    x = list(R.gens())
    inv = polar.inversion_check(x, x)
    assert inv.is_inverse and inv.factor == R.one()


def test_inversion_generic3_involution():
    _, f, partials = det_and_partials("generic", m=3)
    inv = polar.inversion_check(partials, partials)
    assert inv.is_inverse
    assert inv.factor == f  # the (m-2)nd power of f at m=3
    assert int(inv.factor.degree) == 3


def test_inversion_generic2_adjugate():
    _, f, partials = det_and_partials("generic", m=2)
    inv = polar.inversion_check(partials, partials)
    assert inv.is_inverse and inv.factor == f.ring.one()


def test_inversion_rejects_non_inverse():
    R = xring(2)
    x0, x1 = R.gens()
    inv = polar.inversion_check([x0, x1], [x1, x1])
    assert not inv.is_inverse


# ---------------------------------------------------------------------------
# linear type

def _linear_type(forms, **kw):
    return polar.linear_type_check(forms, first_syzygy_module(forms).columns, **kw)


def test_linear_type_regular_pair():
    R = xring(2)
    x0, x1 = R.gens()
    assert _linear_type([x0, x1]).status == "LinearType"


def test_linear_type_hankel3_and_cat32():
    _, _, p3 = det_and_partials("hankel", m=3)
    assert _linear_type(p3).status == "LinearType"
    _, _, pc = det_and_partials("catalecticant", m=3, r=2)
    assert _linear_type(pc).status == "LinearType"


def test_linear_type_timeout_reported():
    # a spent budget is a timeout, never an answer
    from detlab.groebner import _MEMORY_CACHE
    _MEMORY_CACHE.clear()  # a cached basis would spend the steps elsewhere
    _, _, p4 = det_and_partials("hankel", m=4)
    cfg = Config(gb_step_cap=500)
    with pytest.raises(ComputationTimeout, match="polynomial reduction"):
        _linear_type(p4, budget=cfg.budget())


def test_linear_type_requires_nonzero_forms_of_one_degree():
    # without this check the colon would answer LinearType for (x0, x1^2)
    R = xring(2)
    x0, x1 = R.gens()
    for forms, columns in (([x0, x1 ** 2], [[x1 ** 2, -x0]]),
                           ([x0 ** 2 + x1, x1 ** 2], []),
                           ([R.zero(), R.zero()], []),
                           ([], [])):
        with pytest.raises(ValueError):
            polar.linear_type_check(forms, columns)


def test_the_veronese_conic_is_not_of_linear_type():
    # the Rees ideal of (x0^2, x0*x1, x1^2) holds the Veronese relation in
    # y-degree 2, which no syzygy 1-form gives
    R = xring(2)
    x0, x1 = R.gens()
    forms = [x0 ** 2, x0 * x1, x1 ** 2]
    columns = first_syzygy_module(forms).columns
    out = polar.linear_type_check(forms, columns)
    assert out.status == "NotLinearType"
    assert str(out.witness) == "y1^2 - y0*y2"
    assert rees_ideal(forms).contains(out.witness)
    assert not symmetric_algebra_ideal(forms, columns).contains(out.witness)


def _against_the_rees_oracle(forms, cap=20_000, syzygies=first_syzygy_module):
    """The colon test's answer on `forms`, against the syzygy columns that
    `syzygies(forms, budget)` gives, checked against the Rees ideal of the
    tag-elimination oracle: the statuses agree, and a witness is a Rees
    element outside the symmetric-algebra ideal.  None when either side
    runs out of its step cap."""
    try:
        columns = syzygies(forms, Budget(step_cap=cap)).columns
        sym = symmetric_algebra_ideal(forms, columns)
        rees = rees_ideal(forms, Budget(step_cap=cap))
        budget = Budget(step_cap=cap)
        linear = all(sym.contains(g, budget=budget) for g in rees.gens)
        out = polar.linear_type_check(forms, columns, Budget(step_cap=cap))
    except ComputationTimeout:
        return None
    assert out.status == ("LinearType" if linear else "NotLinearType")
    assert (out.witness is None) == linear
    if out.witness is not None:
        assert rees.contains(out.witness) and not sym.contains(out.witness)
    return out.status


@pytest.mark.parametrize("kind, kw", [("hankel", {"m": 3}),
                                      ("catalecticant", {"m": 3, "r": 2}),
                                      ("sub-hankel", {"n": 3}),
                                      ("sub-hankel", {"n": 4})],
                         ids=["hankel-3", "cat-3-2", "subhankel-3", "subhankel-4"])
def test_linear_type_matches_the_rees_oracle_on_the_casebook_partials(kind, kw):
    _, _, partials = det_and_partials(kind, **kw)
    assert _against_the_rees_oracle(partials, cap=200_000) == "LinearType"


def _generators(forms, budget):
    """The syzygy part of one module basis of the forms, not minimalised."""
    return syzygy_generators([[f] for f in forms], [0], budget)


@pytest.mark.parametrize("kind, kw, want", [("hankel", {"m": 3}, "LinearType"),
                                            ("catalecticant", {"m": 3, "r": 2}, "LinearType"),
                                            ("sub-hankel", {"n": 3}, "LinearType"),
                                            ("sub-hankel", {"n": 4}, "LinearType"),
                                            ("veronese", {}, "NotLinearType")],
                         ids=["hankel-3", "cat-3-2", "subhankel-3", "subhankel-4",
                              "veronese-conic"])
def test_linear_type_on_unminimised_generators_matches_the_rees_oracle(kind, kw, want):
    # the polar record decides linear type on the module basis's syzygies,
    # which on the casebook partials are more than the minimal generators
    # (cat-3-2: 28 against 17) but generate the same symmetric-algebra ideal
    if kind == "veronese":
        x0, x1 = xring(2).gens()
        forms = [x0 ** 2, x0 * x1, x1 ** 2]
    else:
        _, _, forms = det_and_partials(kind, **kw)
        assert len(_generators(forms, None)) > len(first_syzygy_module(forms))
    assert _against_the_rees_oracle(forms, cap=200_000, syzygies=_generators) == want


def test_the_linear_type_reader_never_minimalises(monkeypatch):
    # linear type reads the record's syzygy generators as they come from the
    # module basis; picking minimal generators is left to syzygy_module
    from detlab import syzygy

    def refuse(*args, **kwargs):
        raise AssertionError("the syzygies were minimalised")
    monkeypatch.setattr(syzygy, "minimal_generators", refuse)
    monkeypatch.setattr(polar, "minimal_generators", refuse, raising=False)
    _, f, _ = det_and_partials("catalecticant", m=3, r=2)
    assert polar.polar_data(f).linear_type(Budget()).status == "LinearType"


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_linear_type_matches_the_rees_oracle_on_small_forms(data):
    # monomial and Veronese-type sets are often not of linear type; forms
    # that leave a variable out catch a colon by an element outside I
    n = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, n))
    pool = [e + (0,) * (n - m) for e in _monomials(m, data.draw(st.integers(1, 3)))]
    R = xring(n)
    kind = data.draw(st.sampled_from(["veronese", "monomials", "general"]))
    if kind == "veronese":
        terms = [{e: 1} for e in pool]
    elif kind == "monomials":
        terms = [{e: 1} for e in data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                                    max_size=4, unique=True))]
    else:
        coeffs = st.integers(-3, 3).filter(bool)
        terms = data.draw(st.lists(st.dictionaries(st.sampled_from(pool), coeffs,
                                                   min_size=1, max_size=3),
                                   min_size=1, max_size=4))
    _against_the_rees_oracle([Polynomial(R, t) for t in terms])


# ---------------------------------------------------------------------------
# Jacobian dual

def test_jacobian_dual_single_relation():
    R = xring(2)
    x0, x1 = R.gens()
    from detlab.groebner import rees_ring
    T = rees_ring(R, 2)
    gen = T.var(0) * T.var(3) - T.var(1) * T.var(2)  # y0*x1 - y1*x0
    res = polar.jacobian_dual_rank([x0, x1], [gen])
    assert res.rank == 1


def test_jacobian_dual_cat43_rank_twelve():
    _, _, partials = det_and_partials("catalecticant", m=4, r=3)
    syz, _ = linear_syzygies(partials)
    sym = symmetric_algebra_ideal(partials, syz.columns)
    new12, _, _ = rees_minimal_bidegree12(partials, syz.columns)
    res = polar.jacobian_dual_rank(partials, sym.gens + new12)
    assert res.rank == 12


def test_record_reads_its_jacobian_dual_and_holds_its_gradient_ideal():
    _, f, partials = det_and_partials("catalecticant", m=4, r=3)
    form = polar.polar_data(f)
    jd = form.jacobian_dual()
    assert jd.rank == 12 and form.jacobian_dual() is jd
    assert form.J.gens == partials and form.J.ring == f.ring
    assert "J=" not in repr(form)


def test_jacobian_dual_cat32_linear_only():
    _, _, partials = det_and_partials("catalecticant", m=3, r=2)
    syz, _ = linear_syzygies(partials)
    sym = symmetric_algebra_ideal(partials, syz.columns)
    res = polar.jacobian_dual_rank(partials, sym.gens)
    assert res.rank == 6


def test_jacobian_dual_rejects_nonlinear_x():
    R = xring(2)
    x0, x1 = R.gens()
    from detlab.groebner import rees_ring
    T = rees_ring(R, 2)
    bad = T.var(0) * T.var(2) ** 2
    with pytest.raises(ValueError):
        polar.jacobian_dual_rank([x0, x1], [bad])


# ---------------------------------------------------------------------------
# verdicts

def test_verdict_hankel3_not_homaloidal():
    _, f, _ = det_and_partials("hankel", m=3)
    v = polar.homaloidal_verdict(polar.polar_data(f))
    assert v.status == "NotHomaloidal"
    crits = {e.criterion: e for e in v.evidence}
    assert "linear-type-obstruction" in crits
    assert all(e.certainty == "proved" for e in v.evidence)


def test_verdict_cat32_homaloidal_with_certificates():
    _, f, _ = det_and_partials("catalecticant", m=3, r=2)
    v = polar.homaloidal_verdict(polar.polar_data(f))
    assert v.status == "Homaloidal"
    crits = {e.criterion: e for e in v.evidence}
    dom = crits["hessian-dominance"]
    assert dom.certainty == "proved" and dom.witness["point"] is not None
    assert crits["linear-rank"].certainty == "proved"


def test_verdict_sc3_homaloidal():
    _, f, _ = det_and_partials("sc3")
    v = polar.homaloidal_verdict(polar.polar_data(f), try_ideal_routes=False)
    assert v.status == "Homaloidal"


def test_verdict_generic3_via_maximal_linear_rank():
    # the 9 x 16 linear syzygy matrix of the generic-3 partials has rank at
    # most 8, since the partials lie in its left kernel; one evaluation of
    # rank 8 proves it, and the maximal linear rank decides before the
    # candidate inverse is tried
    _, f, partials = det_and_partials("generic", m=3)
    v = polar.homaloidal_verdict(polar.polar_data(f), candidate_inverse=partials,
                                 try_ideal_routes=False)
    assert v.status == "Homaloidal"
    crits = {e.criterion: e for e in v.evidence}
    assert crits["linear-rank"].certainty == "proved"
    assert crits["linear-rank"].result == "8 of max 8"
    assert "maximal-linear-rank" in crits and "verified-inverse" not in crits


def test_verdict_generic3_via_inverse():
    # a generic-3 record whose linear rank is not proved maximal (only
    # probabilistic, as a matrix beyond the symbolic echelon's size cap
    # gets without a proved bound): the verified inverse decides
    from detlab.syzygy import RankResult
    _, f, partials = det_and_partials("generic", m=3)
    form = polar.polar_data(f)
    syz, rank = form.linear_syzygies()
    form._memo["linear"] = (syz, RankResult(rank.rank, "probabilistic", rank.witness))
    v = polar.homaloidal_verdict(form, candidate_inverse=partials, try_ideal_routes=False)
    assert v.status == "Homaloidal"
    crits = {e.criterion: e for e in v.evidence}
    assert "maximal-linear-rank" not in crits
    assert crits["verified-inverse"].certainty == "proved"


def test_verdict_json_shape():
    _, f, _ = det_and_partials("sc3")
    v = polar.homaloidal_verdict(polar.polar_data(f), try_ideal_routes=False)
    d = v.to_dict()
    assert set(d) == {"status", "evidence", "seed", "timings"}
    for e in d["evidence"]:
        assert set(e) == {"criterion", "result", "certainty", "witness"}
    assert v.to_dict(no_timings=True)["timings"] == {"millis": 0}


def test_proved_homaloidal_carries_certificates():
    from detlab.structmat import build_structured, determinant
    _, f, _ = det_and_partials("catalecticant", m=3, r=2)
    v = polar.homaloidal_verdict(polar.polar_data(f), try_ideal_routes=False)
    assert v.status == "Homaloidal"
    crits = {e.criterion: e for e in v.evidence}
    assert crits["hessian-dominance"].witness["point"] is not None
    cert = crits["linear-rank"].witness["certificate"]
    assert cert is not None and cert["minor"] is not None


def test_verdict_saturation_obstruction_route():
    # time the linear-type route out by its own step cap, the config's: the
    # saturation route, run under an unbounded budget, must still refute
    from detlab.config import Budget
    from detlab.groebner import _MEMORY_CACHE
    _MEMORY_CACHE.clear()  # a cached basis would let linear type finish
    _, f, _ = det_and_partials("hankel", m=3)
    cfg = Config(gb_step_cap=1)
    v = polar.homaloidal_verdict(polar.polar_data(f, cfg), Budget(None, None, cfg))
    crits = {e.criterion: e for e in v.evidence}
    assert crits["linear-type"].certainty == "timeout"
    assert v.status == "NotHomaloidal"
    assert crits["saturation-low-degree"].certainty == "proved"


def test_verdict_linear_type_attempt_keeps_the_deadline():
    # the in-pipeline linear-type attempt runs under the config's deadline,
    # and so, without a budget given, does the saturation route
    from detlab.groebner import _MEMORY_CACHE
    _MEMORY_CACHE.clear()  # a cached basis would take no steps
    _, f, _ = det_and_partials("hankel", m=3)
    v = polar.homaloidal_verdict(polar.polar_data(f, Config(timeout_secs=1e-6)))
    crits = {e.criterion: e for e in v.evidence}
    assert crits["linear-type"].result == "Timeout"
    assert crits["linear-type"].certainty == "timeout"
    assert crits["saturation-low-degree"].certainty == "timeout"
    assert v.status == "Inconclusive"


def _endless(*args, budget=None, **kwargs):
    """A computation that never finishes: it ticks its budget until that stops it."""
    while True:
        budget.tick(1, "stand-in")


def test_polar_verdict_ends_near_its_timeout(monkeypatch, capsys):
    # dg-3's Hessian determinant vanishes, so the verdict tries the symbolic
    # route, here one that never ends: it stops at the command's deadline,
    # not after the route's own 60 s, and the sampled status stands
    import json
    import time
    from detlab.cli import main as cli_main
    monkeypatch.setattr(polar, "determinant", _endless)
    start = time.monotonic()
    code = cli_main(["polar", "--kind", "degenerate-generic", "--m", "3", "--verdict",
                     "--timeout-secs", "0.5", "--json"])
    assert time.monotonic() - start < 5
    out = json.loads(capsys.readouterr().out)
    if code == 0:
        assert out["evidence"][0]["result"] == "probably zero"
    else:
        assert code == 3 and out["status"] == "timeout"


def test_verdict_linear_type_attempt_takes_the_callers_deadline(monkeypatch):
    # the attempt's meter: the caller's deadline and config, a step cap of
    # its own, and no step taken from the caller
    _, f, _ = det_and_partials("hankel", m=3)
    seen = []

    def attempt(self, budget=None):
        seen.append(budget)
        raise ComputationTimeout("stand-in")
    monkeypatch.setattr(polar.PolarMapData, "linear_type", attempt)
    cfg = Config(timeout_secs=30)
    caller = cfg.budget()
    polar.homaloidal_verdict(polar.polar_data(f, cfg), caller)
    (budget,) = seen
    assert budget is not caller and budget.config is cfg
    assert budget.deadline == caller.deadline and budget.step_cap == 400_000
    assert budget.steps == 0 and caller.steps > 0


def test_polar_record_keeps_no_timed_out_reader():
    from detlab.config import Budget, ComputationTimeout
    _, f, partials = det_and_partials("catalecticant", m=4, r=2)
    form = polar.polar_data(f)
    with pytest.raises(ComputationTimeout):
        form.blowup_equations(Budget(step_cap=10))
    sym, new12 = form.blowup_equations()
    assert len(new12) == 2
    assert form.blowup_equations() == (sym, new12)
    syz, rank = form.linear_syzygies()
    assert form.linear_syzygies() == (syz, rank) and rank.rank == 6
    assert len(sym) == len(symmetric_algebra_ideal(partials, syz.columns).gens)


def test_polar_record_keeps_no_timed_out_module_or_linear_type():
    from detlab.config import Budget, ComputationTimeout
    _, f, partials = det_and_partials("hankel", m=3)
    form = polar.polar_data(f)
    spent = Budget(step_cap=1)
    with pytest.raises(ComputationTimeout):
        form.syzygy_module(spent)
    with pytest.raises(ComputationTimeout, match="module Buchberger"):
        form.linear_type(spent)
    # nothing was kept: fresh budgets compute the real answers, which stay
    syz = form.syzygy_module(Budget())
    assert syz.columns == first_syzygy_module(partials).columns
    assert form.linear_type(Budget()).status == "LinearType"
    assert form.syzygy_module(spent) is syz
    assert form.linear_type(spent).status == "LinearType"


def test_verdict_rejects_bad_input_and_zero_partials():
    R = xring(3)
    with pytest.raises(ValueError):
        polar.homaloidal_verdict(polar.polar_data(R.from_string("x0^2 + x1")))
    # a form missing one ambient variable: never dominant
    f = R.from_string("x0^2*x1 + x1^3")
    v = polar.homaloidal_verdict(polar.polar_data(f))
    assert v.status == "NotHomaloidal"
    assert v.evidence[0].criterion == "degenerate-polar-image"
