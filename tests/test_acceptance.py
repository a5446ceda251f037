"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact checks use rational arithmetic (zero tolerance); probabilistic checks
assert their stated error bounds.  Criterion 6 runs under the long budget
(DETLAB_LONG=1).
"""

import time
from math import comb

import pytest

from detlab.config import Config
from detlab.polyring import Polynomial, Ring, dot
from detlab.groebner import (Ideal, colon, hilbert_data, ideal_equal,
                             ideal_power, ideal_product, intersect,
                             saturation, symmetric_algebra_ideal,
                             certify_groebner)
from detlab.structmat import (build_structured, build_gp_associated, determinant,
                              cofactor_matrix, minors_ideal_gens)
from detlab.syzygy import (linear_syzygies, first_syzygy_module, graded_betti,
                           fitting_condition_F1, rees_minimal_bidegree12)
from detlab.hankelplucker import integrality_check
from detlab import polar, subhankel as sh

CFG = Config(seed=20240809)


def _announce(num, label, t0):
    print(f"\n[acceptance] criterion {num} ({label}): PASS in {time.monotonic()-t0:.1f}s")


def _partials(kind, **kw):
    M = build_structured(kind, **kw)
    f = determinant(M)
    return M, f, [f.diff(i) for i in range(M.ring.nvars)]


def test_criterion_1_hankel3_suite(hankel_record):
    t0 = time.monotonic()
    H, form, P = hankel_record(3, CFG)
    partials = form.partials
    R = H.ring
    J = Ideal(R, partials)

    hdP = hilbert_data(P, config=CFG)
    assert hdP.multiplicity == 4 and R.nvars - hdP.dimension == 3

    S = Ring(("x1", "x2", "x3"))
    Jpp = Ideal(S, [S.from_string(s) for s in
                    ("x1^2", "x1*x2", "x2^2", "x2*x3", "x3^2")])
    hdA = hilbert_data(Jpp, config=CFG)
    assert hdA.dimension == 0 and hdA.multiplicity == 5

    assert partials[0].leading_monomial() == (0, 0, 0, 2, 0)   # x3^2
    assert partials[2].leading_monomial() == (0, 0, 2, 0, 0)   # x2^2
    assert partials[4].leading_monomial() == (0, 2, 0, 0, 0)   # x1^2

    rad = integrality_check(H, form, P)
    assert rad.passed and len(rad.per_minor) == 6

    m_ideal = Ideal(R, R.gens())
    assert ideal_equal(colon(J, P, config=CFG), m_ideal, config=CFG)
    assert colon(ideal_product(J, P), ideal_power(P, 2), config=CFG).is_unit()

    sat = saturation(J, m_ideal, config=CFG)
    assert ideal_equal(sat, P, config=CFG)

    hdJ = hilbert_data(J, config=CFG)
    assert hdJ.multiplicity == 4 == hdP.multiplicity

    syz, rank = linear_syzygies(partials, config=CFG)
    assert rank.rank == 3 and rank.certainty == "proved"
    x = R.gens()
    displayed = [
        [R.zero(), x[0], 2 * x[1], 3 * x[2], 4 * x[3]],
        [-2 * x[0], -x[1], R.zero(), x[3], 2 * x[4]],
        [4 * x[1], 3 * x[2], 2 * x[3], x[4], R.zero()],
    ]
    for col in displayed:
        acc = R.zero()
        for a, p in zip(col, partials):
            acc = acc + a * p
        assert acc.is_zero()

    assert fitting_condition_F1(form.partials, form.syzygy_module(), CFG.budget()).passed
    assert form.linear_type().status == "LinearType"
    assert polar.homaloidal_verdict(form).status == "NotHomaloidal"

    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _announce(1, "hankel m=3 suite", t0)


def test_criterion_2_cat32_suite():
    t0 = time.monotonic()
    C, f, partials = _partials("catalecticant", m=3, r=2)
    R = C.ring
    x = R.gens()
    from detlab.linalg import dense_det
    form = polar.polar_data(f, CFG)
    H = form.hessian
    assert dense_det(H.evaluate([0, 0, 1, 0, 0, 1, 1])) == 8

    GP = build_gp_associated(3, 2)
    I = Ideal(R, minors_ideal_gens(C, 2))
    P = Ideal(R, minors_ideal_gens(GP, 2))
    L = Ideal(R, [x[0], x[2], x[4], x[6]])
    assert ideal_equal(intersect(P, L, config=CFG), I, config=CFG)

    J = Ideal(R, partials)
    Q = Ideal(R, [x[0], x[2], x[4], x[6], x[1] * x[5] - x[3] ** 2])
    assert ideal_equal(colon(J, I, config=CFG), Q, config=CFG)

    assert hilbert_data(J, config=CFG).multiplicity == 6

    syz, rank = linear_syzygies(partials, config=CFG)
    assert rank.rank == 6
    assert rank.per_trial_bound < 2 ** -40     # stated probabilistic bound
    assert rank.certainty == "proved"          # exact confirmation

    assert polar.homaloidal_verdict(form).status == "Homaloidal"
    assert form.linear_type().status == "LinearType"

    Hf = determinant(H)
    mr = polar.factor_multiplicity(f, Hf, config=CFG)
    assert mr.value == 1 and mr.certainty == "proved" and mr.residual_degree == 4

    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _announce(2, "two-leap 3x3 suite", t0)


def test_criterion_3_generic_symmetric():
    t0 = time.monotonic()
    G, f, partials = _partials("generic", m=3)
    inv = polar.inversion_check(partials, partials)
    assert inv.is_inverse and inv.factor == f

    adj = cofactor_matrix(G)
    assert determinant(adj) == f ** 2

    th = polar.totally_hessian_check(polar.polar_data(f, CFG))
    assert th.holds and th.exponent == 3
    assert th.trials == 20 and th.bound < 1e-12

    Ssym, fs, ps = _partials("symmetric", m=3)
    ths = polar.totally_hessian_check(polar.polar_data(fs, CFG))
    assert ths.holds and ths.exponent == 2 and ths.bound < 1e-12

    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _announce(3, "generic and symmetric m=3", t0)


def test_criterion_4_parabolism_multiplicities():
    t0 = time.monotonic()
    cases = [("hankel", {"m": 3}, 1), ("hankel", {"m": 4}, 2),
             ("catalecticant", {"m": 4, "r": 3}, 5),
             ("catalecticant", {"m": 4, "r": 2}, 2)]
    for kind, kw, want in cases:
        _, f, _ = _partials(kind, **kw)
        mr = polar.factor_multiplicity(f, polar.HessianDetOnLine(polar.polar_data(f, CFG)),
                                       config=CFG)
        assert mr.value == want, (kind, kw)
        assert mr.lines_used == 3
        assert mr.per_line_bound < 2 ** -30

    # residual of the three-leap case: squared corner determinant, 20 points
    from detlab.modp import PRIME_61
    from detlab.linalg import dense_det
    from detlab.structmat import PolyMatrix
    C, f, _ = _partials("catalecticant", m=4, r=3)
    R = C.ring
    x = R.gens()
    corner = PolyMatrix(3, 3, [x[0], x[3], x[6], x[3], x[6], x[9],
                               x[6], x[9], x[12]], "corner")
    g = determinant(corner)
    H = polar.polar_data(f, CFG).hessian
    p = PRIME_61
    rng = CFG.rng("acceptance-c43-residual")
    c = None
    done = 0
    while done < 20:
        pt = [rng.randrange(0, p) for _ in range(13)]
        fv, gv = f.evaluate(pt, p), g.evaluate(pt, p)
        if not fv or not gv:
            continue
        hv = dense_det([[H[i, j].evaluate(pt, p) for j in range(13)]
                        for i in range(13)], p)
        rhs = pow(fv, 5, p) * pow(gv, 2, p) % p
        if c is None:
            c = hv * pow(rhs, -1, p) % p
            assert c != 0
        else:
            assert hv == c * rhs % p
        done += 1
    _announce(4, "parabolism multiplicities", t0)


def test_criterion_5_subhankel(subhankel_record):
    t0 = time.monotonic()
    for n in (3, 4, 5):
        form = subhankel_record(n, CFG)
        assert sh.recurrence_check(form).passed
        for i in range(n):
            assert sh.gcd_power_check(form, i).passed
        assert sh.hilbert_burch_check(form).passed
        for i in range(1, n):
            hd = hilbert_data(sh.filtration_ideal(form, i), config=CFG)
            assert hd.multiplicity == comb(i + 1, 2)
        assert sh.colon_claim_check(form).passed
        rep = sh.resolution_and_ass_check(form)
        assert rep.passed, rep.details
        J = Ideal(form.f.ring, form.partials)
        hd = hilbert_data(J, config=CFG)
        want = {0: 1, n - 1: -(n + 1), n: n, 2 * n - 2: 1, 2 * n - 1: -1}
        assert hd.numerator == want
        assert hd.multiplicity == comb(n - 1, 2)
    for n in (3, 4):
        assert sh.subhankel_linear_type_check(subhankel_record(n, CFG)).passed
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _announce(5, "sub-Hankel n=3,4,5", t0)


@pytest.mark.long
def test_criterion_6_cat4_long_suite():
    t0 = time.monotonic()
    cfg = Config(seed=CFG.seed, timeout_secs=7200, gb_step_cap=50_000_000)
    C, f, partials = _partials("catalecticant", m=4, r=3)
    R = C.ring
    syz, rank = linear_syzygies(partials, config=cfg)
    assert rank.rank == 11

    new12, _, _ = rees_minimal_bidegree12(partials, syz.columns, cfg.budget())
    sym = symmetric_algebra_ideal(partials, syz.columns)
    jd = polar.jacobian_dual_rank(partials, sym.gens + new12, config=cfg)
    assert jd.rank == 12

    v = polar.homaloidal_verdict(polar.polar_data(f, cfg), try_ideal_routes=False)
    assert v.status == "Homaloidal"

    # colon: Equal or Timeout acceptable, NotEqual fails the build
    from detlab.config import ComputationTimeout
    GP = build_gp_associated(4, 3)
    P = Ideal(R, minors_ideal_gens(GP, 3))
    I = Ideal(R, minors_ideal_gens(C, 3))
    try:
        got = colon(Ideal(R, partials), P, budget=cfg.budget(), config=cfg)
        assert ideal_equal(got, I, config=cfg), "colon completed but disagrees"
        colon_status = "Equal"
    except ComputationTimeout:
        colon_status = "Timeout"
    print(f"  [criterion 6] unmixed-part colon: {colon_status}")

    _, f42, p42 = _partials("catalecticant", m=4, r=2)
    syz42, rank42 = linear_syzygies(p42, config=cfg)
    assert rank42.rank == 6
    new42, _, _ = rees_minimal_bidegree12(p42, syz42.columns, cfg.budget())
    assert len(new42) == 2

    elapsed = time.monotonic() - t0
    assert elapsed < 7200
    _announce(6, "three-leap and two-leap 4x4 long suite", t0)


def test_criterion_7_degenerations():
    t0 = time.monotonic()
    _, fdg, _ = _partials("degenerate-generic", m=3)
    st = polar.hessian_det_status(polar.polar_data(fdg, CFG))
    assert st.kind in ("zero", "probably_zero")
    if st.kind == "probably_zero":
        assert st.trials >= 50  # across two primes

    _, fsc, psc = _partials("sc3")
    syz, rank = linear_syzygies(psc, config=CFG)
    assert len(syz.columns) == 7 and rank.rank == 5
    H = polar.polar_data(fsc, CFG).hessian
    det = determinant(H)
    assert len(det.terms) == 1
    (exp, coeff), = det.terms.items()
    assert exp == (0, 0, 0, 0, 6, 0) and coeff != 0
    # identity test agrees with the symbolic value
    from detlab.modp import PRIME_61
    rng = CFG.rng("acceptance-sc3")
    from detlab.linalg import dense_det
    for _ in range(20):
        pt = [rng.randrange(0, PRIME_61) for _ in range(6)]
        hv = dense_det([[H[i, j].evaluate(pt, PRIME_61) for j in range(6)]
                        for i in range(6)], PRIME_61)
        assert hv == det.evaluate(pt, PRIME_61)
    assert polar.homaloidal_verdict(polar.polar_data(fsc, CFG),
                                    try_ideal_routes=False).status == "Homaloidal"
    _announce(7, "degenerations", t0)


def test_criterion_8_property_suites(subhankel_record):
    t0 = time.monotonic()
    import random
    # ring axioms over Q
    R = Ring(("x0", "x1", "x2"))
    rng = random.Random(10101)
    for _ in range(1000):
        def rp():
            d = {}
            for _ in range(3):
                e = [0, 0, 0]
                for _ in range(rng.randrange(3)):
                    e[rng.randrange(3)] += 1
                d[tuple(e)] = d.get(tuple(e), 0) + rng.randrange(-5, 6)
            return Polynomial(R, d)
        a, b, c = rp(), rp(), rp()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    # Euler identity for every constructed determinant family
    for kind, kw in (("hankel", {"m": 3}), ("hankel", {"m": 4}),
                     ("catalecticant", {"m": 3, "r": 2}),
                     ("catalecticant", {"m": 4, "r": 2}),
                     ("sub-hankel", {"n": 4}), ("generic", {"m": 3}),
                     ("symmetric", {"m": 3}), ("sc3", {}),
                     ("degenerate-generic", {"m": 3})):
        M = build_structured(kind, **kw)
        f = determinant(M)
        R = M.ring
        acc = R.zero()
        for i in range(R.nvars):
            acc = acc + R.var(i) * f.diff(i)
        assert acc == f * int(f.degree)

    # GB self-certification on the core case ideals
    H3 = build_structured("hankel", m=3)
    f3 = determinant(H3)
    J3 = Ideal(H3.ring, [f3.diff(i) for i in range(5)])
    P3 = Ideal(H3.ring, minors_ideal_gens(H3, 2))
    C32 = build_structured("catalecticant", m=3, r=2)
    fc = determinant(C32)
    Jc = Ideal(C32.ring, [fc.diff(i) for i in range(7)])
    for I in (J3, P3, Jc):
        assert certify_groebner(I, config=CFG)
        for g in I.gens:
            assert I.contains(g)

    # Betti / Hilbert alternating-sum consistency
    for n in (3, 4):
        form = subhankel_record(n)
        J = Ideal(form.f.ring, form.partials)
        bt, _ = graded_betti(J, CFG.budget())
        assert bt.alternating_sum() == hilbert_data(J, config=CFG).numerator

    # syzygy dot-product exactness on every family used above
    for kind, kw in (("hankel", {"m": 3}), ("catalecticant", {"m": 3, "r": 2}),
                     ("sc3", {}), ("sub-hankel", {"n": 4})):
        M = build_structured(kind, **kw)
        f = determinant(M)
        partials = [f.diff(i) for i in range(M.ring.nvars)]
        syz = first_syzygy_module(partials, CFG.budget())
        assert all(dot(col, partials).is_zero() for col in syz.columns)
        lin, _ = linear_syzygies(partials, config=CFG)
        assert all(dot(col, partials).is_zero() for col in lin.columns)
    _announce(8, "property suites", t0)
