"""Sub-Hankel program: filtration, recurrences, presentations, resolution,
associated primes, linear type."""

import json
from fractions import Fraction
from math import comb

import pytest

from detlab.casebook import registry
from detlab.cli import main as cli_main
from detlab.groebner import Ideal, hilbert_data, ideal_equal
from detlab.polyring import exact_divide, NOT_DIVISIBLE
from detlab.subhankel import (CHECKS, MAX_ORDER, MIN_ORDER, CheckReport,
                              colon_claim_check, gcd_powers_check, supports,
                              displayed_symmetric_generators, filtration_generators,
                              filtration_ideal, gcd_power_check, hilbert_burch,
                              hilbert_burch_check, multiplicity_filtration_check,
                              recurrence_check, resolution_and_ass_check,
                              subhankel_linear_type_check)
from detlab import polar, subhankel


def test_case_construction_n3(subhankel_record):
    form = subhankel_record(3)
    R = form.f.ring
    assert form.n == 3
    assert form.f == R.from_string("-x0*x3^2 + 2*x1*x2*x3 - x2^3")
    # first partial is a pure square of the last variable (up to sign)
    assert form.partials[0] == R.from_string("-x3^2")
    assert gcd_power_check(form, 0).details["power"] == 2
    gens = filtration_generators(form, 0)
    assert gens[0] in (R.one(), -R.one())


def test_case_construction_n4_supports(subhankel_record):
    form = subhankel_record(4)
    # leading partials live in the last few variables only
    assert form.partials[0].support_vars() <= {3, 4}
    for i in range(4):
        for k in range(i + 1):
            assert form.partials[k].support_vars() <= set(range(4 - i, 5))


def test_case_range_validation(capsys):
    # the order comes from outside input only through the CLI, which checks it
    for n in (1, 7):
        assert cli_main(["subhankel", "--n", str(n)]) == 2
        assert "order out of supported range 2..6" in capsys.readouterr().err


def test_capped_checks_refuse_larger_orders(subhankel_record):
    assert MAX_ORDER == {"colon": 5, "resolution": 5, "linear-type": 4}
    with pytest.raises(ValueError, match="colon claim capped at n = 5"):
        colon_claim_check(subhankel_record(6))
    with pytest.raises(ValueError, match="resolution check capped at n = 5"):
        resolution_and_ass_check(subhankel_record(6))
    with pytest.raises(ValueError, match="blowup-equation check capped at n = 4"):
        subhankel_linear_type_check(subhankel_record(5))
    # the casebook registers a capped fact exactly up to its cap
    for n in (3, 4, 5, 6):
        ids = {f.fact_id for f in registry()[f"subhankel-{n}"].facts}
        assert ("colon-claim" in ids) == (n <= MAX_ORDER["colon"])
        assert ("resolution" in ids) == (n <= MAX_ORDER["resolution"])
        assert ("linear-type" in ids) == ("verdict" in ids) == (n <= MAX_ORDER["linear-type"])


def test_order_two_refused_where_closed_forms_need_three(subhankel_record):
    # at n = 2 the determinant is the smooth conic x0*x2 - x1^2: the Betti
    # shifts (2, n) and (2, 2n-2) coincide and there is no heavy syzygy
    assert MIN_ORDER == {"resolution": 3, "linear-type": 3}
    form = subhankel_record(2)
    with pytest.raises(ValueError, match="resolution check needs n >= 3"):
        resolution_and_ass_check(form)
    with pytest.raises(ValueError, match="blowup-equation check needs n >= 3"):
        subhankel_linear_type_check(form)


@pytest.mark.parametrize("check", ["resolution", "linear-type"])
def test_cli_order_two_skips_check(capsys, check):
    assert cli_main(["subhankel", "--n", "2", "--check", check, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"] == {check: {"status": "skipped (out of supported range)"}}


def test_cli_order_two_all(capsys):
    assert cli_main(["subhankel", "--n", "2", "--all", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    skipped = {k for k, v in checks.items() if "status" in v}
    assert skipped == {"resolution", "linear-type"}
    assert all(v["pass"] for k, v in checks.items() if k not in skipped)


# ---------------------------------------------------------------------------
# recurrences

def test_recurrence_instance_n3(subhankel_record):
    form = subhankel_record(3)
    x = form.f.ring.gens()
    f = form.partials
    # x3*f1 = -2*x2*f0 (single term, coefficient (2*1-0)/1)
    assert x[3] * f[1] == -2 * x[2] * f[0]
    # x3*f3 = 2*x0*f0 + x1*f1
    assert x[3] * f[3] == 2 * x[0] * f[0] + x[1] * f[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_recurrence_all_orders(subhankel_record, n):
    assert recurrence_check(subhankel_record(n)).passed


def test_recurrence_failure_labels():
    # the 3x3 Hankel determinant lives over x0..x4 like the order-4
    # sub-Hankel one, but the sub-Hankel relations tie none of its partials
    from detlab.structmat import build_structured, determinant
    form = polar.polar_data(determinant(build_structured("hankel", m=3)))
    rep = recurrence_check(form)
    assert not rep.passed
    assert rep.details["failures"] == [
        "relation at i=1", "relation at i=2", "relation at i=3",
        "weighted relation for the last partial"]


def test_recurrence_oracle_cross_check_n5(subhankel_record):
    # independent expansion check of one instance at n=5, i=2:
    # x5*f2 = -(4/2) x3 f0 - (3/2) x4 f1
    form = subhankel_record(5)
    x = form.f.ring.gens()
    lhs = x[5] * form.partials[2]
    rhs = -2 * x[3] * form.partials[0] - Fraction(3, 2) * x[4] * form.partials[1]
    assert lhs == rhs


# ---------------------------------------------------------------------------
# gcd powers

@pytest.mark.parametrize("n,i,power", [(3, 0, 2), (4, 2, 1), (4, 3, 0), (5, 1, 3)])
def test_gcd_power_values(subhankel_record, n, i, power):
    form = subhankel_record(n)
    rep = gcd_power_check(form, i)
    assert rep.passed
    assert rep.details["power"] == power
    xn = form.f.ring.var(n)
    gens = filtration_generators(form, i)
    assert [g * xn ** power for g in gens] == form.partials[:i + 1]


def test_gcd_powers_check_reports_the_first_failure(monkeypatch, subhankel_record):
    # every i runs; the first failing report is returned, else the first one
    form = subhankel_record(4)
    ran = []

    def fake(form, i, budget=None):
        ran.append(i)
        return CheckReport(f"gcd(i={i})", i not in failing)
    monkeypatch.setattr(subhankel, "gcd_power_check", fake)
    for failing, want in (({1, 2}, "gcd(i=1)"), (set(), "gcd(i=0)"), ({3}, "gcd(i=3)")):
        ran.clear()
        assert gcd_powers_check(form).name == want
        assert ran == [0, 1, 2, 3]


def test_check_table_and_orders():
    # the one table both front ends read, and the orders each check runs at
    assert list(CHECKS) == ["recurrence", "gcd", "hilbert-burch", "multiplicity",
                            "colon", "resolution", "linear-type"]
    for name in CHECKS:
        for n in range(2, 7):
            assert supports(name, n) == (MIN_ORDER.get(name, 2) <= n
                                         <= MAX_ORDER.get(name, 6))
    assert not supports("resolution", 2) and supports("resolution", 3)
    assert supports("linear-type", 4) and not supports("linear-type", 5)


def test_gcd_division_is_exact(subhankel_record):
    form = subhankel_record(4)
    xn = form.f.ring.var(4)
    # dividing one power too many must fail on the first partial
    g = filtration_generators(form, 0)[0]
    assert exact_divide(g, xn) is NOT_DIVISIBLE


# ---------------------------------------------------------------------------
# Hilbert-Burch presentations

def test_hilbert_burch_column_instance_n3(subhankel_record):
    phi = hilbert_burch(subhankel_record(3), 1)
    assert phi.rows == 2 and phi.cols == 1
    assert [str(phi[r, 0]) for r in range(2)] == ["2*x2", "x3"]


def test_hilbert_burch_display_n4(subhankel_record):
    phi = hilbert_burch(subhankel_record(4), 3)
    assert (phi.rows, phi.cols) == (4, 3)
    assert [str(phi[3, c]) for c in range(3)] == ["x4", "0", "0"]
    assert str(phi[0, 0]) == "2*x1"
    assert str(phi[0, 1]) == "2*x2"
    assert str(phi[0, 2]) == "2*x3"


def test_hilbert_burch_minors_regenerate_n4(subhankel_record):
    from detlab.structmat import MinorLadder
    form = subhankel_record(4)
    phi = hilbert_burch(form, 2)
    ladder = MinorLadder(phi)
    mins = [ladder.minor([r for r in range(3) if r != d], range(2)) for d in range(3)]
    assert ideal_equal(Ideal(form.f.ring, mins), filtration_ideal(form, 2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hilbert_burch_check_full(subhankel_record, n):
    assert hilbert_burch_check(subhankel_record(n)).passed


# ---------------------------------------------------------------------------
# multiplicities

@pytest.mark.parametrize("n,i,want", [(4, 2, 3), (5, 4, 10), (3, 1, 1)])
def test_filtration_multiplicity_values(subhankel_record, n, i, want):
    hd = hilbert_data(filtration_ideal(subhankel_record(n), i))
    assert hd.multiplicity == want == comb(i + 1, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_multiplicity_filtration_check(subhankel_record, n):
    assert multiplicity_filtration_check(subhankel_record(n)).passed


# ---------------------------------------------------------------------------
# colon claim

@pytest.mark.parametrize("n", [3, 4, 5])
def test_colon_claim(subhankel_record, n):
    rep = colon_claim_check(subhankel_record(n))
    assert rep.passed


def test_colon_claim_trivial_inclusion(subhankel_record):
    # the weighted relation puts x_n inside the colon directly
    form = subhankel_record(4)
    R = form.f.ring
    xn = R.var(4)
    Jn1 = filtration_ideal(form, 3)
    assert Ideal(R, Jn1.gens + [xn * form.partials[4]]).contains(xn * form.partials[4])


# ---------------------------------------------------------------------------
# resolution and associated primes

@pytest.mark.parametrize("n", [3, 4, 5])
def test_resolution_and_ass(subhankel_record, n):
    rep = resolution_and_ass_check(subhankel_record(n))
    assert rep.passed, rep.details


def test_resolution_details_n4(subhankel_record):
    rep = resolution_and_ass_check(subhankel_record(4))
    d = rep.details
    assert d["numerator"]["got"] == {0: 1, 3: -5, 4: 4, 6: 1, 7: -1}
    assert d["multiplicity"] == (3, 3)
    assert d["embedded_prime_witness"] is not None
    assert d["tail"]["valuation_ok"]


def test_s_polynomial_numerator_formula(subhankel_record):
    # S(t) = 1 - (n+1) t^{n-1} + n t^n + t^{2n-2} - t^{2n-1}
    for n in (3, 4, 5):
        form = subhankel_record(n)
        hd = hilbert_data(Ideal(form.f.ring, form.partials))
        want = {0: 1, n - 1: -(n + 1), n: n, 2 * n - 2: 1, 2 * n - 1: -1}
        assert hd.numerator == want
        assert hd.multiplicity == comb(n - 1, 2)


def test_ass_primes_n5(subhankel_record):
    form = subhankel_record(5)
    R = form.f.ring
    J = Ideal(R, form.partials)
    from detlab.groebner import radical_membership
    # minimal prime: the last two variables
    for v in (4, 5):
        assert radical_membership(R.var(v), J)
    assert not radical_membership(R.var(3), J)
    # embedded prime: exhibited by the resolution check
    rep = resolution_and_ass_check(form)
    assert rep.passed


# ---------------------------------------------------------------------------
# linear type and verdicts

@pytest.mark.parametrize("n", [3, 4])
def test_linear_type(subhankel_record, n):
    rep = subhankel_linear_type_check(subhankel_record(n))
    assert rep.passed, rep.details


def test_displayed_generators_are_relations_n5(subhankel_record):
    form = subhankel_record(5)
    for col in displayed_symmetric_generators(form):
        acc = form.f.ring.zero()
        for a, f in zip(col, form.partials):
            acc = acc + a * f
        assert acc.is_zero()


@pytest.mark.parametrize("n", [3, 4])
def test_homaloidal_verdict(subhankel_record, n):
    v = polar.homaloidal_verdict(subhankel_record(n), try_ideal_routes=False)
    assert v.status == "Homaloidal"
