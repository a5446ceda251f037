"""Sub-Hankel program: filtration, recurrences, presentations, resolution,
associated primes, linear type."""

from fractions import Fraction
from math import comb

import pytest

from detlab.groebner import Ideal, hilbert_data, ideal_equal
from detlab.polyring import exact_divide, NOT_DIVISIBLE
from detlab.subhankel import (colon_claim_check, displayed_symmetric_generators,
                              gcd_power_check, hilbert_burch_check,
                              multiplicity_filtration_check, recurrence_check,
                              resolution_and_ass_check, subhankel_case,
                              subhankel_linear_type_check)
from detlab import polar


def record(n):
    """The polar record of the order-n sub-Hankel determinant."""
    return polar.polar_data(subhankel_case(n).f)


def test_case_construction_n3():
    case = subhankel_case(3)
    R = case.ring
    assert case.f == R.from_string("-x0*x3^2 + 2*x1*x2*x3 - x2^3")
    # first partial is a pure square of the last variable (up to sign)
    assert case.partials[0] == R.from_string("-x3^2")
    assert case.gcd_power(0) == 2
    gens = case.filtration_generators(0)
    assert gens[0] in (R.one(), -R.one())


def test_case_construction_n4_supports():
    case = subhankel_case(4)
    # leading partials live in the last few variables only
    assert case.partials[0].support_vars() <= {3, 4}
    for i in range(4):
        for k in range(i + 1):
            assert case.partials[k].support_vars() <= set(range(4 - i, 5))


def test_case_range_validation():
    with pytest.raises(ValueError):
        subhankel_case(1)
    with pytest.raises(ValueError):
        subhankel_case(7)


# ---------------------------------------------------------------------------
# recurrences

def test_recurrence_instance_n3():
    case = subhankel_case(3)
    R = case.ring
    x = R.gens()
    # x3*f1 = -2*x2*f0 (single term, coefficient (2*1-0)/1)
    assert x[3] * case.partials[1] == -2 * x[2] * case.partials[0]
    # x3*f3 = 2*x0*f0 + x1*f1
    assert x[3] * case.partials[3] == 2 * x[0] * case.partials[0] + x[1] * case.partials[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_recurrence_all_orders(n):
    assert recurrence_check(n).passed


def test_recurrence_oracle_cross_check_n5():
    # independent expansion check of one instance at n=5, i=2:
    # x5*f2 = -(4/2) x3 f0 - (3/2) x4 f1
    case = subhankel_case(5)
    R = case.ring
    x = R.gens()
    lhs = x[5] * case.partials[2]
    rhs = -2 * x[3] * case.partials[0] - Fraction(3, 2) * x[4] * case.partials[1]
    assert lhs == rhs


# ---------------------------------------------------------------------------
# gcd powers

@pytest.mark.parametrize("n,i,power", [(3, 0, 2), (4, 2, 1), (4, 3, 0), (5, 1, 3)])
def test_gcd_power_values(n, i, power):
    case = subhankel_case(n)
    assert case.gcd_power(i) == power
    rep = gcd_power_check(n, i)
    assert rep.passed
    assert rep.details["power"] == power


def test_gcd_division_is_exact():
    case = subhankel_case(4)
    xn = case.ring.var(4)
    # dividing one power too many must fail on the first partial
    g = case.filtration_generators(0)[0]
    assert exact_divide(g, xn) is NOT_DIVISIBLE


# ---------------------------------------------------------------------------
# Hilbert-Burch presentations

def test_hilbert_burch_column_instance_n3():
    case = subhankel_case(3)
    phi = case.hilbert_burch(1)
    assert phi.rows == 2 and phi.cols == 1
    assert [str(phi[r, 0]) for r in range(2)] == ["2*x2", "x3"]


def test_hilbert_burch_display_n4():
    case = subhankel_case(4)
    phi = case.hilbert_burch(3)
    assert (phi.rows, phi.cols) == (4, 3)
    assert [str(phi[3, c]) for c in range(3)] == ["x4", "0", "0"]
    assert str(phi[0, 0]) == "2*x1"
    assert str(phi[0, 1]) == "2*x2"
    assert str(phi[0, 2]) == "2*x3"


def test_hilbert_burch_minors_regenerate_n4():
    from detlab.structmat import minor
    case = subhankel_case(4)
    phi = case.hilbert_burch(2)
    mins = [minor(phi, [r for r in range(3) if r != d], range(2)) for d in range(3)]
    assert ideal_equal(Ideal(case.ring, mins), case.filtration_ideal(2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hilbert_burch_check_full(n):
    assert hilbert_burch_check(n).passed


# ---------------------------------------------------------------------------
# multiplicities

@pytest.mark.parametrize("n,i,want", [(4, 2, 3), (5, 4, 10), (3, 1, 1)])
def test_filtration_multiplicity_values(n, i, want):
    case = subhankel_case(n)
    hd = hilbert_data(case.filtration_ideal(i))
    assert hd.multiplicity == want == comb(i + 1, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_multiplicity_filtration_check(n):
    assert multiplicity_filtration_check(n).passed


# ---------------------------------------------------------------------------
# colon claim

@pytest.mark.parametrize("n", [3, 4, 5])
def test_colon_claim(n):
    rep = colon_claim_check(n)
    assert rep.passed


def test_colon_claim_trivial_inclusion():
    # the weighted relation puts x_n inside the colon directly
    case = subhankel_case(4)
    R = case.ring
    xn = R.var(4)
    Jn1 = case.filtration_ideal(3)
    assert Ideal(R, Jn1.gens + [xn * case.partials[4]]).contains(xn * case.partials[4])


# ---------------------------------------------------------------------------
# resolution and associated primes

@pytest.mark.parametrize("n", [3, 4, 5])
def test_resolution_and_ass(n):
    rep = resolution_and_ass_check(record(n))
    assert rep.passed, rep.details


def test_resolution_details_n4():
    rep = resolution_and_ass_check(record(4))
    d = rep.details
    assert d["numerator"]["got"] == {0: 1, 3: -5, 4: 4, 6: 1, 7: -1}
    assert d["multiplicity"] == (3, 3)
    assert d["embedded_prime_witness"] is not None
    assert d["tail"]["valuation_ok"]


def test_s_polynomial_numerator_formula():
    # S(t) = 1 - (n+1) t^{n-1} + n t^n + t^{2n-2} - t^{2n-1}
    for n in (3, 4, 5):
        case = subhankel_case(n)
        hd = hilbert_data(Ideal(case.ring, case.partials))
        want = {0: 1, n - 1: -(n + 1), n: n, 2 * n - 2: 1, 2 * n - 1: -1}
        assert hd.numerator == want
        assert hd.multiplicity == comb(n - 1, 2)


def test_ass_primes_n5():
    case = subhankel_case(5)
    R = case.ring
    J = Ideal(R, case.partials)
    from detlab.groebner import radical_membership
    # minimal prime: the last two variables
    for v in (4, 5):
        assert radical_membership(R.var(v), J)
    assert not radical_membership(R.var(3), J)
    # embedded prime: exhibited by the resolution check
    rep = resolution_and_ass_check(record(5))
    assert rep.passed


# ---------------------------------------------------------------------------
# linear type and verdicts

@pytest.mark.parametrize("n", [3, 4])
def test_linear_type(n):
    rep = subhankel_linear_type_check(record(n))
    assert rep.passed, rep.details


def test_displayed_generators_are_relations_n5():
    case = subhankel_case(5)
    for col in displayed_symmetric_generators(5, case.ring):
        acc = case.ring.zero()
        for a, f in zip(col, case.partials):
            acc = acc + a * f
        assert acc.is_zero()


@pytest.mark.parametrize("n", [3, 4])
def test_homaloidal_verdict(n):
    case = subhankel_case(n)
    v = polar.homaloidal_verdict(polar.polar_data(case.f), try_linear_type=False,
                                 try_saturation_obstruction=False)
    assert v.status == "Homaloidal"
