import math
from fractions import Fraction as F

import pytest

from stirlingsum import exactnum
from stirlingsum.exactnum import (
    DomainError,
    _Table,
    bernoulli,
    double_factorial_ext,
    euler_number,
    gregory_number,
    stirling_a,
    stirling_first,
    stirling_row,
    tangent_number,
)

# ---------------------------------------------------------------------------
# Oracles: brute-force constructions independent of the implementation.
# ---------------------------------------------------------------------------


def rising_factorial_coeffs(k):
    """Coefficients of x(x+1)...(x+k-1) by repeated polynomial multiplication."""
    poly = [1]  # constant polynomial 1, ascending powers
    for i in range(k):
        shifted = [0] + poly  # x * poly
        scaled = [i * c for c in poly] + [0]  # i * poly
        poly = [a + b for a, b in zip(shifted, scaled)]
    return poly


def series_reciprocal(den, n):
    """First n+1 Taylor coefficients of 1/den(x), den given by coefficients."""
    assert den[0] != 0
    inv = [F(1, 1) / den[0]]
    for m in range(1, n + 1):
        acc = sum(den[j] * inv[m - j] for j in range(1, min(m, len(den) - 1) + 1))
        inv.append(-acc / den[0])
    return inv


def bernoulli_oracle(n):
    # x/(e^x - 1) = 1 / sum_{m>=0} x^m/(m+1)!
    den = [F(1, math.factorial(m + 1)) for m in range(n + 1)]
    return [c * math.factorial(m) for m, c in enumerate(series_reciprocal(den, n))]


def euler_oracle(n):
    # sech x = 1 / cosh x
    den = [
        F(1, math.factorial(m)) if m % 2 == 0 else F(0) for m in range(n + 1)
    ]
    return [c * math.factorial(m) for m, c in enumerate(series_reciprocal(den, n))]


# ---------------------------------------------------------------------------
# Stirling numbers of the first kind
# ---------------------------------------------------------------------------


def test_stirling_trivial_entries():
    assert stirling_first(0, 0) == 1
    for k in (1, 2, 7, 40):
        assert stirling_first(k, k) == 1
        assert stirling_first(k, 0) == 0


def test_stirling_small_values_match_polynomial_expansion():
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == -3
    # x(x+1)(x+2) = x^3 + 3x^2 + 2x and the sign-folded identity below.
    for k in range(61):
        coeffs = rising_factorial_coeffs(k)
        for l, c in enumerate(coeffs):
            assert c == (-1) ** k * (-1) ** l * stirling_first(k, l)


def test_stirling_row_sums():
    for k in range(101):
        row = stirling_row(k)
        assert sum(abs(e) for e in row) == math.factorial(k)
        if k >= 2:
            assert sum(row) == 0  # falling factorial vanishes at x = 1


def test_stirling_recurrence_holds_for_streamed_rows():
    for k in range(2, 32):
        prev, row = stirling_row(k - 1), stirling_row(k)
        for l in range(1, k + 1):
            left = prev[l - 1] if l - 1 <= k - 1 else 0
            right = prev[l] if l <= k - 1 else 0
            assert row[l] == left - (k - 1) * right


def test_stirling_first_column_is_signed_factorial():
    for k in range(1, 40):
        assert stirling_first(k, 1) == (-1) ** (k - 1) * math.factorial(k - 1)


def test_stirling_second_column_is_harmonic_weighted_factorial():
    for m in range(1, 30):
        h = sum(F(1, i) for i in range(1, m + 1))
        assert stirling_first(m + 1, 2) == (-1) ** (m + 1) * math.factorial(m) * h


def test_stirling_domain_errors():
    with pytest.raises(DomainError):
        stirling_first(3, 4)
    with pytest.raises(DomainError):
        stirling_first(-1, 0)


def test_stirling_rows_beyond_cache_limit_are_consistent():
    # 310 is past the whole-row cache; spot-check against the recurrence.
    row_309, row_310 = stirling_row(309), stirling_row(310)
    for l in (1, 5, 150, 310):
        left = row_309[l - 1] if l - 1 <= 309 else 0
        right = row_309[l] if l <= 309 else 0
        assert row_310[l] == left - 309 * right


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(12) == F(-691, 2730)


def test_bernoulli_matches_generating_function_oracle():
    oracle = bernoulli_oracle(30)
    for k in range(31):
        assert bernoulli(k) == oracle[k]


def test_bernoulli_odd_vanishing_and_sign():
    for m in range(1, 31):
        assert bernoulli(2 * m + 1) == 0
        assert (bernoulli(2 * m) > 0) == (m % 2 == 1)


def test_bernoulli_von_staudt_clausen_denominators():
    def is_prime(p):
        return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))

    for m in range(1, 31):
        denom = math.prod(
            p for p in range(2, 2 * m + 2) if is_prime(p) and (2 * m) % (p - 1) == 0
        )
        assert bernoulli(2 * m).denominator == denom


# ---------------------------------------------------------------------------
# Euler, tangent, Gregory, Stirling-series numbers
# ---------------------------------------------------------------------------


def test_euler_known_values_and_oracle():
    assert euler_number(0) == 1
    assert euler_number(1) == 0
    assert euler_number(2) == -1
    assert euler_number(4) == 5
    assert euler_number(6) == -61
    oracle = euler_oracle(24)
    for k in range(25):
        assert euler_number(k) == oracle[k]
        assert oracle[k].denominator == 1


def test_euler_odd_vanishing_and_sign():
    for m in range(31):
        assert euler_number(2 * m + 1) == 0
        assert (euler_number(2 * m) > 0) == (m % 2 == 0)


def test_tangent_values_and_integrality():
    assert tangent_number(1) == 1
    assert tangent_number(2) == 2
    assert tangent_number(3) == 16
    for k in range(1, 31):
        t = tangent_number(k)
        assert t.denominator == 1 and t > 0
    for k in range(1, 101):  # the zigzag entry it reads against B_2k
        p = 1 << 2 * k
        assert tangent_number(k) == p * (p - 1) * abs(bernoulli(2 * k)) / (2 * k)
    with pytest.raises(DomainError):
        tangent_number(0)


def test_gregory_values_match_exact_integration():
    # C_k = (1/k!) * integral over [0,1] of x(x-1)...(x-k+1).
    assert gregory_number(0) == 1
    assert gregory_number(1) == F(1, 2)
    assert gregory_number(2) == F(-1, 12)
    assert gregory_number(3) == F(1, 24)
    for k in range(26):
        poly = [F(1)]
        for i in range(k):  # multiply by (x - i)
            shifted = [F(0)] + poly
            scaled = [i * c for c in poly] + [F(0)]
            poly = [a - b for a, b in zip(shifted, scaled)]
        integral = sum(c / (d + 1) for d, c in enumerate(poly))
        assert gregory_number(k) == integral / math.factorial(k)


def test_gregory_signs_alternate_and_magnitudes_decrease():
    for k in range(1, 31):
        assert (gregory_number(k) > 0) == (k % 2 == 1)
    for k in range(2, 30):
        assert abs(gregory_number(k + 1)) < abs(gregory_number(k))


def test_stirling_a_printed_values():
    assert stirling_a(1) == F(1, 12)
    assert stirling_a(2) == F(1, 12)
    assert stirling_a(3) == F(59, 360)
    assert stirling_a(4) == F(29, 60)
    with pytest.raises(DomainError):
        stirling_a(0)


def test_stirling_a_sums_to_log_factorial_correction():
    # log n! - (n + 1/2) log n + n - log sqrt(2 pi)  ==  sum_k a_k / ((n+1)...(n+k))
    # — check the residual numerically at n = 30.
    from mpmath import mp, mpf

    with mp.workdps(45):
        n = 30
        lhs = (
            mp.log(mpf(math.factorial(n)))
            - (n + mpf(1) / 2) * mp.log(n)
            + n
            - mp.log(2 * mp.pi) / 2
        )
        acc = mpf(0)
        den = mpf(1)
        for k in range(1, 61):
            den *= n + k
            a = stirling_a(k)
            acc += mpf(a.numerator) / a.denominator / den
        assert abs(lhs - acc) < mpf(10) ** -26


# ---------------------------------------------------------------------------
# Extended double factorial
# ---------------------------------------------------------------------------


def test_double_factorial_classic_and_extended_values():
    assert double_factorial_ext(5) == 15
    assert double_factorial_ext(7) == 105
    assert double_factorial_ext(1) == 1
    assert double_factorial_ext(-1) == 1
    assert double_factorial_ext(-3) == -1
    assert double_factorial_ext(-5) == F(1, 3)
    assert double_factorial_ext(-7) == F(-1, 15)


def test_double_factorial_recurrence_across_negative_seam():
    for m in range(-11, 10, 2):
        assert double_factorial_ext(m + 2) == (m + 2) * double_factorial_ext(m)


def test_double_factorial_matches_the_direct_product(monkeypatch):
    # the kept table, grown one factor at a time and at once from empty,
    # gives what multiplying the factors gives
    def direct(m):
        if m >= -1:
            return F(math.prod(range(m, 0, -2)))
        j = (-m - 1) // 2
        return F((-1) ** j, math.prod(range(2 * j - 1, 0, -2)))

    odd = list(range(-81, 2202, 2))
    for order in (odd, odd[::-1]):
        monkeypatch.setattr(exactnum, "_odd_double_factorials",
                            _Table(exactnum._odd_double_factorials.step, [1]))
        assert [double_factorial_ext(m) for m in order] == [direct(m) for m in order]


def test_double_factorial_rejects_even_arguments():
    with pytest.raises(DomainError):
        double_factorial_ext(4)
    with pytest.raises(DomainError):
        double_factorial_ext(0)


def test_generators_are_deterministic():
    assert bernoulli(19) == bernoulli(19)
    assert euler_number(18) == euler_number(18)
    assert gregory_number(17) == gregory_number(17)
    assert stirling_row(50) == stirling_row(50)
