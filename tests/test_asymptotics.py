import math
from fractions import Fraction as F

import pytest

from stirlingsum.asymptotics import LogPowerTerm, differentiate, em_tail
from stirlingsum.exactnum import DomainError, bernoulli

T = LogPowerTerm


def test_differentiate_basic_rules():
    assert differentiate([T(1, 1, 0)]) == (T(1, 0, 0),)
    assert differentiate([T(1, 0, 1)]) == (T(1, -1, 0),)
    got = differentiate([T(1, 1, 1)])
    assert set(got) == {T(1, 0, 1), T(1, 0, 0)}


def test_differentiate_merges_and_drops_zeros():
    got = differentiate([T(1, 1, 0), T(-1, 1, 0)])
    assert got == ()
    got = differentiate([T(2, 3, 0), T(5, 3, 0)])
    assert got == (T(21, 2, 0),)


def test_repeated_derivative_of_power_gives_falling_factorial():
    for s in (F(-3), F(-2), F(-1), F(1, 2), F(3, 2), F(5, 2), F(-1, 2), F(-3, 2), F(-5, 2)):
        f = [T(1, s, 0)]
        expect = F(1)
        for k in range(1, 16):
            f = differentiate(f)
            expect *= s - (k - 1)
            if expect == 0:
                assert f == ()
                break
            assert f == (T(expect, s - k, 0),)


def test_differentiate_is_linear():
    a = [T(F(2, 3), F(1, 2), 1), T(5, -2, 0)]
    b = [T(1, F(1, 2), 1), T(-3, 0, 2)]
    both = differentiate(list(a) + list(b))
    da = {(t.m, t.s): t.coef for t in differentiate(a)}
    db = {(t.m, t.s): t.coef for t in differentiate(b)}
    merged = {}
    for d in (da, db):
        for k, v in d.items():
            merged[k] = merged.get(k, F(0)) + v
    assert {(t.m, t.s): t.coef for t in both} == {k: v for k, v in merged.items() if v}


def test_em_tail_reciprocal_gives_bernoulli_ratios():
    tail = em_tail([T(1, -1, 0)], 20)
    for l in range(1, 21):
        assert tail.coef(0, -(l + 1)) == -bernoulli(l + 1) / (l + 1)
    assert tail.coef(0, -1) == F(1, 2)  # the half-sample term


def test_em_tail_square_root_family():
    tail = em_tail([T(1, F(1, 2), 0)], 20)
    from stirlingsum.exactnum import double_factorial_ext

    assert tail.coef(0, F(1, 2)) == F(1, 2)
    for l in range(1, 15):
        expect = (
            double_factorial_ext(2 * l - 3)
            / (F(2) ** l * math.factorial(l + 1))
            * bernoulli(l + 1)
        )
        # exponent 1/2 - l, i.e. n^(1/2) prefactor times n^-l
        assert tail.coef(0, F(1, 2) - l) == expect


def test_em_tail_log_family():
    tail = em_tail([T(1, 0, 1)], 20)
    assert tail.coef(1, 0) == F(1, 2)
    for l in range(1, 15):
        assert tail.coef(0, -l) == (-1) ** (l + 1) * bernoulli(l + 1) / (l * (l + 1))


def test_em_tail_group_exponents_strictly_decrease():
    for f in ([T(1, -1, 0)], [T(1, F(1, 2), 0)], [T(1, 1, 1)], [T(1, 0, 2)]):
        tail = em_tail(f, 18)
        for _, pairs in tail.groups.items():
            exponents = [e for e, _ in pairs]
            assert exponents == sorted(exponents, reverse=True)
            assert len(set(exponents)) == len(exponents)


def test_em_tail_rejects_bad_order():
    with pytest.raises(DomainError):
        em_tail([T(1, -1, 0)], 0)


def test_bernoulli_polynomial_telescoping():
    # test-only expansion: B_n(x) = sum_k C(n,k) B_k x^(n-k) must satisfy
    # B_n(1) - B_n(0) = 0 for n >= 2, tying the generator conventions together.
    for n in range(2, 25):
        at_1 = sum(math.comb(n, k) * bernoulli(k) for k in range(n + 1))
        at_0 = bernoulli(n)
        assert at_1 - at_0 == 0

