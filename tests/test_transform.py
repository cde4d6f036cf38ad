import math
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from stirlingsum import catalog, transform
from stirlingsum.exactnum import DomainError, bernoulli, gregory_number, stirling_row
from stirlingsum.transform import (
    AT_X,
    AT_X_PLUS_1,
    STOP_RULE,
    EvalContext,
    InnerCoefficients,
    NonConvergenceError,
    StirlingCoefficients,
    eval_stirling_series,
    pochhammer,
    required_terms_estimate,
    verify_transform_consistency,
    weniger_transform,
)

HARMONIC_TAIL = InnerCoefficients(fn=lambda l: -bernoulli(l + 1) / (l + 1))
ZERO = InnerCoefficients(fn=lambda l: F(0))
UNIT = InnerCoefficients(fn=lambda l: F(1) if l == 1 else F(0))


def _to_mpf(q: F) -> mpf:
    """q at the caller's mpmath precision: the numerator, then the quotient."""
    return mpf(q.numerator) / q.denominator if q.denominator != 1 else mpf(q.numerator)


def test_harmonic_tail_printed_coefficients():
    c = weniger_transform(HARMONIC_TAIL, 4)
    assert list(c.values) == [F(-1, 12), F(-1, 12), F(-19, 120), F(-9, 20)]


def test_zero_input_transforms_to_zero():
    assert all(v == 0 for v in weniger_transform(ZERO, 12).values)


def test_single_leading_coefficient_gives_factorials():
    c = weniger_transform(UNIT, 8)
    assert list(c.values) == [F(math.factorial(k - 1)) for k in range(1, 9)]


def test_harmonic_tail_relates_to_reciprocal_log_numbers():
    # c_k = (-1)^(k+1) k! C_(k+1): two independently coded generators agree.
    c = weniger_transform(HARMONIC_TAIL, 10)
    for k in range(1, 11):
        assert c.values[k - 1] == (-1) ** (k + 1) * math.factorial(k) * gregory_number(k + 1)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_transform_is_linear(xs, ys, alpha, beta):
    n = max(len(xs), len(ys))
    xs = xs + [0] * (n - len(xs))
    ys = ys + [0] * (n - len(ys))
    a = InnerCoefficients(fn=lambda l: F(xs[l - 1]) if l <= n else F(0))
    b = InnerCoefficients(fn=lambda l: F(ys[l - 1]) if l <= n else F(0))
    combo = InnerCoefficients(
        fn=lambda l: F(alpha * xs[l - 1] + beta * ys[l - 1]) if l <= n else F(0)
    )
    K = n + 4
    ca, cb, cc = (weniger_transform(s, K) for s in (a, b, combo))
    for k in range(K):
        assert cc.values[k] == alpha * ca.values[k] + beta * cb.values[k]


def test_transform_matches_stirling_sum_definition():
    # c_k = (-1)^k sum_l (-1)^l a_l S_k^(1)(l), summed straight from the
    # Stirling rows, for catalog inner sequences and a finite-support one
    sequences = [
        part.inner
        for fid in ("1.1", "12.1", "13.1", "16.1")
        for part in catalog.describe(fid).series
    ]
    sequences.append(
        InnerCoefficients(fn=lambda l: [F(3, 7), F(-5), F(2, 9)][l - 1] if l <= 3 else F(0))
    )
    K = 80
    for a in sequences:
        al = [None] + [a(l) for l in range(1, K + 1)]
        textbook = [
            (-1) ** k * sum((-1) ** l * al[l] * stirling_row(k)[l] for l in range(1, k + 1))
            for k in range(1, K + 1)
        ]
        assert list(weniger_transform(a, K).values) == textbook


def test_pochhammer_values():
    assert pochhammer(5, 0) == 1
    assert pochhammer(1, 5) == 120
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    with mp.workdps(30):
        assert abs(pochhammer(mpf(2), 4) - 120) < mpf(10) ** -25
    with pytest.raises(DomainError):
        pochhammer(3, -1)


def test_denominator_recursion_matches_pochhammer():
    # D_k for the at_x shape is x(x+1)...(x+k) = pochhammer(x, k+1).
    x = F(7, 2)
    d = x
    for k in range(1, 51):
        d *= x + k
        assert d == pochhammer(x, k + 1)


def test_eval_inverse_square_via_unit_coefficients():
    # sum_k (k-1)! / (x(x+1)...(x+k)) telescopes to 1/x^2.
    rep = eval_stirling_series(UNIT, 20, AT_X, EvalContext(digits=25))
    with mp.workdps(35):
        assert abs(rep.value - mpf(1) / 400) < mpf(10) ** -23
    assert rep.terms_used <= 300


def test_eval_zero_series_stops_immediately():
    ctx = EvalContext(digits=20)
    rep = eval_stirling_series(ZERO, 15, AT_X, ctx)
    assert rep.value == 0
    assert rep.terms_used <= STOP_RULE
    assert rep.est_error == 0


def test_eval_harmonic_tail_against_direct_sum():
    # At x = digits + 10 the factorial terms decay fast enough for full
    # precision within a few hundred terms.
    ctx = EvalContext(digits=30)
    rep = eval_stirling_series(HARMONIC_TAIL, 40, AT_X, ctx)
    with mp.workdps(50):
        lhs = mp.fsum(mpf(1) / k for k in range(1, 41))
        target = lhs - mp.log(40) - mp.euler - mpf(1) / 80
        assert abs(rep.value - target) < mpf(10) ** -29


def test_eval_reports_first_omitted_term_estimate():
    rep = eval_stirling_series(HARMONIC_TAIL, 40, AT_X, EvalContext(digits=25))
    # estimate must be positive and far below the requested precision
    assert rep.est_error > 0
    assert rep.est_error < mpf(10) ** -25
    assert rep.precision_used >= 35
    assert rep.elapsed >= 0


def test_eval_nonconvergence_carries_partial_report():
    ctx = EvalContext(digits=30, max_terms=8)
    with pytest.raises(NonConvergenceError) as exc:
        eval_stirling_series(HARMONIC_TAIL, 10, AT_X, ctx)
    rep = exc.value.report
    assert rep.terms_used == 8
    assert rep.est_error > 0
    # the 8-term partial sum is still a decent approximation
    with mp.workdps(45):
        lhs = mp.fsum(mpf(1) / k for k in range(1, 11))
        target = lhs - mp.log(10) - mp.euler - mpf(1) / 20
        assert abs(rep.value - target) < 2 * rep.est_error


def test_eval_rejects_bad_arguments():
    for x in (-3, float("inf"), float("nan"), mpf("inf"), mpf("nan")):
        with pytest.raises(DomainError):
            eval_stirling_series(UNIT, x, AT_X, EvalContext())
    with pytest.raises(DomainError):
        eval_stirling_series(UNIT, 10, "at_x_plus_2", EvalContext())
    with pytest.raises(DomainError):
        EvalContext(digits=0)
    with pytest.raises(DomainError):
        EvalContext(digits=10, guard=5)


def test_eval_at_x_plus_1_shape():
    # sum_k c_k/((x+1)...(x+k)) with unit inner coefficients: multiply the
    # telescoped identity by x, so the value is 1/x.
    rep = eval_stirling_series(UNIT, 20, AT_X_PLUS_1, EvalContext(digits=25))
    with mp.workdps(35):
        assert abs(rep.value - mpf(1) / 20) < mpf(10) ** -23


def test_finite_support_truncations_agree():
    a = InnerCoefficients(fn=lambda l: [F(1), F(-2, 3), F(5)][l - 1] if l <= 3 else F(0))
    for x in (20, 35):
        for K in (3, 10, 25, 40):
            r = verify_transform_consistency(a, x, K, digits=30)
            # bound by twice the first omitted factorial term
            tail_ctx = EvalContext(digits=30, max_terms=K)
            with pytest.raises(NonConvergenceError) as exc:
                eval_stirling_series(a, x, AT_X, tail_ctx)
            assert abs(r.difference) <= 2 * exc.value.report.est_error + mpf(10) ** -28


def test_consistency_report_zero_for_zero_input():
    r = verify_transform_consistency(ZERO, 50, 6, digits=30)
    assert r.difference == 0


def test_consistency_harmonic_and_unit_examples():
    r = verify_transform_consistency(HARMONIC_TAIL, 50, 40, digits=30)
    assert abs(r.difference) < mpf(10) ** -20
    # K = 80 pushes the factorial-side truncation tail below 1e-29 at x = 30
    r2 = verify_transform_consistency(UNIT, 30, 80, digits=30)
    assert abs(r2.difference) < mpf(10) ** -25


def test_stirling_coefficients_container():
    c = StirlingCoefficients(values=(F(1), F(-2)))
    assert len(c) == 2 and c[1] == F(-2)
    rep = eval_stirling_series(c, 25, AT_X, EvalContext(digits=20))
    with mp.workdps(30):
        direct = mpf(1) / (25 * 26) - mpf(2) / (25 * 26 * 27)
        assert abs(rep.value - direct) < mpf(10) ** -24


# ---------------------------------------------------------------------------
# Coefficient caching and depth pre-flight
# ---------------------------------------------------------------------------


def test_repeated_transforms_replay_cached_coefficients():
    calls = []

    def fn(l):
        calls.append(l)
        return F(1, l * l + 1)

    a = InnerCoefficients(fn=fn)
    weniger_transform(a, 40)
    baseline = len(calls)
    again = weniger_transform(a, 40)
    assert len(calls) == baseline  # replayed from cache, not recomputed
    deeper = weniger_transform(a, 70)
    assert len(calls) == baseline + 30  # resumed from the cached prefix
    fresh = weniger_transform(InnerCoefficients(fn=lambda l: F(1, l * l + 1)), 70)
    assert list(deeper.values) == list(fresh.values)
    assert list(again.values) == list(fresh.values)[:40]

    # deep streams are kept whole: a repeat needs no inner coefficient at all
    unit_calls = []

    def unit(l):
        unit_calls.append(l)
        return F(1) if l == 1 else F(0)

    b = InnerCoefficients(fn=unit)
    first = weniger_transform(b, 600)
    unit_calls.clear()
    assert weniger_transform(b, 600) == first
    assert unit_calls == []


def test_inner_coefficients_with_equal_fields_share_one_checkpoint():
    calls = []

    def fn(l):
        calls.append(l)
        return F(1, l + 1)

    a, b = InnerCoefficients(fn), InnerCoefficients(fn=fn)
    assert a is not b and a == b and hash(a) == hash(b)
    first = weniger_transform(a, 30)
    calls.clear()
    assert weniger_transform(b, 30) == first
    assert calls == []
    assert transform._checkpoints[b] is transform._checkpoints[a]


def test_eval_context_equality_hash_and_default_guard():
    assert EvalContext(digits=40) == EvalContext(40, 14, 500)
    assert len({EvalContext(digits=40): 1, EvalContext(40, 14, 500): 2}) == 1
    assert EvalContext(digits=40) != EvalContext(digits=40, max_terms=499)
    default = EvalContext()
    assert (default.digits, default.guard, default.max_terms) == (30, 13, 500)
    for digits, guard in [(1, 11), (10, 11), (11, 12), (99, 20), (100, 20), (901, 101)]:
        ctx = EvalContext(digits=digits)
        assert (ctx.guard, ctx.working_digits) == (guard, digits + guard)


def test_checkpoint_resume_past_cache_cap_stays_exact():
    # the cache keeps a bounded prefix; resuming beyond it must recompute
    # the uncached tail rather than splice mismatched state
    a = InnerCoefficients(fn=lambda l: F(1) if l == 1 else F(0))
    deep = weniger_transform(a, 520)
    again = weniger_transform(a, 526)
    fresh = weniger_transform(
        InnerCoefficients(fn=lambda l: F(1) if l == 1 else F(0)), 526
    )
    assert list(again.values) == list(fresh.values)
    assert list(deep.values) == list(fresh.values)[:520]


def test_required_terms_estimate_brackets_the_decay_target():
    for x, digits in [(50, 30), (110, 100), (40, 60), (2010, 2000)]:
        k = required_terms_estimate(x, digits)
        target = -digits * math.log(10)

        def log_term(kk):
            return math.lgamma(kk) + math.lgamma(x) - math.lgamma(x + kk + 1)

        # returned count reaches the target, and only just: a few steps
        # (the bisection's documented slack) back above it
        assert log_term(k) <= target
        slack = 3 + k // 250
        assert log_term(k - slack) > target
    # pushing the anchor out always cheapens the tail
    assert required_terms_estimate(1000, 200) < required_terms_estimate(100, 200)


def test_hopeless_depth_bails_with_short_genuine_prefix():
    # when far more terms are needed than the budget allows, the evaluator
    # refuses after a short prefix instead of grinding out the whole budget
    t0 = time.perf_counter()
    with pytest.raises(NonConvergenceError) as exc:
        eval_stirling_series(HARMONIC_TAIL, 15, AT_X, EvalContext(digits=500))
    assert time.perf_counter() - t0 < 10.0
    rep = exc.value.report
    assert 1 <= rep.terms_used <= 64
    assert "beyond the" in str(exc.value)
    # the short prefix is a genuine partial sum: a run capped at the same
    # term count lands on the identical value
    with pytest.raises(NonConvergenceError) as exc2:
        eval_stirling_series(
            HARMONIC_TAIL, 15, AT_X, EvalContext(digits=500, max_terms=rep.terms_used)
        )
    assert exc2.value.report.terms_used == rep.terms_used
    assert exc2.value.report.value == rep.value


@pytest.mark.parametrize(
    "x", [mpf(2) ** -1100, F(1, 10**400), 1e-300], ids=["2^-1100", "10^-400", "1e-300"]
)
def test_x_below_the_float_range_refuses_with_a_report(x):
    # p/q underflows to 0.0 as a float for the first two; the decay model
    # must still call the depth hopeless instead of failing in lgamma
    with pytest.raises(NonConvergenceError) as exc:
        eval_stirling_series(UNIT, x)
    rep = exc.value.report
    assert 1 <= rep.terms_used <= 64
    assert mp.isfinite(rep.value) and mp.isfinite(rep.est_error) and rep.est_error > 0
    assert "beyond the" in str(exc.value)


def test_small_budgets_are_exempt_from_the_bail_heuristic():
    # tight explicit budgets are often deliberate truncation probes; they
    # must run their full length even when the depth looks hopeless
    with pytest.raises(NonConvergenceError) as exc:
        eval_stirling_series(HARMONIC_TAIL, 20, AT_X, EvalContext(digits=80, max_terms=12))
    assert exc.value.report.terms_used == 12


def test_preflight_verdict_matches_the_bisection(monkeypatch):
    # the one-term proof that a run fits must give the bisection's verdict
    # (and, past the cutoff, its count) over x, digits and budgets, also
    # next to the x where the verdict flips
    digit_grid = (5, 10, 20, 36, 50, 100, 200, 300, 500, 1000, 2000)
    budgets = (1, 64, 500, 1000, 1001, 2200)
    xs = [10.0 ** (e / 8) for e in range(-24, 113)]  # 1e-3 .. 1e14

    def cutoff(budget):
        return 2 * budget + 300 if budget <= 1000 else budget * 27 // 20 + 300

    cases = proved = 0
    for digits in digit_grid:
        for budget in budgets:
            def fits(x):
                return required_terms_estimate(x, digits) <= cutoff(budget)

            around = []
            if fits(xs[-1]) and not fits(xs[0]):
                lo, hi = xs[0], xs[-1]  # the estimate falls as x rises
                while hi - lo > 1e-9 * hi:
                    mid = (lo + hi) / 2
                    lo, hi = (lo, mid) if fits(mid) else (mid, hi)
                around = [hi * (1 + i * 1e-4) for i in range(-50, 51)]
            for x in xs + around:
                predicted = required_terms_estimate(x, digits)
                expected = predicted if predicted > cutoff(budget) else None
                assert transform._beyond_budget(x, digits, budget) == expected, (x, digits)
                if transform._fits(x, digits, budget):  # the proof is sound
                    assert expected is None, (x, digits, budget)
                    proved += 1
                cases += 1
    assert cases > 8000 and proved > 6000

    # a run that fits never runs the bisection
    def bisection(*args):
        raise AssertionError("bisection ran")

    monkeypatch.setattr(transform, "required_terms_estimate", bisection)
    eval_stirling_series(HARMONIC_TAIL, 74, AT_X, EvalContext(digits=30))


# ---------------------------------------------------------------------------
# Integer summation kernel against an mpf oracle
# ---------------------------------------------------------------------------

SERIES_PARTS = [part for fid in catalog.formula_ids() for part in catalog.describe(fid).series]


def _mpf_series(c, x, start_shift, ctx):
    """Oracle for eval_stirling_series: the same sum, refusal pre-flight and
    stop rule in mpmath floating point at the working precision, one rounded
    operation per step. Returns (value, terms_used, stopped, first nonzero
    term)."""
    with mp.workdps(ctx.working_digits):
        xv = _to_mpf(x) if isinstance(x, F) else mpf(x)
        run_limit = ctx.max_terms
        if isinstance(c, InnerCoefficients) and float(xv) < 1e15:
            predicted = required_terms_estimate(float(xv), ctx.digits + ctx.guard / 2)
            budget = ctx.max_terms
            cutoff = 2 * budget + 300 if budget <= 1000 else budget * 27 // 20 + 300
            if predicted > cutoff:
                run_limit = min(ctx.max_terms, 64)
        eps = mpf(10) ** (-(ctx.digits + ctx.guard / 2))
        total = mpf(0)
        first = mpf(0)
        denom = xv if start_shift == AT_X else mpf(1)
        small_run = 0
        terms_used = 0
        for k, ck in transform._coefficient_stream(c):
            denom *= xv + k
            term = _to_mpf(ck) / denom if ck else mpf(0)
            if (stopped := small_run >= STOP_RULE) or terms_used >= run_limit:
                break
            total += term
            terms_used += 1
            first = first or term
            if not term or abs(term) < eps * abs(total):
                small_run += 1
            else:
                small_run = 0
        else:
            stopped = True
        return total, terms_used, stopped, first


def _report_bits(rep):
    return rep.value._mpf_, rep.terms_used, rep.est_error._mpf_


def _run(c, x, shape, ctx):
    try:
        return eval_stirling_series(c, x, shape, ctx), True
    except NonConvergenceError as exc:
        return exc.report, False


@settings(max_examples=300)
@given(
    st.sampled_from(SERIES_PARTS),
    st.sampled_from([AT_X, AT_X_PLUS_1]),
    st.one_of(
        st.integers(1, 10**5),
        st.fractions(min_value=1, max_value=10**4, max_denominator=1000),
        st.floats(min_value=1, max_value=1e5).map(mpf),
    ),
    st.integers(5, 300),
    st.one_of(st.integers(1, 60), st.integers(200, 400)),
)
def test_integer_kernel_matches_mpf_loop(part, shape, x, digits, max_terms):
    ctx = EvalContext(digits=digits, max_terms=max_terms)
    rep, stopped = _run(part.inner, x, shape, ctx)
    value, terms_used, ref_stopped, first = _mpf_series(part.inner, x, shape, ctx)
    assert (rep.terms_used, stopped) == (terms_used, ref_stopped)
    with mp.workdps(ctx.working_digits):
        scale = max(abs(value), abs(first))
        assert abs(rep.value - value) <= mpf(10) ** -digits * scale


def test_series_ignores_global_precision():
    ctx = EvalContext(digits=40, max_terms=300)
    for c, x, shape in [
        (catalog.describe("13.1").series[0].inner, 50, AT_X),
        (catalog.describe("6.2").series[0].inner, F(301, 7), AT_X_PLUS_1),
        (HARMONIC_TAIL, mpf("60.125"), AT_X),
        (HARMONIC_TAIL, 12, AT_X),  # refused
    ]:
        with mp.workdps(5):
            low, low_ok = _run(c, x, shape, ctx)
        with mp.workdps(500):
            high, high_ok = _run(c, x, shape, ctx)
        assert low_ok == high_ok
        assert (low.value, low.terms_used, low.est_error) == (
            high.value, high.terms_used, high.est_error)



# Kernel bits recorded before the loop's arithmetic was inlined: (formula,
# series part, x, shape, digits, max_terms, served, terms_used, value and
# est_error as (sign, man, exp)); "finite" is a list of 15.1's c_k with zeros
# set in, which runs out.
KERNEL_BITS = [
    ("1.1", 0, 50, AT_X, 30, 500, True, 80,
     (1, 0x8bcdf676cb37fbd6e69726c25789bc3b71e7, -158),
     (0, 0x23cdd8246a95d1c8834bef4de808a5f4bbca7, -283)),
    ("1.1", 0, 183, AT_X, 30, 500, True, 33,
     (1, 0x29bf79c548cb1cf3072c7a417d67024a043d5, -164),
     (0, 0x311e6c21f8a2ce6cc009e5c355bb62feed983, -294)),
    ("1.2", 0, F(301, 7), AT_X_PLUS_1, 40, 300, True, 178,
     (0, 0xbdc5f3c1848795c29d6e582622699e25748c796750d35, -186),
     (0, 0x29245df25c1f1867795c3e8b0a5a8b811ab67292e1a155, -344)),
    ("2.1", 0, 120, AT_X, 100, 500, True, 303,
     (1, 0x308b6512532b3cacc175f15f2f48bcc91b18fb30634a338f47939aab1ae201658f130b63f1dc682398561cacfcbf09245f4cd, -418),
     (0, 0x33564b9812a945a510a8623bd47e747a1fb1827fec4a474ecb4ac9228d41cbbac3f336e560ad095a1d67f69a9228a9f3c417, -780)),
    ("2.2", 0, mpf('60.125'), AT_X, 25, 500, True, 48,
     (0, 0x240e8108cb2c28b53822b3550fddf285d, -142),
     (0, 0x2599025a513b53dec200feb8e5e61653, -246)),
    ("3.1", 0, 25, AT_X, 40, 500, False, 500,
     (1, 0x68cd407b6a2ccfe2768f763d99e7d47c9ab69042d7fa55, -193),
     (0, 0x745f44946438e7bb30ffe34ce7b3cb5308cc94db426d0f, -343)),
    ("3.2", 0, F(1, 3), AT_X_PLUS_1, 10, 60, False, 60,
     (0, 0xe4e18417686d76164b, -72),
     (0, 0xa19ca27f303f5e2f45, -82)),
    ("4.1", 0, 70, AT_X_PLUS_1, 25, 500, True, 46,
     (0, 0x270269a182d7138e93602fa120fdf471b, -140),
     (0, 0x1ac0d32d84bbc18286568e0f9f1a4ab73, -248)),
    ("4.2", 0, 1000, AT_X_PLUS_1, 20, 500, True, 17,
     (1, 0x11e54c289baaee3f87fe2304becd, -139),
     (0, 0x497c3bd77217521944ad66351ed, -246)),
    ("4.3", 0, mpf('12345.6875'), AT_X_PLUS_1, 50, 500, True, 21,
     (0, 0x153bd9d71cac1388ec3366503732a595e91e689d52f61d86892b95d, -231),
     (0, 0x6f59ea4ac5cfb15398ec19467dac4a709d2b613ec74d9d2f93634e9, -452)),
    ("5.1", 0, 12, AT_X_PLUS_1, 60, 40, False, 40,
     (0, 0xe38fe8227e8c0c0646392ddcb25799fcc6cc1040142383364c7a8c5734f6a3cb, -263),
     (0, 0x8da2dfd7d874c9496c6b41a77825b37a3cb27b9f5d6e291cbcd51e64a789bb49, -301)),
    ("5.2", 0, F(1000001, 10), AT_X_PLUS_1, 80, 500, True, 25,
     (0, 0x1dd37d62315b0fb9d8471b193aef1453c8ead318c8361bc930be98c4fd16de72eeb963ad78c9d3dcb59, -357),
     (0, 0xb3c8b0adbde6e5e5121806693a6c7645f24b5c32cb98858450cb2eb0e595355078a63617cd529720f9, -687)),
    ("5.3", 0, 30, AT_X, 15, 500, True, 49,
     (0, 0xc3cc861760392eab2acf569, -103),
     (0, 0x10860c574093ca19ae8ec0b5, -175)),
    ("6.1", 0, 300, AT_X_PLUS_1, 120, 500, True, 170,
     (0, 0x1845c8683f278975cb656255733f1a302f11631dcdf820e29ac4b357a41a3c19b983ab6880db68aa5d6b3b0f814cd28751c5ad5f61ae05e7d09654b, -485),
     (0, 0x18e3d9086bed0abf3b6aa4c32b4b488e5fba3807d88539fb2af81ae6b0e4bebeade7d896d72d7cdb45ff40df3b0acdcabf5d0d2a185e06bbec31a0b, -924)),
    ("6.2", 0, mpf(2.75), AT_X_PLUS_1, 12, 30, False, 30,
     (0, 0x6ad423e5a7513306f48b3, -102),
     (0, 0x572e4b096e644d6e1640f, -113)),
    ("6.3", 0, 10**6, AT_X_PLUS_1, 45, 500, True, 13,
     (0, 0x11e54ce4420dc6d62e85a7846596e1c892cc54d73f3f3cc8eeb, -223),
     (0, 0x37780b18f73688a18ec1a92a032e439ffda9667606bae627729, -449)),
    ("7.1", 0, 90, AT_X_PLUS_1, 80, 500, True, 285,
     (1, 0x1e572b7176d70950b389661390835783781b465207a51f86d71e36254aca5af107ad516eca65c047111, -340),
     (0, 0x1e8d9a67dc243ea60de0736ead89519caf25c88b33a2d8eff9c4eb29c916c18188d0b3e590d113647b7, -636)),
    ("7.2", 0, F(127, 2), AT_X, 30, 200, True, 64,
     (0, 0x2076986725b9cc35401142c4de6be4bc4dc1d, -158),
     (0, 0x3579aa9cf640f0b8e672d135ba3c0bf704e05, -283)),
    ("8.1", 0, 40, AT_X, 35, 500, True, 146,
     (1, 0x51e99bf6f159ec2423aa21e4c0c8606e45b3efeb9, -177),
     (0, 0x181cf7f3255857f06f5efe329a7d14c3ab3086a19d, -319)),
    ("8.2", 0, mpf('40.5'), AT_X_PLUS_1, 20, 500, True, 50,
     (0, 0x1920bd723985fc4a86f22ce37a3b, -116),
     (0, 0x3ad9790e603dd59741ce1512240f, -206)),
    ("9.1", 0, 60, AT_X, 50, 500, True, 169,
     (1, 0x5b03fd7e55aab556faee94ac020c2d67da8bc7ad3dc9a797447d123, -233),
     (0, 0x34d1696633a1f1017656ffc554ea52d1052a8802d680a26605f3d55, -424)),
    ("9.2", 0, 25, AT_X, 45, 500, False, 500,
     (0, 0x26aaa0b8103dd2fe80d6eb46f03db843d55f83088a268065aef, -212),
     (0, 0x4b42bcea778f3ab60b994848d51216be292e8e909b7c528a7b7, -363)),
    ("10.1", 0, 9, AT_X_PLUS_1, 30, 1, False, 1,
     (0, 0x1111111111111111111111111111111111111, -151),
     (0, 0x18d3018d3018d3018d3018d3018d3018d3019, -154)),
    ("10.2", 0, F(123456789, 1000), AT_X, 60, 500, True, 21,
     (1, 0x6ced1a4459969bf1aa6a3019b89beb159d840db2c895b1b8e0e1a26e2327f387, -314),
     (0, 0x49a9e72729b6286ce7f93d6369c5b3092ec8fa480c58ccf752e2a32887c49ac7, -584)),
    ("10.3", 0, 64, AT_X_PLUS_1, 100, 500, False, 500,
     (0, 0x555527d34d2b138db49fe79f084ee8b1ab3a6274c7010740bc217c04b8a42eb18727d98c0cd469e39bf4d3939295e1e42c5b, -414),
     (0, 0x254d09db325ba99d3c0019deba60820a1995b9e1e3494fa3599e7663844136d89b4c74e63efea18e72d5c0506109553f60781, -694)),
    ("11.1", 0, mpf(1e10), AT_X_PLUS_1, 50, 500, True, 11,
     (0, 0x10ca672562512a36faaa2b4b800191725357d3e1a63c291408a5d6b, -292),
     (0, 0x5d31570d44a95cb08ed4e9730c48d21a8862864f61eebab8616e4a5, -599)),
    ("11.2", 0, 17, AT_X, 25, 120, False, 120,
     (0, 0x1425b07063c24e5c84725d1775d74ff7, -142),
     (0, 0x20432fdf0fba69dc172d0cae0f3fdf867, -223)),
    ("12.1", 0, 25, AT_X, 30, 500, True, 230,
     (0, 0x11789cf7f47ccb7378aa2a49a24f4cdd4e7a1, -157),
     (0, 0x273f41f601f50cf8b65da5e81397b65bda515, -279)),
    ("12.1", 1, 25, AT_X, 30, 500, True, 244,
     (1, 0x8bc9abff6ac2418256d86e2ade3c228b85eb, -156),
     (0, 0x29ad7ab4889b670719e77881315cb56163f1f, -279)),
    ("13.1", 0, 45, AT_X, 40, 500, True, 165,
     (0, 0x5648ba42cdffdd4a415d09258ca633e6dd4f1d6f53b70f, -197),
     (0, 0x44358977587e0981ac1db722e0b8a3cdd2f70a28c457af, -353)),
    ("13.1", 1, F(99, 4), AT_X_PLUS_1, 40, 500, False, 500,
     (1, 0x1b92d0a9d45a8908763c8bab84fc7a22ac61a0422cb68d, -188),
     (0, 0x6766f553edfebd85f268427fdf696c48ab46a51b6f249, -336)),
    ("14.1", 0, 40, AT_X, 35, 500, True, 170,
     (0, 0x1178d0b5c3aea86a8062b404cd8ed535eb6d25a89f, -188),
     (0, 0xb2e54447f2ba2103a9fe0dfb8d32a0bbd789956bf, -327)),
    ("14.1", 1, mpf('33.0625'), AT_X, 35, 500, True, 248,
     (1, 0x29408e90e8403aa8fd5a115dd2154b082b4ae6cf63, -189),
     (0, 0x2288ec10bce8c1718646d387f3663f64685a9742ed, -328)),
    ("15.1", 0, 301, AT_X, 60, 500, True, 64,
     (0, 0x9d7d91e80fe5847f4725dc33d792fd2fb5a4897be1afe9185ab3ba981e0a71c1, -282),
     (0, 0x9092731098fa58aee039f4b889340d8f38bee4db756460c22f96c32a87d9e007, -515)),
    ("15.2", 0, F(85, 2), AT_X, 30, 500, True, 106,
     (0, 0x36999c4555348daeb89596bdc5b556cd367d3, -164),
     (0, 0x1a550cc387a53fe4a6aaa3882650f3a1f891d, -285)),
    ("16.1", 0, 100, AT_X, 60, 500, True, 73,
     (0, 0xd1b4684a31331112008350f1c2c89500a52ed6ad0ac68f042776a85596cb5ad3, -271),
     (0, 0x9342447e1983fce6f43dfd5f9ca419e2faefcbfde4bb3424a054a48e345b02ad, -503)),
    ("16.1", 0, 2, AT_X, 300, 500, False, 64,
     (0, 0x746f4041718432a1b0a8c71a3e0d1046c0d22ef17fe09d988534bf89b6a36cf2c3f8e8d60e40afe72d0f1dc352fb5db484c636d2586c40e543e956ab5a3a3fb7bdfb86a977ae2fb16c9f266f81f002a9ecfe8740e87f0914bbc54b0a6dae2d3ee3a9f7a533d2f673eafd39acd09da9f12c7ea6c940046ee3c0263f231f424b2f43844347501af605c98b5f3a307, -1135),
     (0, 0x1da41122d9e825fa35f4a73170a8952176375857ff12df76e930bed02e505ac6747abb56f44e453d4007690448b67a097e8d7d29cc5c2a25485d8dd615ffc4b7ddba4c2fb40b9416b19d1eaed5bd13914f5001da41122d9e825fa35f4a73170a8952176375857ff12df76e930bed02e505ac6747abb56f44e453d4007690448b67a097e8d7d29cc5c2a25485d8dd, -1210)),
    ("1.1", 0, 12, AT_X, 40, 300, False, 64,
     (1, 0x4bcca231c2cb3f2f893e585e43ae54e592d1732d8706c1, -193),
     (0, 0x2af20b8504ec12109931c0f14dace0019801b8158c7d15, -240)),
    ("2.1", 0, 10**30, AT_X, 20, 500, True, 4,
     (1, 0x1124031c73196ecf2f4c3f0190eb, -310),
     (0, 0x2f6c4c06cb46cd708ef92944a329, -705)),
    ("14.1", 0, 2, AT_X_PLUS_1, 200, 64, False, 64,
     (0, 0x7d0c576dd9f3c9bf73f233a50613df7742c71f8238025067b6ab66b3dddf62cac9687a65fb43ec812971cfcee9f58848893821124b67377d94d2c7874955d9f7f8ac5d47343ac4e60cbec980131e9b20d57b7c8fa584f6d76c49c66882853b3f, -777),
     (0, 0x2e2607fbb734750be240384aec00e2f2a8b0aebe76ac97be159b520d1b28a60b2e1ceb1863bb9f793a20b08bc99f415c11a960d5b1a06eb2f8f5240c9ad5f6f9408667526073af55282133893c54ca27f2833e704416b56777eea14cbc1e9019, -789)),
    ("finite", 0, F(7, 3), AT_X, 30, 500, True, 11,
     (0, 0x31b5de63634a3423e49aa4e1a08a59744bb41, -152),
     (0, 0x0, 0)),
    ("finite", 0, 11, AT_X_PLUS_1, 30, 6, False, 6,
     (0, 0x3ff3d20ff3d20ff3d20ff3d20ff3d20ff3d21, -155),
     (0, 0x11f21011f21011f21011f21011f21011f2101, -165)),
]


@pytest.mark.parametrize("fid,part,x,shape,digits,max_terms,served,terms,value,est",
                         KERNEL_BITS)
def test_kernel_bits_are_pinned(fid, part, x, shape, digits, max_terms, served, terms,
                                value, est):
    if fid == "finite":
        c = weniger_transform(catalog.describe("15.1").series[0].inner, 12).values
        source = StirlingCoefficients(c[:3] + (F(0),) + c[3:8] + (F(0), F(0)))
    else:
        source = catalog.describe(fid).series[part].inner
    rep, ok = _run(source, x, shape, EvalContext(digits=digits, max_terms=max_terms))
    assert (ok, rep.terms_used) == (served, terms)
    assert rep.value._mpf_[:3] == value and rep.est_error._mpf_[:3] == est


def test_series_bits_agree_cold_warm_and_past_the_kept_prefix():
    part = catalog.describe("9.1").series[0].inner
    ctx = EvalContext(digits=40)

    def fresh():  # an instance of its own, so a checkpoint of its own
        return InnerCoefficients(fn=lambda l: part.fn(l))

    a = fresh()
    cold = eval_stirling_series(a, 45, AT_X, ctx)  # every c_k computed here
    warm = eval_stirling_series(a, 45, AT_X, ctx)  # every c_k from the kept prefix
    b = fresh()
    weniger_transform(b, cold.terms_used // 2)
    mid = eval_stirling_series(b, 45, AT_X, ctx)  # runs past the kept prefix
    assert len(transform._checkpoints[b].coeffs) == cold.terms_used + 1
    assert _report_bits(cold) == _report_bits(warm) == _report_bits(mid)
    assert _report_bits(cold) == _report_bits(eval_stirling_series(part, 45, AT_X, ctx))


def test_patched_coefficient_stream_sees_every_consumed_coefficient(monkeypatch):
    inner = catalog.describe("1.1").series[0].inner
    ctx = EvalContext(digits=30)
    eval_stirling_series(inner, 40, AT_X, ctx)
    catalog.digamma_details(F(1, 3), 30)
    seen = []
    original = transform._coefficient_stream

    def recording(c):
        for k, ck in original(c):
            seen.append((k, ck))
            yield k, ck

    monkeypatch.setattr(transform, "_coefficient_stream", recording)
    rep = eval_stirling_series(inner, 40, AT_X, ctx)
    # each term summed, and the first omitted one behind est_error
    assert [k for k, _ in seen] == list(range(1, rep.terms_used + 2))
    replay = StirlingCoefficients(tuple(ck for _, ck in seen))
    assert _report_bits(eval_stirling_series(replay, 40, AT_X, ctx)) == _report_bits(rep)
    seen.clear()
    _, terms, _ = catalog.digamma_details(F(1, 3), 30)
    assert len(seen) == terms + 1


@st.composite
def _man_exp_prec(draw):
    """(man, exp, prec): prec in 1..3 or 53..2000; man zero, any length up to
    past 2 prec + 64 bits, all ones, or an exact tie at prec bits with kept
    bits of either parity; either sign."""
    prec = draw(st.one_of(st.integers(1, 3), st.integers(53, 2000)))
    kind = draw(st.sampled_from(["zero", "any", "ones", "tie"]))
    if kind == "zero":
        man = 0
    elif kind == "any":
        man = draw(st.integers(1, (1 << draw(st.integers(1, 2 * prec + 64))) - 1))
    elif kind == "ones":  # longer than prec, rounds up to a power of two
        man = (1 << draw(st.integers(1, 2 * prec + 64))) - 1
    else:  # kept bits, then a one followed by zeros: exactly half an ulp
        kept = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        below = draw(st.integers(1, 300))
        man = (kept << below) | (1 << (below - 1))
    man = -man if draw(st.booleans()) else man
    return man, draw(st.integers(-5000, 5000)), prec


@settings(max_examples=500, deadline=None)
@given(_man_exp_prec())
@example((0, 0, 53))
@example((0, 17, 1))
@example((-5, 3, 2))
@example((0b101, 0, 2))  # a tie that keeps an even 0b10
@example((0b111, 0, 2))  # a tie that rounds an odd 0b11 up to a power of two
@example((-0b1011, -4, 3))  # a tie below an odd 0b101, negative
@example(((1 << 60) - 1, -60, 53))  # all ones past prec: rounds up to 2^0
@example(((1 << 2000) - 1, 0, 2000))  # all ones at exactly prec bits: kept
@example((3 << 40, -7, 53))  # shorter than prec, trailing zeros stripped
def test_rounded_matches_from_man_exp(case):
    man, exp, prec = case
    ours, theirs = transform._rounded(man, exp, prec), from_man_exp(man, exp, prec, round_nearest)
    assert ours == theirs
    assert tuple(map(type, ours)) == tuple(map(type, theirs))  # an int sign, never a bool


def test_warm_series_makes_no_python_call_per_coefficient():
    # a warm call reads its whole run from the kept prefix; the Python
    # frames it opens must not grow with terms_used (a frame per c_k, such
    # as Fraction.as_integer_ratio, would add one per term)
    part = catalog.describe("1.1").series[0].inner
    inner = InnerCoefficients(fn=lambda l: part.fn(l))  # a checkpoint of its own
    ctx = EvalContext(digits=30)
    for x in (20, 60):
        eval_stirling_series(inner, x, AT_X, ctx)

    def calls(x):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            rep = eval_stirling_series(inner, x, AT_X, ctx)
        finally:
            sys.setprofile(None)
        return count, rep.terms_used

    (near, near_terms), (far, far_terms) = calls(20), calls(60)
    assert near_terms > 5 * far_terms  # 435 terms against 66
    assert near == far


class _Int(int):
    pass


class _Fraction(F):
    pass


@pytest.mark.parametrize("x", [0, 7, -7, 10**40, -(10**40), True, False, _Int(0), _Int(-12),
                               F(0), F(-3, 6), F(10**30, 7), _Fraction(0), _Fraction(-5, 15)])
def test_as_ratio_fast_paths_agree_with_fraction(x):
    r = F(x)
    ratio = transform._as_ratio(x)
    assert ratio == (r.numerator, r.denominator)
    assert tuple(map(type, ratio)) == (int, int)


# terms_used of the mpf summation loop (the oracle above) on the series calls
# that evaluate and digamma made when they anchored at max(n, digits + 10)
# and shifted x up to digits: the integer kernel must stop each of these runs
# at the same term. The calls are restated at those explicit x; the end
# results at today's anchors are checked against independent references.
EVALUATE_TERMS = [
    ("1.1", 5, 30, 153), ("2.1", 1, 100, 398), ("3.1", 25, 40, 183),
    ("4.2", 7, 25, 201), ("5.2", 1000, 20, 22), ("7.2", 3, 80, 349),
    ("9.1", 25, 50, 218), ("9.2", 25, 45, 202), ("12.1", 25, 30, 297),
    ("13.1", 10, 40, 371), ("14.1", 40, 35, 441), ("15.1", 300, 60, 72),
    ("16.1", 100, 60, 82),
]
DIGAMMA_TERMS = [
    (3, 200, 822), (10**10, 50, 10), (F(1, 3), 40, 252), (mpf("2.5"), 100, 458),
    (0.75, 30, 217), (1234567, 300, 73),
]


@pytest.mark.parametrize("fid,n,digits,terms", EVALUATE_TERMS)
def test_evaluate_stops_where_recorded(fid, n, digits, terms):
    f = catalog.describe(fid)
    x = max(n, digits + 10)
    part_ctx = EvalContext(digits=digits + catalog._headroom(f, x),
                           guard=EvalContext(digits=digits).guard)
    used = [eval_stirling_series(p.inner, x + p.x_offset, p.shape, part_ctx).terms_used
            for p in f.series]
    assert sum(used) == terms
    value = catalog.evaluate(fid, n, EvalContext(digits=digits)).value
    with mp.workdps(digits + 20):
        assert abs(value - catalog.brute_force(fid, n, digits + 10)) <= mpf(10) ** -digits / 2


@pytest.mark.parametrize("x,digits,terms", DIGAMMA_TERMS)
def test_digamma_stops_where_recorded(x, digits, terms):
    guard = 10 + math.ceil(digits / 10)
    ctx = EvalContext(digits=digits + 4, guard=guard,
                      max_terms=max(500, min(5 * digits + 100, 2200)))
    with mp.workdps(digits + guard + 8):
        xv = _to_mpf(x) if isinstance(x, F) else mpf(x)
        y = xv + int(mp.ceil(max(mpf(0), digits - xv)))
    inner = catalog.describe("1.1").series[0].inner
    assert eval_stirling_series(inner, y, AT_X, ctx).terms_used == terms
    # and at the exact y = x + shift that digamma_details sums at
    r = F(*transform._as_ratio(x))
    exact_y = r + max(0, math.ceil(digits - r))
    assert eval_stirling_series(inner, exact_y, AT_X, ctx).terms_used == terms
    value = catalog.digamma_details(x, digits)[0]
    with mp.workdps(digits + 20):
        assert abs(value - mp.digamma(xv)) <= mpf(10) ** -digits / 2


# ---------------------------------------------------------------------------
# Per-context set-up and the checkpoint read without a lock
# ---------------------------------------------------------------------------


class _PastRunLimit(Exception):
    """Raised by a stream asked for a term past k = 65."""


def _growing_stream(x: float):
    """(k, c_k) for k <= 65 with c_k at least D_k = x(x+1)..(x+k), so that no
    term is small and a run ends only at its run limit, then _PastRunLimit."""
    def stream(c):
        ck = base = math.ceil(x)
        for k in range(1, 66):
            ck *= base + k
            yield k, F(ck)
        raise _PastRunLimit

    return stream


def _outcome(x, ctx):
    """How a run of non-small terms ends at x: ("past 65",) when its run limit
    is past 65 terms, else the refusal's message and partial report bits."""
    try:
        eval_stirling_series(UNIT, x, AT_X, ctx)
    except _PastRunLimit:
        return ("past 65",)
    except NonConvergenceError as exc:
        return str(exc), _report_bits(exc.report)
    raise AssertionError("a run of non-small terms was served")


@st.composite
def _near_the_fit_bound(draw):
    """(x, ctx): digits 1-2000, a budget on either side of 1000, and x at the
    cached bound, the floats beside it, within 1e-3 of it, anywhere below
    it, at 1e-300 or past 1e15."""
    digits = draw(st.integers(1, 2000))
    budget = draw(st.one_of(st.integers(1, 1000), st.integers(1001, 3000)))
    ctx = EvalContext(digits=digits, max_terms=budget)
    x_fit = transform._series_setup(*ctx.key)[-1]
    x = draw(st.one_of(
        st.sampled_from([x_fit, math.nextafter(x_fit, 0), math.nextafter(x_fit, math.inf),
                         1e-300, 1e15, math.nextafter(1e15, 0), 3e17]),
        st.floats(-1e-3, 1e-3).map(lambda r: x_fit * (1 + r)),
        st.floats(1e-6, 1).map(lambda r: x_fit * r),
    ))
    return x, ctx


@settings(max_examples=300, deadline=None)
@given(_near_the_fit_bound())
@example((1e-300, EvalContext(digits=30)))
@example((1e-300, EvalContext(digits=2000, max_terms=3000)))
def test_cached_fit_bound_agrees_with_beyond_budget(case):
    # the refusal, the run limit and the message at x are those of a run
    # that asks _beyond_budget wherever x < 1e15, as before the bound
    x, ctx = case
    setup = transform._series_setup(*ctx.key)
    x_fit = setup[-1]
    assert 0 < x_fit <= 1e15
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "_coefficient_stream", _growing_stream(x))
        got = _outcome(x, ctx)
        patch.setattr(transform, "_series_setup", lambda *key: (*setup[:-1], 1e15))
        assert got == _outcome(x, ctx)
    # and the model's proof of the fit holds from the bound on, and the
    # bound is tight: the proof fails at the float below
    for y in (x, math.nextafter(x_fit, 0)):
        if y < 1e15:
            assert transform._fits(y, ctx.digits + ctx.guard / 2, ctx.max_terms) == (y >= x_fit), y


def test_checkpoint_reads_without_lock_under_threads():
    # 8 threads read and extend one fresh inner's checkpoint at mixed
    # depths, while it grows under them; each gets the bits of a
    # single-threaded run
    part = catalog.describe("9.1").series[0].inner
    runs = [(x, digits) for x in (20, 45, 200) for digits in (20, 40, 60)]
    depths = [30, 90, 150, 240]

    def fresh():  # an instance of its own, so a checkpoint of its own
        return InnerCoefficients(fn=lambda l: part.fn(l))

    def serve(inner, i):
        out = {}
        for x, digits in runs[i:] + runs[:i]:
            rep, served = _run(inner, x, AT_X, EvalContext(digits=digits))
            out[x, digits] = _report_bits(rep), served
        for K in depths[i % 4:] + depths[:i % 4]:
            out[K] = weniger_transform(inner, K).values
        return out

    expected = serve(fresh(), 0)
    shared = fresh()
    got = [None] * 8

    def work(i):
        got[i] = serve(shared, i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g == expected for g in got)


def test_second_series_call_on_a_context_skips_its_setup():
    # the working precision, the stop threshold and the refusal check are
    # set up once per context: a second call under a context already seen,
    # at an x past the refusal check's bound, makes none of those calls
    inner = catalog.describe("1.1").series[0].inner
    ctx = EvalContext(digits=37, guard=17, max_terms=433)  # a key no other test uses
    x = 300
    transform._series_setup.cache_clear()

    def counted():
        names = []

        def profile(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)
            elif event == "c_call":
                names.append(arg.__name__)

        sys.setprofile(profile)
        try:
            eval_stirling_series(inner, x, AT_X, ctx)
        finally:
            sys.setprofile(None)
        return [n for n in names if n in ("dps_to_prec", "_log_term", "lgamma")]

    first, second = counted(), counted()
    assert {"dps_to_prec", "_log_term", "lgamma"} <= set(first)
    assert x >= transform._series_setup(*ctx.key)[-1]
    assert second == []
