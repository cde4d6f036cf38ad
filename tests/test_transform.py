import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

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
    _to_mpf,
    pochhammer,
    required_terms_estimate,
    verify_transform_consistency,
    weniger_transform,
)

HARMONIC_TAIL = InnerCoefficients(fn=lambda l: -bernoulli(l + 1) / (l + 1))
ZERO = InnerCoefficients(fn=lambda l: F(0), support_hint=1)
UNIT = InnerCoefficients(fn=lambda l: F(1) if l == 1 else F(0), support_hint=1)


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
    a = InnerCoefficients(fn=lambda l: F(xs[l - 1]), support_hint=n)
    b = InnerCoefficients(fn=lambda l: F(ys[l - 1]), support_hint=n)
    combo = InnerCoefficients(
        fn=lambda l: F(alpha * xs[l - 1] + beta * ys[l - 1]), support_hint=n
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
        InnerCoefficients(
            fn=lambda l: [F(3, 7), F(-5), F(2, 9)][l - 1] if l <= 3 else F(0),
            support_hint=3,
        )
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
    with pytest.raises(DomainError):
        eval_stirling_series(UNIT, -3, AT_X, EvalContext())
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
    a = InnerCoefficients(
        fn=lambda l: [F(1), F(-2, 3), F(5)][l - 1] if l <= 3 else F(0),
        support_hint=3,
    )
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


def test_checkpoint_resume_past_cache_cap_stays_exact():
    # the cache keeps a bounded prefix; resuming beyond it must recompute
    # the uncached tail rather than splice mismatched state
    a = InnerCoefficients(fn=lambda l: F(1) if l == 1 else F(0), support_hint=1)
    deep = weniger_transform(a, 520)
    again = weniger_transform(a, 526)
    fresh = weniger_transform(
        InnerCoefficients(fn=lambda l: F(1) if l == 1 else F(0), support_hint=1), 526
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

    cases = 0
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
                cases += 1
    assert cases > 8000

    # a run that fits never runs the bisection
    def bisection(*args):
        raise AssertionError("bisection ran")

    monkeypatch.setattr(transform, "required_terms_estimate", bisection)
    assert transform._beyond_budget(74.0, 36.5, 500) is None
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
    value = catalog.digamma_details(x, digits)[0]
    with mp.workdps(digits + 20):
        assert abs(value - mp.digamma(xv)) <= mpf(10) ** -digits / 2
