"""The coefficient transformation and the inverse-factorial series evaluator.

An inverse-power tail  sum_{l>=1} a_l / x^(l+1)  (usually divergent as an
actual series, meaningful as an asymptotic one) is mapped exactly onto an
inverse-factorial series

    sum_{k>=1} c_k / (x (x+1) ... (x+k)),
    c_k = (-1)^k sum_{l=1}^{k} (-1)^l a_l S_k^(1)(l),

which converges for every x > 0. The map is linear and exact over the
rationals; this module computes it exactly and evaluates the resulting series
to a requested decimal precision with an adaptive stopping rule.

The Stirling sums are never formed. Writing L[t^l] = (-1)^l a_l and
M_i(j) = L[t^j (t)_i], with (t)_i the falling factorial, gives
c_k = (-1)^k M_k(0) and the recurrence

    M_{i+1}(j) = M_i(j+1) - i*M_i(j),

so one anti-diagonal of moments, updated as each a_l arrives, yields the c_k
in order (Weniger, Appl. Numer. Math. 2010). Each InnerCoefficients instance
keeps c_1..c_k computed so far in one ``exactnum._Table``, whose step carries
the frontier. A stream reads the kept tuple in place, at C speed, then asks
the table for each term past it, so no stream ever builds a generator.

The series is summed in fixed-point Python integers, not in mpmath floating
point: x is taken exactly as p/q, 1/(x(x+1)...(x+k)) is carried as a
mantissa and a binary exponent, and each term is an integer quotient added to
an integer accumulator. Only the returned value and error estimate become mpf
numbers, rounded once to the working precision, so the evaluator reads no
global mpmath state.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain, count, islice, repeat

from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_pow,
    round_nearest,
)

from .exactnum import DomainError, _Frozen, _Keyed, _Table, _as_count

__all__ = [
    "InnerCoefficients",
    "StirlingCoefficients",
    "EvalContext",
    "EvaluationReport",
    "ConsistencyReport",
    "NonConvergenceError",
    "weniger_transform",
    "pochhammer",
    "eval_stirling_series",
    "verify_transform_consistency",
]

# A series stops once this many consecutive terms fall below its tolerance.
STOP_RULE = 3

AT_X = "at_x"  # denominators x(x+1)...(x+k)
AT_X_PLUS_1 = "at_x_plus_1"  # denominators (x+1)...(x+k)


class InnerCoefficients(_Keyed):
    """Inverse-power coefficients a_l (l >= 1), lazily generated and exact.

    ``fn`` must be total and deterministic for l >= 1. ``key`` is ``fn``.
    Each instance keeps the c_k computed so far in a transform table of its
    own, so equal instances are equal and hash alike but share no c_k; a
    copy or an unpickled instance starts from a fresh table.
    """

    __slots__ = ("fn", "_table")

    def __init__(self, fn: Callable[[int], Fraction]):
        self._fill(fn, _Table(_frontier_step()), fn)

    def __reduce__(self):
        return type(self), (self.fn,)

    def __call__(self, l: int) -> Fraction:
        return Fraction(self.fn(l))


class StirlingCoefficients(_Keyed):
    """A finite prefix c_1..c_K of exact inverse-factorial coefficients;
    ``key`` is ``values``."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        self._fill(values, values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]


# The term budget of an EvalContext built without one.
DEFAULT_MAX_TERMS = 500


class EvalContext(_Keyed):
    """Precision and truncation policy for series evaluation.

    ``guard`` defaults to 10 + ceil(digits/10). The working precision is
    digits + guard decimal digits, and the stop rule compares terms against
    10^-(digits + guard/2) of the partial sum. The series kernel's own
    truncation error does not eat into the guard: it carries
    max_terms.bit_length() + 8 extra bits in 1/D_k and 64 extra bits in the
    accumulator, enough for the whole term budget. ``key`` is
    (digits, guard, max_terms).
    """

    __slots__ = ("digits", "guard", "max_terms")

    def __init__(self, digits: int = 30, guard: int | None = None,
                 max_terms: int = DEFAULT_MAX_TERMS):
        _as_count(digits, 1, "digits")
        if guard is None:
            guard = 10 + math.ceil(digits / 10)
        _as_count(guard, 10, "guard")
        _as_count(max_terms, 1, "max_terms")
        self._fill(digits, guard, max_terms, (digits, guard, max_terms))

    @property
    def working_digits(self) -> int:
        return self.digits + self.guard


class EvaluationReport(_Frozen):
    """Result of a series (or formula) evaluation. ``est_error`` is twice
    the first omitted term, ``precision_used`` the working precision in
    decimal digits and ``elapsed`` in seconds."""

    __slots__ = ("value", "terms_used", "est_error", "precision_used", "elapsed")

    def __init__(self, value: mpf, terms_used: int, est_error: mpf,
                 precision_used: int, elapsed: float):
        self._fill(value, terms_used, est_error, precision_used, elapsed)


class ConsistencyReport(_Frozen):
    """Two truncations of the same content, for asymptotic cross-checks."""

    __slots__ = ("factorial_sum", "inverse_power_sum", "difference")

    def __init__(self, factorial_sum: mpf, inverse_power_sum: mpf, difference: mpf):
        self._fill(factorial_sum, inverse_power_sum, difference)


class NonConvergenceError(ArithmeticError):
    """The stopping rule did not fire within max_terms.

    Carries the partial :class:`EvaluationReport`; typically means x is too
    small for the requested precision.
    """

    def __init__(self, message: str, report: EvaluationReport):
        super().__init__(message)
        self.report = report


def weniger_transform(a: InnerCoefficients, K: int) -> StirlingCoefficients:
    """Exact c_1..c_K for the inverse-power coefficients ``a``."""
    _as_count(K, 1, "K")
    return StirlingCoefficients(tuple(c for _, c in _transform_stream(a, K)))


def _frontier_step():
    """A transform table's step: c_(k+1) from a_(k+1) and the state at k.

    With the linear functional L[t^l] = (-1)^l a_l (and L[1] = 0) the map is
    c_k = (-1)^k M_k(0), where M_i(j) = L[t^j (t)_i] and (t)_i is the falling
    factorial, whose power coefficients are the S_i^(1)(l). As
    (t)_{i+1} = (t)_i (t - i),

        M_{i+1}(j) = M_i(j+1) - i*M_i(j),

    so the anti-diagonal F_i = M_i(k-i), i = 0..k, moves on to k+1 from the
    one new moment M_0(k+1) = (-1)^(k+1) a_{k+1}. The frontier is held in
    integers scaled by Q, a running common denominator of a_1..a_k, so each
    c_k costs k big-by-small multiplies and a single reduction.

    The c_k depend only on the inner, never on x, so every stream of one
    inner resumes from the longest prefix computed so far. No depth cap is
    needed: the frontier is k+1 integers holding about twice the bits of the
    c_1..c_k kept beside it (some 600 KiB at k = 800), so keeping any depth
    costs less than recomputing it. The step is given the inner by each
    stream and never holds it, so an inner and its table are freed by
    refcount when the inner's last reference goes.
    """
    Q, frontier = 1, [0]

    def step(coeffs: tuple[Fraction, ...], a: InnerCoefficients) -> Fraction:
        nonlocal Q, frontier
        k = len(coeffs) + 1
        al = a(k)
        q = al.denominator
        grow = q // math.gcd(Q, q)
        if grow > 1:
            frontier, Q = [f * grow for f in frontier], Q * grow
        row = [(-1) ** k * al.numerator * (Q // q)]
        for i, f in enumerate(frontier):
            row.append(row[-1] - i * f)
        frontier = row
        return Fraction((-1) ** k * row[-1], Q)

    return step


def _transform_stream(
    a: InnerCoefficients, K: int | None
) -> Iterator[tuple[int, Fraction]]:
    """(k, c_k) for k = 1.. (up to K if given), exactly.

    The prefix the inner's table keeps is read in place by a C-level iterator
    (``enumerate`` over the kept tuple), so a warm caller pays no Python frame
    per coefficient; each coefficient past it comes from the table's
    ``entry``, chained on behind. No lock: ``kept`` is a fixed tuple, so a
    stream neither repeats nor skips a k when another thread extends the
    same table meanwhile.
    """
    table = a._table
    kept = table.values
    stream = chain(enumerate(kept, 1), map(table.entry, count(len(kept) + 1), repeat(a)))
    return stream if K is None else islice(stream, K)


def pochhammer(x, k: int):
    """Rising factorial x(x+1)...(x+k-1), exactly: an int or Fraction for int
    or Fraction x, and an mpf for an mpf or float x, whose factors are binary
    numbers and so is their product. No precision is read or rounded to."""
    _as_count(k, 0, "k")
    if isinstance(x, (int, Fraction)):
        acc = Fraction(1)
        for i in range(k):
            acc *= x + i
        return int(acc) if isinstance(x, int) else acc
    p, q = _as_ratio(x)
    if q & (q - 1):
        raise DomainError(f"x must be an int, a Fraction or a binary number, got {x!r}")
    acc = 1
    for i in range(k):
        acc *= p + i * q
    return mp.make_mpf(from_man_exp(acc, -k * (q.bit_length() - 1)))


def _coefficient_stream(c: StirlingCoefficients | InnerCoefficients) -> Iterator[tuple[int, Fraction]]:
    if isinstance(c, StirlingCoefficients):
        return iter(enumerate(c.values, start=1))
    return _transform_stream(c, None)


def _log_term(k: float, x: float) -> float:
    """log Gamma(k) Gamma(x) / Gamma(x+k+1), strictly falling in k."""
    return math.lgamma(k) + math.lgamma(x) - math.lgamma(x + k + 1)


def required_terms_estimate(x: float, digits: float) -> int:
    """Rough k with |term_k| ~ Gamma(x) Gamma(k) / Gamma(x+k+1) < 10^-digits.

    Models the coefficients as (k-1)!-sized, which both observed regimes obey
    within a small factor: geometric decay while k << x and k^-(x+1) decay
    beyond. Prices the series at each candidate anchor, and gives the count
    a refusal's message names.
    """
    if x <= 0:  # a positive x below the float range: beyond any budget
        return 10**9
    target = -digits * math.log(10)
    hi = 2.0
    while _log_term(hi, x) > target:
        hi *= 2
        if hi > 1e9:
            return 10**9
    lo = hi / 2 if hi > 2 else 1.0
    while hi - lo > max(1.0, lo * 1e-3):
        mid = (lo + hi) / 2
        if _log_term(mid, x) > target:
            lo = mid
        else:
            hi = mid
    return int(hi) + 1


def _cutoff(budget: int) -> int:
    """The refusal cutoff: 2 budget + 300 for small budgets, where the model
    is crudest, 1.35 budget + 300 for the costly large ones."""
    return 2 * budget + 300 if budget <= 1000 else budget * 27 // 20 + 300


@functools.lru_cache(maxsize=256)
def _series_setup(digits: int, guard: int, budget: int) -> tuple[int, int, int, int, float]:
    """(wp, W, eps_man, eps_shift, x_refuse) under ctx.key; see eval_stirling_series.
    x_refuse is the least float x up to 1e15 at which the model's term at the
    refusal cutoff falls below 10^-(digits + guard/2); the model falls in x."""
    wp, sdigits, lo, hi = dps_to_prec(digits + guard), digits + guard / 2, 0.0, 1e15
    _, eps_man, eps_exp, _ = mpf_pow(from_int(10), from_float(-sdigits), wp, round_nearest)
    target, cutoff = -sdigits * math.log(10), _cutoff(budget)
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (lo, mid) if _log_term(cutoff, mid) <= target else (mid, hi)
    return wp, wp + budget.bit_length() + 8, eps_man, -eps_exp, hi


def _x_text(xf: float, p: int, q: int) -> str:
    """x = p/q for messages; below the float range, as a power of ten."""
    return f"{xf:g}" if xf else f"10^{math.log10(p) - math.log10(q):.1f}"


def _mantissa(n: int, d: int, bits: int) -> tuple[int, int]:
    """(m, e) with m * 2^e = n/d rounded down (d > 0; flooring twice floors
    once) and m of ``bits`` or bits+1 bits."""
    s = bits - n.bit_length() + d.bit_length()
    return (n << s if s >= 0 else n >> -s) // d, -s


def _rounded(man: int, exp: int, prec: int) -> tuple:
    """from_man_exp(man, exp, prec, round_nearest), the raw mpf man * 2^exp
    rounded half to even, with int.bit_length for mpmath's Python bitcount."""
    if not man:
        return fzero
    sign, man = (1, -man) if man < 0 else (0, man)
    if (n := man.bit_length() - prec) > 0:
        t = man >> (n - 1)  # prec bits and the half bit; up past half, or at a tie when odd
        man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
        exp += n
    if z := (man & -man).bit_length() - 1:  # trailing zeros; none keeps exp's object, as in mpmath
        man, exp = man >> z, exp + z
    return sign, man, exp, man.bit_length()


def _as_ratio(x) -> tuple[int, int]:
    """x exactly as p/q in lowest terms (q > 0): an int or Fraction as its pair,
    an mpf as man*2^exp, anything else (bool, subclasses, float, decimal
    string) through Fraction. An infinite or nan x raises DomainError."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x._numerator, x._denominator
    if isinstance(x, mpf):
        sign, man, exp, _ = x._mpf_
        if not man and exp:  # zero is (0, 0, 0, 0); inf and nan carry man 0, exp not 0
            raise DomainError(f"x must be a finite number, got {x}")
        man = -man if sign else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    try:
        r = Fraction(x)
    except (OverflowError, ValueError):
        raise DomainError(f"x must be a finite number, got {x}") from None
    return r.numerator, r.denominator


def eval_stirling_series(
    c: StirlingCoefficients | InnerCoefficients,
    x,
    start_shift: str = AT_X,
    ctx: EvalContext | None = None,
) -> EvaluationReport:
    """Evaluate  sum_k c_k / D_k(x)  with D_k = x(x+1)..(x+k) or (x+1)..(x+k).

    The (k, c_k) come from the module global ``_coefficient_stream``, looked
    up at call time so that a wrapper set in its place sees every c_k a call
    consumes: the values of a :class:`StirlingCoefficients`, or for an
    :class:`InnerCoefficients` the transform prefix its own table keeps,
    read with no lock (a kept tuple never changes), then the terms computed
    past it. wp, W, eps and the refusal threshold x_refuse are set up once
    per ``ctx.key`` (:func:`_series_setup`).
    The sum runs in Python integers from each c_k's Fraction slots and reads
    no global mpmath state. x is taken exactly as p/q; 1/D_k is carried as a
    W-bit mantissa and a binary exponent, W = wp + max_terms.bit_length() + 8
    for the working precision wp, and moves on to k+1 with one multiply by q
    and one division by p + k*q. Each term c_k/D_k is the exact floor of
    c_k.numerator * mantissa / c_k.denominator in units 2^-(wp + 64) of the
    first nonzero term, added to an integer accumulator. The truncations stay
    below k*2^-(W-1) relative per term plus one unit per term, far inside the
    guard digits, and only ``value`` and ``est_error`` are rounded to wp bits.

    The sum stops once :data:`STOP_RULE` consecutive terms fall below
    eps = 10^-(digits + guard/2) (rounded to wp bits) relative to the running
    partial sum (exact zero terms count as small), or fails with
    :class:`NonConvergenceError` at ``ctx.max_terms``. An
    :class:`InnerCoefficients` run at x below x_refuse, where the decay model
    needs more terms than the refusal cutoff (:func:`_cutoff`) allows, fails
    after a genuine prefix of at most 64 terms instead.
    """
    ctx = ctx or EvalContext()
    if start_shift not in (AT_X, AT_X_PLUS_1):
        raise DomainError(f"unknown start_shift {start_shift!r}")
    t0 = time.perf_counter()
    p, q = _as_ratio(x)
    if p <= 0:
        raise DomainError(f"series requires x > 0, got {x}")
    xf = p / q if p.bit_length() - q.bit_length() < 1000 else math.inf  # no overflow
    wp, W, eps_man, eps_shift, x_refuse = _series_setup(*ctx.key)
    # When the decay model puts the stop point far beyond the term budget,
    # compute only a short genuine prefix for the partial report instead
    # of grinding out the whole doomed budget.
    run_limit = ctx.max_terms
    hopeless = None
    if xf < x_refuse and isinstance(c, InnerCoefficients):
        run_limit = min(ctx.max_terms, 64)
        predicted = required_terms_estimate(xf, ctx.digits + ctx.guard / 2)
        hopeless = (
            f"roughly {predicted} terms needed at x={_x_text(xf, p, q)} for "
            f"{ctx.digits} digits, beyond the {ctx.max_terms}-term budget"
        )
    # 1/D_k = m * 2^e; D_0 = x for at_x, 1 for at_x_plus_1
    m, e = _mantissa(q, p, W) if start_shift == AT_X else (1 << W, -W)
    total = 0  # accumulator, units 2^unit once the first nonzero term fixes it
    unit = 0
    small_run = 0
    stop_rule = STOP_RULE
    d = p  # the divisor p + k*q of step k
    k = 0  # the terms used: k - 1 at a break, k at the end of a finite list
    next_term = fzero
    # _mantissa's arithmetic is inlined twice below: this loop is the kernel
    for k, ck in _coefficient_stream(c):
        n, d = m * q, d + q
        s = W - n.bit_length() + d.bit_length()
        m = (n << s if s >= 0 else n >> -s) // d
        e -= s
        num = ck._numerator  # Fraction's slots: no call per term
        if (stopped := small_run >= stop_rule) or k > run_limit:
            terms_used = k - 1
            if num:  # first omitted term, either way, at W-bit precision
                t, te = _mantissa(num * m, ck._denominator, W)
                next_term = _rounded(2 * abs(t), e + te, wp)
            break
        if not num:
            small_run += 1
            continue
        t, den = num * m, ck._denominator
        if not total:  # a zero sum takes any unit; fix it from this term
            unit = e + t.bit_length() - den.bit_length() - wp - 64
        s = e - unit
        term = (t << s if s >= 0 else t >> -s) // den
        total += term
        # |term| < eps * |total|, both sides in accumulator units
        if abs(term) << eps_shift < eps_man * abs(total):
            small_run += 1
        else:
            small_run = 0
    else:  # finite coefficient list exhausted: series ends exactly
        stopped, terms_used = True, k
    report = EvaluationReport(
        value=mp.make_mpf(_rounded(total, unit, wp)),
        terms_used=terms_used,
        est_error=mp.make_mpf(next_term),
        precision_used=ctx.working_digits,
        elapsed=time.perf_counter() - t0,
    )
    if not stopped:
        raise NonConvergenceError(
            hopeless
            or f"stop rule did not fire within {ctx.max_terms} terms "
            f"(x={_x_text(xf, p, q)} too small for {ctx.digits} digits?)",
            report,
        )
    return report


def verify_transform_consistency(
    a: InnerCoefficients, x, K: int, digits: int = 30
) -> ConsistencyReport:
    """Compare the K-term factorial series against the truncated inverse-power sum.

    For finite-support or numerically convergent inputs the two truncations
    must agree to roughly the size of the first omitted factorial term; used
    by property tests as an end-to-end check of the transformation. Both sums
    and their difference are exact at x = p/q, each rounded to digits + 10 once.
    """
    _as_count(K, 1, "K")
    _as_count(digits, 1, "digits")
    p, q = _as_ratio(x)
    if p <= 0:
        raise DomainError(f"series requires x > 0, got {x}")
    xq = Fraction(p, q)
    denom, fact_sum = xq, Fraction(0)
    for k, ck in _transform_stream(a, K):
        denom *= xq + k
        fact_sum += ck / denom
    pow_sum = sum((a(l) / xq ** (l + 1) for l in range(1, K + 1)), Fraction(0))
    prec = dps_to_prec(digits + 10)

    def rounded(v: Fraction) -> mpf:
        return mp.make_mpf(from_rational(v.numerator, v.denominator, prec, round_nearest))

    return ConsistencyReport(rounded(fact_sum), rounded(pow_sum), rounded(fact_sum - pow_sum))
