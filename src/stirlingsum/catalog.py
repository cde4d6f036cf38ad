"""The catalog of 16 summation-formula families (32 printed variants).

Each variant pairs a classical partial sum (harmonic numbers, zeta partial
sums, root sums, log-weighted sums, alternating sums) with a closed *head*
(elementary terms plus constants) and one or two convergent inverse-factorial
*series parts* whose exact inner coefficients are recorded in closed form.

Evaluation sums the series at an anchor ``max(n, a)`` and bridges back to the
requested ``n`` with summand terms, so every formula serves its whole domain
at full precision. The anchor ``a`` comes from one cost model (``_anchor``):
higher anchors need fewer series terms and a shallower exact transform but a
longer bridge, and the model picks the cheapest from measured per-term costs
and the request alone. For ``n`` below ``a`` the right-hand side at ``a`` is
one number per formula and precision, and the bridge from ``n`` one
number per summand, ``n`` and precision; both are kept once served. The same
machinery runs in reverse for constant recovery: brute-force partial sum
minus known head terms minus the convergent tail isolates the one unknown
constant; digamma shifts its argument up to the model's anchor by the
recurrence.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import time
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    from_int,
    from_rational,
    fzero,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
    round_floor,
    round_nearest,
    to_fixed,
)

from . import constants as _constants
from .constants import (
    ConstantId,
    GAMMA,
    LOG2,
    LOG_2PI,
    LOG_PI,
    PI,
    STIELTJES1,
    zeta,
    zeta_prime,
)
from .exactnum import (
    DomainError,
    _Frozen,
    _Keyed,
    _Table,
    _as_count,
    bernoulli,
    double_factorial_ext,
    euler_number,
    stirling_first,  # uncalled here; benchmark/tracing.py patches catalog.stirling_first
)
from .transform import (
    AT_X,
    AT_X_PLUS_1,
    DEFAULT_MAX_TERMS,
    STOP_RULE,
    EvalContext,
    EvaluationReport,
    InnerCoefficients,
    NonConvergenceError,
    _as_ratio,
    _rounded,
    eval_stirling_series,
    required_terms_estimate,
    weniger_transform,
)

__all__ = [
    "FormulaId",
    "HeadTerm",
    "SeriesPart",
    "Summand",
    "Formula",
    "RecoveryResult",
    "VARIANT_COUNTS",
    "formula_ids",
    "describe",
    "coefficients",
    "part_coefficients",
    "golden_coefficients",
    "series_term_magnitudes",
    "evaluate",
    "brute_force",
    "recover_details",
    "digamma",
    "digamma_details",
    "em_variant_map",
    "em_reference_map",
]

F = Fraction

# family -> number of variants, counted as _build_catalog declares them
VARIANT_COUNTS: dict[int, int] = {}

BRUTE_FORCE_CAP = 10**7
_LOG_FACTORIAL_LIMIT = 20000


class FormulaId(_Keyed):
    """Identity ``<family>.<variant>`` mirroring the catalog numbering.
    ``key`` is (family, variant), so ids sort by family, then variant."""

    __slots__ = ("family", "variant")

    def __init__(self, family: int, variant: int = 1):
        _as_count(family, -math.inf, "family")  # the type alone: the ranges are checked below
        _as_count(variant, -math.inf, "variant")
        count = VARIANT_COUNTS.get(family)
        if count is None:
            raise DomainError(f"unknown formula family {family}")
        if not 1 <= variant <= count:
            raise DomainError(f"family {family} has variants 1..{count}, got {variant}")
        self._fill(family, variant, (family, variant))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key < other.key

    def __str__(self) -> str:
        return f"{self.family}.{self.variant}"

    @classmethod
    def parse(cls, text) -> "FormulaId":
        if isinstance(text, FormulaId):
            return text
        parts = str(text).strip().split(".")
        try:
            if len(parts) == 1:
                return cls(int(parts[0]))
            if len(parts) == 2:
                return cls(int(parts[0]), int(parts[1]))
        except ValueError:
            pass
        raise DomainError(f"cannot parse formula id {text!r}")


class HeadTerm(_Frozen):
    """rational * (n + base_offset)^n_power * log(n)^log_power * constants.

    ``constants`` is a product of (ConstantId, integer exponent) pairs;
    ``parity`` of 0/1 multiplies by (-1)^n / (-1)^(n+1).
    """

    __slots__ = ("rational", "n_power", "log_power", "constants", "parity", "base_offset")

    def __init__(self, rational: Fraction, n_power: Fraction = F(0), log_power: int = 0,
                 constants: tuple[tuple[ConstantId, int], ...] = (),
                 parity: int | None = None, base_offset: int = 0):
        _as_count(log_power, 0, "log_power")
        self._fill(F(rational), F(n_power), log_power, constants, parity, base_offset)


class SeriesPart(_Frozen):
    """prefactor * n^n_power * log(n)^log_power * sum_k c_k / D_k(n + x_offset).

    ``shape`` picks the denominator start (x... or x+1...); the exact inner
    inverse-power coefficients a_l generate the printed c_k through the
    transformation. A part is served as Norlund's factorial series of step
    omega = 1/``step``: the c'_k of its ``serving`` inner a'_l = a_l
    step^(l+1), summed at step (n + x_offset), give the same value in fewer
    terms (divided by ``step`` for an at_x_plus_1 part). A part with a
    parity (families 15 and 16, whose tails are singular at +-i pi and so
    need omega > 1/2) serves at step 1 from its printed inner; every other
    at step 2. Parts sharing a printed inner share its serving inner, and so
    one serving table.
    """

    __slots__ = ("inner", "prefactor", "n_power", "log_power", "shape", "x_offset", "parity",
                 "serving", "step")

    def __init__(self, inner: InnerCoefficients, prefactor: Fraction, n_power: Fraction = F(0),
                 log_power: int = 0, shape: str = AT_X, x_offset: int = 0,
                 parity: int | None = None):
        _as_count(log_power, 0, "log_power")
        serving, step = (inner, 1) if parity is not None else (_halved_step(inner), 2)
        self._fill(inner, F(prefactor), F(n_power), log_power, shape, x_offset, parity,
                   serving, step)


@functools.lru_cache(maxsize=None)
def _halved_step(inner: InnerCoefficients) -> InnerCoefficients:
    """The inner a_l 2^(l+1) of f(x/2) for the tail f of ``inner``, with a
    table of its own; one per printed inner (equal inners, one fn). A
    partial of a named function, so it pickles wherever ``inner`` does."""
    return InnerCoefficients(functools.partial(_halved_step_term, inner.fn))


def _halved_step_term(fn, l: int) -> Fraction:
    return F(fn(l)) * (2 << l)


class Summand(_Keyed):
    """(-1)^(k+parity) * y^s * log(y)^m at y = scale*k + shift.

    The term the left-hand side sums over k; ``s`` is a multiple of 1/2 and
    ``parity`` None means no sign alternation. ``key`` is the summand in
    plain integers, so that hashing it takes no modular inverse as a
    Fraction's hash does.
    """

    __slots__ = ("s", "m", "parity", "scale", "shift")

    def __init__(self, s: Fraction, m: int = 0, parity: int | None = None, scale: int = 1,
                 shift: int = 0):
        s = F(s)
        _as_count(m, 0, "m")
        if (2 * s).denominator != 1:
            raise DomainError(f"summand power must be a multiple of 1/2, got {s}")
        self._fill(s, m, parity, scale, shift, (int(2 * s), m, parity, scale, shift))


_LOG_K = Summand(0, 1)


class Formula(_Frozen):
    """sum_{k=domain_min}^{n} summand(k) = head(n) + sum of series parts(n).

    ``lhs`` prints the left-hand side; ``domain_min``, where the sum starts,
    is also the least n served. The four attributes after ``series`` are
    derived from the others once, at construction: ``alternating``,
    ``constants`` (in order of first appearance), ``recover_target`` and
    ``top_power`` (the highest power of n, head or series).
    """

    __slots__ = ("id", "lhs", "summand", "domain_min", "head", "series",
                 "alternating", "constants", "recover_target", "top_power")

    def __init__(self, id: FormulaId, lhs: str, summand: Summand, domain_min: int,
                 head: tuple[HeadTerm, ...], series: tuple[SeriesPart, ...]):
        constants = tuple(dict.fromkeys(c for t in head for c, _ in t.constants))
        target = next(c for c in constants if _isolating_term(head, c))
        self._fill(id, lhs, summand, domain_min, head, series, summand.parity is not None,
                   constants, target, max(t.n_power for t in head + series))


def _isolating_term(head: tuple[HeadTerm, ...], target: ConstantId) -> HeadTerm | None:
    """The one head term holding ``target``, linearly and with no n factor,
    or None when no such term isolates it."""
    hits = [t for t in head if any(c == target for c, _ in t.constants)]
    if len(hits) != 1:
        return None
    term = hits[0]
    power = next(p for c, p in term.constants if c == target)
    if power != 1 or term.n_power or term.log_power or term.parity is not None:
        return None
    return term


# ---------------------------------------------------------------------------
# Inner coefficient closed forms
# ---------------------------------------------------------------------------


def _root_inner(sign: int, a: int, b: int, c: int, d: int) -> InnerCoefficients:
    """sign * (2l+a)!! / (2^(l+b) (l+c)!) * B_(l+d) — the root-family shape."""

    def fn(l: int) -> Fraction:
        value = (
            double_factorial_ext(2 * l + a)
            * F(2) ** (-(l + b))
            / math.factorial(l + c)
            * bernoulli(l + d)
        )
        return sign * value

    return InnerCoefficients(fn)


_harmonic_numbers = _Table(lambda h: h[-1] + F(1, len(h)), [F(0)])  # H_0, H_1, ...


def _weighted_harmonic(l: int) -> Fraction:
    # sum_{m=0}^{l-1} (m+1)/(l-m) = (l+1) H_l - l, the inner weight of 13.1
    return (l + 1) * _harmonic_numbers[l] - l


def _plain_log_inner(l: int) -> Fraction:
    # 12.1's B_(l+1) S_(l+1)(2) / (l+1)!, where S_(l+1)(2) = (-1)^(l+1) l! H_l
    return F(-1) ** (l + 1) * bernoulli(l + 1) * _harmonic_numbers[l] / (l + 1)


def _plain_log2_inner(l: int) -> Fraction:
    # 14.1's B_(l+2) S_(l+1)(2) / (l+2)!, from the same Stirling column
    return F(-1) ** (l + 1) * bernoulli(l + 2) * _harmonic_numbers[l] / ((l + 1) * (l + 2))


# ---------------------------------------------------------------------------
# Catalog construction
# ---------------------------------------------------------------------------


def _build_catalog() -> dict[FormulaId, Formula]:
    cat: dict[FormulaId, Formula] = {}

    def add(family: int, lhs: str, summand: Summand, start: int,
            head: tuple[HeadTerm, ...], series: tuple[SeriesPart, ...]) -> None:
        # variants are numbered in the order they are declared here
        variant = VARIANT_COUNTS[family] = VARIANT_COUNTS.get(family, 0) + 1
        f = Formula(FormulaId(family, variant), lhs, summand, start, head, series)
        cat[f.id] = f

    ht, sp, inner = HeadTerm, SeriesPart, InnerCoefficients
    # A family of several variants binds its (family, lhs, summand, start) as
    # ``left`` once, and the head terms its variants share as ``head``.

    # -- 1: harmonic numbers ------------------------------------------------
    left = (1, "sum_{k=1}^{n} 1/k", Summand(-1), 1)
    head = (ht(1, log_power=1), ht(1, constants=((GAMMA, 1),)))
    harmonic_inner = inner(lambda l: -bernoulli(l + 1) / (l + 1))
    add(*left, head + (ht(F(1, 2), -1),), (sp(harmonic_inner, 1),))
    add(*left, head, (sp(inner(lambda l: -bernoulli(l) / l), 1, shape=AT_X_PLUS_1),))

    # -- 2: partial sums of 1/k^2 -------------------------------------------
    left = (2, "sum_{k=1}^{n} 1/k^2", Summand(-2), 1)
    head = (ht(1, constants=((zeta(2), 1),)), ht(-1, -1))
    zeta2_inner = inner(lambda l: -bernoulli(l + 1))
    add(*left, head + (ht(F(1, 2), -2),), (sp(zeta2_inner, 1, -1),))
    add(*left, head, (sp(inner(lambda l: -bernoulli(l)), 1),))

    # -- 3: partial sums of 1/k^3 -------------------------------------------
    left = (3, "sum_{k=1}^{n} 1/k^3", Summand(-3), 1)
    head = (ht(1, constants=((zeta(3), 1),)), ht(F(-1, 2), -2))
    add(*left, head + (ht(F(1, 2), -3),),
        (sp(inner(lambda l: -(l + 2) * bernoulli(l + 1)), F(1, 2), -2),))
    add(*left, head, (sp(inner(lambda l: -(l + 1) * bernoulli(l)), F(1, 2), -1),))

    # -- 4, 5, 6: sums of k^(1/2), k^(3/2), k^(5/2) --------------------------
    # (head constant is the zeta value at the reflected argument over pi^j)
    root_families = [
        # family, power, lead coef, const coef, (pi, zeta) powers, prefactor,
        # variant tuples: (inner args, extra head terms, part n_power)
        (4, F(1, 2), F(2, 3), F(-1, 4), (-1, F(3, 2)), F(1), [
            ((1, -3, 0, 1, 1), ((F(1, 2), F(1, 2)),), F(1, 2)),
            ((1, -1, 1, 2, 2), ((F(1, 2), F(1, 2)), (F(1, 24), F(-1, 2))), F(-1, 2)),
            ((1, -5, -1, 0, 0), (), F(3, 2))]),
        (5, F(3, 2), F(2, 5), F(-3, 16), (-2, F(5, 2)), F(3, 2), [
            ((-1, -5, -1, 1, 1), ((F(1, 2), F(3, 2)),), F(3, 2)),
            ((-1, -1, 1, 3, 3), ((F(1, 2), F(3, 2)), (F(1, 8), F(1, 2))), F(-1, 2)),
            ((-1, -7, -2, 0, 0), (), F(5, 2))]),
        (6, F(5, 2), F(2, 7), F(15, 64), (-3, F(7, 2)), F(15, 4), [
            ((1, -7, -2, 1, 1), ((F(1, 2), F(5, 2)),), F(5, 2)),
            ((1, -1, 1, 4, 4), ((F(1, 2), F(5, 2)), (F(5, 24), F(3, 2)), (F(-1, 384), F(-1, 2))),
             F(-1, 2)),
            ((1, -9, -3, 0, 0), (), F(7, 2))]),
    ]
    for family, power, lead, ccoef, (pi_pow, zs), pref, variants in root_families:
        left = (family, f"sum_{{k=0}}^{{n}} k^({power})", Summand(power), 0)
        head = (ht(lead, power + 1), ht(ccoef, constants=((PI, pi_pow), (zeta(zs), 1))))
        for root_args, extras, part_power in variants:
            add(*left, head + tuple(ht(c, p) for c, p in extras),
                (sp(_root_inner(*root_args), pref, part_power, shape=AT_X_PLUS_1),))

    # -- 7, 8, 9: sums of k^(-1/2), k^(-3/2), k^(-5/2) -----------------------
    left = (7, "sum_{k=1}^{n} k^(-1/2)", Summand(F(-1, 2)), 1)
    head = (ht(2, F(1, 2)), ht(1, constants=((zeta(F(1, 2)), 1),)))
    add(*left, head + (ht(F(1, 2), F(-1, 2)),),
        (sp(_root_inner(-1, -1, 0, 1, 1), 1, F(-1, 2), shape=AT_X_PLUS_1),))
    add(*left, head, (sp(_root_inner(-1, -3, -1, 0, 0), 1, F(1, 2), shape=AT_X_PLUS_1),))
    left = (8, "sum_{k=1}^{n} k^(-3/2)", Summand(F(-3, 2)), 1)
    head = (ht(1, constants=((zeta(F(3, 2)), 1),)), ht(-2, F(-1, 2)))
    add(*left, head + (ht(F(1, 2), F(-3, 2)),), (sp(_root_inner(-1, 1, 1, 1, 1), 2, F(-1, 2)),))
    add(*left, head, (sp(_root_inner(-1, -1, 0, 0, 0), 2, F(-1, 2), shape=AT_X_PLUS_1),))
    left = (9, "sum_{k=1}^{n} k^(-5/2)", Summand(F(-5, 2)), 1)
    head = (ht(1, constants=((zeta(F(5, 2)), 1),)), ht(F(-2, 3), F(-3, 2)))
    add(*left, head + (ht(F(1, 2), F(-5, 2)),),
        (sp(_root_inner(-1, 3, 2, 1, 1), F(4, 3), F(-3, 2)),))
    add(*left, head, (sp(_root_inner(-1, 1, 1, 0, 0), F(4, 3), F(-1, 2)),))

    # -- 10: log(n!) — convergent Stirling's formula --------------------------
    left = (10, "log(n!) = sum_{k=1}^{n} log(k)", _LOG_K, 1)
    head = (ht(1, 1, log_power=1), ht(-1, 1), ht(F(1, 2), constants=((LOG_2PI, 1),)),
            ht(F(1, 2), log_power=1))
    add(*left, head,
        (sp(inner(lambda l: bernoulli(l + 1) / (l * (l + 1))), 1, shape=AT_X_PLUS_1),))
    stirling_inner = inner(lambda l: bernoulli(l + 2) / ((l + 1) * (l + 2)))
    add(*left, head + (ht(F(1, 12), -1),), (sp(stirling_inner, 1),))
    add(*left, head,
        (sp(inner(lambda l: F(0) if l == 1 else bernoulli(l) / (l * (l - 1))),
            1, 1, shape=AT_X_PLUS_1),))

    # -- 11: sum k*log(k) ------------------------------------------------------
    left = (11, "sum_{k=1}^{n} k*log(k)", Summand(1, 1), 1)
    head = (ht(F(1, 2), 2, log_power=1), ht(F(-1, 4), 2), ht(F(1, 2), 1, log_power=1),
            ht(F(1, 12), log_power=1), ht(F(1, 12)), ht(-1, constants=((zeta_prime(-1), 1),)))
    add(*left, head,
        (sp(inner(lambda l: -bernoulli(l + 2) / (l * (l + 1) * (l + 2))), 1,
            shape=AT_X_PLUS_1),))
    add(*left, head,
        (sp(inner(lambda l: -bernoulli(l + 3) / ((l + 1) * (l + 2) * (l + 3))), 1),))

    # -- 12, 13, 14: log-weighted sums (two series parts each) ----------------
    # Each log part is the inner of 1.1, 2.1 or 10.2 (one table per pair):
    # the printed (-1)^l is 1 wherever its B_(l+1) or B_(l+2) is nonzero.
    add(12, "sum_{k=1}^{n} log(k)/k", Summand(-1, 1), 1,
        (ht(F(1, 2), log_power=2), ht(1, constants=((STIELTJES1, 1),)),
         ht(F(1, 2), -1, log_power=1)),
        (sp(inner(_plain_log_inner), 1),
         sp(harmonic_inner, 1, log_power=1)))
    add(13, "sum_{k=1}^{n} log(k)/k^2", Summand(-2, 1), 1,
        (ht(-1, constants=((zeta_prime(2), 1),)), ht(-1, -1, log_power=1), ht(-1, -1),
         ht(F(1, 2), -2, log_power=1)),
        (sp(inner(lambda l: F(-1) ** (l + 1) * _weighted_harmonic(l)
                  * bernoulli(l + 1) / (l + 1)), 1, -1),
         sp(zeta2_inner, 1, -1, log_power=1)))
    add(14, "sum_{k=1}^{n} log(k)^2", Summand(0, 2), 1,
        (ht(1, 1, log_power=2), ht(-2, 1, log_power=1), ht(2, 1), ht(F(1, 2), log_power=2),
         ht(F(1, 6), -1, log_power=1), ht(F(1, 2), constants=((GAMMA, 2),)),
         ht(F(-1, 24), constants=((PI, 2),)), ht(F(-1, 2), constants=((LOG2, 2),)),
         ht(-1, constants=((LOG2, 1), (LOG_PI, 1))), ht(F(-1, 2), constants=((LOG_PI, 2),)),
         ht(1, constants=((STIELTJES1, 1),))),
        (sp(inner(_plain_log2_inner), 2),
         sp(stirling_inner, 2, log_power=1)))

    # -- 15, 16: alternating sums (Boole side) ---------------------------------
    # a_l = (-1)^(l+1) E_l / 2^l: odd Euler numbers vanish, so the first
    # nonzero entry is l = 2. Both printings share this one instance, and so
    # one transform table.
    leibniz_inner = inner(lambda l: F((-1) ** (l + 1) * euler_number(l), 2**l))
    head = (ht(F(1, 4), constants=((PI, 1),)),)
    add(15, "sum_{k=0}^{n} (-1)^k/(2k+1)", Summand(-1, parity=0, scale=2, shift=1), 0,
        head + (ht(F(1, 4), -1, parity=0, base_offset=1),),
        (sp(leibniz_inner, F(1, 4), x_offset=1, parity=1),))
    add(15, "sum_{k=1}^{n} (-1)^(k+1)/(2k-1)", Summand(-1, parity=1, scale=2, shift=-1), 1,
        head + (ht(F(-1, 4), -1, parity=0),), (sp(leibniz_inner, F(1, 4), parity=0),))
    add(16, "sum_{k=1}^{n} (-1)^(k+1)/k", Summand(-1, parity=1), 1,
        (ht(1, constants=((LOG2, 1),)), ht(F(-1, 2), -1, parity=0)),
        (sp(inner(lambda l: (-1) ** (l * (l + 3) // 2) * (2 ** (l + 1) - 1)
                  * abs(bernoulli(l + 1)) / (l + 1)), 1, parity=0),))

    return cat


_CATALOG = _build_catalog()
_BY_NAME = {str(fid): f for fid, f in _CATALOG.items()}  # canonical "family.variant"


def formula_ids() -> tuple[FormulaId, ...]:
    return tuple(sorted(_CATALOG))


def describe(formula) -> Formula:
    f = _BY_NAME.get(formula) if type(formula) is str else None
    return f or _CATALOG[FormulaId.parse(formula)]


# ---------------------------------------------------------------------------
# Exact coefficients and goldens
# ---------------------------------------------------------------------------


def coefficients(formula, K: int) -> tuple[Fraction, ...]:
    """Printed Stirling coefficients of the plain series part: prefactor * c_k."""
    return part_coefficients(formula, K, log_power=0)


def part_coefficients(formula, K: int, log_power: int = 0) -> tuple[Fraction, ...]:
    part = _series_part(describe(formula), log_power)
    return tuple(part.prefactor * v for v in weniger_transform(part.inner, K).values)


def _series_part(f: Formula, log_power: int) -> SeriesPart:
    _as_count(log_power, 0, "log_power")
    for part in f.series:
        if part.log_power == log_power:
            return part
    raise DomainError(f"{f.id} has no series part with log power {log_power}")


def golden_coefficients(formula, log_power: int = 0) -> tuple[Fraction, ...]:
    """The printed coefficients recorded in the golden data files."""
    fid = FormulaId.parse(formula)
    name = f"{fid}{'.log' if _as_count(log_power, 0, 'log_power') else ''}.txt"
    try:
        if log_power > 1:  # golden files record plain and log^1 parts only
            raise OSError(name)
        text = _constants._package_data(f"golden/{name}")
    except OSError:  # a zip loader raises a plain OSError for a missing member
        raise DomainError(f"no golden file for {fid} log_power={log_power}") from None
    values = []
    for i, line in enumerate(text.splitlines(), 1):
        k_text, frac_text = line.split()
        if int(k_text) != i:
            raise DomainError(f"golden file {name}: expected k={i}, got {k_text}")
        values.append(F(frac_text))
    return tuple(values)


def series_term_magnitudes(formula, n: int, K: int, log_power: int = 0) -> list[Fraction]:
    """Exact |c_k| / D_k(n + x_offset) for k = 1..K (part scale excluded)."""
    part = _series_part(describe(formula), log_power)
    x = _as_count(n, 1 - part.x_offset) + part.x_offset
    c = weniger_transform(part.inner, K)
    denom = x if part.shape == AT_X else 1
    out = []
    for k in range(1, K + 1):
        denom *= x + k
        out.append(abs(c.values[k - 1]) / denom)
    return out


# ---------------------------------------------------------------------------
# Left-hand sides (brute force and bridging)
# ---------------------------------------------------------------------------


def _signs(u: Summand, lo: int):
    """(-1)^(k+parity) for k = lo+1, lo+2, ... (all 1 without a parity)."""
    if u.parity is None:
        return itertools.repeat(1)
    first = -1 if (lo + 1 + u.parity) % 2 else 1
    return itertools.cycle((first, -first))


def _summand_path(u: Summand, hi: int) -> str:
    """How :func:`_summand_sum` sums ``u`` up to k = hi.

    ``log_factorial``: log(hi!/lo!) for log k, up to ``_LOG_FACTORIAL_LIMIT``;
    otherwise in fixed point, each term an integer ``power``, a half-integer
    one (a ``root``) or a ``log`` term (one mpf log more).
    """
    if u == _LOG_K and hi <= _LOG_FACTORIAL_LIMIT:
        return "log_factorial"
    return "log" if u.m else "power" if u.s.denominator == 1 else "root"


def _fixed_power(y: int, a: int, w: int) -> int:
    """y^(a/2) in units 2^-w for an integer y >= 0 (y > 0 if a < 0), rounded
    down: an integer power, or one integer square root for odd a."""
    if a % 2:
        return math.isqrt(y**a << 2 * w) if a > 0 else math.isqrt((1 << 2 * w) // y**-a)
    return y ** (a // 2) << w if a >= 0 else (1 << w) // y ** (-a // 2)


def _fixed_log(p: int, w: int, q: int = 1) -> int:
    """log(p/q) in units 2^-w for integers p, q > 0, rounded down: one mpf
    log at w + 8 bits, of p taken exactly when q = 1 and otherwise of p/q
    rounded down to w + 8 bits (digamma's exact argument)."""
    y = from_int(p) if q == 1 else from_rational(p, q, w + 8, round_floor)
    return to_fixed(mpf_log(y, w + 8, round_floor), w)


def _summand_sum(u: Summand, lo: int, hi: int, prec: int) -> mpf:
    """The summand ``u`` summed over k = lo+1..hi, rounded to prec bits, on
    the path :func:`_summand_path` names."""
    if hi <= lo:
        return mpf(0)
    ys = range(u.scale * (lo + 1) + u.shift, u.scale * hi + u.shift + 1, u.scale)
    signs = _signs(u, lo)
    if _summand_path(u, hi) == "log_factorial":
        return mp.make_mpf(mpf_log(from_int(math.prod(ys), prec, round_nearest), prec,
                                   round_nearest))
    # Fixed point: each term floored to units 2^-w, w = prec plus the bits of
    # the term count plus 10 past the largest term, an odd power y^(a/2) by
    # one integer square root, then one rounding of the exact integer sum.
    a, m = int(2 * u.s), u.m
    ends = [y for y in (ys[0], ys[-1]) if y > 1 or (y == 1 and not m)]
    top = max((a / 2 * math.log2(y) + (m * math.log2(math.log(y)) if m else 0) for y in ends),
              default=0)
    w = prec + len(ys).bit_length() + 10 + max(0, -math.floor(top))
    total = 0
    for y, sg in zip(ys, signs):
        t = _fixed_power(y, a, w)
        if m:
            t = t * _fixed_log(y, w) ** m >> m * w
        total += sg * t
    return mp.make_mpf(_rounded(total, -w, prec))


def brute_force(formula, n: int, digits: int = 30) -> mpf:
    """Direct summation of the left-hand side (the oracle for everything else)."""
    f = describe(formula)
    n = _as_count(n, f.domain_min)
    if n > BRUTE_FORCE_CAP:
        raise DomainError(f"n={n} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    _as_count(digits, 1, "digits")
    return _summand_sum(f.summand, f.domain_min - 1, n, dps_to_prec(digits + 10))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _headroom(f: Formula, anchor: int) -> int:
    top = f.top_power  # compared and divided as integers: no Fraction arithmetic per call
    if top.numerator <= 0:
        return 6
    return math.ceil(top.numerator / top.denominator * math.log10(anchor + 1)) + 6


def _fetch_constants(f: Formula, store, cdigits: int, unknown: ConstantId | None = None):
    """The served head constants as raw mpf tuples in ``f.constants`` order,
    the order a plan lowers them in, with a recovery's ``unknown`` as zero."""
    return tuple([fzero if cid is unknown else store.get(cid, cdigits)._mpf_
                  for cid in f.constants])


# Bits past the working precision in the fixed-point head and part scales of
# _rhs; see there for why 64.
_RHS_GUARD = 64


class _Plan:
    """What the right-hand sides of a formula share at every x, for one
    context key, headroom and set of served head constants (a recovery's
    unknown served as zero, so its term lowers to 0): the working precision
    (``wd`` digits, ``prec`` bits), the unit 2^-w, the parts' context, the
    error floor ``eps`` (a raw mpf) and each head term and part scale
    lowered by :meth:`lower`. ``parts`` holds, per series part, its serving
    inner and step, its offset and shape, its lowered scale and the unit
    2^-w of that scale, one bit finer (w + 1) for an at_x_plus_1 part at
    step 2, whose serving value is twice the part's. ``rhs`` keeps the
    right-hand side served at the model anchor, once an evaluation below it
    keeps one.
    """

    __slots__ = ("wd", "prec", "w", "part_ctx", "eps", "head", "terms", "parts", "log", "rhs")

    def __init__(self, f: Formula, ctx_key: tuple, hr: int, cvalues: tuple):
        digits, guard, max_terms = ctx_key
        self.wd, self.rhs = digits + guard + hr, None
        self.prec = dps_to_prec(self.wd)
        self.w = self.prec + _RHS_GUARD
        self.part_ctx = EvalContext(digits + hr, guard, max_terms)
        self.eps = mpf_pow_int(from_int(10), 2 - digits - guard, self.prec, round_nearest)
        served = dict(zip(f.constants, cvalues))
        head = [self.lower(t, t.rational, t.base_offset, t.constants, served) for t in f.head]
        self.head = sum(t for t in head if type(t) is int)
        self.terms = [t for t in head if type(t) is tuple]
        # an at_x_plus_1 part's value at step 2 is halved: one bit more in its scale's unit
        self.parts = [(p.serving, p.step, p.x_offset, p.shape, self.lower(p, p.prefactor),
                       self.w + (p.step == 2 and p.shape == AT_X_PLUS_1)) for p in f.series]
        scales = [s for *_, s, _ in self.parts if type(s) is tuple]
        self.log = any(t[2] for t in self.terms + scales)

    def lower(self, t, r: Fraction, offset: int = 0, constants=(), served=None):
        """r (x+offset)^n_power log(x)^log_power prod C^p (-1)^(x+parity) in
        integers (see :func:`_fixed_term`), C^|p| in units 2^-(|p| w); when
        it does not depend on x, its value in units 2^-w (summed into head)."""
        w, a = self.w, t.n_power
        powers = tuple((to_fixed(served[cid], w) ** abs(p), abs(p) * w, p > 0)
                       for cid, p in constants)
        term = (2 * a.numerator // a.denominator, offset, t.log_power, powers, r.numerator,
                r.denominator, t.parity)
        if term[0] or t.log_power or t.parity is not None:
            return term
        return _fixed_term(term, 0, 0, w)


def _fixed_term(term: tuple, x: int, logx: int, w: int) -> int:
    """A term (2 n_power, offset, log_power, (C^|p|, |p| w, p > 0) per
    constant, numerator, denominator, parity) at x in units 2^-w, with log x
    in those units: power, logs, constants and rational floored in turn."""
    a, offset, m, powers, num, den, parity = term
    v = _fixed_power(x + offset, a, w)
    if m:
        v = v * logx**m >> m * w
    for c, shift, up in powers:
        v = v * c >> shift if up else (v << shift) // c
    v = v * num // den
    return -v if parity is not None and (x + parity) % 2 else v


def _rhs(plan: _Plan, x: int):
    """The right-hand side at x under ``plan``: (head, each series part
    scaled, their terms, their largest scaled error estimate, the refusal of
    each part that refused); the head, the scaled parts and the estimate are
    raw mpf tuples at plan.prec bits.

    The head and the part scales are computed in fixed point, in units 2^-w
    with w = prec + G for G = _RHS_GUARD. A term
    r (x+offset)^(a/2) log(x)^m prod C^p takes its power from
    :func:`_fixed_power`, log x from one :func:`_fixed_log`, each constant
    from its served mpf through ``to_fixed`` (lowered with its power once,
    in the plan), each product and quotient floored to units 2^-w, r as one
    integer quotient last and its parity as a sign (a term free of x is
    summed once, in the plan: the same floors). Each inexact factor is under
    one unit low and each flooring costs under one unit more, and an error
    in one factor moves the term by that error times the other factors, so
    a term of F factors is off by under U = (2F + 1) max(1, |r| Q) units, Q
    the largest product of all but one of its factors (each taken as at
    least 1). Over the catalog's heads up to x = 10^7, with a recovery's
    unknown served or zero (its anchors stay at most BRUTE_FORCE_CAP), the
    summed U is at most 2^51 times |head| (3.x without zeta(3) at 10^7: a
    head of -5e-15 within 6 units), so G = 64 keeps the fixed-point error
    under 2^-13 of an ulp of the head at prec, and the head is rounded to
    prec once. Each part is summed from its serving inner at step (x +
    offset) (see :class:`SeriesPart`), and a scaled part is the exact
    product of that mpf value and its fixed-point scale, rounded to prec
    once, the scale read in units 2^-(w + 1) where the step halves the value
    (so the halving is exact); its error estimate likewise.
    """
    w, prec = plan.w, plan.prec
    logx = _fixed_log(x, w) if plan.log else 0
    head = plan.head
    for term in plan.terms:
        head += _fixed_term(term, x, logx, w)
    scaled, terms, est, errors = [], 0, fzero, []
    for inner, step, offset, shape, scale, unit in plan.parts:
        if type(scale) is tuple:
            scale = _fixed_term(scale, x, logx, w)
        try:
            rep = eval_stirling_series(inner, step * (x + offset), shape, plan.part_ctx)
        except NonConvergenceError as exc:
            rep = exc.report
            errors.append(exc)
        scaled.append(_times_fixed(rep.value._mpf_, scale, unit, prec))
        terms += rep.terms_used
        part_est = _times_fixed(rep.est_error._mpf_, abs(scale), unit, prec)
        if mpf_cmp(part_est, est) > 0:
            est = part_est
    return _rounded(head, -w, prec), scaled, terms, est, errors


def _times_fixed(v: tuple, scale: int, w: int, prec: int) -> tuple:
    """The raw mpf v times scale 2^-w, exactly, rounded to prec bits once."""
    sign, man, exp, _ = v
    return _rounded(-man * scale if sign else man * scale, exp - w, prec)


# ---------------------------------------------------------------------------
# Anchor cost model
# ---------------------------------------------------------------------------

# Microseconds per term at the working digits in _COST_DIGITS, interpolated
# linearly between them (2-core x86_64 VM, Python 3.11, mpmath 1.3.0 on its
# pure-Python backend, best of 5): one series term of the integer kernel
# (1.1 at x = 3 x digits), one summand term on each _summand_path (400 terms
# of 10.1, 2.1, 8.1 and 11.1), and one 1/(x+i) of the digamma shift at
# x = 0.3. The mpf log switches to its AGM method past 2500 bits, about 750
# digits.
_COST_DIGITS = (30, 100, 300, 700, 1000, 2000)
_TERM_US = {
    "series": (3.7, 4.3, 9.0, 29, 38, 112),
    "log_factorial": (0.2, 0.2, 0.3, 1.1, 5.4, 10.8),
    "power": (0.5, 0.4, 0.6, 1.1, 1.9, 3.5),
    "root": (1.4, 2.8, 6.0, 19.9, 36, 116),
    "log": (3.3, 4.9, 6.9, 11.9, 1720, 4480),
    "reciprocal": (0.3, 0.7, 3.2, 14, 28, 104),
}
# The exact a -> c transform of 1.1 to depth T, Bernoulli numbers filled from
# cold, costs 0.35, 0.34, 0.42, 0.68 and 0.83 us x T^2 at T = 100, 200, 400,
# 800 and 1200 (same machine): about 0.3 x T^2 x (1 + T/1000). It is counted
# at a tenth of that, because a built transform serves every later call on
# its formula in the process: on serve-warm's warm-up pass (18 calls per
# formula) the full weight bought shallower transforms with longer bridges,
# and the pass took 0.58-0.78 s against 0.43-0.70 s at a tenth.
_TRANSFORM_US = 0.03


def _term_us(path: str, wd: int) -> float:
    """Microseconds per term on ``path`` at ``wd`` working digits: linear
    between the measured points, extended past them, never below the nearer
    of the two."""
    costs = _TERM_US[path]
    i = min(max(bisect.bisect_left(_COST_DIGITS, wd), 1), len(_COST_DIGITS) - 1)
    (d0, d1), (c0, c1) = _COST_DIGITS[i - 1:i + 1], costs[i - 1:i + 1]
    return max(c0 + (c1 - c0) * (wd - d0) / (d1 - d0), min(c0, c1))


# Digits past the request at which digamma sums 1.1's series part, and past
# digits + guard at which it works; see digamma_details for the 8.
_DIGAMMA_SERIES_EXTRA, _DIGAMMA_WORK_EXTRA = 4, 8


def _predicted(f: Formula | None, x: int, digits: int, guard: int):
    """(microseconds, terms per series part) predicted for serving at anchor x.

    ``f`` None is digamma: 1.1's series part at digits + _DIGAMMA_SERIES_EXTRA
    and a shift of 1/(x+i) terms. The cost counts the series summation, the
    exact transform to its depth at a fixed weight whatever is cached, and the
    bridge (or partial sum, or shift) from the start of the summand up to x.
    """
    # Terms are priced at x, though a part at step 2 is summed at 2x in
    # fewer: on purpose, until the per-term costs are re-fitted with it.
    # Priced at 2x, anchors fall (1.1 at 30 digits: 183 to 146), and
    # serve-warm's kept right-hand sides turn into series calls that cost
    # more than the terms saved.
    if f is None:
        parts, path, count = 1, "reciprocal", x
        sdigits, wd = digits + _DIGAMMA_SERIES_EXTRA, digits + guard + _DIGAMMA_WORK_EXTRA
    else:
        hr = _headroom(f, x)
        parts, sdigits, wd = len(f.series), digits + hr, digits + guard + hr
        path, count = _summand_path(f.summand, x), x - f.domain_min + 1
    terms = required_terms_estimate(x, sdigits + guard / 2) + STOP_RULE
    series = terms * _term_us("series", wd) + _TRANSFORM_US * terms**2 * (1 + terms / 1000)
    return parts * series + count * _term_us(path, wd), terms


_MEMO_CAP = 1024  # entries in each lru cache of this module


@functools.lru_cache(maxsize=_MEMO_CAP)
def _anchor(fid: FormulaId | None, digits: int, guard: int, max_terms: int) -> int:
    """The anchor x of least predicted cost whose predicted term count fits
    ``max_terms``; ``fid`` None is digamma.

    A pure function of the request, never of what is cached, so a repeated
    request and a fresh process pick the same anchor and return the same
    bits. The scan climbs by 1/4 steps from (digits + guard)/4 and stops
    once the cost passes twice the best, past the minimum. It bridges no
    more terms than brute force sums: when no anchor up to BRUTE_FORCE_CAP
    fits, it returns the first, where the series refuses at once.
    """
    f = None if fid is None else _CATALOG[fid]
    x = max(2, (digits + guard) // 4, 0 if f is None else f.domain_min + 1)
    best_cost, best = math.inf, x
    while x <= BRUTE_FORCE_CAP:
        cost, terms = _predicted(f, x, digits, guard)
        if terms <= max_terms and cost < best_cost:
            best_cost, best = cost, x
        elif cost > 2 * best_cost:
            break
        x += x // 4 + 1
    return best


# Precision of head constants, and of the whole evaluation, when the
# requested digits are past what the store serves; well inside every
# constant's reach.
_DEGRADED_CONSTANT_DIGITS = 120

# Plans, keyed on the formula (hashed by identity) and plain values, so that
# a lookup runs no Python-level hash; the served constants are part of the
# key, so stores serving the same constant bits share a plan.
_plan = functools.lru_cache(maxsize=_MEMO_CAP)(_Plan)

# Bridges below model anchors, keyed on the summand (formulas summing the
# same terms share them, hashed through its key), n, the anchor and the
# precision.
_bridge = functools.lru_cache(maxsize=_MEMO_CAP)(_summand_sum)


def evaluate(formula, n: int, ctx: EvalContext | None = None, store=None) -> EvaluationReport:
    """Right-hand-side value of the formula at n: the partial sum it equals.

    The series is evaluated at the anchor max(n, a), where a is the cheapest
    anchor the cost model finds for the formula, digits and guard under the
    default 500-term budget (a smaller ``max_terms`` truncates the same run);
    summand terms bridge the anchor back down to n. The head constants,
    rationals and precisions are lowered to fixed point once per formula,
    context, headroom and constant values, in a :class:`_Plan`, so a call
    computes only what depends on its anchor. Below a, the right-hand side
    at a is the same for every n: once served, it is kept with its plan, and
    the bridge from n is kept per summand and precision, so a repeated call
    sums neither. The head is summed in fixed point and rounded once (see
    :func:`_rhs`; the error bound is the same from a new plan or a kept
    one). The report aggregates part term counts and carries the largest
    scaled twice-first-omitted-term estimate across parts.
    """
    f = describe(formula)
    ctx = ctx or EvalContext()
    store = store or _constants.default_store()
    n = _as_count(n, f.domain_min)
    t0 = time.perf_counter()
    cdigits = ctx.digits + ctx.guard
    failure = None
    try:
        cvalues = _fetch_constants(f, store, cdigits)
    except NonConvergenceError:
        # Head constants past recovery reach: serve them, and the whole
        # evaluation, at a precision they always reach, so that the partial
        # report carries a genuine (if shallow) value, and fail. Rounded to
        # those digits, they never bring in longer values a store holds.
        low = min(cdigits, _DEGRADED_CONSTANT_DIGITS)
        cvalues = tuple(mpf_pos(v, dps_to_prec(low), round_nearest)
                        for v in _fetch_constants(f, store, low))
        failure = (
            f"head constants past recovery reach, served at "
            f"{_DEGRADED_CONSTANT_DIGITS} digits (requested {cdigits})"
        )
        ctx = EvalContext(min(ctx.digits, _DEGRADED_CONSTANT_DIGITS), max_terms=ctx.max_terms)
    model = _anchor(f.id, ctx.digits, ctx.guard, DEFAULT_MAX_TERMS)
    anchor = max(n, model)
    plan = _plan(f, ctx.key, _headroom(f, anchor), cvalues)
    prec = plan.prec
    kept = n < model and failure is None  # only below the anchor, undegraded
    rhs = plan.rhs if kept else None
    bridge = _bridge(f.summand, n, anchor, prec) if n < model else None  # none past it
    if rhs is None:
        rhs = _rhs(plan, anchor)
        if kept and not rhs[4]:  # a refusal is recomputed every time
            plan.rhs = rhs
    head, scaled, terms_used, est, errors = rhs
    total = head if bridge is None else mpf_sub(head, bridge._mpf_, prec, round_nearest)
    for part in scaled:
        total = mpf_add(total, part, prec, round_nearest)
    # The head constants are served to digits + guard places, and an error
    # of one unit in each moves the head by at most 6 units (14.1: five
    # constants, each with a weight below 2). The head, bridge and scaled
    # parts are each rounded once at the working precision, the head after a
    # fixed-point sum off by under 2^-13 ulp, and added with one rounding per
    # part; the headroom keeps each of those ulps under
    # 10^-(digits + guard + 3). So 100 units in the constants' last place
    # (the plan's eps) bound both, whatever the truncation estimate below.
    floor = plan.eps
    if failure is not None:
        floor = mpf_pow_int(from_int(10), 2 - _DEGRADED_CONSTANT_DIGITS, prec, round_nearest)
    if mpf_cmp(est, floor) <= 0:
        est = floor
    failures = ([failure] if failure else []) + [str(e) for e in errors]
    report = EvaluationReport(
        value=mp.make_mpf(total),
        terms_used=terms_used,
        est_error=mp.make_mpf(est),
        precision_used=plan.wd,
        elapsed=time.perf_counter() - t0,
    )
    if failures:
        raise NonConvergenceError(f"{f.id} at n={n}: {'; '.join(failures)}", report)
    return report


# ---------------------------------------------------------------------------
# Constant recovery
# ---------------------------------------------------------------------------


class RecoveryResult(_Keyed):
    """A recovered head constant: its value at ``digits`` digits, the partial
    sum's end ``n0`` and the series terms used; ``key`` is all five fields."""

    __slots__ = ("constant", "value", "n0", "digits", "terms_used")

    def __init__(self, constant: ConstantId, value: mpf, n0: int, digits: int, terms_used: int):
        key = (constant, value, n0, digits, terms_used)
        self._fill(*key, key)


# Hard ceilings on per-run term budgets: past a couple thousand terms the
# exact transform alone takes seconds, so the cost model keeps each run's
# predicted terms inside the budget, and the refusal threshold inside the
# series evaluator refuses a run predicted far beyond it. Digamma's budget is
# its ceiling at every precision; a recovery's grows with its digits, as it
# also decides which explicit n0 is tried at all.
_RECOVERY_TERM_CEILING = 1400
_DIGAMMA_TERM_CEILING = 2200


def recover_details(
    formula, digits: int = 30, n0: int | None = None, store=None
) -> RecoveryResult:
    """Solve the formula for its head constant ``recover_target`` at
    ``digits`` digits, whatever the store holds: the store serves the other
    head constants, computing any it lacks; the plan serves the target as
    zero, so the partial sum less the right-hand side is its one head term.

    The partial sum runs to ``n0``, by default the cost model's anchor. An
    explicit ``n0`` past BRUTE_FORCE_CAP is refused, as brute force refuses
    it. One whose predicted terms the budget does not fit, the anchor scan's
    own test, falls back to the anchor at once, with no series call at
    ``n0``; one whose series refuses falls back once to the anchor. Digits past
    the constant's reference string are refused up front, since nothing
    could check them.
    """
    f = describe(formula)
    _as_count(digits, 1, "digits")
    if n0 is not None and _as_count(n0, 2, "n0") > BRUTE_FORCE_CAP:
        raise DomainError(f"n0={n0} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    store = store or _constants.default_store()
    target = f.recover_target
    store.check_reach(target, digits)
    term = _isolating_term(f.head, target)
    guard = EvalContext(digits).guard
    cdigits = digits + guard
    cvalues = _fetch_constants(f, store, cdigits, unknown=target)
    max_terms = max(DEFAULT_MAX_TERMS, min(4 * digits + 120, _RECOVERY_TERM_CEILING))
    ctx = EvalContext(digits, guard, max_terms)
    anchor = _anchor(f.id, digits, guard, max_terms)

    def solve(current: int) -> RecoveryResult:
        plan = _plan(f, ctx.key, _headroom(f, current), cvalues)
        head, scaled, terms_used, _, errors = _rhs(plan, current)
        if errors:
            raise errors[0]
        prec = plan.prec
        partial = _summand_sum(f.summand, f.domain_min - 1, current, prec)._mpf_
        tail = fzero
        for part in scaled:
            tail = mpf_add(tail, part, prec, round_nearest)
        residue = mpf_sub(mpf_sub(partial, head, prec, round_nearest), tail, prec, round_nearest)
        coef = from_rational(*term.rational.as_integer_ratio(), prec, round_nearest)
        for cid, p in term.constants:
            if cid != target:
                c = cvalues[f.constants.index(cid)]
                power = mpf_pow_int(c, p, prec, round_nearest)
                coef = mpf_mul(coef, power, prec, round_nearest)
        value = mp.make_mpf(mpf_div(residue, coef, prec, round_nearest))
        return RecoveryResult(target, value, current, digits, terms_used)

    if n0 is None or n0 == anchor or _predicted(f, n0, digits, guard)[1] > max_terms:
        return solve(anchor)  # an n0 the anchor scan would not take is never tried
    try:
        return solve(n0)
    except NonConvergenceError:
        return solve(anchor)


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=_MEMO_CAP)
def _digamma_plan(digits: int) -> tuple[EvalContext, int, int]:
    """(series context, anchor, prec) of a digamma call at ``digits``, a
    function of ``digits`` alone."""
    guard = EvalContext(digits).guard
    ctx = EvalContext(digits + _DIGAMMA_SERIES_EXTRA, guard, _DIGAMMA_TERM_CEILING)
    prec = dps_to_prec(digits + guard + _DIGAMMA_WORK_EXTRA)
    return ctx, _anchor(None, digits, guard, _DIGAMMA_TERM_CEILING), prec


def digamma_details(x, digits: int = 30) -> tuple[mpf, int, int]:
    """(psi(x), series terms used, upward shift applied); see :func:`digamma`.

    x is taken exactly as p/q. When p or q is longer than prec bits, prec =
    dps_to_prec(digits + guard + 8), x is first rounded to nearest at prec
    bits, which bounds the cost of a long argument; that moves x by under
    2^-prec relative, and psi by under x psi'(x) 2^-prec < (1 + 1/x) 2^-prec,
    eight digits past digits + guard. Then shift = ceil(anchor - x) when
    positive, y = x + shift = (p + shift q)/q exactly, and

        psi(x) = log y - 1/(2y) + S(y) - sum_{i<shift} q/(p + i q),

    S the inverse-factorial series of 1.1's part, summed from its serving
    inner at step y, exactly (S is an at_x part, so nothing is halved). The
    rest is summed in fixed point, in units 2^-w with w = prec + 64 (_RHS_GUARD), as
    :func:`_rhs` sums its head: log y from :func:`_fixed_log`, which rounds
    y down to w + 8 bits (under 2^-(w+6) off in log y) and floors a log of
    w + 8 bits (under |log y| 2^-(w+7) more) to units, 1/(2y) = q/(2(p +
    shift q)) as one integer quotient, S(y) through ``to_fixed``, each
    shift term as one integer quotient. That is under 2 + |log y|/128
    units for the log, under one unit for each of the others, so under
    shift + 4 + |log y|/128 units in all. The shift stays below the anchor,
    at most BRUTE_FORCE_CAP < 2^24, so for |log y| < 2^24 that is under
    2^-(prec + 39), far inside an ulp of psi wherever |psi| > 2^-38, and the
    value is rounded to prec once. With x exact and q short, every divisor
    of the shift sum, p + i q, and of the series' steps, 2(p + shift q) + i q
    (or its half for an even q), is one or two limbs.
    """
    ctx, anchor, prec = _digamma_plan(_as_count(digits, 1, "digits"))
    p, q = _as_ratio(x)
    if p <= 0:
        xv = mp.make_mpf(from_rational(p, q, prec, round_nearest))
        raise DomainError(f"digamma needs x > 0, got {xv}")
    if max(p.bit_length(), q.bit_length()) > prec:
        p, q = _as_ratio(mp.make_mpf(from_rational(p, q, prec, round_nearest)))
    shift = max(0, anchor - p // q)
    py = p + shift * q
    part = describe("1.1").series[0]
    ys = part.step * py  # the serving inner's argument: step y = ys/q
    rep = eval_stirling_series(part.serving, ys if q == 1 else Fraction(ys, q), AT_X, ctx)
    w = prec + _RHS_GUARD
    total = _fixed_log(py, w, q) - (q << w) // (2 * py) + to_fixed(rep.value._mpf_, w)
    if shift:  # q/(p + i q) for i < shift, with no Python frame per term
        total -= sum(map((q << w).__floordiv__, range(p, py, q)))
    return mp.make_mpf(_rounded(total, -w, prec)), rep.terms_used, shift


def digamma(x, digits: int = 30) -> mpf:
    """psi(x) for real x > 0, to ``digits`` decimal digits.

    An argument below the cost model's anchor for these digits is shifted up
    to it with the exact recurrence psi(x) = psi(x+1) - 1/x, so the
    inverse-factorial tail converges in the fewest terms worth their cost.
    """
    return digamma_details(x, digits)[0]


# ---------------------------------------------------------------------------
# Cross-derivation against the summation-tail machinery
# ---------------------------------------------------------------------------


def _em_cutoff(f: Formula, L: int) -> Fraction:
    cutoffs = {
        part.n_power + (1 if part.shape == AT_X_PLUS_1 else 0) - (L + 1)
        for part in f.series
    }
    if len(cutoffs) != 1:
        raise DomainError(f"{f.id} series parts disagree on the tail cutoff")
    return cutoffs.pop()


def _with_summation_tail(formula) -> Formula:
    f = describe(formula)
    if f.alternating:
        raise DomainError(f"{f.id} is an alternating family; no summation tail")
    return f


def em_variant_map(formula, L: int = 20) -> dict[tuple[int, Fraction], Fraction]:
    """Inverse-power tail implied by this variant's series parts and its
    tail-origin head terms, as {(log_power, exponent): coef}, l <= L.

    The tail-origin head terms are those with no constant and no sign
    alternation whose power of n is at most the summand's: the rest of the
    head comes from the integral of the summand and the constant.
    """
    f = _with_summation_tail(formula)
    _as_count(L, 0, "L")
    out: dict[tuple[int, Fraction], Fraction] = {}
    for part in f.series:
        sigma = 1 if part.shape == AT_X_PLUS_1 else 0
        for l in range(1, L + 1):
            al = part.inner(l)
            if al:
                key = (part.log_power, part.n_power + sigma - (l + 1))
                out[key] = out.get(key, F(0)) + part.prefactor * al
    for t in f.head:
        if not t.constants and t.parity is None and t.n_power <= f.summand.s:
            key = (t.log_power, t.n_power)
            out[key] = out.get(key, F(0)) + t.rational
    return {k: v for k, v in out.items() if v}


def em_reference_map(formula, L: int = 20) -> dict[tuple[int, Fraction], Fraction]:
    """Same map derived independently from the summation tail of the summand."""
    from .asymptotics import LogPowerTerm, em_tail  # imported on use: only here

    f = _with_summation_tail(formula)
    cutoff = _em_cutoff(f, _as_count(L, 0, "L"))
    tail = em_tail([LogPowerTerm(1, f.summand.s, f.summand.m)], L + 8)
    return {(j, e): c for (j, e), c in tail.as_dict().items() if e >= cutoff}
