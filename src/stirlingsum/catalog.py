"""The catalog of 16 summation-formula families (32 printed variants).

Each variant pairs a classical partial sum (harmonic numbers, zeta partial
sums, root sums, log-weighted sums, alternating sums) with a closed *head*
(elementary terms plus constants) and one or two convergent inverse-factorial
*series parts* whose exact inner coefficients are recorded in closed form.

Evaluation anchors the series at ``max(n, digits + 10)`` — where the
factorial terms decay fast enough for the stop rule — and bridges back to the
requested ``n`` with exact summand terms, so every formula serves its whole
domain at full precision.  The same machinery runs in reverse for constant
recovery: brute-force partial sum minus known head terms minus the convergent
tail isolates the one unknown constant.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_pow, round_nearest

from . import constants as _constants
from .asymptotics import ALT_HARMONIC, GREGORY_LEIBNIZ, LogPowerTerm, boole_tail, em_tail
from .constants import (
    ConstantId,
    ELEMENTARY_IDS,
    GAMMA,
    LOG2,
    LOG_2PI,
    LOG_PI,
    PI,
    STIELTJES1,
    zeta,
    zeta_prime,
)
from .exactnum import DomainError, bernoulli, double_factorial_ext, stirling_first
from .transform import (
    AT_X,
    AT_X_PLUS_1,
    EvalContext,
    EvaluationReport,
    InnerCoefficients,
    NonConvergenceError,
    _PRECISION_LOCK,
    _to_mpf,
    eval_stirling_series,
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

VARIANT_COUNTS = {
    1: 2, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3, 7: 2, 8: 2,
    9: 2, 10: 3, 11: 2, 12: 1, 13: 1, 14: 1, 15: 2, 16: 1,
}

BRUTE_FORCE_CAP = 10**7
_EXACT_SUM_LIMIT = 20000


@dataclass(frozen=True, order=True)
class FormulaId:
    """Identity ``<family>.<variant>`` mirroring the catalog numbering."""

    family: int
    variant: int = 1

    def __post_init__(self) -> None:
        count = VARIANT_COUNTS.get(self.family)
        if count is None:
            raise DomainError(f"unknown formula family {self.family}")
        if not 1 <= self.variant <= count:
            raise DomainError(
                f"family {self.family} has variants 1..{count}, got {self.variant}"
            )

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


@dataclass(frozen=True)
class HeadTerm:
    """rational * (n + base_offset)^n_power * log(n)^log_power * constants.

    ``constants`` is a product of (ConstantId, integer exponent) pairs;
    ``parity`` of 0/1 multiplies by (-1)^n / (-1)^(n+1).
    """

    rational: Fraction
    n_power: Fraction = F(0)
    log_power: int = 0
    constants: tuple[tuple[ConstantId, int], ...] = ()
    parity: int | None = None
    base_offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rational", F(self.rational))
        object.__setattr__(self, "n_power", F(self.n_power))
        if self.log_power < 0:
            raise DomainError("log_power must be >= 0")


@dataclass(frozen=True)
class SeriesPart:
    """prefactor * n^n_power * log(n)^log_power * sum_k c_k / D_k(n + x_offset).

    ``shape`` picks the denominator start (x... or x+1...); the exact inner
    inverse-power coefficients generate c_k through the transformation.
    """

    inner: InnerCoefficients
    prefactor: Fraction
    n_power: Fraction = F(0)
    log_power: int = 0
    shape: str = AT_X
    x_offset: int = 0
    parity: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefactor", F(self.prefactor))
        object.__setattr__(self, "n_power", F(self.n_power))


@dataclass(frozen=True)
class Summand:
    """(-1)^(k+parity) * y^s * log(y)^m at y = scale*k + shift.

    The term the left-hand side sums over k; ``parity`` None means no sign
    alternation.
    """

    s: Fraction
    m: int = 0
    parity: int | None = None
    scale: int = 1
    shift: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", F(self.s))


_LOG_K = Summand(0, 1)


@dataclass(frozen=True)
class Formula:
    """sum_{k=summand_start}^{n} summand(k) = head(n) + sum of series parts(n).

    The four fields after ``series`` are derived from the others once, at
    construction.
    """

    id: FormulaId
    lhs: str
    summand: Summand
    summand_start: int
    head: tuple[HeadTerm, ...]
    series: tuple[SeriesPart, ...]
    domain_min: int = field(init=False)
    alternating: bool = field(init=False)
    constants: tuple[ConstantId, ...] = field(init=False)  # first-appearance order
    recover_target: ConstantId = field(init=False)

    def __post_init__(self) -> None:
        def set_(name, value):
            object.__setattr__(self, name, value)

        set_("domain_min", self.summand_start)
        set_("alternating", self.summand.parity is not None)
        set_("constants", tuple(dict.fromkeys(c for t in self.head for c, _ in t.constants)))
        set_("recover_target", next(c for c in self.constants if _isolates(self, c)))


def _isolating_term(f: Formula, target: ConstantId) -> HeadTerm:
    """The one head term holding ``target``, linearly and with no n factor."""
    hits = [t for t in f.head if any(c == target for c, _ in t.constants)]
    if len(hits) != 1:
        raise DomainError(f"{target} does not appear in exactly one head term of {f.id}")
    term = hits[0]
    power = next(p for c, p in term.constants if c == target)
    if power != 1 or term.n_power or term.log_power or term.parity is not None:
        raise DomainError(f"{target} cannot be isolated linearly in {f.id}")
    return term


def _isolates(f: Formula, target: ConstantId) -> bool:
    try:
        _isolating_term(f, target)
    except DomainError:
        return False
    return True


# ---------------------------------------------------------------------------
# Inner coefficient closed forms
# ---------------------------------------------------------------------------


def _inner(fn) -> InnerCoefficients:
    return InnerCoefficients(fn=fn)


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

    return _inner(fn)


_harmonic_numbers = [F(0)]  # H_0, H_1, ...; append-only
_harmonic_lock = threading.Lock()


def _weighted_harmonic(l: int) -> Fraction:
    # sum_{m=0}^{l-1} (m+1)/(l-m) = (l+1) H_l - l, the inner weight of the
    # third log family
    with _harmonic_lock:
        while len(_harmonic_numbers) <= l:
            _harmonic_numbers.append(_harmonic_numbers[-1] + F(1, len(_harmonic_numbers)))
        h = _harmonic_numbers[l]
    return (l + 1) * h - l


def _plain_log_inner(l: int) -> Fraction:
    return bernoulli(l + 1) * stirling_first(l + 1, 2) / math.factorial(l + 1)


def _plain_log2_inner(l: int) -> Fraction:
    return bernoulli(l + 2) * stirling_first(l + 1, 2) / math.factorial(l + 2)


# ---------------------------------------------------------------------------
# Catalog construction
# ---------------------------------------------------------------------------


def _build_catalog() -> dict[FormulaId, Formula]:
    cat: dict[FormulaId, Formula] = {}

    def add(**kw) -> None:
        f = Formula(**kw)
        cat[f.id] = f

    def ht(rational, n_power=0, log_power=0, constants=(), parity=None, base_offset=0):
        return HeadTerm(
            F(rational), F(n_power), log_power, tuple(constants), parity, base_offset
        )

    def sp(inner, prefactor, n_power=0, log_power=0, shape=AT_X, x_offset=0, parity=None):
        return SeriesPart(
            inner, F(prefactor), F(n_power), log_power, shape, x_offset, parity
        )

    # -- 1: harmonic numbers ------------------------------------------------
    log_n = ht(1, log_power=1)
    gamma_t = ht(1, constants=((GAMMA, 1),))
    add(
        id=FormulaId(1, 1),
        lhs="sum_{k=1}^{n} 1/k",
        summand=Summand(-1),
        summand_start=1,
        head=(log_n, gamma_t, ht(F(1, 2), -1)),
        series=(sp(_inner(lambda l: -bernoulli(l + 1) / (l + 1)), 1),),
    )
    add(
        id=FormulaId(1, 2),
        lhs="sum_{k=1}^{n} 1/k",
        summand=Summand(-1),
        summand_start=1,
        head=(log_n, gamma_t),
        series=(sp(_inner(lambda l: -bernoulli(l) / l), 1, shape=AT_X_PLUS_1),),
    )

    # -- 2: partial sums of 1/k^2 -------------------------------------------
    z2 = ht(1, constants=((zeta(2), 1),))
    add(
        id=FormulaId(2, 1),
        lhs="sum_{k=1}^{n} 1/k^2",
        summand=Summand(-2),
        summand_start=1,
        head=(z2, ht(-1, -1), ht(F(1, 2), -2)),
        series=(sp(_inner(lambda l: -bernoulli(l + 1)), 1, -1),),
    )
    add(
        id=FormulaId(2, 2),
        lhs="sum_{k=1}^{n} 1/k^2",
        summand=Summand(-2),
        summand_start=1,
        head=(z2, ht(-1, -1)),
        series=(sp(_inner(lambda l: -bernoulli(l)), 1),),
    )

    # -- 3: partial sums of 1/k^3 -------------------------------------------
    z3 = ht(1, constants=((zeta(3), 1),))
    add(
        id=FormulaId(3, 1),
        lhs="sum_{k=1}^{n} 1/k^3",
        summand=Summand(-3),
        summand_start=1,
        head=(z3, ht(F(-1, 2), -2), ht(F(1, 2), -3)),
        series=(sp(_inner(lambda l: -(l + 2) * bernoulli(l + 1)), F(1, 2), -2),),
    )
    add(
        id=FormulaId(3, 2),
        lhs="sum_{k=1}^{n} 1/k^3",
        summand=Summand(-3),
        summand_start=1,
        head=(z3, ht(F(-1, 2), -2)),
        series=(sp(_inner(lambda l: -(l + 1) * bernoulli(l)), F(1, 2), -1),),
    )

    # -- 4, 5, 6: sums of k^(1/2), k^(3/2), k^(5/2) --------------------------
    # (head constant is the zeta value at the reflected argument over pi^j)
    root_families = [
        # family, power, lead coef, const coef, (pi, zeta) powers, prefactor,
        # variant tuples: (inner args, extra head terms, part n_power)
        (
            4,
            F(1, 2),
            F(2, 3),
            F(-1, 4),
            (-1, F(3, 2)),
            F(1),
            [
                ((1, -3, 0, 1, 1), ((F(1, 2), F(1, 2)),), F(1, 2)),
                ((1, -1, 1, 2, 2), ((F(1, 2), F(1, 2)), (F(1, 24), F(-1, 2))), F(-1, 2)),
                ((1, -5, -1, 0, 0), (), F(3, 2)),
            ],
        ),
        (
            5,
            F(3, 2),
            F(2, 5),
            F(-3, 16),
            (-2, F(5, 2)),
            F(3, 2),
            [
                ((-1, -5, -1, 1, 1), ((F(1, 2), F(3, 2)),), F(3, 2)),
                ((-1, -1, 1, 3, 3), ((F(1, 2), F(3, 2)), (F(1, 8), F(1, 2))), F(-1, 2)),
                ((-1, -7, -2, 0, 0), (), F(5, 2)),
            ],
        ),
        (
            6,
            F(5, 2),
            F(2, 7),
            F(15, 64),
            (-3, F(7, 2)),
            F(15, 4),
            [
                ((1, -7, -2, 1, 1), ((F(1, 2), F(5, 2)),), F(5, 2)),
                ((1, -1, 1, 4, 4),
                 ((F(1, 2), F(5, 2)), (F(5, 24), F(3, 2)), (F(-1, 384), F(-1, 2))),
                 F(-1, 2)),
                ((1, -9, -3, 0, 0), (), F(7, 2)),
            ],
        ),
    ]
    for family, power, lead, ccoef, (pi_pow, zs), pref, variants in root_families:
        zc = zeta(zs)
        base_head = [
            ht(lead, power + 1),
            ht(ccoef, constants=((PI, pi_pow), (zc, 1))),
        ]
        for v, (root_args, extras, part_power) in enumerate(variants, 1):
            head = list(base_head) + [ht(c, p) for c, p in extras]
            add(
                id=FormulaId(family, v),
                lhs=f"sum_{{k=0}}^{{n}} k^({power})",
                summand=Summand(power),
                summand_start=0,
                head=tuple(head),
                series=(sp(_root_inner(*root_args), pref, part_power,
                           shape=AT_X_PLUS_1),),
            )

    # -- 7, 8, 9: sums of k^(-1/2), k^(-3/2), k^(-5/2) -----------------------
    z12, z32, z52 = zeta(F(1, 2)), zeta(F(3, 2)), zeta(F(5, 2))
    add(
        id=FormulaId(7, 1),
        lhs="sum_{k=1}^{n} k^(-1/2)",
        summand=Summand(F(-1, 2)),
        summand_start=1,
        head=(ht(2, F(1, 2)), ht(1, constants=((z12, 1),)), ht(F(1, 2), F(-1, 2))),
        series=(sp(_root_inner(-1, -1, 0, 1, 1), 1, F(-1, 2), shape=AT_X_PLUS_1),),
    )
    add(
        id=FormulaId(7, 2),
        lhs="sum_{k=1}^{n} k^(-1/2)",
        summand=Summand(F(-1, 2)),
        summand_start=1,
        head=(ht(2, F(1, 2)), ht(1, constants=((z12, 1),))),
        series=(sp(_root_inner(-1, -3, -1, 0, 0), 1, F(1, 2), shape=AT_X_PLUS_1),),
    )
    add(
        id=FormulaId(8, 1),
        lhs="sum_{k=1}^{n} k^(-3/2)",
        summand=Summand(F(-3, 2)),
        summand_start=1,
        head=(ht(1, constants=((z32, 1),)), ht(-2, F(-1, 2)), ht(F(1, 2), F(-3, 2))),
        series=(sp(_root_inner(-1, 1, 1, 1, 1), 2, F(-1, 2)),),
    )
    add(
        id=FormulaId(8, 2),
        lhs="sum_{k=1}^{n} k^(-3/2)",
        summand=Summand(F(-3, 2)),
        summand_start=1,
        head=(ht(1, constants=((z32, 1),)), ht(-2, F(-1, 2))),
        series=(sp(_root_inner(-1, -1, 0, 0, 0), 2, F(-1, 2), shape=AT_X_PLUS_1),),
    )
    add(
        id=FormulaId(9, 1),
        lhs="sum_{k=1}^{n} k^(-5/2)",
        summand=Summand(F(-5, 2)),
        summand_start=1,
        head=(ht(1, constants=((z52, 1),)), ht(F(-2, 3), F(-3, 2)), ht(F(1, 2), F(-5, 2))),
        series=(sp(_root_inner(-1, 3, 2, 1, 1), F(4, 3), F(-3, 2)),),
    )
    add(
        id=FormulaId(9, 2),
        lhs="sum_{k=1}^{n} k^(-5/2)",
        summand=Summand(F(-5, 2)),
        summand_start=1,
        head=(ht(1, constants=((z52, 1),)), ht(F(-2, 3), F(-3, 2))),
        series=(sp(_root_inner(-1, 1, 1, 0, 0), F(4, 3), F(-1, 2)),),
    )

    # -- 10: log(n!) — convergent Stirling's formula --------------------------
    stirling_head = (
        ht(1, 1, log_power=1),
        ht(-1, 1),
        ht(F(1, 2), constants=((LOG_2PI, 1),)),
        ht(F(1, 2), log_power=1),
    )
    add(
        id=FormulaId(10, 1),
        lhs="log(n!) = sum_{k=1}^{n} log(k)",
        summand=_LOG_K,
        summand_start=1,
        head=stirling_head,
        series=(sp(_inner(lambda l: bernoulli(l + 1) / (l * (l + 1))), 1,
                   shape=AT_X_PLUS_1),),
    )
    add(
        id=FormulaId(10, 2),
        lhs="log(n!) = sum_{k=1}^{n} log(k)",
        summand=_LOG_K,
        summand_start=1,
        head=stirling_head + (ht(F(1, 12), -1),),
        series=(sp(_inner(lambda l: bernoulli(l + 2) / ((l + 1) * (l + 2))), 1),),
    )
    add(
        id=FormulaId(10, 3),
        lhs="log(n!) = sum_{k=1}^{n} log(k)",
        summand=_LOG_K,
        summand_start=1,
        head=stirling_head,
        series=(sp(_inner(lambda l: F(0) if l == 1 else bernoulli(l) / (l * (l - 1))),
                   1, 1, shape=AT_X_PLUS_1),),
    )

    # -- 11: sum k*log(k) ------------------------------------------------------
    zp1 = zeta_prime(-1)
    head11 = (
        ht(F(1, 2), 2, log_power=1),
        ht(F(-1, 4), 2),
        ht(F(1, 2), 1, log_power=1),
        ht(F(1, 12), log_power=1),
        ht(F(1, 12)),
        ht(-1, constants=((zp1, 1),)),
    )
    add(
        id=FormulaId(11, 1),
        lhs="sum_{k=1}^{n} k*log(k)",
        summand=Summand(1, 1),
        summand_start=1,
        head=head11,
        series=(sp(_inner(lambda l: -bernoulli(l + 2) / (l * (l + 1) * (l + 2))), 1,
                   shape=AT_X_PLUS_1),),
    )
    add(
        id=FormulaId(11, 2),
        lhs="sum_{k=1}^{n} k*log(k)",
        summand=Summand(1, 1),
        summand_start=1,
        head=head11,
        series=(sp(_inner(lambda l: -bernoulli(l + 3) / ((l + 1) * (l + 2) * (l + 3))),
                   1),),
    )

    # -- 12, 13, 14: log-weighted sums (two series parts each) ----------------
    add(
        id=FormulaId(12, 1),
        lhs="sum_{k=1}^{n} log(k)/k",
        summand=Summand(-1, 1),
        summand_start=1,
        head=(
            ht(F(1, 2), log_power=2),
            ht(1, constants=((STIELTJES1, 1),)),
            ht(F(1, 2), -1, log_power=1),
        ),
        series=(
            sp(_inner(_plain_log_inner), 1),
            sp(_inner(lambda l: F(-1) ** l * bernoulli(l + 1) / (l + 1)), 1,
               log_power=1),
        ),
    )
    zp2 = zeta_prime(2)
    add(
        id=FormulaId(13, 1),
        lhs="sum_{k=1}^{n} log(k)/k^2",
        summand=Summand(-2, 1),
        summand_start=1,
        head=(
            ht(-1, constants=((zp2, 1),)),
            ht(-1, -1, log_power=1),
            ht(-1, -1),
            ht(F(1, 2), -2, log_power=1),
        ),
        series=(
            sp(_inner(lambda l: F(-1) ** (l + 1) * _weighted_harmonic(l)
                      * bernoulli(l + 1) / (l + 1)), 1, -1),
            sp(_inner(lambda l: F(-1) ** l * bernoulli(l + 1)), 1, -1, log_power=1),
        ),
    )
    add(
        id=FormulaId(14, 1),
        lhs="sum_{k=1}^{n} log(k)^2",
        summand=Summand(0, 2),
        summand_start=1,
        head=(
            ht(1, 1, log_power=2),
            ht(-2, 1, log_power=1),
            ht(2, 1),
            ht(F(1, 2), log_power=2),
            ht(F(1, 6), -1, log_power=1),
            ht(F(1, 2), constants=((GAMMA, 2),)),
            ht(F(-1, 24), constants=((PI, 2),)),
            ht(F(-1, 2), constants=((LOG2, 2),)),
            ht(-1, constants=((LOG2, 1), (LOG_PI, 1))),
            ht(F(-1, 2), constants=((LOG_PI, 2),)),
            ht(1, constants=((STIELTJES1, 1),)),
        ),
        series=(
            sp(_inner(_plain_log2_inner), 2),
            sp(_inner(lambda l: F(-1) ** l * bernoulli(l + 2) / ((l + 1) * (l + 2))),
               2, log_power=1),
        ),
    )

    # -- 15, 16: alternating sums (Boole side) ---------------------------------
    leibniz_inner = boole_tail(GREGORY_LEIBNIZ, 20)
    add(
        id=FormulaId(15, 1),
        lhs="sum_{k=0}^{n} (-1)^k/(2k+1)",
        summand=Summand(-1, parity=0, scale=2, shift=1),
        summand_start=0,
        head=(
            ht(F(1, 4), constants=((PI, 1),)),
            ht(F(1, 4), -1, parity=0, base_offset=1),
        ),
        series=(sp(leibniz_inner, F(1, 4), x_offset=1, parity=1),),
    )
    add(
        id=FormulaId(15, 2),
        lhs="sum_{k=1}^{n} (-1)^(k+1)/(2k-1)",
        summand=Summand(-1, parity=1, scale=2, shift=-1),
        summand_start=1,
        head=(
            ht(F(1, 4), constants=((PI, 1),)),
            ht(F(-1, 4), -1, parity=0),
        ),
        series=(sp(leibniz_inner, F(1, 4), parity=0),),
    )
    add(
        id=FormulaId(16, 1),
        lhs="sum_{k=1}^{n} (-1)^(k+1)/k",
        summand=Summand(-1, parity=1),
        summand_start=1,
        head=(
            ht(1, constants=((LOG2, 1),)),
            ht(F(-1, 2), -1, parity=0),
        ),
        series=(sp(boole_tail(ALT_HARMONIC, 20), 1, parity=0),),
    )

    return cat


_CATALOG = _build_catalog()


def formula_ids() -> tuple[FormulaId, ...]:
    return tuple(sorted(_CATALOG))


def describe(formula) -> Formula:
    return _CATALOG[FormulaId.parse(formula)]


# ---------------------------------------------------------------------------
# Exact coefficients and goldens
# ---------------------------------------------------------------------------


def coefficients(formula, K: int) -> tuple[Fraction, ...]:
    """Printed Stirling coefficients of the plain series part: prefactor * c_k."""
    return part_coefficients(formula, K, log_power=0)


def part_coefficients(formula, K: int, log_power: int = 0) -> tuple[Fraction, ...]:
    f = describe(formula)
    if K < 1:
        raise DomainError(f"need K >= 1, got {K}")
    for part in f.series:
        if part.log_power == log_power:
            c = weniger_transform(part.inner, K)
            return tuple(part.prefactor * v for v in c.values)
    raise DomainError(f"{f.id} has no series part with log power {log_power}")


def golden_coefficients(formula, log_power: int = 0) -> tuple[Fraction, ...]:
    """The printed coefficients recorded in the golden data files."""
    fid = FormulaId.parse(formula)
    suffix = ".log" if log_power else ""
    name = f"{fid}{suffix}.txt"
    try:
        text = (
            resources.files("stirlingsum").joinpath(f"data/golden/{name}").read_text("ascii")
        )
    except FileNotFoundError:
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
    f = describe(formula)
    for part in f.series:
        if part.log_power == log_power:
            break
    else:
        raise DomainError(f"{f.id} has no series part with log power {log_power}")
    x = n + part.x_offset
    if x < 1:
        raise DomainError(f"need n + offset >= 1, got {x}")
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


def _summand_sum(f: Formula, lo: int, hi: int) -> mpf:
    """The summand of ``f`` summed over k = lo+1..hi, at the current precision.

    The path follows the summand's shape: up to ``_EXACT_SUM_LIMIT``, an exact
    Fraction sum for an integer power without a log and log(hi!/lo!) for
    log k; mp.fsum of the terms otherwise.
    """
    u = f.summand
    if hi <= lo:
        return mpf(0)
    ys = range(u.scale * (lo + 1) + u.shift, u.scale * hi + u.shift + 1, u.scale)
    s = u.s.numerator if u.s.denominator == 1 else None
    if hi <= _EXACT_SUM_LIMIT:
        if s is not None and not u.m:
            terms = (F(sg, y**-s) if s < 0 else F(sg * y**s)
                     for y, sg in zip(ys, _signs(u, lo)))
            return _to_mpf(sum(terms, F(0)))
        if u == _LOG_K:
            return mp.log(mpf(math.prod(ys)))
    # Per term, converting the exponent or dispatching through mp.power would
    # cost as much as the power itself: convert it once and call libmp's
    # mpf_pow directly. Integer powers of y beside a log stay exact.
    exponent, prec = _to_mpf(u.s)._mpf_, mp.prec
    powers = (mp.make_mpf(mpf_pow(from_int(y), exponent, prec, round_nearest)) for y in ys)
    if not u.m:
        terms = powers
    else:
        logs = map(mp.log, ys) if u.m == 1 else (mp.log(y) ** u.m for y in ys)
        if s is None:
            terms = (v * w for v, w in zip(logs, powers))
        else:
            terms = (v * y**s if s > 0 else v / y**-s if s else v for v, y in zip(logs, ys))
    if u.parity is not None:
        terms = (t if sg > 0 else -t for t, sg in zip(terms, _signs(u, lo)))
    return mp.fsum(terms)


def brute_force(formula, n: int, digits: int = 30) -> mpf:
    """Direct summation of the left-hand side (the oracle for everything else)."""
    f = describe(formula)
    n = _as_count(n, f.domain_min)
    if n > BRUTE_FORCE_CAP:
        raise DomainError(f"n={n} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    if digits < 1:
        raise DomainError(f"need digits >= 1, got {digits}")
    with _PRECISION_LOCK, mp.workdps(digits + 10):
        return _summand_sum(f, f.summand_start - 1, n)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _as_count(n, minimum: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < minimum:
        raise DomainError(f"need n >= {minimum}, got {n}")
    return n


def _parity_factor(n: int, parity: int | None) -> int:
    if parity is None:
        return 1
    return -1 if (n + parity) % 2 else 1


def _headroom(f: Formula, anchor: int) -> int:
    powers = [t.n_power for t in f.head] + [p.n_power for p in f.series]
    top = max(powers) if powers else F(0)
    if top <= 0:
        return 6
    return math.ceil(float(top) * math.log10(anchor + 1)) + 6


def _fetch_constants(
    f: Formula, store, cdigits: int, exclude: ConstantId | None = None
) -> dict[ConstantId, mpf]:
    # constants are fetched before entering the precision lock so that the
    # per-constant store locks are never acquired inside it
    return {
        cid: store.get(cid, cdigits) for cid in f.constants if cid != exclude
    }


def _head_value(
    f: Formula,
    n: int,
    cvalues: dict[ConstantId, mpf],
    skip: HeadTerm | None = None,
):
    nv = mpf(n)
    logn = mp.log(nv) if any(t.log_power for t in f.head) else None
    total = mpf(0)
    for t in f.head:
        if t is skip:
            continue
        v = _to_mpf(t.rational)
        if t.n_power:
            v *= mp.power(nv + t.base_offset, _to_mpf(t.n_power))
        if t.log_power:
            v *= logn**t.log_power
        for cid, p in t.constants:
            v *= cvalues[cid] ** p
        total += v * _parity_factor(n, t.parity)
    return total


def _part_scale(part: SeriesPart, n: int):
    v = _to_mpf(part.prefactor)
    if part.n_power:
        v *= mp.power(mpf(n), _to_mpf(part.n_power))
    if part.log_power:
        v *= mp.log(mpf(n)) ** part.log_power
    return v * _parity_factor(n, part.parity)


# Fallback precision for head constants when an evaluation asks for more than
# constant recovery can deliver; comfortably inside the default 500-term reach.
_DEGRADED_CONSTANT_DIGITS = 120


def evaluate(formula, n: int, ctx: EvalContext | None = None, store=None) -> EvaluationReport:
    """Right-hand-side value of the formula at n: the partial sum it equals.

    The series is evaluated at the anchor max(n, digits + 10), where the
    factorial terms decay fast enough; exact summand terms bridge the anchor
    back down to n.  The report aggregates part term counts and carries the
    largest scaled twice-first-omitted-term estimate across parts.
    """
    f = describe(formula)
    ctx = ctx or EvalContext()
    store = store or _constants.default_store()
    n = _as_count(n, f.domain_min)
    t0 = time.perf_counter()
    anchor = max(n, ctx.digits + 10)
    hr = _headroom(f, anchor)
    wd = ctx.digits + ctx.guard + hr
    cdigits = ctx.digits + ctx.guard
    part_ctx = EvalContext(
        digits=ctx.digits + hr,
        guard=ctx.guard,
        max_terms=ctx.max_terms,
        stop_rule=ctx.stop_rule,
    )
    failure = None
    try:
        cvalues = _fetch_constants(f, store, cdigits)
    except NonConvergenceError:
        # Head constants past recovery reach: degrade them to a precision the
        # default recovery budget always serves, so the partial report still
        # carries a genuine (if shallow) value, and fail the evaluation.
        cvalues = _fetch_constants(f, store, min(cdigits, _DEGRADED_CONSTANT_DIGITS))
        failure = (
            f"head constants past recovery reach, served at "
            f"{_DEGRADED_CONSTANT_DIGITS} digits (requested {cdigits})"
        )
    with _PRECISION_LOCK, mp.workdps(wd):
        total = _head_value(f, anchor, cvalues) - _summand_sum(f, n, anchor)
        terms_used = 0
        est = mpf(0)
        if failure is not None:
            est = mpf(10) ** (2 - _DEGRADED_CONSTANT_DIGITS)
        for part in f.series:
            scale = _part_scale(part, anchor)
            try:
                rep = eval_stirling_series(
                    part.inner, anchor + part.x_offset, part.shape, part_ctx
                )
            except NonConvergenceError as exc:
                rep = exc.report
                failure = str(exc) if failure is None else f"{failure}; {exc}"
            total += scale * rep.value
            terms_used += rep.terms_used
            est = max(est, abs(scale) * rep.est_error)
    report = EvaluationReport(
        value=total,
        terms_used=terms_used,
        est_error=est,
        precision_used=wd,
        elapsed=time.perf_counter() - t0,
    )
    if failure is not None:
        raise NonConvergenceError(f"{f.id} at n={n}: {failure}", report)
    return report


# ---------------------------------------------------------------------------
# Constant recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryResult:
    constant: ConstantId
    value: mpf
    n0: int
    digits: int
    terms_used: int


def _recovery_target(f: Formula, store) -> ConstantId:
    unknown = [
        c
        for c in f.constants
        if c not in ELEMENTARY_IDS and store.cached_digits(c) == 0
    ]
    if not unknown:
        return f.recover_target
    if len(unknown) == 1:
        return unknown[0]
    names = ", ".join(str(c) for c in unknown)
    raise DomainError(
        f"{f.id} head has several unknown constants ({names}); "
        "cache all but one first"
    )


# Hard ceilings on per-run term budgets. Past a couple thousand terms each
# run costs minutes in huge-integer row updates, so a target needing more is
# better refused quickly than ground out; the pre-flight inside the series
# evaluator does the refusing. Recovery gets the lower ceiling because its
# anchor ladder can trade a higher n0 for fewer terms; digamma has no such
# ladder and keeps more headroom for deep small-x calls.
_RECOVERY_TERM_CEILING = 1400
_DIGAMMA_TERM_CEILING = 2200


def recover_details(
    formula, digits: int = 30, n0: int | None = None, store=None
) -> RecoveryResult:
    """Solve the formula for its unknown head constant at ``digits`` digits."""
    f = describe(formula)
    if digits < 1:
        raise DomainError(f"need digits >= 1, got {digits}")
    if n0 is not None and n0 < 2:
        raise DomainError(f"need n0 >= 2, got {n0}")
    store = store or _constants.default_store()
    target = _recovery_target(f, store)
    term = _isolating_term(f, target)
    guard = 10 + math.ceil(digits / 10)
    cdigits = digits + guard
    cvalues = _fetch_constants(f, store, cdigits, exclude=target)
    current = n0 if n0 is not None else digits + 10
    current = max(current, f.domain_min + 1, 2)
    # Raising the anchor past a few multiples of the digit target only trades
    # term count for enormous exact partial sums, so the ladder gives up there.
    n0_max = max(4 * digits + 200, 2 * current)
    for attempt in range(8):
        hr = _headroom(f, current)
        part_ctx = EvalContext(
            digits=digits + hr,
            guard=guard,
            max_terms=max(500, min(4 * digits + 120, _RECOVERY_TERM_CEILING)),
            stop_rule=3,
        )
        try:
            with _PRECISION_LOCK, mp.workdps(digits + guard + hr):
                # series first: it is the part that can refuse, and the exact
                # partial sum below gets expensive at the large n0 this ladder
                # can reach
                tail = mpf(0)
                terms_used = 0
                for part in f.series:
                    rep = eval_stirling_series(
                        part.inner, current + part.x_offset, part.shape, part_ctx
                    )
                    tail += _part_scale(part, current) * rep.value
                    terms_used += rep.terms_used
                residue = (
                    _summand_sum(f, f.summand_start - 1, current)
                    - _head_value(f, current, cvalues, skip=term)
                    - tail
                )
                coef = _to_mpf(term.rational)
                for cid, p in term.constants:
                    if cid != target:
                        coef *= cvalues[cid] ** p
                value = residue / coef
            return RecoveryResult(
                constant=target,
                value=value,
                n0=current,
                digits=digits,
                terms_used=terms_used,
            )
        except NonConvergenceError:
            nxt = current * 8 // 5 + 10
            if attempt == 7 or nxt > n0_max:
                raise
            current = nxt
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------


def digamma_details(x, digits: int = 30) -> tuple[mpf, int, int]:
    """(psi(x), series terms used, upward shift applied); see :func:`digamma`."""
    if digits < 1:
        raise DomainError(f"need digits >= 1, got {digits}")
    guard = 10 + math.ceil(digits / 10)
    inner = describe("1.1").series[0].inner
    ctx = EvalContext(
        digits=digits + 4,
        guard=guard,
        max_terms=max(500, min(5 * digits + 100, _DIGAMMA_TERM_CEILING)),
    )
    with _PRECISION_LOCK, mp.workdps(digits + guard + 8):
        xv = _to_mpf(x) if isinstance(x, Fraction) else mpf(x)
        if xv <= 0:
            raise DomainError(f"digamma needs x > 0, got {xv}")
        shift = int(mp.ceil(max(mpf(0), digits - xv)))
        y = xv + shift
        rep = eval_stirling_series(inner, y, AT_X, ctx)
        value = mp.log(y) - 1 / (2 * y) + rep.value
        if shift:
            value -= mp.fsum(1 / (xv + i) for i in range(shift))
    return value, rep.terms_used, shift


def digamma(x, digits: int = 30) -> mpf:
    """psi(x) for real x > 0, to ``digits`` decimal digits.

    Small arguments are shifted upward with the exact recurrence
    psi(x) = psi(x+1) - 1/x until the series anchor is at least ``digits``,
    where the inverse-factorial tail converges in a few hundred terms.
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
    f = _with_summation_tail(formula)
    cutoff = _em_cutoff(f, L)
    tail = em_tail([LogPowerTerm(1, f.summand.s, f.summand.m)], L + 8)
    return {(j, e): c for (j, e), c in tail.as_dict().items() if e >= cutoff}
