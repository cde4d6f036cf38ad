"""Exact integer/rational substrate: Stirling numbers of the first kind and
the combinatorial number families (Bernoulli, Euler, tangent, Gregory,
Stirling-series, extended double factorials). Stirling rows serve the public
API, ``gregory_number``, ``stirling_a`` and the transform's reference test,
not the catalog's formulas. The first 300 stay cached: the exactnum, transform
and acceptance tests took 3.5-4.5 s with that cache and 10.6-13.9 s without.

All values are exact: ``int`` or canonical :class:`fractions.Fraction`
(reduced, positive denominator, zero as 0/1). Caches are append-only.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "DomainError",
    "ExactRational",
    "stirling_first",
    "stirling_row",
    "bernoulli",
    "euler_number",
    "tangent_number",
    "gregory_number",
    "stirling_a",
    "double_factorial_ext",
]

# Canonical exact-rational type. Fraction already enforces the invariants we
# need: gcd-reduced, denominator >= 1, zero stored as 0/1.
ExactRational = Fraction


class DomainError(ValueError):
    """An argument is outside an operation's mathematical domain."""


class _Frozen:
    """Base of the package's immutable value classes. Each writes its slots
    once, in ``__init__``, through :meth:`_fill`; assigning a field later
    raises ``AttributeError``. ``copy`` and ``pickle`` restore the slots
    through :meth:`_fill` too."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # The slots in the order _fill writes them: the class's own first,
        # then each base's along the MRO (so _Keyed's ``key`` comes last).
        super().__init_subclass__(**kwargs)
        slots = [(c, name) for c in cls.__mro__ for name in vars(c).get("__slots__", ())
                 if name != "__weakref__"]
        cls._fields = tuple(name for _, name in slots)
        cls._setters = tuple(vars(c)[name].__set__ for c, name in slots)

    def _fill(self, *values):
        """Write ``values`` to the slots in ``_fields`` order, one value for
        each slot, through the slots' own member descriptors."""
        for set_, value in zip(self._setters, values):
            set_(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __setstate__(self, state):
        self._fill(*map(state[1].__getitem__, self._fields))


class _Keyed(_Frozen):
    """A value class whose identity is ``key``, filled last in ``__init__``:
    instances of one class with equal keys are equal and hash alike, and
    instances of different classes never compare equal."""

    __slots__ = ("key",)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def _as_count(value, minimum: int, name: str = "n") -> int:
    """``value`` itself when it is an int (not a bool) of at least
    ``minimum``; otherwise DomainError. The one check of every count the
    public API takes: n, n0, digits, guard, max_terms, k, K, L, the exact
    number functions' indices and every log power."""
    # a plain int passes on the class test alone, at half the isinstance tests' cost
    if value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


# ---------------------------------------------------------------------------
# Signed Stirling numbers of the first kind
# ---------------------------------------------------------------------------
#
# Row recurrence: S_{k+1}(l) = S_k(l-1) - k*S_k(l), with S_0(0) = 1.
# Rows up to _ROW_CACHE_LIMIT are cached whole; larger rows are streamed from
# the last cached row so a single huge query cannot pin hundreds of megabytes
# of big integers in memory.

_ROW_CACHE_LIMIT = 300
_row_cache: list[tuple[int, ...]] = [(1,)]
_row_lock = threading.Lock()


def _next_row(row: tuple[int, ...], k: int) -> tuple[int, ...]:
    # row is row k (length k+1); produce row k+1.
    prev = (0,) + row
    return tuple(
        prev[l] - k * (row[l] if l <= k else 0) for l in range(k + 2)
    )


def stirling_row(k: int) -> tuple[int, ...]:
    """Row ``k`` of the signed Stirling triangle: entry ``l`` is S_k^(1)(l)."""
    _as_count(k, 0, "k")
    with _row_lock:
        while len(_row_cache) <= min(k, _ROW_CACHE_LIMIT):
            kk = len(_row_cache) - 1
            _row_cache.append(_next_row(_row_cache[-1], kk))
        if k < len(_row_cache):
            return _row_cache[k]
        row = _row_cache[-1]
        kk = len(_row_cache) - 1
    while kk < k:
        row = _next_row(row, kk)
        kk += 1
    return row


def stirling_first(k: int, l: int) -> int:
    """Signed Stirling number of the first kind S_k^(1)(l).

    These are the connection coefficients between rising factorials and plain
    powers: x(x+1)...(x+k-1) = (-1)^k * sum_l (-1)^l S_k^(1)(l) x^l.
    """
    _as_count(k, 0, "k")
    if _as_count(l, 0, "l") > k:
        raise DomainError(f"column {l} exceeds row {k}")
    return stirling_row(k)[l]


# ---------------------------------------------------------------------------
# Zigzag (up/down) numbers via the Seidel boustrophedon triangle
# ---------------------------------------------------------------------------
#
# One integer-only triangle yields both number families the catalog leans on:
# Z_{2m} is the m-th secant number |E_{2m}| and Z_{2m-1} the m-th tangent
# number.  Each new row costs only big-integer additions, which keeps the fill
# cheap even for the few-thousand-index runs that high-precision recovery
# needs (the textbook binomial recurrences go quadratic in `comb` calls of
# huge arguments instead).

_zigzag_values: list[int] = [1]  # Z_0, Z_1, ...
_zigzag_row: list[int] = [1]  # Entringer row for the last filled index
_zigzag_lock = threading.Lock()


def _zigzag(n: int) -> int:
    global _zigzag_row
    with _zigzag_lock:
        while len(_zigzag_values) <= n:
            m = len(_zigzag_values)
            prev = _zigzag_row
            row = [0] * (m + 1)
            acc = 0
            for j in range(1, m + 1):
                acc += prev[m - j]
                row[j] = acc
            _zigzag_row = row
            _zigzag_values.append(acc)
        return _zigzag_values[n]


# ---------------------------------------------------------------------------
# Bernoulli numbers, convention B_1 = -1/2 (coefficients of x/(e^x - 1))
# ---------------------------------------------------------------------------


def bernoulli(k: int) -> Fraction:
    """B_k with B_0 = 1, B_1 = -1/2; odd indices >= 3 vanish.

    Even indices come from the tangent numbers,
    B_2m = (-1)^(m+1) 2m Z_{2m-1} / (2^2m (2^2m - 1)).
    """
    if _as_count(k, 0, "k") == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    m = k // 2
    p = 1 << k
    sign = 1 if m % 2 else -1
    return Fraction(sign * k * _zigzag(k - 1), p * (p - 1))


# ---------------------------------------------------------------------------
# Euler numbers (integer, sech convention: 2 e^x / (e^{2x} + 1))
# ---------------------------------------------------------------------------


def euler_number(k: int) -> int:
    """E_k with E_0 = 1; odd indices vanish, E_2 = -1, E_4 = 5, ..."""
    if _as_count(k, 0, "k") % 2:
        return 0
    sign = -1 if (k // 2) % 2 else 1
    return sign * _zigzag(k)


def tangent_number(k: int) -> Fraction:
    """T_k = 2^(2k) (2^(2k) - 1) |B_2k| / (2k); a positive integer for k >= 1."""
    p = 1 << 2 * _as_count(k, 1, "k")
    return Fraction(p * (p - 1)) * abs(bernoulli(2 * k)) / (2 * k)


def gregory_number(k: int) -> Fraction:
    """C_k = (1/k!) sum_{l=0}^{k} S_k^(1)(l) / (l+1).

    Equivalently the integral over [0, 1] of the degree-k falling factorial
    divided by k!; these are the coefficients of z/log(1+z).
    """
    row = stirling_row(_as_count(k, 0, "k"))
    acc = sum(Fraction(row[l], l + 1) for l in range(k + 1))
    return acc / math.factorial(k)


def stirling_a(k: int) -> Fraction:
    """The k-th coefficient of the convergent factorial-series form of
    Stirling's n! approximation: a_1 = 1/12, a_2 = 1/12, a_3 = 59/360, ...
    """
    row = stirling_row(_as_count(k, 1, "k"))
    acc = sum(
        (-1) ** l * Fraction(l, (l + 1) * (l + 2)) * row[l]
        for l in range(1, k + 1)
    )
    return Fraction((-1) ** k, 2 * k) * acc


_odd_double_factorials = [1]  # (2j-1)!! at index j, from (-1)!! = 1; append-only
_odd_double_factorial_lock = threading.Lock()


def double_factorial_ext(m: int) -> Fraction:
    """Double factorial on odd integers, extended to negative arguments.

    For m >= -1 this is the usual m!! (with (-1)!! = 1). For m = -(2j+1),
    j >= 1, the value is (-1)^j / (2j-1)!! — the unique continuation under
    (m+2)!! = (m+2) * m!!. Each (2j-1)!! is kept once computed, so a call
    multiplies only the factors past the largest one asked for so far.
    """
    if _as_count(m, -math.inf, "m") % 2 == 0:
        raise DomainError(f"argument must be odd, got {m}")
    j = (m + 1) // 2 if m >= -1 else (-m - 1) // 2
    with _odd_double_factorial_lock:
        table = _odd_double_factorials
        while len(table) <= j:
            table.append(table[-1] * (2 * len(table) - 1))
        value = table[j]
    return Fraction(value) if m >= -1 else Fraction((-1) ** j, value)
