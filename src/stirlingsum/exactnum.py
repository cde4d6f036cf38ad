"""Exact integer/rational substrate: Stirling numbers of the first kind and
the combinatorial number families (Bernoulli, Euler, tangent, Gregory,
Stirling-series, extended double factorials). Stirling rows serve the public
API, ``gregory_number``, ``stirling_a`` and the transform's reference test,
not the catalog's formulas. The first 300 stay cached: the exactnum, transform
and acceptance tests took 3.5-4.5 s with that cache and 10.6-13.9 s without.

All values are exact: ``int`` or canonical :class:`fractions.Fraction`
(reduced, positive denominator, zero as 0/1). Caches are append-only: each
exact sequence the package keeps is one :class:`_Table`, read with no lock.
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
        slots = [(c, name) for c in cls.__mro__ for name in vars(c).get("__slots__", ())]
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


class _Table:
    """An append-only exact sequence t_0, t_1, ..., filled on demand: the
    package's Stirling rows, zigzag numbers, odd double factorials,
    ``catalog``'s harmonic numbers and each inner's transform coefficients.

    ``values`` is a tuple of the entries so far; a longer tuple replaces it
    as entries are added, so a reader holds a fixed snapshot and needs no
    lock. Entries are added under the table's own lock, one at a time, each
    published as it is made: ``step(values, *args)`` returns the next entry,
    made from the entries so far and any state the step keeps between calls.
    A step never reads its own table (it is given ``values``), since its lock
    is held while it runs; it may read other tables.
    """

    __slots__ = ("values", "step", "_lock")

    def __init__(self, step, first=()):
        self.values, self.step, self._lock = tuple(first), step, threading.Lock()

    def _grow(self, n: int, args: tuple) -> tuple:
        with self._lock:
            values = self.values
            while len(values) < n:
                values += (self.step(values, *args),)
                self.values = values
        return values

    def __getitem__(self, i: int):
        values = self.values
        return (values if i < len(values) else self._grow(i + 1, ()))[i]

    def entry(self, k: int, *args) -> tuple:
        """``(k, t_(k-1))``, passing ``args`` to any step it takes."""
        values = self.values
        return k, (values if k <= len(values) else self._grow(k, args))[k - 1]


# ---------------------------------------------------------------------------
# Signed Stirling numbers of the first kind
# ---------------------------------------------------------------------------
#
# Row recurrence: S_{k+1}(l) = S_k(l-1) - k*S_k(l), with S_0(0) = 1.
# Rows up to _ROW_CACHE_LIMIT are cached whole; larger rows are streamed from
# the last cached row so a single huge query cannot pin hundreds of megabytes
# of big integers in memory.

_ROW_CACHE_LIMIT = 300


def _next_row(row: tuple[int, ...], k: int) -> tuple[int, ...]:
    # row is row k (length k+1); produce row k+1.
    prev = (0,) + row
    return tuple(
        prev[l] - k * (row[l] if l <= k else 0) for l in range(k + 2)
    )


_rows = _Table(lambda rows: _next_row(rows[-1], len(rows) - 1), [(1,)])


def stirling_row(k: int) -> tuple[int, ...]:
    """Row ``k`` of the signed Stirling triangle: entry ``l`` is S_k^(1)(l)."""
    if _as_count(k, 0, "k") <= _ROW_CACHE_LIMIT:
        return _rows[k]
    row = _rows[_ROW_CACHE_LIMIT]
    for kk in range(_ROW_CACHE_LIMIT, k):
        row = _next_row(row, kk)
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

def _entringer():
    """The zigzag step, keeping the Entringer row of the last filled index."""
    row = [1]

    def step(values: tuple[int, ...]) -> int:
        nonlocal row
        m, prev, acc = len(values), row, 0
        row = [0] * (m + 1)
        for j in range(1, m + 1):
            acc += prev[m - j]
            row[j] = acc
        return acc

    return step


_zigzag = _Table(_entringer(), [1])  # Z_0, Z_1, ...


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
    return Fraction(sign * k * _zigzag[k - 1], p * (p - 1))


# ---------------------------------------------------------------------------
# Euler numbers (integer, sech convention: 2 e^x / (e^{2x} + 1))
# ---------------------------------------------------------------------------


def euler_number(k: int) -> int:
    """E_k with E_0 = 1; odd indices vanish, E_2 = -1, E_4 = 5, ..."""
    if _as_count(k, 0, "k") % 2:
        return 0
    sign = -1 if (k // 2) % 2 else 1
    return sign * _zigzag[k]


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


_odd_double_factorials = _Table(lambda t: t[-1] * (2 * len(t) - 1), [1])  # (2j-1)!! at j


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
    value = _odd_double_factorials[j]
    return Fraction(value) if m >= -1 else Fraction((-1) ** j, value)
