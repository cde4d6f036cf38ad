"""Symbolic asymptotic tails for sums of f(k) with f(x) = c * x^s * log(x)^m.

The tail of the classical summation formula,

    (1/2) f(n) + sum_{k>=2} (B_k / k!) f^(k-1)(n),

is computed exactly over the ring of log-power terms and collected by log
power, giving an independent derivation of each catalog family's inverse-power
coefficients. The alternating families do not come from this machinery: the
catalog writes their closed-form inner coefficients (Euler and Bernoulli
numbers) directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import _Frozen, _Keyed, _as_count, bernoulli

__all__ = ["LogPowerTerm", "EMTail", "differentiate", "em_tail"]


class LogPowerTerm(_Keyed):
    """coef * x^s * log(x)^m, with exact rational coef and s; ``key`` is
    (coef, s, m)."""

    __slots__ = ("coef", "s", "m")

    def __init__(self, coef: Fraction, s: Fraction, m: int):
        coef, s = Fraction(coef), Fraction(s)
        _as_count(m, 0, "log power")
        self._fill(coef, s, m, (coef, s, m))


def _merge(terms) -> tuple[LogPowerTerm, ...]:
    acc: dict[tuple[int, Fraction], Fraction] = {}
    for t in terms:
        key = (t.m, t.s)
        acc[key] = acc.get(key, Fraction(0)) + t.coef
    return tuple(
        LogPowerTerm(c, s, m)
        for (m, s), c in sorted(acc.items(), reverse=True)
        if c
    )


def differentiate(f) -> tuple[LogPowerTerm, ...]:
    """Exact derivative of a sum of log-power terms, like terms merged.

    d/dx (c x^s log^m x) = c*s x^(s-1) log^m x + c*m x^(s-1) log^(m-1) x.
    """
    out = []
    for t in f:
        if t.coef == 0:
            continue
        if t.s:
            out.append(LogPowerTerm(t.coef * t.s, t.s - 1, t.m))
        if t.m:
            out.append(LogPowerTerm(t.coef * t.m, t.s - 1, t.m - 1))
    return _merge(out)


class EMTail(_Frozen):
    """Tail coefficients grouped by log power.

    ``groups[j]`` is a tuple of (exponent, coef) pairs, exponents descending:
    the tail contribution  sum coef * n^exponent * log(n)^j.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: dict[int, tuple[tuple[Fraction, Fraction], ...]]):
        self._fill(groups)

    def coef(self, j: int, exponent) -> Fraction:
        exponent = Fraction(exponent)
        for e, c in self.groups.get(j, ()):
            if e == exponent:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[tuple[int, Fraction], Fraction]:
        return {
            (j, e): c for j, pairs in self.groups.items() for e, c in pairs
        }


def em_tail(f, L: int) -> EMTail:
    """(1/2) f + sum_{k=2}^{L+1} (B_k/k!) f^(k-1), exactly, grouped by log power."""
    _as_count(L, 1, "L")
    terms: list[LogPowerTerm] = [
        LogPowerTerm(t.coef / 2, t.s, t.m) for t in f if t.coef
    ]
    deriv = _merge(f)
    for k in range(2, L + 2):
        # deriv currently holds f^(k-2); advance to f^(k-1).
        deriv = differentiate(deriv)
        if not deriv:
            break
        bk = bernoulli(k)
        if not bk:
            continue
        scale = bk / math.factorial(k)
        terms.extend(LogPowerTerm(scale * t.coef, t.s, t.m) for t in deriv)
    merged = _merge(terms)
    groups: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for t in merged:
        groups.setdefault(t.m, []).append((t.s, t.coef))
    return EMTail(
        groups={
            j: tuple(sorted(pairs, reverse=True)) for j, pairs in groups.items()
        }
    )

