"""Correctness checks for served values, run outside the timed region.

- ``evaluate``: against ``brute_force`` at digits+10, for n <= 2000;
- ``digamma``: against ``mpmath.digamma``;
- ``recover``: against the embedded reference digits;
- ``coeffs``: against ``catalog.coefficients`` and the golden prefix;
- only a request marked ``may_refuse`` may refuse, and its refusal must
  carry a partial report with terms >= 1 and a finite ``est_error``.

A value agrees when it lies within half a unit of the last requested decimal
place of the reference, so a value whose last digit is off by one fails.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from stirlingsum import catalog
from stirlingsum.constants import ConstantStore, digits_agree

from serve import FAILED, REFUSED, Outcome

BRUTE_FORCE_MAX_N = 2000


def agrees(value, reference, digits: int) -> bool:
    """|value - reference| <= (1/2 + 1e-5) * 10^-digits; ``value`` may be a
    decimal string (CLI output) or an mpf."""
    with mp.workdps(digits + 40):
        return abs(mpf(value) - reference) <= (mpf(1) / 2 + mpf(10) ** -5) * mpf(10) ** -digits


def _finite(x) -> bool:
    try:
        return bool(mp.isfinite(mpf(x)))
    except (TypeError, ValueError):
        return False


def refusal_error(partial) -> str | None:
    """Why a refusal's partial report is unacceptable, or None."""
    if partial is None:
        return "refusal without a partial report"
    terms, est = partial
    if not isinstance(terms, int) or terms < 1:
        return f"refusal reports terms={terms!r}"
    if not _finite(est):
        return f"refusal reports est_error={est!r}"
    return None


class Checker:
    """Checks outcomes; references are computed once per distinct request."""

    def __init__(self):
        self._store = ConstantStore()
        self._coeffs: dict[str, tuple[Fraction, ...]] = {}
        self.checked = 0
        self.unchecked = 0

    def _digamma_ref(self, x_text: str, digits: int):
        x = Fraction(x_text)
        with mp.workdps(digits + 10):
            return mp.digamma(mpf(x.numerator) / x.denominator)

    def _constant_ref(self, cid, digits: int):
        with mp.workdps(digits + 10):
            return mpf(self._store.reference_digits(cid))

    def _coefficients(self, fid: str, k: int) -> tuple[Fraction, ...]:
        have = self._coeffs.get(fid, ())
        if len(have) < k:
            have = catalog.coefficients(fid, k)
            self._coeffs[fid] = have
        return have[:k]

    def value_error(self, out: Outcome) -> str | None:
        """Why a served value is wrong, or None; None also when unchecked."""
        req, v = out.request, out.value
        cli = isinstance(v, dict)
        d = req.digits
        if req.kind == "evaluate":
            if req.n > BRUTE_FORCE_MAX_N:
                self.unchecked += 1
                return None
            ref = catalog.brute_force(req.target, req.n, d + 10)
            ok = agrees(v["value"] if cli else v, ref, d)
        elif req.kind == "digamma":
            ok = agrees(v["value"] if cli else v, self._digamma_ref(req.target, d), d)
        elif req.kind == "recover":
            if cli:
                ok = agrees(v["value"], self._constant_ref(v["constant"], d), d)
            else:
                ok = digits_agree(v.value, self._store.reference_digits(v.constant), d)
        else:
            got = tuple(Fraction(c) for c in v["coefficients"])
            golden = catalog.golden_coefficients(req.target)
            ok = (got == self._coefficients(req.target, d)
                  and got[: len(golden)] == golden[: len(got)])
        self.checked += 1
        return None if ok else f"wrong value for {req}"

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Mark wrong values and bad refusals as failures; return the reasons.

        Repeats of a request must return what its first outcome returned.
        """
        first: dict = {}
        reasons = []
        for out in outcomes:
            if out.status == FAILED:
                reasons.append(f"{out.request}: {out.detail}")
                continue
            key = out.request
            if key in first:
                seen = first[key]
                same = seen.status == out.status and (
                    out.status == REFUSED or _same_value(seen.value, out.value))
                error = None if same else f"{out.request}: differs from its first run"
            elif out.status == REFUSED:
                error = (refusal_error(out.partial) if key.may_refuse
                         else f"{out.request}: refused, but is not marked may_refuse")
                first[key] = out
            else:
                error = self.value_error(out)
                first[key] = out
            if error is not None:
                out.status, out.detail = FAILED, error
                reasons.append(error)
        return reasons


def _same_value(a, b) -> bool:
    if isinstance(a, catalog.RecoveryResult):
        return a.constant == b.constant and a.value == b.value
    if isinstance(a, dict):
        return a.get("value", a.get("coefficients")) == b.get("value", b.get("coefficients"))
    return a == b

