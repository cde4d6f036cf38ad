"""Seeded request generators for the benchmark workloads.

Each generator draws only from ``random.Random`` seeded with the workload
name and the seed, so one seed always names the same request list, and the
package sees nothing but the generated requests.

Request counts per class are fixed and digit ranges are split into strata
with one draw in each, so lists from different seeds cost about the same to
serve; the seed moves formulas, arguments and digits inside each stratum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from stirlingsum.catalog import describe, formula_ids
from stirlingsum.constants import RECOVERY_FORMULA


@dataclass(frozen=True)
class Request:
    """One call into the package.

    ``kind`` is ``evaluate``, ``digamma``, ``recover`` or ``coeffs``;
    ``target`` is a formula id, or the decimal string x for ``digamma``;
    ``digits`` is the requested precision, or K for ``coeffs``; ``n`` is the
    argument of ``evaluate`` and, when set, the starting anchor n0 of
    ``recover``. ``short`` marks the cheap request class that
    ``short_latency_*`` reports. ``may_refuse`` marks a request that is
    allowed to refuse (NonConvergenceError, exit 3), because for some or all
    of its draws it lies past what the default term budget reaches; a
    refusal of any other request is a failure.
    """

    kind: str
    target: str
    digits: int
    n: int | None = None
    short: bool = False
    may_refuse: bool = False

    def argv(self) -> list[str]:
        """Arguments of the equivalent ``python -m stirlingsum`` command."""
        if self.kind == "evaluate":
            args = ["eval", self.target, "-n", str(self.n), "-d", str(self.digits)]
        elif self.kind == "digamma":
            args = ["digamma", self.target, "-d", str(self.digits)]
        elif self.kind == "recover":
            args = ["recover", self.target, "-d", str(self.digits)]
            if self.n is not None:
                args += ["--n0", str(self.n)]
        else:
            args = ["coeffs", self.target, "-k", str(self.digits)]
        return args + ["--json"]

    def __str__(self) -> str:
        return " ".join(self.argv()[:-1])


# Per-formula digit bands for recover-deep, inside 100-260. Each sits just
# past the point where the recovery needs more than 512 transform terms (so
# the checkpoint cap makes every warm call recompute the transform beyond
# 512) and is narrow, because cost grows steeply with digits: a warm request
# takes 0.3-0.9 s, and a pass over the list leaves room for three passes in
# a run. 12.1 (Stieltjes) and 13.1 (zeta'(2)) are the steepest: 12.1 takes
# 1.5 s at 138 digits and about 40 s at 250 (2-core x86_64 VM, mpmath on its
# pure-Python backend).
RECOVER_BANDS = {
    "1.1": (160, 168),
    "2.1": (160, 168),
    "3.1": (176, 184),
    "7.1": (156, 164),
    "8.1": (156, 164),
    "9.1": (156, 164),
    "6.1": (140, 148),
    "11.1": (146, 154),
    "13.1": (142, 148),
    "12.1": (133, 135),
}


# Past these digits a log-family evaluation at n <= 20 refuses: the series
# is summed at an anchor near digits + 10, and there it needs more than the
# default 500 terms (12.1 and 13.1 still converge at 120 digits). Such
# requests are marked ``may_refuse``; a refusal at fewer digits is a failure.
LOG_EVAL_MAX_DIGITS = {
    "10.1": 115,
    "10.2": 108,
    "10.3": 106,
    "11.1": 100,
    "11.2": 113,
    "14.1": 108,
}

# serve-warm sends each formula this many evaluate requests per pass.
SERVE_WARM_PER_FORMULA = 18


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer drawn uniformly from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [
        rng.randint(round(lo + i * width), round(lo + (i + 1) * width))
        for i in range(count)
    ]


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from each of ``count`` equal slices of [log lo, log hi]."""
    a, width = math.log(lo), (math.log(hi) - math.log(lo)) / count
    return [math.exp(rng.uniform(a + i * width, a + (i + 1) * width)) for i in range(count)]


def _x_text(value: float) -> str:
    return f"{value:.6g}"


def _count(rng: random.Random, fid: str, hi: int) -> int:
    lo = max(describe(fid).domain_min, 1)
    return round(_log_uniform(rng, lo, hi))


def serve_warm(seed: int) -> list[Request]:
    """Short library calls: 3/4 ``evaluate`` (each of the 32 formulas
    SERVE_WARM_PER_FORMULA times, digits 20, 30 and 50 equally often, n
    log-uniform in [domain_min, 1e5]) and 1/4 digamma (x log-uniform in
    [0.1, 1e12], digits 30 and 50 equally often): 768 requests.

    For each formula and digits, n takes one draw from each of
    SERVE_WARM_PER_FORMULA / 3 equal slices of the log range, and x one per
    slice of its log range likewise, so that every seed's list spans the
    ranges alike and costs about the same to serve.
    """
    rng = _rng("serve-warm", seed)
    reqs = []
    for fid in map(str, formula_ids()):
        lo = max(describe(fid).domain_min, 1)
        for digits in (20, 30, 50):
            for n in _log_strata(rng, lo, 10**5, SERVE_WARM_PER_FORMULA // 3):
                reqs.append(Request("evaluate", fid, digits, round(n), True))
    per_digits = len(reqs) // 6
    for digits in (30, 50):
        for x in _log_strata(rng, 0.1, 1e12, per_digits):
            reqs.append(Request("digamma", _x_text(x), digits, short=True))
    rng.shuffle(reqs)
    return reqs


def recover_deep(seed: int) -> list[Request]:
    """Deep recoveries (one per recoverable constant, and one that climbs
    the anchor ladder), deep digamma and log-family evaluations; most deep
    requests need more than 512 transform terms."""
    rng = _rng("recover-deep", seed)
    reqs = [
        Request("recover", fid, rng.randint(*RECOVER_BANDS[fid]))
        for fid in RECOVERY_FORMULA.values()
    ]
    # a starting anchor far below digits + 10 makes the anchor ladder climb
    reqs.append(Request("recover", "2.1", rng.randint(146, 154), rng.randint(20, 40)))
    for centre in (130, 160, 190):
        x = _x_text(_log_uniform(rng, 0.5, 10))
        digits = rng.randint(centre - 5, centre + 5)
        reqs.append(Request("digamma", x, digits))
    for family in (10, 11, 12, 13, 14):
        for digits in _strata(rng, 60, 120, 6):
            fid = str(rng.choice([f for f in formula_ids() if f.family == family]))
            refuses = digits > LOG_EVAL_MAX_DIGITS.get(fid, math.inf)
            reqs.append(Request("evaluate", fid, digits, _count(rng, fid, 20), True, refuses))
    rng.shuffle(reqs)
    return reqs


def cold_cli(seed: int) -> list[Request]:
    """One fresh ``python -m stirlingsum`` child per request, digits 20-400:
    four short requests (20-60 digits) and eight deep ones.

    Each slot fixes the command and formula, so that lists from different
    seeds cost the same; the seed draws n, x and digits inside the slot,
    from narrow bands where the cost grows fast with digits or the starting
    anchor. Deep digamma keeps x at 1e4 or more, since x near 1e3 at 400
    digits takes seconds. Refusals (exit 3) are kept on purpose, as part of
    what this workload times, and the two slots that can refuse are marked
    ``may_refuse``: ``eval 1.1`` at n <= 10 and about 150 digits always
    refuses, after the whole default term budget; ``eval 16.1`` at 300-400
    digits refuses at once for small n (none at 300 digits, n below about
    450 at 400).

    A pass takes about 3 s on a 2-core x86_64 VM, where the machine's speed
    swings by up to 1.6x for tens of seconds at a time. Each request's
    service time is its fastest pass, and that figure holds still only when
    a run serves it in a dozen passes or more, so requests that take more
    than about half a second in a cold process are left out, except the
    refusal after the full term budget.
    """
    rng = _rng("cold-cli", seed)

    def evaluate(fid, lo, hi, n_lo=1, n_hi=10**4, short=False, may_refuse=False):
        n = round(_log_uniform(rng, max(describe(fid).domain_min, n_lo), n_hi))
        return Request("evaluate", fid, rng.randint(lo, hi), n, short, may_refuse)

    def digamma(x_lo, x_hi, lo, hi, short=False):
        x = _x_text(_log_uniform(rng, x_lo, x_hi))
        return Request("digamma", x, rng.randint(lo, hi), short=short)

    reqs = [
        evaluate("7.2", 20, 60, short=True),
        evaluate("10.1", 20, 60, short=True),
        evaluate("15.2", 20, 60, short=True),
        digamma(0.1, 1e12, 20, 60, short=True),
        evaluate("2.1", 58, 62, n_lo=10**3),
        evaluate("1.1", 148, 152, n_hi=10, may_refuse=True),
        evaluate("16.1", 300, 400, may_refuse=True),
        evaluate("12.1", 43, 47, n_lo=10**3),  # its inner a_l use Stirling numbers
        # a starting anchor far below digits + 10 makes the anchor ladder climb
        Request("recover", "1.1", rng.randint(58, 62), rng.randint(18, 22)),
        Request("recover", "13.1", rng.randint(48, 52)),
        digamma(1e4, 1e9, 200, 400),
        Request("coeffs", "13.1", rng.randint(240, 260)),
    ]
    rng.shuffle(reqs)
    return reqs


def warmup_lists(workload: str, seed: int) -> list[list[Request]]:
    """The request lists an in-process workload serves once before timing."""
    if workload == "serve-warm":
        return [serve_warm(seed)]
    if workload == "recover-deep":
        return [recover_deep(seed)]
    if workload == "contended":
        return [recover_deep(seed), serve_warm(seed)]
    return []
