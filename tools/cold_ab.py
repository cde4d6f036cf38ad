#!/usr/bin/env python3
"""Compare two checkouts on cold-cli's requests, one fresh child each.

    python tools/cold_ab.py A B

Builds the cold-cli request lists of the seeds in SEEDS with
``benchmark/workloads.py`` of checkout A (read, never changed), in a child
that imports A's package. Then, PASSES times over the lists, it runs each
request as a fresh ``python -m stirlingsum ... --json`` child of A, of B and
of A again (the A/A control), rotating which of the three runs first from
one request to the next. Each child runs in its checkout with its ``src``
first on PYTHONPATH, as the benchmark runs them, and is timed from start to
exit.

A child returns its ``--json`` records (``elapsed_ms`` aside), its stderr
and its exit code. The A/A control must return the same on both of its
sides; the script exits 1 at the first request where it does not. A change
may move served bits on purpose, so where B returns something else than A,
the request counts as moved, and each side's printed value is checked,
once, against an independent one at digits + 20: brute force (checkout A's)
for an evaluation at n up to BRUTE_LIMIT, ``mpmath.digamma`` for digamma and
the reference digits for a recovery. Each must lie within half a unit of
10^-digits of it; past BRUTE_LIMIT the two printed values must lie within
one unit of each other. Printed coefficients must not move at all, and two
refusals must name the same error. The script exits 1, after naming it, at
the first moved request that fails this, or whose exit code or record count
differs. It prints how many requests moved and each side's total series
terms over one pass. It then prints each request's best time of its passes on
each side with the ratio B/A, the sum-of-best throughput ratio (A's summed
best times over B's: above 1, B serves more requests per second), how many
requests B won, and the same figures for A against itself. Beside them it
prints each request's median peak RSS of its children on each side, and the
median over the requests of B's and A2's peak less A's.

Alternating per request puts both sides of a comparison in the same moment
of the host's speed, which drifts too much between 50-s benchmark runs to
resolve 10-15% on cold-cli. A child's peak RSS read by this script through
``RUSAGE_CHILDREN`` would keep the high-water mark this script had before
the child executed its interpreter, the benchmark's known defect in
cold-cli's ``peak_rss_mb``. So each child is started, timed and waited for
by a small ``python -S`` wrapper, whose own memory is below any child's
peak, and the wrapper reads the child's peak through ``os.wait4``. Whether
PYTHONDONTWRITEBYTECODE is set is printed, since without it the children of
a checkout compile once and then read bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

SEEDS = (1, 2)
PASSES = 5
BRUTE_LIMIT = 2000
SIDES = ("A", "B", "A2")  # A2: checkout A again, the control
_LISTS = """
import json
import sys
from workloads import cold_cli
print(json.dumps([r.argv() for seed in map(int, sys.argv[1:]) for r in cold_cli(seed)]))
"""
# Runs argv[1:] as its child, passing on its output and exit code, and prints
# the child's wall seconds and peak RSS (KiB) as the last line of its stdout.
_WRAPPER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, flush=True)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _env(root: str) -> dict:
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def request_argvs(root: str, seeds) -> list[list[str]]:
    """The command-line arguments of the cold-cli requests of ``seeds``."""
    env = _env(root)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "benchmark"), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", _LISTS, *map(str, seeds)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def serve(root: str, argv: list[str]) -> tuple[float, float, tuple]:
    """(wall seconds, peak RSS in MiB, what the child returned) of one fresh
    child: its exit code, stderr and ``--json`` records with ``elapsed_ms``
    dropped."""
    proc = subprocess.run([sys.executable, "-S", "-c", _WRAPPER, sys.executable, "-m",
                           "stirlingsum", *argv], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=300)
    *lines, last = proc.stdout.splitlines()
    wall, peak_kib = map(float, last.split())
    records = []
    for line in lines:
        record = json.loads(line)
        record.pop("elapsed_ms", None)
        records.append(record)
    return wall, peak_kib / 1024, (proc.returncode, proc.stderr, records)


def _terms(got: tuple) -> int:
    return sum(record.get("terms", 0) for record in got[2])


def wrong(root: str, argv: list[str], got_a: tuple, got_b: tuple) -> str | None:
    """Why the differing returns of one request on the two sides are not
    both right, or None; brute force and the reference digits come from
    the package of checkout ``root``."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from mpmath import mp, mpf
    from stirlingsum import catalog, constants

    (code_a, _, recs_a), (code_b, _, recs_b) = got_a, got_b
    if code_a != code_b or len(recs_a) != len(recs_b):
        return "exit code or record count differs"
    kind, target = argv[:2]
    opts = dict(zip(argv[2:-1:2], argv[3:-1:2]))
    for ra, rb in zip(recs_a, recs_b):
        if "error" in ra or "error" in rb:
            if ra.get("error") != rb.get("error"):
                return "refusals differ"
            continue
        if kind == "coeffs":
            return "printed coefficients moved"
        digits = int(opts["-d"])
        with mp.workdps(digits + 20):
            unit = mpf(10) ** -digits
            values = {"A": mpf(ra["value"]), "B": mpf(rb["value"])}
            if kind == "digamma":
                q = Fraction(target)
                check = mp.digamma(mpf(q.numerator) / q.denominator)
            elif kind == "recover":
                cid = catalog.describe(target).recover_target
                check = mpf(constants.ConstantStore().reference_digits(cid))
            elif int(opts["-n"]) <= BRUTE_LIMIT:
                check = catalog.brute_force(target, int(opts["-n"]), digits + 10)
            else:
                gap = abs(values["A"] - values["B"])
                if gap > unit:
                    return f"A and B {mp.nstr(gap / unit, 3)} units apart"
                continue
            off = [f"{side} {mp.nstr(abs(v - check) / unit, 3)} units off"
                   for side, v in values.items() if abs(v - check) > unit / 2]
            if off:
                return ", ".join(off)
    return None


def _summary(name: str, best: dict[str, list[float]]) -> str:
    a, b = sum(best["A"]), sum(best[name])
    wins = sum(tb < ta for ta, tb in zip(best["A"], best[name]))
    return (f"{name}/A: sum of best A {a:.3f} s, {name} {b:.3f} s; throughput ratio "
            f"{name}/A {a / b:.4f}; {name} faster in {wins} of {len(best['A'])} requests")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="checkout A, the base of the ratios")
    ap.add_argument("b", help="checkout B")
    args = ap.parse_args(argv)
    roots = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    roots["A2"] = roots["A"]
    reqs = request_argvs(roots["A"], SEEDS)
    print(f"seeds {' '.join(map(str, SEEDS))}: {len(reqs)} requests, {PASSES} passes, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}")
    times = {side: [[] for _ in reqs] for side in SIDES}
    peaks = {side: [[] for _ in reqs] for side in SIDES}
    moved, terms = set(), {"A": 0, "B": 0}
    for p in range(PASSES):
        for i, req in enumerate(reqs):
            turn = (p + i) % len(SIDES)
            got = {}
            for side in SIDES[turn:] + SIDES[:turn]:
                wall, peak, got[side] = serve(roots[side], req)
                times[side][i].append(wall)
                peaks[side][i].append(peak)
            if got["A2"] != got["A"]:
                print(f"{' '.join(req)} differs from itself:\n  A {got['A']}\n  A2 {got['A2']}")
                return 1
            if p == 0:
                terms["A"] += _terms(got["A"])
                terms["B"] += _terms(got["B"])
            if got["B"] != got["A"] and i not in moved:
                moved.add(i)
                if why := wrong(roots["A"], req, got["A"], got["B"]):
                    print(f"{' '.join(req)} wrong ({why}):\n  A {got['A']}\n  B {got['B']}")
                    return 1
    print(f"{len(moved)} of {len(reqs)} requests moved, every moved value passed its check; "
          f"series terms per pass A {terms['A']}, B {terms['B']}")
    best = {side: [min(t) for t in times[side]] for side in SIDES}
    peak = {side: [statistics.median(m) for m in peaks[side]] for side in SIDES}
    print(f"{'request':<44}{'A ms':>9}{'B ms':>9}{'B/A':>8}{'A2/A':>8}"
          f"{'A MiB':>8}{'B MiB':>8}{'A2 MiB':>8}")
    for i, req in enumerate(reqs):
        a, b, a2 = (best[side][i] for side in SIDES)
        print(f"{' '.join(req[:-1]):<44}{1e3 * a:>9.1f}{1e3 * b:>9.1f}{b / a:>8.3f}{a2 / a:>8.3f}"
              + "".join(f"{peak[side][i]:>8.2f}" for side in SIDES))
    print(_summary("B", best))
    print(_summary("A2", best) + " (A/A control)")
    lead = {side: statistics.median(b - a for a, b in zip(peak["A"], peak[side]))
            for side in SIDES[1:]}
    print(f"child peak RSS: A {statistics.median(peak['A']):.2f} MiB, median over requests; "
          f"per request, median B-A {lead['B']:+.2f} MiB, A2-A {lead['A2']:+.2f} MiB "
          "(A/A control)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
