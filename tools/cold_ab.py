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

Every child's ``--json`` records (``elapsed_ms`` aside), its stderr and its
exit code must be the same on all sides; the script exits 1 at the first
that differs. It then prints each request's best time of its passes on
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

SEEDS = (1, 2)
PASSES = 5
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
    for p in range(PASSES):
        for i, req in enumerate(reqs):
            turn = (p + i) % len(SIDES)
            got = {}
            for side in SIDES[turn:] + SIDES[:turn]:
                wall, peak, got[side] = serve(roots[side], req)
                times[side][i].append(wall)
                peaks[side][i].append(peak)
            for side in SIDES[1:]:
                if got[side] != got["A"]:
                    print(f"{' '.join(req)} differs:\n  A {got['A']}\n  {side} {got[side]}")
                    return 1
    print("every record, stderr and exit code the same on all sides")
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
