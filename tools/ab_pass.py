#!/usr/bin/env python3
"""Compare two checkouts on warm serve-warm passes, in one process.

    python tools/ab_pass.py A B

Loads the package of each checkout (``A/src/stirlingsum`` and
``B/src/stirlingsum``) under its own name, ``ab_a`` and ``ab_b``, so each
keeps its own caches, and reads the serve-warm request lists of the seeds
in SEEDS from checkout A with ``served_table.requests``. For each seed it
first serves the list once on both sides and compares what every request
returns (value and error estimate, or the refusal's partial report). A
change may move served bits on purpose, so a request that differs is held
on both sides to ``served_table.judge``, against the value
``served_table.independent`` works out with A's package. It prints, per
seed, how many requests moved and each side's total series terms, and
names every request that fails. It exits 1 when any value fails its check
or when a request is served on one side and refused on the other. It then
times PAIRS pairs of warm passes, alternating which side runs first, and
prints the medians of A's and B's pass times, the median and quartiles of
the per-pair ratio B/A, and how many pairs B won.

Both sides share the process, the interpreter and the moment, so drift in
the host's speed moves both passes of a pair alike and drops out of the
ratio, where medians of separate benchmark runs keep it. Running A against
itself gives the harness's own spread. On a 2-core x86_64 VM such A/A
controls read median ratios from 0.978 to 1.028 per seed, with B faster in
14 to 27 of 40 pairs and no side favoured from one control to the next. So
a median ratio within about 2% of 1 is unresolved, whichever way it leans.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from fractions import Fraction

from mpmath import mp

from served_table import independent, judge, requests

SEEDS = (41, 7, 99)
PAIRS = 40


def load(root: str, name: str):
    """The package under ``root/src`` imported as ``name``, with its catalog,
    transform and constants modules loaded."""
    path = os.path.join(os.path.abspath(root), "src", "stirlingsum")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("catalog", "transform", "constants"):
        importlib.import_module(f"{name}.{sub}")
    return package


def serve(package, req):
    """What the request returns, in raw mpf tuples: ("ok", value, terms,
    est_error) for evaluate, ("ok", value, terms, shift) for digamma, and
    ("refused", value, terms, est_error, message) for a refusal."""
    catalog, transform = package.catalog, package.transform
    try:
        if req.kind == "evaluate":
            rep = catalog.evaluate(req.target, req.n, transform.EvalContext(digits=req.digits))
            return "ok", rep.value._mpf_, rep.terms_used, rep.est_error._mpf_
        value, terms, shift = catalog.digamma_details(Fraction(req.target), req.digits)
        return "ok", value._mpf_, terms, shift
    except transform.NonConvergenceError as exc:
        rep = exc.report
        return "refused", rep.value._mpf_, rep.terms_used, rep.est_error._mpf_, str(exc)


def wrong(package, req, got_a, got_b) -> str | None:
    """Why the differing returns of ``req`` on the two sides are not both
    right, or None; ``package`` computes the independent value."""
    if got_a[0] != got_b[0]:
        return "served on one side, refused on the other"
    if got_a[0] == "refused":
        return None  # partial reports of a refusal on both sides
    check = independent(package.catalog, req.kind, req.target, req.n, req.digits)
    return judge({"A": mp.make_mpf(got_a[1]), "B": mp.make_mpf(got_b[1])}, check, req.digits)


def one_pass(package, reqs) -> float:
    t0 = time.perf_counter()
    for req in reqs:
        serve(package, req)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="checkout A, the base of the ratio")
    ap.add_argument("b", help="checkout B")
    args = ap.parse_args(argv)
    a, b = load(args.a, "ab_a"), load(args.b, "ab_b")
    lists = {seed: requests(args.a, "serve_warm", seed) for seed in SEEDS}
    failed = False
    for seed, reqs in lists.items():
        moved, terms = 0, {"A": 0, "B": 0}
        for req in reqs:
            got_a, got_b = serve(a, req), serve(b, req)
            terms["A"] += got_a[2]
            terms["B"] += got_b[2]
            if got_a != got_b:
                moved += 1
                if why := wrong(a, req, got_a, got_b):
                    print(f"seed {seed}: {' '.join(req.argv[:-1])} wrong ({why}):"
                          f"\n  A {got_a}\n  B {got_b}")
                    failed = True
        print(f"seed {seed}: {len(reqs)} requests, {moved} moved; series terms "
              f"A {terms['A']}, B {terms['B']}")
    if failed:
        return 1
    for seed, reqs in lists.items():
        gc.collect()
        times = {"A": [], "B": []}
        for i in range(PAIRS):
            order = (("A", a), ("B", b)) if i % 2 == 0 else (("B", b), ("A", a))
            for side, package in order:
                times[side].append(one_pass(package, reqs))
        ratios = [tb / ta for ta, tb in zip(times["A"], times["B"])]
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        wins = sum(r < 1 for r in ratios)
        print(f"seed {seed}: pass ms A {1e3 * statistics.median(times['A']):.2f}, "
              f"B {1e3 * statistics.median(times['B']):.2f}; ratio B/A median {med:.4f} "
              f"(quartiles {q1:.4f}-{q3:.4f}); B faster in {wins} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
