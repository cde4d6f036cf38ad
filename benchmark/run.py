"""The stirlingsum benchmark: one seeded workload per run.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (requests come from ``workloads.py``):

- ``serve-warm``: one closed-loop client in a long-lived process sends short
  ``evaluate`` / ``digamma_details`` calls after a warm-up pass;
- ``recover-deep``: one closed-loop client sends deep recoveries (a fresh
  ConstantStore each), deep digamma and log-family evaluations, after a
  warm-up pass over the same list. Its requests take 0.3-1 s each and a
  pass about 8 s, so a run serves each request only a few times and its
  fastest pass rarely escapes a slow spell of the machine; with a 20-s
  warm-up there is no time for more passes, so BENCHMARK.json does not
  list it;
- ``cold-cli``: one fresh ``python -m stirlingsum ... --json`` child per
  request, in sequence;
- ``contended``: two client threads in one process, one looping over the
  recover-deep list and one sending serve-warm requests, so that the
  process-wide precision lock is contended. Its short-client figures swing
  too much between runs to gate on, so BENCHMARK.json does not list it.

A run serves whole passes over its request list until ``--seconds`` have
passed, and at least three, then checks every served value outside the
timed region. Throughput and the p50 latencies come from each request's
fastest pass (see ``service_times``), the tail latencies from each request's
median pass (see ``end_to_end``). With ``--trace 0`` the last stdout line
carries the end-to-end metrics but ``UNGATED``; with ``--trace 1`` the run
serves two passes untraced and two with spans around every layer boundary,
and reports per-layer metrics per pass and the trace overhead. Earlier lines
give every metric by name and unit, the failure and refusal rates, the tail
percentile used and the sample counts, and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
# Package imports timed before the workload and again after it; set-up time
# takes their median, so that a slow spell of the machine moves it less.
SETUP_REPEATS = 4
# An in-process workload's warm-up is repeated this many times in fresh
# children (warm_child.py) after the workload; setup_s takes the median
# warm-up over them and the run's own.
WARMUP_CHILDREN = 2
# Every request is served in at least this many passes; its service time is
# its fastest one (see service_times).
MIN_PASSES = 3
TRACE_PASSES = 2  # passes served untraced, then traced, in a --trace 1 run
SHORT_CLIENT = 1_000_000  # request ids of the contended short client start here

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "short_latency_p50_ms": "ms",
    "short_latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed, but left out of the result line. The tails come from each
# request's median pass, which follows the machine's speed: on a 2-core
# x86_64 VM a slow spell of several minutes put cold-cli's latency_tail_ms
# 0.54 apart (quartile distance over median, ten seeds) while its
# fastest-pass figures stayed within 0.3. cold-cli has eight deep and four
# short requests, so no percentile of either has ten samples beyond it.
UNGATED = ("latency_tail_ms", "short_latency_tail_ms")


def _import_package():
    """Import the benchmark modules against ``src/``; None when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "stirlingsum", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import stirlingsum

    if not os.path.abspath(stirlingsum.__file__).startswith(SRC + os.sep):
        return None
    import check
    import serve
    import workloads

    return check, serve, workloads


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail(values: list[float]) -> tuple[int, float, int]:
    """(p, value, samples beyond): the highest of p99 and p90 with at least
    ten samples beyond it; p90 when neither has (the count says so)."""
    for p in (99, 90):
        value = percentile(values, p)
        beyond = sum(v > value for v in values)
        if beyond >= 10:
            return p, value, beyond
    return p, value, beyond


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def serve_pass(reqs, serve_one, tracer=None, rid0=0, stop=None, replay=True):
    """Serve ``reqs`` once, in order, until ``stop`` is set if given. With a
    tracer, request i's spans get id rid0 + i and its sums are replayed."""
    outcomes = []
    for req in reqs:
        if stop is not None and stop.is_set():
            break
        if tracer is not None:
            tracer.begin_request(rid0 + len(outcomes))
        outcomes.append(serve_one(req))
        if tracer is not None:
            tracer.replay_sums(replay)
    return outcomes


def by_request(outcomes, size: int) -> list[list[float]]:
    """Latencies of each of ``size`` requests served in whole passes."""
    lat: list[list[float]] = [[] for _ in range(size)]
    for i, out in enumerate(outcomes):
        lat[i % size].append(out.latency)
    return lat


def service_times(outcomes, size: int) -> list[float]:
    """Fastest latency of each of ``size`` requests served in whole passes.

    On a shared host the CPU speed can swing by up to 2x for tens of seconds
    (seen on a 2-core x86_64 VM), which moves any mean or median of single
    latencies by 20-30% between runs; the fastest of a request's passes
    drops the slowdowns that other load caused, whenever it eased at all.
    """
    return [min(v) for v in by_request(outcomes, size)]


def import_seconds(serve) -> list[float]:
    """SETUP_REPEATS times to import the package (and build its catalog), each
    in a fresh child."""
    code = ("import time; t = time.perf_counter(); import stirlingsum.cli; "
            "print(time.perf_counter() - t)")
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=serve.child_env(ROOT),
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(float(proc.stdout.strip()))
    return runs


def child_setups(serve, workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(import seconds, warm-up seconds) of WARMUP_CHILDREN fresh set-ups."""
    imports, warmups = [], []
    for _ in range(WARMUP_CHILDREN):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "warm_child.py"), workload,
                               str(seed)], cwd=ROOT, env=serve.child_env(ROOT),
                              capture_output=True, text=True, timeout=120, check=True)
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(times["import_s"])
        warmups.append(times["warmup_s"])
    return imports, warmups


class Run:
    """One workload run: requests, outcomes, timings and layer totals."""

    def __init__(self, serve, workload: str, seconds: int, trace: bool):
        self.serve = serve
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.reqs = []  # the primary client's request list
        self.checked = []  # every outcome the checker sees, warm-up included
        self.main = []  # the primary client's untraced passes
        self.traced = []  # the primary client's traced passes
        self.short_raw = []  # contended: the short client's outcomes, untraced passes
        self.elapsed = 0.0
        self.warmup = 0.0
        self.peak_rss_mb = 0.0
        self.tracer = None
        self.layers: dict[str, float] = {}
        self.overhead_s = 0.0
        self.untraced_s = 0.0
        self.counts_repeat = True

    def _measure(self, serve_one_pass):
        """Serve passes: ``serve_one_pass(p, tracer)`` serves pass p, traced
        when ``tracer`` is given. Untraced runs serve whole passes until
        ``seconds`` have passed, and at least MIN_PASSES. Traced runs serve
        2 * TRACE_PASSES passes, untraced and traced in turn, so that drift in
        machine speed falls on both alike."""
        t0 = time.perf_counter()
        if self.trace:
            import tracing

            self.tracer = tracing.Tracer()
            for p in range(2 * TRACE_PASSES):
                traced = p % 2 == 1
                if traced:
                    self.tracer.install()  # untraced passes run the package as is
                try:
                    out = serve_one_pass(p, self.tracer if traced else None)
                finally:
                    self.tracer.remove()
                (self.traced if traced else self.main).extend(out)
        else:
            p = 0
            while p < MIN_PASSES or time.perf_counter() - t0 < self.seconds:
                self.main += serve_one_pass(p, None)
                p += 1
                if p == 1:
                    # every request has been served: later passes only add
                    # outcomes, more of them the faster the machine runs
                    who = (resource.RUSAGE_CHILDREN if self.workload == "cold-cli"
                           else resource.RUSAGE_SELF)
                    self.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        self.elapsed = time.perf_counter() - t0
        self.checked += self.main + self.traced

    def _finish_trace(self, per_pass):
        """Average the traced passes' layer totals (the exact counts must agree
        pass by pass) and take the trace overhead from service times."""
        import tracing

        self.layers = {k: sum(t[k] for t in per_pass) / len(per_pass) for k in per_pass[0]}
        self.counts_repeat = all(t[k] == per_pass[0][k]
                                 for t in per_pass for k in tracing.EXACT_COUNTS)
        n = len(self.reqs)
        self.untraced_s = sum(service_times(self.main, n))
        self.overhead_s = sum(service_times(self.traced, n)) - self.untraced_s

    def _finish_spans(self):
        """Per-pass layer totals from this process's spans, which are then
        written out. Only the primary client's spans fall in a pass: request
        ids of the contended short client start at SHORT_CLIENT."""
        import tracing

        n, spans = len(self.reqs), self.tracer.spans
        per_pass = []
        for p in range(1, 2 * TRACE_PASSES, 2):
            totals = tracing.layer_totals(spans, lambda span: span.request // n == p)
            totals["transform.sum_ms"] = self.tracer.sum_seconds * 1e3 / TRACE_PASSES
            per_pass.append(totals)
        self._finish_trace(per_pass)
        os.makedirs(TRACE_DIR, exist_ok=True)
        self.tracer.write(os.path.join(TRACE_DIR, f"{self.workload}.jsonl"))

    # -- in-process workloads -------------------------------------------------

    def _warm(self, *lists):
        t0 = time.perf_counter()
        for reqs in lists:
            self.checked += [self.serve.serve_api(r) for r in reqs]
        self.warmup = time.perf_counter() - t0

    def single_client(self, reqs):
        self.reqs = reqs
        self._warm(reqs)
        serve_api, n = self.serve.serve_api, len(reqs)
        self._measure(lambda p, tracer: serve_pass(reqs, serve_api, tracer, p * n))
        if self.trace:
            self._finish_spans()

    def contended(self, deep, short):
        self.reqs = deep
        self._warm(deep, short)
        n = len(deep)

        def one_pass(p, tracer):
            deep_out, short_out = self._contend(deep, short, tracer, p * n)
            if tracer is None:
                self.short_raw += short_out
            self.checked += short_out
            return deep_out

        self._measure(one_pass)
        if self.trace:
            # layer totals describe the deep client; the short side is lock_wait
            # (only this workload has it): each short latency under contention
            # minus the same request alone
            self._finish_spans()
            alone = [self.serve.serve_api(o.request) for o in self.short_raw]
            self.checked += alone
            wait = sum(a.latency - b.latency for a, b in zip(self.short_raw, alone))
            self.layers["transform.lock_wait_ms"] = wait * 1e3 / TRACE_PASSES

    def _contend(self, deep, short, tracer, rid0):
        """One pass of the deep client while a second thread sends short requests."""
        stop = threading.Event()
        short_out: list = []

        def short_client():
            while not stop.is_set():
                short_out.extend(serve_pass(short, self.serve.serve_api, tracer,
                                            SHORT_CLIENT + len(short_out), stop, False))

        thread = threading.Thread(target=short_client, name="short-client")
        thread.start()
        try:
            deep_out = serve_pass(deep, self.serve.serve_api, tracer, rid0)
        finally:
            stop.set()
            thread.join()
        return deep_out, short_out

    # -- cold CLI -------------------------------------------------------------

    def cold_cli(self, reqs):
        self.reqs = reqs
        serve_cli = self.serve.serve_cli
        child = os.path.join(HERE, "cli_child.py")
        per_pass = []

        def one_pass(p, tracer):
            if tracer is None:
                return serve_pass(reqs, lambda r: serve_cli(r, ROOT))
            import tracing

            os.makedirs(TRACE_DIR, exist_ok=True)
            totals = dict.fromkeys(tracing.TOTALS, 0.0)
            outcomes = []
            for i, req in enumerate(reqs):
                out_path = os.path.join(TRACE_DIR, f"cold-cli-child{i}.json")
                outcomes.append(serve_cli(req, ROOT, [child, out_path]))
                if os.path.exists(out_path):  # a crashed child is a counted failure
                    with open(out_path, encoding="ascii") as fh:
                        for key, value in json.load(fh).items():
                            totals[key] += value
                    os.remove(out_path)
            per_pass.append(totals)
            return outcomes

        self._measure(one_pass)
        if self.trace:
            self._finish_trace(per_pass)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def end_to_end(run: Run, setup_s: float, notes: dict) -> dict[str, float]:
    """Metrics of the primary client's untraced passes.

    latency_* describes its deep requests, or all of them when it sends only
    short ones; short_latency_* its short requests, or in contended every
    latency of the short client, waits included. Throughput and the p50s
    come from each request's fastest pass (see service_times). The tails
    come from each request's median over its passes: a slowdown that hits a
    request on most passes counts, a single stall does not. (On a 2-core
    x86_64 VM, stalls of about 8 ms hit about 1% of all serve-warm calls at
    random, none of them garbage collection, so a p99 over every latency
    measured how often the host stalled.)
    """
    n = len(run.reqs)
    lat = by_request(run.main, n)
    best = [min(v) for v in lat]
    typical = [statistics.median(v) for v in lat]
    deep = [not r.short for r in run.reqs]
    if not any(deep):
        deep = [True] * n
    if run.short_raw:
        short = short_tail = [o.latency for o in run.short_raw]
    elif all(deep):
        short, short_tail = best, typical
    else:
        short = [t for t, d in zip(best, deep) if not d]
        short_tail = [t for t, d in zip(typical, deep) if not d]
    p_tail, v_tail, beyond = tail([t for t, d in zip(typical, deep) if d])
    ps_tail, vs_tail, s_beyond = tail(short_tail)
    notes["latency_tail"] = f"p{p_tail} of {sum(deep)} per-request medians, {beyond} beyond"
    notes["short_latency_tail"] = (f"p{ps_tail} of {len(short_tail)} "
                                   f"{'latencies' if run.short_raw else 'per-request medians'}, "
                                   f"{s_beyond} beyond")
    notes["passes"] = len(run.main) // n
    notes["completed_rps"] = len(run.main) / run.elapsed
    return {
        "throughput_rps": n / sum(best),
        "latency_p50_ms": percentile([t for t, d in zip(best, deep) if d], 50) * 1e3,
        "latency_tail_ms": v_tail * 1e3,
        "short_latency_p50_ms": percentile(short, 50) * 1e3,
        "short_latency_tail_ms": vs_tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    import tracing

    out = tracing.metrics(run.layers)
    out["trace.overhead_ms"] = run.overhead_s * 1e3
    out["trace.overhead_pct"] = 100 * run.overhead_s / run.untraced_s
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_rate")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-warm", "recover-deep", "cold-cli", "contended"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    mods = _import_package()
    if mods is None:
        print(f"error: no stirlingsum package under {SRC}", file=sys.stderr)
        return 2
    check, serve, workloads = mods
    if args.trace and os.path.isdir(TRACE_DIR):
        shutil.rmtree(TRACE_DIR)

    imports = import_seconds(serve)
    run = Run(serve, args.workload, args.seconds, bool(args.trace))
    if args.workload == "serve-warm":
        run.single_client(workloads.serve_warm(args.seed))
    elif args.workload == "recover-deep":
        run.single_client(workloads.recover_deep(args.seed))
    elif args.workload == "contended":
        run.contended(workloads.recover_deep(args.seed), workloads.serve_warm(args.seed))
    else:
        run.cold_cli(workloads.cold_cli(args.seed))

    imports += import_seconds(serve)
    child_imports, warmups = [], []
    # a traced run reports no setup_s, and cold-cli has no warm-up
    if not args.trace and workloads.warmup_lists(args.workload, args.seed):
        child_imports, warmups = child_setups(serve, args.workload, args.seed)
    setup_import = statistics.median(imports + child_imports)
    setup_warmup = statistics.median([run.warmup] + warmups)
    checker = check.Checker()
    reasons = checker.check(run.checked)
    measured = run.main + run.short_raw
    failed = sum(o.status == serve.FAILED for o in measured)
    refused = sum(o.status == serve.REFUSED for o in measured)
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_facts(),
        "requests": len(measured),
        "distinct_checked": checker.checked,
        "distinct_unchecked": checker.unchecked,
        "failure_rate": failed / len(measured),
        "refusal_rate": refused / len(measured),
        "failures": reasons[:20],
    }
    if args.trace:
        metrics = per_layer(run)
        notes["exact_counts_repeat"] = run.counts_repeat
    else:
        metrics = end_to_end(run, setup_import + setup_warmup, notes)
        notes["setup"] = {"import_median_s": setup_import, "warmup_median_s": setup_warmup,
                          "warmups_s": [run.warmup] + warmups}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    for name in ("failure_rate", "refusal_rate"):
        print(f"{name} {notes[name]:.6g} ratio")
    print(json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not reasons and run.counts_repeat,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()
                    if k not in UNGATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
