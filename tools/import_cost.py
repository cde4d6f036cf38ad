#!/usr/bin/env python3
"""Where a cold start of the package spends its import time.

    python tools/import_cost.py [--runs N] [--src DIR]

Copies ``src`` (by default the one beside this script's directory) to a
temporary directory without ``__pycache__`` or ``.pyc`` files, so that every
child compiles the package from source, and runs fresh children with
``PYTHONDONTWRITEBYTECODE=1`` in two starts, alternating, N of each:

- ``site``: as the interpreter starts by default, with its ``site`` hooks
  (a ``.pth`` file may import modules before any package code runs);
- ``-S``: no ``site`` hooks, with ``site-packages`` put on PYTHONPATH by
  hand, so only what the package and mpmath ask for is loaded.

For each start:

- ``python -X importtime -c "import stirlingsum; import stirlingsum.cli"``,
  then one head constant fetched (pi, 30 digits, which reads and checks the
  reference digits) and one golden file read; it prints the median self and
  cumulative time of each ``stirlingsum`` module, in import order, beside
  its source bytes and best-of-N compile time in this process, names any of
  ``WATCHED`` that the import loaded and any that the fetch and read added,
  the median peak resident memory (``ru_maxrss``) of a child right after
  ``import stirlingsum``, and the median count of loaded modules and peak
  resident memory of a child after the fetch and read;
- ``python -m stirlingsum list --json``; it prints the median wall time of
  one, start to exit, and two exit times against the same command run
  beside it (first on every other run) through ``runpy`` in a ``-c`` child
  that ends with ``os._exit`` once its output is flushed, which skips
  interpreter shutdown: the median over the runs of the wall time less the
  ``os._exit`` child's, and the best-of, ``min(walls) - min(ended)``.

Medians of fresh children still follow the machine's speed, so compare two
trees with alternating runs of this script, not with one run of each. Size
an exit change by the best-of figure, with ``--runs 10`` or more: the
median exit takes the noise of two children on every run, so it cannot
resolve an exit of a few ms and can read below zero, while the best-of
compares each side's fastest child. On a 2-core x86_64 VM, two runs of 10
read best-of exits of 0.8-3.6 ms where the medians read -0.6-4.4 ms; with
3 runs one best-of read 26.7 ms.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# hashlib loads OpenSSL's _hashlib, about 3.5 MiB of resident memory; the
# package reads its data files without importlib.resources and its zip and
# path machinery, and annotates without typing
WATCHED = ("dataclasses", "inspect", "statistics", "hashlib", "_hashlib",
           "importlib.resources", "pathlib", "zipfile", "typing")
STARTS = (("site", ()), ("-S", ("-S",)))
_CHILD = (
    "import json, resource, sys\n"
    f"watched = set({WATCHED!r})\n"
    "before = set(sys.modules)\n"
    "import stirlingsum\n"
    "imported_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "import stirlingsum.cli\n"
    "imported = set(sys.modules)\n"
    "from stirlingsum import catalog\n"
    "from stirlingsum.constants import PI, get_constant\n"
    "get_constant(PI, 30)\n"
    "catalog.golden_coefficients('1.1')\n"
    "print(json.dumps([sorted(watched & (imported - before)),\n"
    "                  sorted(watched & (set(sys.modules) - imported)), len(sys.modules),\n"
    "                  imported_peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n"
)

_ENDED = (
    "import os, runpy, sys\n"
    "sys.argv = ['stirlingsum', 'list', '--json']\n"
    "try:\n"
    "    runpy.run_module('stirlingsum', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    sys.stdout.flush()\n"
    "    os._exit(exc.code)\n"
)


def _wall(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def _importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """{module: (self us, cumulative us)} from ``-X importtime`` lines."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, total, name = line[len("import time:"):].split("|")
        out[name.strip()] = (int(own), int(total))
    return out


def _compile_cost(src: str, module: str, runs: int) -> tuple[int, float]:
    """(source bytes, best-of-``runs`` compile seconds) of ``module`` in ``src``."""
    path = os.path.join(src, *module.split("."))
    path = os.path.join(path, "__init__.py") if os.path.isdir(path) else path + ".py"
    with open(path, "rb") as f:
        source = f.read()
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - t0)
    return len(source), best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=8, help="children per measurement")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(args.src, src, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        paths = {"site": src,
                 "-S": os.pathsep.join([src, sysconfig.get_paths()["purelib"]])}
        times: dict[str, dict[str, list[tuple[int, int]]]] = {name: {} for name, _ in STARTS}
        loaded = {name: set() for name, _ in STARTS}
        fetched = {name: set() for name, _ in STARTS}
        counts: dict[str, list[int]] = {name: [] for name, _ in STARTS}
        imported_peaks: dict[str, list[float]] = {name: [] for name, _ in STARTS}
        peaks: dict[str, list[float]] = {name: [] for name, _ in STARTS}
        walls: dict[str, list[float]] = {name: [] for name, _ in STARTS}
        ended: dict[str, list[float]] = {name: [] for name, _ in STARTS}
        for run in range(args.runs):
            for name, flags in STARTS:
                env = dict(os.environ, PYTHONPATH=paths[name], PYTHONDONTWRITEBYTECODE="1")
                proc = subprocess.run([sys.executable, *flags, "-X", "importtime", "-c", _CHILD],
                                      env=env, capture_output=True, text=True, timeout=120,
                                      check=True)
                by_import, by_fetch, count, imported_kib, peak_kib = json.loads(proc.stdout)
                loaded[name].update(by_import)
                fetched[name].update(by_fetch)
                counts[name].append(count)
                imported_peaks[name].append(imported_kib / 1024)
                peaks[name].append(peak_kib / 1024)
                for module, pair in _importtime(proc.stderr).items():
                    if module.split(".")[0] == "stirlingsum":
                        times[name].setdefault(module, []).append(pair)
                pair = ((walls, ["-m", "stirlingsum", "list", "--json"]), (ended, ["-c", _ENDED]))
                for where, argv in pair[::1 if run % 2 else -1]:
                    where[name].append(_wall([sys.executable, *flags, *argv], env))
        compiled = {module: _compile_cost(src, module, args.runs) for module in times["site"]}
    header = "".join(f"{name + ' self':>16}{'cumulative':>12}" for name, _ in STARTS)
    print(f"{'module':<28}{'bytes':>8}{'compile':>9}{header}   "
          f"(ms; compile best of {args.runs}, import medians of {args.runs})")
    for module in times["site"]:
        size, best = compiled[module]
        row = f"{size:>8}{best * 1e3:>9.1f}"
        for name, _ in STARTS:
            pairs = times[name].get(module, [(0, 0)])
            row += (f"{statistics.median(p[0] for p in pairs) / 1e3:>16.1f}"
                    f"{statistics.median(p[1] for p in pairs) / 1e3:>12.1f}")
        print(f"{module:<28}{row}")
    print(f"watched: {', '.join(WATCHED)}")
    for name, _ in STARTS:
        print(f"[{name}] loaded by import stirlingsum.cli: "
              f"{', '.join(sorted(loaded[name])) or 'none'}")
        print(f"[{name}] added by the first constant fetch and golden read: "
              f"{', '.join(sorted(fetched[name])) or 'none'}")
        print(f"[{name}] a child after import stirlingsum alone: peak RSS "
              f"{statistics.median(imported_peaks[name]):.2f} MiB; after import, fetch and "
              f"read: {statistics.median(counts[name]):.0f} modules, peak RSS "
              f"{statistics.median(peaks[name]):.2f} MiB (medians of {args.runs})")
        exits = [w - e for w, e in zip(walls[name], ended[name])]
        best_exit = min(walls[name]) - min(ended[name])
        print(f"[{name}] python -m stirlingsum list --json: "
              f"{statistics.median(walls[name]) * 1e3:.1f} ms wall, "
              f"{statistics.median(exits) * 1e3:.1f} ms of it exit (medians of {args.runs}), "
              f"{best_exit * 1e3:.1f} ms best-of exit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
