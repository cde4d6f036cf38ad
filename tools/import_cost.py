#!/usr/bin/env python3
"""Where a cold start of the package spends its import time.

    python tools/import_cost.py [--runs N] [--src DIR]

Copies ``src`` (by default the one beside this script's directory) to a
temporary directory without ``__pycache__`` or ``.pyc`` files, so that every
child compiles the package from source, and runs N fresh children with
``PYTHONDONTWRITEBYTECODE=1``:

- N children of ``python -X importtime -c "import stirlingsum.cli"``, each
  then fetching one head constant (pi, 30 digits), which reads and checks
  the reference digits; it prints the median self and cumulative time of
  each ``stirlingsum`` module, in import order, names any of ``WATCHED``
  that the import loaded and any that the first fetch added, and the
  median peak resident memory (``ru_maxrss``) of a child after both;
- N children of ``python -m stirlingsum list --json``; it prints the median
  wall time of one, start to exit.

Medians of fresh children still follow the machine's speed, so compare two
trees with alternating runs of this script, not with one run of each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# hashlib loads OpenSSL's _hashlib, about 3.5 MiB of resident memory
WATCHED = ("dataclasses", "inspect", "statistics", "hashlib", "_hashlib")
_CHILD = (
    "import json, resource, sys\n"
    f"watched = set({WATCHED!r})\n"
    "before = set(sys.modules)\n"
    "import stirlingsum.cli\n"
    "imported = set(sys.modules)\n"
    "from stirlingsum.constants import PI, get_constant\n"
    "get_constant(PI, 30)\n"
    "print(json.dumps([sorted(watched & (imported - before)),\n"
    "                  sorted(watched & (set(sys.modules) - imported)),\n"
    "                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n"
)


def _importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """{module: (self us, cumulative us)} from ``-X importtime`` lines."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, total, name = line[len("import time:"):].split("|")
        out[name.strip()] = (int(own), int(total))
    return out


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
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        times: dict[str, list[tuple[int, int]]] = {}
        loaded: set[str] = set()
        fetched: set[str] = set()
        peaks = []
        for _ in range(args.runs):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", _CHILD], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            by_import, by_fetch, peak_kib = json.loads(proc.stdout)
            loaded.update(by_import)
            fetched.update(by_fetch)
            peaks.append(peak_kib / 1024)
            for name, pair in _importtime(proc.stderr).items():
                if name.split(".")[0] == "stirlingsum":
                    times.setdefault(name, []).append(pair)
        walls = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "stirlingsum", "list", "--json"], env=env,
                           capture_output=True, timeout=120, check=True)
            walls.append(time.perf_counter() - t0)
    print(f"{'module':<28}{'self ms':>10}{'cumulative ms':>15}   (medians of {args.runs})")
    for name, pairs in times.items():
        own = statistics.median(p[0] for p in pairs) / 1e3
        total = statistics.median(p[1] for p in pairs) / 1e3
        print(f"{name:<28}{own:>10.1f}{total:>15.1f}")
    print(f"loaded by import stirlingsum.cli: {', '.join(sorted(loaded)) or 'none'} "
          f"(of {', '.join(WATCHED)})")
    print(f"added by the first constant fetch: {', '.join(sorted(fetched)) or 'none'}")
    print(f"peak RSS of a child after import and one fetch: {statistics.median(peaks):.2f} MiB "
          f"(median of {args.runs})")
    print(f"python -m stirlingsum list --json: {statistics.median(walls) * 1e3:.1f} ms wall "
          f"(median of {args.runs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
