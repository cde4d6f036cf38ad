"""One set-up of an in-process workload, in a fresh process.

    python benchmark/warm_child.py WORKLOAD SEED

Imports the package (which builds the catalog), serves the workload's
warm-up pass once and prints the seconds of each as JSON. ``run.py`` takes
the median over this and its own set-up, so that one slow spell of the
machine moves ``setup_s`` less.
"""

import json
import sys
import time

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import stirlingsum.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import serve
    import workloads

    lists = workloads.warmup_lists(workload, seed)
    t1 = time.perf_counter()
    for reqs in lists:
        for req in reqs:
            serve.serve_api(req)
    print(json.dumps({"import_s": import_s, "warmup_s": time.perf_counter() - t1}))
