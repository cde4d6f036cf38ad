"""A traced stand-in for ``python -m stirlingsum`` in the cold-cli workload.

    python benchmark/cli_child.py OUT_JSON <stirlingsum CLI arguments>

Times the package import (which builds the catalog) and ``cli.main``, runs
``cli.main`` with the layer tracer on, writes the per-layer totals to
OUT_JSON and the spans beside it, and exits with ``cli.main``'s code.
"""

import json
import sys
import time

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from stirlingsum import cli

    import_s = time.perf_counter() - t0
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_request(0)
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        tracer.remove()
        tracer.replay_sums()
        totals = tracing.layer_totals(tracer.spans)
        totals["transform.sum_ms"] = tracer.sum_seconds * 1e3
        totals["cli.import_ms"] = import_s * 1e3
        totals["cli.main_ms"] = main_s * 1e3
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(totals, fh)
        tracer.write(out_path[: -len(".json")] + ".spans.jsonl")
    sys.exit(code)
