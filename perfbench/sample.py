"""One benchmark sample, run in a fresh interpreter by run.py.

Reads a JSON object from standard input:
    {"workload": ..., "inputs": {...}, "trace_path": null or a file path}
prints ``loaded`` as soon as the Catalog is loaded (run.py times set-up up to
that line), runs the workload's checks between two runs of a reference loop,
and prints one JSON line with the rows, verdict_s, the reference loop's time
and peak resident memory.  With ``trace_path`` the public functions of every
layer are wrapped before the Catalog is built and the spans are written to
that file.
"""

import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def reference_loop() -> float:
    """Seconds taken by a fixed piece of exact arithmetic that uses no
    superjordan code.  The host's speed drifts by tens of percent within
    seconds; run.py divides the run's total verdict_s by the total of this
    time, measured next to it in the same samples, to cancel the drift."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 36000):
        acc += Fraction(i % 97, i % 13 + 1) * Fraction(3, 7)
    table = {}
    for i in range(120000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return time.perf_counter() - start


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, str(HERE))
    import workloads

    from superjordan import (  # noqa: F401  (every layer, so tracing can rebind it)
        algebra,
        atlas,
        catalog,
        certificates,
        degeneration,
        envelope,
        invariants,
        linalg,
        ratfun,
        tablefmt,
        verify,
    )

    tracer = None
    origin = time.perf_counter()
    if spec.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cat = catalog.Catalog()
    loaded = time.perf_counter()
    print("loaded", flush=True)

    reference_s = reference_loop()
    rows = []
    error = None
    start = time.perf_counter()
    try:
        workloads.run_sample(spec["workload"], spec["inputs"], cat, rows)
    except Exception:  # reported as missing rows, counted as failed
        error = traceback.format_exc()
    finished = time.perf_counter()
    reference_s += reference_loop()
    if tracer is not None:
        tracer.restore()
        tracer.write(spec["trace_path"], origin, loaded, finished)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "verdict_s": finished - start,
                "reference_s": reference_s,
                "peak_rss_mb": peak_kib / 1024,
                "rows": rows,
                "error": error,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
