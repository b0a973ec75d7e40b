#!/usr/bin/env python3
"""Benchmark of the superjordan checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter that
imports superjordan, loads a fresh Catalog and runs the workload's checks on
inputs drawn from --seed; samples run one after another, in one process at a
time, until --seconds have passed.  Every row is checked against its known
answer.

--trace 0 prints the end-to-end metrics: set-up time, time to the last
verdict, and peak resident memory, as medians over the samples, and the
share of rows that failed.  The host's speed drifts by tens of percent within
seconds, so the time to the last verdict is also given as verdict_ref: the
run's total verdict_s over the total time of a fixed reference loop run next
to it in the same samples (see sample.py).  --trace 1
runs, for every workload in turn, one untraced and one traced sample of the
same inputs, and prints the per-layer metrics of the traced ones.  The
metric names and units are those of BENCHMARK.json.  The last line of
standard output is one JSON object; the inputs and per-sample numbers of the
run are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, check_rows, errata_keys  # noqa: E402


@dataclass
class Sample:
    inputs: dict
    setup_s: float
    verdict_s: float
    reference_s: float
    peak_rss_mb: float
    wall_s: float
    rows: list
    error: str = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self) -> dict:
        out = asdict(self)
        del out["rows"], out["wall_s"]
        out["failures"] = self.failures[:20]
        return out


def run_sample(workload: str, inputs: dict, trace_path=None) -> Sample:
    """One fresh interpreter: set-up is timed here up to its ``loaded`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # exact counts must repeat run to run
    spec = {"workload": workload, "inputs": inputs, "trace_path": trace_path and str(trace_path)}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=str(ROOT),
        env=env,
    )
    try:
        proc.stdin.write(json.dumps(spec).encode())
        proc.stdin.close()
        first = proc.stdout.readline()
        loaded = time.perf_counter()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    wall = time.perf_counter() - start
    lines = rest.decode().strip().splitlines()
    if first.strip() != b"loaded" or code != 0 or not lines:
        raise RuntimeError(f"sample process failed (exit {code}) on {workload}")
    out = json.loads(lines[-1])
    return Sample(
        inputs,
        loaded - start,
        out["verdict_s"],
        out["reference_s"],
        out["peak_rss_mb"],
        wall,
        [tuple(r) for r in out["rows"]],
        out["error"],
    )


def checked(sample: Sample, inputs: Inputs, errata: set, expect=None) -> Sample:
    counts = inputs.expected_counts(sample.inputs)
    sample.attempted, sample.failed, sample.failures = check_rows(counts, sample.rows, errata, expect)
    if sample.error:
        sample.failures.append(sample.error.strip().splitlines()[-1])
    return sample


def tail(values) -> str:
    """The highest percentile of ``values`` with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "no percentile has ten samples beyond it"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} s, the highest percentile with ten samples beyond it"


# ---------------------------------------------------------------------------
# per-layer metrics from the span files of traced samples
# ---------------------------------------------------------------------------

# Metrics made from counts only; they must repeat exactly at one seed.
EXACT_SUFFIXES = (".calls", ".reuse", ".hit_ratio", "_per_trial", "_per_sample", ".pairs_checked")

TRIAL_PARENTS = {"certificates.stability_test", "certificates.separation_test"}
DET = "linalg.int_matrix_det_adjugate"


def layer_metrics(traces) -> dict:
    """Per-layer metrics of traced samples (one per workload) taken together."""
    calls, self_s, total_s = Counter(), Counter(), Counter()
    durations = defaultdict(list)
    counts, extra, distinct = Counter(), Counter(), Counter()
    det_in_trials = 0
    for trace in traces:
        spans = trace["spans"]
        parent_of = {s[0]: (s[1], s[2]) for s in spans}
        child_time = Counter()
        for _sid, parent, _name, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, parent, name, start, end in spans:
            d = end - start
            calls[name] += 1
            total_s[name] += d
            self_s[name] += d - child_time[sid]
            durations[name].append(d)
            if name == DET:
                while parent is not None:
                    parent, pname = parent_of[parent]
                    if pname in TRIAL_PARENTS:
                        det_in_trials += 1
                        break
        counts.update(trace["counts"])
        extra.update(trace["extra"])
        distinct.update(trace["distinct"])

    out = {}
    for name in tracer.SPANNED:
        ds = sorted(durations[name])
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total_s[name]
        out[f"{name}.p50_ms"] = 1000 * statistics.median(ds) if ds else 0.0
        out[f"{name}.p90_ms"] = 1000 * (statistics.quantiles(ds, n=10)[8] if len(ds) > 1 else sum(ds))
    for name in tracer.COUNTED:
        out[f"{name}.calls"] = counts[name]
    out["catalog.file_parses_per_sample"] = sum(counts[p] for p in tracer.PARSERS) / len(traces)
    for name in tracer.DISTINCT_KEYS:
        out[f"{name}.reuse"] = distinct[name] / calls[name] if calls[name] else 0.0
    trials = 0
    for name in sorted(TRIAL_PARENTS):
        n, hits = extra[f"{name}.trials"], extra[f"{name}.hits"]
        trials += n
        out[f"{name}.trials_per_s"] = n / total_s[name] if total_s[name] else 0.0
        out[f"{name}.hit_ratio"] = hits / n if n else 0.0
    out["linalg.det_calls_per_trial"] = det_in_trials / trials if trials else 0.0
    out["envelope.pairs_checked"] = extra["envelope.pairs_checked"]
    return out


def top_span_seconds(trace) -> float:
    """Time covered by outermost spans after the Catalog was loaded."""
    return sum(
        end - start
        for _sid, parent, _name, start, end in trace["spans"]
        if parent is None and start >= trace["loaded"]
    )


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end_run(workload, seed, seconds, errata, cat):
    inputs = Inputs(cat, workload, seed)
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(checked(run_sample(workload, inputs.sample(len(samples))), inputs, errata))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(s.wall_s for s in samples) > seconds:
            break
    verdicts = [s.verdict_s for s in samples]
    metrics = {
        "setup_s": statistics.median(s.setup_s for s in samples),
        "verdict_s": statistics.median(verdicts),
        "verdict_ref": sum(verdicts) / sum(s.reference_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    lines = [
        f"workload {workload}, seed {seed}: {len(samples)} samples in {time.perf_counter() - start:.1f} s",
        f"setup_s      {metrics['setup_s']:.4f} s (median)",
        f"verdict_s    {metrics['verdict_s']:.4f} s (median); {tail(verdicts)}; {len(samples)} samples",
        f"verdict_ref  {metrics['verdict_ref']:.4f} (total verdict_s over total reference-loop time)",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB (median)",
        f"failed_share {failed / attempted:.4f} ({failed} of {attempted} rows)",
    ]
    lines += [f"  failed: {f}" for s in samples for f in s.failures][:10]
    record = {"workload": workload, "seed": seed, "metrics": metrics, "samples": [s.record() for s in samples]}
    return metrics, attempted, failed, lines, record


def traced_run(first, seed, seconds, errata, cat):
    order = [first] + [w for w in WORKLOADS if w != first]
    inputs = {w: Inputs(cat, w, seed) for w in order}
    rounds, lines = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        r = len(rounds)
        traces, plain_s, traced_s, top_s = [], 0.0, 0.0, 0.0
        for w in order:
            sample_inputs = inputs[w].sample(0)
            plain = checked(run_sample(w, sample_inputs), inputs[w], errata)
            path = OUT / f"trace-{w}-seed{seed}-round{r}.json"
            traced = checked(run_sample(w, sample_inputs, path), inputs[w], errata)
            trace = json.loads(path.read_text(encoding="utf-8"))
            traces.append(trace)
            plain_s += plain.verdict_s
            traced_s += traced.verdict_s
            top_s += top_span_seconds(trace)
            attempted += plain.attempted + traced.attempted
            failed += plain.failed + traced.failed
            if r == 0:
                lines.append(
                    f"{w}: verdict_s untraced {plain.verdict_s:.3f} s, traced {traced.verdict_s:.3f} s; "
                    f"outermost spans cover {top_span_seconds(trace) / traced.verdict_s:.1%} of it"
                )
        if r == 0:
            per_workload = {w: layer_metrics([t]) for w, t in zip(order, traces)}
        metrics = layer_metrics(traces)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
        metrics["trace.top_span_share"] = top_s / traced_s
        rounds.append(metrics)
        round_s = (time.perf_counter() - start) / len(rounds)
        if time.perf_counter() - start + round_s > seconds:
            break
    metrics = {}
    repeat_ok = True
    for name in rounds[0]:
        values = [m[name] for m in rounds]
        if name.endswith(EXACT_SUFFIXES):
            repeat_ok = repeat_ok and len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    lines.insert(0, f"traced run from {first}, seed {seed}: {len(rounds)} rounds of {len(order)} workloads")
    lines.append(f"{'span':44} {'calls':>8} {'self_s':>9} {'p50_ms':>9} {'p90_ms':>9}")
    for name in sorted(tracer.SPANNED, key=lambda n: -metrics[f"{n}.self_s"]):
        if metrics[f"{name}.calls"]:
            lines.append(
                f"{name:44} {metrics[f'{name}.calls']:8d} {metrics[f'{name}.self_s']:9.4f} "
                f"{metrics[f'{name}.p50_ms']:9.3f} {metrics[f'{name}.p90_ms']:9.3f}"
            )
    lines.append(
        f"tracing overhead {metrics['trace.overhead_s']:.3f} s ({metrics['trace.overhead_share']:.1%}) "
        f"over the {len(order)} workloads; counts repeat across rounds: {repeat_ok}"
    )
    record = {
        "first": first,
        "seed": seed,
        "inputs": {w: inputs[w].sample(0) for w in order},
        "rounds": rounds,
        "per_workload_round0": per_workload,
    }
    return metrics, attempted, failed, repeat_ok, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "superjordan" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"error: run from a checkout holding src/superjordan and BENCHMARK.json ({ROOT})", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from superjordan.catalog import Catalog

    cat = Catalog()
    errata = errata_keys(cat.root)
    OUT.mkdir(exist_ok=True)
    # write the bytecode of every module before the first timed sample
    compileall.compile_dir(str(SRC / "superjordan"), quiet=1)
    compileall.compile_dir(str(HERE), maxlevels=0, quiet=1)

    if args.trace:
        values, attempted, failed, correct, lines, record = traced_run(
            args.workload, args.seed, args.seconds, errata, cat
        )
        wanted = bench["per_layer"]
        name = f"trace-{args.workload}-seed{args.seed}.json"
    else:
        values, attempted, failed, lines, record = end_to_end_run(
            args.workload, args.seed, args.seconds, errata, cat
        )
        correct = True
        wanted = bench["end_to_end"]
        name = f"{args.workload}-seed{args.seed}.json"
    record_path = OUT / name
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print("\n".join(lines))
    print(f"inputs and per-sample numbers: {record_path.relative_to(ROOT)}")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
