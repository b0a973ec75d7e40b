#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at minimal size (one sample) and checks that every
metric of BENCHMARK.json is printed with its unit; runs the traced run twice
at one seed and checks that the exact counts repeat; and runs three negative
controls: a deliberately wrong expected verdict and a missing row must raise
the failed share above 0, and the benchmark must refuse to run without the
program's sources.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS, Inputs, check_rows

sys.path.insert(0, str(run.SRC))

FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench_run(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def printed_metrics(stdout: str, wanted) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result has exactly its four keys")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        expect(
            got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
            f"metric {m['name']} printed in {m['unit']}",
        )
    return result


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    for workload in WORKLOADS:
        code, out = bench_run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
        expect(code == 0, f"{workload}: exit code 0")
        result = printed_metrics(out, bench["end_to_end"])
        expect(result["correct"] and result["failed"] == 0, f"{workload}: every row as expected")
        expect("failed_share" in out, f"{workload}: failed_share printed with its base")

    exact = [m["name"] for m in bench["per_layer"] if m["name"].endswith(run.EXACT_SUFFIXES)]
    traced = []
    for _ in range(2):
        code, out = bench_run("--workload", "cross-check", "--seed", "0", "--seconds", "1", "--trace", "1")
        expect(code == 0, "traced run: exit code 0")
        traced.append(printed_metrics(out, bench["per_layer"])["metrics"])
    for name in exact:
        expect(traced[0][name]["value"] == traced[1][name]["value"], f"{name} repeats at one seed")

    # Negative controls on one real sample.
    from superjordan.catalog import Catalog

    cat = Catalog()
    errata = run.errata_keys(cat.root)
    inputs = Inputs(cat, "catalog-sweep", 0)
    sample = run.run_sample("catalog-sweep", inputs.sample(0))
    counts = inputs.expected_counts(sample.inputs)
    _, failed, _ = check_rows(counts, sample.rows, errata)
    expect(failed == 0, "control: the sample's rows match their known answers")
    _, failed, _ = check_rows(counts, sample.rows, errata, expect={"identity:Jc16": {"FAIL"}})
    expect(failed > 0, "control: a wrong expected verdict raises the failed share")
    _, failed, _ = check_rows(counts, sample.rows[1:], errata)
    expect(failed > 0, "control: a missing row raises the failed share")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, out = bench_run("--workload", "catalog-sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not out.strip(), "control: no sources, non-zero exit and no result")

    print(f"{len(FAILURES)} checks failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
