"""The benchmark's workloads check every sample's rows against fixed counts;
a change to the data or the sweeps that moves one of them must fail here,
not only when someone runs ``perfbench/run.py``."""

import importlib
import sys
from pathlib import Path

from superjordan import verify as V

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_workload_counts_match_the_sweeps(catalog):
    workloads = _load_workloads()
    assert workloads.WITNESS_ROWS == len(catalog.witnesses())
    assert workloads.CERTIFICATE_ROWS == len(V.verify_certificates(catalog, trials=1))
    assert workloads.SCREEN_ROWS == sum(len(grp.targets) for grp in catalog.lemma_pairs)
    assert workloads.COMPONENTS == V.COMPONENTS
