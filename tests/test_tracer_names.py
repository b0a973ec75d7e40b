"""The benchmark's tracer wraps superjordan functions by name; a renamed
function must fail here, not only when someone runs ``perfbench/run.py
--trace 1``."""

import importlib
import sys
from pathlib import Path

import superjordan.cli  # noqa: F401  (loads every superjordan module)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolve(dotted):
    """The function a dotted tracer name denotes, as stored on its owner."""
    module_name, *path = dotted.split(".")
    owner = importlib.import_module(f"superjordan.{module_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    assert path[-1] in vars(owner), dotted
    return vars(owner)[path[-1]]


def test_traced_names_resolve_and_restore():
    tracer = _load_tracer()
    names = tracer.SPANNED + tracer.COUNTED + tracer.PARSERS
    originals = {name: _resolve(name) for name in names}
    assert all(callable(fn) for fn in originals.values())
    t = tracer.Tracer()
    try:
        t.install()
        assert all(_resolve(name) is not originals[name] for name in names)
    finally:
        t.restore()
    assert all(_resolve(name) is originals[name] for name in names)
