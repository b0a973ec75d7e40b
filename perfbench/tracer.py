"""Outside tracing: wrap the public functions of each superjordan layer by
rebinding the names their callers look up, record one span per call in
memory, and write the spans out when the sample ends.

Nothing under ``src/`` is changed.  A wrapped function is replaced in every
loaded ``superjordan`` module that holds it under some name (``verify`` imports
``identify_algebra`` from ``invariants``, ``certificates`` imports
``int_matrix_det_adjugate`` from ``linalg``, ...), and methods are replaced on
their class.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Functions that get a span per call: "<module>.<function>" or
# "<module>.<Class>.<method>".
SPANNED = (
    "verify.verify_identities",
    "verify.verify_orbits",
    "verify.verify_decompositions",
    "verify.verify_even_parts",
    "verify.verify_witnesses",
    "verify.verify_lemma_screens",
    "verify.verify_certificates",
    "catalog.Catalog.__init__",
    "catalog.Catalog.lookup",
    "catalog.Catalog.witnesses",
    "catalog.Catalog.closed_sets",
    "algebra.check_super_jordan",
    "algebra.power_filtration",
    "algebra.apply_graded_change",
    "algebra.flatten",
    "invariants.identify_algebra",
    "invariants.algebra_fingerprint",
    "invariants.orbit_dimension",
    "invariants.derivation_dims",
    "invariants.even_part",
    "invariants.nondegeneration_screen",
    "invariants.ungraded_derivation_dim",
    "linalg.rank",
    "linalg.nullspace_dim",
    "linalg.row_reduce_basis",
    "linalg.int_matrix_det_adjugate",
    "linalg.invert_field_matrix",
    "ratfun.poly_gcd",
    "degeneration.verify_degeneration",
    "degeneration.apply_basis_change_table",
    "degeneration.specialize_witness",
    "certificates.stability_test",
    "certificates.separation_test",
    "certificates.transform_int_table",
    "certificates.closed_set_eval",
    "envelope.envelope_jordan_check",
    "atlas.build_graph",
    "atlas.component_report",
)

# Functions too hot for a span: only their calls are counted.
COUNTED = (
    "algebra.SuperAlgebra.multiply",
    "ratfun.RatFun.__mul__",
)

# The catalog's file parsers; their calls are summed into
# catalog.file_parses_per_sample.
PARSERS = (
    "catalog.parse_algebra_file",
    "catalog.parse_witness_file",
    "catalog.parse_closed_set_file",
    "catalog.parse_errata",
    "catalog._parse_edges",
    "catalog._parse_components",
    "catalog._parse_lemma_pairs",
)


def _algebra_key(J, *args, **kwargs):
    return (J.m, J.n, J.alpha, J.beta, J.gamma, J.delta)


# Distinct inputs are counted for these, giving the reuse ratios.
DISTINCT_KEYS = {
    "invariants.algebra_fingerprint": _algebra_key,
    "invariants.orbit_dimension": _algebra_key,
}


def _record_randomized(tracer, name, report):
    tracer.extra[f"{name}.trials"] += report.trials
    tracer.extra[f"{name}.hits"] += report.hits


def _record_envelope(tracer, name, report):
    tracer.extra["envelope.pairs_checked"] += report.pairs_checked


# Counters read off a function's result.
RESULT_HOOKS = {
    "certificates.stability_test": _record_randomized,
    "certificates.separation_test": _record_randomized,
    "envelope.envelope_jordan_check": _record_envelope,
}


class Tracer:
    """Spans and counters of one sample, kept in memory."""

    def __init__(self):
        self.spans = []  # (span id, parent id or None, name, start, end)
        self.counts = Counter()
        self.extra = Counter()
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self._stack = []
        self._next_id = 0
        self._restore = []

    # ---- wrappers ----------------------------------------------------------
    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        key = DISTINCT_KEYS.get(name)
        seen = self.distinct.get(name)
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                seen.add(key(*args, **kwargs))
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(tracer, name, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- rebinding ---------------------------------------------------------
    def install(self):
        """Wrap every listed function; the superjordan modules must already
        be imported, so that each name a caller imported can be found."""
        for name in SPANNED:
            self._rebind(name, self._spanned)
        for name in COUNTED + PARSERS:
            self._rebind(name, self._counted)

    def _rebind(self, dotted, make):
        module_name, *path = dotted.split(".")
        module = importlib.import_module(f"superjordan.{module_name}")
        if len(path) == 2:
            cls = getattr(module, path[0])
            original = cls.__dict__[path[1]]
            self._restore.append((cls, path[1], original))
            setattr(cls, path[1], make(dotted, original))
            return
        original = getattr(module, path[0])
        wrapper = make(dotted, original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("superjordan"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- output ------------------------------------------------------------
    def write(self, path, origin, loaded, finished):
        """Write spans (times in seconds from ``origin``) and counters."""
        data = {
            "loaded": loaded - origin,
            "finished": finished - origin,
            "spans": [
                [sid, parent, name, round(start - origin, 9), round(end - origin, 9)]
                for sid, parent, name, start, end in self.spans
            ],
            "counts": dict(self.counts),
            "extra": dict(self.extra),
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
