"""The four workloads: seeded inputs, the body of one sample, and the known
answers every row is checked against.

Inputs are drawn in the parent process from ``--seed`` and handed to each
sample as JSON, so the program sees only the generated inputs.  A sample body
calls the public functions of ``superjordan`` through their modules
(``verify.verify_orbits``, ``algebra.flatten``, ...), the way
``verify-catalog`` and ``scripts/run_full_verification.py`` do, so that the
traced run can rebind them.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("catalog-sweep", "degeneration-atlas", "certificate-trials", "cross-check")

TYPES = ((1, 3), (2, 2), (3, 1))

# The only family entry, and the only symbolic RatFun identity path.
FAMILY_ENTRY = "Jc16"

# Known answers of the classification (the same numbers the acceptance
# suite and scripts/run_full_verification.py hold).
WITNESS_ROWS = 93
SCREEN_ROWS = 280
CERTIFICATE_ROWS = 265
COMPONENTS = {(1, 3): (11, 12), (2, 2): (25, 13), (3, 1): (21, 15)}

# Sample sizes, chosen so that one sample takes one to four seconds.
CERTIFICATE_TRIALS = 20
FIBERS_PER_SAMPLE = 6
CROSS_ENTRIES_PER_TYPE = 2

# Step of the low-discrepancy walk over each type's entries.
_GOLDEN = (math.sqrt(5) - 1) / 2


def errata_keys(data_root: Path) -> set:
    """Keys of errata.txt, read here independently of the program's parser."""
    text = (data_root / "errata.txt").read_text(encoding="utf-8")
    return {m.group(1).strip() for m in re.finditer(r"(?m)^\s*key\s*=\s*(\S.*)$", text)}


# ---------------------------------------------------------------------------
# Inputs (parent side)
# ---------------------------------------------------------------------------


def _summands(entry) -> int:
    declared = (entry.decomposition or "").strip()
    return 1 if declared.lower() == "indecomposable" else len(declared.split("+"))


class Inputs:
    """Seeded inputs of every sample of one workload.

    Entries are drawn per type from the type's list ordered by declared
    number of summands, walking it with a seeded offset and a golden-ratio
    step.  Every run thus sees the same mix of small and large
    decompositions, which is what the cost of an entry depends on most.
    """

    def __init__(self, cat, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.families = {n for n in cat.names() if cat.entry(n).is_family}
        self.pools = {
            mn: sorted(
                (n for n in cat.names(mn) if n != FAMILY_ENTRY),
                key=lambda n: (_summands(cat.entry(n)), n),
            )
            for mn in TYPES
        }
        self.cat = cat
        logged = {k for k in errata_keys(cat.root) if k.startswith("witness:")}
        self.witnesses = cat.witnesses()
        self.fiber_witnesses = [
            i
            for i, w in enumerate(self.witnesses)
            if w.source_param is None and f"witness:{w.label}" not in logged
        ]
        rng = random.Random(f"{workload}/{seed}")
        self.offsets = {mn: rng.random() for mn in TYPES}

    def _walk(self, mn, index: int, count: int):
        pool = self.pools[mn]
        u = (self.offsets[mn] + index * _GOLDEN) % 1.0
        return [pool[int(((u + j / count) % 1.0) * len(pool))] for j in range(count)]

    def sample(self, index: int) -> dict:
        """Inputs of sample ``index``; the same (seed, index) gives the same."""
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        if self.workload == "catalog-sweep":
            names = [FAMILY_ENTRY] + [self._walk(mn, index, 1)[0] for mn in TYPES]
            return {"entries": names}
        if self.workload == "degeneration-atlas":
            return {
                "fibers": [
                    {"witness": i, "label": self.witnesses[i].label, "t0": self._regular_t0(i, rng)}
                    for i in rng.sample(self.fiber_witnesses, FIBERS_PER_SAMPLE)
                ]
            }
        if self.workload == "certificate-trials":
            return {"certificate_seed": self.seed, "trials": CERTIFICATE_TRIALS}
        entries = []
        for mn in TYPES:
            for name in self._walk(mn, index, CROSS_ENTRIES_PER_TYPE):
                entries.append(
                    {
                        "name": name,
                        "perturbation_seed": rng.randrange(1 << 30),
                        "p_even": _invertible(rng, mn[0]),
                        "p_odd": _invertible(rng, mn[1]),
                    }
                )
        return {"entries": entries}

    def _regular_t0(self, index: int, rng) -> str:
        """A nonzero t0 at which the witness basis P(t0) is invertible, so
        the fiber there is isomorphic to the source (criterion 10)."""
        from superjordan import degeneration, verify

        wit = self.witnesses[index]
        src, _tgt = verify.resolve_witness_algebras(self.cat, wit)
        P, _order = degeneration.witness_matrix(wit, src)
        while True:
            t0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            try:
                values = [[x.evaluate(t0) for x in row] for row in P]
            except ZeroDivisionError:
                continue
            if _det(values) != 0:
                return str(t0)

    def expected_counts(self, inputs: dict) -> dict:
        """Rows each sweep must produce for these inputs."""
        if self.workload == "catalog-sweep":
            n = len(inputs["entries"])
            fams = sum(1 for name in inputs["entries"] if name in self.families)
            return {"identity": n, "orbit": n + 2 * fams, "decomposition": n, "even-part": n}
        if self.workload == "degeneration-atlas":
            return {
                "witness": WITNESS_ROWS,
                "screen": SCREEN_ROWS,
                "components": len(COMPONENTS),
                "fiber": len(inputs["fibers"]),
            }
        if self.workload == "certificate-trials":
            return {"certificate": CERTIFICATE_ROWS}
        n = len(inputs["entries"])
        return {"envelope": n, "perturbed": n, "invariance": n}


def _det(m) -> Fraction:
    """Determinant of a square Fraction matrix by Gaussian elimination; kept
    apart from superjordan.linalg so that the inputs do not depend on the
    code under test."""
    m = [list(row) for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _invertible(rng, k: int):
    """Integer matrix L*U with unit lower L and nonzero diagonal in U."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(k)] for i in range(k)]
    upper = [
        [rng.choice((-2, -1, 1, 2)) if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(k)]
        for i in range(k)
    ]
    return [[sum(lower[i][l] * upper[l][j] for l in range(k)) for j in range(k)] for i in range(k)]


# ---------------------------------------------------------------------------
# Verdict check (parent side)
# ---------------------------------------------------------------------------


def check_rows(expected_counts: dict, rows, errata: set, expect=None):
    """Compare each row with its known answer.

    A row is correct when PASS, or when XFAIL for a key in errata.txt (the
    key of a family row ``orbit:Jc16@2`` is ``orbit:Jc16``).  ``expect``
    maps a row id to the set of verdicts accepted instead.  Rows missing
    from a sweep, or beyond its expected count, count as failed.
    Returns (attempted, failed, list of failure descriptions).
    """
    expect = expect or {}
    by_sweep = {}
    for sweep, row_id, verdict, detail in rows:
        by_sweep.setdefault(sweep, []).append((row_id, verdict, detail))
    attempted = failed = 0
    failures = []
    for sweep in sorted(set(expected_counts) | set(by_sweep)):
        want = expected_counts.get(sweep, 0)
        got = by_sweep.get(sweep, [])
        attempted += max(want, len(got))
        if len(got) != want:
            failed += abs(want - len(got))
            failures.append(f"{sweep}: {len(got)} rows, expected {want}")
        for row_id, verdict, detail in got:
            allowed = expect.get(row_id)
            if allowed is None:
                logged = row_id.split("@")[0] in errata
                allowed = {"PASS", "XFAIL"} if logged else {"PASS"}
            if verdict not in allowed:
                failed += 1
                failures.append(f"{verdict} {row_id} {detail}".rstrip())
    return attempted, failed, failures


# ---------------------------------------------------------------------------
# Sample bodies (child side)
# ---------------------------------------------------------------------------


def _verdict(row) -> str:
    return "PASS" if row.ok else ("XFAIL" if row.logged else "FAIL")


def _sweep_rows(sweep, results):
    return [(sweep, r.check_id, _verdict(r), r.detail) for r in results]


class _Drawn:
    """The loaded catalog with ``names()`` limited to the drawn entries."""

    def __init__(self, cat, names):
        self._cat = cat
        self._names = set(names)

    def names(self, mn=None):
        return [n for n in self._cat.names(mn) if n in self._names]

    def __getattr__(self, attr):
        return getattr(self._cat, attr)


def run_sample(workload: str, inputs: dict, cat, rows: list):
    """Run one sample's checks on a loaded catalog, appending one
    (sweep, id, verdict, detail) tuple per row to ``rows``."""
    if workload == "catalog-sweep":
        _catalog_sweep(cat, inputs, rows)
    elif workload == "degeneration-atlas":
        _degeneration_atlas(cat, inputs, rows)
    elif workload == "certificate-trials":
        from superjordan import verify

        rows += _sweep_rows(
            "certificate",
            verify.verify_certificates(
                cat, trials=inputs["trials"], seed=inputs["certificate_seed"]
            ),
        )
    else:
        _cross_check(cat, inputs, rows)


def _catalog_sweep(cat, inputs, rows):
    from superjordan import verify

    drawn = _Drawn(cat, inputs["entries"])
    identity, _elapsed = verify.verify_identities(drawn)
    rows += _sweep_rows("identity", identity)
    rows += _sweep_rows("orbit", verify.verify_orbits(drawn))
    rows += _sweep_rows("decomposition", verify.verify_decompositions(drawn))
    rows += _sweep_rows("even-part", verify.verify_even_parts(drawn))


def _degeneration_atlas(cat, inputs, rows):
    from superjordan import algebra, atlas, degeneration, invariants, verify

    replayed = verify.verify_witnesses(cat)
    rows += _sweep_rows("witness", [row for _w, _v, row in replayed])
    rows += _sweep_rows("screen", verify.verify_lemma_screens(cat))
    verified = [(w, v) for w, v, _row in replayed if v.verified]
    for mn, (count, dim) in COMPONENTS.items():
        graph = atlas.build_graph(mn, cat, verified)
        report = atlas.component_report(mn, cat, graph)
        ok = report.ok(count, dim) and not atlas.edge_monotonicity_violations(graph)
        detail = f"{report.component_count} components, dimension {report.computed_dimension}"
        rows.append(("components", f"components:type{mn[0]}{mn[1]}", "PASS" if ok else "FAIL", detail))
    for fiber_input in inputs["fibers"]:
        wit, verdict, _row = replayed[fiber_input["witness"]]
        row_id = f"fiber:{wit.label}"
        if not verdict.verified:
            rows.append(("fiber", row_id, "FAIL", "witness not verified"))
            continue
        src, _tgt = verify.resolve_witness_algebras(cat, wit)
        fiber, _ram = degeneration.specialize_witness(wit, src, Fraction(fiber_input["t0"]))
        base = algebra.flatten(src)
        same = (
            invariants.ungraded_derivation_dim(fiber) == invariants.ungraded_derivation_dim(base)
            and invariants.ungraded_power_dims(fiber) == invariants.ungraded_power_dims(base)
            and invariants.table_is_associative(fiber) == invariants.table_is_associative(base)
        )
        rows.append(("fiber", f"{row_id}@{fiber_input['t0']}", "PASS" if same else "FAIL", ""))


def _cross_check(cat, inputs, rows):
    from superjordan import algebra, envelope, invariants

    for item in inputs["entries"]:
        name = item["name"]
        entry = cat.entry(name)
        J = cat.lookup(name, 2) if entry.is_family else cat.lookup(name)

        graded = algebra.check_super_jordan(J).ok
        env = envelope.envelope_jordan_check(J).ok
        rows.append(("envelope", f"envelope:{name}", "PASS" if graded and env else "FAIL", f"graded {graded}, envelope {env}"))

        variant = perturb(J, random.Random(item["perturbation_seed"]))
        graded = algebra.check_super_jordan(variant).ok
        env = envelope.envelope_jordan_check(variant).ok
        rows.append(("perturbed", f"envelope:{variant.name}", "PASS" if graded == env else "FAIL", f"graded {graded}, envelope {env}"))

        moved = algebra.apply_graded_change(
            J,
            [[Fraction(x) for x in r] for r in item["p_even"]],
            [[Fraction(x) for x in r] for r in item["p_odd"]],
        )
        holds = algebra.check_super_jordan(moved).ok
        before = (invariants.derivation_dims(J), algebra.power_filtration(J), invariants.is_associative(J))
        after = (invariants.derivation_dims(moved), algebra.power_filtration(moved), invariants.is_associative(moved))
        ok = holds and before == after
        rows.append(("invariance", f"invariance:{name}", "PASS" if ok else "FAIL", f"identity {holds}, invariants equal {before == after}"))


def perturb(J, rng):
    """J with one random structure constant added, keeping the grading and
    supercommutativity; usually no longer Jordan."""
    from superjordan.algebra import SuperAlgebra

    alpha, beta, gamma, delta = (
        [[list(row) for row in plane] for plane in t] for t in (J.alpha, J.beta, J.gamma, J.delta)
    )
    basis = [(0, i) for i in range(J.m)] + [(1, p) for p in range(J.n)]
    while True:
        (pa, a), (pb, b) = rng.choice(basis), rng.choice(basis)
        if not (pa == pb == 1 and a == b):
            break
    c = Fraction(rng.choice((1, 2, -1)))
    if pa == pb == 0:
        k = rng.randrange(J.m)
        alpha[a][b][k] += c
        if a != b:
            alpha[b][a][k] += c
    elif pa == pb == 1:
        k = rng.randrange(J.m)
        delta[a][b][k] += c
        delta[b][a][k] -= c
    else:
        i, p = (a, b) if pa == 0 else (b, a)
        q = rng.randrange(J.n)
        beta[i][p][q] += c
        gamma[p][i][q] += c

    def freeze(t):
        return tuple(tuple(tuple(row) for row in plane) for plane in t)

    return SuperAlgebra(
        J.m, J.n, freeze(alpha), freeze(beta), freeze(gamma), freeze(delta), name=f"{J.name}~"
    )
