"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v``).

Failures of published rows that are recorded in the errata ledger count as
documented exceptions, matching the verification philosophy everywhere
else in the package: surface discrepancies, never patch them silently, and
fail only on undocumented ones.
"""

import random
from fractions import Fraction

import pytest

from superjordan import verify as V
from superjordan.algebra import (
    apply_graded_change,
    check_super_jordan,
    flatten,
    power_filtration,
)
from superjordan.atlas import build_graph, component_report, edge_monotonicity_violations
from superjordan.certificates import certificate_table, closed_set_eval
from superjordan.degeneration import specialize_witness, witness_matrix, is_graded_matrix
from superjordan.envelope import envelope_jordan_check
from superjordan.invariants import (
    derivation_dims,
    is_associative,
    table_is_associative,
    ungraded_derivation_dim,
    ungraded_power_dims,
)
from superjordan.linalg import int_matrix_det_adjugate
from conftest import perturb_entry


def _emit(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line


def test_criterion_1_identity_suite(catalog):
    rows, elapsed = V.verify_identities(catalog)
    failures = [r for r in rows if not r.ok]
    ok = not failures and len(rows) == 149 and elapsed < 10.0
    _emit(
        "criterion-1-identities",
        ok,
        f"{len(rows) - len(failures)}/149 entries pass in {elapsed:.1f}s"
        + (f"; failures {[r.check_id for r in failures]}" if failures else ""),
    )


def test_criterion_2_orbit_columns(catalog):
    rows = V.verify_orbits(catalog)
    unlogged = [r for r in rows if not r.acceptable]
    logged = [r for r in rows if r.logged]
    # the named examples must match outright, not via errata
    must_match = {
        "orbit:J15": 4,
        "orbit:J5": 12,
        "orbit:Jc58": 4,
        "orbit:Jc2": 13,
        "orbit:Jf1": 15,
        "orbit:Jf49": 4,
    }
    named_ok = all(
        any(r.check_id == key and r.ok for r in rows) for key in must_match
    )
    ok = not unlogged and named_ok
    _emit(
        "criterion-2-orbit-columns",
        ok,
        f"{sum(1 for r in rows if r.ok)}/{len(rows)} match; "
        f"{len(logged)} documented mismatches: {[r.check_id for r in logged]}",
    )


def test_criterion_3_witness_replay(catalog, verified_witnesses):
    rows = verified_witnesses
    verified, published_total, published_ok = V.witness_summary(rows)
    failed_published = [
        (w, v, r) for w, v, r in rows if w.status.startswith("published") and not v.verified
    ]
    all_failures_logged = all(r.logged for _, _, r in failed_published)
    fraction = published_ok / published_total
    # every verified witness basis lies in the structure group GL_m x GL_n
    mixing = []
    for w, v, r in rows:
        if not v.verified:
            continue
        src, _tgt = V.resolve_witness_algebras(catalog, w)
        P, order = witness_matrix(w, src)
        if not is_graded_matrix(P, order):
            mixing.append(r.check_id)
    ok = fraction >= 0.95 and all_failures_logged and not mixing
    _emit(
        "criterion-3-witness-replay",
        ok,
        f"{published_ok}/{published_total} published rows verified "
        f"({100 * fraction:.1f}%); {len(failed_published)} failures all logged: "
        f"{[r.check_id for _, _, r in failed_published]}; "
        f"{verified} verified bases, parity-mixing: {mixing}",
    )


@pytest.fixture(scope="module")
def certificate_rows(catalog):
    return V.verify_certificates(catalog, trials=1000, seed=0)


def test_criterion_4_certificates(catalog, certificate_rows):
    rows = certificate_rows
    unlogged = [r for r in rows if not r.acceptable]
    logged = [r for r in rows if r.logged]
    # a family instance's row ends in @p
    sources = [r for r in rows if r.check_id.split("@")[0].endswith(":source")]
    stability = [r for r in rows if r.check_id.split("@")[0].endswith(":stability")]
    # separation over the structure group leaks nothing, so no row is logged
    ok = not unlogged and not logged and all(r.ok for r in sources) and all(r.ok for r in stability)
    _emit(
        "criterion-4-certificates",
        ok,
        f"{len(sources)} sources exact, {len(stability)} stability runs 1000/1000, "
        f"{sum(1 for r in rows if 'separation' in r.check_id and r.ok)} separations >=99%; "
        f"logged rows: {[r.check_id for r in logged]}",
    )


def test_criterion_5_lemma_screens(catalog):
    rows = V.verify_lemma_screens(catalog)
    screens_ok = all(r.ok for r in rows)
    # certificate pairs: the target must violate the certificate in the
    # declared basis (or be screened); spot the whole table
    cert_pairs = 0
    cert_ok = True
    for cs in catalog.closed_sets():
        for tname in cs.targets:
            for T in catalog.instances(tname):
                cert_pairs += 1
                if closed_set_eval(certificate_table(cs, T), cs):
                    cert_ok = False
    ok = screens_ok and cert_ok
    _emit(
        "criterion-5-lemma-screens",
        ok,
        f"{len(rows)} lemma-reason pairs all obstructed; "
        f"{cert_pairs} certificate targets all rejected in the declared basis",
    )


def test_criterion_6_component_accounting(catalog, verified_witnesses):
    # the paper's table, kept literal here so an edit to COMPONENTS is caught
    assert V.COMPONENTS == {(1, 3): (11, 12), (2, 2): (25, 13), (3, 1): (21, 15)}
    verified = [(w, v) for w, v, _ in verified_witnesses if v.verified]
    details = []
    ok = True
    for mn, (count, dim) in V.COMPONENTS.items():
        g = build_graph(mn, catalog, verified)
        rep = component_report(mn, catalog, g)
        good = rep.ok(count, dim) and not edge_monotonicity_violations(g)
        ok = ok and good
        details.append(
            f"type{mn[0]}{mn[1]}: {rep.component_count} comps"
            f" ({rep.rigid_count}r+{rep.family_count}f) dim {rep.computed_dimension}"
        )
    _emit("criterion-6-components", ok, "; ".join(details))


def test_criterion_7_type_remark():
    rows = V.verify_type_remark()
    ok = all(r.ok for r in rows)
    _emit("criterion-7-ambient-dims", ok, "64, 36, 32, 28 pairwise distinct")


def test_criterion_8_envelope_cross_check(catalog):
    names = ["J1", "J15", "Jc16", "Jc58", "Jf49"]
    agreements = 0
    for i, name in enumerate(names):
        entry = catalog.entry(name)
        J = catalog.lookup(name, 2) if entry.is_family else entry.algebra
        if check_super_jordan(J).ok == envelope_jordan_check(J).ok:
            agreements += 1
        variant = perturb_entry(catalog, name, seed=2000 + i)
        if check_super_jordan(variant).ok == envelope_jordan_check(variant).ok:
            agreements += 1
    _emit("criterion-8-envelope", agreements == 10, f"{agreements}/10 agreements at k=4")


def test_criterion_9_invariance(catalog):
    rng = random.Random(0)
    names = ["J1", "J5", "J15", "Jc16", "Jc42", "Jc58", "Jc69", "Jf1", "Jf42", "Jf53"]
    equalities = 0
    expected = 0
    for name in names:
        entry = catalog.entry(name)
        J = catalog.lookup(name, 2) if entry.is_family else entry.algebra
        base = (derivation_dims(J), power_filtration(J), is_associative(J))
        for _ in range(20):
            while True:
                pe = [[rng.randint(-2, 2) for _ in range(J.m)] for _ in range(J.m)]
                po = [[rng.randint(-2, 2) for _ in range(J.n)] for _ in range(J.n)]
                if (
                    int_matrix_det_adjugate(pe)[0] != 0
                    and int_matrix_det_adjugate(po)[0] != 0
                ):
                    break
            moved = apply_graded_change(
                J,
                [[Fraction(x) for x in row] for row in pe],
                [[Fraction(x) for x in row] for row in po],
            )
            got = (derivation_dims(moved), power_filtration(moved), is_associative(moved))
            expected += 3
            equalities += sum(1 for a, b in zip(base, got) if a == b)
    _emit(
        "criterion-9-invariance",
        equalities == expected == 600,
        f"{equalities}/600 exact equalities over 10 entries x 20 graded changes",
    )


def test_criterion_10_generic_fiber(catalog, verified_witnesses):
    checked = 0
    ok = True
    for wit, verdict, _ in verified_witnesses:
        if checked >= 20:
            break
        if not verdict.verified:
            continue
        if wit.family_swept:
            continue  # swept-family rows have no fixed source to compare
        src, _tgt = V.resolve_witness_algebras(catalog, wit)
        try:
            fiber, _ram = specialize_witness(wit, src, Fraction(7))
        except ZeroDivisionError:
            fiber, _ram = specialize_witness(wit, src, Fraction(11))
        base = flatten(src)
        same = (
            ungraded_derivation_dim(fiber) == ungraded_derivation_dim(base)
            and ungraded_power_dims(fiber) == ungraded_power_dims(base)
            and table_is_associative(fiber) == table_is_associative(base)
        )
        ok = ok and same
        checked += 1
    _emit(
        "criterion-10-generic-fiber",
        ok and checked == 20,
        f"{checked} witnesses specialized at a regular value, invariants match the source",
    )
