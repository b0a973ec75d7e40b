"""Fingerprint identification: the decomposition and even-part sweeps on the
packaged catalog and on a rescaled low-dimensional table, the per-call
identification loop as their oracle, and the invariants cached by table."""

import dataclasses
import functools
import shutil
from collections import Counter
from pathlib import Path

import pytest

from conftest import CACHED_INVARIANTS, clear_invariant_caches

from superjordan import atlas, invariants
from superjordan import verify as V
from superjordan.algebra import power_filtration
from superjordan.atlas import build_graph
from superjordan.catalog import Catalog
from superjordan.cli import main
from superjordan.invariants import (
    algebra_fingerprint,
    even_part,
    identify_algebra,
    orbit_dimension,
    subalgebra,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "superjordan" / "data"


@pytest.fixture(scope="module")
def label_rows(catalog):
    return V.verify_decompositions(catalog), V.verify_even_parts(catalog)


def test_decomposition_and_even_part_sweeps(catalog, label_rows):
    decompositions, even_parts = label_rows
    assert len(decompositions) == len(even_parts) == 149
    rows = decompositions + even_parts
    assert [r.display for r in rows if not r.acceptable] == []
    logged = {r.check_id for r in rows if r.logged}
    ledger = {k for k in catalog.errata_keys() if k.startswith("decomposition:")}
    assert len(ledger) == 12
    assert logged == ledger


def test_even_part_sweep_builds_each_reference_node_once(catalog, monkeypatch):
    # one candidate list per even dimension m, not one per entry
    built = Counter()
    node_algebra = Catalog.node_algebra

    def counted(self, label):
        built[label] += 1
        return node_algebra(self, label)

    monkeypatch.setattr(Catalog, "node_algebra", counted)
    assert len(V.verify_even_parts(catalog)) == 149
    nodes = [label for m in (1, 2, 3) for label in catalog.even_graph_for(m).nodes]
    assert sorted(built.elements()) == sorted(nodes)


def test_wrong_labels_fail(catalog, label_rows, monkeypatch):
    # J15 is indecomposable and Jc36 has even part B1; neither key is logged
    monkeypatch.setattr(catalog.entry("J15"), "decomposition", "S1_1+S2_3")
    monkeypatch.setattr(catalog.entry("Jc36"), "even_part_label", "B2")
    before = {r.check_id: r for r in label_rows[0] + label_rows[1]}
    after = V.verify_decompositions(catalog) + V.verify_even_parts(catalog)
    changed = {r.check_id: r.display for r in after if r != before[r.check_id]}
    assert changed == {
        "decomposition:J15": "FAIL decomposition:J15 computed ?(1,3), declared S1_1+S2_3",
        "even-part:Jc36": "FAIL even-part:Jc36 identified B1, declared B2",
    }


@pytest.mark.parametrize(
    "product, failing",
    [
        # S2_3 rescaled: isomorphic to the printed table, but by no basis
        # permutation, so its three appearances are no longer named
        ("f1*f2 = 2 e", ["decomposition:J1", "decomposition:Jc17", "decomposition:Jc22"]),
        # S2_3 with f1 and f2 swapped: a permutation, so every row still passes
        ("f1*f2 = -e", []),
    ],
)
def test_a_block_is_named_only_through_a_basis_permutation(tmp_path, capsys, product, failing):
    root = tmp_path / "data"
    shutil.copytree(DATA, root)
    path = root / "catalog" / "lowdim" / "S2_3.alg"
    path.write_text(path.read_text().replace("f1*f2 = e", product))
    assert main(["--catalog", str(root), "verify-catalog", "--full"]) == (1 if failing else 0)
    fails = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == failing


def _identify_per_call(J, candidates, fingerprint):
    """The identification loop without cache or type filter: every candidate
    fingerprinted on every call."""
    fp = fingerprint(J)
    hits = [label for label, cand in candidates if fingerprint(cand) == fp]
    if len(hits) == 1:
        return hits[0]
    return None


def _table(J):
    return (J.m, J.n, J.alpha, J.beta, J.gamma, J.delta)


def test_memoized_identification_matches_per_call_loop(catalog):
    # uncached fingerprints, cached per algebra here, apart from the
    # package's cache, only to keep the oracle from taking tens of seconds
    fingerprint = functools.lru_cache(maxsize=None)(algebra_fingerprint.__wrapped__)
    lowdim = list(catalog.lowdim.items())
    labels = Counter()
    for name in catalog.names():
        J = catalog.instances(name)[0]
        graph = catalog.even_graph_for(J.m)
        even_cands = [(label, catalog.node_algebra(label)) for label in graph.nodes]
        subs = [(subalgebra(J, block), lowdim) for block in V._interaction_blocks(J)]
        for sub, cands in subs + [(even_part(J), even_cands)]:
            want = _identify_per_call(sub, cands, fingerprint)
            assert identify_algebra(sub, cands) == want, name
            labels[want is not None, sub.m + sub.n] += 1
    # 416 blocks and even parts; the 64 left unidentified are the whole
    # tables of the 64 indecomposable entries
    assert sum(labels.values()) == 416
    assert {key: n for key, n in labels.items() if not key[0]} == {(False, 4): 64}


def test_each_invariant_computed_once_per_table(monkeypatch, verified_witnesses):
    # every call, by its cache key: the table (an algebra's equality ignores
    # its name) and the other arguments
    seen = {cached.__name__: set() for cached in CACHED_INVARIANTS}

    def recorded(cached):
        def wrapper(J, *args):
            seen[cached.__name__].add((_table(J), args))
            return cached(J, *args)

        return wrapper

    # in every module that calls it
    for cached in CACHED_INVARIANTS:
        wrapper = recorded(cached)
        for module in (invariants, V, atlas):
            if vars(module).get(cached.__name__) is cached:
                monkeypatch.setattr(module, cached.__name__, wrapper)
    cat = Catalog()
    assert seen == {name: set() for name in seen}
    V.verify_orbits(cat)
    V.verify_decompositions(cat)
    V.verify_even_parts(cat)
    V.verify_lemma_screens(cat)
    V.screen_pair(cat, "J7", "J5")
    verified = [(w, v) for w, v, _ in verified_witnesses if v.verified]
    for mn in V.COMPONENTS:
        build_graph(mn, cat, verified)
    assert all(seen.values())
    # one miss per distinct argument, whatever the name or block
    misses = {cached.__name__: cached.cache_info().misses for cached in CACHED_INVARIANTS}
    assert misses == {name: len(keys) for name, keys in seen.items()}
    # a second pass, on a second catalog too, computes nothing
    V.verify_decompositions(cat)
    V.verify_lemma_screens(cat)
    V.verify_orbits(Catalog())
    assert {cached.__name__: cached.cache_info().misses for cached in CACHED_INVARIANTS} == misses


def test_other_types_are_not_fingerprinted(catalog, monkeypatch):
    types = []
    fingerprint = invariants.algebra_fingerprint

    def recorded(J):
        types.append((J.m, J.n))
        return fingerprint(J)

    monkeypatch.setattr(invariants, "algebra_fingerprint", recorded)
    J = catalog.lowdim["S1_2"]
    assert identify_algebra(J, catalog.lowdim.items()) == "S1_2"
    same_type = [name for name, A in catalog.lowdim.items() if (A.m, A.n) == (J.m, J.n)]
    assert len(same_type) < len(catalog.lowdim)
    # J itself once, then each candidate of its type, J among them
    assert types == [(J.m, J.n)] * (1 + len(same_type))
    # J's entry is reused
    assert algebra_fingerprint.cache_info().misses == len(same_type)


def test_no_fingerprint_without_a_candidate_of_the_type(catalog, monkeypatch):
    calls = []
    fingerprint = invariants.algebra_fingerprint

    def recorded(J):
        calls.append(J.name)
        return fingerprint(J)

    monkeypatch.setattr(invariants, "algebra_fingerprint", recorded)
    J = catalog.lookup("J15")
    assert J.m + J.n == 4 and all(A.m + A.n < 4 for A in catalog.lowdim.values())
    assert identify_algebra(J, catalog.lowdim.items()) is None
    assert calls == []


def test_memo_hashes_each_algebra_once(catalog, monkeypatch):
    from superjordan.algebra import SuperAlgebra

    J = catalog.lookup("Jc9")
    want = algebra_fingerprint(J), orbit_dimension(J)
    clear_invariant_caches()
    hashed = []

    def constants_hash(J):
        hashed.append(J.name)
        return hash((J.m, J.n, J.alpha, J.beta, J.gamma, J.delta))

    prop = functools.cached_property(constants_hash)
    prop.__set_name__(SuperAlgebra, "_hash")
    monkeypatch.setattr(SuperAlgebra, "_hash", prop)
    A, B = (dataclasses.replace(J, name=name) for name in "AB")
    fp = algebra_fingerprint(A)
    assert algebra_fingerprint(A) is fp and power_filtration(A) is power_filtration(A)
    # equality ignores the name, so B shares A's entries
    assert B == A and algebra_fingerprint(B) is fp
    assert algebra_fingerprint.cache_info().misses == 1
    assert (fp, orbit_dimension(B)) == want
    assert hashed == ["A", "B"]
