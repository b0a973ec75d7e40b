import dataclasses

import pytest

from superjordan.atlas import (
    DegenEdge,
    DegenGraph,
    UnverifiedWitness,
    build_graph,
    component_report,
    edge_monotonicity_violations,
    export_dot,
)
from superjordan.verify import COMPONENTS, verify_components


@pytest.fixture(scope="module")
def graphs(catalog, verified_witnesses):
    verified = [(w, v) for w, v, _ in verified_witnesses if v.verified]
    return {mn: build_graph(mn, catalog, verified) for mn in COMPONENTS}


def test_graph_edges_present(graphs):
    g13 = graphs[(1, 3)]
    assert any(e.source == "J5" and e.target == "J2" for e in g13.edges)
    g31 = graphs[(3, 1)]
    assert any(e.source == "Jf1" and e.target == "Jf5" for e in g31.edges)


def test_empty_witness_set(catalog):
    g = build_graph((1, 3), catalog, [])
    assert g.edges == [] and len(g.nodes) == 19


def test_unverified_witness_rejected(catalog, verified_witnesses):
    bad = [(w, v) for w, v, _ in verified_witnesses if not v.verified]
    assert bad, "expected the recorded erratum row to be unverified"
    with pytest.raises(UnverifiedWitness):
        build_graph((1, 3), catalog, bad)


def test_orbit_monotone_along_edges(graphs):
    for g in graphs.values():
        assert edge_monotonicity_violations(g) == []


def test_graph_is_dag(graphs):
    for g in graphs.values():
        for e in g.edges:
            assert e.source != e.target
            assert e.source not in g.reachable_from(e.target), e


def test_component_reports(catalog, graphs):
    for mn, (count, dim) in COMPONENTS.items():
        rep = component_report(mn, catalog, graphs[mn])
        assert rep.component_count == count
        assert rep.computed_dimension == dim
        assert rep.claimed_dimension == dim
        assert not rep.rigidity_violations
        assert not rep.unreachable


def test_component_row_fails_when_an_algebra_lies_in_no_component(catalog, verified_witnesses):
    # with no verified witness into J1, no representative reaches it
    verified = [(w, v) for w, v, _ in verified_witnesses if v.verified and w.target != "J1"]
    [(graph, row)] = verify_components(catalog, verified, types=[(1, 3)])
    assert "J1" in graph.nodes
    assert row.display == (
        "FAIL components:type13 11 components (11 rigid + 0 family), dimension 12;"
        " unreachable ('J1',)"
    )


def _report_by_pairs(mn, catalog, g):
    """The rigidity violations and unreachable nodes of ``component_report``,
    one search per ordered pair of representatives: its oracle."""
    comp = catalog.components[{(1, 3): "type13", (2, 2): "type22", (3, 1): "type31"}[mn]]
    reps = comp["rigid"] + comp["families"]
    violations = [
        f"{other} reachable from {rep}"
        for rep in reps
        for other in reps
        if rep != other and other in g.reachable_from(rep)
    ]
    covered = set()
    for rep in reps:
        covered |= g.reachable_from(rep)
    return tuple(sorted(violations)), tuple(sorted(set(g.nodes) - covered)), len(reps)


def test_component_report_searches_once_per_representative(catalog, graphs, monkeypatch):
    rep_13 = catalog.components["type13"]["rigid"]
    # an edge between two representatives is a rigidity violation
    g = graphs[(1, 3)]
    joined = dataclasses.replace(g, edges=g.edges + [DegenEdge(rep_13[0], rep_13[1], "test", False)])
    cases = [(mn, graphs[mn]) for mn in COMPONENTS] + [((1, 3), joined)]
    for mn, graph in cases:
        violations, unreachable, n_reps = _report_by_pairs(mn, catalog, graph)
        searches = []
        reach = DegenGraph.reachable_from
        monkeypatch.setattr(DegenGraph, "reachable_from", lambda self, s: searches.append(s) or reach(self, s))
        rep = component_report(mn, catalog, graph)
        monkeypatch.undo()
        assert (rep.rigidity_violations, rep.unreachable) == (violations, unreachable)
        assert len(searches) == n_reps
    assert _report_by_pairs((1, 3), catalog, joined)[0] == (f"{rep_13[1]} reachable from {rep_13[0]}",)


def test_type22_split_counts(catalog, graphs):
    rep = component_report((2, 2), catalog, graphs[(2, 2)])
    assert rep.rigid_count == 24 and rep.family_count == 1


def test_dot_export(graphs):
    g13 = graphs[(1, 3)]
    dot = export_dot(g13)
    assert '"J5" -> "J2";' in dot
    # every edge is a graded degeneration and is drawn alike
    assert '"J3" -> "J1";' in dot
    assert all("dashed" not in export_dot(g) for g in graphs.values())
    assert dot == export_dot(g13)  # byte-identical across runs
    single = build_graph_like_single(g13)
    text = export_dot(single)
    assert text.count("->") == 0


def build_graph_like_single(g):
    from superjordan.atlas import DegenGraph

    return DegenGraph(
        g.mn, ["J5"], [], {"J5": g.orbit["J5"]}, set(), set()
    )
