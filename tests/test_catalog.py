from itertools import combinations

import pytest

from superjordan.algebra import check_super_jordan, flatten, graded_table, nonzero_constants, unflatten
from superjordan.catalog import ParameterError, UnknownName, UnknownNode
from superjordan.ratfun import RatFun

from conftest import supercommutativity_violations


def test_entry_counts(catalog):
    assert len(catalog.names((1, 3))) == 19
    assert len(catalog.names((2, 2))) == 71
    assert len(catalog.names((3, 1))) == 59
    assert len(catalog.entries) == 149


def test_lookup_examples(catalog):
    j5 = catalog.lookup("J5")
    assert (j5.m, j5.n) == (1, 3)
    assert j5.beta[0][0][1] == 1  # e f1 = f2
    assert j5.delta[1][2][0] == 1  # f2 f3 = e

    jc16_0 = catalog.lookup("Jc16", 0)
    assert jc16_0.delta[0][1][0] == 1  # f1 f2 = e1
    assert jc16_0.delta[0][1][1] == 0  # the t e2 term vanishes at t = 0

    with pytest.raises(UnknownName):
        catalog.lookup("nope")
    with pytest.raises(ParameterError):
        catalog.lookup("Jc16")
    with pytest.raises(ParameterError):
        catalog.lookup("J5", 3)


def test_family_symbolic_instantiation(catalog):
    s = RatFun.var()
    inst = catalog.lookup("Jc16", 1 + s)
    assert inst.delta[0][1][1] == 1 + s


def test_supercommutativity_across_catalog(catalog):
    for name in catalog.names():
        assert not supercommutativity_violations(catalog.entry(name).algebra), name


def test_flatten_injective_per_type(catalog):
    for mn in ((1, 3), (2, 2), (3, 1)):
        seen = {}
        for name in catalog.names(mn):
            entry = catalog.entry(name)
            J = catalog.lookup(name, 2) if entry.is_family else entry.algebra
            key = flatten(J)
            assert key not in seen, (name, seen.get(key))
            seen[key] = name


def test_reachability_examples(catalog):
    dim1, dim2 = catalog.graphs["dim1"], catalog.graphs["dim2"]
    assert dim2.reachable("U1+U1", "B3")
    assert not dim2.reachable("B2", "B1")
    assert dim2.reachable("B2", "B2")
    assert dim1.reachable("U1", "U2")
    with pytest.raises(UnknownNode):
        dim2.reachable("B2", "missing")


# Second, independent transcription of the reference graphs (in-edges per
# node); compared against the packaged edge lists at test time.
DIM2_IN_EDGES = {
    "B1": ["U1+U1"],
    "U1+U2": ["U1+U1"],
    "B3": ["U1+U2", "B1"],
    "C2": ["B2", "B3"],
}

DIM3_IN_EDGES = {
    "T2": ["T1", "T10"],
    "T3": ["T1", "B1+U2", "B3+U1"],
    "B3+U2": ["T2", "T4", "U1+U2+U2"],
    "T4": ["T3", "T6", "B2+U2"],
    "T8": ["T5"],
    "T10": ["T5"],
    "C3": ["T7", "B3+U2"],
    "B2+U2": ["T8", "T10", "B2+U1"],
    "T6": ["T9", "B2+U1"],
    "B1+U1": ["U1+U1+U1"],
    "U1+U1+U2": ["U1+U1+U1"],
    "T1": ["B1+U1"],
    "B1+U2": ["B1+U1", "U1+U1+U2"],
    "B3+U1": ["B1+U1", "U1+U1+U2"],
    "U1+U2+U2": ["B2+U1", "B3+U1"],
}


@pytest.mark.parametrize(
    "graph_name,in_edges",
    [("dim2", DIM2_IN_EDGES), ("dim3", DIM3_IN_EDGES)],
)
def test_graph_double_entry(catalog, graph_name, in_edges):
    expected = {(src, dst) for dst, srcs in in_edges.items() for src in srcs}
    packaged = set(catalog.graphs[graph_name].edges)
    assert packaged == expected


def test_graph_edge_endpoints_resolve(catalog):
    for graph in catalog.graphs.values():
        for node in graph.nodes:
            alg = catalog.node_algebra(node)
            assert alg.m + alg.n >= 1


def test_graphs_have_no_self_loops_or_cycles(catalog):
    for graph in catalog.graphs.values():
        for src, dst in graph.edges:
            assert src != dst
        for node in graph.nodes:
            for src, dst in graph.edges:
                if src == node:
                    assert not graph.reachable(dst, node), (graph.name, node, dst)


def test_node_algebras_pass_identity(catalog):
    for graph in catalog.graphs.values():
        for node in graph.nodes:
            assert check_super_jordan(catalog.node_algebra(node)).ok, node


def test_errata_parse(catalog):
    keys = catalog.errata_keys()
    assert "witness:geo1:J14->J10" in keys
    assert "orbit:Jc16" in keys
    ids = [e.id for e in catalog.errata]
    assert len(ids) == len(set(ids))


def test_lemma_pairs_loaded(catalog):
    assert any(g.source == "J5" and "J7" in g.targets for g in catalog.lemma_pairs)
    total = sum(len(g.targets) for g in catalog.lemma_pairs)
    assert total == 8 + 2 * 8 * 17  # geo1 row + both directions of the B2 block


def test_component_lists(catalog):
    c13 = catalog.components["type13"]
    assert len(c13["rigid"]) == 11 and not c13["families"]
    c22 = catalog.components["type22"]
    assert len(c22["rigid"]) == 24 and c22["families"] == ["Jc16"]
    c31 = catalog.components["type31"]
    assert len(c31["rigid"]) == 21 and not c31["families"]


def _block_violations(J, blocks):
    """What makes ``blocks`` not the connected components of J's
    basis-interaction graph, checked from the definition: they must
    partition the basis, no nonzero c[a,b,k] may touch two of them, and
    every proper part S of a block must meet a constant that touches both
    S and the rest of the block."""
    table, _par = graded_table(J)
    touched = [{a, b, k} for a, b, k, _c in nonzero_constants(table)]
    out = []
    if sorted(v for block in blocks for v in block) != list(range(len(table))):
        out.append(f"{blocks} is not a partition")
    out += [f"{sorted(t)} links two blocks" for t in touched if not any(t <= set(b) for b in blocks)]
    for block in blocks:
        for r in range(1, len(block)):
            for part in map(set, combinations(block, r)):
                if not any(t & part and t - part for t in touched):
                    out.append(f"{sorted(part)} splits off {block}")
    return out


def test_interaction_blocks_match_their_definition(catalog):
    from superjordan.verify import _interaction_blocks

    # every catalog instance (Jc16 at its three samples), the low-dimensional
    # tables and the reference-graph nodes, whose direct sums have several blocks
    cases = [J for name in catalog.names() for J in catalog.instances(name)]
    cases += list(catalog.lowdim.values())
    cases += [catalog.node_algebra(node) for graph in catalog.graphs.values() for node in graph.nodes]
    assert len(cases) == 151 + 31 + 28
    several = 0
    for J in cases:
        blocks = _interaction_blocks(J)
        assert not _block_violations(J, blocks), J.name
        several += len(blocks) > 1
    assert several == 98


def test_a_constant_linking_two_summands_merges_their_blocks(catalog):
    from superjordan.verify import _interaction_blocks

    merged = 0
    for graph in catalog.graphs.values():
        for node in graph.nodes:
            J = catalog.node_algebra(node)
            blocks = _interaction_blocks(J)
            if len(blocks) < 2:
                continue
            # the even tables of the graphs: x_a x_b = x_a keeps the grading
            a, b = blocks[0][0], blocks[1][0]
            table = [[list(row) for row in plane] for plane in graded_table(J)[0]]
            table[a][b][a] += 1
            linked = unflatten(table, J.m, J.n)
            assert _block_violations(linked, blocks)  # the oracle sees the link
            # and sees two unlinked summands taken for one block
            assert _block_violations(J, [sorted(blocks[0] + blocks[1])] + blocks[2:])
            relinked = _interaction_blocks(linked)
            assert not _block_violations(linked, relinked), node
            assert sorted(blocks[0] + blocks[1]) in relinked, node
            assert len(relinked) == len(blocks) - 1, node
            merged += 1
    assert merged == 13


def test_decomposition_labels_split(catalog):
    # every non-Indecomposable entry genuinely splits into blocks; rows whose
    # printed labels are recorded as errata only need to split, not to match
    from superjordan.verify import _interaction_blocks

    logged = catalog.errata_keys()
    for name in catalog.names():
        entry = catalog.entry(name)
        J = catalog.lookup(name, 2) if entry.is_family else entry.algebra
        blocks = _interaction_blocks(J)
        declared = (entry.decomposition or "").strip().lower()
        if declared == "indecomposable":
            assert len(blocks) == 1, name
        elif f"decomposition:{name}" in logged:
            assert len(blocks) >= 2, name
        else:
            assert len(blocks) == len(entry.decomposition.split("+")), name
