"""Degeneration-graph assembly per type, irreducible-component accounting,
and DOT export.

Nodes are catalog names (one node per family, annotated with its
parameter); edges are verified witnesses.  Family-parameterized sources
(parameter expressions that vary with t) sweep through the one-parameter
family, so their effective dimension for the monotonicity check is the
generic orbit dimension plus one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .catalog import Catalog, _name_sort_key, reachable_nodes
from .degeneration import Witness
from .invariants import orbit_dimension


class UnverifiedWitness(ValueError):
    pass


@dataclass(frozen=True)
class DegenEdge:
    source: str
    target: str
    label: str
    family_swept: bool  # source parameter varies with t


@dataclass
class DegenGraph:
    mn: Tuple[int, int]
    nodes: List[str]
    edges: List[DegenEdge]
    orbit: Dict[str, int]
    rigid: Set[str]
    family_nodes: Set[str]

    def reachable_from(self, start: str) -> Set[str]:
        return reachable_nodes(((e.source, e.target) for e in self.edges), start)


def build_graph(
    mn: Tuple[int, int],
    cat: Catalog,
    witness_verdicts: Sequence[Tuple[Witness, object]],
) -> DegenGraph:
    """Graph of verified witnesses for one type.

    ``witness_verdicts`` pairs each witness with its replay verdict; an
    unverified witness in the input is an error (filter first if that is
    intended)."""
    names = cat.names(mn)
    orbit = {name: orbit_dimension(cat.instances(name)[0]) for name in names}
    family_nodes = {name for name in names if cat.entry(name).is_family}
    comp = cat.components.get(_type_dirname(mn), {})
    rigid = set(comp.get("rigid", [])) | set(comp.get("families", []))
    edges = []
    seen = set()
    for wit, verdict in witness_verdicts:
        if wit.source not in orbit or wit.target not in orbit:
            continue
        if not verdict.verified:
            raise UnverifiedWitness(wit.label or f"{wit.source}->{wit.target}")
        key = (wit.source, wit.target)
        if key in seen:
            continue
        seen.add(key)
        edges.append(DegenEdge(wit.source, wit.target, wit.label, wit.family_swept))
    return DegenGraph(mn, names, edges, orbit, rigid, family_nodes)


def _type_dirname(mn: Tuple[int, int]) -> str:
    return f"type{mn[0]}{mn[1]}"


def edge_monotonicity_violations(g: DegenGraph) -> List[str]:
    """Orbit dimension must strictly drop along every edge between distinct
    nodes; a family-swept source counts with one extra parameter dimension."""
    out = []
    for e in g.edges:
        if e.source == e.target:
            continue
        src_dim = g.orbit[e.source] + (1 if e.family_swept else 0)
        if not src_dim > g.orbit[e.target]:
            out.append(
                f"{e.source}->{e.target}: {src_dim} !> {g.orbit[e.target]}"
            )
    return out


@dataclass(frozen=True)
class ComponentReport:
    mn: Tuple[int, int]
    claimed_dimension: int
    component_count: int
    rigid_count: int
    family_count: int
    computed_dimension: int
    rigidity_violations: Tuple[str, ...]
    unreachable: Tuple[str, ...]

    def ok(self, expect_count: int, expect_dim: int) -> bool:
        """The claimed count and dimension, no representative reached from
        another, and every algebra of the type in some component."""
        return (
            self.component_count == expect_count
            and self.computed_dimension == expect_dim
            and self.claimed_dimension == expect_dim
            and not self.rigidity_violations
            and not self.unreachable
        )


def component_report(mn: Tuple[int, int], cat: Catalog, graph: DegenGraph) -> ComponentReport:
    comp = cat.components[_type_dirname(mn)]
    rigid = comp["rigid"]
    families = comp["families"]
    reps = rigid + families
    # variety dimension: max over components of orbit dim + parameter count
    dims = []
    for name in rigid:
        dims.append(graph.orbit[name])
    for name in families:
        dims.append(graph.orbit[name] + 1)
    computed_dim = max(dims) if dims else 0
    reach = {rep: graph.reachable_from(rep) for rep in reps}
    # no representative may be reachable from another via verified witnesses
    violations = [
        f"{other} reachable from {rep}"
        for rep in reps
        for other in reps
        if rep != other and other in reach[rep]
    ]
    # coverage: every non-representative node should be reachable from a rep
    unreachable = tuple(sorted(set(graph.nodes).difference(*reach.values())))
    return ComponentReport(
        mn,
        comp["dimension"],
        len(reps),
        len(rigid),
        len(families),
        computed_dim,
        tuple(sorted(violations)),
        unreachable,
    )


def export_dot(g: DegenGraph) -> str:
    """Deterministic DOT text: nodes ranked by orbit dimension descending,
    rigid nodes styled distinctly."""
    lines = ["digraph degenerations {", "  rankdir=TB;", '  node [shape=box, style=rounded];']
    by_orbit: Dict[int, List[str]] = {}
    for name in g.nodes:
        by_orbit.setdefault(g.orbit[name], []).append(name)
    for orbit in sorted(by_orbit, reverse=True):
        names = sorted(by_orbit[orbit], key=_name_sort_key)
        members = []
        for name in names:
            attrs = [f'label="{name} ({orbit})"']
            if name in g.rigid:
                attrs.append("style=filled")
                attrs.append("fillcolor=gray85")
            if name in g.family_nodes:
                attrs.append("peripheries=2")
            lines.append(f'  "{name}" [{", ".join(attrs)}];')
            members.append(f'"{name}"')
        lines.append(f'  {{ rank=same; {"; ".join(members)}; }}')
    for e in sorted(g.edges, key=lambda e: (_name_sort_key(e.source), _name_sort_key(e.target))):
        lines.append(f'  "{e.source}" -> "{e.target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
