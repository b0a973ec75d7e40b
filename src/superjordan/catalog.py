"""The embedded classification database: the three 4-dimensional tables,
the low-dimensional Jordan algebra/superalgebra tables, reference
degeneration graphs, component lists, witnesses, certificates, and the
errata ledger.  Everything is stored as reviewable data files; this module
only loads and cross-checks them, and a ``Catalog`` holds only their data.

Each file is read once.  The record ``tablefmt.parse_algebra`` returns for
a 4-dimensional table, with its built algebra, is that table's catalog
entry (``entry``); a low-dimensional table is kept as its algebra
(``lowdim``).  A witness keeps its ramification and its source parameter
as ``degeneration.parse_witness`` read them.  The tables are read first,
so a name in a component list or a lemma pair is checked against them at
its line.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from .algebra import SuperAlgebra, direct_sum, graded_table, load, unflatten
from .certificates import ClosedSet, parse_closed_set_file
from .degeneration import Witness, parse_witness_file
from .invariants import SCREEN_ITEMS
from .ratfun import RatFun, ratfun_compose
from .tablefmt import AlgebraFile, ParseError, excerpt, parse_algebra_file, read_count, read_lines, unknown_line

# parameter values at which the one-parameter family is checked numerically
FAMILY_SAMPLES = (2, 3, 5)


class UnknownName(KeyError):
    def __str__(self) -> str:
        return f"unknown catalog name {self.args[0]!r}"


class ParameterError(ValueError):
    """A family named without its parameter, or another entry with one."""


class UnknownNode(KeyError):
    pass


TYPE_DIRS = {"type13": (1, 3), "type22": (2, 2), "type31": (3, 1)}


@dataclass(frozen=True)
class ReferenceGraph:
    name: str
    nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]

    def reachable(self, a: str, b: str) -> bool:
        if a not in self.nodes or b not in self.nodes:
            raise UnknownNode(f"{a!r} or {b!r} not in graph {self.name}")
        return b in reachable_nodes(self.edges, a)


def reachable_nodes(edges: Iterable[Tuple[Hashable, Hashable]], start: Hashable) -> Set[Hashable]:
    """``start`` and every node reached from it along the directed
    ``edges``, given as (source, target) pairs: the graph searches, and the
    blocks of a table (``verify._interaction_blocks``)."""
    successors = defaultdict(list)
    for src, dst in edges:
        successors[src].append(dst)
    seen, stack = {start}, [start]
    while stack:
        for nxt in successors[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True)
class Erratum:
    id: str
    kind: str
    key: str
    detail: str


@dataclass
class LemmaPairGroup:
    source: str
    targets: List[str]
    reason: str


class Catalog:
    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root else Path(__file__).resolve().parent / "data"
        if not self.root.is_dir():
            raise FileNotFoundError(f"catalog root {self.root} does not exist")
        self.entries: Dict[str, AlgebraFile] = {}
        self.by_type: Dict[Tuple[int, int], List[str]] = {}
        self.lowdim: Dict[str, SuperAlgebra] = {}
        self.graphs: Dict[str, ReferenceGraph] = {}
        self.components: Dict[str, dict] = {}
        self.errata: List[Erratum] = []
        self.lemma_pairs: List[LemmaPairGroup] = []
        self._load()

    # ---- loading -----------------------------------------------------------
    def _load(self):
        for dirname, mn in TYPE_DIRS.items():
            names = []
            dirpath = self.root / "catalog" / dirname
            paths = sorted(dirpath.glob("*.alg"))
            if not paths:
                raise ParseError(f"{dirpath}: missing or empty catalog directory (no .alg files)")
            for path in paths:
                af = parse_algebra_file(path)
                if af.mn != mn:
                    raise ParseError(f"{path}: type {af.mn} does not match {dirname}")
                if af.name in self.entries:
                    raise ParseError(f"duplicate catalog name {af.name}")
                self.entries[af.name] = af
                names.append(af.name)
                with names_in(path):
                    self.instances(af.name)  # no pole at a sample value
            self.by_type[mn] = sorted(names, key=_name_sort_key)
        lowdir = self.root / "catalog" / "lowdim"
        for path in sorted(lowdir.glob("*.alg")):
            af = parse_algebra_file(path)
            self.lowdim[af.name] = af.algebra
        for path in sorted((self.root / "catalog" / "graphs").glob("*.edges")):
            self.graphs[path.stem] = _parse_edges(path)
        compdir = self.root / "catalog" / "components"
        for path in sorted(compdir.glob("*.txt")):
            self.components[path.stem] = _parse_components(path, self.entries)
        errata_path = self.root / "errata.txt"
        if errata_path.exists():
            self.errata = parse_errata(errata_path)
        screens = self.root / "catalog" / "screens" / "lemma_pairs.txt"
        if screens.exists():
            self.lemma_pairs = _parse_lemma_pairs(screens, self.entries)

    # ---- queries -----------------------------------------------------------
    def names(self, mn: Optional[Tuple[int, int]] = None) -> List[str]:
        if mn is None:
            return sorted(self.entries, key=_name_sort_key)
        return list(self.by_type.get(mn, []))

    def entry(self, name: str) -> AlgebraFile:
        if name not in self.entries:
            raise UnknownName(name)
        return self.entries[name]

    def lookup(
        self, name: str, param: Union[None, int, Fraction, RatFun] = None
    ) -> SuperAlgebra:
        """Instantiated SuperAlgebra; families require a parameter value,
        which may not be a pole."""
        entry = self.entry(name)
        if not entry.is_family:
            if param is not None:
                raise ParameterError(f"{name} is not a family; no parameter expected")
            return entry.algebra
        if param is None:
            raise ParameterError(f"{name} is a one-parameter family")
        try:
            return instantiate(entry.algebra, param, name=_family_instance_name(name, param))
        except ZeroDivisionError:
            raise ParameterError(f"{name} has a pole at {entry.family} = {param}") from None

    def instances(self, name: str) -> List[SuperAlgebra]:
        """The algebras checked for an entry: a family at each of
        ``FAMILY_SAMPLES``, any other entry as itself."""
        entry = self.entry(name)
        if entry.is_family:
            return [self.lookup(name, p) for p in FAMILY_SAMPLES]
        return [entry.algebra]

    def even_graph_for(self, m: int) -> ReferenceGraph:
        return self.graphs[f"dim{m}"]

    def node_algebra(self, label: str) -> SuperAlgebra:
        """Build the algebra named by a graph-node label (direct sums allowed;
        C<k> is the k-dimensional zero algebra)."""
        summands = [p.strip() for p in label.split("+")]
        algs = []
        for part in summands:
            if part.startswith("C") and part[1:].isdigit():
                algs.append(load([], (int(part[1:]), 0)))
            elif part in self.lowdim:
                algs.append(self.lowdim[part])
            else:
                raise UnknownNode(f"unknown summand {part!r} in {label!r}")
        out = algs[0]
        for nxt in algs[1:]:
            out = direct_sum(out, nxt)
        return replace(out, name=label)

    # ---- auxiliary data ------------------------------------------------------
    def witnesses(self) -> List[Witness]:
        out = []
        for path in sorted((self.root / "witnesses").glob("*.wit")):
            out.append(parse_witness_file(path))
        return out

    def closed_sets(self) -> List[ClosedSet]:
        return [
            parse_closed_set_file(path)
            for path in sorted((self.root / "closedsets").glob("*.cs"))
        ]

    def errata_keys(self) -> set:
        return {e.key for e in self.errata}


@contextmanager
def names_in(path):
    """A catalog name, or a family parameter, that does not resolve is an
    error of its file."""
    try:
        yield
    except (UnknownName, ParameterError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _name_sort_key(name: str):
    head = name.rstrip("0123456789")
    tail = name[len(head) :]
    return (head, int(tail) if tail else 0)


def _family_instance_name(name: str, param) -> str:
    if isinstance(param, RatFun):
        return f"{name}^<ratfun>"
    return f"{name}^{param}"


def instantiate(J: SuperAlgebra, param, name: str = "") -> SuperAlgebra:
    """Substitute the family parameter into any RatFun structure constants."""
    if not isinstance(param, RatFun):
        param_val = Fraction(param)

        def sub(c):
            if isinstance(c, RatFun):
                return c.evaluate(param_val)
            return c

    else:

        def sub(c):
            if isinstance(c, RatFun):
                return ratfun_compose(c, param)
            return c

    table, _par = graded_table(J)
    values = [[[sub(x) for x in row] for row in plane] for plane in table]
    return unflatten(values, J.m, J.n, name=name or J.name)


def _parse_edges(path: Path) -> ReferenceGraph:
    edges = []

    def handle(key: str, line: str) -> None:
        src, arrow, dst = (part.strip() for part in line.partition("->"))
        if key or not (src and arrow and dst):
            raise ParseError("expected an edge 'A -> B'")
        edges.append((src, dst))

    read_lines(path.read_text(encoding="utf-8"), str(path), handle)
    nodes = sorted({node for edge in edges for node in edge})
    return ReferenceGraph(path.stem, tuple(nodes), tuple(edges))


def _check_entry(entries: Dict[str, AlgebraFile], name: str, mn: Optional[Tuple[int, int]] = None) -> None:
    """Refuse a name that is not one of ``entries``, or whose type is not
    ``mn`` when that is given."""
    if name not in entries:
        raise ParseError(str(UnknownName(name)))
    m, n = entries[name].mn
    if mn not in (None, (m, n)):
        raise ParseError(f"{name} is of type ({m},{n}), not ({mn[0]},{mn[1]})")


def _parse_components(path: Path, entries: Dict[str, AlgebraFile]) -> dict:
    """A component list; each listed name must be one of the catalog's
    ``entries``, of the file's type (``TYPE_DIRS``)."""
    out = {"dimension": None, "rigid": [], "families": []}

    def handle(key: str, val: str) -> None:
        if key == "dimension":
            out["dimension"] = read_count(val)
        elif key in ("rigid", "families"):
            out[key] = val.split()
            for name in out[key]:
                _check_entry(entries, name, TYPE_DIRS.get(path.stem))
        else:
            raise unknown_line(key, val)

    read_lines(path.read_text(encoding="utf-8"), str(path), handle)
    return out


def _parse_lemma_pairs(path: Path, entries: Dict[str, AlgebraFile]) -> List[LemmaPairGroup]:
    """The lemma pairs; each source must be one of the catalog's ``entries``,
    each target an entry of its source's type, and each reason an item of
    the screen (``invariants.SCREEN_ITEMS``)."""
    groups = []

    def handle(key: str, line: str) -> None:
        head, semi, reason = line.partition(";")
        src, arrow, tgts = head.partition("-/->")
        name, _, reason = reason.partition("=")
        if key or not (arrow and src.strip() and tgts.split() and semi) or name.strip() != "reason":
            raise ParseError("expected 'SOURCE -/-> TARGET ... ; reason = R'")
        group = LemmaPairGroup(src.strip(), tgts.split(), reason.strip())
        if group.reason not in SCREEN_ITEMS:
            raise ParseError(f"unknown reason {excerpt(group.reason)} (expected one of {', '.join(SCREEN_ITEMS)})")
        _check_entry(entries, group.source)
        for tgt in group.targets:
            _check_entry(entries, tgt, entries[group.source].mn)
        groups.append(group)

    read_lines(path.read_text(encoding="utf-8"), str(path), handle)
    return groups


def parse_errata(path: Path) -> List[Erratum]:
    records: List[Dict[str, str]] = []

    def handle(key: str, val: str) -> None:
        if (key, val) == ("", "[erratum]"):
            records.append({})
        elif not records:
            raise ParseError("expected [erratum]")
        elif key == "detail:":  # a detail continues over "detail:" lines
            records[-1]["detail"] = (records[-1].get("detail", "") + " " + val).lstrip()
        elif key in ("id", "kind", "key", "detail"):
            records[-1][key] = val
        else:
            raise unknown_line(key, val)

    read_lines(path.read_text(encoding="utf-8"), str(path), handle)
    return [
        Erratum(cur.get("id", f"E{i}"), cur.get("kind", ""), cur.get("key", ""), cur.get("detail", ""))
        for i, cur in enumerate(filter(None, records), 1)
    ]
