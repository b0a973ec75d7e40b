"""Command-line front end: batch verification, single-pair queries, exports.

Report lines use the stable format ``PASS|FAIL <check-id> <details>``
(``XFAIL(errata) ...`` for failures recorded in the errata ledger).  Exit
status 0 means the report contains no FAIL lines; 1 means check failures;
2 means usage or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

from . import verify as V
from .atlas import export_dot
from .catalog import Catalog, ParameterError
from .certificates import parse_closed_set_file
from .degeneration import parse_witness_file
from .envelope import MAX_K
from .invariants import TypeMismatch
from .tablefmt import ParseError, parse_algebra_file

TYPE_ALIASES = {
    "1,3": (1, 3), "13": (1, 3), "type13": (1, 3),
    "2,2": (2, 2), "22": (2, 2), "type22": (2, 2),
    "3,1": (3, 1), "31": (3, 1), "type31": (3, 1),
}


class Reporter:
    def __init__(self, fmt: str = "text", out=None):
        self.fmt = fmt
        self.out = out or sys.stdout
        self.fails = 0

    def row(self, row: V.CheckRow):
        self.line(row.display)
        if not row.acceptable:
            self.fails += 1

    def rows(self, rows):
        for row in rows:
            self.row(row)

    def line(self, text: str):
        if self.fmt == "tsv":
            parts = text.split(" ", 2)
            print("\t".join(parts), file=self.out)
        else:
            print(text, file=self.out)

    @property
    def status(self) -> int:
        return 1 if self.fails else 0


def _int_in_range(low: int, high: Optional[int] = None):
    """argparse type: an integer in [low, high], else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _load_catalog(args) -> Catalog:
    return Catalog(Path(args.catalog) if args.catalog else None)


def cmd_verify_catalog(args, rep: Reporter) -> int:
    cat = _load_catalog(args)
    id_rows, elapsed = V.verify_identities(cat)
    rep.rows(id_rows)
    ok = sum(1 for r in id_rows if r.ok)
    rep.line(f"# {ok}/{len(id_rows)} algebras verified in {elapsed:.1f}s")
    rep.rows(V.verify_orbits(cat))
    rep.rows(V.verify_type_remark())
    if args.full:
        rep.rows(V.verify_decompositions(cat))
        rep.rows(V.verify_even_parts(cat))
    return rep.status


def cmd_check(args, rep: Reporter) -> int:
    af = parse_algebra_file(args.file)
    rep.row(V.identity_row(af.name or args.file, af.algebra))
    return rep.status


def cmd_derive(args, rep: Reporter) -> int:
    rep.row(V.derive_row(_load_catalog(args), args.name))
    return rep.status


def cmd_orbit(args, rep: Reporter) -> int:
    rep.rows(V.orbit_rows(_load_catalog(args), args.name))
    return rep.status


def cmd_degenerate(args, rep: Reporter) -> int:
    paths = sorted(Path(args.all).glob("*.wit")) if args.all else [Path(args.file)]
    if not paths:
        raise FileNotFoundError(f"{args.all}: missing or empty witness directory (no .wit files)")
    cat = _load_catalog(args)
    rep.rows(V.witness_row(cat, parse_witness_file(path))[1] for path in paths)
    return rep.status


def cmd_screen(args, rep: Reporter) -> int:
    rep.rows(V.screen_rows(_load_catalog(args), args.source, args.target))
    return rep.status


def cmd_closedset(args, rep: Reporter) -> int:
    cat = _load_catalog(args)
    cs = parse_closed_set_file(args.file)
    rep.rows(V.certificate_rows(cat, cs, trials=args.trials, seed=args.seed))
    return rep.status


def cmd_envelope(args, rep: Reporter) -> int:
    rep.row(V.envelope_row(_load_catalog(args), args.name, args.k))
    return rep.status


def _verified(wrows):
    return [(w, v) for w, v, _ in wrows if v.verified]


def cmd_graph(args, rep: Reporter) -> int:
    cat = _load_catalog(args)
    g, row = V.graph_row(cat, TYPE_ALIASES[args.type], _verified(V.verify_witnesses(cat)))
    rep.row(row)
    if args.dot:
        text = export_dot(g)
        if args.dot == "-":
            rep.out.write(text)
        else:
            Path(args.dot).write_text(text, encoding="utf-8")
            rep.line(f"# DOT written to {args.dot}")
    return rep.status


def cmd_components(args, rep: Reporter) -> int:
    cat = _load_catalog(args)
    verified = _verified(V.verify_witnesses(cat))
    components = V.verify_components(cat, verified, types=[TYPE_ALIASES[args.type]])
    rep.rows(row for _graph, row in components)
    return rep.status


def cmd_verify_all(args, rep: Reporter) -> int:
    if args.dot:
        Path(args.dot).mkdir(parents=True, exist_ok=True)
    cat = _load_catalog(args)
    t0 = time.perf_counter()
    id_rows, elapsed = V.verify_identities(cat)
    rep.rows(id_rows)
    rep.line(f"# identity suite: {sum(r.ok for r in id_rows)}/{len(id_rows)} in {elapsed:.1f}s")
    rep.rows(V.verify_orbits(cat))
    rep.rows(V.verify_type_remark())
    rep.rows(V.verify_decompositions(cat))
    rep.rows(V.verify_even_parts(cat))
    wrows = V.verify_witnesses(cat)
    rep.rows(row for _, _, row in wrows)
    verified, pub_total, pub_ok = V.witness_summary(wrows)
    rep.line(f"# witnesses: {pub_ok}/{pub_total} published rows verified, {verified} total")
    rep.rows(V.verify_certificates(cat, trials=args.trials, seed=args.seed))
    rep.rows(V.verify_lemma_screens(cat))
    for graph, row in V.verify_components(cat, _verified(wrows)):
        rep.row(row)
        if args.dot:
            mn = graph.mn
            Path(args.dot, f"type{mn[0]}{mn[1]}.dot").write_text(export_dot(graph), encoding="utf-8")
    rep.line(f"# total time {time.perf_counter() - t0:.0f}s; hard failures: {rep.fails}")
    return rep.status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superjordan",
        description="Exact verification of the 4-dimensional Jordan superalgebra classification",
    )
    parser.add_argument("--catalog", help="data root override (default: the packaged data)")
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    parser.add_argument("--output", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-catalog", help="identity + orbit suite over all 149 entries")
    p.add_argument("--full", action="store_true", help="also check decompositions and even parts")
    p.set_defaults(func=cmd_verify_catalog)

    p = sub.add_parser("verify-all", help="every sweep, one row per check")
    p.add_argument(
        "--trials", type=_int_in_range(1), default=1000, help="certificate trials (default 1000)"
    )
    p.add_argument("--seed", type=int, default=0, help="certificate seed (default 0)")
    p.add_argument("--dot", help="also write type13.dot, type22.dot and type31.dot into this directory")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("check", help="check one .alg file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="superderivation dimensions of a catalog entry")
    p.add_argument("name")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("orbit", help="orbit dimension of a catalog entry")
    p.add_argument("name")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("degenerate", help="replay witness file(s)")
    p.add_argument("file", nargs="?")
    p.add_argument("--all", help="directory of .wit files")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("screen", help="necessary-condition screen for a pair")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("closedset", help="evaluate a certificate file with randomized trials")
    p.add_argument("file")
    p.add_argument("--trials", type=_int_in_range(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_closedset)

    p = sub.add_parser("envelope", help="Grassmann-envelope Jordan check")
    p.add_argument("name")
    p.add_argument("-k", type=_int_in_range(0, MAX_K), default=4)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("graph", help="build the verified degeneration graph of a type")
    p.add_argument("type", choices=sorted(TYPE_ALIASES))
    p.add_argument("--dot", help="write DOT here ('-' for stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("components", help="irreducible-component accounting of a type")
    p.add_argument("type", choices=sorted(TYPE_ALIASES))
    p.set_defaults(func=cmd_components)

    args = parser.parse_args(argv)
    if args.command == "degenerate" and bool(args.file) == bool(args.all):
        parser.error("degenerate needs a file or --all DIR, not both")
    out = None
    try:
        if args.output:
            out = open(args.output, "w", encoding="utf-8")
        code = args.func(args, Reporter(args.format, out))
    except (KeyError, ParameterError, ParseError, TypeMismatch, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out:
            out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
