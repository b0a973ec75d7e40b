"""Malformed input: every parser raises ParseError, and the command line
turns it into one ``error:`` line on stderr with exit status 2."""

import re
import shutil
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superjordan.catalog import (
    Catalog,
    ParameterError,
    _parse_components,
    _parse_edges,
    _parse_lemma_pairs,
    parse_errata,
)
from superjordan.certificates import parse_closed_set
from superjordan.cli import main
from superjordan.degeneration import parse_witness
from superjordan.tablefmt import ParseError, parse_algebra

DATA = Path(__file__).resolve().parent.parent / "src" / "superjordan" / "data"


# the names a component list or a lemma pair is checked against
ENTRIES = Catalog().entries


def _lines(pattern):
    return sorted(
        {line for path in DATA.glob(pattern) for line in path.read_text().splitlines()}
    )


PARSERS = {
    "algebra": (parse_algebra, _lines("catalog/*/*.alg")),
    "witness": (parse_witness, _lines("witnesses/*.wit")),
    "closedset": (parse_closed_set, _lines("closedsets/*.cs")),
    # the catalog's own files are read from a path
    "edges": (_parse_edges, _lines("catalog/graphs/*.edges")),
    "components": (partial(_parse_components, entries=ENTRIES), _lines("catalog/components/*.txt")),
    "lemma_pairs": (partial(_parse_lemma_pairs, entries=ENTRIES), _lines("catalog/screens/lemma_pairs.txt")),
    "errata": (parse_errata, _lines("errata.txt")),
}

# lines of real files, freely recombined, next to their keys with short runs
# of the characters those formats are written in, and arbitrary text
_NOISE = st.text(alphabet="[]()=*/^+-,:#<> .ceftxAJ0123456789", max_size=24)


def _documents(lines):
    # the parts of each line before its separators, joined to noise by one
    heads = sorted({line.split(sep)[0] for line in lines for sep in ("=", ":", "->") if sep in line})
    keyed = st.builds(
        lambda k, sep, v: k + sep + v, st.sampled_from(heads), st.sampled_from(("=", ":", "->")), _NOISE
    )
    line = st.one_of(st.sampled_from(lines), keyed, _NOISE, st.text(max_size=12))
    return st.lists(line, max_size=12).map("\n".join)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_parsers_raise_only_parse_error(tmp_path, kind):
    parse, lines = PARSERS[kind]
    path = tmp_path / "data.txt"

    @given(st.one_of(_documents(lines), st.text()))
    @settings(max_examples=300, deadline=None)
    def check(text):
        try:
            if kind in ("algebra", "witness", "closedset"):
                parse(text)
            else:
                path.write_text(text, encoding="utf-8")
                parse(path)
        except ParseError:
            pass

    check()


@pytest.mark.parametrize(
    "command, suffix, text",
    [
        ("check", ".alg", "[algebra]\nname = b\ntype = a,b\n"),
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\norbit = x\n"),
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\nproduct: e*e = 1/0 e\n"),
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\nproduct: f*f = e\n"),
        ("degenerate", ".wit", "[degeneration]\nsource = J7\nfoo\n"),
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J7\ntarget = J5\nbasis: f1 = t^t f1\n"
            "basis: f2 = f2\nbasis: f3 = f3\nbasis: e = e\n",
        ),
        ("closedset", ".cs", "[closedset]\nsource = J7\n"),
        # a parameter on an entry that is not a family
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J11^(2)\ntarget = J10\nbasis: f1 = f1\nbasis: f2 = f2\n"
            "basis: f3 = t*f3\nbasis: e = e\n",
        ),
        ("closedset", ".cs", "[closedset]\nsource = J7\nbasis = x1 x2 x3 x4\ncondition: c[a,1,1] = 0\n"),
        ("closedset", ".cs", "[closedset]\nlabel = short\nsource = J7\nbasis = e f1 f2\ncondition: c[1,1,1] = 0\n"),
        # nested too deeply for a recursive reader
        pytest.param(
            "closedset",
            ".cs",
            "[closedset]\nsource = J7\nbasis = f1 f2 f3 e\ncondition: c[1,1,1] = "
            + "(" * 3000 + "c[2,2,2]" + ")" * 3000 + "\n",
            id="deep-condition",
        ),
        pytest.param(
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J7\ntarget = J5\nbasis: f1 = " + "(" * 3000 + "t" + ")" * 3000
            + " f1\nbasis: f2 = f2\nbasis: f3 = f3\nbasis: e = e\n",
            id="deep-coefficient",
        ),
    ],
)
def test_malformed_file_is_one_error_line(tmp_path, capsys, command, suffix, text):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < len(str(path)) + 200  # the text is quoted in part


@pytest.mark.parametrize(
    "line, message",
    [
        ("status = corected", "bad status 'corected'"),  # would leave the published count
        ("mode = auto", "unknown key 'mode'"),  # the key is gone: every replay is graded
    ],
)
def test_witness_key_error_names_file_and_line(tmp_path, capsys, line, message):
    path = tmp_path / "bad.wit"
    path.write_text(f"[degeneration]\nsource = J7\ntarget = J5\n{line}\n")
    assert main(["degenerate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:4: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, suffix, text, message",
    [
        # tables are read in label order; a stored basis order would be ignored
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,3\nbasis_order = f1 f2 f3 e\n", "4: unknown key 'basis_order'"),
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\norbt = 3\n", "4: unknown key 'orbt'"),
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\nproduct: e*e = 1/0 e\n", "4: division by zero in '1/0'"),
        # the family symbol is the one name of a table
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\nproduct: e*e = s e\n", "4: unknown name 's'"),
        # a product is entered into the table on its own line, by its labels
        (
            "check",
            ".alg",
            "[algebra]\nname = b\ntype = 1,1\nproduct: e*e = e\nproduct: e*e = 2 e\n",
            "5: conflicting values for e*e",
        ),
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\nproduct: f*f = e\n", "4: nonzero square f*f"),
        ("check", ".alg", "[algebra]\nname = b\ntype = 1,1\nproduct: e*f = e\n", "4: e*f is odd but result names e"),
        (
            "check",
            ".alg",
            "[algebra]\nname = b\ntype = 1,1\nproduct: e*g = f\n",
            "4: unknown basis vector 'g' for type (1,1)",
        ),
        ("check", ".alg", "[algebra]\nname = b\nproduct: e*e = e\ntype = 1,1\n", "3: a product needs the type line above it"),
        (
            "check",
            ".alg",
            "[algebra]\nname = b\ntype = 1,1\nproduct: e*e = e\ntype = 2,0\n",
            "5: duplicate key 'type'",
        ),
        # a repeated key is refused, not read as its last value
        (
            "check",
            ".alg",
            "[algebra]\nname = b\ntype = 1,1\ntype = 2,0\nname = c\n",
            "4: duplicate key 'type'",
        ),
        ("check", ".alg", "[algebra]\nname = b\ntype = 2,0\nname = c\n", "4: duplicate key 'name'"),
        (
            "check",
            ".alg",
            "[algebra]\nname = b\ntype = 1,1\nfamily = t\nfamily = s\n",
            "5: duplicate key 'family'",
        ),
        # a second "key =" line is refused in every format, not read as its
        # last value: here J7 and J15 would go unchecked
        (
            "closedset",
            ".cs",
            "[closedset]\nlabel = geo1_J11\nsource = J11\ntargets = J7 J15 J16\ntargets = J16\n"
            "basis = f1 f2 f3 e\ncondition: c[*,*,1] = 0\ncondition: 2*c[3,4,3] = c[4,4,4]\n",
            "5: duplicate key 'targets'",
        ),
        # a certificate that names no target separates nothing
        (
            "closedset",
            ".cs",
            (DATA / "closedsets" / "geo1_J12.cs").read_text().replace("J7 J8 J9 J11 J15 J16 J17 J19", ""),
            "4: targets names no entry",
        ),
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J11\ntarget = J10\ntarget = J13\nbasis: f1 = f1\n",
            "4: duplicate key 'target'",
        ),
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J11\nstatus = corrected\ntarget = J10\nstatus = published\n",
            "5: duplicate key 'status'",
        ),
        # the family symbol has one key, as the README lists
        (
            "check",
            ".alg",
            "[algebra]\nname = b\ntype = 1,1\nfamily_param = t\nproduct: e*e = t e\n",
            "4: unknown key 'family_param'",
        ),
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J7\ntarget = J5\nbasis: f1 = t*\n",
            "4: term 't*' does not end with a basis label",
        ),
        ("closedset", ".cs", "[closedset]\nsource = J7\nstatus = printed\n", "3: bad status 'printed'"),
        # the trials scale the table, which only a homogeneous condition ignores
        (
            "closedset",
            ".cs",
            "[closedset]\nsource = J7\nbasis = f1 f2 f3 e\ncondition: c[1,1,1] = c[1,1,1]*c[2,2,2]\n",
            "4: non-homogeneous condition",
        ),
        # a right-hand side outside the basis is refused, as on the left
        (
            "closedset",
            ".cs",
            "[closedset]\nsource = J7\nbasis = f1 f2 f3 e\ncondition: A1*A4 = A9\n",
            "4: flag index out of range in 'A9'",
        ),
        (
            "closedset",
            ".cs",
            "[closedset]\nsource = J7\nbasis = f1 f2 f3 e\ncondition: J*J <= span(x2,x3,x9)\n",
            "4: span member out of range in 'span(x2,x3,x9)'",
        ),
        # a condition that parses into no polynomial checks nothing
        (
            "closedset",
            ".cs",
            "[closedset]\nsource = J12\ntargets = J7\nbasis = f1 f2 f3 e\ncondition: c[1,1,1] = c[1,1,1]\n",
            "5: condition holds on every table: 'c[1,1,1] = c[1,1,1]'",
        ),
        (
            "closedset",
            ".cs",
            "[closedset]\nsource = J12\ntargets = J7\nbasis = f1 f2 f3 e\ncondition: A1*A2 <= A1\n",
            "5: condition holds on every table: 'A1*A2 <= A1'",
        ),
        # each "*" multiplies the polynomials by d: five are refused
        # before any is built, where twelve would not finish
        (
            "closedset",
            ".cs",
            "[closedset]\nsource = J7\nbasis = f1 f2 f3 e\ncondition: c[*,*,*] = c[*,*,1]\n",
            "4: a condition has at most 4 '*' indices in 'c[*,*,*] = c[*,*,1]'",
        ),
        # an exponent past the bound is refused at load; 65 would still replay
        # quickly, so a missing bound fails here instead of hanging
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J7\ntarget = J5\nbasis: e = (1+t)^65*e\n",
            "4: an exponent's terms are at most 64",
        ),
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J7\ntarget = J5\nbasis: e = e\nbasis: f1 = t^(1/65)*f1\n",
            "5: an exponent's terms are at most 64",
        ),
        # each exponent is in bound, but together they need t = s^14511168
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J7\ntarget = J5\nbasis: e = e\nbasis: f1 = t^(1/64)*f1\n"
            "basis: f2 = t^(1/63)*f2\nbasis: f3 = t^(1/61)*f3 + t^(1/59)*f3\n",
            "6: ramification 4032 is above 64",
        ),
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = Jc16^(t^(1/5))\ntarget = Jc30\nbasis: e1 = t^(1/13)*e1\n"
            "basis: e2 = e2\nbasis: f1 = f1\nbasis: f2 = f2\n",
            "4: ramification 65 is above 64",
        ),
        # the source parameter is read at its line
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = Jc16^(1/(t-t))\ntarget = Jc30\nbasis: e1 = e1\n"
            "basis: e2 = e2\nbasis: f1 = f1\nbasis: f2 = f2\n",
            "2: division by zero in '(1/(t-t))'",
        ),
        # and so is each basis coefficient, not first at the replay
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = J11\ntarget = J10\nbasis: f1 = f1\nbasis: f2 = f2\n"
            "basis: f3 = 1/(t-t)*f3\nbasis: e = e\n",
            "6: division by zero in '1/(t-t)'",
        ),
    ],
)
def test_key_error_names_file_and_line(tmp_path, capsys, command, suffix, text, message):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:{message}") and captured.err.count("\n") == 1


def test_certificate_without_targets_is_one_error_line(tmp_path, capsys):
    # a certificate that names no target separates nothing, so the line is required
    text = (DATA / "closedsets" / "geo1_J12.cs").read_text()
    lines = [line for line in text.splitlines(keepends=True) if not line.startswith("targets")]
    assert len(lines) == len(text.splitlines()) - 1
    path = tmp_path / "no_targets.cs"
    path.write_text("".join(lines))
    assert main(["closedset", str(path), "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: source, targets and basis are required\n"


_J11_J10 = (DATA / "witnesses" / "geo1_J11_J10.wit").read_text()
_J11_CS = (DATA / "closedsets" / "geo1_J11.cs").read_text()


@pytest.mark.parametrize(
    "command, suffix, text, message",
    [
        (
            "degenerate --all",
            ".wit",
            _J11_J10.replace("= J11", "= J11^(2)"),
            "J11 is not a family; no parameter expected",
        ),
        ("degenerate --all", ".wit", _J11_J10.replace("= J11", "= Jxx"), "unknown catalog name 'Jxx'"),
        ("closedset", ".cs", _J11_CS.replace("J7 J15 J16", "J7 Jxx"), "unknown catalog name 'Jxx'"),
        (
            "closedset",
            ".cs",
            _J11_CS.replace("basis = f1 f2 f3 e", "basis = e1 e2 f1 f2"),
            "basis e1 e2 f1 f2 does not fit J11 of type (1,3)",
        ),
        (
            "degenerate",
            ".wit",
            "[degeneration]\nsource = Jc16^(1/t)\ntarget = J7\nbasis: e1 = e1\nbasis: e2 = e2\n"
            "basis: f1 = f1\nbasis: f2 = f2\n",
            "Jc16 is of type (2,2), J7 of type (1,3)",
        ),
    ],
    ids=[
        "parameter-of-a-rigid-source",
        "unknown-source",
        "unknown-target",
        "basis-that-does-not-fit",
        "source-and-target-of-two-types",
    ],
)
def test_unresolved_name_names_its_file(tmp_path, capsys, command, suffix, text, message):
    # the names are resolved after the parse, from the record, which keeps its path
    assert text != (_J11_CS if suffix == ".cs" else _J11_J10)
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    assert main([*command.split(), str(tmp_path if "--all" in command else path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


_ALG = "[algebra]\nname = b\ntype = 1,1\n"
_WIT = "[degeneration]\nsource = J11\ntarget = J10\n"
_CS = "[closedset]\nsource = J11\nbasis = f1 f2 f3 e\n"
_ERRATUM = "[erratum]\nid = E1\nkind = orbit\nkey = orbit:J2\ndetail = one\n"


@pytest.mark.parametrize(
    "kind, text, error",
    [
        ("algebra", _ALG + "product: e*e = e\nname = c\n", "5: duplicate key 'name'"),
        ("algebra", _ALG + "product: e*e = e\nproduct: e*f = f\n", None),
        ("witness", _WIT + "source = J12\n", "4: duplicate key 'source'"),
        ("witness", _WIT + "basis: e = e\ntarget = J13\n", "5: duplicate key 'target'"),
        ("witness", _WIT + "status = corrected\nstatus = corrected\n", "5: duplicate key 'status'"),
        ("witness", _WIT + "basis: f1 = f1\nbasis: f2 = f2\n", None),
        ("closedset", _CS + "targets = J7\ntargets = J15\n", "5: duplicate key 'targets'"),
        ("closedset", _CS + "basis = f1 f2 f3 e\n", "4: duplicate key 'basis'"),
        ("closedset", _CS + "targets = J7\ncondition: c[1,1,1] = 0\ncondition: c[2,2,2] = 0\n", None),
        ("components", "dimension = 12\nrigid = J5\nfamilies =\nrigid = J7\n", "4: duplicate key 'rigid'"),
        ("errata", _ERRATUM + "key = orbit:J3\n", "6: duplicate key 'key'"),
        # detail: lines continue a record, and the next [erratum] starts afresh
        ("errata", _ERRATUM + "detail: two\ndetail: three\n" + _ERRATUM, None),
    ],
)
def test_equals_key_once_per_record(tmp_path, kind, text, error):
    parse = PARSERS[kind][0]
    source, arg = "<string>", text
    if kind in ("components", "errata"):  # the catalog's own files are read from a path
        source = arg = tmp_path / "data.txt"
        arg.write_text(text, encoding="utf-8")
    if error is None:
        parse(arg)
    else:
        with pytest.raises(ParseError, match="^" + re.escape(f"{source}:{error}") + "$"):
            parse(arg)


def test_errata_detail_lines_are_joined(tmp_path):
    path = tmp_path / "errata.txt"
    path.write_text(_ERRATUM + "detail: two\ndetail: three\n" + _ERRATUM, encoding="utf-8")
    first, second = parse_errata(path)
    assert (first.id, first.key, first.detail) == ("E1", "orbit:J2", "one two three")
    assert (second.id, second.key, second.detail) == ("E1", "orbit:J2", "one")


@pytest.mark.parametrize("power", ["1000000000", "(-1000000000)", "(1/1000000000)", "(1000000000/2)"])
def test_huge_exponent_is_refused_at_load(power):
    # parse only: replaying such a power would not finish
    text = f"[degeneration]\nsource = J7\ntarget = J5\nbasis: e = (1+t)^{power}*e\n"
    with pytest.raises(ParseError, match=r"^<string>:4: an exponent's terms are at most 64"):
        parse_witness(text)


@pytest.mark.parametrize(
    "relative, line, message",
    [
        ("catalog/components/type13.txt", "dimension = twelve", "1: expected a count, got 'twelve'"),
        ("catalog/graphs/dim2.edges", "B3 B2", "1: expected an edge 'A -> B'"),
        ("catalog/screens/lemma_pairs.txt", "J5 -/-> ; reason = even-part", "1: expected 'SOURCE"),
        ("errata.txt", "kind = witness", "1: expected [erratum]"),
        # a name is checked against the tables, which are read first
        ("catalog/components/type13.txt", "rigid = Jxx", "1: unknown catalog name 'Jxx'"),
        ("catalog/components/type22.txt", "families = J5", "1: J5 is of type (1,3), not (2,2)"),
        ("catalog/screens/lemma_pairs.txt", "J5 -/-> Jyy ; reason = even-part", "1: unknown catalog name 'Jyy'"),
        ("catalog/screens/lemma_pairs.txt", "J5 -/-> Jc1 ; reason = even-part", "1: Jc1 is of type (2,2), not (1,3)"),
        # a reason is an item of the screen, or each of the group's rows would FAIL
        (
            "catalog/screens/lemma_pairs.txt",
            "J5 -/-> J7 J8 ; reason = even_part",
            "1: unknown reason 'even_part' (expected one of power-dims, even-part,",
        ),
        ("catalog/screens/lemma_pairs.txt", "J5 -/-> J7 J8", "1: expected 'SOURCE -/-> TARGET ... ; reason = R'"),
        ("catalog/screens/lemma_pairs.txt", "J5 -/-> J7 J8 ;", "1: expected 'SOURCE -/-> TARGET ... ; reason = R'"),
    ],
)
def test_catalog_file_error_names_file_and_line(tmp_path, capsys, relative, line, message):
    root = tmp_path / "data"
    shutil.copytree(DATA, root)
    path = root / relative
    path.write_text(line + "\n" + path.read_text())
    assert main(["--catalog", str(root), "verify-catalog"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:{message}") and captured.err.count("\n") == 1


def _family_with_pole(tmp_path, at):
    """A copy of the data root whose family Jc16 has a pole at t = ``at``,
    and the path of Jc16's file."""
    root = tmp_path / "data"
    shutil.copytree(DATA, root)
    path = root / "catalog" / "type22" / "Jc16.alg"
    path.write_text(path.read_text().replace("f1*f2 = e1+t e2", f"f1*f2 = e1+1/(t-{at}) e2"))
    return root, path


def test_family_pole_at_a_sample_value_is_a_load_error(tmp_path, capsys):
    # the family is checked at each sample value, so the pole is found at load
    root, path = _family_with_pole(tmp_path, 3)
    assert main(["--catalog", str(root), "verify-catalog"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: Jc16 has a pole at t = 3\n"


def test_family_pole_at_a_witness_parameter_names_the_witness(tmp_path, capsys):
    root, _path = _family_with_pole(tmp_path, 7)
    with pytest.raises(ParameterError, match=r"^Jc16 has a pole at t = 7$"):
        Catalog(root).lookup("Jc16", 7)
    witness = tmp_path / "pole.wit"
    text = (DATA / "witnesses" / "geo2_Jc16_Jc68.wit").read_text()
    witness.write_text(text.replace("Jc16^(-1)", "Jc16^(7)"))
    assert main(["--catalog", str(root), "degenerate", str(witness)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {witness}: Jc16 has a pole at t = 7\n"
