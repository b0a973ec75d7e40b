"""A table is cleared of its denominators in one place: ``algebra.cleared_table``
returns (scale, the table times it), and every numeric kernel reads that.
``linalg.clear_denominators`` itself may be read only by ``linalg`` (the
rows of its eliminations), by ``cleared_table``, by ``envelope._Envelope``
(the Grassmann envelope clears its own blocks, as the independent
reference), and by ``degeneration._constants_in_basis`` (the rows of a
witness basis)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superjordan"

NAME = "clear_denominators"
ALLOWED = {
    ("algebra.py", "cleared_table"),
    ("envelope.py", "_Envelope.__init__"),
    ("degeneration.py", "_constants_in_basis"),
}


def _clearing_uses(path):
    """Each place a module reads ``clear_denominators`` (a call or any other
    read of the name, plain or as an attribute), as "line: enclosing
    function"; an import that renames it counts too, as later reads of the
    new name would be missed."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Name) and node.id == NAME or (
            isinstance(node, ast.Attribute) and node.attr == NAME
        ):
            out.append(f"{node.lineno}: {'.'.join(scope) or '<module>'}")
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == NAME and alias.asname not in (None, NAME):
                    out.append(f"{node.lineno}: import as {alias.asname}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return out


def test_only_the_named_sites_clear_denominators():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    uses = {path.name: _clearing_uses(path) for path in files if path.name != "linalg.py"}
    found = {(name, use.split(": ", 1)[1]) for name, lines in uses.items() for use in lines}
    assert found <= ALLOWED, sorted(found - ALLOWED)
    assert found == ALLOWED  # every allowed site still reads it: the guard is not vacuous


def test_guard_sees_a_stray_clear(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .linalg import clear_denominators as clear\n"
        "def f(rows, P):\n"
        "    D, R = zip(*map(clear_denominators, P))\n"
        "    return linalg.clear_denominators(rows)\n"
        "class C:\n"
        "    def g(self, clear_denominators_of):\n"
        "        return clear_denominators\n"
    )
    assert _clearing_uses(probe) == [
        "1: import as clear", "3: f", "4: f", "7: C.g"
    ]
