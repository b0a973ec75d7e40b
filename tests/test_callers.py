"""Every definition in ``src/`` has a caller in ``src/``: a top-level
function, class or method whose name nothing in the package reads belongs
in the tests that use it, or nowhere."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superjordan"

# Kept for the benchmark, which calls or traces each by this name
PINNED = {
    "apply_graded_change",
    "nullspace_dim",
    "specialize_witness",
    "ungraded_derivation_dim",
    "ungraded_power_dims",
}


def _uncalled(paths):
    """(file, name) of each top-level function, class and method that no
    name or attribute in ``paths`` reads; dunder methods are called by
    Python itself."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, sub.name) for sub in node.body if isinstance(sub, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        (file, name)
        for file, name in defined
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_has_a_caller_in_src():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    uncalled = _uncalled(files)
    assert {name for _file, name in uncalled} == PINNED, sorted(uncalled)


def test_guard_sees_a_definition_without_a_caller(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .algebra import unused_import\n"
        "def used(): return Box().shown\n"
        "def orphan(): return used()\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def shown(self): return 1\n"
        "    def hidden(self): return 2\n"
    )
    assert _uncalled([probe]) == {("probe.py", "orphan"), ("probe.py", "hidden")}
