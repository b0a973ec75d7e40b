"""superjordan has no runtime dependencies: every module it imports is in
the standard library or is superjordan itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superjordan"


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "superjordan" if node.level else node.module.split(".")[0]


def test_imports_are_stdlib_or_superjordan():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    outside = {
        f"{path.name}: {name}"
        for path in files
        for name in _top_level_imports(path)
        if name != "superjordan" and name not in sys.stdlib_module_names
    }
    assert not outside, sorted(outside)


def test_guard_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import linalg\nimport numpy.linalg\nfrom sympy import Matrix\n")
    assert list(_top_level_imports(probe)) == ["os", "superjordan", "numpy", "sympy"]
    assert {"numpy", "sympy"}.isdisjoint(sys.stdlib_module_names)
