"""The four blocks of a SuperAlgebra (alpha, beta, gamma, delta) are storage
only: in algebra.py ``flatten`` reads them and ``unflatten`` writes them,
and the reference ``SuperAlgebra.multiply`` reads them; envelope.py reads
them as the independent cross-check.  Every other module builds and reads
the flat table."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superjordan"

BLOCKS = {"alpha", "beta", "gamma", "delta"}
ALLOWED = {"algebra.py", "envelope.py"}


def _block_uses(path):
    """Each place a module names a block: an attribute, a keyword argument,
    a getattr by name, or a call of the four-block constructor."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in BLOCKS:
            yield f"{node.lineno}: .{node.attr}"
        elif isinstance(node, ast.keyword) and node.arg in BLOCKS:
            yield f"{node.value.lineno}: {node.arg}="
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if called == "SuperAlgebra":
                yield f"{node.lineno}: SuperAlgebra(...)"
            elif called == "getattr" and any(
                isinstance(arg, ast.Constant) and arg.value in BLOCKS for arg in node.args
            ):
                yield f"{node.lineno}: getattr"


def test_only_algebra_and_envelope_name_a_block():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    uses = {path.name: list(_block_uses(path)) for path in files}
    outside = {f"{name}:{use}" for name, found in uses.items() if name not in ALLOWED for use in found}
    assert not outside, sorted(outside)
    assert all(uses[name] for name in ALLOWED)


def test_guard_sees_a_block_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(J, alpha):\n"
        "    x = J.delta[0][1]\n"
        "    y = getattr(J, 'beta')\n"
        "    z = replace(J, gamma=x)\n"
        "    return SuperAlgebra(1, 1, x, y, z, z), alpha, J.alphas\n"
    )
    assert sorted(_block_uses(probe)) == [
        "2: .delta", "3: getattr", "4: gamma=", "5: SuperAlgebra(...)"
    ]
