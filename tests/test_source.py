"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bispinor"
#: __init__ imports names to re-export them, so it is not checked
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def bound_names(tree):
    """The name each import in the module binds, nested imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    # a deleted function tends to leave its imports behind
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in bound_names(tree) if name not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"
