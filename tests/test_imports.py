"""Every name a package module imports is used in it.

No linter runs on this repository, so this stands in for the unused-import
check of one: each module under ``src/fanokit`` except ``__init__.py`` is
parsed with ``ast``, and every name bound by an import must occur in the
module as a name, in an expression or in a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fanokit"


def _imported(tree):
    """The name each import binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            hint = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= _used(ast.parse(hint.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert unused == []
