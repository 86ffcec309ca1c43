"""No module of the package imports a name it never uses.

The check reads each module's syntax tree: every name an import binds
must appear as a name in that module, or be listed in its ``__all__``.
``from __future__`` imports are exempt.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rydcomp"


def unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\n")
    assert unused_imports(tree) == [(1, "os"), (2, "pi")]
