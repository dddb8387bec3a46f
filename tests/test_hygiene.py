"""Source hygiene: every module under src/setmeans uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "setmeans"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; __all__ counts as a read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    src = "from __future__ import annotations\nimport os, re as regex\nfrom x import a, b\n"
    assert unused_imports(src + "__all__ = ['a']\nregex.compile\n") == ["b", "os"]
