"""Source hygiene: every module under src/setmeans uses each name it imports,
and the package reads every private function and class it defines."""

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


def dead_private_definitions(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions and classes that no module reads."""
    defined, used = set(), set()
    for tree in map(ast.parse, sources):
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name.startswith("_") and not node.name.startswith("__"))
        used.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    return sorted(defined - used)


def test_package_reads_every_private_definition():
    assert dead_private_definitions([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def test_a_dead_private_definition_is_found():
    a = "def _dead():\n    pass\n\nclass _Kept:\n    pass\n\ndef __dunder__():\n    pass\n"
    b = "from a import _Kept\nfrom c import _used\n_used()\n"
    c = "def _used():\n    return _Kept()\n\ndef public():\n    pass\n"
    assert dead_private_definitions([a, b, c]) == ["_dead"]
