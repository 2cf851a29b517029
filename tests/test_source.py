"""Checks on the package source itself, in place of a linter."""

import ast
from pathlib import Path

import pytest

import imbtab

PACKAGE = Path(imbtab.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads. `from __future__` imports
    are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, a.b\nfrom c import d as e\na.b\n"
    assert unused_imports(source) == [(2, "os"), (3, "e")]


# an __init__.py imports names to export them
@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: p.relative_to(PACKAGE).as_posix(),
)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text()) == []
