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


def private_definitions(source):
    """(line, name) of each private module-level function, class and constant,
    and of each private method, that the module defines. Dunder names are not
    private."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((m.lineno, m.name) for m in node.body if isinstance(m, functions))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            found.extend((n.lineno, n.id) for n in names)
    return sorted(f for f in found if f[1].startswith("_") and not f[1].endswith("__"))


def reads(source):
    """Every name the module reads: a loaded name, an attribute or an imported name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_definitions_and_reads_are_found():
    source = (
        "_A, B = 1, 2\n_C: int = 3\ndef _f(): pass\nclass _K:\n"
        "    def _m(self): self._n\n    def __init__(self): pass\n    def _n(self): _f()\n"
    )
    expected = [(1, "_A"), (2, "_C"), (3, "_f"), (4, "_K"), (5, "_m"), (7, "_n")]
    assert private_definitions(source) == expected
    assert reads(source) & {"_A", "_C", "_f", "_K", "_m", "_n"} == {"_f", "_n"}
    assert reads("from .a import _x\nb._y\n") == {"_x", "b", "_y"}


def test_every_private_definition_is_read_in_the_package():
    # tests and perfbench do not count: a helper only they read is dead code
    read = set().union(*(reads(path.read_text()) for path in SOURCES))
    unread = [
        (path.relative_to(PACKAGE).as_posix(), line, name)
        for path in SOURCES
        for line, name in private_definitions(path.read_text())
        if name not in read
    ]
    assert unread == []
