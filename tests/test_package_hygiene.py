"""Static checks on ``src/envalg`` that a linter would make: no import that a
module never reads, and no private top-level definition that nothing uses.

Each module is parsed with :mod:`ast`; nothing is imported or run.  An
import counts as read when its name is loaded anywhere in the module or
listed in ``__all__``.  The package ``__init__`` (which re-exports) and
``from __future__ import annotations`` are exempt.  A private top-level
function or class counts as used when any module of the package names it
outside its own body.
"""

import ast
from pathlib import Path

import pytest

import envalg

PACKAGE = Path(envalg.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree):
    """The names a tree reads: loaded names, attribute names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _exported(tree):
    """The strings listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _bound_imports(tree):
    """``(line, bound name)`` of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_read(module):
    tree = MODULES[module]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)} | _exported(tree)
    unread = [f"{module}.py:{line}: {name}" for line, name in _bound_imports(tree)
              if name not in read]
    assert unread == []


def _private_definitions():
    for module, tree in MODULES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                yield module, node


def test_every_private_definition_is_used():
    reads = [(node, _loaded(node)) for tree in MODULES.values() for node in tree.body]
    unused = [
        f"{module}.py:{definition.lineno}: {definition.name}"
        for module, definition in _private_definitions()
        if not any(definition.name in names for node, names in reads if node is not definition)
    ]
    assert unused == []
