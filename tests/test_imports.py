"""Every import of a package module is used by that module, and so is
every private name that a module defines at its top level.

A stdlib ``ast`` pass stands in for a linter's unused-import check.  It
skips ``__init__.py``, whose imports are the package's exports,
``__future__`` imports, names listed in a module's ``__all__`` and
imports on a line marked ``# noqa: F401``: names kept for
``benchmarks/spans.py`` to patch, and a third pass checks that each is a
target of ``spans.patched`` on that module, reading the file with ``ast``
so that nothing under ``benchmarks/`` is imported.  A second pass finds
each top-level function, class or assignment named ``_x`` that its module
never reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spindd"
SPANS = PACKAGE.parent.parent / "benchmarks" / "spans.py"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def marked(node, lines) -> bool:
    """Whether a line of import ``node`` carries ``# noqa: F401``."""
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


def unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    skip = exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if marked(node, lines):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in skip:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def patch_targets() -> set:
    """``(owner, attribute)`` of each entry ``(owner, "attribute", span, count)``
    of the ``targets`` that ``spans.patched`` replaces."""
    (patched,) = [node for node in ast.parse(SPANS.read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == "patched"]
    return {(node.elts[0].id, node.elts[1].value) for node in ast.walk(patched)
            if isinstance(node, ast.Tuple) and len(node.elts) == 4
            and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_noqa_import_is_a_patch_target_on_its_module(path):
    source = path.read_text()
    lines = source.splitlines()
    kept = [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and marked(node, lines)
            for alias in node.names]
    targets = patch_targets()
    assert [name for name in kept if (path.stem, name) not in targets] == []


def unused_private_names(path: Path) -> list:
    tree = ast.parse(path.read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in defined.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_private_name_is_used(path):
    assert unused_private_names(path) == []
