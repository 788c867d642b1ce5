"""No module under ``src/repro`` imports a name it never uses.

No linter ships with the repo, so this is the F401 check as an AST
walk: a module-level import binding a name that its module never
references and does not list in ``__all__`` fails. ``# noqa: F401`` on
the statement's first line exempts it (``apps/__init__.py`` imports its
app modules for their registration side effect).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


def _module_imports(tree: ast.Module):
    """Import statements at module level, also inside module-level
    ``if``/``try`` blocks (``TYPE_CHECKING``, optional dependencies)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            todo.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            todo.extend(node.body)


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            names.append(alias.asname)
        elif isinstance(node, ast.Import):
            names.append(alias.name.partition(".")[0])
        else:
            names.append(alias.name)
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module loads, plus the names inside string
    annotations and the entries of ``__all__``."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("ClusterConfig") or an __all__ entry.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every unused module-level import in ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _referenced(tree)
    unused = []
    for node in _module_imports(tree):
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        unused.extend((node.lineno, name) for name in _bound_names(node)
                      if name not in used)
    return unused


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys  # noqa: F401\n"
        "from typing import Any, Callable\n"
        "from .x import (\n    A,  # noqa: F401\n    B,\n)\n"
        "__all__ = ['B']\n"
        "def f(x: 'Any') -> None:\n    pass\n",
        encoding="utf-8")
    assert unused_imports(module) == [(1, "os"), (3, "Callable"), (4, "A")]
