"""Every name a source, test or benchmark file imports is used in that file."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Imported names never read in the module; __all__ entries count as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Any, Iterable\n"
        "from .words import FreeWord\n"
        "__all__ = ['FreeWord']\n"
        "def f(x: Iterable) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Any (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
