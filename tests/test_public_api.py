"""Every name in pushcalc.__all__ has a caller outside the tests.

A caller is a read of the name, as a bare name or an attribute, in a
package module other than __init__.py or in a benchmark script, or a
mention inside a backtick span of README.md.  Oracles and builders that
only the tests use live in tests/_helpers.py instead.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pushcalc

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "pushcalc").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "perfbench").glob("*.py"))
)
_TICKED = re.compile(r"```.*?```|`[^`]+`", re.DOTALL)
_IDENT = re.compile(r"[A-Za-z_]\w*")


def uncalled(names: list[str], sources: list[str], readme: str) -> list[str]:
    """The names that no source reads and no backtick span of readme shows."""
    seen: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    for span in _TICKED.findall(readme):
        seen.update(_IDENT.findall(span))
    return [name for name in names if name not in seen]


def test_checker_sees_callers_and_orphans():
    sources = ["from .m import imported\nx = used(1)\ny.attr\nz = 'orphan'\n"]
    readme = "Call `doc(x)`; see\n```\nfenced\n```\nbut not orphan or imported.\n"
    names = ["used", "attr", "doc", "fenced", "orphan", "imported"]
    assert uncalled(names, sources, readme) == ["orphan", "imported"]


def test_every_public_name_has_a_caller():
    sources = [path.read_text() for path in SOURCES]
    readme = (ROOT / "README.md").read_text()
    assert uncalled(pushcalc.__all__, sources, readme) == []
