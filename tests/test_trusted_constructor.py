"""SelfMapClass._wrap, the constructor that checks nothing, has only listed callers.

Each caller establishes the class by its own checks and names the tier-1
test that re-validates its output through SelfMapClass.__init__, so a new
trusted construction cannot land without that oracle.
"""
from __future__ import annotations

import ast
from pathlib import Path

from _helpers import walk_sites

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pushcalc"

# "module.function" -> "test file::re-validation test"
ALLOWED = {
    "monoid.compose": "test_monoid.py::test_compose_output_passes_revalidation",
    "pushing.push_braid": "test_pushing.py::test_push_braid_output_passes_revalidation",
}


def wrap_users(source: str, module: str) -> list[str]:
    """'module.function' for every read of SelfMapClass._wrap, call or alias,
    named after its outermost enclosing function or class ('module' at top
    level)."""
    return [where for node, where in walk_sites(source, module)
            if isinstance(node, ast.Attribute) and node.attr == "_wrap"
            and isinstance(node.value, ast.Name) and node.value.id == "SelfMapClass"]


def test_checker_sees_calls_and_aliases():
    source = (
        "from .monoid import SelfMapClass\n"
        "def compose(a, b):\n"
        "    return SelfMapClass._wrap(a.sig, a.circle_part, {})\n"
        "def shortcut(a):\n"
        "    def inner():\n"
        "        return SelfMapClass._wrap(a.sig, a.circle_part, {})\n"
        "    return inner()\n"
        "fast = SelfMapClass._wrap\n"
        "ok = SelfMapClass(None, None, {})\n"
    )
    users = wrap_users(source, "monoid")
    assert users == ["monoid.compose", "monoid.shortcut", "monoid"]
    assert [u for u in users if u not in ALLOWED] == ["monoid.shortcut", "monoid"]


def test_wrap_has_only_listed_callers():
    users = []
    for path in sorted(SRC.rglob("*.py")):
        users += wrap_users(path.read_text(), path.stem)
    assert sorted(users) == sorted(ALLOWED)


def test_each_caller_names_an_existing_revalidation_test():
    for test in ALLOWED.values():
        file, name = test.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text())
        names = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert name in names, test
