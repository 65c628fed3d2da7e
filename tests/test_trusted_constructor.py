"""SelfMapClass._wrap and BraidElement._wrap, the constructors that check
nothing, have only listed callers.

Each caller establishes its value by its own checks and names the tier-1
test that re-validates its output through the class's checked __init__, so
a new trusted construction cannot land without that oracle.
"""
from __future__ import annotations

import ast
from pathlib import Path

from _helpers import walk_sites

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pushcalc"

TRUSTED = ("SelfMapClass", "BraidElement")

# "Class module.function" -> "test file::re-validation test"
ALLOWED = {
    "SelfMapClass monoid.compose": "test_monoid.py::test_compose_output_passes_revalidation",
    "SelfMapClass monoid.identity_map":
        "test_monoid.py::test_identity_map_output_passes_revalidation",
    "SelfMapClass pushing.push_letter":
        "test_pushing.py::test_push_letter_output_passes_revalidation",
    "SelfMapClass pushing.push_braid":
        "test_pushing.py::test_push_braid_output_passes_revalidation",
    "BraidElement pushing.recover_braid":
        "test_pushing.py::test_recovered_braids_and_products_pass_revalidation",
    "BraidElement pushing.braid_mul":
        "test_pushing.py::test_recovered_braids_and_products_pass_revalidation",
}


def wrap_users(source: str, module: str) -> list[str]:
    """'Class module.function' for every read of a TRUSTED class's _wrap, call
    or alias, named after its outermost enclosing function or class ('module'
    at top level)."""
    return [f"{node.value.id} {where}" for node, where in walk_sites(source, module)
            if isinstance(node, ast.Attribute) and node.attr == "_wrap"
            and isinstance(node.value, ast.Name) and node.value.id in TRUSTED]


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
        "def braid_mul(a, b):\n"
        "    return BraidElement._wrap(a.words, a.perm)\n"
        "def compose_braids(a, b):\n"
        "    make = BraidElement._wrap\n"
        "    return make(a.words, a.perm)\n"
        "ok_braid = BraidElement((), ())\n"
        "word = FreeWord._wrap(())\n"
    )
    users = wrap_users(source, "monoid")
    assert users == ["SelfMapClass monoid.compose", "SelfMapClass monoid.shortcut",
                     "SelfMapClass monoid", "BraidElement monoid.braid_mul",
                     "BraidElement monoid.compose_braids"]
    assert [u for u in users if u not in ALLOWED] == [
        "SelfMapClass monoid.shortcut", "SelfMapClass monoid", "BraidElement monoid.braid_mul",
        "BraidElement monoid.compose_braids"]
    # A caller listed for one class is not thereby allowed the other.
    users = wrap_users("def compose(a):\n    return BraidElement._wrap((), ())\n", "monoid")
    assert users == ["BraidElement monoid.compose"] and users[0] not in ALLOWED


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
