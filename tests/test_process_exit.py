"""Only the CLI's process entry ends the process with os._exit.

cli.entry skips interpreter teardown once both streams are flushed.  Any
other os._exit in the package would end an in-process caller of main, or
of a library function, and could drop buffered output.
"""
from __future__ import annotations

import ast
from pathlib import Path

from _helpers import walk_sites

SRC = Path(__file__).resolve().parent.parent / "src" / "pushcalc"

ALLOWED = ["cli.entry"]


def exit_users(source: str, module: str) -> list[str]:
    """'module.function' for every read of os._exit, call or alias, named
    after its outermost enclosing function or class ('module' at top
    level), and for every `from os import _exit`."""
    users = []
    for node, where in walk_sites(source, module):
        if (isinstance(node, ast.Attribute) and node.attr == "_exit"
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            users.append(where)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name == "_exit" for alias in node.names):
            users.append(where)
    return users


def test_checker_sees_calls_aliases_and_imports():
    source = (
        "import os\n"
        "from os import _exit\n"
        "def entry():\n"
        "    os._exit(0)\n"
        "def main():\n"
        "    def inner():\n"
        "        os._exit(1)\n"
        "    return inner()\n"
        "quit_now = os._exit\n"
        "os.exit = None\n"
    )
    assert exit_users(source, "cli") == ["cli", "cli.entry", "cli.main", "cli"]


def test_os_exit_only_in_the_entry():
    users = []
    for path in sorted(SRC.rglob("*.py")):
        users += exit_users(path.read_text(), path.stem)
    assert users == ALLOWED
