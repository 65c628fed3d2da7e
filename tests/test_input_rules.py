"""Each of the package's shared input rules is written out in one function.

- An int that is not a bool: errors.is_int.  orbits._check_ids holds a
  different rule (a JSON class id may be anything but true or false), so it
  is the one other function that may test for bool.
- A sign is +1 or -1: pushing._check_sign.
- A word is within rank g: words._max_generator, on a letter tuple.

A site that writes one of these out again, instead of calling its home,
fails here.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pushcalc"

HOMES = {
    "bool test": {"errors.is_int", "orbits._check_ids"},
    "sign test": {"pushing._check_sign"},
    "rank formula": {"words._max_generator"},
}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_min_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "min")


def _is_negation(node: ast.AST) -> bool:
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)


def _is_sign_pair(node: ast.AST) -> bool:
    """The tuple literal (1, -1) or (-1, 1)."""
    return isinstance(node, ast.Tuple) and ast.unparse(node) in ("(1, -1)", "(-1, 1)")


def rule_sites(source: str, module: str) -> list[tuple[str, str]]:
    """(rule, 'module.function') for every place the source writes out a
    rule, named after its outermost enclosing function ('module' at top
    level).  A bool test is isinstance with bool among its types; a sign
    test is `in` or `not in` against (1, -1); a rank formula is a min()
    call that is negated or compared with a negated value."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "bool" in _names(node.args[1])):
            sites.append(("bool test", where))
        if isinstance(node, ast.Compare):
            ops = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, ops, ops[1:]):
                if isinstance(op, (ast.In, ast.NotIn)) and _is_sign_pair(right):
                    sites.append(("sign test", where))
                if (_is_min_call(left) and _is_negation(right)
                        or _is_negation(left) and _is_min_call(right)):
                    sites.append(("rank formula", where))
        if _is_negation(node) and _is_min_call(node.operand):
            sites.append(("rank formula", where))
        for child in ast.iter_child_nodes(node):
            inner = where
            if where == module and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{module}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), module)
    return sites


def stray_sites(sites: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [(rule, where) for rule, where in sites if where not in HOMES[rule]]


def test_checker_sees_each_rule_written_out():
    source = (
        "def is_int(x):\n"
        "    return isinstance(x, int) and not isinstance(x, bool)\n"
        "def count(x):\n"
        "    if not isinstance(x, int) or isinstance(x, (bool, float)):\n"
        "        raise ValueError\n"
        "def sign(c):\n"
        "    return c in (1, -1) and c not in (-1, 1) and c in (1, 2)\n"
        "def rank(t, g):\n"
        "    return max(max(t), -min(t)) if min(t) < -g else -g <= min(t)\n"
        "class Word:\n"
        "    def ok(self, g):\n"
        "        return min(self.t) >= -g\n"
        "fine = isinstance(1, int) and min(3, 4) < 5 and -max(1, 2)\n"
    )
    assert rule_sites(source, "errors") == [
        ("bool test", "errors.is_int"),
        ("bool test", "errors.count"),
        ("sign test", "errors.sign"),
        ("sign test", "errors.sign"),
        ("rank formula", "errors.rank"),
        ("rank formula", "errors.rank"),
        ("rank formula", "errors.rank"),
        ("rank formula", "errors.Word"),
    ]
    assert stray_sites(rule_sites(source, "errors"))[0] == ("bool test", "errors.count")


def test_each_rule_has_one_home():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        sites += rule_sites(path.read_text(), path.stem)
    assert stray_sites(sites) == []
    # every home is still there, so the rule is written out once, not zero times
    assert {where for _, where in sites} == set().union(*HOMES.values())
