"""Which pushcalc functions do the CLI and acceptance tests and the property
suites never enter?

    PYTHONPATH=src python tests/reachability.py

Runs tests/test_cli.py, tests/test_acceptance.py and
verification.run_suite("all", 0, 300) in this process under sys.setprofile,
then lists every function defined in src/pushcalc that no frame entered.
A function that should stay although these runs miss it is named in
ALLOWED with the reason.  Exit 1 when an unreached function is not in
ALLOWED, or when ALLOWED names a function that was entered or does not
exist; exit 0 otherwise.  Needs Python 3.11 or later (co_qualname).

Whether the tests pass is tier-1's to say, not this script's: a failing
test can only leave more functions unreached, and the profiler slows the
runs enough to trip test_acceptance's wall-clock budgets.  pytest does
not collect this file, and the tests run with -p no:cacheprovider, so the
run writes nothing into the tree.  The tests' child processes (the CLI
tests that start `python -m pushcalc`) import pushcalc from src through
PYTHONPATH; what they run is not seen here.
"""
from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pushcalc"

REPR = "repr, for users and debuggers"
CHILD = "runs only in a child process"
FROZEN = "refuses a write to a frozen record, which no program path makes (test_value_classes)"
HASH = "hash, for users who key a dict or set by the value (test_pushing, test_value_classes)"

# Qualified name (module.qualname) -> why the function stays unreached.
ALLOWED: dict[str, str] = {
    "__init__.__dir__": "dir(pushcalc), for library users (test_cold_start); "
                        "the CLI imports each home module",
    "cli._drop_buffered": f"{CHILD}, when stdout is closed (test_cli)",
    "cli.entry": f"{CHILD}: the console script",
    "embedding.TruncatedMatrix.__repr__": REPR,
    "embedding.materialize.<locals>.too_large":
        "the window cap's refusal: test_cli reaches it in child processes, test_embedding "
        "in process",
    "errors.FrozenRecord.__delattr__": FROZEN,
    "errors.FrozenRecord.__setattr__": FROZEN,
    "errors._frozen_error": FROZEN,
    "errors.FrozenRecord.__hash__": HASH,
    "errors.Record.__repr__": REPR,
    "monoid.SelfMapClass.__repr__": REPR,
    "pushing.BraidElement.__str__": "str, for users",
    "ring.RingElem.__repr__": REPR,
    "ring.SphereLabel.__getnewargs__": "copy and pickle support",
    "ring.SphereLabel.__repr__": REPR,
    "words.FreeEndo.__hash__": HASH,
    "words.FreeEndo.__repr__": REPR,
    "words.FreeWord.__repr__": REPR,
    "words._unrank_word": "kernel_report's sampled sweep, over max_braids braids "
                          "(test_pushing, test_words)",
}


def defined_functions() -> dict[tuple[str, str], str]:
    """(file, qualname) -> 'module.qualname' for every function, method and
    nested function in the package, comprehensions and lambdas aside."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_name.startswith("<"):
                continue
            out[(str(path), code.co_qualname)] = f"{module}.{code.co_qualname}"
    return out


def run_entered() -> set[tuple[str, str]]:
    """Run the tests and the suites under a profiler: the (file, qualname)
    of every code object entered."""
    import pytest

    os.environ["PYTHONPATH"] = str(SRC)   # for the tests' child processes
    seen: set[types.CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                     str(ROOT / "tests" / "test_cli.py"),
                     str(ROOT / "tests" / "test_acceptance.py")])
        from pushcalc import verification
        verification.run_suite("all", 0, 300)
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_qualname) for c in seen}


def main() -> int:
    sys.path.insert(0, str(SRC))
    defined = defined_functions()
    entered = run_entered()
    unreached = sorted(name for key, name in defined.items() if key not in entered)
    print(f"\n{len(defined)} functions in src/pushcalc, {len(unreached)} never entered:")
    for name in unreached:
        print(f"  {name}: {ALLOWED.get(name, 'NOT ALLOWED')}")
    stale = sorted(set(ALLOWED) - set(unreached))
    for name in stale:
        print(f"ALLOWED names {name}, which is entered or is no function in src/pushcalc")
    bad = [name for name in unreached if name not in ALLOWED]
    if bad:
        print(f"{len(bad)} unreached functions have no reason in ALLOWED: delete them "
              "or give the reason")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
