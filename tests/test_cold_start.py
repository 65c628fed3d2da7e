"""What a cold start loads: `import pushcalc` loads no submodule, and each
subcommand loads only the modules it runs.

A public name of the package imports its home module on first use; the
CLI imports each module inside the command that calls it.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import pushcalc

# The children import the pushcalc this process imported, from any cwd.
ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pushcalc.__file__))}

MAP = {"g": 1, "d": 3, "labels": ["p1", "t1"], "circles": ["a1"],
       "spheres": {"p1": {"p1": [[1, "e"]]}, "t1": {"t1": [[1, "e"]]}}}
TARGET = {"pi1_gens": 1, "classes": ["x"], "action": {"a1": ["x"]}, "reflection": ["x"],
          "charge": ["x"], "f_classes": [["e"]]}

# Every run loads the package, the CLI and the error classes.
START = {"pushcalc", "pushcalc.cli", "pushcalc.errors"}
ALGEBRA = START | {"pushcalc.words", "pushcalc.ring", "pushcalc.monoid"}
PUSH = ALGEBRA | {"pushcalc.pushing"}
EMBED = {"pushcalc.embedding"}
ORBITS = {"pushcalc.orbits"}

# One request of each subcommand and the exact pushcalc modules it loads:
# compose loads no pushing, only components loads orbits, only verify
# loads verification, and only embed and push-word --matrix load embedding.
# A subcommand's help loads only what its flags need: verify's --suite
# choices come from verification.
REQUESTS = [
    (["--help"], START),
    (["push-word", "--help"], START),
    (["verify", "--help"], PUSH | EMBED | ORBITS | {"pushcalc.verification"}),
    (["push-word", "-g", "1", "-k", "1", "--slot", "1", "a1"], PUSH),
    (["push-word", "-g", "1", "-k", "1", "--slot", "1", "a1", "--matrix"], PUSH | EMBED),
    (["push-braid", "-g", "1", "[a1 | e ; (1 2)]"], PUSH),
    (["compose", "map.json", "map.json"], ALGEBRA),
    (["embed", "--map", "map.json"], ALGEBRA | EMBED),
    (["embed", "-g", "1", "-k", "1", "--slot", "1", "a1"], PUSH | EMBED),
    (["recover", "--map", "map.json"], PUSH),
    (["kernel", "-g", "1", "-k", "1", "--max-len", "1"], PUSH),
    (["components", "--target", "target.json", "-g", "1", "-k", "1",
      "--assume-hypotheses"], PUSH | ORBITS),
    (["verify", "--suite", "ring", "--cases", "1"],
     PUSH | EMBED | ORBITS | {"pushcalc.verification"}),
]


def imported(args: list[str], cwd=None, code: int = 0) -> set[str]:
    """The modules a child `python -X importtime ARGS` imports; it must exit
    with code."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("argv, modules", REQUESTS, ids=[" ".join(a) for a, _ in REQUESTS])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    (tmp_path / "map.json").write_text(json.dumps(MAP))
    (tmp_path / "target.json").write_text(json.dumps(TARGET))
    loaded = imported(["-m", "pushcalc", *argv], cwd=tmp_path)
    assert {m for m in loaded if m.split(".")[0] == "pushcalc"} == modules


def test_push_braid_text_answer_loads_no_json():
    # unless the bare interpreter already has it
    loaded = imported(["-m", "pushcalc", "push-braid", "-g", "1", "[a1 | e ; (1 2)]"])
    assert "json" not in loaded - imported(["-c", "pass"])


def test_import_pushcalc_loads_no_submodule():
    assert {m for m in imported(["-c", "import pushcalc"])
            if m.startswith("pushcalc.")} == set()


def test_star_import_binds_each_name_from_its_home():
    namespace: dict = {}
    exec("from pushcalc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pushcalc.__all__)
    for name, home in pushcalc._HOMES.items():
        assert namespace[name] is getattr(import_module(f"pushcalc.{home}"), name), name


def test_unknown_name_and_dir():
    with pytest.raises(AttributeError) as exc:
        pushcalc.nope
    assert str(exc.value) == "module 'pushcalc' has no attribute 'nope'"
    listing = dir(pushcalc)
    assert "__all__" in listing and set(pushcalc.__all__) <= set(listing)


# Standard-library modules no request loads, help included, beyond what a
# bare `python -S` start with the modules the CLI always uses loads:
# dataclasses and what it pulls in, pathlib, typing, random (verify draws its
# cases with it), shutil, and argparse with the gettext and locale it loads.
AVOIDED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib", "typing", "random",
           "shutil", "argparse", "gettext", "locale"}


@pytest.fixture(scope="module")
def bare_start() -> set[str]:
    return imported(["-S", "-c", "import re, contextlib"])


@pytest.mark.parametrize("argv", [a for a, _ in REQUESTS], ids=" ".join)
def test_each_subcommand_loads_no_avoided_stdlib_module(tmp_path, bare_start, argv):
    (tmp_path / "map.json").write_text(json.dumps(MAP))
    (tmp_path / "target.json").write_text(json.dumps(TARGET))
    loaded = imported(["-S", "-m", "pushcalc", *argv], cwd=tmp_path)
    allowed = {"random"} if argv[0] == "verify" else set()
    assert (loaded - bare_start) & AVOIDED <= allowed


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["kernel", "-g", "1"], 2)],
                         ids=["help", "usage-error"])
def test_help_and_usage_error_load_no_argparse(argv, code):
    assert not imported(["-S", "-m", "pushcalc", *argv], code=code) & AVOIDED
