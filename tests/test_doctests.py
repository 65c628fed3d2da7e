"""Run the examples in the docstrings of every pushcalc module."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import pushcalc

# __main__ runs the CLI when imported, so it is not a doctest module.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pushcalc.__path__, "pushcalc.")
    if info.name != "pushcalc.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_documented_modules_have_examples():
    counts = {
        name: doctest.testmod(importlib.import_module(name)).attempted
        for name in ("pushcalc.words", "pushcalc.ring")
    }
    assert counts["pushcalc.words"] >= 10 and counts["pushcalc.ring"] >= 2, counts
