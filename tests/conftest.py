"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

from pushcalc.errors import _clear_caches


@pytest.fixture
def cold_stores():
    """Every store of errors._STORES empty, before the test and again after it."""
    _clear_caches()
    yield
    _clear_caches()
