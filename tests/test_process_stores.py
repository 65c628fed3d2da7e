"""The stores that outlive a call, as errors._STORES declares them.

Every public operation that reads a store gives the same answers cold (each
store emptied before each case), warm (each store as earlier cases left it)
and after one errors._clear_caches().  A store whose key leaves out part of
what its value depends on fails that: a planted wedge store keyed on g + k
mixes up the shapes (1, 2) and (2, 1), and a planted colex store keyed on the
charge size alone mixes up the puncture counts.
"""
from __future__ import annotations

import importlib
import random

import pytest

from pushcalc import errors, orbits, pushing, verification
from pushcalc.errors import _STORES, _clear_caches
from pushcalc.monoid import identity_map
from pushcalc.orbits import components_bruteforce
from pushcalc.pushing import (
    BraidElement,
    ManifoldModel,
    PuncturedSignature,
    push_braid,
    recover_braid,
)
from pushcalc.verification import run_suite
from pushcalc.words import FreeEndo, parse_word

from _helpers import rand_word

SEED = 20_240_611


def answer(op, case):
    """op(*case), or the exception it raised, so that a wrong store shows as
    a different answer whatever it breaks."""
    try:
        return op(*case)
    except Exception as exc:
        return repr(exc)


def assert_cold_warm_and_cleared_agree(op, cases):
    cold = []
    for case in cases:
        _clear_caches()
        cold.append(answer(op, case))
    warm = [answer(op, case) for case in cases]
    _clear_caches()
    cleared = [answer(op, case) for case in cases]
    assert warm == cold
    assert cleared == cold


# --- push_braid and recover_braid, through PuncturedSignature's wedge store ---


def push_and_recover(g, k, d, words, perm):
    sig = PuncturedSignature(ManifoldModel.default(g, d=d), k)
    h = push_braid(sig, BraidElement(words, perm))
    return h, recover_braid(sig, h)


def braid_cases():
    rng = random.Random(SEED)
    # shapes of one g + k, such as (1, 2) and (2, 1), and of one (g, k) but two d
    shapes = [(g, k, d) for g in range(4) for k in range(1, 4) for d in (3, 3, 4)]
    rng.shuffle(shapes)
    cases = []
    for g, k, d in shapes:
        perm = list(range(k))
        rng.shuffle(perm)
        words = tuple(rand_word(rng, g, 4 if g else 0) for _ in range(k))
        cases.append((g, k, d, words, tuple(perm)))
    return cases


def test_braid_cases_hold_shapes_of_equal_size():
    sizes = {}
    for g, k, *_ in braid_cases():
        sizes.setdefault(g + k, set()).add((g, k))
    assert sizes[3] == {(0, 3), (1, 2), (2, 1)} and sizes[4] == {(1, 3), (2, 2), (3, 1)}


def test_pushes_agree_cold_warm_and_cleared():
    assert_cold_warm_and_cleared_agree(push_and_recover, braid_cases())


# --- components_bruteforce, through the colex store ---


def count_cases():
    rng = random.Random(SEED)
    cases = []
    for _ in range(40):
        g = rng.randrange(0, 3)
        target = verification._target(verification._rand_target_spec(rng, g))
        model = ManifoldModel(g, 3, (1,) * g, ManifoldModel.default(g).crossings,
                              low_handle_dim=True)
        cases.append((target, model, rng.randrange(1, 5)))
    return cases


def test_counts_agree_cold_warm_and_cleared():
    assert_cold_warm_and_cleared_agree(components_bruteforce, count_cases())


# --- run_suite, through the wedge, colex and hypothesis-model stores ---


def report(suite, seed, cases):
    return run_suite(suite, seed, cases).to_json()


def test_reports_agree_cold_warm_and_cleared():
    cases = [(suite, seed, 15) for seed in range(3) for suite in ("push", "orbits", "all")]
    assert_cold_warm_and_cleared_agree(report, cases)


# --- what a store shares cannot be written ---


def test_a_shared_circle_part_refuses_every_write():
    # Two signatures of one shape share one wedge from the store, and so its
    # identity circle part, which is also every push's circle part: a write
    # into it would reach the other signature's classes.
    a = PuncturedSignature(ManifoldModel.default(2, 3), 1)
    b = PuncturedSignature(ManifoldModel.default(2, 3), 1)
    assert a.wedge is b.wedge
    pushed = push_braid(a, BraidElement((rand_word(random.Random(SEED), 2, 4),), (0,)))
    writes = {"images": (parse_word("a1 a2"), parse_word("a2")), "_letters": ((1, 2), (2,)),
              "_is_id": True, "anything": 0}
    for endo in (a.wedge.identity_endo, pushed.circle_part):
        for name, value in writes.items():
            with pytest.raises(AttributeError):
                setattr(endo, name, value)
        assert endo == FreeEndo.identity(2) and endo.is_identity
    assert repr(identity_map(b.wedge)) == "SelfMapClass(a1, a2, p1, t1, t2)"


# --- planted stores whose key is too short ---


def plant(monkeypatch, module, name, key):
    """Replace module's store name by a dict keyed on key(*args) alone."""
    build = getattr(module, name).__wrapped__
    kept = {}

    def store(*args):
        if key(*args) not in kept:
            kept[key(*args)] = build(*args)
        return kept[key(*args)]

    store.cache_clear = kept.clear
    monkeypatch.setattr(module, name, store)
    monkeypatch.setitem(errors._caches, f"{module.__name__.split('.')[-1]}.{name}", store)


def test_a_wedge_store_keyed_on_g_plus_k_fails(monkeypatch):
    plant(monkeypatch, pushing, "_cached_wedge", lambda g, k, d: g + k)
    with pytest.raises(AssertionError):
        assert_cold_warm_and_cleared_agree(push_and_recover, braid_cases())


def test_a_colex_store_keyed_on_the_charge_alone_fails(monkeypatch):
    plant(monkeypatch, orbits, "_cached_columns", lambda m, k: m)
    with pytest.raises(AssertionError):
        assert_cold_warm_and_cleared_agree(components_bruteforce, count_cases())


# --- the table itself ---


def test_each_store_is_the_one_the_table_names():
    assert set(errors._caches) == set(_STORES)
    for name, (kept, admits, _) in _STORES.items():
        module, attr = name.split(".")
        cached = getattr(importlib.import_module(f"pushcalc.{module}"), attr)
        assert cached is errors._caches[name]
        assert cached.cache_info().maxsize == kept
    assert (pushing._CACHED_LABELS, orbits._CACHED_INTS) == (64, 1024)


def test_clear_caches_empties_every_store():
    run_suite("all", 0, 30)
    assert all(cached.cache_info().currsize for cached in errors._caches.values())
    _clear_caches()
    assert [cached.cache_info().currsize for cached in errors._caches.values()] == [0, 0, 0]


def test_the_orbits_suite_draws_no_more_characters_than_the_model_store_keeps(cold_stores):
    run_suite("orbits", 0, 300)
    info = verification._hyp_model.cache_info()
    # every character of g <= 2 was drawn, and none was built twice
    assert info.currsize == info.misses == 7 == _STORES["verification._hyp_model"][0]
