"""The seven public value classes behave as frozen dataclasses with the same
fields: repr, == and hash agree with a frozen dataclass twin built here,
assignment and deletion raise FrozenInstanceError, dataclasses.fields and
dataclasses.replace work on them, and a value cached in the instance
__dict__ changes neither equality nor hash.
"""
from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from pushcalc import (
    BraidElement,
    FreeWord,
    KernelReport,
    ManifoldModel,
    MapState,
    PuncturedSignature,
    TargetModel,
    WedgeSignature,
    push_braid,
)
from pushcalc.ring import SphereLabel

from _helpers import rand_word

MISSING = dataclasses.MISSING

# Each class's fields, in order, with their defaults.
FIELDS = {
    WedgeSignature: [("g", MISSING), ("labels", MISSING), ("d", 3)],
    ManifoldModel: [("g", MISSING), ("d", MISSING), ("character", MISSING),
                    ("crossings", MISSING), ("low_handle_dim", False)],
    PuncturedSignature: [("model", MISSING), ("k", MISSING)],
    BraidElement: [("words", MISSING), ("perm", MISSING)],
    KernelReport: [("g", MISSING), ("k", MISSING), ("max_word_len", MISSING),
                   ("exhaustive", MISSING), ("total_checked", MISSING),
                   ("nontrivial_kernel", MISSING)],
    TargetModel: [("pi1_gens", MISSING), ("classes", MISSING), ("action", MISSING),
                  ("reflection", MISSING), ("charge", MISSING), ("f_classes", MISSING)],
    MapState: [("f", MISSING), ("g_classes", MISSING)],
}

# The frozen dataclass each class is measured against.
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, [name for name, _ in fields],
                                         frozen=True)
         for cls, fields in FIELDS.items()}


def twin(value: object) -> object:
    cls = type(value)
    return TWINS[cls](*(getattr(value, name) for name, _ in FIELDS[cls]))


def _perm(rng: random.Random, k: int) -> tuple[int, ...]:
    perm = list(range(k))
    rng.shuffle(perm)
    return tuple(perm)


def _model(rng: random.Random) -> ManifoldModel:
    g = rng.randrange(3)
    if rng.random() < 0.3:
        return ManifoldModel.default(g, rng.randrange(3, 5))
    crossings = tuple(
        tuple((rng.randrange(1, g + 1), rng.choice((1, -1)), rand_word(rng, g, 2))
              for _ in range(rng.randrange(1, 3)))
        for _ in range(g))
    return ManifoldModel(g, rng.randrange(3, 5), tuple(rng.choice((1, -1)) for _ in range(g)),
                         crossings, rng.random() < 0.5)


def _target(rng: random.Random) -> TargetModel:
    n, h = rng.randrange(1, 4), rng.randrange(3)
    swap = tuple(range(n)) if n == 1 else (1, 0) + tuple(range(2, n))
    return TargetModel(h, tuple(f"c{i}" for i in range(n)),
                       tuple(rng.choice((swap, tuple(range(n)))) for _ in range(h)),
                       rng.choice((swap, tuple(range(n)))), tuple(range(n)),
                       tuple(tuple(rand_word(rng, h, 2) if h else FreeWord() for _ in range(2))
                             for _ in range(rng.randrange(3))))


def build(cls: type, rng: random.Random) -> object:
    """A seeded instance of cls; few enough shapes that equal pairs occur."""
    if cls is WedgeSignature:
        labels = [SphereLabel(kind, i) for kind in "pt" for i in (1, 2) if rng.random() < 0.5]
        return WedgeSignature(rng.randrange(3), labels, rng.randrange(3, 5))
    if cls is ManifoldModel:
        return _model(rng)
    if cls is PuncturedSignature:
        return PuncturedSignature(ManifoldModel.default(rng.randrange(3)), rng.randrange(3))
    if cls is BraidElement:
        k = rng.randrange(3)
        return BraidElement(tuple(rand_word(rng, 2, 1) for _ in range(k)), _perm(rng, k))
    if cls is KernelReport:
        kernel = tuple(BraidElement((rand_word(rng, 1, 1),), (0,))
                       for _ in range(rng.randrange(2)))
        return KernelReport(1, 1, rng.randrange(2), rng.random() < 0.5, rng.randrange(3), kernel)
    if cls is TargetModel:
        return _target(rng)
    assert cls is MapState
    return MapState(rng.randrange(2), tuple(rng.randrange(2) for _ in range(rng.randrange(3))))


def instances(cls: type) -> list:
    rng = random.Random(f"value-classes:{cls.__name__}")
    return [build(cls, rng) for _ in range(40)]


CLASSES = list(FIELDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_eq_and_hash_match_a_frozen_dataclass(cls):
    values = instances(cls)
    for a in values:
        assert repr(a) == repr(twin(a))
        assert hash(a) == hash(twin(a))
        assert a.__eq__(twin(a)) is NotImplemented
    equal_pairs = 0
    for a, b in itertools.product(values, repeat=2):
        assert (a == b) == (twin(a) == twin(b))
        assert (a != b) == (twin(a) != twin(b))
        if a is not b and a == b:
            equal_pairs += 1
            assert hash(a) == hash(b)
    assert equal_pairs   # the draw has equal values that are not the same object


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_frozen_instance_error(cls):
    value = instances(cls)[0]
    before = repr(value)
    for name in [name for name, _ in FIELDS[cls]] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_and_replace(cls):
    assert dataclasses.is_dataclass(cls)
    fields = dataclasses.fields(cls)
    assert [(f.name, f.default) for f in fields] == FIELDS[cls]
    assert all(f.init and f.repr and f.compare for f in fields)
    values = instances(cls)
    for value in values[:10]:
        assert dataclasses.fields(value) == fields
        copy = dataclasses.replace(value)
        assert type(copy) is cls and copy == value and repr(copy) == repr(value)
    # The last field taken from each other value that fits with the rest.
    name, replaced = fields[-1].name, 0
    for other in values:
        try:
            changed = dataclasses.replace(values[0], **{name: getattr(other, name)})
        except ValueError:
            continue
        replaced += 1
        assert twin(changed) == dataclasses.replace(twin(values[0]),
                                                    **{name: getattr(other, name)})
    assert replaced


def test_replace_runs_the_constructor():
    model = dataclasses.replace(ManifoldModel.default(2), low_handle_dim=True)
    assert model == ManifoldModel(2, 3, (1, 1), (((1, 1, FreeWord()),), ((2, 1, FreeWord()),)),
                                  low_handle_dim=True)
    with pytest.raises(ValueError, match="^low_handle_dim must be bool, got 1$"):
        dataclasses.replace(model, low_handle_dim=1)


def test_filling_a_cache_changes_neither_equality_nor_hash():
    sig, fresh = (PuncturedSignature(ManifoldModel.default(2), 2) for _ in range(2))
    key, model_key = hash(fresh), hash(fresh.model)
    push_braid(sig, BraidElement((rand_word(random.Random(1), 2, 4),) * 2, (1, 0)))
    wedge = sig.wedge
    assert wedge.identity_endo.rank == 2
    assert {"punctures", "cells", "wedge"} <= set(vars(sig))
    assert {"_plain_steps", "_last_push"} <= set(vars(sig.model))
    assert "identity_endo" in vars(wedge)
    assert "wedge" not in vars(fresh) and "_last_push" not in vars(fresh.model)
    assert sig == fresh and hash(sig) == key
    assert sig.model == fresh.model and hash(sig.model) == model_key
    assert repr(sig) == repr(fresh)
    assert wedge == WedgeSignature(wedge.g, wedge.labels, wedge.d)
    assert hash(wedge) == hash(WedgeSignature(wedge.g, wedge.labels, wedge.d))
