"""The seven public value classes behave as frozen dataclasses with the same
fields: repr, == and hash agree with a frozen dataclass twin built here,
assignment and deletion raise FrozenInstanceError, dataclasses.fields and
dataclasses.replace work on them, and a value a constructor caches beside
the fields changes neither equality nor hash.  A subclass keeps these fields,
the three mutable verify records compare like a dataclass and do not hash,
and no record writes its own == or hash: errors.Record and FrozenRecord
supply them.  copy, deepcopy and pickle give back an equal record with the
same instance __dict__, caches included.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
import random
from copy import copy as shallow_copy, deepcopy

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
    recover_braid,
)
from pushcalc.errors import FrozenRecord, Record
from pushcalc.ring import SphereLabel
from pushcalc.verification import _SUITE_BUILDERS, Property, PropertyResult, SuiteReport

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


def init_params(cls: type) -> list:
    """__init__'s parameters after self, as (name, default) pairs, MISSING for none."""
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [(p.name, MISSING if p.default is p.empty else p.default) for p in params]


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
    # __init__ takes the fields in order, with the defaults fields() reports.
    assert (init_params(cls) == [(f.name, f.default) for f in fields]
            and cls.__match_args__ == tuple(f.name for f in fields))
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
    # The signature's and the model's caches are stored by their constructors,
    # after the fields, and a push and a recovery add none.
    values = (sig, sig.model)
    for value in values:
        assert list(vars(value)) == [*value.__match_args__, *INIT_CACHES[type(value)]]
    before = [list(vars(value)) for value in values]
    braid = BraidElement((rand_word(random.Random(1), 2, 4),) * 2, (1, 0))
    assert recover_braid(sig, push_braid(sig, braid)) == braid
    assert [list(vars(value)) for value in values] == before
    assert sig.model._last_push[0] and not fresh.model._last_push[0]
    wedge = sig.wedge
    assert wedge.identity_endo.rank == 2
    assert "identity_endo" in vars(wedge)   # built on first read: g has no cap
    assert sig == fresh and hash(sig) == key
    assert sig.model == fresh.model and hash(sig.model) == model_key
    assert repr(sig) == repr(fresh)
    assert wedge == WedgeSignature(wedge.g, wedge.labels, wedge.d)
    assert hash(wedge) == hash(WedgeSignature(wedge.g, wedge.labels, wedge.d))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_subclass_keeps_the_fields(cls):
    sub, twin_sub = type("Sub", (cls,), {}), type("Sub", (TWINS[cls],), {})
    names = [name for name, _ in FIELDS[cls]]
    assert sub.__match_args__ == twin_sub.__match_args__ == tuple(names)
    assert [(f.name, f.default) for f in dataclasses.fields(sub)] == FIELDS[cls]
    assert [f.name for f in dataclasses.fields(twin_sub)] == names

    def args(value: object) -> list:
        return [getattr(value, name) for name in names]

    bases = instances(cls)
    subs = [sub(*args(value)) for value in bases]
    twins = [twin_sub(*args(value)) for value in bases]
    for a, ta, base in zip(subs, twins, bases):
        assert type(a) is sub and repr(a) == repr(ta)
        assert hash(a) == hash(ta)
        assert a.__eq__(base) is NotImplemented and a != base
    for (a, ta), (b, tb) in itertools.product(zip(subs, twins), repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
    copy = dataclasses.replace(subs[0])
    assert type(copy) is sub and copy == subs[0] and copy is not subs[0]
    name, replaced = names[-1], 0
    for other in bases:
        try:
            changed = dataclasses.replace(subs[0], **{name: getattr(other, name)})
        except ValueError:
            continue
        replaced += 1
        assert type(changed) is sub
        assert twin_sub(*args(changed)) == dataclasses.replace(twins[0],
                                                               **{name: getattr(other, name)})
    assert replaced


def test_a_subclass_adds_its_own_fields_after_the_base():
    class Tagged(MapState):
        tag: str = ""
        f: int   # a base field declared again keeps its place

        def __init__(self, f: int, g_classes: tuple[int, ...], tag: str = "") -> None:
            super().__init__(f, g_classes)
            object.__setattr__(self, "tag", tag)

    @dataclasses.dataclass(frozen=True)
    class TaggedTwin(TWINS[MapState]):
        tag: str = ""

    assert Tagged.__match_args__ == TaggedTwin.__match_args__ == ("f", "g_classes", "tag")
    assert ([(f.name, f.default) for f in dataclasses.fields(Tagged)]
            == [("f", MISSING), ("g_classes", MISSING), ("tag", "")])
    assert init_params(Tagged) == [(f.name, f.default) for f in dataclasses.fields(Tagged)]
    value = Tagged(1, (0, 2), "x")
    assert repr(value).endswith("Tagged(f=1, g_classes=(0, 2), tag='x')")
    assert hash(value) == hash(TaggedTwin(1, (0, 2), "x"))
    assert value == Tagged(1, (0, 2), "x") and value != Tagged(1, (0, 2))
    assert dataclasses.replace(value, f=0) == Tagged(0, (0, 2), "x")


def _record_subclasses(cls: type) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _record_subclasses(sub)
    return found


def test_no_record_writes_its_own_eq_or_hash():
    import pushcalc

    for module in pkgutil.iter_modules(pushcalc.__path__):
        if module.name != "__main__":
            importlib.import_module(f"pushcalc.{module.name}")
    records = {cls for cls in _record_subclasses(Record)
               if cls.__module__.startswith("pushcalc.")} - {FrozenRecord}
    assert set(CLASSES) | set(VERIFY_FIELDS) <= records
    assert [cls.__qualname__ for cls in records
            if "__eq__" in vars(cls) or "__hash__" in vars(cls)] == []


# The three verify records: mutable, so compared with a plain (unfrozen,
# unhashable) dataclass twin.
VERIFY_FIELDS = {
    PropertyResult: [("name", MISSING), ("cases", MISSING), ("ok", MISSING),
                     ("counterexample", None), ("extra", None)],
    SuiteReport: [("suite", MISSING), ("seed", MISSING), ("requested_cases", MISSING),
                  ("results", MISSING)],
    Property: [("name", MISSING), ("gen", MISSING), ("fails", MISSING), ("cap", None),
               ("extra", None)],
}
VERIFY_TWINS = {cls: dataclasses.make_dataclass(cls.__name__, [name for name, _ in fields])
                for cls, fields in VERIFY_FIELDS.items()}


def build_record(cls: type, rng: random.Random) -> object:
    """A seeded verify record; few enough shapes that equal pairs occur."""
    extra = rng.choice((None, {"states": 1}))
    if cls is PropertyResult:
        return PropertyResult(rng.choice("ab"), rng.randrange(2), rng.random() < 0.5,
                              rng.choice((None, "case")), extra)
    if cls is SuiteReport:
        return SuiteReport(rng.choice(("ring", "all")), rng.randrange(2), 3,
                           [build_record(PropertyResult, rng) for _ in range(rng.randrange(2))])
    assert cls is Property
    return Property(rng.choice("ab"), rng.choice((len, repr)), rng.choice((len, repr)),
                    rng.choice((None, 5)), extra)


@pytest.mark.parametrize("cls", list(VERIFY_FIELDS), ids=lambda cls: cls.__name__)
def test_verify_records_compare_like_a_dataclass(cls):
    rng = random.Random(f"verify-records:{cls.__name__}")
    values = [build_record(cls, rng) for _ in range(30)]
    names = [name for name, _ in VERIFY_FIELDS[cls]]

    def twin_of(value: object) -> object:
        return VERIFY_TWINS[cls](*(getattr(value, name) for name in names))

    fields = dataclasses.fields(cls)
    assert [(f.name, f.default) for f in fields] == VERIFY_FIELDS[cls]
    assert (init_params(cls) == [(f.name, f.default) for f in fields]
            and cls.__match_args__ == tuple(names))
    equal_pairs = 0
    for a, b in itertools.product(values, repeat=2):
        assert (a == b) == (twin_of(a) == twin_of(b))
        assert (a != b) == (twin_of(a) != twin_of(b))
        equal_pairs += a is not b and a == b
    assert equal_pairs
    for a in values:
        assert repr(a) == repr(twin_of(a))
        assert a.__eq__(twin_of(a)) is NotImplemented and a != twin_of(a)
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
    value, copy = values[0], dataclasses.replace(values[0])
    assert copy == value and copy is not value
    setattr(value, names[1], 7)
    assert getattr(value, names[1]) == 7 and value != copy
    assert twin_of(value) == dataclasses.replace(twin_of(copy), **{names[1]: 7})



# The values a record caches in its __init__, beside its fields.
INIT_CACHES = {WedgeSignature: ("label_set",), TargetModel: ("charge_set", "inv_action"),
               ManifoldModel: ("_plain_steps", "_last_push"),
               PuncturedSignature: ("punctures", "cells", "wedge")}


def _round_trips(value: object) -> list:
    """copy, deepcopy and a default-protocol pickle of value; only deepcopy
    for a Property, whose generator and check are local functions."""
    if isinstance(value, Property):
        return [deepcopy(value)]
    return [shallow_copy(value), deepcopy(value), pickle.loads(pickle.dumps(value))]


def test_copy_deepcopy_and_pickle_keep_the_record():
    rng = random.Random("value-classes:copy")
    sig = PuncturedSignature(ManifoldModel.default(2), 2)
    push_braid(sig, BraidElement((rand_word(rng, 2, 4),) * 2, (1, 0)))
    assert {"punctures", "cells", "wedge"} <= set(vars(sig))
    values = [value for cls in CLASSES for value in instances(cls)[:10]]
    values += [build_record(cls, rng) for cls in VERIFY_FIELDS for _ in range(10)]
    values += [prop for build in _SUITE_BUILDERS.values() for prop in build()]
    values += [sig, sig.model, sig.wedge]
    for value in values:
        for other in _round_trips(value):
            assert type(other) is type(value) and other == value
            assert repr(other) == repr(value)
            assert list(vars(other)) == list(vars(value))
            for name in INIT_CACHES.get(type(value), ()):
                assert getattr(other, name) == getattr(value, name)
