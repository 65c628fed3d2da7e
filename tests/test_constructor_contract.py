"""Every public constructor answers a wrong-shaped field with ValueError.

Each field of each public constructor in turn gets every value of BATTERY,
the other fields valid.  A value either builds the object, because it is
a valid value of that field (the empty word, a count of 10**100), or raises
ValueError, which the CLI prints as one error line.  It never raises any
other exception.  A class in pushcalc.__all__ with no row in CONSTRUCTORS
must be on EXEMPT, so a new public class cannot skip the battery.

Every reader, each parse_* and *_from_json function in pushcalc.__all__
and ring.parse_label and ring.vec_from_json, gets every value of BATTERY as
its input.  It either returns or raises ParseError or TooLarge, which the
CLI prints as one error line.  A new public reader joins by its name.
"""
from __future__ import annotations

import inspect

import pytest

import pushcalc
from pushcalc import (
    BraidElement,
    FreeEndo,
    FreeWord,
    ManifoldModel,
    MapState,
    PuncturedSignature,
    RingElem,
    SelfMapClass,
    SphereLabel,
    TargetModel,
    WedgeSignature,
    ring,
)
from pushcalc.errors import ParseError, TooLarge

P1, T1 = SphereLabel("p", 1), SphereLabel("t", 1)

# Valid keyword arguments of every public constructor.
CONSTRUCTORS = {
    FreeWord: dict(letters=(1, -2)),
    FreeEndo: dict(images=(FreeWord([1]),)),
    RingElem: dict(terms=((FreeWord([1]), 2),)),
    SphereLabel: dict(kind="p", index=1),
    WedgeSignature: dict(g=1, labels=(P1, T1), d=3),
    SelfMapClass: dict(sig=WedgeSignature(1, (P1, T1)), circle_part=FreeEndo.identity(1),
                       sphere_part={}),
    ManifoldModel: dict(g=1, d=3, character=(1,), crossings=(((1, 1, FreeWord()),),),
                        low_handle_dim=False),
    PuncturedSignature: dict(model=ManifoldModel.default(1), k=1),
    BraidElement: dict(words=(FreeWord(),), perm=(0,)),
    TargetModel: dict(pi1_gens=1, classes=("x", "y"), action=((1, 0),), reflection=(0, 1),
                      charge=(0, 1), f_classes=((FreeWord([1]),),)),
    MapState: dict(f=0, g_classes=(0,)),
}

# Result types only the library builds, and the exception classes.
EXEMPT = {
    "TruncatedMatrix", "KernelReport", "NotInImage",
    "PushcalcError", "ParseError", "SignatureMismatch", "SizeMismatch",
    "SlotOutOfRange", "HypothesisViolation", "TooLarge",
}

BATTERY = [
    None, 5, 1.0, True, "x", b"x",
    [], {}, (), object(),
    [None], (None,), [5], (5,), {"a": 1},
    float("nan"), 10**100,
]

FIELDS = [(cls, field) for cls, args in CONSTRUCTORS.items() for field in args]


def test_every_public_class_is_tested_or_exempt():
    public = {name for name in pushcalc.__all__ if inspect.isclass(getattr(pushcalc, name))}
    tested = {cls.__name__ for cls in CONSTRUCTORS}
    assert public - tested - EXEMPT == set()
    assert tested | EXEMPT <= public


@pytest.mark.parametrize("cls", list(CONSTRUCTORS), ids=lambda cls: cls.__name__)
def test_table_gives_every_parameter_a_valid_value(cls):
    args = CONSTRUCTORS[cls]
    assert list(args) == list(inspect.signature(cls).parameters)
    cls(**args)


@pytest.mark.parametrize("cls, field", FIELDS,
                         ids=[f"{cls.__name__}-{field}" for cls, field in FIELDS])
def test_wrong_shapes_raise_value_error(cls, field):
    escaped = []
    for value in BATTERY:
        try:
            cls(**{**CONSTRUCTORS[cls], field: value})
        except ValueError:
            pass
        except Exception as exc:   # anything else is what this test reports
            escaped.append(f"{value!r:.40}: {type(exc).__name__}: {exc}")
    assert escaped == []


READERS = [getattr(pushcalc, name) for name in sorted(pushcalc.__all__)
           if name.startswith("parse_") or name.endswith("_from_json")]
READERS += [ring.parse_label, ring.vec_from_json]


def test_every_reader_is_found():
    assert {fn.__name__ for fn in READERS} >= {
        "parse_braid", "parse_word", "ring_from_json", "self_map_from_json",
        "target_from_json", "parse_label", "vec_from_json",
    }


@pytest.mark.parametrize("reader", READERS, ids=lambda fn: fn.__name__)
def test_readers_raise_parse_error(reader):
    escaped = []
    for value in BATTERY:
        try:
            reader(value)
        except (ParseError, TooLarge):
            pass
        except Exception as exc:   # anything else is what this test reports
            escaped.append(f"{value!r:.40}: {type(exc).__name__}: {exc}")
    assert escaped == []
