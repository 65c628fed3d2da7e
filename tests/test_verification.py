"""Each property suite can fail: a planted fault is caught by exactly the
properties that should see it.  (The embed suite's fault is in
test_embedding.py.)"""
from __future__ import annotations

import pytest

from pushcalc import monoid, orbits, pushing, ring, verification
from pushcalc.ring import RingElem


def _positive_right(ring_mul):
    return lambda a, b: ring_mul(a, RingElem._wrap({t: abs(c) for t, c in b.terms.items()}))


def _swapped(op):
    return lambda a, b: op(b, a)


def _negated(slot_terms):
    def terms(model, letters):
        sign, acc = slot_terms(model, letters)
        return sign, [{t: -c for t, c in coeffs.items()} for coeffs in acc]
    return terms


def _plus_one(orbit_count):
    return lambda target, f_words: orbit_count(target, f_words) + 1


@pytest.mark.parametrize("suite, module, name, fault, failing", [
    ("ring", ring, "ring_mul", _positive_right,
     ["ring-associativity", "ring-distributivity", "augmentation-homomorphism",
      "induced-ring-map-multiplicative"]),
    ("monoid", monoid, "endo_compose", _swapped, ["compose-associative", "circle-functor"]),
    ("push", pushing, "_slot_terms", _negated, ["closed-form-agrees"]),
    ("orbits", orbits, "_orbit_count", _plus_one, ["formula-vs-bruteforce"]),
    ("monoid", monoid, "ring_mul", _swapped, ["compose-product-order"]),
])
def test_suite_catches_a_planted_fault(monkeypatch, suite, module, name, fault, failing):
    assert verification.run_suite(suite, 0, 100).ok
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = verification.run_suite(suite, 0, 100)
    assert [r.name for r in report.results if not r.ok] == failing
