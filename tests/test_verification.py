"""Each property suite can fail: a planted fault is caught by exactly the
properties that should see it.  A fault is patched where the suite reads the
name: on verification for the names it imports, and on words._kernel for the
word kernel.  (A slope fault in the embed suite is in test_embedding.py.)"""
from __future__ import annotations

import pytest

from pushcalc import monoid, orbits, pushing, ring, verification, words
from pushcalc.monoid import SelfMapClass
from pushcalc.pushing import BraidElement
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


def _no_cancelling(concat):
    return lambda a, b: a + b


def _one_pass(reduce_letters):
    # drops each cancelling pair it meets, but never looks back past it
    def reduce(letters):
        letters, out, i = tuple(letters), [], 0
        while i < len(letters):
            if i + 1 < len(letters) and letters[i + 1] == -letters[i]:
                i += 2
            else:
                out.append(letters[i])
                i += 1
        return tuple(out)
    return reduce


def _absolute(augment):
    return lambda a: abs(augment(a))


def _first_unit_doubled(identity_map):
    def ident(sig):
        h, lab = identity_map(sig), sig.labels[0]
        return SelfMapClass(sig, h.circle_part,
                            {**h.sphere_part, lab: {lab: RingElem.one() + RingElem.one()}})
    return ident


def _transposed(matrix):
    return lambda h: [list(row) for row in zip(*matrix(h))]


def _drops_an_entry(materialize):
    def window(h, radius, *args):
        t = materialize(h, radius, *args)
        if radius == 0 and t.entries:
            del t.entries[next(iter(t.entries))]
        return t
    return window


def _inverted_after_an_inverse_letter(push_word):
    return lambda sig, w, slot: push_word(
        sig, ~w if w.letters and w.letters[0] < 0 else w, slot)


def _orientable_sign(slot_terms):
    return lambda model, letters: (1, slot_terms(model, letters)[1])


def _reversed_perm(recover_braid):
    def recover(sig, h):
        b = recover_braid(sig, h)
        return BraidElement(b.words, b.perm[::-1])
    return recover


@pytest.mark.parametrize("suite, module, name, fault, failing", [
    ("ring", ring, "ring_mul", _positive_right,
     ["ring-associativity", "ring-distributivity", "augmentation-homomorphism",
      "induced-ring-map-multiplicative"]),
    ("monoid", monoid, "endo_compose", _swapped, ["compose-associative", "circle-functor"]),
    ("push", pushing, "_slot_terms", _negated, ["closed-form-agrees"]),
    ("orbits", orbits, "_orbit_count", _plus_one, ["formula-vs-bruteforce"]),
    ("monoid", monoid, "ring_mul", _swapped, ["compose-product-order"]),
    ("ring", words._kernel, "concat", _no_cancelling,
     ["group-axioms", "induced-ring-map-multiplicative"]),
    ("ring", words._kernel, "reduce_letters", _one_pass, ["reduce-idempotent"]),
    ("ring", verification, "augment", _absolute, ["augmentation-homomorphism"]),
    ("monoid", verification, "identity_map", _first_unit_doubled, ["identity-laws"]),
    ("monoid", verification, "top_homology_matrix", _transposed, ["homology-functor"]),
    ("embed", verification, "materialize", _drops_an_entry, ["embedding-round-trip"]),
    ("push", verification, "push_word", _inverted_after_an_inverse_letter,
     ["closed-form-agrees", "push-inverse-law"]),
    ("push", verification, "_slot_terms", _orientable_sign, ["crossing-cocycle"]),
    ("push", verification, "braid_mul", _swapped, ["braid-homomorphism"]),
    ("push", verification, "recover_braid", _reversed_perm, ["recover-round-trip"]),
    ("orbits", verification, "braid_mul", _swapped, ["action-axiom"]),
])
def test_suite_catches_a_planted_fault(monkeypatch, suite, module, name, fault, failing):
    assert verification.run_suite(suite, 0, 100).ok
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = verification.run_suite(suite, 0, 100)
    assert [r.name for r in report.results if not r.ok] == failing


def test_ring_suite_sees_an_augmentation_that_is_not_additive(monkeypatch):
    # |augment| is still multiplicative, so only the additive branch fails
    monkeypatch.setattr(verification, "augment", _absolute(verification.augment))
    failed, = (r for r in verification.run_suite("ring", 0, 100).results if not r.ok)
    assert failed.counterexample.startswith("augmentation is not additive")
