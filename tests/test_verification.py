"""Each property suite can fail: a planted fault is caught by exactly the
properties that should see it.  A fault is patched where the suite reads the
name: on verification for the names it imports, on words._kernel for the
word kernel, on words.FreeWord for the word product, and on orbits for
_move, which act reads from there at call time.  (A slope fault in the embed suite is in test_embedding.py.)

The suites draw their cases on a pinned random stream: the reports at seeds
1-3 keep their recorded digests, and each case builder draws exactly what,
and as much as, a copy of its choice/randrange/randint form below draws."""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from pushcalc import monoid, orbits, pushing, ring, verification, words
from pushcalc.errors import NotInImage, _clear_caches
from pushcalc.monoid import SelfMapClass
from pushcalc.orbits import MapState
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


def _empty_right_wins(mul):
    # a * e gives e, dropping a.  a * ~a is still empty, and the shrunk case
    # ((x,), (), ()) is still associative, so it fails on the identity law.
    return lambda a, b: b if isinstance(b, words.FreeWord) and not b.letters else mul(a, b)


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


def _leaves_the_charge(act):
    # every class goes to the largest class outside the charge, if there is one
    def leave(model, target, braid, state):
        outside = [i for i in range(len(target.classes)) if i not in target.charge_set]
        if not outside:
            return act(model, target, braid, state)
        return MapState(state.f, (outside[-1],) * braid.k)
    return leave


def _no_reflection_after_an_inverse_letter(move):
    def step(model, target, f_words, x, idx):
        idx = move(model, target, f_words, x, idx)
        if x < 0 and model.character[-x - 1] == -1:
            idx = target.reflection[idx]   # undoes move's last step
        return idx
    return step


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
    ("ring", words.FreeWord, "__mul__", _empty_right_wins, ["group-axioms"]),
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
    ("orbits", verification, "act", _leaves_the_charge, ["charge-preserved"]),
    ("orbits", orbits, "_move", _no_reflection_after_an_inverse_letter, ["action-axiom"]),
])
def test_suite_catches_a_planted_fault(monkeypatch, suite, module, name, fault, failing):
    assert verification.run_suite(suite, 0, 100).ok
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = verification.run_suite(suite, 0, 100)
    assert [r.name for r in report.results if not r.ok] == failing


def _reversed(concat):
    # the reverse of a reduced word is reduced: a·~a is still empty, but
    # (a·b)·c and a·(b·c) differ
    return lambda a, b: concat(a, b)[::-1]


def _sign_minus_one(slot_terms):
    # every nonempty word is given the orientation sign -1
    def terms(model, letters):
        sign, acc = slot_terms(model, letters)
        return -1 if letters else sign, acc
    return terms


def _not_in_image(recover_braid):
    def recover(sig, h):
        raise NotInImage("no braid")
    return recover


@pytest.mark.parametrize("suite, module, name, fault, failing, message", [
    ("ring", words._kernel, "concat", _reversed, "group-axioms",
     "concatenation is not associative"),
    ("ring", words.FreeWord, "__mul__", _empty_right_wins, "group-axioms",
     "identity law fails"),
    ("push", verification, "_slot_terms", _sign_minus_one, "crossing-cocycle",
     "orientation sign is not multiplicative"),
    ("push", verification, "recover_braid", _not_in_image, "recover-round-trip",
     "braid recovery does not round trip"),
])
def test_a_planted_fault_gets_its_own_message(monkeypatch, suite, module, name, fault,
                                              failing, message):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    failed = {r.name: r for r in verification.run_suite(suite, 0, 100).results if not r.ok}
    assert failed[failing].counterexample.startswith(message)


def test_ring_suite_sees_an_augmentation_that_is_not_additive(monkeypatch):
    # |augment| is still multiplicative, so only the additive branch fails
    monkeypatch.setattr(verification, "augment", _absolute(verification.augment))
    failed, = (r for r in verification.run_suite("ring", 0, 100).results if not r.ok)
    assert failed.counterexample.startswith("augmentation is not additive")


# sha256 of json.dumps(run_suite("all", seed, 300).to_json(), sort_keys=True),
# recorded while the case builders still drew through choice, randrange and
# randint, on Python 3.10-3.13: a builder that moves the stream changes them.
STREAM_DIGESTS = {
    1: "2b826eb023c572496f106fbbf6644fc36dae8221264a97c7a7dfbf62bcbb2259",
    2: "dc3d886a939e118664afb8dc686302e9679eaff4f74e2c5dbb3bfb2e1a0a0dd6",
    3: "b2f5f73e89ed10546092049c97e6ab459958fbe957138fba5222297a3d3c17ab",
}


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_all_suites_report_their_recorded_digest(seed):
    report = json.dumps(verification.run_suite("all", seed, 300).to_json(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == STREAM_DIGESTS[seed]


def test_reports_read_the_same_on_cold_and_warm_caches():
    # The suites share wedges and hypothesis models across cases and runs;
    # nothing one run leaves in them, such as a model's last-push record,
    # may change a later report.
    def cold():
        _clear_caches()
        return verification.run_suite("all", 1, 50).to_json()

    first = cold()
    assert verification._hyp_model.cache_info().currsize > 0
    assert first == verification.run_suite("all", 1, 50).to_json() == cold()


# The case builders as they were written with choice, randrange and randint.


def _letters(rng, g, max_len):
    return tuple(
        rng.choice([1, -1]) * rng.randrange(1, g + 1)
        for _ in range(rng.randrange(0, max_len + 1))
    )


def _ring_spec(rng, g, max_terms=3, max_len=3):
    return tuple(
        (_letters(rng, g, max_len), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(0, max_terms + 1))
    )


def _map_spec(rng, g, k):
    n = g + k
    circ = tuple(_letters(rng, g, 2) for _ in range(g))
    entries = tuple(
        (src, tgt, _ring_spec(rng, g, max_terms=2, max_len=2))
        for src in range(n)
        for tgt in range(n)
        if rng.random() < 0.4
    )
    return (g, k, circ, entries)


def _braid_spec(rng, g, k, max_len=4):
    words = tuple(_letters(rng, g, max_len) for _ in range(k))
    perm = list(range(k))
    rng.shuffle(perm)
    return (words, tuple(perm))


def _model_spec(rng, g):
    if rng.random() < 0.2:
        return ((1,) * g, tuple(((i, 1, ()),) for i in range(1, g + 1)))
    character = tuple(rng.choice((1, -1)) for _ in range(g))
    return (character, tuple(
        tuple((rng.randint(1, g), rng.choice((1, -1)), _letters(rng, g, 3))
              for _ in range(rng.randrange(4)))
        for _ in range(g)
    ))


def _target_spec(rng, g):
    h = rng.randrange(0, 3)
    n = rng.randrange(1, 5)
    action = []
    for _ in range(h):
        perm = list(range(n))
        rng.shuffle(perm)
        action.append(tuple(perm))
    f_classes = tuple(
        tuple(_letters(rng, h, 3) if h else () for _ in range(g))
        for _ in range(rng.randrange(1, 3))
    )
    reached = {i for i in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
    todo = list(reached)
    while todo:
        c = todo.pop()
        new = {perm[c] for perm in action} - reached
        reached |= new
        todo += new
    charge = tuple(sorted(reached))
    reflection = list(range(n))
    for part in (list(charge), [i for i in range(n) if i not in reached]):
        rng.shuffle(part)
        for a, b in zip(part[::2], part[1::2]):
            reflection[a], reflection[b] = b, a
    return (h, n, tuple(action), tuple(reflection), charge, f_classes)


# Every argument the suites pass, and max_len 0, which still draws a length.
BUILDERS = [
    *((verification._rand_letters, _letters, (g, n)) for g in (1, 2, 3) for n in (0, 2, 3, 6, 8)),
    *((verification._rand_ring_spec, _ring_spec, args)
      for g in (1, 2, 3) for args in ((g,), (g, 2, 2))),
    *((verification._rand_map_spec, _map_spec, (g, k)) for g in (1, 2) for k in (0, 1, 2)),
    *((verification._rand_braid_spec, _braid_spec, args)
      for g in (1, 2, 3) for k in (1, 2, 3) for args in ((g, k), (g, k, 3))),
    *((verification._rand_model_spec, _model_spec, (g,)) for g in (1, 2, 3)),
    *((verification._rand_target_spec, _target_spec, (g,)) for g in (0, 1, 2)),
]


@pytest.mark.parametrize("builder, copy, args", BUILDERS,
                         ids=[f"{b.__name__}{a}" for b, _, a in BUILDERS])
def test_case_builder_draws_as_its_choice_and_randrange_form(builder, copy, args):
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert [builder(rng, *args) for _ in range(25)] == [copy(ref, *args) for _ in range(25)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("g", [0, -1])
def test_letters_without_a_generator_are_refused(g):
    # max_len 0 draws no letter; a drawn letter at g < 1 raises as randrange did
    assert verification._rand_letters(random.Random(0), g, 0) == ()
    rng = random.Random(0)
    while True:
        state = rng.getstate()
        try:
            _letters(rng, g, 3)
        except ValueError:
            break
    rng.setstate(state)
    with pytest.raises(ValueError):
        verification._rand_letters(rng, g, 3)
