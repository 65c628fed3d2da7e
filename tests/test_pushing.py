"""Point-push classes: letter rules, closed forms, braids, recovery, kernel."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from pushcalc.errors import (
    NotInImage,
    ParseError,
    SignatureMismatch,
    SizeMismatch,
    SlotOutOfRange,
    TooLarge,
    _STORES,
)
from pushcalc.monoid import (
    SelfMapClass,
    WedgeSignature,
    compose,
    identity_map,
    self_map_from_json,
    self_map_to_json,
)
from pushcalc.pushing import (
    MAX_MODEL_SIZE,
    BraidElement,
    ManifoldModel,
    PuncturedSignature,
    _accumulated_terms,
    _cached_wedge,
    _slot_terms,
    braid_mul,
    format_braid,
    format_perm,
    kernel_report,
    parse_braid,
    parse_perm,
    push_braid,
    push_letter,
    push_word,
    push_word_closed,
    recover_braid,
)
from pushcalc.ring import RingElem, SphereLabel
from pushcalc.words import FreeEndo, FreeWord, IDENTITY, parse_word

from _helpers import (
    assert_revalidates,
    braid_inverse,
    char_sign,
    identity_braid,
    push_sym,
    rand_word,
    ring_of,
    verify_inverse,
)

SIG11 = PuncturedSignature(ManifoldModel.default(1), 1)
SIG21 = PuncturedSignature(ManifoldModel.default(2), 1)
SIG22 = PuncturedSignature(ManifoldModel.default(2), 2)


def vec_of(entries: dict[str, dict[str, int]]) -> dict[SphereLabel, RingElem]:
    from pushcalc.ring import parse_label

    return {parse_label(lab): ring_of(r) for lab, r in entries.items()}


def map_of(sig: PuncturedSignature, spheres: dict[str, dict[str, dict[str, int]]]) -> SelfMapClass:
    from pushcalc.ring import parse_label

    return SelfMapClass(
        sig.wedge,
        FreeEndo.identity(sig.model.g),
        {parse_label(lab): vec_of(v) for lab, v in spheres.items()},
    )


def rand_braid(rng: random.Random, g: int, k: int, max_len: int) -> BraidElement:
    words = tuple(rand_word(rng, g, max_len) for _ in range(k))
    perm = tuple(rng.sample(range(k), k))
    return BraidElement(words, perm)


def test_base_letter_values():
    up = push_letter(SIG11, 1, 1)
    assert up == map_of(
        SIG11,
        {"p1": {"p1": {"a1": 1}}, "t1": {"t1": {"e": 1}, "p1": {"e": 1}}},
    )
    down = push_letter(SIG11, -1, 1)
    assert down == map_of(
        SIG11,
        {"p1": {"p1": {"A1": 1}}, "t1": {"t1": {"e": 1}, "p1": {"A1": -1}}},
    )
    assert verify_inverse(up, down)
    assert push_word(SIG11, parse_word("a1"), 1) == up
    assert push_word(SIG11, parse_word("A1"), 1) == down


def test_letter_other_slot_example():
    h = push_letter(SIG22, 1, 2)
    assert h == map_of(
        SIG22,
        {
            "p1": {"p1": {"e": 1}},
            "p2": {"p2": {"a1": 1}},
            "t1": {"t1": {"e": 1}, "p2": {"e": 1}},
            "t2": {"t2": {"e": 1}},
        },
    )


def test_letter_validation():
    with pytest.raises(SlotOutOfRange):
        push_letter(SIG11, 1, 2)
    with pytest.raises(SlotOutOfRange):
        push_letter(SIG11, 1, 0)
    with pytest.raises(SlotOutOfRange):
        push_letter(PuncturedSignature(ManifoldModel.default(1), 0), 1, 1)
    with pytest.raises(ValueError):
        push_letter(SIG11, 2, 1)
    with pytest.raises(ValueError):
        push_letter(SIG11, 0, 1)
    # a letter that is not an int is refused before abs() is taken of it
    for bad in ("a1", None):
        with pytest.raises(ValueError, match="bad letter"):
            push_letter(SIG11, bad, 1)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="^word a1 A2 exceeds rank 1$"):
        push_word(SIG11, parse_word("a1 A2"), 1)


def test_word_power_formula():
    for n in range(1, 9):
        h = push_word(SIG11, parse_word(f"a1^{n}"), 1)
        assert h == map_of(
            SIG11,
            {
                "p1": {"p1": {f"a1^{n}" if n > 1 else "a1": 1}},
                "t1": {"t1": {"e": 1}, "p1": {("e" if e == 0 else f"a1^{e}" if e > 1 else "a1"): 1 for e in range(n)}},
            },
        )


def test_word_conjugate_value_both_routes():
    w = parse_word("a1 a2 A1")
    expected = map_of(
        SIG21,
        {
            "p1": {"p1": {"a1 a2 A1": 1}},
            "t1": {"t1": {"e": 1}, "p1": {"e": 1, "a1 a2 A1": -1}},
            "t2": {"t2": {"e": 1}, "p1": {"a1": 1}},
        },
    )
    assert push_word(SIG21, w, 1) == expected
    assert push_word_closed(SIG21, w, 1) == expected


def test_empty_word_is_identity():
    assert push_word(SIG11, IDENTITY, 1) == identity_map(SIG11.wedge)
    assert push_word_closed(SIG11, IDENTITY, 1) == identity_map(SIG11.wedge)


def test_closed_equals_composed_random():
    rng = random.Random(111)
    for _ in range(150):
        g = rng.randrange(1, 4)
        k = rng.randrange(1, 3)
        sig = PuncturedSignature(ManifoldModel.default(g), k)
        slot = rng.randrange(1, k + 1)
        w = rand_word(rng, g, 12)
        assert push_word(sig, w, slot) == push_word_closed(sig, w, slot)


def test_closed_equals_composed_exhaustive_short():
    from pushcalc.words import enumerate_words

    for w in enumerate_words(2, 3):
        assert push_word(SIG21, w, 1) == push_word_closed(SIG21, w, 1)


def slot_coefficients(model: ManifoldModel, w: FreeWord) -> tuple[int, list[RingElem]]:
    sign, terms = _slot_terms(model, w.letters)
    return sign, [RingElem([(FreeWord(u), n) for u, n in f.items()]) for f in terms]


NON_ORIENTABLE = ManifoldModel(
    g=1,
    d=3,
    character=(-1,),
    crossings=(((1, 1, IDENTITY),),),
)


def test_slot_terms_examples():
    model = ManifoldModel.default(2)
    assert slot_coefficients(model, parse_word("a1^2")) == (
        1, [ring_of({"e": 1, "a1": 1}), RingElem.zero()])
    assert slot_coefficients(model, parse_word("a1 a2 A1")) == (
        1, [ring_of({"e": 1, "a1 a2 A1": -1}), ring_of({"a1": 1})])
    assert slot_coefficients(model, parse_word("A1")) == (
        1, [ring_of({"A1": -1}), RingElem.zero()])
    assert slot_coefficients(model, parse_word("a2")) == (
        1, [RingElem.zero(), ring_of({"e": 1})])
    assert slot_coefficients(model, IDENTITY) == (1, [RingElem.zero()] * 2)
    # An inverse letter carries its own character: F(A1) = -c(A1)*A1.
    assert slot_coefficients(NON_ORIENTABLE, parse_word("A1")) == (-1, [ring_of({"A1": 1})])
    assert slot_coefficients(NON_ORIENTABLE, parse_word("a1 A1")) == (1, [RingElem.zero()])
    assert slot_coefficients(NON_ORIENTABLE, parse_word("a1^2")) == (
        1, [ring_of({"e": 1, "a1": -1})])


def test_slot_terms_cocycle():
    # The twisted law F(uv) = F(u) + c(u)*u*F(v), with c multiplicative,
    # on random crossing data and characters; the translate is a ring product.
    rng = random.Random(112)
    for sig, _ in random_model_cases():
        model = sig.model
        n = 10 if model.g else 0
        u, v = rand_word(rng, model.g, n), rand_word(rng, model.g, n)
        cu, fu = slot_coefficients(model, u)
        cv, fv = slot_coefficients(model, v)
        cuv, fuv = slot_coefficients(model, u * v)
        assert cuv == cu * cv == char_sign(model.character, u * v)
        for left, a, b in zip(fuv, fu, fv):
            assert left == a + RingElem.from_word(u, cu) * b


def test_slot_terms_reassembles_word():
    # On the default model a_i at position n adds the n-letter prefix to
    # F_i and A_i adds minus the prefix through it; prefixes of a reduced
    # word never cancel, so the cells' terms give back the word.
    rng = random.Random(303)
    for _ in range(200):
        g = rng.randrange(1, 5)
        u = rand_word(rng, g, 20)
        _, terms = _slot_terms(ManifoldModel.default(g), u.letters)
        placed = sorted(
            (len(prefix), i) if n == 1 else (len(prefix) - 1, -i)
            for i, f in enumerate(terms, start=1)
            for prefix, n in f.items()
        )
        assert tuple(letter for _, letter in placed) == u.letters


def rand_plain_model(rng: random.Random, g: int) -> ManifoldModel:
    """Loop i crosses cell cells[i-1] once with an empty prefix: permuted
    cells, random signs and a random character."""
    cells = rng.sample(range(1, g + 1), g)
    return ManifoldModel(
        g=g,
        d=3,
        character=tuple(rng.choice((1, -1)) for _ in range(g)),
        crossings=tuple(((c, rng.choice((1, -1)), IDENTITY),) for c in cells),
    )


def rand_reduced_letters(rng: random.Random, g: int, n: int) -> tuple[int, ...]:
    """A reduced word of exactly n letters over rank g >= 1."""
    letters: list[int] = []
    while len(letters) < n:
        x = rng.choice((1, -1)) * rng.randint(1, g)
        if not letters or letters[-1] != -x:
            letters.append(x)
    return tuple(letters)


def test_plain_terms_match_the_accumulating_loop():
    # On a plain model _slot_terms writes each term once; the accumulating
    # loop, which adds and cancels, is the oracle.
    rng = random.Random(131)
    for _ in range(600):
        g = rng.randint(1, 5)
        model = rand_plain_model(rng, g)
        assert model._plain_steps is not None
        letters = rand_reduced_letters(rng, g, rng.randint(0, 25))
        assert _slot_terms(model, letters) == _accumulated_terms(model, letters)
    assert ManifoldModel.default(0)._plain_steps == {}
    assert _slot_terms(ManifoldModel.default(0), ()) == (1, [])


def test_models_that_are_not_plain():
    e, a1 = IDENTITY, parse_word("a1")
    # Loops 1 and 2 both cross cell 1: in A1 a2 the two terms are both the
    # prefix A1, with opposite signs, and cancel, so terms can collide.
    shared = ManifoldModel(g=2, d=3, character=(1, 1),
                           crossings=(((1, 1, e),), ((1, 1, e),)))
    assert shared._plain_steps is None
    assert _slot_terms(shared, (-1, 2)) == (1, [{}, {}])
    assert _slot_terms(shared, (-1, 2)) == _accumulated_terms(shared, (-1, 2))
    for crossings in (
        (((1, 1, e), (2, -1, e)), ((2, 1, e),)),   # two crossings on loop 1
        (((1, 1, e),), ((2, 1, a1),)),             # a non-empty prefix
        (((1, 1, e),), ()),                        # loop 2 crosses no cell
    ):
        model = ManifoldModel(g=2, d=3, character=(1, -1), crossings=crossings)
        assert model._plain_steps is None, crossings
    assert ManifoldModel.default(3)._plain_steps is not None


def test_push_word_inverse_law():
    rng = random.Random(113)
    for _ in range(60):
        g = rng.randrange(1, 4)
        sig = PuncturedSignature(ManifoldModel.default(g), 1)
        w = rand_word(rng, g, 8)
        assert verify_inverse(push_word(sig, w, 1), push_word(sig, ~w, 1))


def test_push_sym():
    assert push_sym(SIG22, (0, 1)) == identity_map(SIG22.wedge)
    swap = push_sym(SIG22, (1, 0))
    assert swap.sphere_part[SphereLabel("p", 1)] == {SphereLabel("p", 2): RingElem.one()}
    assert swap.sphere_part[SphereLabel("p", 2)] == {SphereLabel("p", 1): RingElem.one()}
    assert compose(swap, swap) == identity_map(SIG22.wedge)

    rng = random.Random(114)
    sig = PuncturedSignature(ManifoldModel.default(1), 5)
    for _ in range(60):
        s = tuple(rng.sample(range(5), 5))
        r = tuple(rng.sample(range(5), 5))
        sr = tuple(s[r[i]] for i in range(5))
        assert compose(push_sym(sig, s), push_sym(sig, r)) == push_sym(sig, sr)
    with pytest.raises(SizeMismatch):
        push_sym(SIG22, (0, 0))


def test_braid_mul_examples():
    al = parse_word("a1")
    swap_only = BraidElement((IDENTITY, IDENTITY), (1, 0))
    word_only = BraidElement((al, IDENTITY), (0, 1))
    prod = braid_mul(swap_only, word_only)
    assert prod == BraidElement((IDENTITY, al), (1, 0))

    a = BraidElement((al, IDENTITY), (0, 1))
    b = BraidElement((IDENTITY, parse_word("a2")), (0, 1))
    assert braid_mul(a, b) == BraidElement((al, parse_word("a2")), (0, 1))

    s = BraidElement((IDENTITY,) * 3, (1, 2, 0))
    r = BraidElement((IDENTITY,) * 3, (1, 0, 2))
    sr = braid_mul(s, r)
    assert sr.perm == tuple(s.perm[r.perm[i]] for i in range(3))
    assert all(w.is_identity for w in sr.words)

    with pytest.raises(SizeMismatch):
        braid_mul(swap_only, BraidElement((IDENTITY,), (0,)))


def test_braid_group_axioms():
    rng = random.Random(115)
    for _ in range(100):
        k = rng.randrange(1, 4)
        g = rng.randrange(1, 3)
        a, b, c = (rand_braid(rng, g, k, 5) for _ in range(3))
        assert braid_mul(braid_mul(a, b), c) == braid_mul(a, braid_mul(b, c))
        e = identity_braid(k)
        assert braid_mul(a, e) == a
        assert braid_mul(e, a) == a
        assert braid_mul(a, braid_inverse(a)) == e
        assert braid_mul(braid_inverse(a), a) == e


def test_push_braid_examples():
    assert push_braid(SIG22, identity_braid(2)) == identity_map(SIG22.wedge)
    al = parse_word("a1")
    single = push_braid(SIG11, BraidElement((al,), (0,)))
    assert single == push_word(SIG11, al, 1)
    with pytest.raises(SizeMismatch):
        push_braid(SIG22, identity_braid(3))


def _push_braid_by_fold(sig: PuncturedSignature, braid: BraidElement) -> SelfMapClass:
    # The construction push_braid had before its closed form: push_word
    # folds composed around the permutation push, slot 1 outermost.
    acc = push_sym(sig, braid.perm)
    for slot in range(sig.k, 0, -1):
        w = braid.words[slot - 1]
        if not w.is_identity:
            acc = compose(push_word(sig, w, slot), acc)
    return acc


def rand_model(rng: random.Random, g: int) -> ManifoldModel:
    """Random crossing data: rows of 0-3 crossings with random cells,
    signs and prefixes of up to 3 letters, and a random character."""
    return ManifoldModel(
        g=g,
        d=3,
        character=tuple(rng.choice((1, -1)) for _ in range(g)),
        crossings=tuple(
            tuple(
                (rng.randint(1, g), rng.choice((1, -1)), rand_word(rng, g, 3))
                for _ in range(rng.randrange(4))
            )
            for _ in range(g)
        ),
    )


def random_model_cases():
    """The 200 seeded (signature, braid) cases on random and default models."""
    rng = random.Random(120)
    for _ in range(200):
        g = rng.randrange(0, 4)
        k = rng.randrange(0, 5)
        model = rand_model(rng, g) if rng.random() < 0.8 else ManifoldModel.default(g)
        sig = PuncturedSignature(model, k)
        yield sig, rand_braid(rng, g, k, 8) if g else identity_braid(k)


def test_push_braid_terms_are_letter_tuples():
    for sig, braid in random_model_cases():
        h = push_braid(sig, braid)
        for vec in h.sphere_part.values():
            for r in vec.values():
                assert all(type(key) is tuple and all(type(x) is int for x in key)
                           for key in r.terms)


def test_push_braid_matches_fold_on_random_models():
    seen = {"empty row": 0, "repeated cell": 0, "prefix": 0, "non-orientable": 0,
            "plain": 0}
    for sig, braid in random_model_cases():
        model = sig.model
        seen["plain"] += model._plain_steps is not None
        seen["empty row"] += any(not row for row in model.crossings)
        seen["repeated cell"] += any(
            len({c for c, _, _ in row}) < len(row) for row in model.crossings
        )
        seen["prefix"] += any(
            not prefix.is_identity for row in model.crossings for _, _, prefix in row
        )
        seen["non-orientable"] += -1 in model.character
        assert push_braid(sig, braid) == _push_braid_by_fold(sig, braid)
    assert min(seen.values()) >= 20, seen


def test_push_braid_output_passes_revalidation(monkeypatch):
    # push_braid builds its class with the trusted SelfMapClass._wrap; the
    # validating constructor must accept every class it returns, on
    # crossing data with prefixes, repeated cells and non-orientable loops.
    for sig, braid in random_model_cases():
        h = push_braid(sig, braid)
        assert h.sig is sig.wedge
        assert_revalidates(h)
    # A push that follows a write into an earlier push's terms.
    for _, _, _, again in _pushes_after_a_write():
        assert_revalidates(again)
    import pushcalc.pushing as pushing
    checked = []

    def revalidated(sig, braid):
        h = push_braid(sig, braid)
        assert_revalidates(h)
        checked.append(braid)
        return h

    monkeypatch.setattr(pushing, "push_braid", revalidated)
    model = ManifoldModel(g=2, d=3, character=(1, -1), crossings=(
        ((2, -1, parse_word("a2")), (1, 1, IDENTITY)), ((2, 1, parse_word("A1")),)))
    for sig in (SIG22, PuncturedSignature(model, 3)):
        checked.clear()
        assert kernel_report(sig, 3, 200, seed=7).passed
        assert len(checked) == 200


def test_recovered_braids_and_products_pass_revalidation():
    # recover_braid and braid_mul build their braids with the trusted
    # BraidElement._wrap; the checked constructor must accept every one,
    # recovered from the model's last-push record or walked afresh.
    rng = random.Random(121)
    seen = {"plain": 0, "not plain": 0, "non-orientable": 0, "k = 4": 0}
    for sig, braid in random_model_cases():
        model, k = sig.model, sig.k
        seen["plain" if model._plain_steps is not None else "not plain"] += 1
        seen["non-orientable"] += -1 in model.character
        seen["k = 4"] += k == 4
        other = rand_braid(rng, model.g, k, 8) if model.g else identity_braid(k)
        product = braid_mul(braid, other)
        fresh = PuncturedSignature(dataclasses.replace(model), k)   # an empty record
        recovered = recover_braid(sig, push_braid(sig, braid))
        walked = recover_braid(fresh, push_braid(sig, product))
        assert (recovered, walked) == (braid, product)
        for b in (product, recovered, walked):
            again = BraidElement(b.words, b.perm)
            assert again == b and hash(again) == hash(b)
    assert all(seen.values()), seen


def test_push_braid_shares_the_identity_circle_part(monkeypatch):
    sig = PuncturedSignature(ManifoldModel.default(2), 3)
    braids = [parse_braid(t) for t in
              ("[a1 A2 | a2^2 | e ; (1 3 2)]", "[e | e | e ; id]", "[A1 | a1 a2 | A2 ; (1 2)]")]
    first = push_braid(sig, braids[0])
    built = []
    original = FreeEndo._wrap

    def counted(cls, letters):
        built.append(letters)
        return original(letters)

    monkeypatch.setattr(FreeEndo, "_wrap", classmethod(counted))
    FreeEndo([])
    assert len(built) == 1   # the counter works
    built.clear()
    for b in braids:
        assert push_braid(sig, b).circle_part is first.circle_part
    assert built == []
    assert first.circle_part is identity_map(sig.wedge).circle_part
    assert first.circle_part == FreeEndo.identity(2)


# g = 1, non-orientable, one crossing read after a1: not a plain model,
# so _slot_terms runs _accumulated_terms on it.
TWISTED = ManifoldModel(g=1, d=3, character=(-1,), crossings=(((1, 1, parse_word("a1")),),))


# Loop 1 crosses cell 1 twice with opposite signs and equal prefixes, so the
# two gains of push_letter cancel, and push_letter drops the zero itself
# before it builds its class with SelfMapClass._wrap.
CANCELLING = ManifoldModel(1, 3, (1,), (((1, 1, IDENTITY), (1, -1, FreeWord((-1, 1)))),))


def test_push_word_is_the_fold_from_the_identity():
    # push_word starts its fold at the first letter's class; the oracle is
    # the fold that starts at the identity class, on words of 0, 1 and more
    # letters, on plain, non-plain, non-orientable and cancelling models.
    rng = random.Random(122)
    models = [ManifoldModel.default(2), TWISTED, CANCELLING,
              dataclasses.replace(CANCELLING, character=(-1,)),
              *(rand_model(rng, 3) for _ in range(4))]
    for model in models:
        sig = PuncturedSignature(model, 2)
        words = [IDENTITY, FreeWord([1]), FreeWord([-1]), FreeWord([1, 1]),
                 *(rand_word(rng, model.g, 6) for _ in range(12))]
        for w, slot in itertools.product(words, (1, 2)):
            oracle = functools.reduce(
                compose, [push_letter(sig, x, slot) for x in w.letters], identity_map(sig.wedge))
            assert push_word(sig, w, slot) == oracle


def test_push_letter_output_passes_revalidation():
    # push_letter builds its class with the trusted SelfMapClass._wrap; the
    # validating constructor must accept it and give the same class, with
    # no zero entry left where two gains cancel, for both letter signs.
    rng = random.Random(123)
    models = [ManifoldModel.default(2), TWISTED, CANCELLING,
              dataclasses.replace(CANCELLING, character=(-1,)),
              *(rand_model(rng, 3) for _ in range(20))]
    cancelled = 0
    for model in models:
        sig = PuncturedSignature(model, 2)
        for i, sign, slot in itertools.product(range(1, model.g + 1), (1, -1), (1, 2)):
            h = push_letter(sig, sign * i, slot)
            assert SelfMapClass(h.sig, h.circle_part, h.sphere_part) == h
            assert_revalidates(h)
            assert all(r for vec in h.sphere_part.values() for r in vec.values())
            cancelled += any(sig.punctures[slot - 1] not in h.sphere_part[sig.cells[cell - 1]]
                             for cell, _, _ in model.crossings[i - 1])
    assert cancelled >= 8   # the CANCELLING models, for each sign and slot


def test_push_braid_errors():
    words = (parse_word("a2"), parse_word("a3"))
    # The rank is checked as each slot word is walked, on the plain path
    # and on the general one; slots are walked from k down to 1, so slot 2
    # is reported.
    for model in (ManifoldModel.default(1), TWISTED):
        sig = PuncturedSignature(model, 2)
        with pytest.raises(ValueError, match=r"^word a3 exceeds rank 1$"):
            push_braid(sig, BraidElement(words, (1, 0)))
        with pytest.raises(ValueError, match=r"^word a3 exceeds rank 1$"):
            push_word_closed(sig, words[1], 2)
        with pytest.raises(SizeMismatch, match=r"^braid has 3 slots, signature has 2$"):
            push_braid(sig, identity_braid(3))


def _pushes_after_a_write():
    """(sig, h, before, again): h = push_braid(sig, b) with one cell term
    doubled in place after `before`, a copy of h, was read off it, and
    `again` a second push_braid(sig, b)."""
    for model, text in ((ManifoldModel.default(2), "[a1 A2 a1 | a2 A1 ; (1 2)]"),
                        (TWISTED, "[a1 a1 | A1 ; (1 2)]")):
        sig = PuncturedSignature(model, 2)
        b = parse_braid(text)
        h = push_braid(sig, b)
        before = self_map_from_json(self_map_to_json(h))
        terms = h.sphere_part[sig.cells[0]][sig.punctures[0]].terms
        u = min(terms)
        terms[u] *= 2
        yield sig, h, before, push_braid(sig, b)


def test_push_braid_keeps_its_record_private():
    # push_braid keeps each slot word's cocycle for recover_braid and the
    # next push; a write into the class it returned reaches neither.
    for sig, h, before, again in _pushes_after_a_write():
        assert h != before
        with pytest.raises(NotInImage, match="^cell images do not match the decoded braid$"):
            recover_braid(sig, h)
        assert again == before


def test_recover_braid_after_other_pushes(monkeypatch):
    texts = ("[a1 | a2 A1 | e ; id]", "[a1 | a1 a1 | A2 ; (1 2 3)]",
             "[a2 A1 | a1 | a2 ; (1 3)]")
    twisted = ManifoldModel(g=2, d=3, character=(1, -1), crossings=(
        ((2, -1, parse_word("a2")), (1, 1, IDENTITY)), ((2, 1, parse_word("A1")),)))
    for model in (ManifoldModel.default(2), twisted):
        sig = PuncturedSignature(model, 3)
        a, b, c = (parse_braid(t) for t in texts)
        ha, hb, hc = (push_braid(sig, x) for x in (a, b, c))
        # c's words are the model's last push; a and b share only some.
        for h, braid in ((hc, c), (ha, a), (hb, b)):
            assert recover_braid(sig, h) == braid
        # A class read from JSON, which no push on this model preceded.
        d = parse_braid("[A2 A1 | a2 a2 | a1 A2 ; (2 3)]")
        other = PuncturedSignature(dataclasses.replace(model), 3)
        read = self_map_from_json(self_map_to_json(push_braid(other, d)))
        assert recover_braid(sig, read) == d

    # A round trip walks each distinct slot word once.
    import pushcalc.pushing as pushing
    walked = []
    slot_terms = pushing._slot_terms

    def counted(model, letters):
        walked.append(letters)
        return slot_terms(model, letters)

    monkeypatch.setattr(pushing, "_slot_terms", counted)
    sig = PuncturedSignature(ManifoldModel.default(2), 4)
    b = parse_braid("[a1 A2 | a2 | a1 A2 | e ; (1 2)(3 4)]")
    assert recover_braid(sig, push_braid(sig, b)) == b
    assert sorted(walked) == sorted({w.letters for w in b.words})
    walked.clear()
    assert recover_braid(sig, push_braid(sig, b)) == b
    assert walked == []


def test_push_braid_homomorphism():
    rng = random.Random(116)
    for sig, a in random_model_cases():
        g = sig.model.g
        b = rand_braid(rng, g, sig.k, 4) if g else identity_braid(sig.k)
        for x, y in ((a, b), (b, a), (a, braid_inverse(a))):
            assert push_braid(sig, braid_mul(x, y)) == compose(
                push_braid(sig, x), push_braid(sig, y)
            ), (sig, x, y)


def test_recover_round_trip():
    rng = random.Random(118)
    for _ in range(80):
        g = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        sig = PuncturedSignature(ManifoldModel.default(g), k)
        braid = rand_braid(rng, g, k, 8)
        assert recover_braid(sig, push_braid(sig, braid)) == braid
    assert recover_braid(SIG22, identity_map(SIG22.wedge)) == identity_braid(2)


def test_recover_rejections():
    doubled = map_of(
        SIG11,
        {"p1": {"p1": {"e": 2}}, "t1": {"t1": {"e": 1}}},
    )
    with pytest.raises(NotInImage, match="coefficient"):
        recover_braid(SIG11, doubled)

    two_terms = map_of(
        SIG11,
        {"p1": {"p1": {"e": 1, "a1": 1}}, "t1": {"t1": {"e": 1}}},
    )
    with pytest.raises(NotInImage):
        recover_braid(SIG11, two_terms)

    onto_cell = map_of(
        SIG11,
        {"p1": {"t1": {"e": 1}}, "t1": {"t1": {"e": 1}}},
    )
    with pytest.raises(NotInImage):
        recover_braid(SIG11, onto_cell)

    bad_cells = map_of(
        SIG11,
        {"p1": {"p1": {"a1": 1}}, "t1": {"t1": {"e": 1}, "p1": {"a1": 7}}},
    )
    with pytest.raises(NotInImage, match="decoded"):
        recover_braid(SIG11, bad_cells)

    twisted = SelfMapClass(
        SIG11.wedge,
        FreeEndo([parse_word("a1^2")]),
        {
            SphereLabel("p", 1): {SphereLabel("p", 1): RingElem.one()},
            SphereLabel("t", 1): {SphereLabel("t", 1): RingElem.one()},
        },
    )
    with pytest.raises(NotInImage):
        recover_braid(SIG11, twisted)

    collide = map_of(
        SIG22,
        {
            "p1": {"p1": {"e": 1}},
            "p2": {"p1": {"e": 1}},
            "t1": {"t1": {"e": 1}},
            "t2": {"t2": {"e": 1}},
        },
    )
    with pytest.raises(NotInImage):
        recover_braid(SIG22, collide)

    with pytest.raises(SignatureMismatch):
        recover_braid(SIG11, identity_map(SIG22.wedge))


def _recover_braid_by_round_trip(sig: PuncturedSignature, h: SelfMapClass):
    # recover_braid as it was before its confirmation ran on letter tuples:
    # decode the puncture images, then compare a full push_braid with h.
    if h.sig != sig.wedge:
        raise SignatureMismatch("class does not live on this punctured model")
    if not h.circle_part.is_identity:
        raise NotInImage("circle part is not the identity")
    k = sig.k
    perm: list = [None] * k
    words: list = [None] * k
    for i, p_i in enumerate(sig.wedge.labels[:k], 1):
        vec = h.sphere_part[p_i]
        if len(vec) != 1:
            raise NotInImage(f"image of p{i} is not a single basis term")
        (lab, r), = vec.items()
        if lab.kind != "p":
            raise NotInImage(f"image of p{i} lands on {lab}")
        if len(r.terms) != 1:
            raise NotInImage(f"image of p{i} has {len(r.terms)} group terms")
        (u, c), = r.items_shortlex()
        sign = char_sign(sig.model.character, u)
        if c != sign:
            raise NotInImage(
                f"image of p{i} has coefficient {c}, expected the orientation sign {sign}")
        j = lab.index
        if words[j - 1] is not None:
            raise NotInImage(f"two puncture spheres land on p{j}")
        perm[i - 1] = j - 1
        words[j - 1] = u
    candidate = BraidElement(tuple(words), tuple(perm))
    if push_braid(sig, candidate) != h:
        raise NotInImage("cell images do not match the decoded braid")
    return candidate


def _corruptions(rng: random.Random, sig: PuncturedSignature, h: SelfMapClass):
    """(kind, map) pairs, each h plus one seeded change to one sphere image."""
    g, k = sig.model.g, sig.k
    punctures, cells = sig.wedge.labels[:k], sig.wedge.labels[k:]

    def plus(lab, target, word, n):
        spheres = dict(h.sphere_part)
        image = spheres[lab] = dict(spheres[lab])
        image[target] = image.get(target, RingElem.zero()) + RingElem.from_word(word, n)
        return SelfMapClass(h.sig, h.circle_part, spheres)

    for cell in cells:
        entries = h.sphere_part[cell]
        hit = [lab for lab in entries if lab != cell]
        if hit:
            lab = rng.choice(hit)
            u, n = rng.choice(sorted(entries[lab].terms.items()))
            u = FreeWord(u)
            yield "changed term", plus(cell, lab, u, rng.choice((1, -1, 2)))
            yield "removed term", plus(cell, lab, u, -n)
        if punctures:
            lab = rng.choice(punctures)
            yield "added term", plus(cell, lab, rand_word(rng, g, 4), rng.choice((1, -1)))
        yield "own coefficient", plus(cell, cell, rng.choice((IDENTITY, rand_word(rng, g, 2))),
                                      rng.choice((1, -1, -2)))
        missing = [lab for lab in sig.wedge.labels if lab not in entries]
        if missing:
            yield "extra label", plus(cell, rng.choice(missing), rand_word(rng, g, 3), 1)
    if punctures:
        p = rng.choice(punctures)
        (lab, r), = h.sphere_part[p].items()
        (u, n), = r.items_shortlex()
        yield "puncture sign", plus(p, lab, u, -2 * n)


def _recovered_or_reason(recover, sig: PuncturedSignature, h: SelfMapClass):
    # The braid recover decodes, or the reason of its NotInImage.
    try:
        return recover(sig, h)
    except NotInImage as exc:
        return str(exc)


def test_recover_matches_round_trip_oracle(monkeypatch):
    rng = random.Random(121)
    maps = []
    for sig, braid in random_model_cases():
        h = push_braid(sig, braid)
        maps.append(("valid", sig, h))
        maps.extend((kind, sig, bad) for kind, bad in _corruptions(rng, sig, h))
    built = []
    init = SelfMapClass.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SelfMapClass, "__init__", counted)
    got = [_recovered_or_reason(recover_braid, sig, h) for _, sig, h in maps]
    monkeypatch.undo()
    assert built == []   # the confirmation builds no class
    seen: dict[str, int] = {}
    for (kind, sig, h), res in zip(maps, got):
        assert res == _recovered_or_reason(_recover_braid_by_round_trip, sig, h), (kind, sig, h)
        # Only the valid pushes decode: a corruption leaves no braid.
        assert isinstance(res, BraidElement) == (kind == "valid"), (kind, res)
        seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) == 7 and min(seen.values()) >= 20, seen


def test_non_default_model_guards():
    # No entry point is kept to the default model.  The closed form agrees
    # with the fold on every slot of the random-model cases ...
    slots = 0
    for sig, braid in random_model_cases():
        for slot, w in enumerate(braid.words, start=1):
            assert push_word_closed(sig, w, slot) == push_word(sig, w, slot), (sig, w)
            slots += 1
    assert slots >= 300, slots
    # ... and kernel searches on custom models are exhaustive and trivial.
    searches = 0
    for sig, _ in random_model_cases():
        if sig.k <= 2 and sig.model != ManifoldModel.default(sig.model.g):
            rep = kernel_report(sig, 1, 100)
            assert rep.exhaustive and rep.passed, sig
            searches += 1
    assert searches >= 40, searches
    custom = ManifoldModel(
        g=1,
        d=3,
        character=(1,),
        crossings=(((1, 1, parse_word("a1")),),),
    )
    sig = PuncturedSignature(custom, 1)
    assert push_word_closed(sig, parse_word("a1"), 1) == push_word(sig, parse_word("a1"), 1)
    braid = BraidElement((parse_word("a1 a1"),), (0,))
    assert recover_braid(sig, push_braid(sig, braid)) == braid
    rep = kernel_report(sig, 2, 100)
    assert (rep.exhaustive, rep.total_checked, rep.nontrivial_kernel) == (True, 5, ())


def test_custom_crossing_letter_rules():
    # Loop 1 crosses cell 1 positively with empty prefix, then cell 2
    # negatively after reading a2.
    model = ManifoldModel(
        g=2,
        d=3,
        character=(1, 1),
        crossings=(
            ((1, 1, IDENTITY), (2, -1, parse_word("a2"))),
            ((2, 1, IDENTITY),),
        ),
    )
    sig = PuncturedSignature(model, 1)
    h = push_letter(sig, 1, 1)
    assert h.sphere_part[SphereLabel("t", 1)] == vec_of({"t1": {"e": 1}, "p1": {"e": 1}})
    assert h.sphere_part[SphereLabel("t", 2)] == vec_of({"t2": {"e": 1}, "p1": {"a2": -1}})
    hinv = push_letter(sig, -1, 1)
    assert hinv.sphere_part[SphereLabel("t", 2)] == vec_of(
        {"t2": {"e": 1}, "p1": {"A1 a2": 1}}
    )
    # The two letter pushes are inverse with custom crossing data, for any
    # orientation character (test_non_orientable_letter_push).
    assert verify_inverse(h, hinv)


def test_non_orientable_letter_push():
    sig = PuncturedSignature(NON_ORIENTABLE, 1)
    h = push_letter(sig, 1, 1)
    assert h.sphere_part[SphereLabel("p", 1)] == vec_of({"p1": {"a1": -1}})
    assert h.sphere_part[SphereLabel("t", 1)] == vec_of({"t1": {"e": 1}, "p1": {"e": 1}})
    hinv = push_letter(sig, -1, 1)
    assert hinv.sphere_part[SphereLabel("p", 1)] == vec_of({"p1": {"A1": -1}})
    assert hinv.sphere_part[SphereLabel("t", 1)] == vec_of({"t1": {"e": 1}, "p1": {"A1": 1}})
    assert verify_inverse(h, hinv)
    a, ainv = (BraidElement((parse_word(w),), (0,)) for w in ("a1", "A1"))
    assert compose(push_braid(sig, a), push_braid(sig, ainv)) == identity_map(sig.wedge)


def test_kernel_report_exhaustive():
    rep = kernel_report(SIG11, 4, 1000)
    assert rep.exhaustive
    assert rep.total_checked == 9
    assert rep.passed
    assert rep.nontrivial_kernel == ()

    rep0 = kernel_report(PuncturedSignature(ManifoldModel.default(1), 0), 3, 10)
    assert rep0.exhaustive and rep0.total_checked == 1 and rep0.passed


def test_kernel_report_sampled():
    rep = kernel_report(SIG22, 2, 60, seed=5)
    assert not rep.exhaustive
    assert rep.total_checked == 60
    assert rep.passed


def test_kernel_report_samples_like_a_listed_ball(monkeypatch):
    # The sampler draws an index into the ball and unranks it; it must draw
    # the same braids as drawing from the listed ball with rng.choice.
    import pushcalc.pushing as pushing
    from pushcalc.words import enumerate_words

    seen: list[BraidElement] = []
    real = pushing.push_braid

    def recording(sig, braid):
        seen.append(braid)
        return real(sig, braid)

    monkeypatch.setattr(pushing, "push_braid", recording)
    for g, k, max_len, seed in [
        (0, 5, 2, 3), (1, 2, 3, 0), (1, 3, 1, 1), (2, 1, 3, 7),
        (2, 2, 2, 5), (3, 1, 3, 2), (3, 2, 2, 9),
    ]:
        seen.clear()
        rep = kernel_report(PuncturedSignature(ManifoldModel.default(g), k),
                            max_len, 40, seed=seed)
        assert not rep.exhaustive and rep.total_checked == 40 and rep.passed
        ball = list(enumerate_words(g, max_len))
        rng = random.Random(seed)
        listed = []
        for _ in range(40):
            words = tuple(rng.choice(ball) for _ in range(k))
            listed.append(BraidElement(words, tuple(rng.sample(range(k), k))))
        assert seen == listed


def test_perm_parse_format():
    assert parse_perm("(1 2)", 3) == (1, 0, 2)
    assert parse_perm("(1 2 3)", 3) == (1, 2, 0)
    assert parse_perm("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_perm("id", 2) == (0, 1)
    assert format_perm((1, 2, 0)) == "(1 2 3)"
    assert format_perm((0, 1)) == "id"
    assert parse_perm(format_perm((3, 2, 1, 0)), 4) == (3, 2, 1, 0)
    assert parse_perm("(1 2)()", 2) == (1, 0)   # an empty cycle moves nothing
    for bad in ("(1 5)", "(1 1)", "(x)", "1 2"):
        with pytest.raises(ParseError):
            parse_perm(bad, 3)
    # int() reads '1_0' as 10, '+1' as 1 and the fullwidth and Arabic-Indic
    # digits as theirs; the cycle grammar, like the word and label grammars
    # and format_perm, has the digits 0-9 alone
    assert parse_perm("(1 10)", 10) == parse_perm("(01 010)", 10) == (9, *range(1, 9), 0)
    for bad in ("(1 1_0)", "(+1 2)", "(\uff11 2)", "(\u0662 1)", "(-1 2)"):
        with pytest.raises(ParseError, match=r"^bad cycle entry in "):
            parse_perm(bad, 10)


def test_braid_parse_format():
    braid = parse_braid("[a1 A2 | e ; (1 2)]")
    assert braid == BraidElement((parse_word("a1 A2"), IDENTITY), (1, 0))
    assert format_braid(braid) == "[a1 A2 | e ; (1 2)]"

    rng = random.Random(119)
    for _ in range(60):
        b = rand_braid(rng, 2, rng.randrange(1, 5), 5)
        assert parse_braid(format_braid(b)) == b

    with pytest.raises(ParseError):
        parse_braid("a1 | e ; id")
    with pytest.raises(ParseError):
        parse_braid("[a1 | e]")
    assert parse_braid("[ ; id]") == BraidElement((), ())


def test_braid_letter_total_is_capped():
    # MAX_WORD_LETTERS (1,000) caps the reduced slot words together.
    assert sum(map(len, parse_braid("[a1^500 | a2^500 ; id]").words)) == 1000
    # Letters that cancel within a slot do not count.
    assert parse_braid("[a1^400 A1^400 | a2^1000 ; id]").words[0] == IDENTITY
    with pytest.raises(TooLarge, match=r"more than 1000 letters together \(at slot 2\)"):
        parse_braid("[a1^500 | a2^501 ; id]")
    with pytest.raises(TooLarge, match=r"\(at slot 2\)"):
        parse_braid("[" + " | ".join(["a1^1000"] * 40) + " ; id]")
    # Each word alone still meets the per-word cap first.
    with pytest.raises(TooLarge, match=r"^word expands"):
        parse_braid("[a1^1001 | e ; id]")


def test_kernel_word_length_is_capped():
    sig = PuncturedSignature(ManifoldModel.default(3), 1)
    with pytest.raises(TooLarge, match=r"^slot word length bound 1001 is above"):
        kernel_report(sig, 1001, 5)
    with pytest.raises(TooLarge):
        kernel_report(sig, 10**9, 5)
    report = kernel_report(sig, 1000, 5)
    assert (report.exhaustive, report.total_checked, report.passed) == (False, 5, True)


def test_kernel_work_is_capped_before_listing(monkeypatch):
    import pushcalc.pushing as pushing

    def unlisted(g, max_len):
        raise AssertionError("the ball was listed")

    monkeypatch.setattr(pushing, "enumerate_words", unlisted)
    for g, k, max_len, max_braids in [
        (3, 1, 13, 10**12),   # exhaustive: 1,831,054,687 braids
        (1, 19999, 4, 20000),  # 20,000 samples over 20,000 labels each
        (3, 1, 1000, 20000),   # 20,000 samples of 1,000-letter words
        (3, 2, 13, 10**10),
    ]:
        sig = PuncturedSignature(ManifoldModel.default(g), k)
        with pytest.raises(TooLarge, match="kernel sweep"):
            kernel_report(sig, max_len, max_braids)
    monkeypatch.undo()
    # The estimate counts the braids the search checks, not max_braids: an
    # exhaustive search of a small ball answers whatever the bound.
    rep = kernel_report(SIG11, 3, 10**12)
    assert (rep.exhaustive, rep.total_checked, rep.passed) == (True, 7, True)
    # The default 20,000-braid sample with words up to 4 letters stays under
    # the cap at g and k up to 5.
    for g in range(1, 6):
        for k in range(1, 6):
            assert pushing._sweep_work(g, k, 4, 20000) <= pushing.MAX_KERNEL_WORK


def test_wedge_is_built_once():
    sig = PuncturedSignature(ManifoldModel.default(2, 4), 3)
    assert sig.wedge is sig.wedge
    labels = [SphereLabel("p", i) for i in (1, 2, 3)] + [SphereLabel("t", j) for j in (1, 2)]
    assert sig.wedge == WedgeSignature(2, labels, 4)
    # The cache is not a field: equality and hash ignore it.
    fresh = PuncturedSignature(ManifoldModel.default(2, 4), 3)
    assert fresh == sig and hash(fresh) == hash(sig)
    assert [f.name for f in dataclasses.fields(sig)] == ["model", "k"]


def test_model_validation():
    with pytest.raises(ValueError):
        ManifoldModel(g=1, d=2, character=(1,), crossings=(((1, 1, IDENTITY),),))
    with pytest.raises(ValueError):
        ManifoldModel(g=1, d=3, character=(1, 1), crossings=(((1, 1, IDENTITY),),))
    with pytest.raises(ValueError):
        ManifoldModel(g=1, d=3, character=(1,), crossings=(((2, 1, IDENTITY),),))
    with pytest.raises(ValueError):
        ManifoldModel(g=1, d=3, character=(1,), crossings=(((1, 3, IDENTITY),),))
    with pytest.raises(ValueError):
        PuncturedSignature(ManifoldModel.default(1), -1)
    # bool is an int subclass; the model and signature reject it anyway
    with pytest.raises(ValueError, match="loop count"):
        ManifoldModel.default(True)
    # a non-int g is refused before the crossing tuple is built from it
    for bad in ("3", 2.0, None):
        with pytest.raises(ValueError, match="loop count"):
            ManifoldModel.default(bad)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="dimension"):
        ManifoldModel(g=1, d=True, character=(1,), crossings=(((1, 1, IDENTITY),),))
    with pytest.raises(ValueError, match="puncture count"):
        PuncturedSignature(ManifoldModel.default(1), True)
    with pytest.raises(ValueError):
        BraidElement((IDENTITY,), (0, 1))
    with pytest.raises(ValueError):
        BraidElement((IDENTITY, IDENTITY), (0, 0))
    # a field of the wrong shape names the field
    with pytest.raises(ValueError, match="^model must be ManifoldModel, got None$"):
        PuncturedSignature(None, 1)
    with pytest.raises(ValueError, match="^slot words must be a sequence, got NoneType$"):
        BraidElement(None, (0,))
    with pytest.raises(ValueError, match="^perm must be a sequence, got NoneType$"):
        BraidElement((IDENTITY,), None)
    with pytest.raises(ValueError, match="^character must be a sequence, got NoneType$"):
        ManifoldModel(1, 3, None, (((1, 1, IDENTITY),),))
    with pytest.raises(ValueError, match="^each crossing row must be a sequence, got int$"):
        ManifoldModel(1, 3, (1,), (5,))
    with pytest.raises(ValueError, match="^each crossing must be a sequence, got int$"):
        ManifoldModel(1, 3, (1,), ((5,),))
    for crossing in [(1, 1), (1, 1, IDENTITY, 0)]:
        with pytest.raises(ValueError,
                           match=r"^each crossing must be a \(cell, sign, prefix\) triple$"):
            ManifoldModel(1, 3, (1,), ((crossing,),))
    with pytest.raises(ValueError, match="^crossing prefix a2 exceeds rank 1$"):
        ManifoldModel(1, 3, (1,), (((1, 1, parse_word("a2")),),))
    # only a bool opts into the orbit hypotheses; "no" would be true
    for flag in ("no", 1, None):
        with pytest.raises(ValueError, match="^low_handle_dim must be bool, got "):
            ManifoldModel(1, 3, (1,), (((1, 1, IDENTITY),),), flag)
    # sequence fields are stored as tuples, so a model or braid built from
    # lists equals, and hashes like, the one built from tuples
    listed = ManifoldModel(1, 3, [1], [[[1, 1, IDENTITY]]])
    assert listed == ManifoldModel.default(1)
    assert hash(PuncturedSignature(listed, 1)) == hash(SIG11)
    braid = BraidElement([parse_word("a1")], [0])
    assert braid == BraidElement((parse_word("a1"),), (0,))
    assert hash(braid) == hash(BraidElement((parse_word("a1"),), (0,)))
    assert recover_braid(SIG11, push_braid(SIG11, braid)) == braid


@pytest.mark.parametrize("call, error, match", [
    (lambda: FreeWord([True, 2]), ValueError, "bad letter True"),
    (lambda: RingElem([(parse_word("a1"), True)]), ValueError, "coefficients"),
    (lambda: ManifoldModel(1, 3, (True,), (((1, 1, IDENTITY),),)), ValueError, "character"),
    (lambda: ManifoldModel(1, 3, (1,), (((True, 1, IDENTITY),),)), ValueError, "crossed cell"),
    (lambda: ManifoldModel(1, 3, (1,), (((1, True, IDENTITY),),)), ValueError, "crossing sign"),
    (lambda: push_letter(SIG11, True, 1), ValueError, "letter True"),
    (lambda: push_letter(SIG11, 1, True), SlotOutOfRange, "slot True"),
    (lambda: push_word(SIG11, parse_word("a1"), True), SlotOutOfRange, "slot True"),
    (lambda: BraidElement((IDENTITY, IDENTITY), (True, False)), ValueError,
     "is not a permutation of 0..k-1"),
    (lambda: BraidElement((IDENTITY, IDENTITY), (1.0, 0.0)), ValueError,
     "is not a permutation of 0..k-1"),
], ids=["letter", "coefficient", "character", "cell", "sign", "push-letter",
        "push-letter-slot", "push-word-slot", "braid-perm-bool", "braid-perm-float"])
def test_bool_is_not_an_int(call, error, match):
    # bool is an int subclass, and True == 1 would pass each range check.
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("character, eps, match", [
    ((1.0,), 1, "character signs must be \\+1 or -1, got 1.0"),
    ((-1.0,), 1, "character signs must be \\+1 or -1, got -1.0"),
    ((Fraction(1),), 1, "character signs must be \\+1 or -1, got Fraction"),
    ((1,), -1.0, "crossing sign must be \\+1 or -1, got -1.0"),
    ((1,), Fraction(-1), "crossing sign must be \\+1 or -1, got Fraction"),
], ids=["character-float", "character-negative-float", "character-fraction",
        "sign-float", "sign-fraction"])
def test_signs_must_be_ints(character, eps, match):
    # 1.0 == 1 would pass the range check, and push_word would then print
    # a float coefficient.
    with pytest.raises(ValueError, match=match):
        ManifoldModel(1, 3, character, (((1, eps, IDENTITY),),))


def test_model_size_cap():
    # g + k at the cap is allowed; one more is refused before labels exist
    model = ManifoldModel.default(MAX_MODEL_SIZE - 1)
    assert PuncturedSignature(model, 1).k == 1
    with pytest.raises(TooLarge, match="g \\+ k"):
        PuncturedSignature(model, 2)
    with pytest.raises(TooLarge):
        ManifoldModel.default(MAX_MODEL_SIZE + 1)
    with pytest.raises(TooLarge):
        PuncturedSignature(ManifoldModel.default(0), MAX_MODEL_SIZE + 1)
    # __post_init__ checks a model built field by field, too
    n = MAX_MODEL_SIZE + 1
    with pytest.raises(TooLarge):
        ManifoldModel(g=n, d=3, character=(1,) * n,
                      crossings=tuple(((i, 1, IDENTITY),) for i in range(1, n + 1)))


def test_push_braid_uses_the_wedge_labels():
    # no label is built per call: every key is one of the wedge's own
    sig = PuncturedSignature(ManifoldModel.default(2), 3)
    h = push_braid(sig, parse_braid("[a1 | A2 a1 | e ; (1 3)]"))
    own = {id(lab) for lab in sig.wedge.labels}
    assert {id(lab) for lab in h.sphere_part} == own
    assert {id(lab) for vec in h.sphere_part.values() for lab in vec} <= own


def test_signature_owns_the_label_order():
    for g, k in [(0, 1), (1, 0), (2, 3), (3, 11)]:
        sig = PuncturedSignature(ManifoldModel.default(g), k)
        assert sig.punctures == tuple(SphereLabel("p", i) for i in range(1, k + 1))
        assert sig.cells == tuple(SphereLabel("t", j) for j in range(1, g + 1))
        assert sig.punctures + sig.cells == sig.wedge.labels
        assert sig.punctures is sig.punctures and sig.cells is sig.cells


def test_signatures_of_one_shape_share_their_wedge(cold_stores):
    twisted = ManifoldModel(2, 3, (-1, 1), (((2, 1, parse_word("a1")),), ()))
    a, b = PuncturedSignature(ManifoldModel.default(2), 3), PuncturedSignature(twisted, 3)
    assert a != b
    assert a.wedge is b.wedge and a.punctures is b.punctures and a.cells is b.cells
    assert push_letter(a, 1, 1).circle_part is push_letter(b, -2, 3).circle_part
    assert _cached_wedge.cache_info().currsize == 1
    # another k or d is another shape
    c = PuncturedSignature(ManifoldModel.default(2, d=4), 3)
    d = PuncturedSignature(ManifoldModel.default(2), 2)
    assert c.wedge != a.wedge and d.wedge != a.wedge
    assert _cached_wedge.cache_info().currsize == 3


def test_wedge_cache_is_bounded(cold_stores):
    # g + k = 64 is kept; 65 builds its own wedge each time
    assert _STORES["pushing._cached_wedge"][:2] == (32, 64)
    kept = [PuncturedSignature(ManifoldModel.default(60), 4) for _ in range(2)]
    assert kept[0].wedge is kept[1].wedge
    assert _cached_wedge.cache_info().currsize == 1
    own = [PuncturedSignature(ManifoldModel.default(60), 5) for _ in range(2)]
    assert own[0].wedge == own[1].wedge and own[0].wedge is not own[1].wedge
    assert own[0].punctures is not own[1].punctures
    assert _cached_wedge.cache_info().currsize == 1
    # 40 shapes: only the 32 used last are kept
    shapes = [(g, k) for g in range(5) for k in range(8)]
    assert len(shapes) > 32
    for g, k in shapes:
        PuncturedSignature(ManifoldModel.default(g), k)
        assert _cached_wedge.cache_info().currsize <= 32
    assert _cached_wedge.cache_info().currsize == 32
    misses = _cached_wedge.cache_info().misses
    for g, k in shapes[-32:]:
        PuncturedSignature(ManifoldModel.default(g), k)
    assert _cached_wedge.cache_info().misses == misses


def test_a_signature_over_the_cap_leaves_the_wedge_cache_alone(cold_stores):
    PuncturedSignature(ManifoldModel.default(1), 1)
    before = _cached_wedge.cache_info()
    with pytest.raises(TooLarge) as err:
        PuncturedSignature(ManifoldModel.default(1), 20_000)
    assert str(err.value) == "a punctured model with g + k = 20001 is over the cap 20000"
    assert _cached_wedge.cache_info() == before


def test_pushes_build_no_label_once_the_signature_has_them(monkeypatch):
    sig = PuncturedSignature(ManifoldModel.default(2), 3)
    assert sig.wedge.labels   # the signature built its labels
    b = parse_braid("[a1 A2 | a2^2 | e ; (1 3 2)]")
    built = []
    original = SphereLabel.__new__

    def counted(cls, kind, index):
        built.append((kind, index))
        return original(cls, kind, index)

    monkeypatch.setattr(SphereLabel, "__new__", staticmethod(counted))
    assert SphereLabel("p", 1) == ("p", 1) and built == [("p", 1)]   # the counter works
    built.clear()
    push_letter(sig, 1, 2)
    push_letter(sig, -2, 3)
    push_sym(sig, (2, 0, 1))
    assert recover_braid(sig, push_braid(sig, b)) == b
    assert built == []


def test_reprs_str_and_hash_read_as_documented():
    a1, a2 = parse_word("a1"), parse_word("a2")
    assert repr(RingElem([(a1, 2), (IDENTITY, -1)])) == "RingElem<-1 + 2 a1>"
    endo = FreeEndo([a1 * a2, a2])
    assert repr(endo) == "FreeEndo([a1 a2, a2])"
    assert [repr(FreeEndo(images)) for images in ([], [IDENTITY], [a1 * a1 * ~a2, ~a1])] == [
        "FreeEndo([])", "FreeEndo([e])", "FreeEndo([a1^2 A2, A1])"]
    assert repr(FreeEndo.identity(2)) == "FreeEndo([a1, a2])"
    twin = FreeEndo([parse_word("a1 a2"), parse_word("a2")])
    assert twin == endo and hash(twin) == hash(endo)
    assert repr(push_braid(SIG11, parse_braid("[a1 ; id]"))) == "SelfMapClass(a1, a1·p1, t1 + p1)"
    braid = parse_braid("[a1 | e ; (1 2)]")
    assert str(braid) == format_braid(braid) == "[a1 | e ; (1 2)]"
