"""Self-map composition checked against the verbatim rank-1 coefficient law."""
from __future__ import annotations

import dataclasses
import random

import pytest

from pushcalc import monoid
from pushcalc.errors import ParseError, SignatureMismatch, TooLarge
from pushcalc.monoid import (
    SelfMapClass,
    WedgeSignature,
    compose,
    format_self_map,
    identity_map,
    self_map_from_json,
    self_map_to_json,
    top_homology_matrix,
)
from pushcalc.ring import RingElem, SphereLabel, ring_mul
from pushcalc.words import FreeEndo, FreeWord, endo_apply, parse_word

from _helpers import assert_revalidates, rand_word, verify_inverse

P1 = SphereLabel("p", 1)
T1 = SphereLabel("t", 1)
T2 = SphereLabel("t", 2)
SIG1 = WedgeSignature(1, (P1, T1))


def alpha_power(n: int) -> FreeWord:
    return parse_word("a1") ** n


def ring_of(exps: dict[int, int]) -> RingElem:
    return RingElem([(alpha_power(e), c) for e, c in exps.items()])


def rank1_map(k: int, p_img: dict[SphereLabel, dict[int, int]],
              t_img: dict[SphereLabel, dict[int, int]]) -> SelfMapClass:
    return SelfMapClass(
        SIG1,
        FreeEndo([alpha_power(k)]),
        {
            P1: {lab: ring_of(e) for lab, e in p_img.items()},
            T1: {lab: ring_of(e) for lab, e in t_img.items()},
        },
    )


def push_alpha() -> SelfMapClass:
    # circle fixed, p -> a1*p, t1 -> t1 + p1
    return rank1_map(1, {P1: {1: 1}}, {P1: {0: 1}, T1: {0: 1}})


def push_alpha_inv() -> SelfMapClass:
    # circle fixed, p -> a1^-1*p, t1 -> t1 - a1^-1*p1
    return rank1_map(1, {P1: {-1: 1}}, {P1: {-1: -1}, T1: {0: 1}})


# --- independent oracle: the rank-1 coefficient formula, transcribed directly ---

def _exps(h: SelfMapClass, b: SphereLabel, l: SphereLabel) -> dict[int, int]:
    """Exponent -> coefficient of the l-component of h's image of b."""
    out: dict[int, int] = {}
    for w, c in h.sphere_part[b].get(l, RingElem.zero()).terms.items():
        assert all(abs(x) == 1 for x in w)
        out[sum(w)] = c
    return out


def _circle_exp(h: SelfMapClass) -> int:
    return sum(h.circle_part.images[0].letters)


def oracle_compose_rank1(outer: SelfMapClass, inner: SelfMapClass) -> SelfMapClass:
    k = _circle_exp(outer)
    kp = _circle_exp(inner)
    m, n = _exps(outer, P1, P1), _exps(outer, P1, T1)
    r, s = _exps(outer, T1, P1), _exps(outer, T1, T1)
    mp, np_ = _exps(inner, P1, P1), _exps(inner, P1, T1)
    rp, sp = _exps(inner, T1, P1), _exps(inner, T1, T1)

    def cross(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, ai in a.items():
            for j, bj in b.items():
                e = i + j * k
                out[e] = out.get(e, 0) + ai * bj
        return out

    def add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    return rank1_map(
        k * kp,
        {P1: add(cross(m, mp), cross(r, np_)), T1: add(cross(n, mp), cross(s, np_))},
        {P1: add(cross(m, rp), cross(r, sp)), T1: add(cross(n, rp), cross(s, sp))},
    )


def rand_exps(rng: random.Random) -> dict[int, int]:
    out: dict[int, int] = {}
    for _ in range(rng.randrange(4)):
        out[rng.randrange(-3, 4)] = rng.randrange(-3, 4)
    return {e: c for e, c in out.items() if c}


def rand_rank1_map(rng: random.Random) -> SelfMapClass:
    return rank1_map(
        rng.randrange(-2, 3),
        {P1: rand_exps(rng), T1: rand_exps(rng)},
        {P1: rand_exps(rng), T1: rand_exps(rng)},
    )


def rand_ring(rng: random.Random, g: int) -> RingElem:
    return RingElem(
        [(rand_word(rng, g, 4), rng.randrange(-3, 4)) for _ in range(rng.randrange(4))]
    )


def rand_map(rng: random.Random, sig: WedgeSignature) -> SelfMapClass:
    endo = FreeEndo([rand_word(rng, sig.g, 4) for _ in range(sig.g)])
    spheres = {
        b: {l: rand_ring(rng, sig.g) for l in sig.labels}
        for b in sig.labels
    }
    return SelfMapClass(sig, endo, spheres)


def test_signature_validation():
    assert WedgeSignature(1, (T1, P1)).labels == (P1, T1)
    with pytest.raises(ValueError):
        WedgeSignature(-1, (P1,))
    with pytest.raises(ValueError):
        WedgeSignature(1, (P1,), d=2)
    with pytest.raises(ValueError):
        WedgeSignature(1, (P1, P1))
    # bool is an int subclass; JSON true must not read as g = 1 or d = 1
    with pytest.raises(ValueError):
        WedgeSignature(True, (P1, T1))
    with pytest.raises(ValueError):
        WedgeSignature(1, (P1, T1), d=True)
    with pytest.raises(ValueError, match="^labels must be a sequence, got NoneType$"):
        WedgeSignature(1, None)


def test_signature_label_set_is_not_a_field():
    sig = WedgeSignature(2, (T2, P1, T1), 4)
    assert sig.label_set == frozenset((P1, T1, T2))
    assert [f.name for f in dataclasses.fields(sig)] == ["g", "labels", "d"]
    assert repr(sig) == (
        "WedgeSignature(g=2, labels=(SphereLabel(kind='p', index=1), "
        "SphereLabel(kind='t', index=1), SphereLabel(kind='t', index=2)), d=4)"
    )
    twin = WedgeSignature(2, (P1, T1, T2), 4)
    assert twin == sig and hash(twin) == hash(sig)
    assert sig != WedgeSignature(2, (P1, T1), 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sig.g = 3


def test_duplicate_label_message():
    msg = (
        "duplicate sphere labels in (SphereLabel(kind='p', index=1), "
        "SphereLabel(kind='p', index=1), SphereLabel(kind='t', index=1))"
    )
    with pytest.raises(ValueError) as info:
        WedgeSignature(1, (T1, P1, SphereLabel("p", 1)))
    assert str(info.value) == msg
    # each label's type is checked before the labels are sorted
    for bad in ("t1", ("t", 1)):
        with pytest.raises(ValueError, match="labels must be SphereLabel"):
            WedgeSignature(1, (T1, bad, P1))


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_rank_check_covers_both_signs(g):
    # Letters g+1 and -(g+1) are each beyond rank g, in a circle image or
    # in a sphere term; letters g and -g are within it.
    sig = WedgeSignature(g, (P1, T1))
    ident = FreeEndo.identity(g)
    for bad in (g + 1, -(g + 1)):
        # The offending letter alone, and after a letter within rank.
        for word in {FreeWord([bad]), FreeWord([g, bad] if g else [bad])}:
            if g:
                images = list(ident.images)
                images[-1] = word
                with pytest.raises(ValueError, match="^circle image .* exceeds rank"):
                    SelfMapClass(sig, FreeEndo(images), {})
            term = {T1: RingElem.from_word(word)}
            with pytest.raises(ValueError, match=r"^image of t1: word .* exceeds rank"):
                SelfMapClass(sig, ident, {T1: term})
    if g:
        for ok in (FreeWord([g]), FreeWord([-g])):
            term = {T1: RingElem.from_word(ok)}
            h = SelfMapClass(sig, FreeEndo([ok] * g), {P1: term})
            assert h.circle_part.images == (ok,) * g and h.sphere_part[P1] == term


def test_self_map_validation():
    with pytest.raises(ValueError):
        SelfMapClass(SIG1, FreeEndo([]), {})
    with pytest.raises(ValueError, match="^signature must be WedgeSignature, got None$"):
        SelfMapClass(None, FreeEndo([parse_word("a1")]), {})
    with pytest.raises(ValueError, match="^circle part must be FreeEndo, got None$"):
        SelfMapClass(SIG1, None, {})
    with pytest.raises(ValueError):
        SelfMapClass(SIG1, FreeEndo([parse_word("a2")]), {})
    with pytest.raises(ValueError):
        SelfMapClass(
            SIG1,
            FreeEndo([parse_word("a1")]),
            {P1: {T2: RingElem.one()}},
        )
    with pytest.raises(ValueError):
        SelfMapClass(
            SIG1,
            FreeEndo([parse_word("a1")]),
            {T2: {P1: RingElem.one()}},
        )
    # missing sphere images densify to zero
    h = SelfMapClass(SIG1, FreeEndo([parse_word("a1")]), {})
    assert not h.sphere_part[P1]


def test_sphere_images_are_checked_and_copied():
    ident = FreeEndo.identity(1)
    one = RingElem.one()
    # A plain tuple equals and hashes like its label, but is not one.
    assert ("p", 1) == P1 and hash(("p", 1)) == hash(P1)
    with pytest.raises(ValueError, match=r"^image of t1 hits unknown label \('p', 1\)$"):
        SelfMapClass(SIG1, ident, {T1: {("p", 1): one}})
    for bad in (1, "a1", parse_word("a1"), {(): 1}):
        with pytest.raises(ValueError, match="^image of p1 has a non-RingElem entry"):
            SelfMapClass(SIG1, ident, {P1: {P1: bad}})
    # A zero entry is dropped, so equality stays structural.
    zero = one - one
    h = SelfMapClass(SIG1, ident, {P1: {P1: one, T1: zero}, T1: {T1: zero}})
    assert h.sphere_part[P1] == {P1: one} and h.sphere_part[T1] == {}
    assert h == SelfMapClass(SIG1, ident, {P1: {P1: one}})
    # The class keeps copies: changing the caller's dicts leaves it alone.
    image = {P1: one}
    spheres = {P1: image, T1: {T1: one}}
    h = SelfMapClass(SIG1, ident, spheres)
    assert h.sphere_part[P1] is not image and h.sphere_part is not spheres
    image[T1] = one
    spheres[T1] = {}
    assert h == identity_map(SIG1)


def test_sphere_part_and_images_must_be_mappings():
    ident = FreeEndo.identity(1)
    for bad in ([(P1, RingElem.one())], 5, None):
        with pytest.raises(ValueError, match=r"^image of p1 must be a mapping, got "):
            SelfMapClass(SIG1, ident, {P1: bad})
    for bad in ([{P1: RingElem.one()}], None):
        with pytest.raises(ValueError, match=r"^sphere part must be a mapping, got "):
            SelfMapClass(SIG1, ident, bad)


def test_identity_map():
    ident = identity_map(SIG1)
    assert ident.circle_part.is_identity
    assert ident.sphere_part[P1] == {P1: RingElem.one()}
    assert ident.sphere_part[T1] == {T1: RingElem.one()}
    assert format_self_map(ident) == "(a1, p1, t1)"

    sig0 = WedgeSignature(0, (P1,))
    assert format_self_map(identity_map(sig0)) == "(-, p1)"

    rng = random.Random(81)
    for _ in range(30):
        h = rand_map(rng, SIG1)
        assert compose(identity_map(SIG1), h) == h
        assert compose(h, identity_map(SIG1)) == h


def test_inverse_pair_composes_to_identity():
    a, b = push_alpha(), push_alpha_inv()
    ident = identity_map(SIG1)
    assert compose(a, b) == ident
    assert compose(b, a) == ident
    assert verify_inverse(a, b)
    assert verify_inverse(ident, ident)
    assert not verify_inverse(a, ident)


def test_iterated_composition_power_formula():
    a = push_alpha()
    acc = a
    for n in range(2, 9):
        acc = compose(acc, a)
        expected = rank1_map(
            1,
            {P1: {n: 1}},
            {P1: {e: 1 for e in range(n)}, T1: {0: 1}},
        )
        assert acc == expected


def test_compose_matches_rank1_oracle():
    rng = random.Random(82)
    for _ in range(200):
        outer = rand_rank1_map(rng)
        inner = rand_rank1_map(rng)
        assert compose(outer, inner) == oracle_compose_rank1(outer, inner)


def test_associativity_random():
    rng = random.Random(83)
    sig2 = WedgeSignature(2, (P1, T1, T2))
    for sig in (SIG1, sig2):
        for _ in range(60):
            a, b, c = (rand_map(rng, sig) for _ in range(3))
            assert compose(a, compose(b, c)) == compose(compose(a, b), c)


def test_compose_output_passes_revalidation():
    # compose builds its class with the trusted SelfMapClass._wrap; the
    # validating constructor must accept every composite it returns.
    rng = random.Random(86)
    for sig in (SIG1, WedgeSignature(2, (P1, T1, T2)), WedgeSignature(2, ())):
        for _ in range(40):
            a, b = rand_map(rng, sig), rand_map(rng, sig)
            for h in (compose(a, b), compose(b, a), compose(identity_map(sig), a)):
                assert_revalidates(h)


def test_compose_functorialities():
    rng = random.Random(84)
    sig2 = WedgeSignature(2, (P1, T1, T2))
    for _ in range(60):
        a, b = rand_map(rng, sig2), rand_map(rng, sig2)
        ab = compose(a, b)
        assert ab.circle_part == FreeEndo(
            [endo_apply(a.circle_part, w) for w in b.circle_part.images]
        )
        ma, mb = top_homology_matrix(a), top_homology_matrix(b)
        prod = [
            [sum(ma[i][k] * mb[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert top_homology_matrix(ab) == prod


def test_top_homology_examples():
    assert top_homology_matrix(push_alpha()) == [[1, 1], [0, 1]]
    assert top_homology_matrix(push_alpha_inv()) == [[1, -1], [0, 1]]
    assert top_homology_matrix(identity_map(SIG1)) == [[1, 0], [0, 1]]


def test_signature_mismatch():
    other = identity_map(WedgeSignature(1, (P1, T1), d=4))
    with pytest.raises(SignatureMismatch):
        compose(identity_map(SIG1), other)
    with pytest.raises(SignatureMismatch):
        verify_inverse(identity_map(SIG1), other)


def test_compose_letter_cap(monkeypatch):
    # outer sends a1 to a1^3.  inner's circle image a1^2 and its support
    # word A1^4 on p1 substitute to 3*2 + 3*4 = 18 letters; e adds none.
    outer = rank1_map(3, {P1: {0: 1}}, {T1: {0: 1}})
    inner = rank1_map(2, {P1: {-4: 1, 0: 1}}, {T1: {0: 1}})
    want = compose(outer, inner)
    monkeypatch.setattr(monoid, "MAX_COMPOSE_LETTERS", 18)
    assert compose(outer, inner) == want
    monkeypatch.setattr(monoid, "MAX_COMPOSE_LETTERS", 17)
    with pytest.raises(TooLarge, match="up to 18 letters"):
        compose(outer, inner)


def test_compose_product_cap(monkeypatch):
    # outer sends a1 to a1^3 and holds e + a1^2 at p1 and e at t1.  inner's
    # p1 image A1^4 + e moves to 12 + 0 letters, its t1 image e to none:
    # 2 * (2 + 2) + 12 * 2 at p1, plus 1 * (1 + 0) + 0 * 1 at t1, is 33.
    outer = rank1_map(3, {P1: {0: 1, 2: 1}}, {T1: {0: 1}})
    inner = rank1_map(2, {P1: {-4: 1, 0: 1}}, {T1: {0: 1}})
    want = compose(outer, inner)
    monkeypatch.setattr(monoid, "MAX_COMPOSE_LETTERS", 33)
    assert compose(outer, inner) == want
    monkeypatch.setattr(monoid, "MAX_COMPOSE_LETTERS", 32)
    with pytest.raises(TooLarge, match="up to 33 letters and words"):
        compose(outer, inner)


def test_product_bound_covers_the_ring_products(monkeypatch):
    # Every ring product compose forms writes one word per term pair; the
    # bound counts one per pair plus both factors' letters.
    written = [0]

    def counting_mul(a, b):
        out = ring_mul(a, b)
        written[0] += sum(1 + len(FreeWord(u + v)) for u in a.terms for v in b.terms)
        return out

    monkeypatch.setattr(monoid, "ring_mul", counting_mul)
    rng = random.Random(31)
    sig2 = WedgeSignature(2, (P1, T1, T2))
    tight = 0
    for _ in range(200):
        sig = sig2 if rng.random() < 0.5 else SIG1
        outer, inner = rand_map(rng, sig), rand_map(rng, sig)
        written[0] = 0
        compose(outer, inner)
        _, bound = monoid._compose_letters(outer, inner)
        assert written[0] <= bound
        tight += written[0] == bound
    assert tight >= 5


def test_conjugation_preserves_invertibility():
    sig2 = WedgeSignature(2, (P1, T1, T2))
    swap = SelfMapClass(
        sig2,
        FreeEndo([parse_word("a2"), parse_word("a1")]),
        {P1: {P1: RingElem.one()}, T1: {T2: RingElem.one()}, T2: {T1: RingElem.one()}},
    )
    shift = SelfMapClass(
        sig2,
        FreeEndo.identity(2),
        {
            P1: {P1: RingElem.from_word(parse_word("a1"))},
            T1: {T1: RingElem.one()},
            T2: {T2: RingElem.one()},
        },
    )
    shift_inv = SelfMapClass(
        sig2,
        FreeEndo.identity(2),
        {
            P1: {P1: RingElem.from_word(parse_word("A1"))},
            T1: {T1: RingElem.one()},
            T2: {T2: RingElem.one()},
        },
    )
    assert verify_inverse(swap, swap)
    assert verify_inverse(shift, shift_inv)
    h = compose(swap, shift)
    h_inv = compose(shift_inv, swap)
    assert verify_inverse(h, h_inv)
    conj = compose(compose(shift, h), shift_inv)
    conj_inv = compose(compose(shift, h_inv), shift_inv)
    assert verify_inverse(conj, conj_inv)


def test_self_map_json_round_trip():
    a = push_alpha()
    js = self_map_to_json(a)
    assert js["g"] == 1 and js["d"] == 3
    assert js["labels"] == ["p1", "t1"]
    assert js["circles"] == ["a1"]
    assert js["spheres"]["t1"] == {"p1": [[1, "e"]], "t1": [[1, "e"]]}
    assert self_map_from_json(js) == a

    rng = random.Random(85)
    sig2 = WedgeSignature(2, (P1, T1, T2))
    for _ in range(25):
        h = rand_map(rng, sig2)
        assert self_map_from_json(self_map_to_json(h)) == h


def test_self_map_json_long_word_is_too_large():
    js = self_map_to_json(push_alpha())
    js["circles"] = ["a1^300000000"]
    with pytest.raises(TooLarge):
        self_map_from_json(js)


def test_self_map_json_errors():
    good = self_map_to_json(identity_map(SIG1))
    for obj, message in (([], "^self-map must be a JSON object, got list$"),
                         (None, "^self-map must be a JSON object, got NoneType$")):
        with pytest.raises(ParseError, match=message):
            self_map_from_json(obj)
    for key in good:
        with pytest.raises(ParseError, match=rf"^self-map is missing keys: \['{key}'\]$"):
            self_map_from_json({k: v for k, v in good.items() if k != key})
    # a value of the wrong JSON shape, each refused by its own check
    for key, value, message in (
        ("labels", "p1 t1", "^self-map 'labels' and 'circles' must be arrays$"),
        ("circles", {"a1": 1}, "^self-map 'labels' and 'circles' must be arrays$"),
        ("spheres", [], "^self-map 'spheres' must be an object$"),
        ("spheres", dict(good["spheres"], p01={}), "^duplicate sphere image for label p1$"),
        # the constructors' refusals arrive as ParseError with their messages
        ("labels", ["p1", "p1", "t1"], "^duplicate sphere labels in "),
        ("circles", ["a1", "a1"], "^circle part has rank 2, signature needs 1$"),
        ("d", 2, "^sphere dimension must be an int >= 3, got 2$"),
    ):
        with pytest.raises(ParseError, match=message) as info:
            self_map_from_json(dict(good, **{key: value}))
        assert type(info.value) is ParseError
