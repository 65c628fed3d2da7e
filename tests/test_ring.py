"""Group-ring arithmetic checked against a naive independent oracle."""
from __future__ import annotations

import copy
import pickle
import random

import pytest

from pushcalc.errors import ParseError
from pushcalc.ring import (
    RingElem,
    SphereLabel,
    augment,
    format_ring,
    format_vec,
    parse_label,
    ring_endo_apply,
    ring_from_json,
    ring_mul,
    ring_to_json,
    vec_from_json,
    vec_to_json,
)
from pushcalc.words import IDENTITY, FreeEndo, FreeWord, parse_word


# --- independent oracle: repeated-scan reduction, dict convolution ---

def oracle_reduce(seq) -> tuple[int, ...]:
    s = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(s) - 1):
            if s[i] == -s[i + 1]:
                del s[i:i + 2]
                changed = True
                break
    return tuple(s)


def oracle_mul(a: RingElem, b: RingElem) -> dict[tuple[int, ...], int]:
    acc: dict[tuple[int, ...], int] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            w = oracle_reduce(u + v)
            acc[w] = acc.get(w, 0) + cu * cv
    return {w: c for w, c in acc.items() if c}


def rand_ring(rng: random.Random, g: int, max_terms: int, max_len: int) -> RingElem:
    alphabet = [s * i for i in range(1, g + 1) for s in (1, -1)]
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        w = FreeWord(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))
        terms.append((w, rng.randrange(-4, 5)))
    return RingElem(terms)


def test_construction_prunes_zeros():
    a = RingElem([(parse_word("a1"), 2), (parse_word("a1"), -2), (IDENTITY, 3)])
    assert a == RingElem.from_word(IDENTITY, 3)
    assert not RingElem.from_word(IDENTITY, 0)
    assert not RingElem.zero()
    assert not RingElem.from_word(parse_word("a1"), 0)
    with pytest.raises(ValueError):
        RingElem([("a1", 1)])  # type: ignore[list-item]


def test_product_examples():
    one = RingElem.one()
    al = RingElem.from_word(parse_word("a1"))
    assert ring_mul(one + al, one - al) == one - RingElem.from_word(parse_word("a1^2"))
    a2 = RingElem.from_word(parse_word("a2"))
    assert ring_mul(al, a2) != ring_mul(a2, al)
    assert ring_mul(al, RingElem.from_word(parse_word("A1"))) == one


def test_ring_axioms_seeded():
    rng = random.Random(72)
    one = RingElem.one()
    for _ in range(120):
        g = rng.randrange(1, 4)
        a = rand_ring(rng, g, 6, 6)
        b = rand_ring(rng, g, 6, 6)
        c = rand_ring(rng, g, 6, 6)
        assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
        assert ring_mul(a, b + c) == ring_mul(a, b) + ring_mul(a, c)
        assert ring_mul(a + b, c) == ring_mul(a, c) + ring_mul(b, c)
        assert ring_mul(one, a) == a
        assert ring_mul(a, one) == a
        assert a + (-a) == RingElem.zero()
        assert a - b == a + (-b)
        assert 3 * a == a + a + a
        assert a * -1 == -a


def test_ring_mul_matches_oracle():
    rng = random.Random(73)
    for _ in range(300):
        g = rng.randrange(1, 4)
        a = rand_ring(rng, g, 6, 6)
        b = rand_ring(rng, g, 6, 6)
        assert ring_mul(a, b).terms == oracle_mul(a, b)


def _is_letter_tuple(key) -> bool:
    return type(key) is tuple and all(type(x) is int and x for x in key)


def test_terms_are_keyed_by_letter_tuples():
    assert RingElem.from_word(parse_word("a1 A2"), 3).terms == {(1, -2): 3}
    assert RingElem([(parse_word("a1 A1"), 2)]).terms == {(): 2}
    assert RingElem.one().terms == {(): 1}
    rng = random.Random(76)
    phi = FreeEndo([parse_word("a2 a1"), parse_word("A1")])
    for _ in range(50):
        a, b = rand_ring(rng, 2, 4, 4), rand_ring(rng, 2, 4, 4)
        for r in (a, a + b, a - b, 3 * a, ring_mul(a, b), ring_endo_apply(phi, a),
                  ring_from_json(ring_to_json(b))):
            assert all(map(_is_letter_tuple, r.terms))
        # the word-facing API gives words
        assert all(isinstance(w, FreeWord) for w, _ in a.items_shortlex())


def test_endo_apply_on_ring():
    collapse = FreeEndo([IDENTITY])
    a1 = RingElem.from_word(parse_word("a1"))
    inv = RingElem.from_word(parse_word("A1"))
    assert ring_endo_apply(collapse, a1 + inv) == RingElem.from_word(IDENTITY, 2)
    assert not ring_endo_apply(collapse, a1 - RingElem.one())

    rng = random.Random(74)
    for _ in range(100):
        g = rng.randrange(1, 4)
        alphabet = [s * i for i in range(1, g + 1) for s in (1, -1)]
        phi = FreeEndo(
            [FreeWord(rng.choice(alphabet) for _ in range(rng.randrange(4)))
             for _ in range(g)]
        )
        a = rand_ring(rng, g, 5, 5)
        b = rand_ring(rng, g, 5, 5)
        assert ring_endo_apply(phi, ring_mul(a, b)) == ring_mul(
            ring_endo_apply(phi, a), ring_endo_apply(phi, b)
        )
        assert ring_endo_apply(phi, a + b) == ring_endo_apply(phi, a) + ring_endo_apply(phi, b)


def test_augment_is_a_ring_homomorphism():
    conj = RingElem.one() - RingElem.from_word(parse_word("a1 a2 A1"))
    assert augment(conj) == 0

    rng = random.Random(75)
    for _ in range(150):
        g = rng.randrange(1, 4)
        a = rand_ring(rng, g, 6, 6)
        b = rand_ring(rng, g, 6, 6)
        assert augment(a + b) == augment(a) + augment(b)
        assert augment(ring_mul(a, b)) == augment(a) * augment(b)
    assert augment(RingElem.one()) == 1


def test_ring_json_round_trip():
    one = RingElem.one()
    al = RingElem.from_word(parse_word("a1"))
    sq = ring_mul(one + al, one + al)
    js = ring_to_json(sq)
    assert js == [[1, "e"], [2, "a1"], [1, "a1^2"]]
    assert ring_from_json(js) == sq
    assert ring_to_json(RingElem.zero()) == []

    rng = random.Random(76)
    for _ in range(100):
        a = rand_ring(rng, rng.randrange(1, 4), 6, 6)
        assert ring_from_json(ring_to_json(a)) == a

    for bad in ("x", [[1]], [["1", "a1"]], [[True, "a1"]], [[1, 7]]):
        with pytest.raises(ParseError):
            ring_from_json(bad)


def test_format_ring():
    one = RingElem.one()
    al = RingElem.from_word(parse_word("a1"))
    assert format_ring(RingElem.zero()) == "0"
    assert format_ring(one + 2 * al) == "1 + 2 a1"
    assert format_ring(-one + al) == "-1 + a1"
    assert format_ring(one - RingElem.from_word(parse_word("a1 a2 A1"))) == "1 - a1 a2 A1"


def test_sphere_labels():
    p1, p2, t0, t1 = (
        SphereLabel("p", 1), SphereLabel("p", 2), SphereLabel("t", 0), SphereLabel("t", 1),
    )
    assert sorted([t1, p2, t0, p1]) == [p1, p2, t0, t1]
    assert str(p2) == "p2" and str(t0) == "t0"
    assert parse_label("p2") == p2
    assert parse_label("t0") == t0
    for bad in ("x1", "p0", "p", "t-1", "P1", "p1000000000", "t" + "9" * 5000, 1, None):
        with pytest.raises(ParseError):
            parse_label(bad)
    assert parse_label("p000999999999") == SphereLabel("p", 999999999)
    with pytest.raises(ValueError):
        SphereLabel("q", 1)
    with pytest.raises(ValueError):
        SphereLabel("p", 0)


@pytest.mark.parametrize("index", [True, False, 1.5, 1.0, "x", None, (1,)])
def test_sphere_label_rejects_non_int_index(index):
    with pytest.raises(ValueError, match=r"^label index must be an int, got "):
        SphereLabel("p", index)
    with pytest.raises(ValueError, match=r"^label index must be an int, got "):
        SphereLabel("t", index)


def test_sphere_label_hash_and_equality():
    p1 = SphereLabel("p", 1)
    assert p1 == SphereLabel("p", 1) and hash(p1) == hash(SphereLabel("p", 1))
    assert p1 != SphereLabel("t", 1) and p1 != SphereLabel("p", 2)
    assert (p1.kind, p1.index) == ("p", 1)
    # A label is the tuple (kind, index), so it equals the plain pair.
    assert p1 == ("p", 1) and hash(p1) == hash(("p", 1))
    assert {p1: 1}[SphereLabel("p", 1)] == 1
    assert len({SphereLabel("t", 0), SphereLabel("t", 0), SphereLabel("p", 1)}) == 2
    with pytest.raises(AttributeError):
        p1.kind = "t"
    with pytest.raises(AttributeError):
        p1.extra = 1


def test_sphere_label_text_forms():
    # repr is byte for byte the repr of the earlier frozen-dataclass form,
    # which error messages print inside tuples of labels.
    assert repr(SphereLabel("p", 1)) == "SphereLabel(kind='p', index=1)"
    assert repr(SphereLabel("t", 0)) == "SphereLabel(kind='t', index=0)"
    assert repr((SphereLabel("p", 12), SphereLabel("t", 3))) == (
        "(SphereLabel(kind='p', index=12), SphereLabel(kind='t', index=3))"
    )
    assert str(SphereLabel("p", 12)) == "p12"
    assert f"{SphereLabel('t', 3)}" == "t3"


def test_sphere_label_copy_and_pickle():
    labels = [SphereLabel("p", 1), SphereLabel("t", 0), SphereLabel("t", 7)]
    for lab in labels:
        for clone in (copy.copy(lab), copy.deepcopy(lab),
                      pickle.loads(pickle.dumps(lab)),
                      pickle.loads(pickle.dumps(lab, protocol=0))):
            assert type(clone) is SphereLabel
            assert clone == lab and clone.kind == lab.kind and clone.index == lab.index
    vec = {labels[0]: RingElem.one(), labels[2]: RingElem.from_word(IDENTITY, 3)}
    assert copy.deepcopy(vec) == vec
    assert pickle.loads(pickle.dumps(vec)) == vec


def test_format_vec():
    p1 = SphereLabel("p", 1)
    t1 = SphereLabel("t", 1)
    one = RingElem.one()
    al = RingElem.from_word(parse_word("a1"))
    v = {t1: one, p1: one}
    assert format_vec(v) == "p1 + t1"
    assert format_vec(v, lead=t1) == "t1 + p1"
    assert format_vec({p1: al}) == "a1·p1"
    assert format_vec({p1: one + al}) == "(1 + a1)·p1"
    assert format_vec({t1: one, p1: -al}, lead=t1) == "t1 - a1·p1"
    assert format_vec({p1: 2 * al}) == "2·a1·p1"
    assert format_vec({}) == "0"


def test_module_vec_json_round_trip():
    p1 = SphereLabel("p", 1)
    t1 = SphereLabel("t", 1)
    v = {t1: RingElem.one(), p1: RingElem.from_word(parse_word("a1"))}
    js = vec_to_json(v)
    assert js == {"p1": [[1, "a1"]], "t1": [[1, "e"]]}
    assert vec_from_json(js) == v
    with pytest.raises(ParseError):
        vec_from_json([1, 2])
    with pytest.raises(ParseError):
        vec_from_json({"zz": []})


def test_vec_from_json_adds_keys_naming_one_label():
    p1 = SphereLabel("p", 1)
    t1 = SphereLabel("t", 1)
    v = vec_from_json({"p1": [[1, "a1"]], "p01": [[2, "e"], [1, "a1"]]})
    assert v == {p1: RingElem([(parse_word("a1"), 2), (IDENTITY, 2)])}
    assert all(type(lab) is SphereLabel for lab in v)
    # A sum that cancels leaves no entry, so the dict compares structurally.
    v = vec_from_json({"t1": [[1, "e"]], "p1": [[1, "a1"]], "p001": [[-1, "a1"]]})
    assert v == {t1: RingElem.one()}
    assert vec_from_json({"p1": [[0, "a1"]]}) == {}
