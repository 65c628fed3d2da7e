"""Free-group words: canonical reduction, group arithmetic, the word grammar."""
from __future__ import annotations

import random

import pytest

import pushcalc
from pushcalc import words
from pushcalc.embedding import materialize
from pushcalc.errors import ParseError, TooLarge
from pushcalc.monoid import WedgeSignature, identity_map
from pushcalc.pushing import ManifoldModel, _slot_terms
from pushcalc.ring import RingElem, SphereLabel, ring_endo_apply, ring_mul
from pushcalc.words import (
    IDENTITY,
    MAX_WORD_LETTERS,
    FreeEndo,
    FreeWord,
    count_words,
    endo_apply,
    endo_compose,
    enumerate_words,
    format_word,
    parse_word,
    shortlex_key,
)

from _helpers import char_sign, rand_word


def test_reduce_examples():
    assert FreeWord([1, 2, -2, 1]).letters == (1, 1)
    assert FreeWord([1, -1]) == IDENTITY
    assert FreeWord([2, 1, -1, -2]).is_identity
    assert FreeWord([1, 2, 3, -3, -2, -1]).is_identity
    assert FreeWord().letters == ()
    assert FreeWord([3, -1]).letters == (3, -1)


def test_constructor_rejects_bad_letters():
    with pytest.raises(ValueError):
        FreeWord([0])
    with pytest.raises(ValueError):
        FreeWord([1.5])  # type: ignore[list-item]
    with pytest.raises(ValueError, match="^letters must be a sequence, got NoneType$"):
        FreeWord(None)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="^endomorphism images must be a sequence, got int$"):
        FreeEndo(5)  # type: ignore[arg-type]


def test_reduce_idempotent_and_fully_reduced():
    rng = random.Random(101)
    for _ in range(300):
        g = rng.randrange(1, 5)
        raw = [rng.choice([s * i for i in range(1, g + 1) for s in (1, -1)])
               for _ in range(rng.randrange(25))]
        w = FreeWord(raw)
        for a, b in zip(w.letters, w.letters[1:]):
            assert a != -b
        assert FreeWord(w.letters) == w


def test_group_axioms_seeded():
    rng = random.Random(202)
    for _ in range(250):
        g = rng.randrange(1, 5)
        u = rand_word(rng, g, 20)
        v = rand_word(rng, g, 20)
        w = rand_word(rng, g, 20)
        assert (u * v) * w == u * (v * w)
        assert u * IDENTITY == u
        assert IDENTITY * u == u
        assert u * ~u == IDENTITY
        assert ~u * u == IDENTITY
        assert ~(u * v) == ~v * ~u
        assert u * v == FreeWord(u.letters + v.letters)
        assert ~u == FreeWord(-x for x in reversed(u.letters))


def test_char_sign_examples():
    assert char_sign((1, 1), parse_word("a1 A2 a1")) == 1
    assert char_sign((-1, 1), parse_word("a1 a2")) == -1
    assert char_sign((-1, 1), parse_word("a1 a1")) == 1
    assert char_sign((-1,), parse_word("A1")) == -1
    assert char_sign((-1,), IDENTITY) == 1
    with pytest.raises(ValueError):
        char_sign((1,), parse_word("a2"))
    with pytest.raises(ValueError):
        char_sign((0, 1), parse_word("a1"))


def test_char_sign_is_a_homomorphism():
    rng = random.Random(404)
    for _ in range(150):
        g = rng.randrange(1, 5)
        chi = tuple(rng.choice((1, -1)) for _ in range(g))
        u = rand_word(rng, g, 15)
        v = rand_word(rng, g, 15)
        assert char_sign(chi, u * v) == char_sign(chi, u) * char_sign(chi, v)


def test_parse_format_examples():
    assert parse_word("") == IDENTITY
    assert parse_word("e") == IDENTITY
    assert parse_word("a1 A2 a1^2").letters == (1, -2, 1, 1)
    assert parse_word("A1^-2") == parse_word("a1^2")
    assert parse_word("a1^0") == IDENTITY
    assert format_word(IDENTITY) == "e"
    assert format_word(parse_word("a1 a1 a1")) == "a1^3"
    assert format_word(parse_word("A2")) == "A2"
    assert format_word(FreeWord([-1, -1])) == "a1^-2"
    assert format_word(parse_word("a1 a2 A1")) == "a1 a2 A1"


def test_parse_format_round_trip_random():
    rng = random.Random(505)
    for _ in range(300):
        w = rand_word(rng, rng.randrange(1, 5), 20)
        assert parse_word(format_word(w)) == w


def test_parse_word_length_cap():
    n = MAX_WORD_LETTERS
    assert len(parse_word(f"a1^{n}")) == n
    assert len(parse_word(f"a1^{n // 2} A2^{n // 2}")) == n
    # The cap counts letters before reduction, and is checked before listing them.
    for text in (f"a1^{n + 1}", f"a1^{n} A1", f"a2 a1^-{n}", "a1^300000000"):
        with pytest.raises(TooLarge, match=f"more than {n} letters"):
            parse_word(text)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_word("b1")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_word("a1 xx a2")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_word("a0")
    with pytest.raises(ParseError):
        parse_word("a1^")
    with pytest.raises(ParseError):
        parse_word("a-1")
    with pytest.raises(ParseError, match="must be a string, got int"):
        parse_word(1)  # type: ignore[arg-type]


def test_parse_word_digit_caps():
    # No number reaches int()'s own 4,300-digit limit: an index of ten
    # digits or more is a parse error, such an exponent is over the cap.
    assert parse_word("a999999999").letters == (999999999,)
    assert parse_word("a0001^0000000000003").letters == (1, 1, 1)
    for text in ("a1000000000", "A" + "9" * 5000, "a" + "1" * 10 + "^2"):
        with pytest.raises(ParseError, match="bad word token"):
            parse_word(text)
    for text in ("a1^" + "9" * 5000, "a1^-10000000000", "A2^" + "1" * 10):
        with pytest.raises(TooLarge, match="more than 1000 letters"):
            parse_word(text)


def test_enumerate_words_shortlex():
    words = list(enumerate_words(2, 2))
    assert len(words) == 1 + 4 + 12
    assert [format_word(w) for w in words[:6]] == ["e", "a1", "A1", "a2", "A2", "a1^2"]
    keys = [shortlex_key(w) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)
    assert [format_word(w) for w in enumerate_words(1, 2)] == [
        "e", "a1", "A1", "a1^2", "a1^-2",
    ]
    for g in (-1, 1.5, "2", True):
        with pytest.raises(ValueError, match="^rank must be a non-negative int, got "):
            list(enumerate_words(g, 2))
    for max_len in (-1, 1.5, "2", True):
        with pytest.raises(ValueError, match="^max_len must be a non-negative int, got "):
            list(enumerate_words(2, max_len))


def test_count_words_counts_the_enumerated_ball():
    for g in range(4):
        for max_len in range(6):
            n = sum(1 for _ in enumerate_words(g, max_len))
            assert count_words(g, max_len) == n
            assert count_words(g, max_len, cap=n) == n
            assert count_words(g, max_len, cap=n - 1) is None
    # uncapped the count is exact at any length; capped it stops early
    assert count_words(3, 1000) == 1 + 3 * (5**1000 - 1) // 2
    assert count_words(3, 10**18, cap=10**6) is None


def test_unrank_word_decodes_the_enumerated_ball():
    # the sampled kernel sweep draws each slot word by its rank in the ball
    for g in range(1, 4):
        ball = list(enumerate_words(g, 4))
        assert len(ball) == count_words(g, 4)
        assert [words._unrank_word(g, r) for r in range(len(ball))] == ball


def _shortlex_key_by_pairs(u: FreeWord) -> tuple:
    # The key shortlex_key had before it used one int per letter.
    return (len(u.letters), tuple((abs(x), 0 if x > 0 else 1) for x in u.letters))


def test_shortlex_key_orders_like_letter_pairs():
    rng = random.Random(122)
    for g in range(1, 4):
        alphabet = [s * i for i in range(1, g + 1) for s in (1, -1)]
        ws = [FreeWord(rng.choice(alphabet) for _ in range(n))
              for n in range(13) for _ in range(20)]
        by_int = sorted(ws, key=shortlex_key)
        assert [w.letters for w in by_int] == [
            w.letters for w in sorted(ws, key=_shortlex_key_by_pairs)]
        for a, b in zip(by_int, by_int[1:]):
            assert (shortlex_key(a) == shortlex_key(b)) == (a == b)


def test_endomorphisms():
    phi = FreeEndo([parse_word("a1 a2"), parse_word("A1")])
    assert endo_apply(phi, parse_word("a1 a2 A1")) == parse_word("a1 a2 A1 A2 A1")
    assert endo_apply(FreeEndo.identity(3), parse_word("a2 A3")) == parse_word("a2 A3")

    rng = random.Random(606)
    for _ in range(100):
        g = rng.randrange(1, 4)
        phi = FreeEndo([rand_word(rng, g, 4) for _ in range(g)])
        psi = FreeEndo([rand_word(rng, g, 4) for _ in range(g)])
        u = rand_word(rng, g, 10)
        v = rand_word(rng, g, 10)
        assert endo_apply(phi, u * v) == endo_apply(phi, u) * endo_apply(phi, v)
        assert endo_apply(endo_compose(phi, psi), u) == endo_apply(phi, endo_apply(psi, u))

    with pytest.raises(ValueError):
        endo_apply(FreeEndo([parse_word("a1")]), parse_word("a2"))


def test_words_are_hashable_and_interchangeable():
    a = parse_word("a1 a2 A2")
    b = parse_word("a1")
    assert a == b and hash(a) == hash(b)
    assert len({a, b, IDENTITY}) == 2


def test_word_operations_call_the_kernel_binding(monkeypatch):
    # Wrapping a function on words._kernel must see every call (the
    # benchmark tracer counts kernel calls this way), so each operation
    # looks the kernel function up on that binding when it runs.
    assert pushcalc.KERNEL_BACKEND == "pure-python"
    calls: list[str] = []
    for name in ("reduce_letters", "concat", "invert", "substitute"):
        def counted(*args, _fn=getattr(words._kernel, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(words._kernel, name, counted)

    def run(op):
        calls.clear()
        result = op()
        return result, sorted(calls)

    u, v = FreeWord._wrap((1, 2)), FreeWord._wrap((-2, 3))
    assert run(lambda: FreeWord([1, 2, -2])) == (FreeWord._wrap((1,)), ["reduce_letters"])
    assert run(lambda: u * v) == (FreeWord._wrap((1, 3)), ["concat"])
    assert run(lambda: ~u) == (FreeWord._wrap((-2, -1)), ["invert"])
    phi = FreeEndo([FreeWord._wrap((2,)), FreeWord._wrap((1,))])
    assert run(lambda: endo_apply(phi, u)) == (FreeWord._wrap((2, 1)), ["substitute"])
    # the four loops over letter tuples: the ring product and endomorphism,
    # a window's nonzero column, and a crossing with a prefix
    a, b = RingElem._wrap({(1, 2): 1}), RingElem._wrap({(-2, 3): 2})
    assert run(lambda: ring_mul(a, b)) == (RingElem._wrap({(1, 3): 2}), ["concat"])
    assert run(lambda: ring_endo_apply(phi, a)) == (RingElem._wrap({(2, 1): 1}), ["substitute"])
    p1 = (SphereLabel("p", 1), IDENTITY)
    window = identity_map(WedgeSignature(1, [p1[0]]))
    assert run(lambda: materialize(window, 0).entries) == ({(p1, p1): 1}, ["concat", "substitute"])
    prefixed = ManifoldModel(g=1, d=3, character=(1,), crossings=(((1, 1, parse_word("a1")),),))
    assert prefixed._plain_steps is None
    assert run(lambda: _slot_terms(prefixed, (1,))) == ((1, [{(1,): 1}]), ["concat"])
