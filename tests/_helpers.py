"""Builders shared by the test modules."""
from __future__ import annotations

import random

from pushcalc.ring import RingElem
from pushcalc.words import FreeWord, parse_word


def rand_word(rng: random.Random, g: int, max_len: int) -> FreeWord:
    alphabet = [s * i for i in range(1, g + 1) for s in (1, -1)]
    return FreeWord(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


def ring_of(pairs: dict[str, int]) -> RingElem:
    return RingElem([(parse_word(w), c) for w, c in pairs.items()])
