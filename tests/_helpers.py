"""Builders and oracles shared by the test modules."""
from __future__ import annotations

import random

from pushcalc.errors import SignatureMismatch, SizeMismatch
from pushcalc.monoid import SelfMapClass, compose, identity_map
from pushcalc.pushing import BraidElement, PuncturedSignature, _inverse_perm
from pushcalc.ring import RingElem
from pushcalc.words import FreeEndo, FreeWord, parse_word


def rand_word(rng: random.Random, g: int, max_len: int) -> FreeWord:
    alphabet = [s * i for i in range(1, g + 1) for s in (1, -1)]
    return FreeWord(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


def ring_of(pairs: dict[str, int]) -> RingElem:
    return RingElem([(parse_word(w), c) for w, c in pairs.items()])


def coefficient(r: RingElem, u: FreeWord) -> int:
    """The coefficient of u in r."""
    return r.terms.get(u.letters, 0)


def verify_inverse(h1: SelfMapClass, h2: SelfMapClass) -> bool:
    """True iff h1 and h2 compose to the identity in both orders."""
    if h1.sig != h2.sig:
        raise SignatureMismatch("candidate inverses must share a signature")
    ident = identity_map(h1.sig)
    return compose(h1, h2) == ident and compose(h2, h1) == ident


def assert_revalidates(h: SelfMapClass) -> None:
    """The slow oracle of a class built by the trusted SelfMapClass._wrap:
    the validating constructor accepts its data and gives the same class,
    and its keys are in the dense label order that constructor writes."""
    assert SelfMapClass(h.sig, h.circle_part, dict(h.sphere_part)) == h
    assert list(h.sphere_part) == list(h.sig.labels)


def identity_braid(k: int) -> BraidElement:
    return BraidElement((FreeWord(),) * k, tuple(range(k)))


def braid_inverse(a: BraidElement) -> BraidElement:
    """Two-sided inverse under braid_mul: slot i carries the inverse of
    the word that braid_mul would route into slot i."""
    words = tuple(~a.words[a.perm[i]] for i in range(a.k))
    return BraidElement(words, _inverse_perm(a.perm))


def push_sym(sig: PuncturedSignature, perm: tuple[int, ...]) -> SelfMapClass:
    """Class of the puncture permutation: p_i goes to p_{perm(i)}, rest
    fixed; the permutation half of the letterwise fold of push_braid."""
    if sorted(perm) != list(range(sig.k)):
        raise SizeMismatch(f"perm {perm} is not a permutation of 0..{sig.k - 1}")
    punctures = sig.punctures
    spheres = {lab: {lab: RingElem.one()} for lab in sig.cells}
    for i, j in enumerate(perm):
        spheres[punctures[i]] = {punctures[j]: RingElem.one()}
    return SelfMapClass(sig.wedge, FreeEndo.identity(sig.model.g), spheres)
