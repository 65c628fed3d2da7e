"""Homotopy classes of based self-maps of a wedge of circles and spheres.

A wedge is described by a WedgeSignature: g circles (whose fundamental
group is free of rank g) and a finite labelled family of (d-1)-spheres
with d >= 3, so the degree-(d-1) homotopy of the wedge is the free
group-ring module on the sphere labels.  A SelfMapClass is the complete
homotopy-invariant data of a based self-map: an endomorphism of the free
group plus the image of each basis sphere in the module.

Composition is by substitution: circle parts compose as endomorphisms,
and a sphere term c*(u times basis sphere m) of the inner map lands on
the outer image of m transported by u, i.e. right-multiplied by the
outer circle image of u.  This makes composition over the letters of a
word, taken left to right with the first letter outermost, agree with
the closed forms in pushcalc.pushing.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping

from .errors import (FrozenRecord, LetterBudget, ParseError, SignatureMismatch, TooLarge,
                     as_tuple, check_count, check_dimension, check_type, json_array, json_fields,
                     json_object, parsing)
from .ring import (
    RingElem,
    SphereLabel,
    augment,
    format_vec,
    parse_label,
    ring_endo_apply,
    ring_mul,
    vec_from_json,
    vec_to_json,
)
from .words import FreeEndo, _check_rank, _rank_error, endo_compose, format_word, parse_word


class WedgeSignature(FrozenRecord):
    """g circles and a labelled set of (d-1)-spheres, d >= 3.

    labels is sorted into label order, punctures first.  label_set, the
    same labels as a frozenset, is built once here for the membership
    checks of every SelfMapClass and truncation window on this signature;
    it lives in the instance __dict__, and equality, hash and repr read
    only g, labels and d.
    """

    g: int
    labels: tuple[SphereLabel, ...]
    d: int = 3

    def __init__(self, g: int, labels, d: int = 3) -> None:
        check_count("circle count", g)
        check_dimension("sphere dimension", d)
        labs = as_tuple("labels", labels)
        for lab in labs:
            check_type("labels", lab, SphereLabel)
        labs = tuple(sorted(labs))
        label_set = frozenset(labs)
        if len(label_set) != len(labs):
            raise ValueError(f"duplicate sphere labels in {labs}")
        self._set_fields(g, labs, d, label_set=label_set)

    # Built on first read, as g has no cap here; shared as errors._STORES says.
    @functools.cached_property
    def identity_endo(self) -> FreeEndo:
        return FreeEndo.identity(self.g)


class SelfMapClass:
    """Circle endomorphism plus the module image of every basis sphere.

    sphere_part maps each of the signature's labels, in label order, to its
    image: a dict from the labels it hits to their nonzero RingElem
    coefficients.  The constructor is the one check of an image: the
    sphere part and each image are mappings, every target is a SphereLabel
    of the signature and every coefficient a RingElem within rank g.  It
    copies the caller's dicts, fills a missing label with the zero image {}
    and drops zero coefficients, so == compares the images entry by entry.
    """

    __slots__ = ("sig", "circle_part", "sphere_part")

    def __init__(
        self,
        sig: WedgeSignature,
        circle_part: FreeEndo,
        sphere_part: Mapping[SphereLabel, Mapping[SphereLabel, RingElem]],
    ) -> None:
        check_type("signature", sig, WedgeSignature)
        check_type("circle part", circle_part, FreeEndo)
        g = sig.g
        if circle_part.rank != g:
            raise ValueError(
                f"circle part has rank {circle_part.rank}, signature needs {g}"
            )
        allowed = sig.label_set
        for letters in circle_part._letters:
            _check_rank("circle image", letters, g)
        if not isinstance(sphere_part, Mapping):
            raise ValueError(
                f"sphere part must be a mapping, got {type(sphere_part).__name__}"
            )
        dense: dict[SphereLabel, dict[SphereLabel, RingElem]] = {}
        for lab in sphere_part:
            if lab not in allowed:
                raise ValueError(f"sphere image given for unknown label {lab}")
        for lab in sig.labels:
            image = sphere_part.get(lab, {})
            if not isinstance(image, Mapping):
                raise ValueError(
                    f"image of {lab} must be a mapping, got {type(image).__name__}"
                )
            vec: dict[SphereLabel, RingElem] = {}
            for tgt, r in image.items():
                # A plain tuple equals its label, so membership alone is not enough.
                if not isinstance(tgt, SphereLabel) or tgt not in allowed:
                    raise ValueError(f"image of {lab} hits unknown label {tgt}")
                if not isinstance(r, RingElem):
                    raise ValueError(f"image of {lab} has a non-RingElem entry {r!r}")
                try:
                    for t in r.terms:
                        _check_rank("word", t, g)
                except ValueError:   # the message names the image only when raised
                    raise _rank_error(f"image of {lab}: word", t, g) from None
                if r:
                    vec[tgt] = r
            dense[lab] = vec
        self.sig = sig
        self.circle_part = circle_part
        self.sphere_part = dense

    @classmethod
    def _wrap(
        cls,
        sig: WedgeSignature,
        circle_part: FreeEndo,
        sphere_part: dict[SphereLabel, dict[SphereLabel, RingElem]],
    ) -> "SelfMapClass":
        # Trusted fast path: no check runs.  A caller establishes the class
        # by its own checks and says which in its docstring; the callers,
        # and the test that re-validates each one's output, are listed in
        # tests/test_trusted_constructor.py.
        h = cls.__new__(cls)
        h.sig = sig
        h.circle_part = circle_part
        h.sphere_part = sphere_part
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelfMapClass):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.circle_part == other.circle_part
            and self.sphere_part == other.sphere_part
        )

    def __repr__(self) -> str:
        return f"SelfMapClass{format_self_map(self)}"


def identity_map(sig: WedgeSignature) -> SelfMapClass:
    """The class of the identity map: identity endo, unit sphere images.
    Built with the trusted SelfMapClass._wrap once check_type has passed sig:
    each label maps to itself by the unit, so every image is dense and valid."""
    check_type("signature", sig, WedgeSignature)
    return SelfMapClass._wrap(
        sig, sig.identity_endo, {lab: {lab: RingElem.one()} for lab in sig.labels})


# Terms of the ring unit: a product with it is skipped, not computed.
_UNIT_TERMS = {(): 1}

# Cap on the letters compose may write (_compose_letters), by substitution
# and by its sphere products.  A word is capped at MAX_WORD_LETTERS, but
# substitution multiplies lengths: 60 circles of 1,000 letters composed with
# themselves write 60,000,000 letters and ran 28 s into a MemoryError under
# a 1 GB address-space limit.  At the cap (60 circles of 129 letters)
# `pushcalc compose` takes 0.6 s and 36 MB on a 2-CPU Xeon.  The products
# grow too: a self-map at g = 2 whose p1 image has 2,000 support words,
# composed with itself, takes 4,000,000 term pairs and ran 25 s into a
# MemoryError under the same limit; so did one of only 100 words of 1,000
# letters (10,000 pairs, 20,000,000 letters), so the letters count, not only
# the pairs.  Just under the cap (280 words of 5 letters, or 22 of 1,000)
# `pushcalc compose` takes under 3 s and 100 MB.  The largest user is the
# push_word fold, whose coefficients hold about n^2/2 letters after n
# letters; `push-word` runs it only under --closed-form, as the cross-check,
# and on four 1,000-letter words it counted at most 502,003 per step.  The
# tests, the verify suites and the benchmark workloads count at most 10,003.
MAX_COMPOSE_LETTERS = 1_000_000


def _compose_letters(outer: SelfMapClass, inner: SelfMapClass) -> tuple[int, int]:
    """Letters compose may write: by substitution, and by its ring products.

    One walk over the inner words, each letter counting the length of
    outer's circle image of its generator.  The first total sums that over
    every letter of every inner circle image and sphere coefficient word:
    a bound on the substituted words' letters before free reduction.  The
    second bounds the products: an inner coefficient r at label m, moved
    along outer's circle part, is multiplied by every outer coefficient at
    m, and each pair of an outer term u and a moved term v writes u*v, of
    at most len(u) + len(v) letters (len(v) at most the substituted length
    of v's word); one more per pair counts the word itself.  When outer's
    circle part is the identity, as in every push_word fold step, each
    letter counts 1, so a word counts its length and no letter is walked.
    """
    if outer.circle_part.is_identity:
        length = len
    else:
        lens = [0] * (2 * inner.sig.g + 1)   # index x and -x: the letter's generator
        for i, img in enumerate(outer.circle_part._letters, start=1):
            lens[i] = lens[-i] = len(img)
        length_of = lens.__getitem__

        def length(letters: tuple[int, ...]) -> int:
            return sum(map(length_of, letters))
    outer_terms: dict[SphereLabel, int] = {}
    outer_letters: dict[SphereLabel, int] = {}
    for m, vec in outer.sphere_part.items():
        words = [t for r in vec.values() for t in r.terms]
        outer_terms[m] = len(words)
        outer_letters[m] = sum(map(len, words))
    substituted = sum(map(length, inner.circle_part._letters))
    products = 0
    for vec in inner.sphere_part.values():
        for m, r in vec.items():
            moved = sum(map(length, r.terms))
            substituted += moved
            products += (len(r.terms) * (outer_terms[m] + outer_letters[m])
                         + moved * outer_terms[m])
    return substituted, products


def compose(outer: SelfMapClass, inner: SelfMapClass) -> SelfMapClass:
    """Composite class outer-after-inner.

    Each inner sphere term r*m (r a ring element, m a basis label) is sent
    to the outer image of m right-multiplied by the outer circle image of
    r, and the results are summed in the module.  A composite whose
    substitution or whose ring products would write more than
    MAX_COMPOSE_LETTERS letters (_compose_letters) raises TooLarge before
    any word is built.  An identity outer circle part, which every push
    class has, leaves the inner circle part as it is: endo_compose returns
    it, and the composite shares it; the inner coefficients, already within
    rank g, are then taken as they are.  The result is built with the trusted
    SelfMapClass._wrap: a composite of two validated classes on one
    signature is a valid class.
    """
    if outer.sig != inner.sig:
        raise SignatureMismatch(
            f"cannot compose maps of different wedges: {outer.sig} vs {inner.sig}"
        )
    letters, written = _compose_letters(outer, inner)
    identity = outer.circle_part.is_identity
    # An identity circle part copies the inner words: nothing grows.
    if not identity and letters > MAX_COMPOSE_LETTERS:
        raise TooLarge(
            f"the composite's words would take up to {letters} letters "
            f"before reduction, over the cap {MAX_COMPOSE_LETTERS}"
        )
    if written > MAX_COMPOSE_LETTERS:
        raise TooLarge(
            f"the composite's sphere products would write up to {written} "
            f"letters and words, over the cap {MAX_COMPOSE_LETTERS}"
        )
    circ = endo_compose(outer.circle_part, inner.circle_part)
    spheres: dict[SphereLabel, dict[SphereLabel, RingElem]] = {}
    for b in inner.sig.labels:
        acc: dict[SphereLabel, RingElem] = {}
        for m, r in inner.sphere_part[b].items():
            moved = r if identity else ring_endo_apply(outer.circle_part, r)
            unit = moved.terms == _UNIT_TERMS
            for l, r_out in outer.sphere_part[m].items():
                contrib = r_out if unit else ring_mul(r_out, moved)
                prev = acc.get(l)
                n = contrib if prev is None else prev + contrib
                if n:
                    acc[l] = n
                else:
                    acc.pop(l, None)
        spheres[b] = acc   # nonzero entries on outer's labels
    return SelfMapClass._wrap(outer.sig, circ, spheres)


def top_homology_matrix(h: SelfMapClass) -> list[list[int]]:
    """Integer matrix of the induced map on top homology.

    Rows and columns follow the signature's label order; the (row l,
    column b) entry is the augmentation of the l-component of the image
    of b.  Functorial: the matrix of a composite is the matrix product.
    """
    labels = h.sig.labels
    return [
        [augment(h.sphere_part[b][l]) if l in h.sphere_part[b] else 0 for b in labels]
        for l in labels
    ]


def format_self_map(h: SelfMapClass) -> str:
    """Tuple rendering: circle images, then each sphere image led by its
    own label, e.g. '(a1, a1·p1, t1 + p1)'."""
    parts = [format_word(img) for img in h.circle_part.images]
    if not parts:
        parts = ["-"]
    for lab in h.sig.labels:
        parts.append(format_vec(h.sphere_part[lab], lead=lab))
    return "(" + ", ".join(parts) + ")"


def self_map_to_json(h: SelfMapClass) -> dict:
    return {
        "g": h.sig.g,
        "d": h.sig.d,
        "labels": [str(lab) for lab in h.sig.labels],
        "circles": [format_word(img) for img in h.circle_part.images],
        "spheres": {str(lab): vec_to_json(h.sphere_part[lab]) for lab in h.sig.labels},
    }


def self_map_from_json(obj: object) -> SelfMapClass:
    g, d, raw_labels, circles, spheres = json_fields(
        obj, "self-map", ("g", "d", "labels", "circles", "spheres"))
    for array in (raw_labels, circles):
        json_array(array, "self-map 'labels' and 'circles' must be arrays")
    json_object(spheres, "self-map 'spheres' must be an object")
    budget = LetterBudget()   # one for the circles and spheres together
    with parsing():
        sig = WedgeSignature(g, [parse_label(s) for s in raw_labels], d)
        endo = FreeEndo([parse_word(w, budget) for w in circles])
        part = {}
        for key, val in spheres.items():
            lab = parse_label(key)
            if lab in part:
                raise ParseError(f"duplicate sphere image for label {lab}")
            part[lab] = vec_from_json(val, budget)
        return SelfMapClass(sig, endo, part)
