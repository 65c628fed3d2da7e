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

from dataclasses import dataclass
from typing import Mapping

from .errors import ParseError, SignatureMismatch, TooLarge
from .ring import (
    ModuleVec,
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
from .words import IDENTITY, FreeEndo, endo_compose, format_word, parse_word


@dataclass(frozen=True)
class WedgeSignature:
    """g circles and a labelled set of (d-1)-spheres, d >= 3.

    labels is sorted into sort_key order.  label_set, the same labels as a
    frozenset, is built once here for the membership checks of every
    SelfMapClass and ShiftedBlockMatrix on this signature; it is not a
    field, so equality, hash and repr see only g, labels and d.
    """

    g: int
    labels: tuple[SphereLabel, ...]
    d: int = 3

    def __init__(self, g: int, labels, d: int = 3) -> None:
        if not isinstance(g, int) or isinstance(g, bool) or g < 0:
            raise ValueError(f"circle count must be a non-negative int, got {g!r}")
        if not isinstance(d, int) or isinstance(d, bool) or d < 3:
            raise ValueError(f"sphere dimension must be an int >= 3, got {d!r}")
        labs = tuple(sorted(labels, key=lambda l: l.sort_key))
        for lab in labs:
            if not isinstance(lab, SphereLabel):
                raise ValueError(f"labels must be SphereLabel, got {lab!r}")
        label_set = frozenset(labs)
        if len(label_set) != len(labs):
            raise ValueError(f"duplicate sphere labels in {labs}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "label_set", label_set)


class SelfMapClass:
    """Circle endomorphism plus the module image of every basis sphere."""

    __slots__ = ("sig", "circle_part", "sphere_part")

    def __init__(
        self,
        sig: WedgeSignature,
        circle_part: FreeEndo,
        sphere_part: Mapping[SphereLabel, ModuleVec],
    ) -> None:
        g = sig.g
        if circle_part.rank != g:
            raise ValueError(
                f"circle part has rank {circle_part.rank}, signature needs {g}"
            )
        allowed = sig.label_set
        # A word is within rank g when all its letters lie in -g..g.
        for img in circle_part.images:
            t = img.letters
            if t and (max(t) > g or min(t) < -g):
                raise ValueError(f"circle image {img} uses generators beyond rank {g}")
        dense: dict[SphereLabel, ModuleVec] = {}
        for lab in sphere_part:
            if lab not in allowed:
                raise ValueError(f"sphere image given for unknown label {lab}")
        for lab in sig.labels:
            vec = sphere_part.get(lab, ModuleVec.zero())
            for tgt, r in vec.entries.items():
                if tgt not in allowed:
                    raise ValueError(f"image of {lab} hits unknown label {tgt}")
                for w in r.terms:
                    t = w.letters
                    if t and (max(t) > g or min(t) < -g):
                        raise ValueError(
                            f"image of {lab} uses generators beyond rank {g}"
                        )
            dense[lab] = vec
        self.sig = sig
        self.circle_part = circle_part
        self.sphere_part = dense

    @classmethod
    def _wrap(
        cls,
        sig: WedgeSignature,
        circle_part: FreeEndo,
        sphere_part: dict[SphereLabel, ModuleVec],
    ) -> "SelfMapClass":
        # Internal fast path for data already known to satisfy the
        # signature (composites of validated maps).
        h = cls.__new__(cls)
        h.sig = sig
        h.circle_part = circle_part
        h.sphere_part = sphere_part
        return h

    def sphere(self, label: SphereLabel) -> ModuleVec:
        if label not in self.sphere_part:
            raise ValueError(f"label {label} not in signature")
        return self.sphere_part[label]

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
    """The class of the identity map: identity endo, unit sphere images."""
    return SelfMapClass(
        sig,
        FreeEndo.identity(sig.g),
        {lab: ModuleVec.unit(lab) for lab in sig.labels},
    )


# Terms of the ring unit: a product with it is skipped, not computed.
_UNIT_TERMS = {IDENTITY: 1}

# Cap on the letters compose may write by substitution (_substituted_letters).
# A word is capped at MAX_WORD_LETTERS, but substitution multiplies lengths:
# 60 circles of 1,000 letters composed with themselves write 60,000,000
# letters and ran 28 s into a MemoryError under a 1 GB address-space limit.
# At the cap (60 circles of 129 letters) `pushcalc compose` takes 0.6 s and
# 36 MB on a 2-CPU Xeon; the tests, the verify suites and the benchmark
# workloads never compose more than 10,001 letters.
MAX_COMPOSE_LETTERS = 1_000_000


def _substituted_letters(outer: SelfMapClass, inner: SelfMapClass) -> int:
    """Letters written by substituting outer's circle images into inner's words.

    The sum, over every letter of every inner circle image and of every
    support word of an inner sphere coefficient, of the length of the outer
    image of that letter's generator: an upper bound on the letters of the
    substituted words, before free reduction.
    """
    lens = [0] * (2 * inner.sig.g + 1)   # index x and -x: the letter's generator
    for i, img in enumerate(outer.circle_part.images, start=1):
        lens[i] = lens[-i] = len(img)
    length_of = lens.__getitem__
    total = sum(sum(map(length_of, w.letters)) for w in inner.circle_part.images)
    for vec in inner.sphere_part.values():
        for r in vec.entries.values():
            total += sum(sum(map(length_of, w.letters)) for w in r.terms)
    return total


def compose(outer: SelfMapClass, inner: SelfMapClass) -> SelfMapClass:
    """Composite class outer-after-inner.

    Each inner sphere term r*m (r a ring element, m a basis label) is sent
    to the outer image of m right-multiplied by the outer circle image of
    r, and the results are summed in the module.  A composite whose
    substitution would write more than MAX_COMPOSE_LETTERS letters raises
    TooLarge before any word is built.
    """
    if outer.sig != inner.sig:
        raise SignatureMismatch(
            f"cannot compose maps of different wedges: {outer.sig} vs {inner.sig}"
        )
    # An identity circle part copies the inner words: nothing grows.
    if not outer.circle_part.is_identity:
        letters = _substituted_letters(outer, inner)
        if letters > MAX_COMPOSE_LETTERS:
            raise TooLarge(
                f"the composite's words would take up to {letters} letters "
                f"before reduction, over the cap {MAX_COMPOSE_LETTERS}"
            )
    circ = endo_compose(outer.circle_part, inner.circle_part)
    spheres: dict[SphereLabel, ModuleVec] = {}
    for b in inner.sig.labels:
        acc: dict[SphereLabel, RingElem] = {}
        for m, r in inner.sphere_part[b].entries.items():
            moved = ring_endo_apply(outer.circle_part, r)
            unit = moved.terms == _UNIT_TERMS
            for l, r_out in outer.sphere_part[m].entries.items():
                contrib = r_out if unit else ring_mul(r_out, moved)
                prev = acc.get(l)
                n = contrib if prev is None else prev + contrib
                if n:
                    acc[l] = n
                else:
                    acc.pop(l, None)
        spheres[b] = ModuleVec(acc)
    return SelfMapClass._wrap(outer.sig, circ, spheres)


def top_homology_matrix(h: SelfMapClass) -> list[list[int]]:
    """Integer matrix of the induced map on top homology.

    Rows and columns follow the signature's label order; the (row l,
    column b) entry is the augmentation of the l-component of the image
    of b.  Functorial: the matrix of a composite is the matrix product.
    """
    labels = h.sig.labels
    return [
        [augment(h.sphere_part[b].get(l)) for b in labels]
        for l in labels
    ]


def verify_inverse(h1: SelfMapClass, h2: SelfMapClass) -> bool:
    """True iff h1 and h2 compose to the identity in both orders."""
    if h1.sig != h2.sig:
        raise SignatureMismatch("candidate inverses must share a signature")
    ident = identity_map(h1.sig)
    return compose(h1, h2) == ident and compose(h2, h1) == ident


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
    if not isinstance(obj, dict):
        raise ParseError(f"self-map must be a JSON object, got {type(obj).__name__}")
    try:
        g = obj["g"]
        d = obj["d"]
        raw_labels = obj["labels"]
        circles = obj["circles"]
        spheres = obj["spheres"]
    except KeyError as exc:
        raise ParseError(f"self-map JSON missing key {exc.args[0]!r}") from None
    if not isinstance(raw_labels, list) or not isinstance(circles, list):
        raise ParseError("self-map 'labels' and 'circles' must be arrays")
    if not isinstance(spheres, dict):
        raise ParseError("self-map 'spheres' must be an object")
    try:
        sig = WedgeSignature(g, [parse_label(s) for s in raw_labels], d)
        endo = FreeEndo([parse_word(w) for w in circles])
        part = {parse_label(key): vec_from_json(val) for key, val in spheres.items()}
        return SelfMapClass(sig, endo, part)
    except ValueError as exc:
        if isinstance(exc, (ParseError, TooLarge)):
            raise
        raise ParseError(str(exc)) from None
