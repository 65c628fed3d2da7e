"""Integral group ring of a free group, and free modules over it.

RingElem is a finitely supported map FreeWord -> nonzero int: an integer
combination of group elements, i.e. a non-commutative Laurent polynomial
once the rank is at least 2.  ModuleVec is a finitely supported map from
sphere labels to RingElems; the modules it models are free, so all module
arithmetic is entrywise.

Serialization uses shortlex term order so output is deterministic.
"""
from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import ParseError
from .words import (
    FreeEndo,
    FreeWord,
    endo_apply,
    format_word,
    parse_word,
    shortlex_key,
)


class SphereLabel(tuple):
    """A basis sphere: p1..pk are puncture spheres, t0..tg are cell spheres.

    t0 is only used by custom wedges that present the lone puncture sphere
    as a zeroth cell; the punctured signatures built by pushcalc.pushing
    always use p-labels for punctures.

    A label is the validated pair (kind, index) stored as an immutable
    tuple, so hashing and equality run in C; labels are dict keys in every
    module vector.  Being a tuple, a label also equals the plain tuple of
    the same pair.  Order is the tuple order, which is sort_key order
    because 'p' < 't': all puncture spheres come before all cell spheres.

    >>> sorted([SphereLabel("t", 0), SphereLabel("p", 2), SphereLabel("p", 1)])
    [SphereLabel(kind='p', index=1), SphereLabel(kind='p', index=2), SphereLabel(kind='t', index=0)]
    >>> str(SphereLabel("t", 3))
    't3'
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "SphereLabel":
        if kind not in ("p", "t"):
            raise ValueError(f"label kind must be 'p' or 't', got {kind!r}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"label index must be an int, got {index!r}")
        if index < (1 if kind == "p" else 0):
            raise ValueError(f"index {index} out of range for kind {kind!r}")
        return tuple.__new__(cls, (kind, index))

    kind = property(itemgetter(0), doc="'p' for a puncture sphere, 't' for a cell sphere.")
    index = property(itemgetter(1), doc="1-based puncture index, or cell index from 0.")

    @property
    def sort_key(self) -> tuple[int, int]:
        # All puncture spheres sort before all cell spheres.
        return (0 if self[0] == "p" else 1, self[1])

    def __getnewargs__(self) -> tuple[str, int]:
        # copy and pickle rebuild a label through __new__(cls, kind, index).
        return (self[0], self[1])

    def __repr__(self) -> str:
        return f"SphereLabel(kind={self[0]!r}, index={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}{self[1]}"


_LABEL_RE = re.compile(r"([pt])([0-9]+)\Z")


def parse_label(text: str) -> SphereLabel:
    m = _LABEL_RE.match(text)
    if m is None:
        raise ParseError(f"bad sphere label {text!r}")
    try:
        return SphereLabel(m.group(1), int(m.group(2)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


class RingElem:
    """A finitely supported integer combination of reduced words."""

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: Mapping[FreeWord, int] | Iterable[tuple[FreeWord, int]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[FreeWord, int] = {}
        for w, c in items:
            if not isinstance(w, FreeWord):
                raise ValueError(f"ring support must be FreeWord, got {w!r}")
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be int, got {c!r}")
            n = acc.get(w, 0) + c
            if n:
                acc[w] = n
            else:
                acc.pop(w, None)
        self.terms = acc

    @classmethod
    def _wrap(cls, terms: dict[FreeWord, int]) -> "RingElem":
        # Internal fast path: terms already canonical (no zeros).
        a = cls.__new__(cls)
        a.terms = terms
        return a

    @classmethod
    def zero(cls) -> "RingElem":
        return cls._wrap({})

    @classmethod
    def one(cls) -> "RingElem":
        return cls.from_word(FreeWord())

    @classmethod
    def from_word(cls, w: FreeWord, c: int = 1) -> "RingElem":
        return cls._wrap({w: c} if c else {})

    @classmethod
    def from_int(cls, n: int) -> "RingElem":
        return cls.from_word(FreeWord(), n)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, u: FreeWord) -> int:
        return self.terms.get(u, 0)

    def items_shortlex(self) -> list[tuple[FreeWord, int]]:
        return sorted(self.terms.items(), key=lambda t: shortlex_key(t[0]))

    def max_support_len(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other: object) -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        acc = dict(self.terms)
        for w, c in other.terms.items():
            n = acc.get(w, 0) + c
            if n:
                acc[w] = n
            else:
                del acc[w]
        return RingElem._wrap(acc)

    def __neg__(self) -> "RingElem":
        return RingElem._wrap({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: object) -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "RingElem":
        if isinstance(other, RingElem):
            return ring_mul(self, other)
        if isinstance(other, int):
            if not other:
                return RingElem.zero()
            return RingElem._wrap({w: c * other for w, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other: object) -> "RingElem":
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"RingElem<{format_ring(self)}>"


def ring_mul(a: RingElem, b: RingElem) -> RingElem:
    """Convolution product: coefficient of w is the sum of a(u)b(v) over
    factorizations uv = w."""
    acc: dict[FreeWord, int] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            w = u * v
            n = acc.get(w, 0) + cu * cv
            if n:
                acc[w] = n
            else:
                del acc[w]
    return RingElem._wrap(acc)


def translate(u: FreeWord, a: RingElem) -> RingElem:
    """Left multiplication by the group element u."""
    return RingElem._wrap({u * w: c for w, c in a.terms.items()})


def translate_right(a: RingElem, u: FreeWord) -> RingElem:
    """Right multiplication by the group element u (composition transport)."""
    return RingElem._wrap({w * u: c for w, c in a.terms.items()})


def ring_endo_apply(phi: FreeEndo, a: RingElem) -> RingElem:
    """Apply an endomorphism to every support word; collided images add."""
    if phi.is_identity:
        for w in a.terms:
            if w.max_generator > phi.rank:
                raise ValueError(
                    f"word uses generator {w.max_generator} but endomorphism "
                    f"has rank {phi.rank}"
                )
        return a
    acc: dict[FreeWord, int] = {}
    for w, c in a.terms.items():
        iw = endo_apply(phi, w)
        n = acc.get(iw, 0) + c
        if n:
            acc[iw] = n
        else:
            del acc[iw]
    return RingElem._wrap(acc)


def augment(a: RingElem) -> int:
    """Sum of all coefficients (the augmentation to the integers)."""
    return sum(a.terms.values())


def format_ring(a: RingElem) -> str:
    """Human-readable form in shortlex term order, e.g. '1 + 2 a1 - a2'."""
    if a.is_zero:
        return "0"
    parts: list[str] = []
    for w, c in a.items_shortlex():
        mag = abs(c)
        if w.is_identity:
            body = str(mag)
        elif mag == 1:
            body = format_word(w)
        else:
            body = f"{mag} {format_word(w)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ring_to_json(a: RingElem) -> list:
    """JSON form: [[coefficient, word-string], ...] in shortlex order."""
    return [[c, format_word(w)] for w, c in a.items_shortlex()]


def ring_from_json(obj: object) -> RingElem:
    if not isinstance(obj, list):
        raise ParseError(f"ring element must be a JSON array, got {type(obj).__name__}")
    terms = []
    for pair in obj:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"ring term must be [coefficient, word], got {pair!r}")
        c, ws = pair
        if not isinstance(c, int) or isinstance(c, bool):
            raise ParseError(f"ring coefficient must be an integer, got {c!r}")
        if not isinstance(ws, str):
            raise ParseError(f"ring word must be a string, got {ws!r}")
        terms.append((parse_word(ws), c))
    return RingElem(terms)


class ModuleVec:
    """A finitely supported map from sphere labels to ring elements."""

    __slots__ = ("entries",)

    def __init__(
        self,
        entries: Mapping[SphereLabel, RingElem] | Iterable[tuple[SphereLabel, RingElem]] = (),
    ) -> None:
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[SphereLabel, RingElem] = {}
        for lab, r in items:
            if not isinstance(lab, SphereLabel):
                raise ValueError(f"keys must be SphereLabel, got {lab!r}")
            if not isinstance(r, RingElem):
                raise ValueError(f"entries must be RingElem, got {r!r}")
            prev = acc.get(lab)
            n = r if prev is None else prev + r
            if n:
                acc[lab] = n
            else:
                acc.pop(lab, None)
        self.entries = acc

    @classmethod
    def _wrap(cls, entries: dict[SphereLabel, RingElem]) -> "ModuleVec":
        v = cls.__new__(cls)
        v.entries = entries
        return v

    @classmethod
    def zero(cls) -> "ModuleVec":
        return cls._wrap({})

    @classmethod
    def unit(cls, label: SphereLabel) -> "ModuleVec":
        return cls._wrap({label: RingElem.one()})

    def get(self, label: SphereLabel) -> RingElem:
        return self.entries.get(label, RingElem.zero())

    def labels(self) -> list[SphereLabel]:
        return sorted(self.entries, key=lambda l: l.sort_key)

    def __add__(self, other: object) -> "ModuleVec":
        if not isinstance(other, ModuleVec):
            return NotImplemented
        acc = dict(self.entries)
        for lab, r in other.entries.items():
            prev = acc.get(lab)
            n = r if prev is None else prev + r
            if n:
                acc[lab] = n
            else:
                acc.pop(lab, None)
        return ModuleVec._wrap(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleVec):
            return NotImplemented
        return self.entries == other.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __repr__(self) -> str:
        return f"ModuleVec<{format_vec(self)}>"


def vec_translate(u: FreeWord, v: ModuleVec) -> ModuleVec:
    """Left multiplication by a group element, entrywise."""
    return ModuleVec._wrap({lab: translate(u, r) for lab, r in v.entries.items()})


def vec_endo_apply(phi: FreeEndo, v: ModuleVec) -> ModuleVec:
    """Apply an endomorphism to every ring entry, entrywise."""
    out = {}
    for lab, r in v.entries.items():
        img = ring_endo_apply(phi, r)
        if img:
            out[lab] = img
    return ModuleVec._wrap(out)


def format_vec(v: ModuleVec, lead: SphereLabel | None = None) -> str:
    """Human-readable form, e.g. 't1 + p1', 'a1·p1', '(1 + a1)·p1'.

    When lead is given and present in v, its term is printed first; tuple
    renderings use this so the image of a basis sphere starts with its own
    label.  Remaining labels follow in canonical order (punctures first).
    """
    if not v.entries:
        return "0"
    order = v.labels()
    if lead is not None and lead in v.entries:
        order = [lead] + [lab for lab in order if lab != lead]
    parts: list[str] = []
    for lab in order:
        r = v.entries[lab]
        items = r.items_shortlex()
        if len(items) == 1:
            w, c = items[0]
            pieces = []
            if abs(c) != 1:
                pieces.append(str(abs(c)))
            if not w.is_identity:
                pieces.append(format_word(w))
            pieces.append(str(lab))
            body = "·".join(pieces)
            positive = c > 0
        else:
            body = f"({format_ring(r)})·{lab}"
            positive = True
        if not parts:
            parts.append(body if positive else f"-{body}")
        else:
            parts.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(parts)


def vec_to_json(v: ModuleVec) -> dict:
    """JSON form: object mapping label strings to ring arrays."""
    return {str(lab): ring_to_json(v.entries[lab]) for lab in v.labels()}


def vec_from_json(obj: object) -> ModuleVec:
    if not isinstance(obj, dict):
        raise ParseError(f"module vector must be a JSON object, got {type(obj).__name__}")
    entries = []
    for key, val in obj.items():
        entries.append((parse_label(key), ring_from_json(val)))
    return ModuleVec(entries)
