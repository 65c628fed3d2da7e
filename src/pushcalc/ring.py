"""Integral group ring of a free group, and free modules over it.

RingElem is a finitely supported map from reduced letter tuples (the
letters of a FreeWord, the form the word kernel computes in) to nonzero
ints: an integer combination of group elements, i.e. a non-commutative
Laurent polynomial once the rank is at least 2.  A vector of the free
module on the sphere labels is a plain dict from SphereLabel to nonzero
RingElem; format_vec, vec_to_json and vec_from_json read and write it.

Serialization uses shortlex term order so output is deterministic.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from operator import itemgetter

from . import words as _words
from .errors import ParseError, clip
from .words import FreeEndo, FreeWord, format_word, parse_word, shortlex_key


class SphereLabel(tuple):
    """A basis sphere: p1..pk are puncture spheres, t0..tg are cell spheres.

    t0 is only used by custom wedges that present the lone puncture sphere
    as a zeroth cell; the punctured signatures built by pushcalc.pushing
    always use p-labels for punctures.

    A label is the validated pair (kind, index) stored as an immutable
    tuple, so hashing and equality run in C; labels are the keys of every
    sphere image dict.  Being a tuple, a label also equals the plain tuple of
    the same pair.  Order is the tuple order: since 'p' < 't', all
    puncture spheres come before all cell spheres.

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

    def __getnewargs__(self) -> tuple[str, int]:
        # copy and pickle rebuild a label through __new__(cls, kind, index).
        return (self[0], self[1])

    def __repr__(self) -> str:
        return f"SphereLabel(kind={self[0]!r}, index={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}{self[1]}"


# At most 9 digits of index, like a word's generator index.
_LABEL_RE = re.compile(r"([pt])0*([0-9]{1,9})\Z")


def parse_label(text: str) -> SphereLabel:
    if not isinstance(text, str):
        raise ParseError(f"a sphere label must be a string, got {type(text).__name__}")
    m = _LABEL_RE.match(text)
    if m is None:
        raise ParseError(f"bad sphere label {clip(repr(text))}")
    try:
        return SphereLabel(m.group(1), int(m.group(2)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


class RingElem:
    """Integer combination of reduced words: terms maps letter tuples to ints."""

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: Mapping[FreeWord, int] | Iterable[tuple[FreeWord, int]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], int] = {}
        for w, c in items:
            if not isinstance(w, FreeWord):
                raise ValueError(f"ring support must be FreeWord, got {w!r}")
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be int, got {c!r}")
            t = w.letters
            n = acc.get(t, 0) + c
            if n:
                acc[t] = n
            else:
                acc.pop(t, None)
        self.terms = acc

    @classmethod
    def _wrap(cls, terms: dict[tuple[int, ...], int]) -> "RingElem":
        # Internal fast path: reduced letter tuples, no zero coefficients.
        a = cls.__new__(cls)
        a.terms = terms
        return a

    @classmethod
    def zero(cls) -> "RingElem":
        return cls._wrap({})

    @classmethod
    def one(cls) -> "RingElem":
        return cls._wrap({(): 1})

    @classmethod
    def from_word(cls, w: FreeWord, c: int = 1) -> "RingElem":
        return cls._wrap({w.letters: c} if c else {})

    def items_shortlex(self) -> list[tuple[FreeWord, int]]:
        items = [(FreeWord._wrap(t), c) for t, c in self.terms.items()]
        return sorted(items, key=lambda t: shortlex_key(t[0]))

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
    concat = _words._kernel.concat   # looked up per call, so it can be wrapped
    acc: dict[tuple[int, ...], int] = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            w = concat(u, v)
            n = acc.get(w, 0) + cu * cv
            if n:
                acc[w] = n
            else:
                del acc[w]
    return RingElem._wrap(acc)


def ring_endo_apply(phi: FreeEndo, a: RingElem) -> RingElem:
    """Apply an endomorphism to every support word; collided images add."""
    rank = phi.rank
    for t in a.terms:
        if t and (max(t) > rank or min(t) < -rank):
            raise ValueError(
                f"word uses generator {max(max(t), -min(t))} but endomorphism "
                f"has rank {rank}"
            )
    if phi.is_identity:
        return a
    substitute = _words._kernel.substitute
    acc: dict[tuple[int, ...], int] = {}
    for t, c in a.terms.items():
        iw = substitute(phi._letters, t)
        n = acc.get(iw, 0) + c
        if n:
            acc[iw] = n
        else:
            del acc[iw]
    return RingElem._wrap(acc)


def augment(a: RingElem) -> int:
    """Sum of all coefficients (the augmentation to the integers)."""
    return sum(a.terms.values())


def _join_signed(terms: Iterable[tuple[str, bool]]) -> str:
    """'x' or '-x' for the first (body, positive) term, then '+ x' or '- x';
    no terms give '0'."""
    parts: list[str] = []
    for body, positive in terms:
        if not parts:
            parts.append(body if positive else f"-{body}")
        else:
            parts.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(parts) or "0"


def format_ring(a: RingElem) -> str:
    """Human-readable form in shortlex term order, e.g. '1 + 2 a1 - a2'."""
    terms = []
    for w, c in a.items_shortlex():
        mag = abs(c)
        if w.is_identity:
            body = str(mag)
        elif mag == 1:
            body = format_word(w)
        else:
            body = f"{mag} {format_word(w)}"
        terms.append((body, c > 0))
    return _join_signed(terms)


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


def format_vec(v: dict[SphereLabel, RingElem], lead: SphereLabel | None = None) -> str:
    """Human-readable form, e.g. 't1 + p1', 'a1·p1', '(1 + a1)·p1'.

    When lead is given and present in v, its term is printed first; tuple
    renderings use this so the image of a basis sphere starts with its own
    label.  Remaining labels follow in canonical order (punctures first).
    """
    order = sorted(v)
    if lead is not None and lead in v:
        order = [lead] + [lab for lab in order if lab != lead]
    terms = []
    for lab in order:
        r = v[lab]
        items = r.items_shortlex()
        if len(items) == 1:
            w, c = items[0]
            pieces = []
            if abs(c) != 1:
                pieces.append(str(abs(c)))
            if not w.is_identity:
                pieces.append(format_word(w))
            pieces.append(str(lab))
            terms.append(("·".join(pieces), c > 0))
        else:
            terms.append((f"({format_ring(r)})·{lab}", True))
    return _join_signed(terms)


def vec_to_json(v: dict[SphereLabel, RingElem]) -> dict:
    """JSON form: object mapping label strings to ring arrays."""
    return {str(lab): ring_to_json(v[lab]) for lab in sorted(v)}


def vec_from_json(obj: object) -> dict[SphereLabel, RingElem]:
    """The dict of a JSON vector; keys naming one label ('p1', 'p01') add."""
    if not isinstance(obj, dict):
        raise ParseError(f"module vector must be a JSON object, got {type(obj).__name__}")
    acc: dict[SphereLabel, RingElem] = {}
    for key, val in obj.items():
        lab = parse_label(key)
        r = ring_from_json(val)
        acc[lab] = acc[lab] + r if lab in acc else r
    return {lab: r for lab, r in acc.items() if r}
