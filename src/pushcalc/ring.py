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
from collections.abc import Iterable
from operator import itemgetter

from . import words as _words
from .errors import (LetterBudget, ParseError, as_tuple, check_text, check_type, clip, is_int,
                     json_array, json_object, parsing, read_decimal)
from .words import FreeEndo, FreeWord, _check_rank, format_word, parse_word, shortlex_key


class SphereLabel(tuple):
    """A basis sphere: p1..pk are puncture spheres, t1..tg are cell spheres.

    Both kinds count from 1, so p0 and t0 are refused.  A label is the
    validated pair (kind, index) stored as an immutable tuple, so hashing
    and equality run in C; labels are the keys of every sphere image dict.
    Being a tuple, a label also equals the plain tuple of the same pair.
    Order is the tuple order: since 'p' < 't', all puncture spheres come
    before all cell spheres.

    >>> sorted([SphereLabel("t", 1), SphereLabel("p", 2), SphereLabel("p", 1)])
    [SphereLabel(kind='p', index=1), SphereLabel(kind='p', index=2), SphereLabel(kind='t', index=1)]
    >>> str(SphereLabel("t", 3))
    't3'
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "SphereLabel":
        if kind not in ("p", "t"):
            raise ValueError(f"label kind must be 'p' or 't', got {kind!r}")
        if not is_int(index):
            raise ValueError(f"label index must be an int, got {index!r}")
        if index < 1:
            raise ValueError(f"index {index} out of range for kind {kind!r}")
        return tuple.__new__(cls, (kind, index))

    kind = property(itemgetter(0), doc="'p' for a puncture sphere, 't' for a cell sphere.")
    index = property(itemgetter(1), doc="1-based puncture or cell index.")

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
    check_text("a sphere label", text)
    m = _LABEL_RE.match(text)
    if m is None:
        raise ParseError(f"bad sphere label {clip(repr(text))}")
    with parsing():
        return SphereLabel(m.group(1), read_decimal(m.group(2)))


class RingElem:
    """Integer combination of reduced words: terms maps letter tuples to ints.

    Built from (FreeWord, int) pairs; the coefficients of a repeated word
    add up, and a word whose sum is zero is dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[FreeWord, int]] = ()) -> None:
        acc: dict[tuple[int, ...], int] = {}
        for term in as_tuple("ring terms", terms):
            term = as_tuple("each ring term", term)
            try:
                w, c = term
            except ValueError:
                raise ValueError("each ring term must be a (word, coefficient) pair") from None
            check_type("ring support", w, FreeWord)
            if not is_int(c):
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

    def __mul__(self, other: object) -> "RingElem":
        if isinstance(other, RingElem):
            return ring_mul(self, other)
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
    for t in a.terms:
        _check_rank("word", t, phi.rank)
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


def ring_from_json(obj: object, budget: LetterBudget | None = None) -> RingElem:
    """The RingElem of a JSON ring element; its words spend from budget, the
    letter budget of the document it is part of (its own if None)."""
    budget = LetterBudget() if budget is None else budget
    terms = []
    for pair in json_array(obj, f"ring element must be a JSON array, got {type(obj).__name__}"):
        bad_term = f"ring term must be [coefficient, word], got {pair!r}"
        if len(json_array(pair, bad_term)) != 2:
            raise ParseError(bad_term)
        terms.append((parse_word(pair[1], budget), pair[0]))
    with parsing():
        return RingElem(terms)


def format_vec(v: dict[SphereLabel, RingElem], lead: SphereLabel) -> str:
    """Human-readable form, e.g. 't1 + p1', 'a1·p1', '(1 + a1)·p1'.

    When lead is present in v, its term is printed first; tuple renderings
    use this so the image of a basis sphere starts with its own label.
    Remaining labels follow in canonical order (punctures first).
    """
    order = sorted(v)
    if lead in v:
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


def vec_from_json(obj: object,
                  budget: LetterBudget | None = None) -> dict[SphereLabel, RingElem]:
    """The dict of a JSON vector; keys naming one label ('p1', 'p01') add.
    Its words spend from budget, as in ring_from_json."""
    budget = LetterBudget() if budget is None else budget
    acc: dict[SphereLabel, RingElem] = {}
    message = f"module vector must be a JSON object, got {type(obj).__name__}"
    for key, val in json_object(obj, message).items():
        lab = parse_label(key)
        r = ring_from_json(val, budget)
        acc[lab] = acc[lab] + r if lab in acc else r
    return {lab: r for lab, r in acc.items() if r}
