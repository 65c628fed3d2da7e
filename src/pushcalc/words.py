"""Reduced words in a finitely generated free group, plus the word grammar.

A word is stored as a reduced tuple of signed letters: the generator with
index i (1-based) is the letter i and its inverse is -i.  Reduction to this
canonical form happens on construction, so ``==`` on FreeWord is equality in
the group.

Rank is carried by context objects (endomorphisms, signatures, models), not
by each word; applying a word to a context of too small a rank is an error
at that boundary.

The inner loops live in a small kernel module, pushcalc._purewords, bound
here as ``_kernel``.  FreeWord and endo_apply look its functions up on that
binding at call time, so a caller can wrap them (to count calls, say).
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from . import _purewords as _kernel
from .errors import ParseError, TooLarge

# Name of the word kernel in use; the benchmark harness records it per run.
KERNEL_BACKEND = "pure-python"


class FreeWord:
    """An element of a free group in reduced canonical form.

    >>> FreeWord([1, 2, -2, 1]).letters
    (1, 1)
    >>> FreeWord([1, 2]) * FreeWord([-2, 3]) == FreeWord([1, 3])
    True
    """

    __slots__ = ("letters", "_max_gen", "_hash")

    def __init__(self, letters: Iterable[int] = ()) -> None:
        raw = tuple(letters)
        for x in raw:
            if not isinstance(x, int) or x == 0:
                raise ValueError(f"bad letter {x!r}: letters are nonzero ints")
        self.letters = _kernel.reduce_letters(raw)
        self._max_gen = -1
        self._hash = None

    @classmethod
    def _wrap(cls, letters: tuple[int, ...]) -> "FreeWord":
        # Internal fast path for letters already known to be reduced.
        w = cls.__new__(cls)
        w.letters = letters
        w._max_gen = -1
        w._hash = None
        return w

    @property
    def is_identity(self) -> bool:
        return not self.letters

    @property
    def max_generator(self) -> int:
        """Largest generator index in the word, 0 for the identity.

        >>> FreeWord([2, -3, 1]).max_generator
        3
        >>> FreeWord().max_generator
        0
        """
        if self._max_gen < 0:
            t = self.letters
            self._max_gen = max(max(t), -min(t)) if t else 0
        return self._max_gen

    def __mul__(self, other: object) -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return FreeWord._wrap(_kernel.concat(self.letters, other.letters))

    def __invert__(self) -> "FreeWord":
        return FreeWord._wrap(_kernel.invert(self.letters))

    def __pow__(self, n: object) -> "FreeWord":
        if not isinstance(n, int):
            return NotImplemented
        base = self.letters if n >= 0 else _kernel.invert(self.letters)
        out: tuple[int, ...] = ()
        for _ in range(abs(n)):
            out = _kernel.concat(out, base)
        return FreeWord._wrap(out)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.letters)
        return self._hash

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"FreeWord({format_word(self)!r})"


IDENTITY = FreeWord()


def generator(i: int, sign: int = 1) -> FreeWord:
    """The generator with index i (or its inverse for sign = -1)."""
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return FreeWord._wrap((i * sign,))


def shortlex_key(u: FreeWord) -> tuple:
    """Sort key: by length, then letterwise with a1 < A1 < a2 < A2 < ...."""
    return (
        len(u.letters),
        tuple((abs(x), 0 if x > 0 else 1) for x in u.letters),
    )


def letter_profile(u: FreeWord, i: int) -> list[tuple[int, FreeWord]]:
    """Occurrences of generator i in u, in order, as (sign, prefix) pairs.

    For a positive occurrence the prefix is the part of u strictly before
    the letter; for a negative occurrence the prefix includes the inverse
    letter itself.  This is the decomposition the closed-form push uses.

    >>> [(s, str(p)) for s, p in letter_profile(parse_word("a1 a1"), 1)]
    [(1, 'e'), (1, 'a1')]
    >>> [(s, str(p)) for s, p in letter_profile(parse_word("a1 a2 A1"), 1)]
    [(1, 'e'), (-1, 'a1 a2 A1')]
    """
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    out = []
    ls = u.letters
    for pos, x in enumerate(ls):
        if x == i:
            out.append((1, FreeWord._wrap(ls[:pos])))
        elif x == -i:
            out.append((-1, FreeWord._wrap(ls[: pos + 1])))
    return out


def char_sign(character: Sequence[int], u: FreeWord) -> int:
    """Product of the orientation signs of the letters of u.

    character[i-1] is the sign of generator i; letter signs are irrelevant
    since the values square to 1.  A homomorphism to {+1, -1}.
    """
    s = 1
    for x in u.letters:
        i = abs(x)
        if i > len(character):
            raise ValueError(f"letter {x} outside character of rank {len(character)}")
        c = character[i - 1]
        if c not in (1, -1):
            raise ValueError(f"character values must be +1 or -1, got {c!r}")
        if c < 0:
            s = -s
    return s


class FreeEndo:
    """An endomorphism of F_g, given by the images of the g generators."""

    __slots__ = ("images", "_letters", "_is_id")

    def __init__(self, images: Iterable[FreeWord]) -> None:
        imgs = tuple(images)
        for w in imgs:
            if not isinstance(w, FreeWord):
                raise ValueError(f"endomorphism images must be FreeWord, got {w!r}")
        self.images = imgs
        self._letters = tuple(w.letters for w in imgs)
        self._is_id = all(
            w.letters == (i,) for i, w in enumerate(imgs, start=1)
        )

    @classmethod
    def identity(cls, g: int) -> "FreeEndo":
        return cls(FreeWord._wrap((i,)) for i in range(1, g + 1))

    @property
    def rank(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return self._is_id

    def __call__(self, u: FreeWord) -> FreeWord:
        return endo_apply(self, u)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeEndo):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"FreeEndo([{', '.join(format_word(w) for w in self.images)}])"


def endo_apply(phi: FreeEndo, u: FreeWord) -> FreeWord:
    """Image of u under phi: substitute each letter and reduce."""
    if u.max_generator > phi.rank:
        raise ValueError(
            f"word uses generator {u.max_generator} but endomorphism has rank {phi.rank}"
        )
    return FreeWord._wrap(_kernel.substitute(phi._letters, u.letters))


def endo_compose(outer: FreeEndo, inner: FreeEndo) -> FreeEndo:
    """Composite endomorphism: apply inner first, then outer."""
    return FreeEndo(endo_apply(outer, w) for w in inner.images)


_TOKEN_RE = re.compile(r"([aA])([0-9]+)(?:\^(-?[0-9]+))?\Z")

# Longest letter sequence parse_word expands, before free reduction.  A push
# of an n-letter word holds about n coefficient terms of up to n letters, so
# time and memory grow as n^2: `push-word` of 1,000 letters at g = 2 takes
# under a second and 60 MB on a 2-CPU Xeon, of 10,000 letters 40 s and 3.8 GB.
MAX_WORD_LETTERS = 1_000


def parse_word(text: str) -> FreeWord:
    """Parse the word grammar: a1, A1 (inverse), a1^-3 (power), e (identity).

    Tokens are whitespace-separated; the empty string also denotes the
    identity.  A word that expands to more than MAX_WORD_LETTERS letters
    raises TooLarge before the letters are listed.

    >>> parse_word("a1 A2 a1^2").letters
    (1, -2, 1, 1)
    >>> parse_word("A1^-2") == parse_word("a1^2")
    True
    """
    out: list[int] = []
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        if tok == "e":
            continue
        tm = _TOKEN_RE.match(tok)
        if tm is None:
            raise ParseError(f"bad word token {tok!r}", position=m.start())
        index = int(tm.group(2))
        if index == 0:
            raise ParseError("generator index 0 is not allowed", position=m.start())
        exp = 1 if tm.group(3) is None else int(tm.group(3))
        if tm.group(1) == "A":
            exp = -exp
        letter = index if exp > 0 else -index
        if len(out) + abs(exp) > MAX_WORD_LETTERS:
            raise TooLarge(
                f"word expands to more than {MAX_WORD_LETTERS} letters "
                f"(at position {m.start()}); use a shorter word or a smaller exponent"
            )
        out.extend([letter] * abs(exp))
    return FreeWord(out)


def format_word(u: FreeWord) -> str:
    """Canonical token string for u; inverse of parse_word on its output.

    >>> format_word(parse_word("a1 a1 a1 A2"))
    'a1^3 A2'
    >>> format_word(IDENTITY)
    'e'
    """
    if not u.letters:
        return "e"
    parts = []
    run_letter = u.letters[0]
    run_len = 1
    for x in u.letters[1:] + (0,):
        if x == run_letter:
            run_len += 1
            continue
        i = abs(run_letter)
        if run_letter > 0:
            parts.append(f"a{i}" if run_len == 1 else f"a{i}^{run_len}")
        else:
            parts.append(f"A{i}" if run_len == 1 else f"a{i}^-{run_len}")
        run_letter = x
        run_len = 1
    return " ".join(parts)


def enumerate_words(g: int, max_len: int) -> Iterator[FreeWord]:
    """All reduced words of length <= max_len over F_g, in shortlex order."""
    if g < 0:
        raise ValueError(f"rank must be >= 0, got {g}")
    alphabet = []
    for i in range(1, g + 1):
        alphabet += [i, -i]
    level: list[tuple[int, ...]] = [()]
    yield FreeWord._wrap(())
    for _ in range(max_len):
        nxt = []
        for w in level:
            last = w[-1] if w else 0
            for x in alphabet:
                if x != -last:
                    nxt.append(w + (x,))
        for w in nxt:
            yield FreeWord._wrap(w)
        level = nxt
