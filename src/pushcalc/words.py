"""Reduced words in a finitely generated free group, plus the word grammar.

A word is stored as a reduced tuple of signed letters: the generator with
index i (1-based) is the letter i and its inverse is -i.  Reduction to this
canonical form happens on construction, so ``==`` on FreeWord is equality in
the group.

A FreeWord holds nothing but that tuple.  enumerate_words, count_words
and _unrank_word alone know the shortlex ball: they list, count, unrank it.

Rank is carried by context objects (endomorphisms, signatures, models), not
by each word; applying a word to a context of too small a rank is an error
at that boundary.  Every such check is _check_rank, which reads a word's
rank from one formula, _max_generator, on its letter tuple, and refuses it
with one message, "<what> <word> exceeds rank <g>" (_rank_error).

The inner loops are the four functions of the class ``_kernel``.  FreeWord,
endo_apply and the modules that work on letter tuples directly (the ring
products, the push cocycle) look them up on that class at call time, so a
caller can wrap them (to count calls, say).
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from operator import itemgetter

from .errors import (LetterBudget, ParseError, TooLarge, as_tuple, capped_product, check_count,
                     check_text, check_type, clip, is_int)

# Name of the word kernel in use; the benchmark harness records it per run.
KERNEL_BACKEND = "pure-python"


class _kernel:
    """The word kernel: reduction, concatenation, inversion, substitution.

    Each function returns a reduced letter tuple; concat and substitute
    assume reduced inputs.
    """

    @staticmethod
    def reduce_letters(letters):
        out = []
        for x in letters:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    @staticmethod
    def concat(a, b):
        i = len(a)
        j = 0
        n = len(b)
        while i > 0 and j < n and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    @staticmethod
    def invert(a):
        return tuple(-x for x in reversed(a))

    @staticmethod
    def substitute(images, letters):
        out = []
        for x in letters:
            if x > 0:
                img = images[x - 1]
            else:
                img = tuple(-y for y in reversed(images[-x - 1]))
            for y in img:
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        return tuple(out)


def _max_generator(t: tuple[int, ...]) -> int:
    """Largest generator index in a letter tuple, 0 for the empty one: a
    word lies within rank g exactly when this is at most g."""
    return max(max(t), -min(t)) if t else 0


def _rank_error(what: str, letters: tuple[int, ...], g: int) -> ValueError:
    """The one refusal of a word beyond rank g: '<what> <word> exceeds rank <g>'."""
    return ValueError(f"{what} {FreeWord._wrap(letters)} exceeds rank {g}")


def _check_rank(what: str, letters: tuple[int, ...], g: int) -> None:
    """Raise _rank_error if the letter tuple uses a generator beyond rank g."""
    if _max_generator(letters) > g:
        raise _rank_error(what, letters, g)


class FreeWord:
    """An element of a free group in reduced canonical form.

    >>> FreeWord([1, 2, -2, 1]).letters
    (1, 1)
    >>> FreeWord([1, 2]) * FreeWord([-2, 3]) == FreeWord([1, 3])
    True
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()) -> None:
        raw = as_tuple("letters", letters)
        for x in raw:
            if not is_int(x) or x == 0:
                raise ValueError(f"bad letter {x!r}: letters are nonzero ints")
        self.letters = _kernel.reduce_letters(raw)

    @classmethod
    def _wrap(cls, letters: tuple[int, ...]) -> "FreeWord":
        # Internal fast path for letters already known to be reduced.
        w = cls.__new__(cls)
        w.letters = letters
        return w

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: object) -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return FreeWord._wrap(_kernel.concat(self.letters, other.letters))

    def __invert__(self) -> "FreeWord":
        return FreeWord._wrap(_kernel.invert(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"FreeWord({format_word(self)!r})"


IDENTITY = FreeWord()


def shortlex_key(u: FreeWord) -> tuple:
    """Sort key: by length, then letterwise with a1 < A1 < a2 < A2 < ...."""
    # One int per letter, 2i for a_i and 2i + 1 for A_i: the same order as
    # (i, sign) pairs at a fraction of the memory, which matters when a
    # large ring element's keys are all held at once for sorting.
    return (len(u.letters), tuple([2 * abs(x) + (x < 0) for x in u.letters]))


class FreeEndo(tuple):
    """An endomorphism of F_g, given by the images of the g generators.

    An endomorphism is the validated pair (the images' letter tuples,
    whether they are a1..ag) stored as an immutable tuple, as a
    ring.SphereLabel is: hashing and equality run in C, and no attribute
    can be assigned, so a circle part can be shared.  Being a tuple, an
    endomorphism also equals the plain tuple of the same pair.  images
    builds the FreeWords when read.

    >>> FreeEndo([parse_word("a1")]) == FreeEndo.identity(1)
    True
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[FreeWord]) -> "FreeEndo":
        imgs = as_tuple("endomorphism images", images)
        for w in imgs:
            check_type("endomorphism images", w, FreeWord)
        return cls._wrap(tuple(w.letters for w in imgs))

    @classmethod
    def _wrap(cls, letters: tuple[tuple[int, ...], ...]) -> "FreeEndo":
        # Internal fast path for reduced letter tuples; every endomorphism
        # is built here.
        return tuple.__new__(cls, (letters, all(t == (i,) for i, t in enumerate(letters, 1))))

    @classmethod
    def identity(cls, g: int) -> "FreeEndo":
        return cls._wrap(tuple((i,) for i in range(1, g + 1)))

    _letters = property(itemgetter(0), doc="The images' letter tuples, generator by generator.")
    is_identity = property(itemgetter(1), doc="True when each a_i maps to itself.")

    @property
    def rank(self) -> int:
        return len(self[0])

    @property
    def images(self) -> tuple[FreeWord, ...]:
        return tuple(map(FreeWord._wrap, self[0]))

    def __getnewargs__(self) -> tuple[tuple[FreeWord, ...]]:
        # copy and pickle rebuild an endomorphism through __new__(cls, images).
        return (self.images,)

    def __repr__(self) -> str:
        return f"FreeEndo([{', '.join(format_word(w) for w in self.images)}])"


def endo_apply(phi: FreeEndo, u: FreeWord) -> FreeWord:
    """Image of u under phi: substitute each letter and reduce.

    >>> phi = FreeEndo([parse_word("a1 a2"), parse_word("a2")])
    >>> format_word(endo_apply(phi, parse_word("a1 A2 a1")))
    'a1^2 a2'
    """
    _check_rank("word", u.letters, phi.rank)
    return FreeWord._wrap(_kernel.substitute(phi._letters, u.letters))


def endo_compose(outer: FreeEndo, inner: FreeEndo) -> FreeEndo:
    """Composite endomorphism: apply inner first, then outer.

    Inner's words are checked to lie within outer's rank as endo_apply
    checks them.  An identity outer, as every push class's circle part is,
    then gives inner itself (a FreeEndo is immutable).
    """
    for letters in inner._letters:
        _check_rank("word", letters, outer.rank)
    if outer.is_identity:
        return inner
    return FreeEndo._wrap(tuple(_kernel.substitute(outer._letters, t) for t in inner._letters))


# A generator index has at most 9 digits, leading zeros aside: no model has
# a billion generators, and int() refuses over 4,300 digits with a message
# about Python's own limit.
_TOKEN_RE = re.compile(r"([aA])0*([0-9]{1,9})(?:\^(-?[0-9]+))?\Z")

# Longest letter sequence parse_word expands, before free reduction.  A push
# of an n-letter word holds about n coefficient terms of up to n letters, so
# time and memory grow as n^2: `push-word` of 1,000 letters at g = 2 takes
# under a second and 60 MB on a 2-CPU Xeon, of 10,000 letters 40 s and 3.8 GB.
MAX_WORD_LETTERS = 1_000


def parse_word(text: str, budget: LetterBudget | None = None) -> FreeWord:
    """Parse the word grammar: a1, A1 (inverse), a1^-3 (power), e (identity).

    Tokens are whitespace-separated; the empty string also denotes the
    identity.  A word that expands to more than MAX_WORD_LETTERS letters,
    or past the letters left in a document's budget, raises TooLarge before
    the letters are listed; the word's letters are then spent from budget.

    >>> parse_word("a1 A2 a1^2").letters
    (1, -2, 1, 1)
    >>> parse_word("A1^-2") == parse_word("a1^2")
    True
    """
    check_text("a word", text)
    left = MAX_WORD_LETTERS if budget is None else budget.left
    out: list[int] = []
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        if tok == "e":
            continue
        tm = _TOKEN_RE.match(tok)
        if tm is None:
            raise ParseError(f"bad word token {clip(repr(tok))}", position=m.start())
        index = int(tm.group(2))
        if index == 0:
            raise ParseError("generator index 0 is not allowed", position=m.start())
        exp_text = tm.group(3) or "1"
        # an exponent of ten digits or more is far over the letter cap
        exp = int(exp_text) if len(exp_text.lstrip("-0")) < 10 else MAX_WORD_LETTERS + 1
        if tm.group(1) == "A":
            exp = -exp
        letter = index if exp > 0 else -index
        if len(out) + abs(exp) > MAX_WORD_LETTERS:
            raise TooLarge(
                f"word expands to more than {MAX_WORD_LETTERS} letters "
                f"(at position {m.start()}); use a shorter word or a smaller exponent"
            )
        if len(out) + abs(exp) > left:
            raise LetterBudget.refusal()
        out.extend([letter] * abs(exp))
    if budget is not None:
        budget.left -= len(out)
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


def _alphabet(g: int) -> list[int]:
    """The letters of F_g in shortlex order: a1 < A1 < a2 < A2 < ...."""
    return [x for i in range(1, g + 1) for x in (i, -i)]


def enumerate_words(g: int, max_len: int) -> Iterator[FreeWord]:
    """All reduced words of length <= max_len over F_g, in shortlex order."""
    check_count("rank", g)
    check_count("max_len", max_len)
    alphabet = _alphabet(g)
    level: list[tuple[int, ...]] = [()]
    yield FreeWord._wrap(())
    for _ in range(max_len):
        level = [w + (x,) for w in level for x in alphabet if not w or x != -w[-1]]
        yield from map(FreeWord._wrap, level)


def _unrank_word(g: int, rank: int) -> FreeWord:
    """The word at index `rank` of enumerate_words(g, ...), in shortlex order."""
    branch = 2 * g - 1
    n, level = 0, 1
    while rank >= level:
        rank -= level
        level = 2 * g if n == 0 else level * branch
        n += 1
    alphabet = _alphabet(g)
    letters: list[int] = []
    for remaining in range(n - 1, -1, -1):
        idx, rank = divmod(rank, branch ** remaining)
        last = letters[-1] if letters else 0
        letters.append([x for x in alphabet if x != -last][idx])
    return FreeWord._wrap(tuple(letters))


def count_words(g: int, max_len: int, cap: int | None = None) -> int | None:
    """Number of words enumerate_words(g, max_len) lists, or None above cap.

    >>> count_words(2, 2)   # e, 4 words of one letter, 12 of two
    17
    >>> count_words(2, 10**9, cap=100) is None
    True
    """
    if g <= 1:
        total = 2 * max_len * g + 1
    elif cap is not None and capped_product([(2 * g - 1, max_len)], cap) is None:
        return None   # the ball outnumbers the power, so it passes cap too
    else:
        total = 1 + g * ((2 * g - 1) ** max_len - 1) // (g - 1)
    return None if cap is not None and total > cap else total
