"""Point-pushing classes for punctured one-vertex manifold models.

A ManifoldModel is the combinatorial shadow of a manifold with one
0-cell, g loops and g top-dimensional-boundary cells: an orientation
character on the loops plus, per loop, the ordered list of cells the
loop crosses, each crossing carrying a sign and the loop prefix read
before the crossing.  The default model has loop i crossing cell i
exactly once, positively, with empty prefix.

Pushing a puncture around a loop word acts on the homotopy classes of
self-maps of the punctured model (a wedge of g circles, g cells and k
puncture spheres).  The letterwise rules live in push_letter; push_word
folds them by composition with the first letter outermost.  That fold
is the oracle for the closed form, which holds for every model: pushing
along w sends the pushed sphere p to c(w)*w*p, with c the orientation
character, and adds F_cell(w)*p to each cell, where the coefficients
satisfy the twisted cocycle law F(uv) = F(u) + c(u)*u*F(v) and are read
off the crossing data in one pass over the letters of w.  Braids combine
k slot words and a permutation of the punctures; push_braid assembles
the class of a braid directly from that closed form, is a monoid
homomorphism from braids (under braid_mul) to self-map classes, is
injective, and recover_braid inverts it on every model, confirming each
decoded braid against the same closed form.
"""
from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass

from . import words as _words
from .errors import (
    NotInImage,
    ParseError,
    SignatureMismatch,
    SizeMismatch,
    SlotOutOfRange,
    TooLarge,
    as_tuple,
    capped_product,
    check_count,
    check_dimension,
    check_text,
    check_type,
    clip,
    is_int,
    is_permutation,
)
from .monoid import SelfMapClass, WedgeSignature, compose, identity_map
from .ring import RingElem, SphereLabel
from .words import (
    MAX_WORD_LETTERS,
    FreeWord,
    _check_rank,
    _unrank_word,
    count_words,
    enumerate_words,
    format_word,
    parse_word,
)


# Largest g + k of a punctured model: its wedge carries g circles and
# g + k spheres, and every push lists them all.  On a 2-CPU Xeon
# `push-word` answers in under half a second and 40 MB at g = 10,000,
# k = 1, and in under a second and 65 MB at g + k = 20,000; at g = 10**8
# it ended in MemoryError while the crossing data was built.
MAX_MODEL_SIZE = 20_000


def _check_model_size(size: int) -> None:
    if size > MAX_MODEL_SIZE:
        raise TooLarge(
            f"a punctured model with g + k = {size} is over the cap {MAX_MODEL_SIZE}"
        )


def _check_loop_count(g: object) -> None:
    check_count("loop count", g)
    _check_model_size(g)


def _check_sign(what: str, x: object) -> None:
    if not is_int(x) or x not in (1, -1):
        raise ValueError(f"{what} must be +1 or -1, got {x!r}")


@dataclass(frozen=True)
class ManifoldModel:
    """Loops, orientation character, and loop-cell crossing data.

    crossings[i-1] lists the crossings of loop i as (cell, sign, prefix)
    triples with 1-based cell indices.  The model is plain when each loop
    crosses exactly one cell, with an empty prefix, and no two loops cross
    the same cell; its character and signs may be anything, and every
    default model is plain.  On a plain model the cell coefficient F_c(w)
    of a reduced word w has one term per letter a_i or A_i of the one loop
    i crossing c, and those terms are distinct prefixes of w, so
    _slot_terms writes each term once (see _plain_steps).

    low_handle_dim declares that the model's handle dimension is small
    enough for the orbit-counting module's hypotheses, and is the one way
    to opt into them (`components --assume-hypotheses` sets it); the
    default models have maximal handle dimension, so it is False for them
    and the orbit ops refuse them unless g = 0.
    """

    g: int
    d: int
    character: tuple[int, ...]
    crossings: tuple[tuple[tuple[int, int, FreeWord], ...], ...]
    low_handle_dim: bool = False

    def __post_init__(self) -> None:
        _check_loop_count(self.g)
        check_dimension("dimension", self.d)
        character = as_tuple("character", self.character)
        if len(character) != self.g:
            raise ValueError(f"character has {len(character)} signs, expected {self.g}")
        for c in character:
            _check_sign("character signs", c)
        crossings = as_tuple("crossings", self.crossings)
        if len(crossings) != self.g:
            raise ValueError(f"crossing data for {len(crossings)} loops, expected {self.g}")
        rows = []
        for row in crossings:
            rows.append([])
            for crossing in as_tuple("each crossing row", row):
                crossing = as_tuple("each crossing", crossing)
                try:
                    cell, eps, prefix = crossing
                except ValueError:
                    raise ValueError("each crossing must be a (cell, sign, prefix) triple") from None
                if not (is_int(cell) and 1 <= cell <= self.g):
                    raise ValueError(f"crossed cell {cell!r} out of range 1..{self.g}")
                _check_sign("crossing sign", eps)
                check_type("crossing prefix", prefix, FreeWord)
                _check_rank("crossing prefix", prefix.letters, self.g)
                rows[-1].append(crossing)
        check_type("low_handle_dim", self.low_handle_dim, bool)
        object.__setattr__(self, "character", character)
        object.__setattr__(self, "crossings", tuple(map(tuple, rows)))

    @classmethod
    def default(cls, g: int, d: int = 3) -> "ManifoldModel":
        _check_loop_count(g)   # before the crossing data is built
        return cls(
            g=g,
            d=d,
            character=(1,) * g,
            crossings=tuple(((i, 1, FreeWord()),) for i in range(1, g + 1)),
        )

    # Cached in the instance __dict__, like PuncturedSignature's labels.
    @functools.cached_property
    def _plain_steps(self) -> dict[int, tuple[int, int, int, int]] | None:
        """Per signed letter x of a plain model: (cell index from 0, prefix
        offset, signed crossing sign, character), so that x at position pos
        of a word adds c(u)*e times letters[:pos + offset] to that cell, u
        being the letters before x; None if the model is not plain."""
        steps: dict[int, tuple[int, int, int, int]] = {}
        seen: set[int] = set()
        for i, (row, ch) in enumerate(zip(self.crossings, self.character), 1):
            if len(row) != 1:
                return None
            (cell, eps, prefix), = row
            if prefix.letters or cell in seen:
                return None
            seen.add(cell)
            steps[i] = (cell - 1, 0, eps, ch)
            steps[-i] = (cell - 1, 1, -eps * ch, ch)
        return steps


@dataclass(frozen=True)
class PuncturedSignature:
    """A manifold model with k punctures removed.

    It owns the wedge's label order: punctures p1..pk, then cells t1..tg."""

    model: ManifoldModel
    k: int

    def __post_init__(self) -> None:
        check_count("puncture count", self.k)
        check_type("model", self.model, ManifoldModel)
        _check_model_size(self.model.g + self.k)   # before any label is built

    # Cached in the instance __dict__, not in the fields: equality and hash are unchanged.
    @functools.cached_property
    def punctures(self) -> tuple[SphereLabel, ...]:
        return tuple(SphereLabel("p", i) for i in range(1, self.k + 1))

    @functools.cached_property
    def cells(self) -> tuple[SphereLabel, ...]:
        return tuple(SphereLabel("t", j) for j in range(1, self.model.g + 1))

    @functools.cached_property
    def wedge(self) -> WedgeSignature:
        return WedgeSignature(self.model.g, self.punctures + self.cells, self.model.d)


@dataclass(frozen=True)
class BraidElement:
    """k slot words plus a puncture permutation (stored 0-indexed)."""

    words: tuple[FreeWord, ...]
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        words, perm = as_tuple("slot words", self.words), as_tuple("perm", self.perm)
        if len(words) != len(perm):
            raise ValueError(f"{len(words)} words but permutation of size {len(perm)}")
        for w in words:
            check_type("slot words", w, FreeWord)
        if not is_permutation(perm):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..k-1")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "perm", perm)

    @property
    def k(self) -> int:
        return len(self.words)

    @property
    def is_identity(self) -> bool:
        return all(w.is_identity for w in self.words) and self.perm == tuple(
            range(self.k)
        )

    def __str__(self) -> str:
        return format_braid(self)


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a permutation of 0..n-1."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def braid_mul(a: BraidElement, b: BraidElement) -> BraidElement:
    """Semidirect product: (a; s)(b; r) = ((a_i b_{s^-1(i)})_i; s r)."""
    if a.k != b.k:
        raise SizeMismatch(f"braid sizes differ: {a.k} vs {b.k}")
    inv = _inverse_perm(a.perm)
    words = tuple(a.words[i] * b.words[inv[i]] for i in range(a.k))
    perm = tuple(a.perm[b.perm[i]] for i in range(a.k))
    return BraidElement(words, perm)


def _check_slot(sig: PuncturedSignature, slot: int) -> None:
    if not (is_int(slot) and 1 <= slot <= sig.k):
        raise SlotOutOfRange(f"slot {slot} outside 1..{sig.k}")


def push_letter(sig: PuncturedSignature, letter: int, slot: int) -> SelfMapClass:
    """Class of pushing puncture `slot` around a single signed loop letter.

    Circles are fixed.  The pushed puncture sphere picks up the letter
    (signed by the orientation character); each cell the letter's loop
    crosses picks up a copy of the puncture sphere translated by the
    crossing prefix, with the crossing sign.  For an inverse letter the
    prefix is premultiplied by that letter and the sign negated and signed
    by its character, so a letter's push inverts its inverse's on any model.
    """
    _check_slot(sig, slot)
    model = sig.model
    lw = FreeWord([letter])
    _check_rank("letter", lw.letters, model.g)
    i = abs(letter)
    sgn = model.character[i - 1]
    p_slot = sig.punctures[slot - 1]
    spheres = {lab: {lab: RingElem.one()} for lab in sig.wedge.labels}
    spheres[p_slot] = {p_slot: RingElem.from_word(lw, sgn)}
    for cell, eps, prefix in model.crossings[i - 1]:
        image = spheres[sig.cells[cell - 1]]
        if letter > 0:
            gain = RingElem.from_word(prefix, eps)
        else:
            gain = RingElem.from_word(lw * prefix, -eps * sgn)
        image[p_slot] = image.get(p_slot, RingElem.zero()) + gain
    return SelfMapClass(sig.wedge, sig.wedge.identity_endo, spheres)


def push_word(sig: PuncturedSignature, w: FreeWord, slot: int) -> SelfMapClass:
    """Fold push_letter over the letters of w, first letter outermost."""
    _check_slot(sig, slot)
    _check_rank("word", w.letters, sig.model.g)
    acc = identity_map(sig.wedge)
    letter_maps: dict[int, SelfMapClass] = {}
    for letter in w.letters:
        step = letter_maps.get(letter)
        if step is None:
            step = letter_maps[letter] = push_letter(sig, letter, slot)
        acc = compose(acc, step)
    return acc


def _slot_terms(
    model: ManifoldModel, letters: tuple[int, ...]
) -> tuple[int, list[dict[tuple[int, ...], int]]]:
    """Orientation sign c(w) and the cell coefficients F_1(w)..F_g(w) of
    the reduced word with these letters, each F_c keyed by letter tuples.

    One pass over the letters with the running prefix u and its sign c(u):
    a letter a_i adds c(u)*eps*(u*prefix) for each crossing
    (cell, eps, prefix) of loop i, and a letter A_i adds
    -c(u*A_i)*eps*(u*A_i*prefix).  On reduced words these sums satisfy
    F(uv) = F(u) + c(u)*u*F(v), which is what folding push_letter by
    compose computes, for any crossing data and character.  This is the
    one implementation of that cocycle, and its result is what the
    model's last-push record holds (see _last_push).  A letter beyond the
    model's rank raises ValueError as the pass reaches it, on both paths,
    so the rank is checked with no pass of its own.

    On a plain model (see ManifoldModel) cell c hears only from the one
    loop i crossing it, with an empty prefix: a_i at position n adds the
    n-letter prefix and A_i the (n+1)-letter one.  Two such terms could
    only meet if A_i were followed by a_i, which a reduced word never
    has, so each term is written once with no sum.  Any other model runs
    _accumulated_terms, where terms may add up and cancel.
    """
    steps = model._plain_steps
    if steps is None:
        return _accumulated_terms(model, letters)
    acc: list[dict[tuple[int, ...], int]] = [{} for _ in range(model.g)]
    sign = 1
    try:
        for pos, x in enumerate(letters):
            cell, off, e, ch = steps[x]
            acc[cell][letters[:pos + off]] = sign * e
            sign *= ch
    except KeyError:
        raise _words._rank_error("word", letters, model.g) from None
    return sign, acc


def _accumulated_terms(
    model: ManifoldModel, letters: tuple[int, ...]
) -> tuple[int, list[dict[tuple[int, ...], int]]]:
    """_slot_terms on any model: each crossing's term is added into its
    cell's dict, and a sum of zero is dropped."""
    concat = _words._kernel.concat   # looked up per call, so it can be wrapped
    g, character, crossings = model.g, model.character, model.crossings
    acc: list[dict[tuple[int, ...], int]] = [{} for _ in range(g)]
    sign = 1
    for pos, x in enumerate(letters):
        i = abs(x)
        if i > g:
            raise _words._rank_error("word", letters, model.g)
        row = crossings[i - 1]
        if row:
            if x > 0:
                u, s = letters[:pos], sign
            else:
                u, s = letters[: pos + 1], -sign * character[i - 1]
            for cell, eps, prefix in row:
                p = prefix.letters
                term = concat(u, p) if p else u
                coeffs = acc[cell - 1]
                n = coeffs.get(term, 0) + s * eps
                if n:
                    coeffs[term] = n
                else:
                    del coeffs[term]
        if character[i - 1] < 0:
            sign = -sign
    return sign, acc


def push_word_closed(sig: PuncturedSignature, w: FreeWord, slot: int) -> SelfMapClass:
    """Closed form of push_word, on every model.

    Circles fixed; the pushed puncture sphere p goes to c(w)*w*p; cell i
    gains F_i(w) times p, with F the twisted cocycle
    F(uv) = F(u) + c(u)*u*F(v) of the crossing data.  The class is
    push_braid of the braid with w in `slot`, so checking it against the
    push_word fold, the oracle, checks push_braid's one-pass cocycle.
    """
    _check_slot(sig, slot)   # push_braid checks the rank
    words = tuple(w if i == slot else FreeWord() for i in range(1, sig.k + 1))
    return push_braid(sig, BraidElement(words, tuple(range(sig.k))))


def push_braid(sig: PuncturedSignature, braid: BraidElement) -> SelfMapClass:
    """Class of a general braid, assembled directly from the closed form.

    With sigma = perm[i] + 1, p_i goes to c(w_sigma)*w_sigma*p_sigma, each
    cell t_c goes to t_c + sum_j F_c(w_j)*p_j, and the circles are fixed.
    c is the orientation character and F_c(w) the cell coefficients of
    _slot_terms, which obey the twisted cocycle law
    F(uv) = F(u) + c(u)*u*F(v) for any model.  The result is the composite
    of the slot-word pushes around the permutation push (innermost), so
    push_braid(braid_mul(a, b)) = compose(push_braid(a), push_braid(b)).
    Each slot word's cocycle is computed once, by _slot_terms as it walks
    the word (which also checks its rank), or taken from the model's
    record of its last push; the record then holds this braid's words, and
    each cell entry gets a copy of its F_c dict.  The letterwise fold
    push_word is only the oracle the tests compare this with.

    The class is built with the trusted SelfMapClass._wrap: the checks
    here (braid size, slot word rank), BraidElement's permutation check
    and ManifoldModel's crossing-prefix rank check already establish
    everything SelfMapClass's constructor would check again, and the
    circle part is the signature's shared identity_endo.
    """
    if braid.k != sig.k:
        raise SizeMismatch(f"braid has {braid.k} slots, signature has {sig.k}")
    model = sig.model
    last = _last_push(model)
    record: dict[tuple[int, ...], tuple[int, list[dict[tuple[int, ...], int]]]] = {}
    for w in reversed(braid.words):  # slot k is reported first
        letters = w.letters
        if letters not in record:
            entry = last.get(letters)
            record[letters] = _slot_terms(model, letters) if entry is None else entry
    vars(model)["_last_push"] = record
    pushes = [record[w.letters] for w in braid.words]
    punctures, cells = sig.punctures, sig.cells
    spheres: dict[SphereLabel, dict[SphereLabel, RingElem]] = {}
    for i, j in enumerate(braid.perm):
        spheres[punctures[i]] = {
            punctures[j]: RingElem.from_word(braid.words[j], pushes[j][0])
        }
    for c, cell in enumerate(cells):
        entries = {cell: RingElem._wrap({(): 1})}
        for lab, (_, terms) in zip(punctures, pushes):
            if terms[c]:
                entries[lab] = RingElem._wrap(terms[c].copy())
        spheres[cell] = entries
    return SelfMapClass._wrap(sig.wedge, sig.wedge.identity_endo, spheres)


def _last_push(
    model: ManifoldModel,
) -> dict[tuple[int, ...], tuple[int, list[dict[tuple[int, ...], int]]]]:
    """The model's record of its last push_braid: slot word letters ->
    _slot_terms of that word, for that braid's words only.

    It lives in the instance __dict__, like _plain_steps, so equality,
    hash and repr are unchanged.  An entry is a pure function of the model
    and the letters, so an entry left by any earlier push is still right;
    the record holds at most one braid's cocycle, no more than the class
    that push returned, and threads sharing a model need no lock: a push
    replaces the record in one store.  Its dicts are never handed out:
    push_braid's cells get copies and recover_braid only compares with
    them.
    """
    return vars(model).get("_last_push", {})


def recover_braid(sig: PuncturedSignature, h: SelfMapClass) -> BraidElement:
    """Decode the braid whose push is h, or raise NotInImage saying why not.

    Works on every model.  The image of each puncture sphere must be a
    single group-translate of a puncture sphere whose coefficient is the
    orientation character of the translating word; the permutation and
    slot words are read off those images.  The candidate is confirmed by
    the test push_braid(sig, candidate) == h without building that class:
    the terms of each cell t_c must be exactly {(): 1} at t_c and the
    _slot_terms dict F_c(w_j) at each p_j where it is nonzero.  A word of
    the model's last push_braid takes its cocycle from that push's record
    (see _last_push); any other word is walked by _slot_terms.
    """
    if h.sig != sig.wedge:
        raise SignatureMismatch("class does not live on this punctured model")
    if not h.circle_part.is_identity:
        raise NotInImage("circle part is not the identity")
    model = sig.model
    last = _last_push(model)
    k = sig.k
    punctures, cells = sig.punctures, sig.cells
    perm: list[int | None] = [None] * k
    words: list[FreeWord | None] = [None] * k
    slot_terms: list[list[dict[tuple[int, ...], int]] | None] = [None] * k
    for i, p_i in enumerate(punctures, 1):
        vec = h.sphere_part[p_i]
        if len(vec) != 1:
            raise NotInImage(f"image of p{i} is not a single basis term")
        (lab, r), = vec.items()
        if lab.kind != "p":
            raise NotInImage(f"image of p{i} lands on {lab}")
        if len(r.terms) != 1:
            raise NotInImage(f"image of p{i} has {len(r.terms)} group terms")
        (u, c), = r.terms.items()
        entry = last.get(u)
        sign, terms = _slot_terms(model, u) if entry is None else entry
        if c != sign:
            raise NotInImage(f"image of p{i} has coefficient {c}, expected a unit")
        j = lab.index
        if words[j - 1] is not None:
            raise NotInImage(f"two puncture spheres land on p{j}")
        perm[i - 1] = j - 1
        words[j - 1] = FreeWord._wrap(u)
        slot_terms[j - 1] = terms
    # The puncture images match push_braid's exactly, so what is left of
    # push_braid(sig, candidate) == h is the cells.
    for c, cell in enumerate(cells):
        if not _cell_matches(h.sphere_part[cell], cell, c, punctures, slot_terms):  # type: ignore[arg-type]
            raise NotInImage("cell images do not match the decoded braid")
    return BraidElement(tuple(words), tuple(perm))  # type: ignore[arg-type]


def _cell_matches(
    entries: dict[SphereLabel, RingElem],
    cell: SphereLabel,
    c: int,
    punctures: tuple[SphereLabel, ...],
    slot_terms: list[list[dict[tuple[int, ...], int]]],
) -> bool:
    """Whether a cell's image is push_braid's: {(): 1} at the cell, the
    nonzero F_c(w_j) at each p_j, and no other entry."""
    r = entries.get(cell)
    if r is None or r.terms != {(): 1}:
        return False
    count = 1
    for p, terms in zip(punctures, slot_terms):
        f = terms[c]
        if f:
            r = entries.get(p)
            if r is None or r.terms != f:
                return False
            count += 1
    return len(entries) == count


@dataclass(frozen=True)
class KernelReport:
    """Result of searching for braids that push to the identity class."""

    g: int
    k: int
    max_word_len: int
    exhaustive: bool
    total_checked: int
    nontrivial_kernel: tuple[BraidElement, ...]

    @property
    def passed(self) -> bool:
        return not self.nontrivial_kernel


# Cap on the estimated work of one kernel sweep (_sweep_work).  On a 2-CPU
# Xeon a unit took 0.7-4.5 us of CPU over 22 shapes tried (many labels,
# many slots, long words), and three `kernel` runs just under the cap took
# 3.6-4.3 s, so a sweep under the cap answers in under 5 s.  Without it
# `kernel -g 1 -k 19999` (20,000 braids over 20,000 labels) would run
# about 1.7 h, `-g 3 -k 1 --max-len 1000` about 4 min, and
# `-g 3 -k 1 --max-len 13 --max-braids 1000000000000` listed 1.8e9 words
# into a MemoryError; each is estimated at over 10**8 units.  The default
# 20,000-braid sample with --max-len 4 answers up to g = k = 7 (780,000).
MAX_KERNEL_WORK = 1_000_000


def _sweep_work(g: int, k: int, max_len: int, braids: int) -> int:
    """Estimated work of push_braid and the identity test on `braids` braids.

    Each braid costs one unit per label of the wedge (g + k) and four for
    itself.  Each slot costs one more unit for its word and permutation
    entry, an eighth of a unit per cell (_slot_terms gathers g cell
    coefficients for every slot), and about half a unit a letter plus a
    128th of the letters squared: the cocycle's prefix terms hold about
    max_len**2 / 2 letters.
    """
    per_slot = 1 + g // 8 + (max_len + max_len * max_len // 64) // 2
    return braids * (4 + g + k + k * per_slot)


def kernel_report(
    sig: PuncturedSignature,
    max_word_len: int,
    max_braids: int,
    seed: int = 0,
) -> KernelReport:
    """Search braids with slot words up to max_word_len for kernel elements.

    Exhaustive when the braid count fits in max_braids, otherwise a seeded
    sample of max_braids elements.  The count is worked out before
    anything is listed: the word ball and the permutations are listed
    only for an exhaustive search, and a sample unranks each slot word
    from a uniform index into the ball.  The identity braid is always in
    the kernel and is not reported; any other hit is a counterexample to
    injectivity and lands in nontrivial_kernel.  A negative or non-int
    bound raises ValueError, and a max_word_len above MAX_WORD_LETTERS
    raises TooLarge, before the ball is counted.  A sweep whose estimated
    work (_sweep_work, over the braids it would check) passes
    MAX_KERNEL_WORK raises TooLarge before any word is listed.
    """
    check_count("max_word_len", max_word_len)
    check_count("max_braids", max_braids)
    if max_word_len > MAX_WORD_LETTERS:
        raise TooLarge(
            f"slot word length bound {max_word_len} is above the word cap of "
            f"{MAX_WORD_LETTERS} letters"
        )
    g, k = sig.model.g, sig.k
    ball_size = count_words(g, max_word_len)
    count = capped_product([(ball_size, k), *((f, 1) for f in range(2, k + 1))], max_braids)
    braids = max_braids if count is None else count
    work = _sweep_work(g, k, max_word_len, braids)
    if work > MAX_KERNEL_WORK:
        raise TooLarge(
            f"a kernel sweep of {braids} braids at g = {g}, k = {k}, slot words "
            f"up to {max_word_len} letters is estimated at {work} units, over "
            f"the cap {MAX_KERNEL_WORK}; use fewer braids or shorter slot words"
        )
    if count is not None:
        ball = list(enumerate_words(g, max_word_len))
        perms = list(itertools.permutations(range(k)))
        candidates = (BraidElement(words, perm)
                      for words in itertools.product(ball, repeat=k) for perm in perms)
    else:
        rng = random.Random(seed)
        candidates = (BraidElement(
            tuple(_unrank_word(g, rng.randrange(ball_size)) for _ in range(k)),
            tuple(rng.sample(range(k), k)),
        ) for _ in range(max_braids))
    ident = identity_map(sig.wedge)
    hits = tuple(b for b in candidates if push_braid(sig, b) == ident and not b.is_identity)
    return KernelReport(g, k, max_word_len, count is not None, braids, hits)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, k: int) -> tuple[int, ...]:
    """Cycle notation over 1..k, e.g. '(1 2)(3 4)'; 'id', 'e', '()' = identity."""
    body = text.strip()
    perm = list(range(k))
    if body in ("id", "e", "()", ""):
        return tuple(perm)
    consumed = _CYCLE_RE.sub("", body).strip()
    if consumed:
        raise ParseError(f"bad permutation syntax {clip(repr(text))}")
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(body):
        parts = m.group(1).split()
        if not parts:
            continue
        try:
            entries = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad cycle entry in {clip(repr(m.group(0)))}") from None
        for x in entries:
            if not 1 <= x <= k:
                raise ParseError(f"cycle entry {x} outside 1..{k}")
            if x in seen:
                raise ParseError(f"cycle entry {x} repeated")
            seen.add(x)
        for pos, x in enumerate(entries):
            perm[x - 1] = entries[(pos + 1) % len(entries)] - 1
    return tuple(perm)


def format_perm(perm: tuple[int, ...]) -> str:
    """Canonical cycle notation; identity prints as 'id'."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(cycles) if cycles else "id"


def parse_braid(text: str) -> BraidElement:
    """Parse '[w1 | w2 | ... | wk ; perm]' with words in the word grammar.

    Besides the per-word cap of parse_word, the reduced slot words may hold
    at most MAX_WORD_LETTERS letters together: a push costs about n^2 for
    n letters in each slot, so many long slots are refused with TooLarge
    as soon as the running total passes the cap.
    """
    check_text("a braid", text)
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError(f"braid must be bracketed, got {clip(repr(text))}")
    body = body[1:-1]
    if ";" not in body:
        raise ParseError("braid needs '; perm' after the slot words")
    words_part, perm_part = body.rsplit(";", 1)
    word_texts = [t.strip() for t in words_part.split("|")]
    if word_texts == [""]:
        word_texts = []
    words = []
    total = 0
    for slot, t in enumerate(word_texts, start=1):
        w = parse_word(t)
        total += len(w)
        if total > MAX_WORD_LETTERS:
            raise TooLarge(
                f"braid slot words hold more than {MAX_WORD_LETTERS} letters together "
                f"(at slot {slot}); use shorter words or fewer slots"
            )
        words.append(w)
    return BraidElement(tuple(words), parse_perm(perm_part, len(words)))


def format_braid(braid: BraidElement) -> str:
    words = " | ".join(format_word(w) for w in braid.words)
    return f"[{words} ; {format_perm(braid.perm)}]"
