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
injective, and recover_braid inverts it with a full round-trip check.
"""
from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass

from .errors import (
    ModelNotDefault,
    ParseError,
    SignatureMismatch,
    SizeMismatch,
    SlotOutOfRange,
    TooLarge,
)
from .monoid import SelfMapClass, WedgeSignature, compose, identity_map
from .ring import ModuleVec, RingElem, SphereLabel
from .words import (
    IDENTITY,
    MAX_WORD_LETTERS,
    FreeEndo,
    FreeWord,
    char_sign,
    enumerate_words,
    format_word,
    letter_profile,
    parse_word,
)


# Largest g + k of a punctured model: its wedge carries g circles and
# g + k spheres, and every push lists them all.  On a 2-CPU Xeon
# `push-word` answers in under half a second and 40 MB at g = 10,000,
# k = 1, and in under a second and 65 MB at g + k = 20,000; at g = 10**8
# it ended in MemoryError while the crossing data was built.
MAX_MODEL_SIZE = 20_000


def _check_model_size(size: object) -> None:
    if isinstance(size, int) and size > MAX_MODEL_SIZE:
        raise TooLarge(
            f"a punctured model with g + k = {size} is over the cap {MAX_MODEL_SIZE}"
        )


def _check_loop_count(g: object) -> None:
    if not isinstance(g, int) or isinstance(g, bool) or g < 0:
        raise ValueError(f"loop count must be a non-negative int, got {g!r}")
    _check_model_size(g)


@dataclass(frozen=True)
class ManifoldModel:
    """Loops, orientation character, and loop-cell crossing data.

    crossings[i-1] lists the crossings of loop i as (cell, sign, prefix)
    triples with 1-based cell indices.  low_handle_dim declares that the
    model's handle dimension is small enough for the orbit-counting
    module's hypotheses; the default models have maximal handle dimension,
    so it is False for them and the orbit ops refuse unless forced.
    """

    g: int
    d: int
    character: tuple[int, ...]
    crossings: tuple[tuple[tuple[int, int, FreeWord], ...], ...]
    low_handle_dim: bool = False

    def __post_init__(self) -> None:
        _check_loop_count(self.g)
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 3:
            raise ValueError(f"dimension must be an int >= 3, got {self.d!r}")
        if len(self.character) != self.g:
            raise ValueError(
                f"character has {len(self.character)} signs, expected {self.g}"
            )
        for c in self.character:
            if c not in (1, -1):
                raise ValueError(f"character signs must be +1 or -1, got {c!r}")
        if len(self.crossings) != self.g:
            raise ValueError(
                f"crossing data for {len(self.crossings)} loops, expected {self.g}"
            )
        for row in self.crossings:
            for cell, eps, prefix in row:
                if not (isinstance(cell, int) and 1 <= cell <= self.g):
                    raise ValueError(f"crossed cell {cell!r} out of range 1..{self.g}")
                if eps not in (1, -1):
                    raise ValueError(f"crossing sign must be +1 or -1, got {eps!r}")
                if not isinstance(prefix, FreeWord):
                    raise ValueError(f"crossing prefix must be FreeWord, got {prefix!r}")
                if prefix.max_generator > self.g:
                    raise ValueError(f"crossing prefix {prefix} exceeds rank {self.g}")

    @classmethod
    def default(cls, g: int, d: int = 3) -> "ManifoldModel":
        _check_loop_count(g)   # before the crossing data is built
        return cls(
            g=g,
            d=d,
            character=(1,) * g,
            crossings=tuple(((i, 1, FreeWord()),) for i in range(1, g + 1)),
        )

    @property
    def is_default(self) -> bool:
        """Whether character and crossings are those of default(g, d).

        Read straight off the fields: recover_braid, kernel_report and
        push_word_closed ask once per call, so no default model is built.
        """
        g = self.g
        return self.character == (1,) * g and self.crossings == tuple(
            ((i, 1, IDENTITY),) for i in range(1, g + 1)
        )


@dataclass(frozen=True)
class PuncturedSignature:
    """A manifold model with k punctures removed."""

    model: ManifoldModel
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise ValueError(f"puncture count must be a non-negative int, got {self.k!r}")
        _check_model_size(self.model.g + self.k)   # before any label is built

    @functools.cached_property
    def wedge(self) -> WedgeSignature:
        # Built once per signature; the cache lives in the instance __dict__,
        # outside the dataclass fields, so equality and hash are unchanged.
        labels = [SphereLabel("p", i) for i in range(1, self.k + 1)]
        labels += [SphereLabel("t", j) for j in range(1, self.model.g + 1)]
        return WedgeSignature(self.model.g, labels, self.model.d)


@dataclass(frozen=True)
class BraidElement:
    """k slot words plus a puncture permutation (stored 0-indexed)."""

    words: tuple[FreeWord, ...]
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.words) != len(self.perm):
            raise ValueError(
                f"{len(self.words)} words but permutation of size {len(self.perm)}"
            )
        for w in self.words:
            if not isinstance(w, FreeWord):
                raise ValueError(f"slot words must be FreeWord, got {w!r}")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..k-1")

    @property
    def k(self) -> int:
        return len(self.words)

    @classmethod
    def identity(cls, k: int) -> "BraidElement":
        return cls(tuple(FreeWord() for _ in range(k)), tuple(range(k)))

    @property
    def is_identity(self) -> bool:
        return all(w.is_identity for w in self.words) and self.perm == tuple(
            range(self.k)
        )

    def __str__(self) -> str:
        return format_braid(self)


def braid_mul(a: BraidElement, b: BraidElement) -> BraidElement:
    """Semidirect product: (a; s)(b; r) = ((a_i b_{s^-1(i)})_i; s r)."""
    if a.k != b.k:
        raise SizeMismatch(f"braid sizes differ: {a.k} vs {b.k}")
    inv = [0] * a.k
    for i, j in enumerate(a.perm):
        inv[j] = i
    words = tuple(a.words[i] * b.words[inv[i]] for i in range(a.k))
    perm = tuple(a.perm[b.perm[i]] for i in range(a.k))
    return BraidElement(words, perm)


def braid_inverse(a: BraidElement) -> BraidElement:
    """Two-sided inverse under braid_mul: slot i carries the inverse of
    the word that braid_mul would route into slot i."""
    inv = [0] * a.k
    for i, j in enumerate(a.perm):
        inv[j] = i
    words = tuple(~a.words[a.perm[i]] for i in range(a.k))
    return BraidElement(words, tuple(inv))


def _check_slot(sig: PuncturedSignature, slot: int) -> None:
    if not (isinstance(slot, int) and 1 <= slot <= sig.k):
        raise SlotOutOfRange(f"slot {slot} outside 1..{sig.k}")


def push_letter(sig: PuncturedSignature, letter: int, slot: int) -> SelfMapClass:
    """Class of pushing puncture `slot` around a single signed loop letter.

    Circles are fixed.  The pushed puncture sphere picks up the letter
    (signed by the orientation character); each cell the letter's loop
    crosses picks up a copy of the puncture sphere translated by the
    crossing prefix, with the crossing sign, and for an inverse letter
    the prefix is premultiplied by the inverse letter and negated.
    """
    _check_slot(sig, slot)
    model = sig.model
    i = abs(letter)
    if not (isinstance(letter, int) and letter != 0 and i <= model.g):
        raise ValueError(f"letter {letter!r} outside rank {model.g}")
    wsig = sig.wedge
    lw = FreeWord([letter])
    sgn = char_sign(model.character, lw)
    p_slot = SphereLabel("p", slot)
    spheres = {lab: ModuleVec.unit(lab) for lab in wsig.labels}
    spheres[p_slot] = ModuleVec([(p_slot, RingElem.from_word(lw, sgn))])
    for cell, eps, prefix in model.crossings[i - 1]:
        cell_lab = SphereLabel("t", cell)
        if letter > 0:
            gain = RingElem.from_word(prefix, eps)
        else:
            gain = RingElem.from_word(lw * prefix, -eps)
        spheres[cell_lab] = spheres[cell_lab] + ModuleVec([(p_slot, gain)])
    return SelfMapClass(wsig, FreeEndo.identity(model.g), spheres)


def push_sym(sig: PuncturedSignature, perm: tuple[int, ...]) -> SelfMapClass:
    """Class of the puncture permutation: p_i goes to p_{perm(i)}, rest fixed."""
    if sorted(perm) != list(range(sig.k)):
        raise SizeMismatch(f"perm {perm} is not a permutation of 0..{sig.k - 1}")
    wsig = sig.wedge
    spheres = {lab: ModuleVec.unit(lab) for lab in wsig.labels}
    for i in range(sig.k):
        spheres[SphereLabel("p", i + 1)] = ModuleVec.unit(SphereLabel("p", perm[i] + 1))
    return SelfMapClass(wsig, FreeEndo.identity(sig.model.g), spheres)


def push_word(sig: PuncturedSignature, w: FreeWord, slot: int) -> SelfMapClass:
    """Fold push_letter over the letters of w, first letter outermost."""
    _check_slot(sig, slot)
    if w.max_generator > sig.model.g:
        raise ValueError(f"word {w} exceeds rank {sig.model.g}")
    acc = identity_map(sig.wedge)
    letter_maps: dict[int, SelfMapClass] = {}
    for letter in w.letters:
        step = letter_maps.get(letter)
        if step is None:
            step = letter_maps[letter] = push_letter(sig, letter, slot)
        acc = compose(acc, step)
    return acc


def loop_coefficient(w: FreeWord, i: int) -> RingElem:
    """Signed sum of the letter-profile prefixes of generator i in w.

    This is the cell-i coefficient of the closed-form push: it satisfies
    the left cocycle law f(uv) = f(u) + u*f(v).
    """
    return RingElem([(prefix, eps) for eps, prefix in letter_profile(w, i)])


def _slot_push(model: ManifoldModel, w: FreeWord) -> tuple[int, list[RingElem]]:
    """Orientation sign c(w) and the cell coefficients F_1(w)..F_g(w).

    One pass over the letters of w (rank already checked) with the
    running prefix u and its sign c(u): a letter a_i adds
    c(u)*eps*(u*prefix) for each crossing (cell, eps, prefix) of loop i,
    and a letter A_i adds -c(u)*eps*(u*A_i*prefix).  On reduced words
    these sums satisfy F(uv) = F(u) + c(u)*u*F(v), which is what folding
    push_letter by compose computes, for any crossing data and character.
    """
    letters = w.letters
    character = model.character
    crossings = model.crossings
    acc: list[dict[FreeWord, int]] = [{} for _ in range(model.g)]
    sign = 1
    for pos, x in enumerate(letters):
        i = abs(x)
        row = crossings[i - 1]
        if row:
            if x > 0:
                u, s = FreeWord._wrap(letters[:pos]), sign
            else:
                u, s = FreeWord._wrap(letters[: pos + 1]), -sign
            for cell, eps, prefix in row:
                term = u * prefix if prefix.letters else u
                coeffs = acc[cell - 1]
                n = coeffs.get(term, 0) + s * eps
                if n:
                    coeffs[term] = n
                else:
                    del coeffs[term]
        if character[i - 1] < 0:
            sign = -sign
    return sign, [RingElem._wrap(coeffs) for coeffs in acc]


def push_word_closed(sig: PuncturedSignature, w: FreeWord, slot: int) -> SelfMapClass:
    """Closed form of push_word, kept to the default model.

    Circles fixed; the pushed puncture sphere is translated by w; cell i
    gains loop_coefficient(w, i) times the pushed puncture sphere, the
    default model's case of the twisted cocycle F(uv) = F(u) + c(u)*u*F(v).
    The class is push_braid of the braid with w in `slot`, built by the
    same one-pass helper, so checking it against the push_word fold (now
    only the oracle) checks that helper.
    """
    _check_slot(sig, slot)
    model = sig.model
    if not model.is_default:
        raise ModelNotDefault(
            "closed-form push is only established for the default crossing data"
        )
    if w.max_generator > model.g:
        raise ValueError(f"word {w} exceeds rank {model.g}")
    words = tuple(w if i == slot else FreeWord() for i in range(1, sig.k + 1))
    return push_braid(sig, BraidElement(words, tuple(range(sig.k))))


def push_braid(sig: PuncturedSignature, braid: BraidElement) -> SelfMapClass:
    """Class of a general braid, assembled directly from the closed form.

    With sigma = perm[i] + 1, p_i goes to c(w_sigma)*w_sigma*p_sigma, each
    cell t_c goes to t_c + sum_j F_c(w_j)*p_j, and the circles are fixed.
    c is the orientation character and F_c(w) the cell coefficients of
    _slot_push, which obey the twisted cocycle law
    F(uv) = F(u) + c(u)*u*F(v) for any model.  The result is the composite
    of the slot-word pushes around the permutation push (innermost), so
    push_braid(braid_mul(a, b)) = compose(push_braid(a), push_braid(b)).
    The letterwise fold push_word is only the oracle the tests compare
    this with.
    """
    if braid.k != sig.k:
        raise SizeMismatch(f"braid has {braid.k} slots, signature has {sig.k}")
    model = sig.model
    for w in reversed(braid.words):  # slot k is reported first
        if w.max_generator > model.g:
            raise ValueError(f"word {w} exceeds rank {model.g}")
    pushes = [_slot_push(model, w) for w in braid.words]
    wsig = sig.wedge
    # wedge labels are sorted: p1..pk, then t1..tg
    punctures, cells = wsig.labels[: sig.k], wsig.labels[sig.k:]
    spheres: dict[SphereLabel, ModuleVec] = {}
    for i, j in enumerate(braid.perm):
        spheres[punctures[i]] = ModuleVec._wrap(
            {punctures[j]: RingElem.from_word(braid.words[j], pushes[j][0])}
        )
    for c, cell in enumerate(cells):
        entries = {cell: RingElem.one()}
        for lab, (_, coeffs) in zip(punctures, pushes):
            if coeffs[c]:
                entries[lab] = coeffs[c]
        spheres[cell] = ModuleVec._wrap(entries)
    return SelfMapClass(wsig, FreeEndo.identity(model.g), spheres)


@dataclass(frozen=True)
class NotInImage:
    """Diagnostic result: the class is not a push of any braid."""

    reason: str

    def __bool__(self) -> bool:
        return False


def recover_braid(sig: PuncturedSignature, h: SelfMapClass) -> BraidElement | NotInImage:
    """Decode the braid whose push is h, or explain why none exists.

    The image of each puncture sphere must be a single unit-coefficient
    group-translate of a puncture sphere (the coefficient matching the
    orientation character of the translating word); the permutation and
    slot words are read off those images and the candidate is confirmed
    by a full round trip through push_braid.
    """
    model = sig.model
    if not model.is_default:
        raise ModelNotDefault("braid recovery is only established for the default model")
    if h.sig != sig.wedge:
        raise SignatureMismatch("class does not live on this punctured model")
    if not h.circle_part.is_identity:
        return NotInImage("circle part is not the identity")
    k = sig.k
    perm: list[int | None] = [None] * k
    words: list[FreeWord | None] = [None] * k
    for i, p_i in enumerate(sig.wedge.labels[:k], 1):
        vec = h.sphere(p_i)
        if len(vec.entries) != 1:
            return NotInImage(f"image of p{i} is not a single basis term")
        (lab, r), = vec.entries.items()
        if lab.kind != "p":
            return NotInImage(f"image of p{i} lands on {lab}")
        if len(r.terms) != 1:
            return NotInImage(f"image of p{i} has {len(r.terms)} group terms")
        (u, c), = r.terms.items()
        if c != char_sign(model.character, u):
            return NotInImage(f"image of p{i} has coefficient {c}, expected a unit")
        j = lab.index
        if words[j - 1] is not None:
            return NotInImage(f"two puncture spheres land on p{j}")
        perm[i - 1] = j - 1
        words[j - 1] = u
    candidate = BraidElement(tuple(words), tuple(perm))  # type: ignore[arg-type]
    if push_braid(sig, candidate) != h:
        return NotInImage("cell images do not match the decoded braid")
    return candidate


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


def _ball_size(g: int, max_len: int) -> int:
    """Number of reduced words of length <= max_len over F_g."""
    if g == 0 or max_len <= 0:
        return 1
    if g == 1:
        return 1 + 2 * max_len
    return 1 + g * ((2 * g - 1) ** max_len - 1) // (g - 1)


def _unrank_word(g: int, rank: int) -> FreeWord:
    """The word at index `rank` of enumerate_words(g, ...), in shortlex order."""
    branch = 2 * g - 1
    n, level = 0, 1
    while rank >= level:
        rank -= level
        level = 2 * g if n == 0 else level * branch
        n += 1
    alphabet = [x for i in range(1, g + 1) for x in (i, -i)]
    letters: list[int] = []
    for remaining in range(n - 1, -1, -1):
        idx, rank = divmod(rank, branch ** remaining)
        last = letters[-1] if letters else 0
        letters.append([x for x in alphabet if x != -last][idx])
    return FreeWord._wrap(tuple(letters))


def _count_fits(ball_size: int, k: int, cap: int) -> bool:
    """Whether ball_size**k * k! <= cap.

    The k! factors come first and the product stops once it passes cap,
    so a large k or ball costs a few multiplications, not the product.
    """
    total = 1
    for factor in itertools.chain(range(2, k + 1), itertools.repeat(ball_size, k)):
        if total > cap:
            return False
        total *= factor
    return total <= cap


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
    injectivity and lands in nontrivial_kernel.  A max_word_len above
    MAX_WORD_LETTERS raises TooLarge before the ball is counted.
    """
    if not sig.model.is_default:
        raise ModelNotDefault("kernel search is only established for the default model")
    if max_word_len > MAX_WORD_LETTERS:
        raise TooLarge(
            f"slot word length bound {max_word_len} is above the word cap of "
            f"{MAX_WORD_LETTERS} letters"
        )
    g, k = sig.model.g, sig.k
    ball_size = _ball_size(g, max_word_len)
    ident = identity_map(sig.wedge)
    hits: list[BraidElement] = []
    if _count_fits(ball_size, k, max_braids):
        ball = list(enumerate_words(g, max_word_len))
        perms = list(itertools.permutations(range(k)))
        checked = 0
        for words in itertools.product(ball, repeat=k):
            for perm in perms:
                braid = BraidElement(tuple(words), perm)
                checked += 1
                if push_braid(sig, braid) == ident and not braid.is_identity:
                    hits.append(braid)
        return KernelReport(g, k, max_word_len, True, checked, tuple(hits))
    rng = random.Random(seed)
    for _ in range(max_braids):
        words = tuple(_unrank_word(g, rng.randrange(ball_size)) for _ in range(k))
        perm = tuple(rng.sample(range(k), k))
        braid = BraidElement(words, perm)
        if push_braid(sig, braid) == ident and not braid.is_identity:
            hits.append(braid)
    return KernelReport(g, k, max_word_len, False, max_braids, tuple(hits))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, k: int) -> tuple[int, ...]:
    """Cycle notation over 1..k, e.g. '(1 2)(3 4)'; 'id', 'e', '()' = identity."""
    body = text.strip()
    perm = list(range(k))
    if body in ("id", "e", "()", ""):
        return tuple(perm)
    consumed = _CYCLE_RE.sub("", body).strip()
    if consumed:
        raise ParseError(f"bad permutation syntax {text!r}")
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(body):
        parts = m.group(1).split()
        if not parts:
            continue
        try:
            entries = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad cycle entry in {m.group(0)!r}") from None
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


def parse_braid(text: str, k: int | None = None) -> BraidElement:
    """Parse '[w1 | w2 | ... | wk ; perm]' with words in the word grammar.

    Besides the per-word cap of parse_word, the reduced slot words may hold
    at most MAX_WORD_LETTERS letters together: a push costs about n^2 for
    n letters in each slot, so many long slots are refused with TooLarge
    as soon as the running total passes the cap.
    """
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError(f"braid must be bracketed, got {text!r}")
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
    if k is not None and len(words) != k:
        raise SizeMismatch(f"braid has {len(words)} slots, expected {k}")
    return BraidElement(tuple(words), parse_perm(perm_part, len(words)))


def format_braid(braid: BraidElement) -> str:
    words = " | ".join(format_word(w) for w in braid.words)
    return f"[{words} ; {format_perm(braid.perm)}]"
