"""Seeded property suites behind the verify command.

Each suite draws random cases from an explicit seed, checks module
invariants, and reports per-property case counts.  Failing cases are
greedily shrunk (dropping tuple elements wherever the smaller case still
fails) before being reported.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .embedding import (
    IndexKey,
    TruncatedMatrix,
    materialize,
    truncated_product,
)
from .errors import NotInImage, TooLarge, check_count
from .monoid import (
    SelfMapClass,
    WedgeSignature,
    compose,
    identity_map,
    top_homology_matrix,
)
from .orbits import (
    MapState,
    TargetModel,
    act,
    components_bruteforce,
    components_formula,
)
from .pushing import (
    BraidElement,
    ManifoldModel,
    PuncturedSignature,
    _slot_terms,
    braid_mul,
    push_braid,
    push_word,
    push_word_closed,
    recover_braid,
)
from .ring import RingElem, augment, ring_endo_apply
from .words import FreeEndo, FreeWord, endo_apply, endo_compose, enumerate_words, shortlex_key

# Most cases run_suite draws per property: `verify --suite all --seed 0`
# takes about 2 s at 1,000 cases and 18 s at this cap on a 2-CPU Xeon.
MAX_CASES = 10_000


@dataclass
class PropertyResult:
    name: str
    cases: int
    ok: bool
    counterexample: str | None = None
    extra: dict | None = None

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "cases": self.cases,
            "ok": self.ok,
            "counterexample": self.counterexample,
        }
        if self.extra:
            out.update(self.extra)
        return out


@dataclass
class SuiteReport:
    suite: str
    seed: int
    requested_cases: int
    results: list[PropertyResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.requested_cases,
            "ok": self.ok,
            "properties": [r.to_json() for r in self.results],
        }


@dataclass
class Property:
    name: str
    gen: Callable[[random.Random], tuple]
    fails: Callable[[tuple], str | None]
    cap: int | None = None
    extra: dict | None = None


def _shrink_structural(case: object) -> Iterator[object]:
    if not isinstance(case, tuple):
        return
    for i in range(len(case)):
        yield case[:i] + case[i + 1:]
    for i, sub in enumerate(case):
        for small in _shrink_structural(sub):
            yield case[:i] + (small,) + case[i + 1:]


def _shrink(case: tuple, fails: Callable[[tuple], str | None]) -> tuple:
    def failing(cand: object) -> bool:
        try:
            return fails(cand) is not None
        except Exception:
            return False

    changed = True
    while changed:
        changed = False
        for cand in _shrink_structural(case):
            if failing(cand):
                case = cand
                changed = True
                break
    return case


def _run_property(prop: Property, seed: int, cases: int) -> PropertyResult:
    rng = random.Random(f"{seed}:{prop.name}")
    n = min(cases, prop.cap) if prop.cap is not None else cases
    for i in range(n):
        case = prop.gen(rng)
        msg = prop.fails(case)
        if msg is not None:
            # copied before the shrinker reruns the check, so a log that the
            # check keeps in extra holds the drawn cases only
            extra = copy.deepcopy(prop.extra)
            small = _shrink(case, prop.fails)
            detail = prop.fails(small) or msg
            return PropertyResult(
                prop.name, i + 1, False, f"{detail}; case {small!r}", extra
            )
    return PropertyResult(prop.name, n, True, None, prop.extra)


# --- case builders (plain tuples of ints, so shrinking stays meaningful) ---


def _rand_letters(rng: random.Random, g: int, max_len: int) -> tuple[int, ...]:
    return tuple(
        rng.choice([1, -1]) * rng.randrange(1, g + 1)
        for _ in range(rng.randrange(0, max_len + 1))
    )


def _rand_ring_spec(rng: random.Random, g: int, max_terms: int = 3,
                    max_len: int = 3) -> tuple:
    return tuple(
        (_rand_letters(rng, g, max_len), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(0, max_terms + 1))
    )


def _ring(spec: tuple) -> RingElem:
    return RingElem([(FreeWord(ls), c) for ls, c in spec])


def _rand_map_spec(rng: random.Random, g: int, k: int) -> tuple:
    n = g + k
    circ = tuple(_rand_letters(rng, g, 2) for _ in range(g))
    entries = tuple(
        (src, tgt, _rand_ring_spec(rng, g, max_terms=2, max_len=2))
        for src in range(n)
        for tgt in range(n)
        if rng.random() < 0.4
    )
    return (g, k, circ, entries)


@functools.cache   # the suites draw g <= 2 and k <= 2: a handful of wedges
def _wedge(g: int, k: int) -> WedgeSignature:
    return PuncturedSignature(ManifoldModel.default(g), k).wedge


def _map(spec: tuple) -> SelfMapClass:
    g, k, circ, entries = spec
    sig = _wedge(g, k)
    labels = sig.labels
    spheres: dict = {lab: {} for lab in labels}
    for src, tgt, ring_spec in entries:
        vec = spheres[labels[src]]   # repeated targets add; SelfMapClass drops zeros
        vec[labels[tgt]] = vec.get(labels[tgt], RingElem.zero()) + _ring(ring_spec)
    return SelfMapClass(sig, FreeEndo([FreeWord(ls) for ls in circ]), spheres)


def _rand_braid_spec(rng: random.Random, g: int, k: int,
                     max_len: int = 4) -> tuple:
    words = tuple(_rand_letters(rng, g, max_len) for _ in range(k))
    perm = list(range(k))
    rng.shuffle(perm)
    return (words, tuple(perm))


def _braid(spec: tuple) -> BraidElement:
    words, perm = spec
    return BraidElement(tuple(FreeWord(ls) for ls in words), perm)


def _rand_model_spec(rng: random.Random, g: int) -> tuple:
    # One draw in five is the default model; the others have a random character
    # and 0-3 crossings per loop, of random cell, sign and prefix (0-3 letters).
    if rng.random() < 0.2:
        return ((1,) * g, tuple(((i, 1, ()),) for i in range(1, g + 1)))
    character = tuple(rng.choice((1, -1)) for _ in range(g))
    return (character, tuple(
        tuple((rng.randint(1, g), rng.choice((1, -1)), _rand_letters(rng, g, 3))
              for _ in range(rng.randrange(4)))
        for _ in range(g)
    ))


def _model(g: int, spec: tuple) -> ManifoldModel:
    character, crossings = spec
    rows = tuple(tuple((c, e, FreeWord(p)) for c, e, p in row) for row in crossings)
    return ManifoldModel(g, 3, character, rows)


def _rand_target_spec(rng: random.Random, g: int) -> tuple:
    # The charge, the closure of a random nonempty set of classes under the
    # action, is a union of its orbits; the reflection is a random
    # involution that pairs classes inside the charge and, separately,
    # outside it.  So the charge is closed under both.
    h = rng.randrange(0, 3)
    n = rng.randrange(1, 5)
    action = []
    for _ in range(h):
        perm = list(range(n))
        rng.shuffle(perm)
        action.append(tuple(perm))
    f_classes = tuple(
        tuple(_rand_letters(rng, h, 3) if h else () for _ in range(g))
        for _ in range(rng.randrange(1, 3))
    )
    reached = {i for i in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
    todo = list(reached)
    while todo:
        c = todo.pop()
        new = {perm[c] for perm in action} - reached
        reached |= new
        todo += new
    charge = tuple(sorted(reached))
    reflection = list(range(n))
    for part in (list(charge), [i for i in range(n) if i not in reached]):
        rng.shuffle(part)
        for a, b in zip(part[::2], part[1::2]):
            reflection[a], reflection[b] = b, a
    return (h, n, tuple(action), tuple(reflection), charge, f_classes)


def _target(spec: tuple) -> TargetModel:
    h, n, action, reflection, charge, f_classes = spec
    return TargetModel(
        pi1_gens=h,
        classes=tuple(range(n)),
        action=action,
        reflection=reflection,
        charge=charge,
        f_classes=tuple(tuple(FreeWord(ls) for ls in ws) for ws in f_classes),
    )


def _hyp_model(character: tuple[int, ...]) -> ManifoldModel:
    return dataclasses.replace(ManifoldModel.default(len(character)),
                               character=character, low_handle_dim=True)


def _window_mismatch(
    t: TruncatedMatrix, c: SelfMapClass
) -> tuple[IndexKey, IndexKey] | None:
    """First cell of window t, in window order, that differs from c's matrix.

    Cell ((l, v), (b, u)) is the coefficient of v*slope(u)^-1 in block
    (l, b), the l-component of c's image of b, with slope c's circle part.
    So a term (w, coef) of that block sits at row (l, w*slope(u)) of
    column (b, u) and every other cell is zero.  The expected window is
    built from c's blocks alone, keeping the rows inside t, and compared
    with t's nonzero entries as one dict.  It deliberately does not use
    materialize(), which built the windows being checked.  Window order
    is by row, then column, each by label, then shortlex word.
    """
    expected: dict[tuple[IndexKey, IndexKey], int] = {}
    for u in enumerate_words(t.sig.g, t.radius):
        su = endo_apply(c.circle_part, u)
        for b in t.sig.labels:
            col = (b, u)
            for l, r in c.sphere_part[b].items():
                for w, coef in r.terms.items():
                    row = (l, FreeWord._wrap(w) * su)
                    if t.has_row(row):
                        expected[(row, col)] = coef
    if t.entries == expected:
        return None
    return min(
        (key for key in t.entries.keys() | expected.keys()
         if t.entries.get(key, 0) != expected.get(key, 0)),
        key=lambda key: [(lab, shortlex_key(w)) for lab, w in key],
    )


# --- suite definitions ---


def _ring_properties() -> list[Property]:
    def gen_words(rng: random.Random) -> tuple:
        g = rng.randrange(1, 4)
        return (g, tuple(_rand_letters(rng, g, 8) for _ in range(3)))

    def fails_group(case: tuple) -> str | None:
        g, (x, y, z) = case
        a, b, c = FreeWord(x), FreeWord(y), FreeWord(z)
        if (a * b) * c != a * (b * c):
            return "concatenation is not associative"
        if a * ~a != FreeWord() or ~a * a != FreeWord():
            return "inverse law fails"
        if a * FreeWord() != a or FreeWord() * a != a:
            return "identity law fails"
        return None

    def fails_reduce(case: tuple) -> str | None:
        g, (x, _, _) = case
        w = FreeWord(x)
        if FreeWord(w.letters) != w or FreeWord(w.letters).letters != w.letters:
            return "reduction is not idempotent"
        return None

    def gen_rings(rng: random.Random) -> tuple:
        g = rng.randrange(1, 4)
        return (g, tuple(_rand_ring_spec(rng, g) for _ in range(3)))

    def fails_assoc(case: tuple) -> str | None:
        g, (x, y, z) = case
        a, b, c = _ring(x), _ring(y), _ring(z)
        if (a * b) * c != a * (b * c):
            return "ring product is not associative"
        return None

    def fails_distrib(case: tuple) -> str | None:
        g, (x, y, z) = case
        a, b, c = _ring(x), _ring(y), _ring(z)
        if a * (b + c) != a * b + a * c or (a + b) * c != a * c + b * c:
            return "distributivity fails"
        return None

    def fails_augment(case: tuple) -> str | None:
        g, (x, y, _) = case
        a, b = _ring(x), _ring(y)
        if augment(a * b) != augment(a) * augment(b):
            return "augmentation is not multiplicative"
        if augment(a + b) != augment(a) + augment(b):
            return "augmentation is not additive"
        return None

    def gen_endo(rng: random.Random) -> tuple:
        g = rng.randrange(1, 4)
        images = tuple(_rand_letters(rng, g, 2) for _ in range(g))
        return (g, images, _rand_ring_spec(rng, g), _rand_ring_spec(rng, g))

    def fails_endo(case: tuple) -> str | None:
        g, images, x, y = case
        phi = FreeEndo([FreeWord(ls) for ls in images])
        a, b = _ring(x), _ring(y)
        if ring_endo_apply(phi, a * b) != ring_endo_apply(phi, a) * ring_endo_apply(phi, b):
            return "induced ring map is not multiplicative"
        return None

    return [
        Property("group-axioms", gen_words, fails_group),
        Property("reduce-idempotent", gen_words, fails_reduce),
        Property("ring-associativity", gen_rings, fails_assoc),
        Property("ring-distributivity", gen_rings, fails_distrib),
        Property("augmentation-homomorphism", gen_rings, fails_augment),
        Property("induced-ring-map-multiplicative", gen_endo, fails_endo),
    ]


def _monoid_properties() -> list[Property]:
    def gen_three(rng: random.Random) -> tuple:
        g = rng.randrange(1, 3)
        k = rng.randrange(0, 3)
        return tuple(_rand_map_spec(rng, g, k) for _ in range(3))

    def fails_assoc(case: tuple) -> str | None:
        a, b, c = (_map(s) for s in case)
        if compose(compose(a, b), c) != compose(a, compose(b, c)):
            return "composition is not associative"
        return None

    def fails_identity(case: tuple) -> str | None:
        a = _map(case[0])
        ident = identity_map(a.sig)
        if compose(ident, a) != a or compose(a, ident) != a:
            return "identity law fails"
        return None

    def fails_circle(case: tuple) -> str | None:
        a, b = _map(case[0]), _map(case[1])
        if compose(a, b).circle_part != endo_compose(a.circle_part, b.circle_part):
            return "circle part is not functorial"
        return None

    def fails_homology(case: tuple) -> str | None:
        a, b = _map(case[0]), _map(case[1])
        ma, mb = top_homology_matrix(a), top_homology_matrix(b)
        n = len(ma)
        prod = [
            [sum(ma[i][m] * mb[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if top_homology_matrix(compose(a, b)) != prod:
            return "top homology is not functorial"
        return None

    def gen_single_terms(rng: random.Random) -> tuple:
        # g = 2, so a product of two words shows the order it was taken in
        k = rng.randrange(0, 3)
        specs = []
        for _ in range(2):
            circ = tuple(_rand_letters(rng, 2, 2) for _ in range(2))
            entries = tuple(
                (src, rng.randrange(2 + k),
                 ((_rand_letters(rng, 2, 2), rng.choice([-2, -1, 1, 2])),))
                for src in range(2 + k)
            )
            specs.append((2, k, circ, entries))
        return tuple(specs)

    def fails_product_order(case: tuple) -> str | None:
        # b sends a label to c_b*u_b*m and a sends m to c_a*u_a*l, so
        # compose(a, b) sends it to c_a*c_b * u_a*slope_a(u_b) at l
        a, b = _map(case[0]), _map(case[1])
        ab = compose(a, b)
        for lab in a.sig.labels:
            expected = {}
            for m, r_b in b.sphere_part[lab].items():
                (u_b, c_b), = r_b.terms.items()
                for l, r_a in a.sphere_part[m].items():
                    (u_a, c_a), = r_a.terms.items()
                    w = FreeWord(u_a) * endo_apply(a.circle_part, FreeWord(u_b))
                    expected[l] = {w.letters: c_a * c_b}
            if {l: r.terms for l, r in ab.sphere_part[lab].items()} != expected:
                return f"compose's image of {lab} is not c_a*c_b * u_a*slope_a(u_b)"
        return None

    return [
        Property("compose-associative", gen_three, fails_assoc),
        Property("identity-laws", gen_three, fails_identity),
        Property("circle-functor", gen_three, fails_circle),
        Property("homology-functor", gen_three, fails_homology),
        Property("compose-product-order", gen_single_terms, fails_product_order),
    ]


def _embed_properties() -> list[Property]:
    def gen_map(rng: random.Random) -> tuple:
        g = rng.randrange(1, 3)
        k = rng.randrange(0, 3)
        return (_rand_map_spec(rng, g, k),)

    def fails_round_trip(case: tuple) -> str | None:
        # the radius-0 window holds every block term once, read back cell by cell
        a = _map(case[0])
        if _window_mismatch(materialize(a, 0), a) is not None:
            return "embedding round trip fails"
        return None

    def gen_short(rng: random.Random) -> tuple:
        # slope images of length <= 1 keep truncation windows small
        g = rng.randrange(1, 3)
        k = rng.randrange(0, 2)
        specs = []
        for _ in range(2):
            gg, kk, circ, entries = _rand_map_spec(rng, g, k)
            circ = tuple(ls[:1] for ls in circ)
            specs.append((gg, kk, circ, entries))
        return (rng.choice([1, 2]), specs[0], specs[1])

    radius_log: list[list[int]] = []

    def fails_truncated(case: tuple) -> str | None:
        radius, spec_a, spec_b = case
        a, b = _map(spec_a), _map(spec_b)
        tb_mat = materialize(b, radius)
        ta_mat = materialize(a, tb_mat.row_radius)
        prod = truncated_product(ta_mat, tb_mat)
        radius_log.append([radius, tb_mat.row_radius, ta_mat.row_radius])
        bad = _window_mismatch(prod, compose(a, b))
        if bad is not None:
            return f"truncated product wrong at {bad[0]}, {bad[1]}"
        return None

    def fails_diag(case: tuple) -> str | None:
        # radius 1 adds the columns u != e, where the slope shifts each block
        a = _map(case[0])
        if _window_mismatch(materialize(a, 1), a) is not None:
            return "materialized window is not diagonally constant"
        return None

    return [
        Property("embedding-round-trip", gen_map, fails_round_trip),
        Property("truncated-matmul", gen_short, fails_truncated, cap=60,
                 extra={"radius_log": radius_log}),
        Property("diagonal-constancy", gen_map, fails_diag, cap=100),
    ]


def _push_properties() -> list[Property]:
    def gen_word(rng: random.Random) -> tuple:
        g = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        slot = rng.randrange(1, k + 1)
        return (g, k, slot, _rand_model_spec(rng, g), _rand_letters(rng, g, 8))

    def fails_closed(case: tuple) -> str | None:
        g, k, slot, mspec, letters = case
        sig = PuncturedSignature(_model(g, mspec), k)
        w = FreeWord(letters)
        if push_word_closed(sig, w, slot) != push_word(sig, w, slot):
            return "closed form disagrees with letterwise composition"
        return None

    def fails_inverse(case: tuple) -> str | None:
        g, k, slot, mspec, letters = case
        sig = PuncturedSignature(_model(g, mspec), k)
        w = FreeWord(letters)
        ident = identity_map(sig.wedge)
        if compose(push_word(sig, w, slot), push_word(sig, ~w, slot)) != ident:
            return "push of inverse word is not inverse"
        return None

    def gen_cocycle(rng: random.Random) -> tuple:
        g = rng.randrange(1, 4)
        return (g, _rand_model_spec(rng, g), _rand_letters(rng, g, 6),
                _rand_letters(rng, g, 6))

    def fails_cocycle(case: tuple) -> str | None:
        g, mspec, x, y = case
        model = _model(g, mspec)
        w1, w2 = FreeWord(x), FreeWord(y)
        (c1, f1), (c2, f2), (c12, f12) = (
            _slot_terms(model, w.letters) for w in (w1, w2, w1 * w2))
        if c12 != c1 * c2:
            return "orientation sign is not multiplicative"
        for i in range(g):
            rhs = _ring(f1[i].items()) + RingElem.from_word(w1, c1) * _ring(f2[i].items())
            if _ring(f12[i].items()) != rhs:
                return f"crossing cocycle fails for cell {i + 1}"
        return None

    def gen_braids(rng: random.Random) -> tuple:
        g = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        return (g, k, _rand_model_spec(rng, g),
                _rand_braid_spec(rng, g, k), _rand_braid_spec(rng, g, k))

    def fails_braid_hom(case: tuple) -> str | None:
        g, k, mspec, sa, sb = case
        sig = PuncturedSignature(_model(g, mspec), k)
        a, b = _braid(sa), _braid(sb)
        lhs = push_braid(sig, braid_mul(a, b))
        rhs = compose(push_braid(sig, a), push_braid(sig, b))
        if lhs != rhs:
            return "push of a braid product is not the composite"
        return None

    def fails_recover(case: tuple) -> str | None:
        g, k, mspec, sa, _ = case
        sig = PuncturedSignature(_model(g, mspec), k)
        a = _braid(sa)
        h = push_braid(sig, a)
        try:
            got = recover_braid(sig, h)
        except NotInImage:
            got = None
        if got != a:
            return "braid recovery does not round trip"
        return None

    return [
        Property("closed-form-agrees", gen_word, fails_closed),
        Property("push-inverse-law", gen_word, fails_inverse, cap=200),
        Property("crossing-cocycle", gen_cocycle, fails_cocycle),
        Property("braid-homomorphism", gen_braids, fails_braid_hom, cap=300),
        Property("recover-round-trip", gen_braids, fails_recover, cap=300),
    ]


def _orbits_properties() -> list[Property]:
    def gen_axiom(rng: random.Random) -> tuple:
        # Half the models are non-orientable, so act's reflection step runs.
        g = rng.randrange(1, 3)
        character = [1] * g
        if rng.random() < 0.5:
            character = [rng.choice((1, -1)) for _ in range(g)]
            character[rng.randrange(g)] = -1
        tspec = _rand_target_spec(rng, g)
        k = rng.randrange(1, 4)
        charge = tspec[4]
        state = (rng.randrange(0, len(tspec[5])),
                 tuple(rng.choice(charge) for _ in range(k)))
        return (tuple(character), tspec, state,
                _rand_braid_spec(rng, g, k, max_len=3),
                _rand_braid_spec(rng, g, k, max_len=3))

    def fails_axiom(case: tuple) -> str | None:
        character, tspec, (f, classes), sa, sb = case
        target = _target(tspec)
        model = _hyp_model(character)
        s = MapState(f, classes)
        a, b = _braid(sa), _braid(sb)
        combined = act(model, target, braid_mul(a, b), s)
        stepwise = act(model, target, a, act(model, target, b, s))
        if combined != stepwise:
            return "braid action axiom fails"
        return None

    def fails_charge(case: tuple) -> str | None:
        character, tspec, (f, classes), sa, _ = case
        target = _target(tspec)
        out = act(_hyp_model(character), target, _braid(sa), MapState(f, classes))
        if any(i not in target.charge_set for i in out.g_classes):
            return "action left the charge"
        return None

    def gen_counts(rng: random.Random) -> tuple:
        g = rng.randrange(0, 3)
        return (g, _rand_target_spec(rng, g), rng.randrange(0, 4))

    def fails_counts(case: tuple) -> str | None:
        g, tspec, k = case
        target = _target(tspec)
        model = _hyp_model((1,) * g)   # the formula refuses non-orientable models
        formula = components_formula(target, model, k)
        brute = components_bruteforce(target, model, k)
        if formula != brute:
            return f"formula {formula} != brute force {brute}"
        return None

    return [
        Property("action-axiom", gen_axiom, fails_axiom, cap=300),
        Property("charge-preserved", gen_axiom, fails_charge, cap=300),
        Property("formula-vs-bruteforce", gen_counts, fails_counts, cap=80),
    ]


def _negative_control() -> Property:
    # deliberately false claim: concatenation never cancels letters
    def gen(rng: random.Random) -> tuple:
        return (_rand_letters(rng, 2, 8),)

    def fails(case: tuple) -> str | None:
        (letters,) = case
        if len(FreeWord(letters).letters) != len(letters):
            return "letters cancelled"
        return None

    return Property("negative-control", gen, fails)


_SUITE_BUILDERS: dict[str, Callable[[], list[Property]]] = {
    "ring": _ring_properties,
    "monoid": _monoid_properties,
    "embed": _embed_properties,
    "push": _push_properties,
    "orbits": _orbits_properties,
}
SUITES = (*_SUITE_BUILDERS, "all")


def run_suite(suite: str, seed: int = 0, cases: int = 100,
              inject_fault: bool = False) -> SuiteReport:
    """Run one named suite (or all of them) and report per-property results."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    check_count("cases", cases)
    if cases > MAX_CASES:
        raise TooLarge(f"{cases} cases per property is over the cap {MAX_CASES}")
    builders = _SUITE_BUILDERS.values() if suite == "all" else [_SUITE_BUILDERS[suite]]
    props: list[Property] = []
    for build in builders:
        props.extend(build())
    if inject_fault:
        props.append(_negative_control())
    results = [_run_property(p, seed, cases) for p in props]
    return SuiteReport(suite, seed, cases, results)
