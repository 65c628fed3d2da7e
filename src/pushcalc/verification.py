"""Seeded property suites behind the verify command.

Each suite draws random cases from an explicit seed, checks module
invariants, and reports per-property case counts.  Failing cases are
greedily shrunk (dropping tuple elements wherever the smaller case still
fails) before being reported.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .embedding import (
    IndexKey,
    TruncatedMatrix,
    is_diagonally_constant,
    materialize,
    truncated_product,
)
from .errors import TooLarge, check_count
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
from .words import FreeEndo, FreeWord, endo_apply, endo_compose, enumerate_words

SUITES = ("ring", "monoid", "embed", "push", "orbits", "all")
# Most cases run_suite draws per property: `verify --suite all --seed 0`
# takes about 3 s at 1,000 cases and 23 s at this cap on a 2-CPU Xeon.
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
            small = _shrink(case, prop.fails)
            detail = prop.fails(small) or msg
            return PropertyResult(
                prop.name, i + 1, False, f"{detail}; case {small!r}", prop.extra
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
    return (h, n, tuple(action), f_classes)


def _target(spec: tuple) -> TargetModel:
    h, n, action, f_classes = spec
    return TargetModel(
        pi1_gens=h,
        classes=tuple(range(n)),
        action=action,
        reflection=tuple(range(n)),
        charge=tuple(range(n)),
        f_classes=tuple(tuple(FreeWord(ls) for ls in ws) for ws in f_classes),
    )


def _hyp_model(g: int) -> ManifoldModel:
    return dataclasses.replace(ManifoldModel.default(g), low_handle_dim=True)


def _window_mismatch(
    t: TruncatedMatrix, c: SelfMapClass
) -> tuple[IndexKey, IndexKey] | None:
    """First cell of window t, rows then columns, that differs from c's matrix.

    Cell ((l, v), (b, u)) is the coefficient of v*slope(u)^-1 in block
    (l, b), the l-component of c's image of b, with slope c's circle part.
    So a term (w, coef) of that block sits at row (l, w*slope(u)) of
    column (b, u) and every other cell is zero.  The expected window is
    built from c's blocks alone, keeping the rows inside t, and compared
    with t's nonzero entries as one dict.  It deliberately does not use
    materialize(), which built the windows being checked.
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
    row_index = {row: i for i, row in enumerate(t.rows)}
    col_index = {col: j for j, col in enumerate(t.cols)}
    return min(
        (key for key in t.entries.keys() | expected.keys()
         if t.entries.get(key, 0) != expected.get(key, 0)),
        key=lambda key: (row_index[key[0]], col_index[key[1]]),
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

    return [
        Property("compose-associative", gen_three, fails_assoc),
        Property("identity-laws", gen_three, fails_identity),
        Property("circle-functor", gen_three, fails_circle),
        Property("homology-functor", gen_three, fails_homology),
    ]


def _embed_properties() -> list[Property]:
    def gen_pair(rng: random.Random) -> tuple:
        g = rng.randrange(1, 3)
        k = rng.randrange(0, 3)
        return (_rand_map_spec(rng, g, k), _rand_map_spec(rng, g, k))

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
        a = _map(case[0])
        t = materialize(a, 1)
        if not is_diagonally_constant(t, a.circle_part):
            return "materialized window is not diagonally constant"
        return None

    return [
        Property("embedding-round-trip", gen_pair, fails_round_trip),
        Property("truncated-matmul", gen_short, fails_truncated, cap=60,
                 extra={"radius_log": radius_log}),
        Property("diagonal-constancy", gen_pair, fails_diag, cap=100),
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
        got = recover_braid(sig, push_braid(sig, a))
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
        g = rng.randrange(1, 3)
        tspec = _rand_target_spec(rng, g)
        k = rng.randrange(1, 4)
        n = tspec[1]
        state = (rng.randrange(0, len(tspec[3])),
                 tuple(rng.randrange(0, n) for _ in range(k)))
        return (g, tspec, state,
                _rand_braid_spec(rng, g, k, max_len=3),
                _rand_braid_spec(rng, g, k, max_len=3))

    def fails_axiom(case: tuple) -> str | None:
        g, tspec, (f, classes), sa, sb = case
        target = _target(tspec)
        model = _hyp_model(g)
        s = MapState(f, classes)
        a, b = _braid(sa), _braid(sb)
        combined = act(model, target, braid_mul(a, b), s)
        stepwise = act(model, target, a, act(model, target, b, s))
        if combined != stepwise:
            return "braid action axiom fails"
        return None

    def fails_charge(case: tuple) -> str | None:
        g, tspec, (f, classes), sa, _ = case
        target = _target(tspec)
        out = act(_hyp_model(g), target, _braid(sa), MapState(f, classes))
        if any(i not in target.charge_set for i in out.g_classes):
            return "action left the charge"
        return None

    def gen_counts(rng: random.Random) -> tuple:
        g = rng.randrange(0, 3)
        return (g, _rand_target_spec(rng, g), rng.randrange(0, 4))

    def fails_counts(case: tuple) -> str | None:
        g, tspec, k = case
        target = _target(tspec)
        model = _hyp_model(g)
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


def run_suite(suite: str, seed: int = 0, cases: int = 100,
              inject_fault: bool = False) -> SuiteReport:
    """Run one named suite (or all of them) and report per-property results."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    check_count("cases", cases)
    if cases > MAX_CASES:
        raise TooLarge(f"{cases} cases per property is over the cap {MAX_CASES}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    props: list[Property] = []
    for name in names:
        props.extend(_SUITE_BUILDERS[name]())
    if inject_fault:
        props.append(_negative_control())
    results = [_run_property(p, seed, cases) for p in props]
    return SuiteReport(suite, seed, cases, results)
