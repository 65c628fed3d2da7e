"""Acceptance criteria: exact structural equalities with runtime budgets.

Each test prints one line, "criterion N (label): PASS/FAIL [elapsed]",
and fails if the checked equalities break or the budget is exceeded.
Budgets at or below 100 ms get a warmup call before timing starts.
"""
from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager
from time import perf_counter

from pushcalc.embedding import materialize, max_shift, truncated_product
from pushcalc.monoid import (
    SelfMapClass,
    WedgeSignature,
    compose,
    top_homology_matrix,
)
from pushcalc.orbits import (
    MapState,
    TargetModel,
    act,
    components_bruteforce,
    components_formula,
)
from pushcalc.pushing import (
    BraidElement,
    ManifoldModel,
    PuncturedSignature,
    _slot_terms,
    braid_mul,
    kernel_report,
    push_braid,
    push_word,
    push_word_closed,
    recover_braid,
)
from pushcalc.ring import RingElem, SphereLabel
from pushcalc.verification import run_suite
from pushcalc.words import FreeEndo, FreeWord, endo_apply, enumerate_words, parse_word

from _helpers import coefficient, verify_inverse

A = parse_word("a1")
P1 = SphereLabel("p", 1)
T1 = SphereLabel("t", 1)
SIG11 = PuncturedSignature(ManifoldModel.default(1), 1)


@contextmanager
def criterion(n: int, label: str, budget_s: float):
    start = perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {n} ({label}): FAIL")
        raise
    elapsed = perf_counter() - start
    status = "PASS" if elapsed < budget_s else "FAIL"
    print(f"criterion {n} ({label}): {status} "
          f"[{elapsed * 1000:.1f} ms, budget {budget_s * 1000:.0f} ms]")
    assert elapsed < budget_s, f"criterion {n} exceeded its runtime budget"


def rank1_map(p_ring: RingElem, t_p_ring: RingElem) -> SelfMapClass:
    return SelfMapClass(
        SIG11.wedge,
        FreeEndo([A]),
        {
            P1: {P1: p_ring},
            T1: {T1: RingElem.one(), P1: t_p_ring},
        },
    )


def rand_word(rng: random.Random, g: int, max_len: int) -> FreeWord:
    return FreeWord([
        rng.choice([1, -1]) * rng.randrange(1, g + 1)
        for _ in range(rng.randrange(0, max_len + 1))
    ])


def _ring(terms: dict[tuple[int, ...], int]) -> RingElem:
    return RingElem([(FreeWord(letters), n) for letters, n in terms.items()])


def rand_ring(rng: random.Random, g: int, max_terms: int = 2,
              max_len: int = 2) -> RingElem:
    return RingElem([
        (rand_word(rng, g, max_len), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(0, max_terms + 1))
    ])


def rand_map(rng: random.Random, g: int, k: int,
             circ_len: int = 2) -> SelfMapClass:
    labels = tuple(
        [SphereLabel("p", i) for i in range(1, k + 1)]
        + [SphereLabel("t", i) for i in range(1, g + 1)]
    )
    sig = WedgeSignature(g, labels)
    spheres = {
        src: {tgt: rand_ring(rng, g) for tgt in labels if rng.random() < 0.4}
        for src in labels
    }
    circ = FreeEndo([rand_word(rng, g, circ_len) for _ in range(g)])
    return SelfMapClass(sig, circ, spheres)


def rand_braid(rng: random.Random, g: int, k: int, max_len: int) -> BraidElement:
    words = tuple(rand_word(rng, g, max_len) for _ in range(k))
    perm = list(range(k))
    rng.shuffle(perm)
    return BraidElement(words, tuple(perm))


def test_criterion_1_base_values():
    push_word(SIG11, A, 1)  # warmup
    with criterion(1, "base letter pushes", 0.001):
        h = push_word(SIG11, A, 1)
        h_inv = push_word(SIG11, ~A, 1)
        assert h == rank1_map(RingElem.from_word(A), RingElem.one())
        assert h_inv == rank1_map(RingElem.from_word(~A),
                                  RingElem.from_word(~A, -1))
        assert verify_inverse(h, h_inv)


def test_criterion_2_power_formula():
    push_word(SIG11, A ** 10, 1)  # warmup
    with criterion(2, "power formula n=1..50", 0.100):
        for n in range(1, 51):
            expected = rank1_map(
                RingElem.from_word(A ** n),
                RingElem([(A ** i, 1) for i in range(n)]),
            )
            assert push_word(SIG11, A ** n, 1) == expected


def test_criterion_3_top_homology():
    with criterion(3, "degree-matrix of the basic push", 1.0):
        assert top_homology_matrix(push_word(SIG11, A, 1)) == [[1, 1], [0, 1]]


def test_criterion_4_closed_form_and_cocycle():
    rng = random.Random(40400)
    with criterion(4, "closed form vs letterwise, cocycle", 5.0):
        for _ in range(500):
            g = rng.choice([1, 2, 3])
            k = rng.randrange(1, 4)
            slot = rng.randrange(1, k + 1)
            sig = PuncturedSignature(ManifoldModel.default(g), k)
            w = rand_word(rng, g, 12)
            assert push_word_closed(sig, w, slot) == push_word(sig, w, slot)
        sig2 = PuncturedSignature(ManifoldModel.default(2), 1)
        count = 0
        for w in enumerate_words(2, 5):
            assert push_word_closed(sig2, w, 1) == push_word(sig2, w, 1)
            count += 1
        assert count == 485
        # The twisted cocycle F(uv) = F(u) + c(u)*u*F(v) on random crossing
        # data and orientation characters.
        for _ in range(500):
            g = rng.choice([1, 2, 3])
            model = ManifoldModel(
                g=g,
                d=3,
                character=tuple(rng.choice((1, -1)) for _ in range(g)),
                crossings=tuple(
                    tuple((rng.randint(1, g), rng.choice((1, -1)), rand_word(rng, g, 3))
                          for _ in range(rng.randrange(4)))
                    for _ in range(g)
                ),
            )
            w1, w2 = rand_word(rng, g, 8), rand_word(rng, g, 8)
            (c1, f1), (c2, f2), (c12, f12) = (
                _slot_terms(model, w.letters) for w in (w1, w2, w1 * w2)
            )
            assert c12 == c1 * c2
            for i in range(g):
                assert _ring(f12[i]) == _ring(f1[i]) + RingElem.from_word(w1, c1) * _ring(f2[i])


def test_criterion_5_embedding_and_truncation():
    rng = random.Random(50500)
    with criterion(5, "matrix embedding and truncated products", 10.0):
        for _ in range(50):
            g = rng.choice([1, 2])
            k = rng.randrange(0, 2)
            a = rand_map(rng, g, k, circ_len=1)
            b = rand_map(rng, g, k, circ_len=1)
            tb = materialize(b, 3)
            assert tb.row_radius == 3 + max_shift(b)
            ta = materialize(a, tb.row_radius)
            prod = truncated_product(ta, tb)
            c = compose(a, b)

            def honest(row, col):
                # block (l, b) of c's matrix is the l-component of c's image of b
                (lab_r, v), (lab_c, u) = row, col
                return coefficient(c.sphere_part[lab_c].get(lab_r, RingElem.zero()),
                                   v * ~endo_apply(c.circle_part, u))

            for (row, col), value in prod.entries.items():
                assert value == honest(row, col)
            window = materialize(c, 3)
            assert set(window.rows) <= set(prod.rows)
            assert window.cols == prod.cols
            for (row, col), value in window.entries.items():
                assert prod.entry(row, col) == value
                assert value == honest(row, col)


def test_criterion_6_injectivity_and_recovery():
    rng = random.Random(60600)
    with criterion(6, "trivial kernel and braid recovery", 30.0):
        rep1 = kernel_report(PuncturedSignature(ManifoldModel.default(1), 1),
                             max_word_len=6, max_braids=100_000)
        assert rep1.exhaustive and rep1.total_checked == 13
        assert rep1.passed and rep1.nontrivial_kernel == ()
        rep2 = kernel_report(PuncturedSignature(ManifoldModel.default(2), 2),
                             max_word_len=2, max_braids=100_000)
        assert rep2.exhaustive and rep2.total_checked == 17 * 17 * 2
        assert rep2.passed and rep2.nontrivial_kernel == ()
        for _ in range(300):
            g = rng.randrange(1, 4)
            k = rng.randrange(1, 4)
            braid = rand_braid(rng, g, k, max_len=8)
            sig = PuncturedSignature(ManifoldModel.default(g), k)
            assert recover_braid(sig, push_braid(sig, braid)) == braid


def test_criterion_7_wreath_homomorphism():
    rng = random.Random(70700)
    with criterion(7, "braid push is a homomorphism", 10.0):
        for _ in range(300):
            g = rng.randrange(1, 4)
            k = rng.randrange(1, 4)
            sig = PuncturedSignature(ManifoldModel.default(g), k)
            a = rand_braid(rng, g, k, max_len=4)
            b = rand_braid(rng, g, k, max_len=4)
            assert push_braid(sig, braid_mul(a, b)) == compose(
                push_braid(sig, a), push_braid(sig, b)
            )


def _target(pi1_gens, classes, action, charge=None, f_classes=()):
    n = len(classes)
    return TargetModel(
        pi1_gens=pi1_gens,
        classes=tuple(classes),
        action=tuple(tuple(p) for p in action),
        reflection=tuple(range(n)),
        charge=tuple(charge) if charge is not None else tuple(range(n)),
        f_classes=tuple(
            tuple(parse_word(w) for w in ws) for ws in f_classes
        ),
    )


def test_criterion_8_component_counts_and_action():
    trivial3 = _target(1, "xyz", [(0, 1, 2)], f_classes=[["e"]])
    trivial3_3f = _target(1, "xyz", [(0, 1, 2)], f_classes=[["e"], ["a1"], ["a1^2"]])
    trivial4_2f = _target(1, "wxyz", [(0, 1, 2, 3)], f_classes=[["e"], ["a1"]])
    cycle3 = _target(1, "xyz", [(1, 2, 0)], f_classes=[["a1"]])
    swap_z = _target(1, "xyz", [(1, 0, 2)], f_classes=[["a1"]])
    two_gen = _target(2, "wxyz", [(1, 0, 2, 3), (0, 1, 3, 2)],
                      f_classes=[["a1", "a2"]])
    two_gen_2f = _target(2, "wxyz", [(1, 0, 2, 3), (0, 1, 3, 2)],
                         f_classes=[["a1", "a2"], ["e", "e"]])
    sub_charge = _target(1, "wxyz", [(1, 0, 2, 3)], charge=(0, 1),
                         f_classes=[["a1"]])
    g0_3 = _target(0, "xyz", [], f_classes=[[]])
    g0_2f = _target(0, "xy", [], f_classes=[[], []])
    battery = [
        (trivial3, 1, 2, 6),          # trivial action, three classes, two punctures
        (cycle3, 1, 1, 1),            # free 3-cycle fuses everything
        (cycle3, 1, 3, 1),
        (trivial3_3f, 1, 0, 3),       # k=0 counts f classes
        (trivial3, 1, 0, 1),
        (trivial4_2f, 1, 1, 8),       # k=1 trivial: |f| * |charge|
        (g0_3, 0, 3, 10),             # plain symmetric powers at g=0
        (g0_2f, 0, 2, 6),
        (g0_3, 0, 0, 1),
        (swap_z, 1, 2, 3),            # mixed orbits {x,y}, {z}
        (swap_z, 1, 3, 4),
        (two_gen, 2, 2, 3),
        (two_gen_2f, 2, 2, 13),       # second, trivial f adds multichoose(4,2)
        (sub_charge, 1, 2, 1),        # charge restricted to one fused orbit
        (trivial3, 1, 3, 10),
    ]
    rng = random.Random(80800)
    with criterion(8, "component counts and braid action axiom", 30.0):
        assert len(battery) >= 12
        for target, g, k, expected in battery:
            model = dataclasses.replace(ManifoldModel.default(g),
                                        low_handle_dim=True)
            assert components_formula(target, model, k) == expected
            assert components_bruteforce(target, model, k) == expected
        for _ in range(200):
            g = rng.choice([1, 2])
            target = cycle3 if g == 1 else two_gen
            model = dataclasses.replace(ManifoldModel.default(g),
                                        low_handle_dim=True)
            k = rng.randrange(1, 4)
            s = MapState(0, tuple(rng.choice(target.charge) for _ in range(k)))
            b1 = rand_braid(rng, g, k, max_len=3)
            b2 = rand_braid(rng, g, k, max_len=3)
            assert act(model, target, braid_mul(b1, b2), s) == act(
                model, target, b1, act(model, target, b2, s)
            )


def test_criterion_9_algebra_suites():
    with criterion(9, "algebra property suites at 1000 cases", 10.0):
        ring_report = run_suite("ring", seed=90900, cases=1000)
        assert ring_report.ok
        names = {r.name: r for r in ring_report.results}
        assert names["group-axioms"].cases == 1000
        assert names["reduce-idempotent"].cases == 1000
        assert names["augmentation-homomorphism"].cases == 1000
        monoid_report = run_suite("monoid", seed=90901, cases=1000)
        assert monoid_report.ok
        assert all(r.cases == 1000 for r in monoid_report.results)
