"""Component counting: closed formula vs state-graph exploration vs enumeration."""
from __future__ import annotations

import dataclasses
import itertools
import random
from math import comb

import pytest

from pushcalc import orbits
from pushcalc.errors import HypothesisViolation, ParseError, SizeMismatch, TooLarge
from pushcalc.orbits import (
    MapState,
    TargetModel,
    _component_count,
    act,
    components_bruteforce,
    components_formula,
    target_from_json,
)
from pushcalc.pushing import BraidElement, ManifoldModel, braid_mul
from pushcalc.words import FreeWord, parse_word

E = FreeWord()


def hyp_model(g: int, character: tuple[int, ...] | None = None) -> ManifoldModel:
    # default crossing data with the low-handle-dimension hypothesis declared
    model = ManifoldModel.default(g)
    if character is not None:
        model = dataclasses.replace(model, character=character)
    return dataclasses.replace(model, low_handle_dim=True)


def make_target(
    pi1_gens: int,
    classes,
    action,
    reflection=None,
    charge=None,
    f_classes=(),
) -> TargetModel:
    n = len(classes)
    return TargetModel(
        pi1_gens=pi1_gens,
        classes=tuple(classes),
        action=tuple(tuple(p) for p in action),
        reflection=tuple(reflection) if reflection is not None else tuple(range(n)),
        charge=tuple(charge) if charge is not None else tuple(range(n)),
        f_classes=tuple(tuple(parse_word(w) for w in ws) for ws in f_classes),
    )


def braid(words: str, perm: tuple[int, ...]) -> BraidElement:
    ws = tuple(parse_word(w) for w in words.split("|")) if words else ()
    return BraidElement(ws, perm)


def state_from_ids(target: TargetModel, f: int, ids) -> MapState:
    """A MapState from class ids instead of indices."""
    return MapState(f, tuple(target.classes.index(c) for c in ids))


def state_ids(target: TargetModel, state: MapState) -> tuple:
    """The class ids carried by a state, in puncture order."""
    return tuple(target.classes[i] for i in state.g_classes)


def target_to_json(target: TargetModel) -> dict:
    """The JSON form target_from_json reads, written with class ids."""
    return {
        "pi1_gens": target.pi1_gens,
        "classes": list(target.classes),
        "action": {
            f"a{j + 1}": [target.classes[i] for i in perm]
            for j, perm in enumerate(target.action)
        },
        "reflection": [target.classes[i] for i in target.reflection],
        "charge": [target.classes[i] for i in target.charge],
        "f_classes": [[str(w) for w in ws] for ws in target.f_classes],
    }


# --- independent oracle: BFS orbits plus explicit multiset enumeration ---


def oracle_apply(target: TargetModel, w: FreeWord, idx: int) -> int:
    for letter in reversed(w.letters):
        perm = target.action[abs(letter) - 1]
        idx = perm[idx] if letter > 0 else perm.index(idx)
    return idx


def oracle_components(target: TargetModel, k: int) -> int:
    total = 0
    for f_words in target.f_classes:
        label: dict[int, int] = {}
        for start in target.charge:
            if start in label:
                continue
            orbit = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for w in f_words:
                    for nxt in (oracle_apply(target, w, cur),
                                oracle_apply(target, ~w, cur)):
                        if nxt not in orbit:
                            orbit.add(nxt)
                            stack.append(nxt)
            rep = min(orbit)
            for i in orbit:
                label[i] = rep
        seen = {
            tuple(sorted(label[i] for i in tup))
            for tup in itertools.combinations_with_replacement(target.charge, k)
        }
        total += len(seen)
    return total


# --- the battery: each entry is (name, target, rank g, k, expected count) ---


def trivial_target(n: int, f_count: int = 1, g: int = 1) -> TargetModel:
    classes = [f"c{i}" for i in range(n)]
    return make_target(
        1, classes, [tuple(range(n))],
        f_classes=[["e"] * g for _ in range(f_count)],
    )


CYCLE3 = make_target(1, ["x", "y", "z"], [(1, 2, 0)], f_classes=[["a1"]])
SWAP_Z = make_target(1, ["x", "y", "z"], [(1, 0, 2)], f_classes=[["a1"]])
TWO_GEN = make_target(
    2, ["w", "x", "y", "z"], [(1, 0, 2, 3), (0, 1, 3, 2)],
    f_classes=[["a1", "a2"]],
)
TWO_GEN_TWO_F = dataclasses.replace(
    TWO_GEN,
    f_classes=TWO_GEN.f_classes + ((parse_word("e"), parse_word("e")),),
)
SUB_CHARGE = make_target(
    1, ["w", "x", "y", "z"], [(1, 0, 2, 3)], charge=(0, 1),
    f_classes=[["a1"]],
)
SPARSE_TRIVIAL = make_target(
    1, ["c0", "c1", "c2", "c3", "c4"], [tuple(range(5))], charge=(0, 2, 4),
    f_classes=[["a1"]],
)
G0_THREE = make_target(0, ["x", "y", "z"], [], f_classes=[[]])
G0_TWO_F = make_target(0, ["x", "y"], [], f_classes=[[], []])

BATTERY = [
    # one trivial f, three classes, two punctures: multisets of size 2 from 3
    ("trivial-3-k2", trivial_target(3), 1, 2, 6),
    # a 3-cycle fuses the classes into one orbit
    ("cycle3-k1", CYCLE3, 1, 1, 1),
    ("cycle3-k2", CYCLE3, 1, 2, 1),
    ("cycle3-k3", CYCLE3, 1, 3, 1),
    # no punctures: one component per f class
    ("k0-three-f", trivial_target(3, f_count=3), 1, 0, 3),
    ("k0-one-f", CYCLE3, 1, 0, 1),
    # one puncture, trivial action: one component per (f, class) pair
    ("trivial-4-k1-two-f", trivial_target(4, f_count=2), 1, 1, 8),
    # g = 0: plain symmetric powers of the charge
    ("g0-3-k3", G0_THREE, 0, 3, 10),
    ("g0-2-k2-two-f", G0_TWO_F, 0, 2, 6),
    # transposition fixing z: orbits {x,y} and {z}
    ("swap-k2", SWAP_Z, 1, 2, 3),
    ("swap-k3", SWAP_Z, 1, 3, 4),
    # rank 2: a1 swaps w,x and a2 swaps y,z: two orbits
    ("two-gen-k2", TWO_GEN, 2, 2, 3),
    # adding a trivial second f class contributes multichoose(4, 2) = 10 more
    ("two-gen-two-f-k2", TWO_GEN_TWO_F, 2, 2, 13),
    # charge restricted to the single fused orbit {w, x}
    ("sub-charge-k2", SUB_CHARGE, 1, 2, 1),
    ("sub-charge-k3", SUB_CHARGE, 1, 3, 1),
    # trivial action on a sparse charge of three classes
    ("sparse-k2", SPARSE_TRIVIAL, 1, 2, 6),
]


@pytest.mark.parametrize("name,target,g,k,expected", BATTERY,
                         ids=[row[0] for row in BATTERY])
def test_battery_counts(name, target, g, k, expected):
    model = hyp_model(g)
    assert components_formula(target, model, k) == expected
    assert oracle_components(target, k) == expected
    assert components_bruteforce(target, model, k) == expected


def test_formula_equals_bruteforce_random_targets():
    rng = random.Random(20240817)
    for _ in range(40):
        g = rng.randrange(0, 3)
        h = rng.randrange(0, 3) if g > 0 else rng.randrange(0, 2)
        n = rng.randrange(1, 6)
        classes = [f"c{i}" for i in range(n)]
        action = []
        for _ in range(h):
            perm = list(range(n))
            rng.shuffle(perm)
            action.append(tuple(perm))
        # grow the charge as a union of orbits of the whole action
        seeds = rng.sample(range(n), rng.randrange(1, n + 1))
        charge = set(seeds)
        grew = True
        while grew:
            grew = False
            for perm in action:
                for i in list(charge):
                    if perm[i] not in charge:
                        charge.add(perm[i])
                        grew = True
        f_count = rng.randrange(1, 4)
        f_classes = []
        for _ in range(f_count):
            words = []
            for _ in range(g):
                letters = [
                    rng.choice([1, -1]) * rng.randrange(1, h + 1)
                    for _ in range(rng.randrange(0, 4))
                ] if h else []
                words.append(FreeWord(letters))
            f_classes.append(tuple(words))
        target = TargetModel(
            pi1_gens=h,
            classes=tuple(classes),
            action=tuple(action),
            reflection=tuple(range(n)),
            charge=tuple(sorted(charge)),
            f_classes=tuple(f_classes),
        )
        k = rng.randrange(0, 4)
        model = hyp_model(g)
        left = components_formula(target, model, k)
        right = components_bruteforce(target, model, k)
        assert left == right, (target, k, left, right)
        assert left == oracle_components(target, k)


def act_components(target: TargetModel, model: ManifoldModel, k: int) -> int:
    """Oracle: union-find over MapStates, each generator braid applied by act."""
    gens = [
        BraidElement(tuple(FreeWord((j,)) if i == slot else E for i in range(k)),
                     tuple(range(k)))
        for slot in range(k) for j in range(1, model.g + 1)
    ]
    for slot in range(k - 1):
        perm = list(range(k))
        perm[slot], perm[slot + 1] = perm[slot + 1], perm[slot]
        gens.append(BraidElement((E,) * k, tuple(perm)))
    parent: dict[MapState, MapState] = {}

    def find(s: MapState) -> MapState:
        while parent.setdefault(s, s) != s:
            s = parent[s]
        return s

    for f in range(len(target.f_classes)):
        for tup in itertools.product(target.charge, repeat=k):
            s = MapState(f, tup)
            for gen in gens:
                rs, rt = find(s), find(act(model, target, gen, s))
                if rs != rt:
                    parent[rs] = rt
            find(s)
    return len({find(s) for s in parent})


def test_bruteforce_equals_act_union_find_random_targets():
    rng = random.Random(20250301)
    nonorientable = 0
    for _ in range(100):
        g = rng.randrange(0, 3)
        h = rng.randrange(0, 3)
        n = rng.randrange(1, 5)
        action = []
        for _ in range(h):
            perm = list(range(n))
            rng.shuffle(perm)
            action.append(tuple(perm))
        reflection = list(range(n))
        idx = list(range(n))
        rng.shuffle(idx)
        for a, b in zip(idx[0::2], idx[1::2]):
            if rng.random() < 0.7:
                reflection[a], reflection[b] = b, a
        # the charge is a union of orbits of the action and the reflection
        charge = set(rng.sample(range(n), rng.randrange(1, n + 1)))
        grew = True
        while grew:
            grew = False
            for perm in (*action, reflection):
                for i in list(charge):
                    if perm[i] not in charge:
                        charge.add(perm[i])
                        grew = True
        f_classes = tuple(
            tuple(
                FreeWord([rng.choice([1, -1]) * rng.randrange(1, h + 1)
                          for _ in range(rng.randrange(0, 3))] if h else [])
                for _ in range(g)
            )
            for _ in range(rng.randrange(1, 3))
        )
        target = TargetModel(
            pi1_gens=h,
            classes=tuple(range(n)),
            action=tuple(action),
            reflection=tuple(reflection),
            charge=tuple(sorted(charge)),
            f_classes=f_classes,
        )
        character = (1,) * g
        if g and rng.random() < 0.4:
            character = tuple(rng.choice([1, -1]) for _ in range(g))
            nonorientable += -1 in character
        model = hyp_model(g, character)
        k = rng.randrange(0, 5)
        want = act_components(target, model, k)
        assert components_bruteforce(target, model, k) == want, (target, model, k)
    assert nonorientable >= 10


# --- the action itself ---


def test_act_transposition_swaps_classes():
    target = trivial_target(3, g=1)
    model = hyp_model(1)
    s = state_from_ids(target, 0, ["c0", "c1"])
    out = act(model, target, braid("e|e", (1, 0)), s)
    assert state_ids(target, out) == ("c1", "c0")


def test_act_loop_moves_through_cycle():
    model = hyp_model(1)
    s = state_from_ids(CYCLE3, 0, ["x", "z"])
    out = act(model, CYCLE3, braid("a1|e", (0, 1)), s)
    assert state_ids(CYCLE3, out) == ("y", "z")
    out2 = act(model, CYCLE3, braid("A1|e", (0, 1)), s)
    assert state_ids(CYCLE3, out2) == ("z", "z")


def test_act_slot_word_uses_f_image():
    # f sends the model loop to a2, which swaps y and z
    model = hyp_model(1)
    target = make_target(
        2, ["w", "x", "y", "z"], [(1, 0, 2, 3), (0, 1, 3, 2)],
        f_classes=[["a2"]],
    )
    s = state_from_ids(target, 0, ["y"])
    out = act(model, target, braid("a1", (0,)), s)
    assert state_ids(target, out) == ("z",)


def test_act_is_an_action():
    rng = random.Random(7)
    model1 = hyp_model(1)
    model2 = hyp_model(2)
    cases = 0
    for _ in range(200):
        g = rng.choice([1, 2])
        model = model1 if g == 1 else model2
        target = CYCLE3 if g == 1 else TWO_GEN
        k = rng.randrange(1, 4)
        s = MapState(0, tuple(rng.choice(target.charge) for _ in range(k)))

        def rand_braid() -> BraidElement:
            words = tuple(
                FreeWord([
                    rng.choice([1, -1]) * rng.randrange(1, g + 1)
                    for _ in range(rng.randrange(0, 4))
                ])
                for _ in range(k)
            )
            perm = list(range(k))
            rng.shuffle(perm)
            return BraidElement(words, tuple(perm))

        b1, b2 = rand_braid(), rand_braid()
        combined = act(model, target, braid_mul(b1, b2), s)
        stepwise = act(model, target, b1, act(model, target, b2, s))
        assert combined == stepwise
        cases += 1
    assert cases == 200


def test_act_preserves_charge():
    rng = random.Random(13)
    model = hyp_model(1)
    charge = set(SUB_CHARGE.charge)
    s = state_from_ids(SUB_CHARGE, 0, ["w", "x", "w"])
    for _ in range(50):
        words = tuple(
            FreeWord([rng.choice([1, -1]) for _ in range(rng.randrange(0, 5))])
            for _ in range(3)
        )
        perm = list(range(3))
        rng.shuffle(perm)
        s = act(model, SUB_CHARGE, BraidElement(words, tuple(perm)), s)
        assert set(s.g_classes) <= charge


def test_act_reflection_on_reversing_loops():
    # a1 reverses orientation; the action permutation itself is trivial,
    # so only the reflection moves the class
    model = hyp_model(1, character=(-1,))
    target = make_target(
        1, ["w", "x", "y", "z"], [tuple(range(4))],
        reflection=(1, 0, 3, 2), f_classes=[["a1"]],
    )
    s = state_from_ids(target, 0, ["w", "y"])
    out = act(model, target, braid("a1|e", (0, 1)), s)
    assert state_ids(target, out) == ("x", "y")
    # a1^2 preserves orientation, so the reflection cancels
    out2 = act(model, target, braid("a1^2|e", (0, 1)), s)
    assert state_ids(target, out2) == ("w", "y")


def test_act_is_an_action_nonorientable():
    rng = random.Random(29)
    model = hyp_model(1, character=(-1,))
    # reflection (w x)(y z) commutes with the a1 action (w y)(x z)
    commuting = make_target(
        1, ["w", "x", "y", "z"], [(2, 3, 0, 1)],
        reflection=(1, 0, 3, 2), f_classes=[["a1"]],
    )
    # reflection (0 1) does not commute with the a1 action (0 1 2)
    skew = make_target(1, [0, 1, 2], [(1, 2, 0)], reflection=(1, 0, 2), f_classes=[["a1"]])
    a1 = braid("a1", (0,))
    assert act(model, skew, braid_mul(a1, a1), MapState(0, (0,))) == \
        act(model, skew, a1, act(model, skew, a1, MapState(0, (0,)))) == MapState(0, (0,))

    def rand_braid(k: int) -> BraidElement:
        words = tuple(
            FreeWord([rng.choice([1, -1]) for _ in range(rng.randrange(0, 4))])
            for _ in range(k)
        )
        perm = list(range(k))
        rng.shuffle(perm)
        return BraidElement(words, tuple(perm))

    for target in (commuting, skew):
        for _ in range(100):
            k = rng.randrange(1, 4)
            s = MapState(0, tuple(rng.choice(target.charge) for _ in range(k)))
            b1, b2 = rand_braid(k), rand_braid(k)
            assert act(model, target, braid_mul(b1, b2), s) == \
                act(model, target, b1, act(model, target, b2, s))


def test_bruteforce_nonorientable_reflection_merges_orbits():
    # trivial pi1 action, reflection swaps w and x: bruteforce merges them
    model = hyp_model(1, character=(-1,))
    target = make_target(
        1, ["w", "x", "y"], [tuple(range(3))],
        reflection=(1, 0, 2), f_classes=[["a1"]],
    )
    assert components_bruteforce(target, model, 1) == 2
    orientable = hyp_model(1)
    assert components_bruteforce(target, orientable, 1) == 3


# --- gating and guards ---


def test_hypothesis_gate_refuses_default_models():
    target = trivial_target(3)
    default = ManifoldModel.default(1)
    assert not default.low_handle_dim
    with pytest.raises(HypothesisViolation):
        components_formula(target, default, 2)
    with pytest.raises(HypothesisViolation):
        components_bruteforce(target, default, 2)
    with pytest.raises(HypothesisViolation):
        act(default, target, braid("e|e", (0, 1)),
            state_from_ids(target, 0, ["c0", "c1"]))


def test_hypothesis_gate_admits_g0_and_flag():
    target = trivial_target(3)
    g0 = ManifoldModel.default(0)
    assert components_formula(G0_THREE, g0, 1) == 3
    assert components_bruteforce(G0_THREE, g0, 1) == 3
    # low_handle_dim is the one opt-in, for all three operations
    flagged = hyp_model(1)
    assert components_formula(target, flagged, 2) == 6
    assert components_bruteforce(target, flagged, 2) == 6
    out = act(flagged, target, braid("e|e", (1, 0)),
              state_from_ids(target, 0, ["c0", "c1"]))
    assert state_ids(target, out) == ("c1", "c0")


def test_formula_refuses_nonorientable_models():
    target = trivial_target(3)
    model = hyp_model(1, character=(-1,))
    with pytest.raises(HypothesisViolation):
        components_formula(target, model, 2)


def test_bruteforce_state_cap():
    target = trivial_target(3)
    with pytest.raises(TooLarge):
        components_bruteforce(target, hyp_model(1), 3, max_states=10)
    assert components_bruteforce(target, hyp_model(1), 3, max_states=27) == 10
    with pytest.raises(TooLarge):
        components_bruteforce(target, hyp_model(1), 3, max_states=-1)
    # True would be a cap of 1, and a float has no bit_length
    for cap in (True, 2.5, 27.0, "27", None):
        with pytest.raises(ValueError, match="max_states must be an int"):
            components_bruteforce(target, hyp_model(1), 3, max_states=cap)


def test_size_mismatches():
    model = hyp_model(2)
    with pytest.raises(SizeMismatch):
        act(model, CYCLE3, braid("a1|e", (0, 1)),
            state_from_ids(CYCLE3, 0, ["x", "y"]))
    model1 = hyp_model(1)
    with pytest.raises(SizeMismatch):
        act(model1, CYCLE3, braid("a1|e", (0, 1)),
            state_from_ids(CYCLE3, 0, ["x"]))
    with pytest.raises(SizeMismatch):
        components_formula(CYCLE3, hyp_model(2), 1)


def test_state_validation():
    with pytest.raises(ValueError):
        act(hyp_model(1), CYCLE3, braid("e", (0,)), MapState(1, (0,)))
    with pytest.raises(ValueError):
        act(hyp_model(1), SUB_CHARGE, braid("e", (0,)), MapState(0, (2,)))
    # True == 1 and 1.0 == 1, but neither is an index
    two_f = dataclasses.replace(CYCLE3, f_classes=CYCLE3.f_classes * 2)
    for f in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="state names f class"):
            act(hyp_model(1), two_f, braid("e", (0,)), MapState(f, (0,)))
    for i in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="state class index"):
            act(hyp_model(1), CYCLE3, braid("a1", (0,)), MapState(0, (i,)))
    # a non-iterable class list is a ValueError naming the field, not a TypeError
    with pytest.raises(ValueError, match="g_classes must be a sequence, got int"):
        MapState(0, 5)
    # a string's characters are not class indices
    for text in ("ab", b"ab"):
        with pytest.raises(ValueError, match="^g_classes must be a sequence of ids, got "):
            MapState(0, text)
    with pytest.raises(ValueError, match="^slot word a2 exceeds rank 1$"):
        act(hyp_model(1), CYCLE3, braid("a2", (0,)), MapState(0, (0,)))


# --- target validation and JSON ---


def test_target_validation_errors():
    with pytest.raises(ValueError):
        make_target(1, ["x", "x"], [(0, 1)])
    with pytest.raises(ValueError):
        make_target(1, ["x", "y"], [(0, 0)])
    with pytest.raises(ValueError):
        make_target(0, ["x", "y"], [], reflection=(1, 0, 0))
    with pytest.raises(ValueError):
        make_target(1, ["x", "y"], [(1, 0)], charge=(0,))
    with pytest.raises(ValueError):
        make_target(1, ["x", "y"], [(0, 1)], f_classes=[["a2"]])
    with pytest.raises(ValueError):
        make_target(1, ["x", "y"], [(0, 1)], f_classes=[["a1"], ["a1", "a1"]])
    # a non-involution reflection
    with pytest.raises(ValueError):
        make_target(0, ["x", "y", "z"], [], reflection=(1, 2, 0))
    # a bool or float entry is not a class index, although True == 1.0 == 1
    for bad in ((True, False), (1.0, 0), (1, False)):
        with pytest.raises(ValueError, match="action of generator 1 is not a permutation"):
            make_target(1, ["x", "y"], [bad])
        with pytest.raises(ValueError, match="reflection is not a permutation"):
            make_target(0, ["x", "y"], [], reflection=bad)
    # bool is not a generator count, although it is an int
    with pytest.raises(ValueError, match="pi1_gens"):
        make_target(True, ["x", "y"], [(1, 0)])
    # a field that is not iterable, or ids that cannot be hashed, are
    # ValueErrors naming the field, not TypeErrors
    fields = dict(pi1_gens=1, classes=("x", "y"), action=((1, 0),), reflection=(0, 1),
                  charge=(0, 1), f_classes=((parse_word("a1"),),))
    for field, value, match in [
        ("action", (5,), "action of generator 1 must be a sequence, got int"),
        ("reflection", None, "reflection must be a sequence, got NoneType"),
        ("charge", None, "charge must be a sequence, got NoneType"),
        ("f_classes", (5,), "each f class must be a sequence, got int"),
        ("classes", ([0], [1]), "class ids must be hashable"),
        ("classes", "xy", "^classes must be a sequence of ids, got str$"),
        ("classes", b"xy", "^classes must be a sequence of ids, got bytes$"),
        ("charge", (1, 0), "^charge must be strictly increasing class indices$"),
    ]:
        with pytest.raises(ValueError, match=match):
            TargetModel(**{**fields, field: value})
    assert TargetModel(**fields).classes == ("x", "y")


def test_target_json_round_trip():
    for target in (CYCLE3, TWO_GEN_TWO_F, SUB_CHARGE, G0_TWO_F):
        obj = target_to_json(target)
        assert target_from_json(obj) == target


def test_target_json_shape():
    obj = {
        "pi1_gens": 1,
        "classes": ["w", "x", "y", "z"],
        "action": {"a1": ["x", "w", "y", "z"]},
        "reflection": ["w", "x", "y", "z"],
        "charge": ["w", "x"],
        "f_classes": [["a1"]],
    }
    assert target_from_json(obj) == SUB_CHARGE
    assert target_to_json(SUB_CHARGE) == obj


def test_target_json_errors():
    good = target_to_json(CYCLE3)
    with pytest.raises(ParseError):
        target_from_json([])
    for key in ("pi1_gens", "classes", "action", "reflection", "charge", "f_classes"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ParseError):
            target_from_json(broken)
    bad_action = dict(good)
    bad_action["action"] = {"a2": ["y", "z", "x"]}
    with pytest.raises(ParseError):
        target_from_json(bad_action)
    bad_id = dict(good)
    bad_id["charge"] = ["x", "nope"]
    with pytest.raises(ParseError):
        target_from_json(bad_id)
    bad_word = dict(good)
    bad_word["f_classes"] = [["a$"]]
    with pytest.raises(ParseError):
        target_from_json(bad_word)
    not_perm = dict(good)
    not_perm["action"] = {"a1": ["x", "x", "z"]}
    with pytest.raises(ParseError):
        target_from_json(not_perm)
    # JSON arrays are not ids, and an f word must be a string
    for key, value in (("classes", [["x"], "y", "z"]), ("charge", [["x"]]),
                       ("reflection", ["x", "y", {"z": 1}]),
                       ("action", {"a1": [["y"], "z", "x"]}),
                       ("f_classes", [[1]])):
        with pytest.raises(ParseError):
            target_from_json(dict(good, **{key: value}))
    # a value of the wrong JSON shape, each refused by its own check
    for key, value, message in (
        ("pi1_gens", -1, "pi1_gens must be a non-negative integer"),
        ("pi1_gens", "1", "pi1_gens must be a non-negative integer"),
        ("classes", "xyz", "classes must be an array"),
        ("reflection", "x", "reflection must be an array"),
        ("charge", "x", "charge must be an array"),
        ("f_classes", "a1", "f_classes must be an array"),
        ("f_classes", ["a1"], "each f class must be an array"),
        ("action", ["y", "z", "x"], "action must be an object"),
        ("action", {"a1": "yzx"}, "action of a1 must be an array"),
        ("action", {"a1": ["y", "z", "x"], "a2": ["x", "y", "z"]},
         r"action has unexpected keys: \['a2'\]"),
    ):
        with pytest.raises(ParseError, match=message):
            target_from_json(dict(good, **{key: value}))
    # nor are true and false, which Python would take for the ids 1 and 0
    for key, value in (("classes", ["x", "y", True]), ("charge", [False]),
                       ("reflection", ["x", "y", True]),
                       ("action", {"a1": [True, "z", "x"]})):
        with pytest.raises(ParseError, match="true or false"):
            target_from_json(dict(good, **{key: value}))


def test_bruteforce_huge_k_refused_at_once():
    # the bound 3**(10**9) is never built; the cap check exits early
    with pytest.raises(TooLarge):
        components_bruteforce(trivial_target(3), hyp_model(1), 10**9)
    # zero or one class, or no f class, keeps the state count small for any k
    one = make_target(1, ["x"], [(0,)], f_classes=[["a1"]])
    assert components_bruteforce(one, hyp_model(1), 10**9) == 1
    no_charge = make_target(1, ["x"], [(0,)], charge=(), f_classes=[["a1"]])
    assert components_bruteforce(no_charge, hyp_model(1), 10**9) == 0
    no_f = make_target(1, ["x", "y"], [(0, 1)], f_classes=[])
    assert components_bruteforce(no_f, hyp_model(1), 10**9) == 0


def test_formula_count_size_capped_before_comb(monkeypatch):
    # 2,000 singleton orbits at k = 10**9 would be a count of about 18,000
    # digits, past what Python prints; it is refused before comb runs.
    wide = make_target(0, range(2000), [], f_classes=[[]])
    real_comb = orbits.comb
    monkeypatch.setattr(orbits, "comb", None)
    with pytest.raises(TooLarge, match="up to 59970 bits is over the cap 14000"):
        components_formula(wide, ManifoldModel.default(0), 10**9)
    monkeypatch.setattr(orbits, "comb", real_comb)
    # Just under the cap, over several f classes, the count still prints.
    for classes, f_count in ((2, 1), (3, 4), (40, 2), (2000, 3)):
        target = make_target(0, range(classes), [], f_classes=[[]] * f_count)
        bits = lambda k: f_count * min(k, classes - 1) * (classes + k - 1).bit_length()
        k = 1
        while bits(2 * k) <= orbits.MAX_COUNT_BITS:
            k *= 2
        count = components_formula(target, ManifoldModel.default(0), k)
        assert count == f_count * real_comb(classes + k - 1, k)
        assert int(str(count)) == count
        with pytest.raises(TooLarge):
            components_formula(target, ManifoldModel.default(0), 4 * k)


def test_bruteforce_k0_counts_f_classes_unchecked():
    # no punctures, no generator braids: nothing about f or the charge is checked
    mismatched = trivial_target(3, f_count=2, g=2)
    assert components_bruteforce(mismatched, hyp_model(1), 0) == 2
    open_charge = make_target(
        1, ["x", "y"], [(0, 1)], reflection=(1, 0), charge=(0,),
        f_classes=[["a1"], ["e"], ["a1"]],
    )
    assert components_bruteforce(open_charge, hyp_model(1, (-1,)), 0) == 3
    empty = make_target(1, ["x"], [(0,)], charge=(), f_classes=[["a1"]])
    assert components_bruteforce(empty, hyp_model(1), 0) == 1


def test_bruteforce_empty_charge_counts_zero():
    empty = make_target(1, ["x", "y"], [(1, 0)], charge=(), f_classes=[["a1"]])
    for k in (1, 2, 3):
        assert components_bruteforce(empty, hyp_model(1), k) == 0
    # no state exists, so neither the f rank nor the reflection is checked
    assert components_bruteforce(empty, hyp_model(2), 2) == 0
    assert components_bruteforce(empty, hyp_model(1, (-1,)), 2) == 0


def test_bruteforce_f_rank_checked_only_with_generators():
    one_image = trivial_target(3, g=1)
    # g = 0, k = 1: no generator braid, one component per (f, class)
    assert components_bruteforce(one_image, hyp_model(0), 1) == 3
    # g = 0, k = 2: the transposition is a generator
    with pytest.raises(SizeMismatch):
        components_bruteforce(one_image, hyp_model(0), 2)
    # g >= 1, k = 1: slot loops are generators
    with pytest.raises(SizeMismatch):
        components_bruteforce(one_image, hyp_model(2), 1)
    no_image = trivial_target(3, g=0)
    with pytest.raises(SizeMismatch):
        components_bruteforce(no_image, hyp_model(1), 1)


def test_bruteforce_nonorientable_needs_reflection_closed_charge():
    # the reflection swaps x and y but the charge holds only x
    target = make_target(
        1, ["x", "y"], [(0, 1)], reflection=(1, 0), charge=(0,),
        f_classes=[["a1"]],
    )
    with pytest.raises(ValueError, match="reflection"):
        components_bruteforce(target, hyp_model(1, (-1,)), 1)
    # g = 0 keeps the model orientable
    g0 = dataclasses.replace(target, f_classes=((),))
    assert components_bruteforce(g0, hyp_model(0), 2) == 1
    # orientable models never use the reflection
    assert components_bruteforce(target, hyp_model(1), 2) == 1
    # the f rank is checked before the reflection, as act does
    with pytest.raises(SizeMismatch):
        components_bruteforce(target, hyp_model(2, (-1, 1)), 1)


def test_bruteforce_trivial_sizes():
    model = hyp_model(1)
    assert components_bruteforce(trivial_target(3, f_count=2), model, 0) == 2
    empty_f = make_target(1, ["x"], [(0,)], f_classes=[])
    assert components_bruteforce(empty_f, model, 1) == 0
    assert components_formula(empty_f, model, 1) == 0


# --- the multiset search against the tuple graph ---


def component_count_nested_find(m: int, k: int, tables) -> int:
    """The tuple graph _component_count first searched: one mixed-radix id
    per tuple of charge positions, loop tables moving one digit and adjacent
    transpositions swapping two, every move walked as runs of `width`
    consecutive ids into a nested find."""
    n_states = m ** k
    if n_states == 1:
        return 1
    parent = list(range(n_states))
    components = n_states

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    loop_pairs = sorted({(min(d, t), max(d, t)) for table in tables
                         for d, t in enumerate(table) if d != t})
    moves = []
    stride = 1
    for slot in range(k):
        block = stride * m
        moves.extend((d * stride, (t - d) * stride, stride, block)
                     for d, t in loop_pairs)
        if slot + 1 < k:
            moves.extend((a * stride + b * block, (a - b) * (block - stride),
                          stride, block * m)
                         for a in range(m) for b in range(a + 1, m))
        stride = block
    for offset, shift, width, period in moves:
        for base in range(offset, n_states, period):
            for x in range(base, base + width):
                rx, ry = find(x), find(x + shift)
                if rx != ry:
                    parent[rx] = ry
                    components -= 1
    return components


def test_component_count_matches_nested_find():
    rng = random.Random(20261018)
    identity_tables = repeats = fixed = 0
    for _ in range(240):
        m = rng.randrange(1, 6)
        k = rng.randrange(1, 7)
        tables = []
        for _ in range(rng.randrange(0, 4)):
            table = list(range(m))
            if rng.random() < 0.7:
                rng.shuffle(table)
            identity_tables += table == list(range(m))
            tables.append(table)
        if m >= 2 and tables:
            # cases where every multiset repeats an element
            repeats += k > m
            # cases where a table fixes an element
            fixed += any(t[d] == d for t in tables for d in range(m))
        want = component_count_nested_find(m, k, tables)
        assert _component_count(m, k, tables) == want, (m, k, tables)
    assert identity_tables >= 40 and repeats >= 40 and fixed >= 80


def component_count_sorted_tuples(m: int, k: int, tables) -> int:
    """The multiset graph on sorted tuples: each element of each multiset
    is moved through each table, and the moved tuple is sorted again."""
    index = {ms: x for x, ms in enumerate(itertools.combinations_with_replacement(range(m), k))}
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ms, x in index.items():
        for i, d in enumerate(ms):
            for table in tables:
                y = index[tuple(sorted(ms[:i] + (table[d],) + ms[i + 1:]))]
                parent[find(x)] = find(y)
    return len({find(x) for x in range(len(index))})


def test_component_count_matches_sorted_tuples_on_wider_charges():
    # Shapes past the nested-find oracle's m**k tuples: up to 12**4.
    rng = random.Random(1018)
    permutations = others = 0
    for _ in range(60):
        m = rng.randrange(6, 13)
        k = rng.randrange(2, 5)
        tables = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                table = rng.sample(range(m), m)
                permutations += 1
            else:   # not a permutation: two positions may go to one
                table = [rng.randrange(m) if rng.random() < 0.3 else d for d in range(m)]
                others += sorted(table) != list(range(m))
            tables.append(table)
        want = component_count_sorted_tuples(m, k, tables)
        assert _component_count(m, k, tables) == want, (m, k, tables)
    assert permutations >= 30 and others >= 30


# --- the colex tables kept for the process ---


@pytest.fixture
def fresh_columns():
    """An empty table cache, emptied again after the test; yields cache_info."""
    orbits._cached_columns.cache_clear()
    yield orbits._cached_columns.cache_info
    orbits._cached_columns.cache_clear()


def table_ints(m: int, k: int) -> int:
    """Ints in the columns of all m positions: m * multichoose(m, k - 1)."""
    return m * comb(m + k - 2, k - 1)


def colex_column(m: int, k: int, d: int) -> tuple[int, ...]:
    """Column d read off sorted lists: the colex number of y + d for each
    (k-1)-multiset y, in colex order (sorted by the reversed tuple)."""
    def colex(j):
        return sorted(itertools.combinations_with_replacement(range(m), j),
                      key=lambda ms: ms[::-1])
    number = {ms: x for x, ms in enumerate(colex(k))}
    return tuple(number[tuple(sorted(y + (d,)))] for y in colex(k - 1))


def test_cached_columns_equal_an_uncached_build(fresh_columns):
    for m in range(1, 7):
        for k in range(1, 7):
            cached = orbits._cached_columns(m, k)
            assert type(cached) is tuple and all(type(col) is tuple for col in cached)
            assert cached == orbits._colex_columns(m, k)
            assert cached == tuple(colex_column(m, k, d) for d in range(m)), (m, k)
            assert sum(map(len, cached)) == table_ints(m, k)


def test_cold_warm_and_uncached_counts_agree(fresh_columns, monkeypatch):
    cases = [(target, hyp_model(g), k, want) for _, target, g, k, want in BATTERY]
    # two orbits, {w, x} and {y, z}: k + 1 multisets of orbits
    cases += [(TWO_GEN, hyp_model(2), k, k + 1) for k in range(3, 7)]

    def counts():
        return [components_bruteforce(target, model, k) for target, model, k, _ in cases]

    want = [row[-1] for row in cases]
    assert counts() == want   # cold
    assert fresh_columns().currsize > 0
    hits = fresh_columns().hits
    assert counts() == want   # warm
    assert fresh_columns().hits > hits
    monkeypatch.setattr(orbits, "CACHED_TABLE_INTS", 0)
    orbits._cached_columns.cache_clear()
    assert counts() == want   # every table built per call
    assert fresh_columns().currsize == 0


def cycle(m: int) -> list[int]:
    """A loop table that moves every one of m positions."""
    return [*range(1, m), 0]


def test_column_cache_is_bounded(fresh_columns):
    shapes = [(m, k) for m in range(2, 12) for k in range(2, 9) if table_ints(m, k) <= 1024]
    assert len(shapes) > orbits.CACHED_TABLES == 32
    for m, k in shapes:
        _component_count(m, k, [cycle(m)])
        _component_count(33, 2, [cycle(33)])   # 1,089 ints: built per call
    assert fresh_columns().currsize == 32
    # the 32 kept are the 32 shapes used last; reading them misses nothing
    misses = fresh_columns().misses
    held = sum(len(col) for m, k in shapes[-32:] for col in orbits._cached_columns(m, k))
    assert fresh_columns().misses == misses
    assert held == sum(table_ints(m, k) for m, k in shapes[-32:]) <= 32 * 1024


def test_column_cache_takes_tables_of_at_most_1024_ints(fresh_columns, monkeypatch):
    # no shape has exactly 1,025 ints: (32, 2) and (2, 512) have 1,024,
    # (2, 513) has 1,026 and (33, 2) 1,089
    for m, k in ((32, 2), (2, 512)):
        assert table_ints(m, k) == 1024
        before = fresh_columns().currsize
        _component_count(m, k, [cycle(m)])
        assert fresh_columns().currsize == before + 1
    for m, k in ((2, 513), (33, 2)):
        _component_count(m, k, [cycle(m)])
        assert fresh_columns().currsize == 2
    # one int over the bound is refused
    orbits._cached_columns.cache_clear()
    monkeypatch.setattr(orbits, "CACHED_TABLE_INTS", 1023)
    assert _component_count(32, 2, [cycle(32)]) == 1
    assert fresh_columns().currsize == 0


def test_bruteforce_wide_charge_equals_formula():
    # 300 classes at k = 2: 45,150 multisets.  a1 turns 3-cycles on the
    # first 240 classes and a2 swaps pairs of 3-cycles there, so the orbits
    # are 40 of 6 classes plus 60 fixed classes.
    a1, a2 = list(range(300)), list(range(300))
    for i in range(0, 240, 3):
        a1[i:i + 3] = [i + 1, i + 2, i]
    for i in range(0, 240, 6):
        a2[i:i + 6] = [i + 3, i + 4, i + 5, i, i + 1, i + 2]
    target = make_target(2, range(300), [a1, a2], f_classes=[["a1", "a2"], ["a2", "e"]])
    model = hyp_model(2)
    # f 0 sees the 100 orbits; f 1 moves only by a2, which leaves 180 orbits
    want = comb(101, 2) + comb(181, 2)
    assert components_formula(target, model, 2) == want == 21340
    assert components_bruteforce(target, model, 2) == want


def test_bruteforce_near_cap_equals_formula():
    # 10**6 tuples of charge positions, at the default cap: 5,005 multisets.
    # The orbits of (a1, a2) are {0, 1, 2}, {3, 4}, {5, 6}, {7}, {8}, {9}.
    target = make_target(
        2, range(10),
        [(1, 2, 0, 4, 3, 5, 6, 7, 8, 9), (0, 1, 2, 3, 4, 6, 5, 7, 8, 9)],
        f_classes=[["a1", "a2"]],
    )
    model = hyp_model(2)
    assert components_bruteforce(target, model, 6) == components_formula(target, model, 6) \
        == oracle_components(target, 6) == 462


def test_bruteforce_nonorientable_skew_reflection_matches_act():
    # reflection (0 1) does not commute with the a1 action (0 1 2 3)
    target = make_target(
        2, range(4), [(1, 2, 3, 0), (2, 1, 0, 3)],
        reflection=(1, 0, 2, 3), f_classes=[["a1", "a2"]],
    )
    a1, refl = target.action[0], target.reflection
    assert [a1[refl[i]] for i in range(4)] != [refl[a1[i]] for i in range(4)]
    model = hyp_model(2, character=(-1, 1))
    assert components_bruteforce(target, model, 5) == act_components(target, model, 5) == 6


def random_table_target(rng: random.Random, g: int) -> tuple[TargetModel, str]:
    """A seeded target for g model loops, with its reflection's kind:
    "identity", "commuting" (classes (x, s), the reflection flips s and each
    generator moves x and maybe s) or "random" (any involution)."""
    h = rng.randrange(0, 4)
    kind = rng.choice(["identity", "commuting", "random"])
    if kind == "commuting":
        half = rng.randrange(1, 4)
        n = 2 * half
        action = []
        for _ in range(h):
            p, flip = rng.sample(range(half), half), rng.randrange(2)
            action.append(tuple(2 * p[x // 2] + (x % 2 ^ flip) for x in range(n)))
        reflection = [x ^ 1 for x in range(n)]
    else:
        n = rng.randrange(1, 7)
        action = [tuple(rng.sample(range(n), n)) for _ in range(h)]
        reflection = list(range(n))
        if kind == "random":
            idx = rng.sample(range(n), n)
            for a, b in zip(idx[0::2], idx[1::2]):
                if rng.random() < 0.7:
                    reflection[a], reflection[b] = b, a
    # the charge is a union of orbits of the action and the reflection
    charge = set(rng.sample(range(n), rng.randrange(1, n + 1)))
    grew = True
    while grew:
        grew = False
        for perm in (*action, reflection):
            for i in list(charge):
                if perm[i] not in charge:
                    charge.add(perm[i])
                    grew = True
    f_classes = tuple(
        tuple(
            FreeWord([rng.choice([1, -1]) * rng.randrange(1, h + 1)
                      for _ in range(rng.randrange(0, 4))] if h else [])
            for _ in range(g)
        )
        for _ in range(rng.randrange(1, 4))
    )
    target = TargetModel(
        pi1_gens=h,
        classes=tuple(range(n)),
        action=tuple(action),
        reflection=tuple(reflection),
        charge=tuple(sorted(charge)),
        f_classes=f_classes,
    )
    return target, kind


def test_bruteforce_tables_equal_act_on_the_whole_charge(monkeypatch):
    # Each loop table is read off act: the braid with a_j in every slot
    # applied to the state that holds the whole charge.
    seen = []

    def recording_count(m, k, tables):
        seen.append(tables)
        return _component_count(m, k, tables)

    monkeypatch.setattr(orbits, "_component_count", recording_count)
    rng = random.Random(20261018)
    kinds: dict[tuple[str, bool], int] = {}
    for _ in range(320):
        g = rng.randrange(0, 4)
        target, kind = random_table_target(rng, g)
        refl = target.reflection
        commutes = all(p[refl[i]] == refl[p[i]]
                       for p in target.action for i in range(len(refl)))
        character = (1,) * g
        if g and rng.random() < 0.5:
            character = tuple(rng.choice([1, -1]) for _ in range(g))
        model = hyp_model(g, character)
        k = rng.randrange(1, 5)
        seen.clear()
        components_bruteforce(target, model, k)
        m = len(target.charge)
        pos = {c: p for p, c in enumerate(target.charge)}
        want = [
            [[pos[c] for c in act(model, target,
                                   BraidElement((FreeWord((j,)),) * m, tuple(range(m))),
                                   MapState(f, target.charge)).g_classes]
             for j in range(1, g + 1)]
            for f in range(len(target.f_classes))
        ]
        assert seen == want, (target, model, k)
        if -1 in character:
            kinds[kind, commutes] = kinds.get((kind, commutes), 0) + 1
    # non-orientable models meet reflections that commute with the action
    # (trivially or not) and reflections that do not
    assert kinds.get(("identity", True), 0) >= 10
    assert kinds.get(("commuting", True), 0) >= 10
    assert kinds.get(("random", False), 0) >= 10


def test_bruteforce_makes_no_act_call(monkeypatch):
    def no_act(*args, **kwargs):
        raise AssertionError("components_bruteforce called act")

    monkeypatch.setattr(orbits, "act", no_act)
    cases = [
        (TWO_GEN_TWO_F, hyp_model(2)), (CYCLE3, hyp_model(1)),
        (SPARSE_TRIVIAL, hyp_model(1)), (G0_TWO_F, hyp_model(0)),
        (make_target(2, range(4), [(1, 2, 3, 0), (2, 1, 0, 3)],
                     reflection=(1, 0, 2, 3), f_classes=[["a1", "a2"]]),
         hyp_model(2, (-1, 1))),
    ]
    for target, model in cases:
        for k in range(4):
            # act_components calls this module's act, not orbits.act
            assert components_bruteforce(target, model, k) == act_components(target, model, k)


def test_orbit_counts_reject_bool():
    target = trivial_target(3)
    with pytest.raises(ValueError, match="puncture count"):
        components_bruteforce(target, hyp_model(1), True)
    with pytest.raises(ValueError, match="puncture count"):
        components_formula(target, hyp_model(1), True)
    with pytest.raises(ValueError, match="puncture count"):
        components_formula(target, hyp_model(1), False)


def test_loop_rank_mismatch_reads_the_same_in_every_count():
    # f classes of one loop image against a model with two loops
    target = trivial_target(3, g=1)
    model = hyp_model(2)
    state = state_from_ids(target, 0, ["c0", "c1"])
    messages = set()
    for count in (
        lambda: act(model, target, braid("e|e", (1, 0)), state),
        lambda: components_formula(target, model, 2),
        lambda: components_bruteforce(target, model, 2),
    ):
        with pytest.raises(SizeMismatch) as exc:
            count()
        messages.add(str(exc.value))
    assert messages == {"f class gives 1 loop images but the model has rank 2"}
