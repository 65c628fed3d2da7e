"""Orbit counting for braid actions on labelled maps into a target space.

A TargetModel is a finite description of the data needed to count path
components of a space of maps from a punctured model into a target X:
the rank of pi_1(X), a finite set P of relevant homotopy classes of
sphere maps, the pi_1(X)-action on P, the reflection involution of P,
the "charge" subset of P that boundary conditions confine the punctures
to, and the finite list of pi_1-conjugacy classes of homomorphisms f
from the model's loop group into pi_1(X).

Loop words of the model and the words defining each f candidate both
use the standard word grammar; in an f candidate, generator i means the
i-th generator of pi_1(X).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import comb

from .errors import (
    FrozenRecord,
    HypothesisViolation,
    ParseError,
    SizeMismatch,
    TooLarge,
    _store,
    as_tuple,
    capped_product,
    check_count,
    check_type,
    clip,
    is_int,
    is_permutation,
    json_array,
    json_fields,
    json_object,
    parsing,
)
from .pushing import BraidElement, ManifoldModel, _inverse_perm
from .words import FreeWord, _check_rank, parse_word

DEFAULT_MAX_STATES = 1_000_000

# Most bits components_formula lets a count have, checked before comb runs
# (unbounded, comb alone ran 130 s at 10**6 orbits and k = 10**12).  Such a
# count, summed over its f classes, has under the 4,300 digits Python prints
# an int with, so every printed count parses back.
MAX_COUNT_BITS = 14_000


def _as_ids(what: str, value: object) -> tuple:
    """as_tuple, refusing a str or bytes, whose characters would pass for ids."""
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{what} must be a sequence of ids, got {type(value).__name__}")
    return as_tuple(what, value)


def _as_perm(arr: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    perm = as_tuple(what, arr)
    if len(perm) != n or not is_permutation(perm):
        raise ValueError(f"{what} is not a permutation of {n} classes")
    return perm


class TargetModel(FrozenRecord):
    """Finite target data: classes P, pi_1 action, reflection, charge, f list.

    classes are arbitrary distinct hashable ids; all permutations and the
    charge are stored as indices into that tuple.  action[j] is the
    permutation induced by the (j+1)-st generator of pi_1(X); f_classes
    lists, for each candidate f, the images of the model loops as words in
    the pi_1(X) generators.  charge_set, the charge as a frozenset, and
    inv_action, the inverse permutations, are built once and live in the
    instance __dict__; equality, hash and repr read only the six values
    the constructor takes.

    A braid moves a puncture's class letter by letter (see act).  When the
    reflection commutes with the action, the component counts are orbit
    counts of the paper's action.
    """

    pi1_gens: int
    classes: tuple[object, ...]
    action: tuple[tuple[int, ...], ...]
    reflection: tuple[int, ...]
    charge: tuple[int, ...]
    f_classes: tuple[tuple[FreeWord, ...], ...]

    def __init__(
        self,
        pi1_gens: int,
        classes: tuple[object, ...],
        action: tuple[tuple[int, ...], ...],
        reflection: tuple[int, ...],
        charge: tuple[int, ...],
        f_classes: tuple[tuple[FreeWord, ...], ...],
    ) -> None:
        check_count("pi1_gens", pi1_gens)
        classes = _as_ids("classes", classes)
        n = len(classes)
        try:
            distinct = len(set(classes)) == n
        except TypeError:
            raise ValueError("class ids must be hashable") from None
        if not distinct:
            raise ValueError("class ids must be distinct")
        action = tuple(_as_perm(p, n, f"action of generator {j + 1}")
                       for j, p in enumerate(as_tuple("action", action)))
        if len(action) != pi1_gens:
            raise ValueError(
                f"action table has {len(action)} entries for {pi1_gens} generators"
            )
        refl = _as_perm(reflection, n, "reflection")
        if any(refl[refl[i]] != i for i in range(n)):
            raise ValueError("reflection must be an involution")
        charge = as_tuple("charge", charge)
        if any(not is_int(i) or not 0 <= i < n for i in charge):
            raise ValueError("charge indices out of range")
        if list(charge) != sorted(set(charge)):
            raise ValueError("charge must be strictly increasing class indices")
        cset = frozenset(charge)
        for j, perm in enumerate(action):
            if any(perm[i] not in cset for i in charge):
                raise ValueError(
                    f"charge is not a union of orbits: generator {j + 1} leaves it"
                )
        fcs = tuple(as_tuple("each f class", ws)
                    for ws in as_tuple("f_classes", f_classes))
        for ws in fcs:
            for w in ws:
                check_type("f class entries", w, FreeWord)
                _check_rank("f class word", w.letters, pi1_gens)
        if len({len(ws) for ws in fcs}) > 1:
            raise ValueError("all f classes must give the same number of loop images")
        self._set_fields(pi1_gens, classes, action, refl, charge, fcs, charge_set=cset,
                         inv_action=tuple(map(_inverse_perm, action)))


class MapState(FrozenRecord):
    """A component label: an f candidate index plus one charge class per puncture."""

    f: int
    g_classes: tuple[int, ...]

    def __init__(self, f: int, g_classes: tuple[int, ...]) -> None:
        self._set_fields(f, _as_ids("g_classes", g_classes))


def _check_state(target: TargetModel, state: MapState) -> None:
    if not is_int(state.f) or not 0 <= state.f < len(target.f_classes):
        raise ValueError(
            f"state names f class {clip(repr(state.f))} of {len(target.f_classes)}"
        )
    for i in state.g_classes:
        if not is_int(i) or i not in target.charge_set:
            raise ValueError(f"state class index {clip(repr(i))} is not in the charge")


def _require_hypothesis(model: ManifoldModel, what: str) -> None:
    if model.g == 0 or model.low_handle_dim:
        return
    raise HypothesisViolation(f"{what} requires g = 0 or a declared low handle dimension")


def _apply_pi1_word(target: TargetModel, w: FreeWord, idx: int) -> int:
    """Apply the left action of the pi_1(X) word w to class index idx."""
    for letter in reversed(w.letters):
        if letter > 0:
            idx = target.action[letter - 1][idx]
        else:
            idx = target.inv_action[-letter - 1][idx]
    return idx


def _check_loop_rank(target: TargetModel, model: ManifoldModel) -> None:
    """Every f class must give one loop image per loop of the model (the
    TargetModel constructor makes them all give the same number)."""
    rank = len(target.f_classes[0]) if target.f_classes else None
    if rank not in (None, model.g):
        raise SizeMismatch(f"f class gives {rank} loop images but the model has rank {model.g}")


def _check_reflection_closed(model: ManifoldModel, target: TargetModel) -> None:
    """A non-orientable model reflects classes, so the charge must be closed
    under the reflection."""
    if any(c != 1 for c in model.character) and any(
        target.reflection[i] not in target.charge_set for i in target.charge
    ):
        raise ValueError(
            "charge is not closed under the reflection, required for non-orientable models"
        )


def _move(
    model: ManifoldModel,
    target: TargetModel,
    f_words: Sequence[FreeWord],
    x: int,
    idx: int,
) -> int:
    """One letter x of act's walk, applied to class index idx."""
    flip = model.character[abs(x) - 1] == -1
    if flip and x > 0:
        idx = target.reflection[idx]
    idx = _apply_pi1_word(target, f_words[x - 1] if x > 0 else ~f_words[-x - 1], idx)
    if flip and x < 0:
        idx = target.reflection[idx]
    return idx


def act(
    model: ManifoldModel,
    target: TargetModel,
    braid: BraidElement,
    state: MapState,
) -> MapState:
    """Left action of a braid on a map state.

    Puncture i receives the class of puncture perm^-1(i), moved by the
    slot-i loop word one letter at a time, last letter first: a_j reflects
    when c(a_j) = -1, then acts by f(a_j), and A_j undoes that step.  This
    is a group action on every target.  When the reflection commutes with
    the pi_1 action it is the paper's action: reflect when c(w) = -1, then
    act by f(w).
    """
    _require_hypothesis(model, "the braid action on map states")
    _check_state(target, state)
    _check_loop_rank(target, model)
    f_words = target.f_classes[state.f]
    if braid.k != len(state.g_classes):
        raise SizeMismatch(
            f"braid on {braid.k} punctures applied to a state with "
            f"{len(state.g_classes)} classes"
        )
    _check_reflection_closed(model, target)
    inv_perm = _inverse_perm(braid.perm)
    out = []
    for i in range(braid.k):
        word = braid.words[i]
        _check_rank("slot word", word.letters, model.g)
        idx = state.g_classes[inv_perm[i]]
        for x in reversed(word.letters):
            idx = _move(model, target, f_words, x, idx)
        out.append(idx)
    return MapState(state.f, tuple(out))


def _orbit_count(target: TargetModel, f_words: Sequence[FreeWord]) -> int:
    """Number of orbits of the charge under the f-images of the model loops."""
    parent = {i: i for i in target.charge}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for w in f_words:
        for i in target.charge:
            j = _apply_pi1_word(target, w, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return len({find(i) for i in target.charge})


def components_formula(target: TargetModel, model: ManifoldModel, k: int) -> int:
    """Count components as sum over f of multichoose(orbits of charge, k).

    The model must satisfy the formula's hypotheses: orientable, and g = 0
    or low_handle_dim declared.  A count that may pass MAX_COUNT_BITS bits
    raises TooLarge before any binomial is computed.
    """
    _require_hypothesis(model, "the component-count formula")
    if any(c != 1 for c in model.character):
        raise HypothesisViolation(
            "the component-count formula requires an orientable model"
        )
    check_count("puncture count", k)
    _check_loop_rank(target, model)
    orbits = [_orbit_count(target, f_words) if k else 1 for f_words in target.f_classes]
    # comb(c + k - 1, k) = comb(c + k - 1, c - 1) < (c + k - 1)**min(k, c - 1)
    bits = sum(min(k, c - 1) * (c + k - 1).bit_length() for c in orbits if c > 1)
    if bits > MAX_COUNT_BITS:
        raise TooLarge(f"a component count of up to {bits} bits is over the cap {MAX_COUNT_BITS}")
    return sum(comb(c + k - 1, k) for c in orbits)


def _colex_columns(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Column d of the k-multisets of m positions, for each position d.

    Level j numbers the j-multisets in colex order, where y + e, for a
    (j-1)-multiset y and e >= max(y), gets comb(e + j - 1, j) plus the number
    of y.  Column d of level j lists the number of y + d for each
    (j-1)-multiset y, in y's order.  The y with max(y) <= d give one run of
    numbers.  A y with max(y) = e > d is y' + e, and y + d gets
    comb(e + j - 1, j) plus entry y' of column d one level down.  A column
    of level k holds multichoose(m, k - 1) ints.
    """
    cols = [(d,) for d in range(m)]
    for j in range(2, k + 1):
        # start[e]: the first number of a j-multiset with max e;
        # below[e]: how many (j-2)-multisets y' have max(y') <= e
        start = [comb(e + j - 1, j) for e in range(m + 1)]
        below = [comb(e + j - 2, j - 2) for e in range(m)]
        cols = [(*range(start[d], start[d + 1]),
                 *[start[e] + z for e in range(d + 1, m) for z in col[:below[e]]])
                for d, col in enumerate(cols)]
    return tuple(cols)


_cached_columns, _CACHED_INTS = _store("orbits._cached_columns", _colex_columns)


def _component_count(m: int, k: int, tables: Sequence[Sequence[int]]) -> int:
    """Components of the state graph of one f class.

    Adjacent transpositions join every reordering of a tuple of charge
    positions, so the search runs on their orbits: the multisets of k
    positions.  A loop table moves one element d to t = table[d]: every
    (k-1)-multiset y gives the edge y + d -- y + t, and each edge is merged
    into a flat union-find (path halving).

    No multiset is built as a tuple: the search numbers them in colex order, and
    column d of _colex_columns lists the numbers of y + d.  The columns of all
    m positions, m * multichoose(m, k - 1) <= m**k ints (inside the state cap
    components_bruteforce checks with errors.capped_product), are shared through
    the colex store of errors._STORES within its bound, and else built per call.
    """
    components = comb(m + k - 1, k)
    moves = {(d, t) if d < t else (t, d)
             for table in tables for d, t in enumerate(table) if t != d}
    if not moves:   # no edge: each multiset is a component
        return components
    build = _cached_columns if m * comb(m + k - 2, k - 1) <= _CACHED_INTS else _colex_columns
    cols = build(m, k)
    edges = chain.from_iterable(zip(cols[d], cols[t]) for d, t in moves)
    parent = list(range(components))
    for rx, ry in edges:
        while (p := parent[rx]) != rx:
            parent[rx] = rx = parent[p]
        while (p := parent[ry]) != ry:
            parent[ry] = ry = parent[p]
        if rx != ry:
            parent[ry] = rx
            components -= 1
    return components


def components_bruteforce(
    target: TargetModel,
    model: ManifoldModel,
    k: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> int:
    """Count components by exploring the state graph under generator braids.

    States are (f, classes) pairs; edges apply each loop generator in each slot
    and each adjacent transposition.  Refuses with TooLarge, before allocating
    anything, when errors.capped_product finds |classes|^k * |f classes| over
    max_states.  The search itself visits multichoose(|charge|, k) * |f classes|
    states: the transpositions join every reordering of a tuple of charge
    positions, so each state is one multiset of k positions.  A loop
    generator a_j moves one element of a multiset by a table on the charge
    positions; for each f class, entry p of the table is act's one-letter
    step a_j applied to charge class p.  The multisets are numbered level
    by level, and a table of at most |charge| * multichoose(|charge|, k - 1)
    <= |classes|^k ints gives the number of each multiset plus one
    position, so the cap bounds it too; it depends only on |charge| and k.
    """
    _require_hypothesis(model, "the brute-force component count")
    check_count("puncture count", k)
    n, n_f = len(target.classes), len(target.f_classes)
    if not is_int(max_states):
        raise ValueError(f"max_states must be an int, got {clip(repr(max_states))}")
    if capped_product([(n, k), (n_f, 1)], max_states) is None:
        raise TooLarge(
            f"state graph would have up to {n}^{k} * {n_f} states, "
            f"over the cap {max_states}"
        )
    if k == 0:
        return n_f
    m = len(target.charge)
    if m == 0 or n_f == 0:
        return 0
    # act's checks, once and in act's order, for the generators that
    # exist: slot loops when g > 0, transpositions when k > 1.
    if k > 1 or model.g:
        _check_loop_rank(target, model)
    _check_reflection_closed(model, target)
    pos = {c: p for p, c in enumerate(target.charge)}
    total = 0
    for f_words in target.f_classes:
        tables = [[pos[_move(model, target, f_words, j, c)] for c in target.charge]
                  for j in range(1, model.g + 1)]
        total += _component_count(m, k, tables)
    return total


_ID_KINDS = "class ids must be JSON strings, numbers or null"


def _check_ids(ids: Sequence[object], what: str) -> None:
    # A JSON true or false would be taken for the id 1 or 0 (True == 1).
    if any(isinstance(c, bool) for c in ids):
        raise ParseError(f"{what} holds true or false; {_ID_KINDS}")


def _ids_to_indices(
    target_classes: Sequence[object], ids: Sequence[object], what: str
) -> tuple[int, ...]:
    _check_ids(ids, what)
    try:
        lookup = {c: i for i, c in enumerate(target_classes)}
        return tuple(lookup[c] for c in ids)
    except KeyError as exc:
        raise ParseError(f"{what} names unknown class id {clip(repr(exc.args[0]))}") from None
    except TypeError:  # an array or object where an id belongs
        raise ParseError(_ID_KINDS) from None


def target_from_json(obj: object) -> TargetModel:
    """Parse and validate the JSON form of a TargetModel."""
    pi1_gens, classes, action_obj, refl, charge, f_json = json_fields(
        obj, "target model", ("pi1_gens", "classes", "action", "reflection", "charge", "f_classes"))
    if not is_int(pi1_gens) or pi1_gens < 0:
        raise ParseError("pi1_gens must be a non-negative integer")
    classes = tuple(json_array(classes, "classes must be an array of ids"))
    _check_ids(classes, "classes")
    json_object(action_obj, "action must be an object keyed by generator names")
    action = []
    for j in range(1, pi1_gens + 1):
        key = f"a{j}"
        if key not in action_obj:
            raise ParseError(f"action is missing generator {key}")
        row = json_array(action_obj[key], f"action of {key} must be an array of class ids")
        action.append(_ids_to_indices(classes, row, f"action of {key}"))
    if len(action_obj) != pi1_gens:
        extra = set(action_obj) - {f"a{j}" for j in range(1, pi1_gens + 1)}
        raise ParseError(f"action has unexpected keys: {sorted(extra)}")
    json_array(refl, "reflection must be an array of class ids")
    json_array(charge, "charge must be an array of class ids")
    f_classes = []
    for ws in json_array(f_json, "f_classes must be an array of word arrays"):
        ws = json_array(ws, "each f class must be an array of words")
        f_classes.append(tuple(parse_word(w) for w in ws))
    with parsing():
        return TargetModel(
            pi1_gens=pi1_gens,
            classes=classes,
            action=tuple(action),
            reflection=_ids_to_indices(classes, refl, "reflection"),
            charge=tuple(
                sorted(_ids_to_indices(classes, charge, "charge"))
            ),
            f_classes=tuple(f_classes),
        )
