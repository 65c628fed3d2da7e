"""The two size homes: errors.capped_product and embedding._ball_size.

Each site that now calls a home is checked against the rule it wrote out
before, kept here as an oracle: words.count_words's power shortcut, the
state cap of orbits.components_bruteforce, pushing's braid count for
kernel_report, and materialize's and TruncatedMatrix's window arithmetic.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import pytest

from pushcalc import pushing
from pushcalc.embedding import _ball_keys, _ball_size
from pushcalc.errors import TooLarge, capped_product
from pushcalc.monoid import WedgeSignature
from pushcalc.orbits import TargetModel, components_bruteforce
from pushcalc.pushing import ManifoldModel, PuncturedSignature, kernel_report
from pushcalc.ring import SphereLabel
from pushcalc.words import FreeWord, count_words

BASES = (0, 1, 2, 3, 4, 5, 10**50)
EXPONENTS = (*range(9), 10**9, 10**30)
CAPS = (-3, -1, 0, 1, 2, 7, 16, 10**6, 2**64)


def _product_or_none(powers, cap):
    """math.prod(b ** e for b, e in powers) if it is at most cap, else None."""
    if any(b == 0 and e for b, e in powers):
        product = 0
    elif any(b > 1 and e >= 10**9 for b, e in powers):
        return None   # over every cap of the grid, so the power is not built
    else:
        product = math.prod(b ** e for b, e in powers)
    return product if product <= cap else None


def test_capped_product_is_the_product_within_its_cap():
    # The grid holds exponents of 10**30: a product that multiplied them in
    # one at a time without stopping at the cap would never finish.
    pairs = list(itertools.product(BASES, EXPONENTS))
    for cap in CAPS:
        assert capped_product([], cap) == (1 if cap >= 1 else None)
        for powers in itertools.chain(([p] for p in pairs),
                                      itertools.product(pairs, repeat=2)):
            powers = list(powers)
            assert capped_product(powers, cap) == _product_or_none(powers, cap), (powers, cap)


# --- the three rules the sites wrote out inline, kept as oracles ---


def _inline_count_words(g, max_len, cap=None):
    if g <= 1:
        total = 2 * max_len * g + 1
    elif cap is not None and max_len > cap.bit_length():
        return None
    else:
        total = 1 + g * ((2 * g - 1) ** max_len - 1) // (g - 1)
    return None if cap is not None and total > cap else total


def _inline_braid_count(ball_size, k, cap):
    total = 1
    for factor in itertools.chain(range(2, k + 1), itertools.repeat(ball_size, k)):
        if total > cap:
            return None
        total *= factor
    return total if total <= cap else None


def _inline_refuses_states(n, n_f, k, max_states):
    return bool(max_states < 0 or n_f and (
        n > 1 and k > max_states.bit_length() or n ** k * n_f > max_states
    ))


def test_count_words_matches_the_inline_rule():
    for g, cap in itertools.product(range(5), (None, *CAPS, 17, 10**50)):
        for max_len in (*range(13), 40, 200, 10**9, 10**30):
            if cap is None and g > 1 and max_len > 200:
                continue   # the uncapped ball of 10**9 letters is not counted
            assert count_words(g, max_len, cap) == _inline_count_words(g, max_len, cap), (
                g, max_len, cap)


def test_kernel_report_counts_braids_as_the_inline_rule(monkeypatch):
    # _sweep_work receives the braid count kernel_report settled on; stop there.
    seen = []

    class Counted(Exception):
        pass

    def sweep_work(g, k, max_len, braids):
        seen.append(braids)
        raise Counted

    monkeypatch.setattr(pushing, "_sweep_work", sweep_work)
    # balls up to 10**50 words (g = 3 at 71 letters, g = 4 at 59) and past it
    for g, max_len in itertools.product(range(1, 5), (0, 1, 2, 3, 8, 59, 71, 1000)):
        ball = count_words(g, max_len)
        for k in range(8):
            sig = PuncturedSignature(ManifoldModel.default(g), k)
            for max_braids in (0, 1, 2, 17, 18, 19, 20_000, 10**6, 2**64, 10**60):
                with pytest.raises(Counted):
                    kernel_report(sig, max_len, max_braids)
                count = _inline_braid_count(ball, k, max_braids)
                assert seen.pop() == (max_braids if count is None else count), (
                    g, max_len, k, max_braids)


def test_kernel_report_is_exhaustive_up_to_its_braid_count():
    # g = 1, k = 2, one letter: 3**2 slot words times 2 permutations
    sig = PuncturedSignature(ManifoldModel.default(1), 2)
    for max_braids, exhaustive in ((17, False), (18, True), (19, True)):
        report = kernel_report(sig, 1, max_braids)
        assert report.exhaustive == exhaustive
        assert report.total_checked == (18 if exhaustive else max_braids)


def test_bruteforce_state_cap_matches_the_inline_rule():
    model = dataclasses.replace(ManifoldModel.default(1), low_handle_dim=True)
    for n, n_f in itertools.product((0, 1, 2, 3, 5), (0, 1, 2)):
        ids = tuple(f"c{i}" for i in range(n))
        # an empty charge ends the search as soon as the cap is passed
        target = TargetModel(1, ids, (tuple(range(n)),), tuple(range(n)), (),
                             ((FreeWord(),),) * n_f)
        for k, cap in itertools.product(EXPONENTS, CAPS):
            if _inline_refuses_states(n, n_f, k, cap):
                with pytest.raises(TooLarge, match=f"up to {n}\\^{k} \\* {n_f} states, "
                                                   f"over the cap {cap}$"):
                    components_bruteforce(target, model, k, max_states=cap)
            else:
                assert components_bruteforce(target, model, k, max_states=cap) == (
                    n_f if k == 0 else 0)


def test_ball_size_matches_the_inline_window_arithmetic():
    for g, n_labels in itertools.product(range(4), range(4)):
        sig = WedgeSignature(g, [SphereLabel("p", i + 1) for i in range(n_labels)])
        for radius in (*range(7), 10**30):
            if radius < 7:
                assert _ball_size(sig, radius) == len(_ball_keys(sig, radius))
                assert _ball_size(sig, radius) == n_labels * count_words(g, radius)
            for cap in (*CAPS, 200_000, 200_000**2):
                # materialize's column and row guards: the words are capped
                # as for one label when there are none
                n_words = _inline_count_words(g, radius, cap // max(n_labels, 1))
                inline = None if n_words is None else n_words * n_labels
                assert _ball_size(sig, radius, cap) == inline, (g, n_labels, radius, cap)
