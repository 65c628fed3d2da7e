"""Matrices of self-map classes: products by compose versus honest truncated windows."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from pushcalc import embedding, verification
from pushcalc.embedding import (
    MAX_WINDOW_ROWS,
    TruncatedMatrix,
    _ball_keys,
    block_matrix_to_json,
    format_block_matrix,
    materialize,
    max_shift,
    to_tsv,
    truncated_product,
)
from pushcalc.errors import SignatureMismatch, SizeMismatch, TooLarge
from pushcalc.monoid import SelfMapClass, WedgeSignature, compose, identity_map
from pushcalc.ring import RingElem, SphereLabel
from pushcalc.verification import _window_mismatch
from pushcalc.words import (
    IDENTITY,
    FreeEndo,
    FreeWord,
    endo_apply,
    enumerate_words,
    format_word,
    parse_word,
)

from _helpers import coefficient, rand_word, ring_of

P1 = SphereLabel("p", 1)
T1 = SphereLabel("t", 1)
T2 = SphereLabel("t", 2)
SIG1 = WedgeSignature(1, (P1, T1))
SIG2 = WedgeSignature(2, (P1, T1, T2))


def push_alpha() -> SelfMapClass:
    return SelfMapClass(
        SIG1,
        FreeEndo([parse_word("a1")]),
        {
            P1: {P1: ring_of({"a1": 1})},
            T1: {P1: ring_of({"e": 1}), T1: ring_of({"e": 1})},
        },
    )


def push_alpha_inv() -> SelfMapClass:
    return SelfMapClass(
        SIG1,
        FreeEndo([parse_word("a1")]),
        {
            P1: {P1: ring_of({"A1": 1})},
            T1: {P1: ring_of({"A1": -1}), T1: ring_of({"e": 1})},
        },
    )


def collapse_circle() -> SelfMapClass:
    return SelfMapClass(
        SIG1,
        FreeEndo([IDENTITY]),
        {P1: {P1: RingElem.one()}, T1: {T1: RingElem.one()}},
    )


def with_entry(t: TruncatedMatrix, row, col, value: int) -> TruncatedMatrix:
    """t with one cell inside its window set to value (0 drops the entry)."""
    assert t.has_row(row) and t.has_col(col), (row, col)
    entries = {**t.entries, (row, col): value}
    if not value:
        del entries[row, col]
    return TruncatedMatrix(t.sig, t.radius, t.row_radius, entries)


def rand_map(rng: random.Random, sig: WedgeSignature, circle_len: int = 1,
             word_len: int = 3) -> SelfMapClass:
    endo = FreeEndo([rand_word(rng, sig.g, circle_len) for _ in range(sig.g)])
    spheres = {}
    for b in sig.labels:
        entries = []
        for l in sig.labels:
            r = RingElem(
                [(rand_word(rng, sig.g, word_len), rng.randrange(-2, 3))
                 for _ in range(rng.randrange(3))]
            )
            if r:
                entries.append((l, r))
        spheres[b] = dict(entries)
    return SelfMapClass(sig, endo, spheres)


def test_embed_examples():
    # row l, column b holds the l-component of the image of b: the p1 part of
    # t1's image sits in row p1, column t1
    assert format_block_matrix(push_alpha()) == "[[a1, 1], [0, 1]]"
    assert format_block_matrix(identity_map(SIG1)) == "[[1, 0], [0, 1]]"
    assert format_block_matrix(collapse_circle()) == "[[1, 0], [0, 1]]"


def test_collapse_map_materializes_to_row_of_ones():
    # a cell key is (label, reduced letter tuple): () is e, (1,) a1, (-1,) A1
    t = materialize(collapse_circle(), 1)
    assert t.entry((P1, ()), (P1, ())) == 1
    assert t.entry((P1, ()), (P1, (1,))) == 1
    assert t.entry((P1, ()), (P1, (-1,))) == 1
    assert t.entry((P1, (1,)), (P1, (1,))) == 0
    assert t.entry((T1, ()), (T1, (1,))) == 1
    assert t.entry((T1, ()), (P1, (1,))) == 0


def test_embed_round_trip_and_injectivity():
    # The radius-0 window reads back, cell for cell, as the class's blocks,
    # one cell per block term: no term is lost or merged with another.
    rng = random.Random(91)
    for _ in range(50):
        h = rand_map(rng, SIG2)
        t = materialize(h, 0)
        assert _window_mismatch(t, h) is None
        assert len(t.entries) == sum(
            len(r.terms) for vec in h.sphere_part.values() for r in vec.values()
        )


def test_materialize_radius0_values():
    t = materialize(push_alpha(), 0)
    assert t.radius == 0 and t.row_radius == 1
    assert t.cols == ((P1, ()), (T1, ()))
    assert t.entry((P1, (1,)), (P1, ())) == 1
    assert t.entry((P1, ()), (T1, ())) == 1
    assert t.entry((T1, ()), (T1, ())) == 1
    assert t.entry((P1, ()), (P1, ())) == 0
    assert len(t.entries) == 3
    assert max_shift(push_alpha()) == 1
    assert max_shift(identity_map(SIG1)) == 0


def test_materialize_identity_is_identity_window():
    t = materialize(identity_map(SIG1), 1)
    assert t.rows == t.cols
    for key in t.cols:
        assert t.entry(key, key) == 1
    assert len(t.entries) == len(t.cols)


def test_truncated_product_matches_closed_form():
    rng = random.Random(93)
    for _ in range(40):
        sig = SIG1 if rng.random() < 0.5 else SIG2
        a = rand_map(rng, sig)
        b = rand_map(rng, sig)
        c = compose(a, b)
        tb = materialize(b, 1)
        ta = materialize(a, tb.row_radius)
        tp = truncated_product(ta, tb)
        tc = materialize(c, 1)
        assert set(tc.rows) <= set(tp.rows)
        assert tc.cols == tp.cols
        # Both windows hold only their nonzero entries, so equal dicts on
        # tc's rows mean equal entries in every cell of tc.
        assert {key: v for key, v in tp.entries.items() if tc.has_row(key[0])} == tc.entries


def test_truncated_product_coverage_guard():
    a = push_alpha()
    tb = materialize(a, 1)
    ta = materialize(a, 0)
    with pytest.raises(SizeMismatch):
        truncated_product(ta, tb)


def test_long_slopes_place_every_column():
    # materialize builds each column's slope image from its prefix's and
    # one letter's; the oracle applies the slope to the whole column word.
    # Slope images of up to three letters cancel in those products.
    rng = random.Random(95)
    for _ in range(30):
        for sig, circle_len, radius in ((SIG1, 3, 4), (SIG2, 2, 2)):
            h = rand_map(rng, sig, circle_len=circle_len, word_len=2)
            assert _window_mismatch(materialize(h, radius), h) is None


def test_vertical_finiteness_bound():
    rng = random.Random(94)
    for _ in range(20):
        h = rand_map(rng, SIG2)
        t = materialize(h, 2)
        per_col: dict = {}
        for (row, col), v in t.entries.items():
            per_col.setdefault(col, 0)
            per_col[col] += 1
        for (b, u), count in per_col.items():
            bound = sum(len(r.terms) for r in h.sphere_part[b].values())
            assert count <= bound


def test_tsv_goldens():
    ident = materialize(identity_map(SIG1), 0)
    assert to_tsv(ident) == (
        "\tp1:e\tt1:e\n"
        "p1:e\t1\t0\n"
        "t1:e\t0\t1\n"
    )
    t = materialize(push_alpha(), 0)
    assert to_tsv(t) == (
        "\tp1:e\tt1:e\n"
        "p1:e\t0\t1\n"
        "p1:a1\t1\t0\n"
        "p1:A1\t0\t0\n"
        "t1:e\t0\t1\n"
        "t1:a1\t0\t0\n"
        "t1:A1\t0\t0\n"
    )


def dense_tsv(t: TruncatedMatrix) -> str:
    """to_tsv's oracle: the dense writer, which probes every cell."""
    header = "\t".join([""] + [f"{lab}:{format_word(FreeWord(w))}" for lab, w in t.cols])
    lines = [header]
    for row in t.rows:
        lab, w = row
        cells = [f"{lab}:{format_word(FreeWord(w))}"]
        for col in t.cols:
            cells.append(str(t.entries.get((row, col), 0)))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def test_sparse_tsv_matches_dense():
    # Seeded windows, each also with one cell changed, and the smallest
    # windows: no labels at all, and radius 0.
    rng = random.Random(204)
    windows = [materialize(identity_map(WedgeSignature(1, ())), 0),
               materialize(identity_map(SIG1), 0)]
    for _ in range(40):
        a, _b = rand_small_pair(rng)
        t = materialize(a, rng.choice([0, 1]))
        windows += [t, perturb(rng, t)]
    for t in windows:
        assert to_tsv(t) == dense_tsv(t)
    assert windows[0].rows == ()
    assert any(v < 0 for t in windows for v in t.entries.values())
    # rows with no nonzero entry, written as all '0' cells
    assert all(len({row for row, _ in t.entries}) < len(t.rows) for t in windows[2:])


def test_block_matrix_json():
    js = block_matrix_to_json(push_alpha())
    assert js["slope"] == ["a1"]
    assert js["labels"] == ["p1", "t1"]
    assert js["blocks"] == {
        "p1,p1": [[1, "a1"]],
        "p1,t1": [[1, "e"]],
        "t1,t1": [[1, "e"]],
    }


def test_constructor_validation():
    for radius in (-1, 1.5, "1", True):
        with pytest.raises(ValueError, match="^radius must be a non-negative int, got "):
            materialize(identity_map(SIG1), radius)
    for max_cells in (-1, 1.5, "5", True):
        with pytest.raises(ValueError, match="^max_cells must be a non-negative int, got "):
            materialize(identity_map(SIG1), 1, max_cells)


def test_materialize_refuses_huge_windows_before_listing():
    a = push_alpha()
    g2 = identity_map(SIG2)
    # Columns alone: 3 x 1,062,881 words at g = 2, radius 12.
    for h, radius in ((g2, 12), (g2, 10**9), (a, 10**9)):
        with pytest.raises(TooLarge, match="window of radius"):
            materialize(h, radius)
    # Few columns, but the rows reach radius 20 through a long block word.
    long_word = SelfMapClass(
        SIG2, FreeEndo.identity(2),
        {P1: {P1: ring_of({"a1^20": 1})},
         T1: {T1: RingElem.one()}, T2: {T2: RingElem.one()}},
    )
    with pytest.raises(TooLarge, match="rows to radius 20"):
        materialize(long_word, 0)
    # The largest window the embed suite builds (radius 4 columns, radius 6
    # rows at g = 2) is admitted.
    wide = SelfMapClass(
        SIG2, FreeEndo.identity(2),
        {P1: {P1: ring_of({"a1 a2": 1})},
         T1: {T1: RingElem.one()}, T2: {T2: RingElem.one()}},
    )
    t = materialize(wide, 4)
    assert (len(t.rows), len(t.cols)) == (4371, 483)
    # The identity at g = 1 has 2 * (2r + 1) rows and columns: a cells cap of
    # 2,826^2 admits r = 706 and refuses r = 707 (2,830^2 cells).
    ident = identity_map(SIG1)
    t = materialize(ident, 706, max_cells=2826 ** 2)
    assert len(t.rows) * len(t.cols) == 2826 ** 2
    with pytest.raises(TooLarge, match="7986276 cells"):
        materialize(ident, 707, max_cells=2826 ** 2)
    # The cells cap also bounds the rows: push_alpha at radius 0 is 6 x 2.
    assert materialize(a, 0, max_cells=12).rows
    with pytest.raises(TooLarge, match="rows to radius 1"):
        materialize(a, 0, max_cells=11)
    # A long block word at g = 1 passes the rows cap with only two columns.
    long_g1 = SelfMapClass(
        SIG1, FreeEndo.identity(1),
        {P1: {P1: RingElem.from_word(FreeWord((1,) * 50000))},
         T1: {T1: RingElem.one()}},
    )
    assert 2 * (2 * 50000 + 1) > MAX_WINDOW_ROWS
    with pytest.raises(TooLarge, match="rows to radius 50000"):
        materialize(long_g1, 0)


# --- the sparse window check against the dense cell-by-cell scan it replaced ---


def dense_window_mismatch(t, c: SelfMapClass):
    for row in t.rows:
        for col in t.cols:
            block = c.sphere_part[col[0]].get(row[0], RingElem.zero())
            slope = endo_apply(c.circle_part, FreeWord(col[1]))
            want = coefficient(block, FreeWord(row[1]) * ~slope)
            if t.entry(row, col) != want:
                return row, col
    return None


def perturb(rng: random.Random, t):
    """t with one cell changed: a nonzero entry, a reference-column cell, or any cell."""
    pick = rng.randrange(3)
    if pick == 0 and t.entries:
        (row, col), v = rng.choice(sorted(t.entries.items(), key=repr))
        return with_entry(t, row, col, rng.choice([0, v + 1, -v]))
    row = rng.choice(t.rows)
    if pick == 1:
        col = rng.choice([c for c in t.cols if c[1] == ()])
    else:
        col = rng.choice(t.cols)
    return with_entry(t, row, col, t.entry(row, col) + rng.choice([-1, 1, 2]))


def rand_small_pair(rng: random.Random):
    sig = SIG1 if rng.random() < 0.6 else SIG2
    word_len = 3 if sig is SIG1 else 1
    return (rand_map(rng, sig, word_len=word_len),
            rand_map(rng, sig, word_len=word_len))


def test_sparse_truncated_check_matches_dense():
    # The embed suite's windows: truncated products, then windows that
    # materialize() lists directly.  Each is checked as built, with one cell
    # changed, and against another class.
    rng = random.Random(96)
    outcomes = []
    for i in range(480):
        a, b = rand_small_pair(rng)
        if i < 240:
            c = compose(a, b)
            tb = materialize(b, rng.choice([0, 1]))
            t = truncated_product(materialize(a, tb.row_radius), tb)
            other = compose(b, a)   # usually a different product, many wrong cells
        else:
            c = a
            t = materialize(a, rng.choice([0, 1, 2]) if a.sig is SIG1 else rng.choice([0, 1]))
            other = SelfMapClass(a.sig, b.circle_part, a.sphere_part)   # another slope
        if i % 3 == 1:
            t = perturb(rng, t)
        elif i % 3 == 2:
            c = other
        got = _window_mismatch(t, c)
        assert got == dense_window_mismatch(t, c), i
        outcomes.append(got is None)
    assert outcomes[:240].count(True) >= 40 and outcomes[:240].count(False) >= 40
    assert outcomes[240:].count(True) >= 40 and outcomes[240:].count(False) >= 40


def test_truncated_matmul_property_reports_the_dense_first_cell(monkeypatch):
    (prop,) = [p for p in verification._embed_properties() if p.name == "truncated-matmul"]
    rng = random.Random(97)
    seen: list = []

    def corrupted(ta, tb):
        t = truncated_product(ta, tb)
        row, col = rng.choice(t.rows), rng.choice(t.cols)
        seen.append(with_entry(t, row, col, t.entry(row, col) + 3))
        return seen[-1]

    monkeypatch.setattr(verification, "truncated_product", corrupted)
    for _ in range(30):
        case = prop.gen(rng)
        msg = prop.fails(case)
        _radius, spec_a, spec_b = case
        c = compose(verification._map(spec_a), verification._map(spec_b))
        # the report names each key with its word as a FreeWord
        (lr, v), (lc, u) = dense_window_mismatch(seen[-1], c)
        assert msg == f"truncated product wrong at {(lr, FreeWord(v))}, {(lc, FreeWord(u))}"


def test_embed_suite_catches_a_slope_fault(monkeypatch):
    # materialize() places every column as if the slope were the identity;
    # _window_mismatch binds its own endo_apply, so the oracle is unharmed.
    # The radius-0 round trip has no column the slope moves, so it passes.
    monkeypatch.setattr(embedding, "endo_apply", lambda endo, w: w)
    report = verification.run_suite("embed", 0, 100)
    results = {r.name: r for r in report.results}
    assert [r.name for r in report.results if not r.ok] == [
        "truncated-matmul", "diagonal-constancy"]
    assert results["embedding-round-trip"].ok
    assert results["diagonal-constancy"].counterexample.startswith(
        "materialized window is not diagonally constant; case ")
    # The log lists the drawn cases only, none of the shrinker's reruns.
    matmul = results["truncated-matmul"]
    assert len(matmul.extra["radius_log"]) == matmul.cases


# --- window membership by radius against the listed balls ---

# Keys no window holds.  Each (label, word) pair is within some window's
# label, length and rank, and only its word is wrong: unreduced, a 0, bool,
# float or str letter, a list or FreeWord word.  Then things that are no
# (label, word) pair.
FOREIGN_KEYS = [
    (P1, (1, -1)), (T1, (2, -2, 1)),
    (P1, (0,)), (P1, (1, 0)), (P1, (True,)), (P1, (1, False)), (P1, (1.0,)), (P1, ("a1",)),
    (P1, [1]), (P1, FreeWord([1])), (P1, FreeWord()),
    (P1,), (P1, (1,), 0), None, "p1:a1", ([P1], ()), ((1,), P1),
]


def test_window_membership_matches_listed_balls():
    rng = random.Random(98)
    p2 = SphereLabel("p", 2)
    sigs = [WedgeSignature(0, (P1, p2)), SIG1, SIG2]
    unknown = SphereLabel("p", 99)
    windows = 0
    for sig in sigs:
        short = 0 if sig.g == 0 else 1
        for radius in range(4):
            h = rand_map(rng, sig, circle_len=short, word_len=2 * short)
            t = materialize(h, radius)
            if radius < 2:   # a derived window too: rows of a, columns of t
                a = materialize(rand_map(rng, sig, short, short), t.row_radius)
                derived = truncated_product(a, t)
                checks = [t, derived, with_entry(derived, derived.rows[-1], t.cols[0], 5)]
            else:
                checks = [t]
            for w in checks:
                windows += 1
                rows = _ball_keys(sig, w.row_radius)
                cols = _ball_keys(sig, w.radius)
                assert (w.rows, w.cols) == (rows, cols)
                row_set, col_set = set(rows), set(cols)
                probes = list(row_set | col_set)
                for r in (w.radius, w.row_radius):
                    # one letter too long, generator g + 1, an unknown label
                    longest = max(enumerate_words(sig.g, r), key=len).letters
                    x = longest[-1] if longest else 1
                    probes += [(P1, longest + (x,)), (P1, (sig.g + 1,)),
                               (P1, (-sig.g - 1,)), (unknown, ())]
                cases = [(key, key in row_set, key in col_set) for key in probes]
                # no window holds a foreign key, though True == 1 puts
                # (P1, (True,)) in row_set
                cases += [(key, False, False) for key in FOREIGN_KEYS]
                for key, in_row, in_col in cases:
                    assert w.has_row(key) == in_row, key
                    assert w.has_col(key) == in_col, key
                for row, in_row, _ in cases:
                    for col in (cols[0], cols[-1], (unknown, ())):
                        if in_row and col in col_set:
                            assert w.entry(row, col) == w.entries.get((row, col), 0)
                        else:
                            with pytest.raises(ValueError, match="outside the window"):
                                w.entry(row, col)
    assert windows >= 20
    # A block word over generator g + 1 would put entries outside any window;
    # a SelfMapClass refuses such a word.
    with pytest.raises(ValueError, match="exceeds rank 1"):
        SelfMapClass(SIG1, FreeEndo.identity(1), {P1: {P1: ring_of({"A2": 1})}})


def test_truncated_product_needs_one_wedge():
    # A product window takes its rows and columns over a single wedge.
    t1 = materialize(identity_map(SIG1), 0)
    t2 = materialize(identity_map(SIG2), 0)
    with pytest.raises(SignatureMismatch):
        truncated_product(t1, t2)


def test_embed_properties_list_no_ball(monkeypatch):
    calls = []

    def counted(sig, radius):
        calls.append(radius)
        return _ball_keys(sig, radius)

    monkeypatch.setattr(embedding, "_ball_keys", counted)
    props = {p.name: p for p in verification._embed_properties()}
    rng = random.Random(99)
    for name in ("truncated-matmul", "diagonal-constancy"):
        for _ in range(30):
            assert props[name].fails(props[name].gen(rng)) is None
    assert calls == []
    # The counter works: a TSV lists both balls.
    to_tsv(materialize(push_alpha(), 0))
    assert sorted(calls) == [0, 1]


def test_label_free_window_lists_no_word(monkeypatch):
    listed = []

    def counted(g, max_len):
        listed.append(max_len)
        return enumerate_words(g, max_len)

    monkeypatch.setattr(embedding, "enumerate_words", counted)
    free = SelfMapClass(WedgeSignature(2, ()), FreeEndo.identity(2), {})
    t = materialize(free, 10)
    assert to_tsv(t) == "\n"
    assert listed == []
    # The word cap still refuses the next radius, as with one label.
    with pytest.raises(TooLarge, match="window of radius 11"):
        materialize(free, 11)


def test_window_repr_counts_the_balls():
    t = materialize(rand_map(random.Random(7), SIG2), 2)
    text = repr(t)
    assert "rows" not in t.__dict__ and "cols" not in t.__dict__
    assert text == (f"TruncatedMatrix(radius=2, rows={len(t.rows)}, "
                    f"cols={len(t.cols)}, nonzero={len(t.entries)})")
    free = materialize(SelfMapClass(WedgeSignature(1, ()), FreeEndo.identity(1), {}), 3)
    assert repr(free) == "TruncatedMatrix(radius=3, rows=0, cols=0, nonzero=0)"


_REFUSED_PRODUCT = """
from pushcalc import embedding, errors, monoid, ring, words
P1, T1, T2 = (ring.SphereLabel(*x) for x in (("p", 1), ("t", 1), ("t", 2)))
sig = monoid.WedgeSignature(2, (P1, T1, T2))
block = ring.RingElem([(words.parse_word(w), 1) for w in ("a1", "A1", "a2", "A2 a1")])
spheres = {lab: {lab: ring.RingElem.one()} for lab in sig.labels}
spheres[P1] = {P1: block}
h = monoid.SelfMapClass(sig, words.FreeEndo.identity(2), spheres)
try:
    embedding.truncated_product(embedding.materialize(h, 0), embedding.materialize(h, 1))
except errors.SizeMismatch as exc:
    print(exc)
"""


def test_truncated_product_refusal_is_the_same_in_every_process():
    # Labels hash through their kind strings, so the order of a set of
    # missing keys changes with the hash seed; the example must not.  Under
    # these three seeds a tie on length alone named a1, A1 and A2.
    messages = {
        subprocess.run(
            [sys.executable, "-c", _REFUSED_PRODUCT], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed}, timeout=60,
        ).stdout
        for seed in ("1", "6", "7")
    }
    assert messages == {
        "left window lacks 25 middle-index columns, "
        "e.g. (SphereLabel(kind='p', index=1), FreeWord('a1'))\n"
    }
