"""Block-matrix picture of self-map classes over the universal cover.

A SelfMapClass embeds as a matrix indexed by (sphere label, deck word)
pairs.  Each label-by-label block is diagonally constant: the entry in
row (l, v) and column (b, u) equals the entry in row (l, v*slope(u)^-1)
and column (b, e), where slope is the circle endomorphism.  A block is
therefore determined by its column-e data, a single RingElem, and that
finite data is what ShiftedBlockMatrix stores.  The product of two such
matrices is computed in closed form on the column data; materialize()
expands an honest finite window of the infinite matrix so the closed
form can be checked against literal integer matrix multiplication.
"""
from __future__ import annotations

from .errors import SignatureMismatch, SizeMismatch, TooLarge
from .monoid import SelfMapClass, WedgeSignature
from .ring import (
    ModuleVec,
    RingElem,
    SphereLabel,
    format_ring,
    ring_endo_apply,
    ring_mul,
    ring_to_json,
    translate_right,
)
from .words import (
    FreeEndo,
    FreeWord,
    endo_apply,
    endo_compose,
    enumerate_words,
    format_word,
)

IndexKey = tuple[SphereLabel, FreeWord]

# Most rows materialize() lists; the columns are never more than the rows.
# The embed suite's windows stay within 4,371 rows (radius 6 at g = 2).
MAX_WINDOW_ROWS = 200_000


class ShiftedBlockMatrix:
    """Diagonally constant block matrix, stored as column-e data per block."""

    __slots__ = ("sig", "slope", "blocks")

    def __init__(
        self,
        sig: WedgeSignature,
        slope: FreeEndo,
        blocks: dict[tuple[SphereLabel, SphereLabel], RingElem],
    ) -> None:
        if slope.rank != sig.g:
            raise ValueError(f"slope rank {slope.rank} does not match g={sig.g}")
        allowed = sig.label_set
        clean: dict[tuple[SphereLabel, SphereLabel], RingElem] = {}
        for (row, col), r in blocks.items():
            if row not in allowed or col not in allowed:
                raise ValueError(f"block ({row},{col}) outside signature labels")
            if r:
                clean[(row, col)] = r
        self.sig = sig
        self.slope = slope
        self.blocks = clean

    def block(self, row: SphereLabel, col: SphereLabel) -> RingElem:
        return self.blocks.get((row, col), RingElem.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShiftedBlockMatrix):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.slope == other.slope
            and self.blocks == other.blocks
        )

    def __repr__(self) -> str:
        return f"ShiftedBlockMatrix<{format_block_matrix(self)}>"


def embed(h: SelfMapClass) -> ShiftedBlockMatrix:
    """Matrix of h: block (l,b) holds the l-component of the image of b."""
    blocks: dict[tuple[SphereLabel, SphereLabel], RingElem] = {}
    for b in h.sig.labels:
        for l, r in h.sphere_part[b].entries.items():
            blocks[(l, b)] = r
    return ShiftedBlockMatrix(h.sig, h.circle_part, blocks)


def to_self_map(a: ShiftedBlockMatrix) -> SelfMapClass:
    """Inverse of embed: reassemble the self-map class from column data."""
    spheres: dict[SphereLabel, ModuleVec] = {}
    for b in a.sig.labels:
        spheres[b] = ModuleVec(
            [(l, a.blocks[(l, bb)]) for (l, bb) in a.blocks if bb == b]
        )
    return SelfMapClass(a.sig, a.slope, spheres)


def matrix_mul(a: ShiftedBlockMatrix, b: ShiftedBlockMatrix) -> ShiftedBlockMatrix:
    """Product on column data: col(l,b) = sum_m a_col(l,m) * slope_a(b_col(m,b))."""
    if a.sig != b.sig:
        raise SignatureMismatch("matrix factors live over different wedges")
    blocks: dict[tuple[SphereLabel, SphereLabel], RingElem] = {}
    for (m, col), rb in b.blocks.items():
        moved = ring_endo_apply(a.slope, rb)
        for (row, mm), ra in a.blocks.items():
            if mm != m:
                continue
            contrib = ring_mul(ra, moved)
            key = (row, col)
            prev = blocks.get(key)
            n = contrib if prev is None else prev + contrib
            if n:
                blocks[key] = n
            else:
                blocks.pop(key, None)
    return ShiftedBlockMatrix(a.sig, endo_compose(a.slope, b.slope), blocks)


def shift(a: ShiftedBlockMatrix, w: FreeWord) -> ShiftedBlockMatrix:
    """Left-translate every block's column data by w (vertical block shift)."""
    return ShiftedBlockMatrix(
        a.sig,
        a.slope,
        {key: RingElem.from_word(w) * r for key, r in a.blocks.items()},
    )


def max_shift(a: ShiftedBlockMatrix) -> int:
    """Longest word in any block's column data (0 for the zero matrix)."""
    return max((r.max_support_len() for r in a.blocks.values()), default=0)


class TruncatedMatrix:
    """Honest finite window of the infinite matrix, with integer entries.

    Columns cover all (label, word) pairs with word length <= radius; rows
    cover a larger ball so that every nonzero image coordinate of a column
    basis vector is present.
    """

    __slots__ = ("radius", "row_radius", "rows", "cols", "entries", "_row_set", "_col_set")

    def __init__(
        self,
        radius: int,
        row_radius: int,
        rows: tuple[IndexKey, ...],
        cols: tuple[IndexKey, ...],
        entries: dict[tuple[IndexKey, IndexKey], int],
    ) -> None:
        self.radius = radius
        self.row_radius = row_radius
        self.rows = rows
        self.cols = cols
        self._row_set = frozenset(rows)
        self._col_set = frozenset(cols)
        for (r, c), v in entries.items():
            if r not in self._row_set or c not in self._col_set:
                raise ValueError(f"entry at ({r},{c}) outside the window")
            if not isinstance(v, int):
                raise ValueError(f"entries must be int, got {v!r}")
        self.entries = {key: v for key, v in entries.items() if v}

    def entry(self, row: IndexKey, col: IndexKey) -> int:
        if row not in self._row_set:
            raise ValueError(f"row {row} outside the window")
        if col not in self._col_set:
            raise ValueError(f"column {col} outside the window")
        return self.entries.get((row, col), 0)

    def with_entry(self, row: IndexKey, col: IndexKey, value: int) -> "TruncatedMatrix":
        """Copy with one entry replaced (used as a negative control)."""
        new = dict(self.entries)
        if value:
            new[(row, col)] = value
        else:
            new.pop((row, col), None)
        return TruncatedMatrix(self.radius, self.row_radius, self.rows, self.cols, new)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"TruncatedMatrix(radius={self.radius}, rows={len(self.rows)}, "
            f"cols={len(self.cols)}, nonzero={len(self.entries)})"
        )


def _ball_keys(sig: WedgeSignature, radius: int) -> tuple[IndexKey, ...]:
    words = list(enumerate_words(sig.g, radius))
    return tuple((lab, w) for lab in sig.labels for w in words)


def _ball_keys_count(sig: WedgeSignature, radius: int, cap: int) -> int | None:
    """len(_ball_keys(sig, radius)), or None if it exceeds cap.

    Worked out level by level without listing words; the sum stops once it
    passes cap, so a huge radius costs a few multiplications.
    """
    n = len(sig.labels)
    if sig.g <= 1:
        words = 2 * radius * sig.g + 1
    else:
        words, level = 1, 2 * sig.g
        for _ in range(radius):
            words += level
            if words * n > cap:
                return None
            level *= 2 * sig.g - 1
    return words * n if words * n <= cap else None


def materialize(
    a: ShiftedBlockMatrix, radius: int, max_cells: int | None = None
) -> TruncatedMatrix:
    """Expand the window of the infinite matrix on the radius-ball columns.

    The entry in row (l, v), column (b, u) is the coefficient of
    v*slope(u)^-1 in block (l, b).  The row ball is padded so every
    nonzero coordinate of every column's image is inside the window.
    Both sides are counted before they are listed: a window of more than
    MAX_WINDOW_ROWS rows, or of more than max_cells rows x columns when
    given, raises TooLarge.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    cells = MAX_WINDOW_ROWS ** 2 if max_cells is None else max_cells

    def too_large(window: str) -> TooLarge:
        return TooLarge(
            f"{window} would pass the cap of {MAX_WINDOW_ROWS} rows or "
            f"{cells} cells; choose a smaller radius"
        )

    n_cols = _ball_keys_count(a.sig, radius, MAX_WINDOW_ROWS)
    # The rows cover at least the column ball, so there are n_cols^2 cells or more.
    if n_cols is None or n_cols * n_cols > cells:
        raise too_large(f"window of radius {radius}")
    cols = _ball_keys(a.sig, radius)
    by_col: dict[SphereLabel, list[tuple[SphereLabel, RingElem]]] = {}
    for (l, b), r in a.blocks.items():
        by_col.setdefault(b, []).append((l, r))
    arising = 0
    col_terms: dict[IndexKey, list[tuple[SphereLabel, FreeWord, int]]] = {}
    for b, u in cols:
        su = endo_apply(a.slope, u)
        terms: list[tuple[SphereLabel, FreeWord, int]] = []
        for l, r in by_col.get(b, ()):
            for w, c in translate_right(r, su).terms.items():
                terms.append((l, w, c))
                if len(w) > arising:
                    arising = len(w)
        if terms:
            col_terms[(b, u)] = terms
    # The pad suffices whenever the slope does not lengthen words (every
    # point-push has identity slope); a stretching slope widens the ball.
    row_radius = max(radius + max_shift(a), arising)
    row_cap = min(MAX_WINDOW_ROWS, cells // max(n_cols, 1))
    if _ball_keys_count(a.sig, row_radius, row_cap) is None:
        raise too_large(f"window of radius {radius} with rows to radius {row_radius}")
    rows = _ball_keys(a.sig, row_radius)
    entries = {
        ((l, w), key): c
        for key, terms in col_terms.items()
        for (l, w, c) in terms
    }
    return TruncatedMatrix(radius, row_radius, rows, cols, entries)


def is_diagonally_constant(t: TruncatedMatrix, slope: FreeEndo) -> bool:
    """Check the slope rule on every entry pair inside the window.

    For each column (b, u) and row (l, v), the entry must match the entry
    at row (l, v*slope(u)^-1), column (b, e), whenever that reference cell
    is also inside the window.  A pair of two zeros cannot break the rule,
    so only the nonzero entries are scanned, with slope(u) computed once
    per column word: (a) each nonzero entry is compared with its reference
    cell, and (b) each nonzero entry ((l, w), (b, e)) of a reference column
    is compared with ((l, w*slope(u)), (b, u)) for every column (b, u)
    whose row is inside the window.  Together these cover every pair with
    a nonzero side.
    """
    e = FreeWord()
    images = {u: endo_apply(slope, u) for _b, u in t.cols}
    inverses = {u: ~su for u, su in images.items()}
    cols_of: dict[SphereLabel, list[IndexKey]] = {}
    for col in t.cols:
        cols_of.setdefault(col[0], []).append(col)
    rows, cols = t._row_set, t._col_set
    for ((l, v), (b, u)), x in t.entries.items():
        ref_row, ref_col = (l, v * inverses[u]), (b, e)
        if ref_row in rows and ref_col in cols and t.entry(ref_row, ref_col) != x:
            return False
        if u.is_identity:
            for col in cols_of[b]:
                row = (l, v * images[col[1]])
                if row in rows and t.entry(row, col) != x:
                    return False
    return True


def truncated_product(ta: TruncatedMatrix, tb: TruncatedMatrix) -> TruncatedMatrix:
    """Literal integer matrix product of two windows.

    Exact only if every row of tb that carries a nonzero entry is among
    ta's columns; otherwise the summation window clips real terms and the
    product would silently lie, so SizeMismatch is raised instead.
    """
    ta_cols = set(ta.cols)
    needed = {r for (r, _c) in tb.entries}
    missing = needed - ta_cols
    if missing:
        raise SizeMismatch(
            f"left window lacks {len(missing)} middle-index columns, "
            f"e.g. {sorted(missing, key=lambda k: (k[0].sort_key, len(k[1].letters)))[0]}"
        )
    by_mid: dict[IndexKey, list[tuple[IndexKey, int]]] = {}
    for (mid, col), v in tb.entries.items():
        by_mid.setdefault(mid, []).append((col, v))
    entries: dict[tuple[IndexKey, IndexKey], int] = {}
    for (row, mid), va in ta.entries.items():
        for col, vb in by_mid.get(mid, ()):  # only mids with nonzero tb rows
            key = (row, col)
            n = entries.get(key, 0) + va * vb
            if n:
                entries[key] = n
            else:
                del entries[key]
    return TruncatedMatrix(tb.radius, ta.row_radius, ta.rows, tb.cols, entries)


def to_tsv(t: TruncatedMatrix) -> str:
    """Tab-separated dump with 'label:word' headers, rows in window order."""
    header = "\t".join([""] + [f"{lab}:{format_word(w)}" for lab, w in t.cols])
    lines = [header]
    for row in t.rows:
        lab, w = row
        cells = [f"{lab}:{format_word(w)}"]
        for col in t.cols:
            cells.append(str(t.entries.get((row, col), 0)))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def format_block_matrix(a: ShiftedBlockMatrix) -> str:
    """Grid rendering of the column data, e.g. '[[a1, 1], [0, 1]]'."""
    labels = a.sig.labels
    rows = []
    for l in labels:
        cells = [format_ring(a.block(l, b)) for b in labels]
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(rows) + "]"


def block_matrix_to_json(a: ShiftedBlockMatrix) -> dict:
    return {
        "g": a.sig.g,
        "d": a.sig.d,
        "labels": [str(lab) for lab in a.sig.labels],
        "slope": [format_word(w) for w in a.slope.images],
        "blocks": {
            f"{row},{col}": ring_to_json(r)
            for (row, col), r in sorted(
                a.blocks.items(),
                key=lambda kv: (kv[0][0].sort_key, kv[0][1].sort_key),
            )
        },
    }
