"""Matrix format and truncation windows of a self-map class.

Over the universal cover a SelfMapClass h is a matrix indexed by (sphere
label, deck word) pairs.  Each label-by-label block is diagonally
constant: the entry in row (l, v) and column (b, u) equals the entry in
row (l, v*slope(u)^-1) and column (b, e), where the slope is h's circle
part.  A block is therefore determined by its column-e data, a single
RingElem, and that data is the class itself read by column: block (l, b)
is the l-component of h's image of b, and the product of two matrices is
compose of their classes.  materialize() expands an honest finite window
of the infinite matrix so the product can be checked against literal
integer matrix multiplication.

A window keys each row and column as (label, reduced letter tuple), the
word key of RingElem.terms, so its cells hash and compare as plain
tuples.  A key's word becomes a FreeWord only where it is printed: the
TSV labels and the reports that name a cell.
"""
from __future__ import annotations

import functools

from . import words as _words
from .errors import SignatureMismatch, SizeMismatch, TooLarge, check_count, is_int
from .monoid import SelfMapClass, WedgeSignature
from .ring import SphereLabel, format_ring, ring_to_json
from .words import (
    FreeWord,
    _max_generator,
    count_words,
    endo_apply,
    enumerate_words,
    format_word,
    shortlex_key,
)

# A row or column of a window: (label, reduced letter tuple), the word key
# of RingElem.terms, e.g. (SphereLabel("p", 1), (1, -2)) for p1 at a1 A2.
IndexKey = tuple[SphereLabel, tuple[int, ...]]

# Most rows materialize() lists; the columns are never more than the rows.
# The embed suite's windows stay within 4,371 rows (radius 6 at g = 2).
MAX_WINDOW_ROWS = 200_000


def max_shift(h: SelfMapClass) -> int:
    """Longest word in any block's column data (0 for the zero matrix)."""
    return max(
        (len(w) for vec in h.sphere_part.values() for r in vec.values() for w in r.terms),
        default=0,
    )


class TruncatedMatrix:
    """Honest finite window of the infinite matrix, with integer entries.

    Columns cover all (label, word) pairs over sig with word length <=
    radius; rows cover the same pairs to row_radius, a larger ball, so that
    every nonzero image coordinate of a column basis vector is present.
    Each row and column is an IndexKey, (label, reduced letter tuple), as
    in RingElem.terms: row (p1, a1 A2) is (SphereLabel("p", 1), (1, -2)).
    The window is held as the two radii alone: has_row and has_col test
    membership arithmetically, and rows and cols, the two balls listed in
    window order, are built only when read (to_tsv, a mismatch report).
    entries holds only the nonzero int entries, all inside the window.
    """

    def __init__(
        self,
        sig: WedgeSignature,
        radius: int,
        row_radius: int,
        entries: dict[tuple[IndexKey, IndexKey], int],
    ) -> None:
        self.sig = sig
        self.radius = radius
        self.row_radius = row_radius
        self.entries = entries

    @functools.cached_property
    def rows(self) -> tuple[IndexKey, ...]:
        return _ball_keys(self.sig, self.row_radius)

    @functools.cached_property
    def cols(self) -> tuple[IndexKey, ...]:
        return _ball_keys(self.sig, self.radius)

    def has_row(self, key: IndexKey) -> bool:
        """key in self.rows, without listing the rows."""
        return _in_ball(self.sig, self.row_radius, key)

    def has_col(self, key: IndexKey) -> bool:
        """key in self.cols, without listing the columns."""
        return _in_ball(self.sig, self.radius, key)

    def entry(self, row: IndexKey, col: IndexKey) -> int:
        if not self.has_row(row):
            raise ValueError(f"row {row} outside the window")
        if not self.has_col(col):
            raise ValueError(f"column {col} outside the window")
        return self.entries.get((row, col), 0)

    def __repr__(self) -> str:
        rows, cols = (_ball_size(self.sig, r) for r in (self.row_radius, self.radius))
        return (f"TruncatedMatrix(radius={self.radius}, rows={rows}, "
                f"cols={cols}, nonzero={len(self.entries)})")


def _in_ball(sig: WedgeSignature, radius: int, key: object) -> bool:
    """key in _ball_keys(sig, radius), without listing the ball.

    Any object may be asked about and none raises.  A key that is not a
    (label, word) pair, or whose word is not a reduced tuple of nonzero
    ints, is outside: a FreeWord word, an unreduced (1, -1), a bool
    letter (though True == 1, so a set of the ball's keys would hold it).
    """
    if type(key) is not tuple or len(key) != 2:
        return False
    lab, w = key
    if (type(w) is not tuple or len(w) > radius
            or not isinstance(lab, SphereLabel) or lab not in sig.label_set):
        return False
    prev = 0
    for x in w:
        if not is_int(x) or x == 0 or x == -prev:
            return False
        prev = x
    return _max_generator(w) <= sig.g


def _ball_keys(sig: WedgeSignature, radius: int) -> tuple[IndexKey, ...]:
    words = [u.letters for u in enumerate_words(sig.g, radius)] if sig.labels else ()
    return tuple((lab, w) for lab in sig.labels for w in words)


def _key_order(key: IndexKey) -> tuple:
    """Window order of a key: by label, then shortlex word."""
    return key[0], shortlex_key(FreeWord._wrap(key[1]))


def _printable(key: IndexKey) -> tuple[SphereLabel, FreeWord]:
    """key as a message names it, its word a FreeWord."""
    return key[0], FreeWord._wrap(key[1])


def _ball_size(sig: WedgeSignature, radius: int, cap: int | None = None) -> int | None:
    """len(_ball_keys(sig, radius)), or None if its words * max(labels, 1) pass cap."""
    words = count_words(sig.g, radius, None if cap is None else cap // max(len(sig.labels), 1))
    return None if words is None else words * len(sig.labels)


def materialize(
    h: SelfMapClass, radius: int, max_cells: int | None = None
) -> TruncatedMatrix:
    """Expand the window of h's infinite matrix on the radius-ball columns.

    The entry in row (l, v), column (b, u) is the coefficient of
    v*slope(u)^-1 in block (l, b), the l-component of h's image of b.
    The row ball is padded so every nonzero coordinate of every column's
    image is inside the window.  Only the nonzero entries are built, with
    slope(u) computed once per column word, as its prefix's slope times one
    letter's; neither ball is listed, and the column words only when some
    block is nonzero.  Both balls are still counted: a window of more than
    MAX_WINDOW_ROWS rows (or words, when there are no labels), or of more
    than max_cells rows x columns when given, raises TooLarge, so that
    to_tsv can list it.
    """
    check_count("radius", radius)
    cells = MAX_WINDOW_ROWS ** 2 if max_cells is None else max_cells
    check_count("max_cells", cells)

    def too_large(window: str) -> TooLarge:
        return TooLarge(
            f"{window} would pass the cap of {MAX_WINDOW_ROWS} rows or "
            f"{cells} cells; choose a smaller radius"
        )

    n_cols = _ball_size(h.sig, radius, MAX_WINDOW_ROWS)
    # The rows cover at least the column ball, so there are n_cols^2 cells or more.
    if n_cols is None or n_cols * n_cols > cells:
        raise too_large(f"window of radius {radius}")
    columns = [(b, vec) for b, vec in h.sphere_part.items() if vec]
    concat = _words._kernel.concat   # looked up per call, so it can be wrapped
    # Column word -> its slope image, in window order.  enumerate_words lists
    # each word after the one it extends by a letter, so each image is the
    # prefix's image times the letter's.
    images = {(): ()}
    if columns and radius:
        letter_image = {x: endo_apply(h.circle_part, FreeWord._wrap((x,))).letters
                        for x in _words._alphabet(h.sig.g)}
        for u in enumerate_words(h.sig.g, radius):
            w = u.letters
            if w:
                images[w] = concat(images[w[:-1]], letter_image[w[-1]])
    arising = 0
    entries: dict[tuple[IndexKey, IndexKey], int] = {}
    for b, column in columns:
        terms = [(l, w, c) for l, r in column.items() for w, c in r.terms.items()]
        for u, su in images.items():
            col = (b, u)
            for l, w, c in terms:
                w = concat(w, su)
                entries[((l, w), col)] = c
                if len(w) > arising:
                    arising = len(w)
    # The pad suffices whenever the slope does not lengthen words (every
    # point-push has identity slope); a stretching slope widens the ball.
    row_radius = max(radius + max_shift(h), arising)
    row_cap = min(MAX_WINDOW_ROWS, cells // max(n_cols, 1))
    if _ball_size(h.sig, row_radius, row_cap) is None:
        raise too_large(f"window of radius {radius} with rows to radius {row_radius}")
    return TruncatedMatrix(h.sig, radius, row_radius, entries)


def truncated_product(ta: TruncatedMatrix, tb: TruncatedMatrix) -> TruncatedMatrix:
    """Literal integer matrix product of two windows.

    Exact only if every row of tb that carries a nonzero entry is among
    ta's columns; otherwise the summation window clips real terms and the
    product would silently lie, so SizeMismatch is raised instead.  Its
    example is the least missing key by label, then shortlex word, so the
    message is the same in every process.
    """
    if ta.sig != tb.sig:
        raise SignatureMismatch("matrix windows live over different wedges")
    by_mid: dict[IndexKey, list[tuple[IndexKey, int]]] = {}
    for (mid, col), v in tb.entries.items():
        by_mid.setdefault(mid, []).append((col, v))
    missing = [mid for mid in by_mid if not ta.has_col(mid)]
    if missing:
        raise SizeMismatch(
            f"left window lacks {len(missing)} middle-index columns, "
            f"e.g. {_printable(min(missing, key=_key_order))}"
        )
    entries: dict[tuple[IndexKey, IndexKey], int] = {}
    for (row, mid), va in ta.entries.items():
        for col, vb in by_mid.get(mid, ()):  # only mids with nonzero tb rows
            key = (row, col)
            n = entries.get(key, 0) + va * vb
            if n:
                entries[key] = n
            else:
                del entries[key]
    return TruncatedMatrix(ta.sig, tb.radius, ta.row_radius, entries)


def to_tsv(t: TruncatedMatrix) -> str:
    """Tab-separated dump with 'label:word' headers, rows in window order.

    Each row starts as '0' cells and gets its nonzero entries by column
    index: the writer reads each entry once instead of probing every cell.
    """
    col_at = {col: i for i, col in enumerate(t.cols)}
    by_row: dict[IndexKey, list[tuple[int, int]]] = {}
    for (row, col), v in t.entries.items():
        by_row.setdefault(row, []).append((col_at[col], v))
    header = "\t".join([""] + [_tsv_label(col) for col in t.cols])
    lines = [header]
    for row in t.rows:
        cells = ["0"] * len(col_at)
        for i, v in by_row.get(row, ()):
            cells[i] = str(v)
        lines.append("\t".join([_tsv_label(row), *cells]))
    return "\n".join(lines) + "\n"


def _tsv_label(key: IndexKey) -> str:
    lab, w = key
    return f"{lab}:{format_word(FreeWord._wrap(w))}"


def format_block_matrix(h: SelfMapClass) -> str:
    """Grid rendering of the column data, e.g. '[[a1, 1], [0, 1]]'."""
    labels = h.sig.labels
    rows = []
    for l in labels:
        cells = [format_ring(h.sphere_part[b][l]) if l in h.sphere_part[b] else "0"
                 for b in labels]
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(rows) + "]"


def block_matrix_to_json(h: SelfMapClass) -> dict:
    return {
        "g": h.sig.g,
        "d": h.sig.d,
        "labels": [str(lab) for lab in h.sig.labels],
        "slope": [format_word(w) for w in h.circle_part.images],
        "blocks": {
            f"{row},{col}": ring_to_json(r)
            for row, col, r in sorted(
                ((row, col, r) for col, vec in h.sphere_part.items()
                 for row, r in vec.items()),
                key=lambda t: t[:2],
            )
        },
    }
