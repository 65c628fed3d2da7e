"""Error types and the input checks that raise them, shared across the package.

Every error has a stable ``code`` for the CLI's one-line error prefix.
is_int tests an int that is not a bool; check_count and check_dimension
build on it.  Shape rules: as_tuple, check_type, is_permutation.  Reader
rules: check_text, json_array, json_object, json_fields and parsing.
Size rules: capped_product here, and embedding._ball_size for a window ball.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence


class PushcalcError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"


class ParseError(PushcalcError, ValueError):
    """Malformed word, braid, label, or model text."""

    code = "parse"

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SignatureMismatch(PushcalcError, ValueError):
    """Two self-map classes or matrices live over different signatures."""

    code = "signature-mismatch"


class SizeMismatch(PushcalcError, ValueError):
    """Braid or matrix operands have incompatible sizes."""

    code = "size-mismatch"


class SlotOutOfRange(PushcalcError, ValueError):
    """A puncture slot index is outside 1..k."""

    code = "slot-out-of-range"


class NotInImage(PushcalcError, ValueError):
    """A self-map class is not the push of any braid; the message says why."""

    code = "not-in-image"


class HypothesisViolation(PushcalcError, ValueError):
    """The manifold model does not satisfy the hypotheses the mapping-space
    operations require, and the caller did not opt in."""

    code = "hypothesis-violation"


class TooLarge(PushcalcError, ValueError):
    """An input would exceed a size guard.  The message states the value of
    the cap it would pass; the caps, by module, are:

    - pushing: MAX_MODEL_SIZE (g + k) and MAX_KERNEL_WORK (kernel sweep);
    - words: MAX_WORD_LETTERS (a parsed word, or a braid's slot words) and
      MAX_POWER_LETTERS (the letters a power of a word lists);
    - monoid: MAX_COMPOSE_LETTERS (the letters compose may write);
    - embedding: MAX_WINDOW_ROWS (truncated window);
    - orbits: DEFAULT_MAX_STATES (brute-force states, or PUSHCALC_MAX_STATES)
      and MAX_COUNT_BITS (formula count);
    - verification: MAX_CASES (cases of a verify run);
    - cli: MAX_JSON_INT_DIGITS (JSON integers) and TSV_MAX_CELLS (block grid).
    """

    code = "too-large"


def clip(text: str, limit: int = 80) -> str:
    """text, or its head and tail around '...' if it is over limit bytes.

    Error messages show input back through this, so that a long token
    gives a short line.  Bytes are counted in UTF-8, with the backslash
    escapes stderr writes for undecodable characters.
    """
    data = text.encode("utf-8", "backslashreplace")
    if len(data) <= limit:
        return text
    half = (limit - 3) // 2
    return (data[:half].decode("utf-8", "ignore") + "..."
            + data[-half:].decode("utf-8", "ignore"))


def is_int(x: object) -> bool:
    """True for an int that is not a bool (True == 1 would pass as index 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def capped_product(powers: Sequence[tuple[int, int]], cap: int) -> int | None:
    """The product of base**exp over (base, exp) pairs of ints >= 0, or None if it
    passes cap.  A bit-length screen comes first, so no power passes twice cap's bits."""
    bits = 0
    for base, exp in powers:
        if base == 0 and exp:
            return 0 if cap >= 0 else None
        bits += exp * (base.bit_length() - 1)
    if bits > cap.bit_length():   # the product is at least 2**bits
        return None
    total = 1
    for base, exp in powers:
        total *= base ** exp
    return total if total <= cap else None


def check_count(what: str, value: object) -> None:
    """Raise ValueError unless value is an int >= 0 (a bool is not a count)."""
    if not is_int(value) or value < 0:
        raise ValueError(f"{what} must be a non-negative int, got {clip(repr(value))}")


def check_dimension(what: str, d: object) -> None:
    """Raise ValueError unless d is an int >= 3; what names it in the message."""
    if not is_int(d) or d < 3:
        raise ValueError(f"{what} must be an int >= 3, got {d!r}")


def as_tuple(what: str, value: object) -> tuple:
    """tuple(value), or a ValueError naming the field if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {type(value).__name__}") from None


def check_type(what: str, value: object, cls: type) -> None:
    """Raise ValueError unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{what} must be {cls.__name__}, got {value!r}")


def is_permutation(p: tuple) -> bool:
    """True if p holds the ints 0..len(p)-1, each once."""
    return all(map(is_int, p)) and sorted(p) == list(range(len(p)))


def check_text(what: str, text: object) -> None:
    """Raise ParseError unless text is a str; what names it in the message."""
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a string, got {type(text).__name__}")


def json_array(value: object, message: str) -> list:
    """value if it is a JSON array, else ParseError(message)."""
    if not isinstance(value, list):
        raise ParseError(message)
    return value


def json_object(value: object, message: str) -> dict:
    """value if it is a JSON object, else ParseError(message)."""
    if not isinstance(value, dict):
        raise ParseError(message)
    return value


def json_fields(obj: object, what: str, names: tuple[str, ...]) -> list:
    """The values of the named keys of the JSON object obj, in order."""
    json_object(obj, f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = set(names) - set(obj)
    if missing:
        raise ParseError(f"{what} is missing keys: {sorted(missing)}")
    return [obj[name] for name in names]


@contextmanager
def parsing() -> Iterator[None]:
    """Turn a plain ValueError raised inside into a ParseError; a PushcalcError passes."""
    try:
        yield
    except PushcalcError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
