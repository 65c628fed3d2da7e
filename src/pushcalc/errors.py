"""Error types and the input checks that raise them, shared across the package.

Every error has a stable ``code`` for the CLI's one-line error prefix.
is_int tests an int that is not a bool; check_count and check_dimension
build on it.  Shape rules: as_tuple, check_type, is_permutation.  Reader
rules: check_text, json_array, json_object, json_fields, parsing and
read_decimal.  Size rules: capped_product here, and embedding._ball_size for
a window ball.  What outlives a call: the stores _STORES declares and _store
makes, which _clear_caches empties.  Record and FrozenRecord, the bases of
the record classes, store the fields and supply repr, == and hash.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from functools import lru_cache
from operator import attrgetter


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
    - words: MAX_WORD_LETTERS (a parsed word, or a braid's slot words);
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


# The stores that outlive a call, each an lru_cache that _store puts on a function:
# name: (values kept, admission bound, key -> value).  A call past the bound builds
# its value and keeps none.  Only wedges are handed out, and a wedge and its
# identity_endo refuse every write, so a holder can change nothing another shares.
_STORES = {
    "pushing._cached_wedge": (32, 64, "(g, k, d), g + k <= 64 -> labels, wedge, identity_endo"),
    "orbits._cached_columns": (32, 1_024, "(m, k) -> a colex table of <= 1,024 ints"),
    "verification._hyp_model": (7, None, "a character, g <= 2 (all 7) -> a model, its _last_push"),
}
_caches: dict[str, Callable] = {}


def _store(name: str, build: Callable) -> tuple[Callable, int | None]:
    """The lru_cache on build that _STORES names name, and its admission bound."""
    _caches[name] = lru_cache(maxsize=_STORES[name][0])(build)
    return _caches[name], _STORES[name][1]


def _clear_caches() -> None:
    """Empty every store of _STORES (a store of a module not imported is empty)."""
    for cached in _caches.values():
        cached.cache_clear()


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


def read_decimal(text: str) -> int:
    """The int that text writes in the ASCII digits 0-9 alone; ValueError for
    any other text.  int() would also take a sign, '_' between digits,
    surrounding whitespace and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {clip(repr(text))}")
    return int(text)


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


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, so that dataclasses.fields,
    dataclasses.replace and dataclasses.is_dataclass work on it.

    The first read on a class builds a plain dataclass with the same fields
    (inherited ones too) and defaults, and keeps that dataclass's Field
    objects for the class.  Only a caller of dataclasses reads it, so only
    such a caller pays for importing dataclasses.
    """

    def __init__(self) -> None:
        self.fields: dict[type, dict] = {}

    def __get__(self, obj: object, cls: type) -> dict:
        fields = self.fields.get(cls)
        if fields is None:
            from dataclasses import make_dataclass

            kinds: dict[str, object] = {}
            for klass in reversed(cls.__mro__):
                kinds.update(vars(klass).get("__annotations__", {}))
            spec = [(name, kinds[name], getattr(cls, name)) if hasattr(cls, name)
                    else (name, kinds[name]) for name in cls.__match_args__]
            fields = self.fields[cls] = make_dataclass(cls.__name__, spec).__dataclass_fields__
        return fields


class Record:
    """Base of a class whose annotated class attributes are its fields.

    The fields, the base's and then the class's own new annotations in
    order, are its __match_args__.  The base stores the fields
    (_set_fields) and supplies repr, as ``Name(field=value, ...)``, and ==
    between two instances of the same class, from the fields; a subclass
    writes only its checks, and its __init__ ends in one _set_fields call.
    A value _set_fields stores under another name is not a field.
    """

    __dataclass_fields__ = _DataclassFields()
    __match_args__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__   # the base's fields
        cls.__match_args__ = names = names + tuple(
            name for name in cls.__annotations__ if name not in names)
        # The field values as a tuple, for == and hash.
        cls._field_values = staticmethod(
            attrgetter(*names) if len(names) > 1
            else lambda obj: tuple(getattr(obj, name) for name in names))

    def _set_fields(self, *values: object, **cached: object) -> None:
        """Store values as the fields, in __match_args__ order, and each cached value
        under its name, past a FrozenRecord's __setattr__.  Not with vars(self), which
        on Python 3.11 and 3.12 makes every later field read about 3 times slower."""
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)
        for name, value in cached.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)


def _frozen_error(verb: str, name: str) -> Exception:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


class FrozenRecord(Record):
    """A Record that refuses assignment and deletion of any attribute with
    dataclasses.FrozenInstanceError, and hashes as the tuple of its fields.
    Its __init__ stores the fields, as a Record's does, with _set_fields."""

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen_error("assign to", name)

    def __delattr__(self, name: str) -> None:
        raise _frozen_error("delete", name)

    def __hash__(self) -> int:
        return hash(self._field_values(self))
