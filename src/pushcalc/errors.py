"""Error types shared across the package.

Every error carries a stable machine-readable ``code`` used by the CLI's
single-line error prefix.
"""
from __future__ import annotations


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


class HypothesisViolation(PushcalcError, ValueError):
    """The manifold model does not satisfy the hypotheses the mapping-space
    operations require, and the caller did not opt in."""

    code = "hypothesis-violation"


class TooLarge(PushcalcError, ValueError):
    """An input would exceed a size guard: the brute-force state count, the
    parsed word length, the truncated window size, the g + k of a
    punctured model, or the case count of a verify run."""

    code = "too-large"
