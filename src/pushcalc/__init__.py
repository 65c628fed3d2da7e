"""Symbolic point-pushing calculus on wedges of circles and spheres.

The package follows the algebra bottom-up:

- words: reduced words in a free group and endomorphisms between them
- ring: the integral group ring of a free group and free modules over it
- monoid: homotopy classes of self-maps of a wedge of circles and spheres
- embedding: matrix format and truncation windows of those self-maps
- pushing: the point-pushing action of surface-braid-like groups on the
  punctured wedge, with braid recovery and kernel checks
- orbits: the induced action on maps to a finite target and component counts
- verification: randomized property suites with shrinking over all layers
- cli: the command line entry point (also ``python -m pushcalc``)
"""
from __future__ import annotations

from .embedding import (
    TruncatedMatrix,
    materialize,
    max_shift,
    truncated_product,
)
from .errors import (
    HypothesisViolation,
    NotInImage,
    ParseError,
    PushcalcError,
    SignatureMismatch,
    SizeMismatch,
    SlotOutOfRange,
    TooLarge,
)
from .monoid import (
    SelfMapClass,
    WedgeSignature,
    compose,
    identity_map,
    self_map_from_json,
    self_map_to_json,
    top_homology_matrix,
)
from .orbits import (
    MapState,
    TargetModel,
    act,
    components_bruteforce,
    components_formula,
    target_from_json,
)
from .pushing import (
    BraidElement,
    KernelReport,
    ManifoldModel,
    PuncturedSignature,
    braid_mul,
    format_braid,
    kernel_report,
    parse_braid,
    push_braid,
    push_letter,
    push_word,
    push_word_closed,
    recover_braid,
)
from .ring import (
    RingElem,
    SphereLabel,
    augment,
    ring_endo_apply,
    ring_from_json,
    ring_mul,
    ring_to_json,
)
from .verification import SUITES, run_suite
from .words import (
    KERNEL_BACKEND,
    FreeEndo,
    FreeWord,
    endo_apply,
    endo_compose,
    enumerate_words,
    format_word,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "BraidElement",
    "FreeEndo",
    "FreeWord",
    "HypothesisViolation",
    "KERNEL_BACKEND",
    "KernelReport",
    "ManifoldModel",
    "MapState",
    "NotInImage",
    "ParseError",
    "PuncturedSignature",
    "PushcalcError",
    "RingElem",
    "SUITES",
    "SelfMapClass",
    "SignatureMismatch",
    "SizeMismatch",
    "SlotOutOfRange",
    "SphereLabel",
    "TargetModel",
    "TooLarge",
    "TruncatedMatrix",
    "WedgeSignature",
    "act",
    "augment",
    "braid_mul",
    "compose",
    "components_bruteforce",
    "components_formula",
    "endo_apply",
    "endo_compose",
    "enumerate_words",
    "format_braid",
    "format_word",
    "identity_map",
    "kernel_report",
    "materialize",
    "max_shift",
    "parse_braid",
    "parse_word",
    "push_braid",
    "push_letter",
    "push_word",
    "push_word_closed",
    "recover_braid",
    "ring_endo_apply",
    "ring_from_json",
    "ring_mul",
    "ring_to_json",
    "run_suite",
    "self_map_from_json",
    "self_map_to_json",
    "target_from_json",
    "top_homology_matrix",
    "truncated_product",
]
