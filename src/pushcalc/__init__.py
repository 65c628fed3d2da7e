"""Symbolic point-pushing calculus on wedges of circles and spheres.

The package follows the algebra bottom-up:

- words: reduced words in a free group and endomorphisms between them
- ring: the integral group ring of a free group and free modules over it
- monoid: homotopy classes of self-maps of a wedge of circles and spheres
- embedding: those self-maps as shifted block matrices over the group ring
- pushing: the point-pushing action of surface-braid-like groups on the
  punctured wedge, with braid recovery and kernel checks
- orbits: the induced action on maps to a finite target and component counts
- verification: randomized property suites with shrinking over all layers
- cli: the command line entry point (also ``python -m pushcalc``)
"""
from __future__ import annotations

from .embedding import (
    ShiftedBlockMatrix,
    TruncatedMatrix,
    embed,
    is_diagonally_constant,
    materialize,
    matrix_mul,
    max_shift,
    to_self_map,
    truncated_product,
)
from .errors import (
    HypothesisViolation,
    ModelNotDefault,
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
    verify_inverse,
)
from .orbits import (
    MapState,
    TargetModel,
    act,
    components_bruteforce,
    components_formula,
    state_from_ids,
    state_ids,
    target_from_json,
    target_to_json,
)
from .pushing import (
    BraidElement,
    KernelReport,
    ManifoldModel,
    NotInImage,
    PuncturedSignature,
    braid_inverse,
    braid_mul,
    format_braid,
    kernel_report,
    loop_coefficient,
    parse_braid,
    push_braid,
    push_letter,
    push_sym,
    push_word,
    push_word_closed,
    recover_braid,
)
from .ring import (
    ModuleVec,
    RingElem,
    SphereLabel,
    augment,
    ring_endo_apply,
    ring_from_json,
    ring_mul,
    ring_to_json,
    translate,
)
from .verification import SUITES, run_suite
from .words import (
    KERNEL_BACKEND,
    FreeEndo,
    FreeWord,
    char_sign,
    endo_apply,
    endo_compose,
    enumerate_words,
    format_word,
    generator,
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
    "ModelNotDefault",
    "ModuleVec",
    "NotInImage",
    "ParseError",
    "PuncturedSignature",
    "PushcalcError",
    "RingElem",
    "SUITES",
    "SelfMapClass",
    "ShiftedBlockMatrix",
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
    "braid_inverse",
    "braid_mul",
    "char_sign",
    "compose",
    "components_bruteforce",
    "components_formula",
    "embed",
    "endo_apply",
    "endo_compose",
    "enumerate_words",
    "format_braid",
    "format_word",
    "generator",
    "identity_map",
    "is_diagonally_constant",
    "kernel_report",
    "loop_coefficient",
    "materialize",
    "matrix_mul",
    "max_shift",
    "parse_braid",
    "parse_word",
    "push_braid",
    "push_letter",
    "push_sym",
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
    "state_from_ids",
    "state_ids",
    "target_from_json",
    "target_to_json",
    "to_self_map",
    "top_homology_matrix",
    "translate",
    "truncated_product",
    "verify_inverse",
]
