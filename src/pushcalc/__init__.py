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

``import pushcalc`` loads none of these modules.  Each public name loads
its home module on first use (``pushcalc.run_suite`` imports
``pushcalc.verification``), so a command line run pays only for the
modules its subcommand uses.
"""
from __future__ import annotations

__version__ = "0.1.0"

# Each public name and the module that defines it, in __all__ order.
_HOMES = {
    "BraidElement": "pushing",
    "FreeEndo": "words",
    "FreeWord": "words",
    "HypothesisViolation": "errors",
    "KERNEL_BACKEND": "words",
    "KernelReport": "pushing",
    "ManifoldModel": "pushing",
    "MapState": "orbits",
    "NotInImage": "errors",
    "ParseError": "errors",
    "PuncturedSignature": "pushing",
    "PushcalcError": "errors",
    "RingElem": "ring",
    "SUITES": "verification",
    "SelfMapClass": "monoid",
    "SignatureMismatch": "errors",
    "SizeMismatch": "errors",
    "SlotOutOfRange": "errors",
    "SphereLabel": "ring",
    "TargetModel": "orbits",
    "TooLarge": "errors",
    "TruncatedMatrix": "embedding",
    "WedgeSignature": "monoid",
    "act": "orbits",
    "augment": "ring",
    "braid_mul": "pushing",
    "compose": "monoid",
    "components_bruteforce": "orbits",
    "components_formula": "orbits",
    "endo_apply": "words",
    "endo_compose": "words",
    "enumerate_words": "words",
    "format_braid": "pushing",
    "format_word": "words",
    "identity_map": "monoid",
    "kernel_report": "pushing",
    "materialize": "embedding",
    "max_shift": "embedding",
    "parse_braid": "pushing",
    "parse_word": "words",
    "push_braid": "pushing",
    "push_letter": "pushing",
    "push_word": "pushing",
    "push_word_closed": "pushing",
    "recover_braid": "pushing",
    "ring_endo_apply": "ring",
    "ring_from_json": "ring",
    "ring_mul": "ring",
    "ring_to_json": "ring",
    "run_suite": "verification",
    "self_map_from_json": "monoid",
    "self_map_to_json": "monoid",
    "target_from_json": "orbits",
    "top_homology_matrix": "monoid",
    "truncated_product": "embedding",
}

__all__ = list(_HOMES)


def __getattr__(name: str) -> object:
    """Import a public name's home module on first use and keep the value."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
