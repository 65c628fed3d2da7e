"""Command line interface.

One subcommand per invocation; output is deterministic for fixed flags
and seed.  Every refusal, argparse's included, is raised as a
PushcalcError or ValueError, and _run alone prints it as a single line
``error:<code>: message`` to stderr: exit 2 for a usage error, else 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import NoReturn, TextIO

from .embedding import block_matrix_to_json, format_block_matrix, materialize, to_tsv
from .errors import HypothesisViolation, ParseError, PushcalcError, TooLarge, clip
from .monoid import compose, format_self_map, self_map_from_json, self_map_to_json
from .orbits import (
    DEFAULT_MAX_STATES,
    components_bruteforce,
    components_formula,
    target_from_json,
)
from .pushing import (
    ManifoldModel,
    PuncturedSignature,
    format_braid,
    kernel_report,
    parse_braid,
    push_braid,
    push_word,
    push_word_closed,
    recover_braid,
)
from .ring import RingElem, format_ring, ring_to_json
from .verification import SUITES, run_suite
from .words import parse_word


# Most bytes of the message in an error line.  With the longest prefix,
# 'error:hypothesis-violation: ', the line stays under 200 bytes however
# long the input a message repeats back.
MAX_MESSAGE_BYTES = 170


class _CliError(PushcalcError):
    """A refusal by the CLI itself: 'usage' (argv) or 'io' (files and environment)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors are raised to _run, not printed."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError("usage", message)


def _print_json(obj: object) -> None:
    print(json.dumps(obj, indent=2))


# Most digits of an integer in a JSON input.  compose multiplies two
# coefficients and sums at most MAX_COMPOSE_LETTERS products, so its
# coefficients stay well under the 4,300 digits Python prints an int with.
MAX_JSON_INT_DIGITS = 2_000


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_JSON_INT_DIGITS:
        raise TooLarge(f"a JSON integer is over the cap of {MAX_JSON_INT_DIGITS} digits")
    return int(text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    # json.loads would keep the last value of a repeated key without a word.
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {clip(repr(key))}")
            seen.add(key)
    return obj


def _load_json(path: str) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError("io", f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text, parse_int=_json_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise _CliError("io", f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise _CliError("io", f"{path} is not valid JSON: nested too deeply") from None


def _signature(g: int, d: int, k: int) -> PuncturedSignature:
    return PuncturedSignature(ManifoldModel.default(g, d), k)


def cmd_push_word(args: argparse.Namespace) -> int:
    sig = _signature(args.g, args.d, args.k)
    if args.matrix and not args.json:
        _check_grid(len(sig.wedge.labels))
    w = parse_word(args.word)
    h = push_word_closed(sig, w, args.slot)
    agrees = None
    if args.closed_form:
        agrees = push_word(sig, w, args.slot) == h
        p_slot = sig.punctures[args.slot - 1]
        coefficients = [h.sphere_part[t].get(p_slot, RingElem.zero()) for t in sig.cells]
    if args.json:
        obj: dict = {"map": self_map_to_json(h)}
        if args.matrix:
            obj["matrix"] = block_matrix_to_json(h)
        if args.closed_form:
            obj["loop_coefficients"] = {
                f"f{i}": ring_to_json(f) for i, f in enumerate(coefficients, 1)
            }
            obj["closed_form_agrees"] = agrees
        _print_json(obj)
    else:
        print(format_self_map(h))
        if args.matrix:
            print(format_block_matrix(h))
        if args.closed_form:
            for i, f in enumerate(coefficients, 1):
                print(f"f{i} = {format_ring(f)}")
            print(f"closed-form agrees: {'yes' if agrees else 'no'}")
    return 0 if agrees in (None, True) else 1


def cmd_push_braid(args: argparse.Namespace) -> int:
    braid = parse_braid(args.braid)
    sig = _signature(args.g, args.d, braid.k)
    h = push_braid(sig, braid)
    if args.json:
        _print_json({"braid": format_braid(braid), "map": self_map_to_json(h)})
    else:
        print(format_self_map(h))
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    outer = self_map_from_json(_load_json(args.outer))
    inner = self_map_from_json(_load_json(args.inner))
    h = compose(outer, inner)
    if args.json:
        _print_json(self_map_to_json(h))
    else:
        print(format_self_map(h))
    return 0


def _map_from_args(args: argparse.Namespace) -> object:
    word_mode = (args.word, args.g, args.k, args.slot)
    if args.map is not None:
        if any(x is not None for x in word_mode):
            raise _CliError("usage", "--map takes no word, -g, -k or --slot")
        if args.d is not None:
            raise _CliError("usage", "--map takes no -d: the map file gives the dimension")
        return self_map_from_json(_load_json(args.map))
    if args.word is None:
        raise _CliError("usage", "either --map FILE or a word with -g/-k/--slot is required")
    if None in word_mode:
        raise _CliError("usage", "word mode needs -g, -k, and --slot")
    sig = _signature(args.g, 3 if args.d is None else args.d, args.k)
    return push_word_closed(sig, parse_word(args.word), args.slot)


# Most cells `embed` prints: the `--truncate` TSV and the block grid are
# dense, one field per cell.
TSV_MAX_CELLS = 4_000_000


def _check_grid(n_labels: int) -> None:
    # On a 2-CPU Xeon a grid of 2,000^2 cells prints 12 MB in about 4 s;
    # `embed -g 10000 -k 1` printed 300 MB in 102 s.
    if n_labels * n_labels > TSV_MAX_CELLS:
        raise TooLarge(
            f"the block grid would have {n_labels}^2 cells, over the cap "
            f"{TSV_MAX_CELLS} (pass --json for the sparse form)"
        )


def cmd_embed(args: argparse.Namespace) -> int:
    h = _map_from_args(args)
    if args.truncate is None and not args.json:
        _check_grid(len(h.sig.labels))
    if args.truncate is not None:
        window = materialize(h, args.truncate, max_cells=TSV_MAX_CELLS)
        if args.json:
            _print_json({
                "matrix": block_matrix_to_json(h),
                "radius": args.truncate,
                "row_radius": window.row_radius,
                "tsv": to_tsv(window),
            })
        else:
            print(to_tsv(window), end="")
    elif args.json:
        _print_json(block_matrix_to_json(h))
    else:
        print(format_block_matrix(h))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    h = self_map_from_json(_load_json(args.map))
    k = sum(1 for lab in h.sig.labels if lab.kind == "p")
    got = recover_braid(_signature(h.sig.g, h.sig.d, k), h)
    if args.json:
        _print_json({"braid": format_braid(got)})
    else:
        print(format_braid(got))
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    sig = _signature(args.g, args.d, args.k)
    report = kernel_report(sig, args.max_len, args.max_braids, seed=args.seed)
    if args.json:
        _print_json({
            "g": report.g,
            "k": report.k,
            "max_word_len": report.max_word_len,
            "exhaustive": report.exhaustive,
            "checked": report.total_checked,
            "nontrivial": [format_braid(b) for b in report.nontrivial_kernel],
        })
    else:
        print(f"mode: {'exhaustive' if report.exhaustive else 'sampled'}")
        print(f"checked: {report.total_checked}")
        if report.passed:
            print("kernel: trivial")
        else:
            print(f"kernel: nontrivial ({len(report.nontrivial_kernel)} found)")
            for b in report.nontrivial_kernel:
                print(f"  {format_braid(b)}")
    return 0 if report.passed else 1


def cmd_components(args: argparse.Namespace) -> int:
    target = target_from_json(_load_json(args.target))
    model = ManifoldModel.default(args.g, args.d)
    if args.assume_hypotheses:
        model = dataclasses.replace(model, low_handle_dim=True)
    try:
        formula = components_formula(target, model, args.k)
    except HypothesisViolation as exc:
        raise HypothesisViolation(
            f"{exc} (pass --assume-hypotheses if they hold for your manifold)"
        ) from exc
    brute = None
    if args.brute_force:
        max_states = _max_states_from_env()
        try:
            brute = components_bruteforce(target, model, args.k, max_states=max_states)
        except TooLarge as exc:
            raise TooLarge(
                f"{exc} (raise PUSHCALC_MAX_STATES to explore a larger state graph)"
            ) from exc
    agree = brute in (None, formula)
    if args.json:
        obj: dict = {"formula": formula}
        if brute is not None:
            obj["brute_force"] = brute
            obj["agree"] = agree
        _print_json(obj)
    elif brute is None:
        print(f"formula: {formula}")
    else:
        verdict = "agree" if agree else "DISAGREE"
        print(f"formula: {formula}, brute-force: {brute}, {verdict}")
    return 0 if agree else 1


def _max_states_from_env() -> int:
    raw = os.environ.get("PUSHCALC_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        cap = int(raw)
    except ValueError:
        cap = -1   # refused with the negative ones
    if cap < 0:
        raise _CliError("io", f"PUSHCALC_MAX_STATES must be a non-negative integer, got {raw!r}")
    return cap


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(
        args.suite, seed=args.seed, cases=args.cases,
        inject_fault=args.inject_fault,
    )
    _print_json(report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pushcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")

    def model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("-g", type=int, required=True, help="number of handles")
        p.add_argument("-d", type=int, default=3, help="ambient dimension (default 3)")
        p.add_argument("-k", type=int, required=True, help="number of punctures")

    p = sub.add_parser("push-word", parents=[json_flag], help="push a puncture around a loop word")
    model_flags(p)
    p.add_argument("--slot", type=int, required=True, help="which puncture moves")
    p.add_argument("word", help="loop word, e.g. 'a1 A2'")
    p.add_argument("--closed-form", action="store_true",
                   help="also print the loop coefficients f_i and cross-check the answer "
                        "against the letterwise composite of single-letter pushes")
    p.add_argument("--matrix", action="store_true", help="also print the matrix form")
    p.set_defaults(func=cmd_push_word)

    p = sub.add_parser("push-braid", parents=[json_flag], help="push punctures along a braid")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-d", type=int, default=3)
    p.add_argument("braid", help="braid text, e.g. '[a1 | e ; (1 2)]'")
    p.set_defaults(func=cmd_push_braid)

    p = sub.add_parser("compose", parents=[json_flag], help="compose two self-map JSON files")
    p.add_argument("outer", help="JSON file of the map applied second")
    p.add_argument("inner", help="JSON file of the map applied first")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("embed", parents=[json_flag], help="matrix form of a self-map")
    p.add_argument("--map", default=None, help="self-map JSON file")
    p.add_argument("-g", type=int, default=None)
    p.add_argument("-d", type=int, default=None, help="ambient dimension (default 3)")
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--slot", type=int, default=None)
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--truncate", type=int, default=None, metavar="RADIUS",
                   help="print the finite window as TSV")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("recover", parents=[json_flag], help="recover the braid behind a self-map")
    p.add_argument("--map", required=True, help="self-map JSON file")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("kernel", parents=[json_flag], help="search for braids acting trivially")
    model_flags(p)
    p.add_argument("--max-len", type=int, default=4, help="slot word length bound")
    p.add_argument("--max-braids", type=int, default=20000,
                   help="exhaustive below this count, sampled above")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("components", parents=[json_flag],
                       help="count components of a mapping space")
    p.add_argument("--target", required=True, help="target model JSON file")
    model_flags(p)
    p.add_argument("--brute-force", action="store_true",
                   help="also count by exploring the state graph")
    p.add_argument("--assume-hypotheses", action="store_true",
                   help="assert the counting hypotheses hold for your manifold")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--inject-fault", action="store_true",
                   help="add a deliberately false property (negative control)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and flush stdout; every entry path comes here.

    A closed stdout exits 1, and a closed stderr keeps the refusal's own
    code.  main returns its code and never ends the process itself.
    """
    try:
        code = _run(argv)
        sys.stdout.flush()   # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        _drop_buffered(sys.stdout)
        return 1
    return code


def entry() -> NoReturn:
    """The process entry of `python -m pushcalc`, `python -m pushcalc.cli`
    and the installed `pushcalc` script.

    Ends the process with main's code as soon as it returns, skipping
    interpreter teardown (about 10 ms): main has flushed stdout, stderr is
    line-buffered and gets only whole lines, and pushcalc registers no
    atexit hook and writes no files, so no output depends on teardown.
    """
    os._exit(main())


def _drop_buffered(stream: TextIO) -> None:
    """Point a stream whose reader has gone at devnull and flush it there,
    so that no later flush fails on what it still buffers."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)
    stream.flush()


def _run(argv: list[str] | None) -> int:
    """Answer, or print the one error line of any refusal."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PushcalcError as exc:
        code, message = exc.code, str(exc)
    except ValueError as exc:
        code, message = "invalid", str(exc)
    try:
        print(f"error:{code}: {clip(message, MAX_MESSAGE_BYTES)}", file=sys.stderr)
    except BrokenPipeError:
        _drop_buffered(sys.stderr)
    return 2 if code == "usage" else 1


if __name__ == "__main__":
    entry()
