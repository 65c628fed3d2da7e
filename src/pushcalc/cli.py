"""Command line interface.

One subcommand per invocation; output is deterministic for fixed flags
and seed.  Every refusal is raised as a PushcalcError or ValueError, and
_run alone prints it as a single line ``error:<code>: message`` to
stderr: exit 2 for a usage error, else 1.

A run loads only what its subcommand uses: each cmd_* imports the
modules it calls when it runs.  Each subcommand's flags are data in
_COMMANDS, the one table _parse reads argv by and _help writes help
from.  Help and usage errors keep the standard library parser's layout
at 80 columns and its words.
"""

from __future__ import annotations

import os
import sys
import types

from .errors import (HypothesisViolation, ParseError, PushcalcError, TooLarge, clip,
                     read_decimal)

# typing.TYPE_CHECKING without importing typing, which no run needs.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from typing import NoReturn, TextIO

    from .pushing import PuncturedSignature


# Most bytes of the message in an error line.  With the longest prefix,
# 'error:hypothesis-violation: ', the line stays under 200 bytes however
# long the input a message repeats back.
MAX_MESSAGE_BYTES = 170


class _CliError(PushcalcError):
    """A refusal by the CLI itself: 'usage' (argv) or 'io' (files and environment)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _print_json(obj: object) -> None:
    import json

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
    import json

    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise _CliError("io", f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError("io", f"{path} is not valid JSON: {exc}") from exc
    try:
        return json.loads(text, parse_int=_json_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise _CliError("io", f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise _CliError("io", f"{path} is not valid JSON: nested too deeply") from None


def _signature(g: int, d: int, k: int) -> PuncturedSignature:
    from .pushing import ManifoldModel, PuncturedSignature

    return PuncturedSignature(ManifoldModel.default(g, d), k)


def cmd_push_word(args: types.SimpleNamespace) -> int:
    from .monoid import format_self_map, self_map_to_json
    from .pushing import push_word, push_word_closed
    from .ring import RingElem, format_ring, ring_to_json
    from .words import parse_word

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
            from .embedding import block_matrix_to_json

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
            from .embedding import format_block_matrix

            print(format_block_matrix(h))
        if args.closed_form:
            for i, f in enumerate(coefficients, 1):
                print(f"f{i} = {format_ring(f)}")
            print(f"closed-form agrees: {'yes' if agrees else 'no'}")
    return 0 if agrees in (None, True) else 1


def cmd_push_braid(args: types.SimpleNamespace) -> int:
    from .monoid import format_self_map, self_map_to_json
    from .pushing import format_braid, parse_braid, push_braid

    braid = parse_braid(args.braid)
    sig = _signature(args.g, args.d, braid.k)
    h = push_braid(sig, braid)
    if args.json:
        _print_json({"braid": format_braid(braid), "map": self_map_to_json(h)})
    else:
        print(format_self_map(h))
    return 0


def cmd_compose(args: types.SimpleNamespace) -> int:
    from .monoid import compose, format_self_map, self_map_from_json, self_map_to_json

    outer = self_map_from_json(_load_json(args.outer))
    inner = self_map_from_json(_load_json(args.inner))
    h = compose(outer, inner)
    if args.json:
        _print_json(self_map_to_json(h))
    else:
        print(format_self_map(h))
    return 0


def _map_from_args(args: types.SimpleNamespace) -> object:
    word_mode = (args.word, args.g, args.k, args.slot)
    if args.map is not None:
        if any(x is not None for x in word_mode):
            raise _CliError("usage", "--map takes no word, -g, -k or --slot")
        if args.d is not None:
            raise _CliError("usage", "--map takes no -d: the map file gives the dimension")
        from .monoid import self_map_from_json

        return self_map_from_json(_load_json(args.map))
    if args.word is None:
        raise _CliError("usage", "either --map FILE or a word with -g/-k/--slot is required")
    if None in word_mode:
        raise _CliError("usage", "word mode needs -g, -k, and --slot")
    from .pushing import push_word_closed
    from .words import parse_word

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


def cmd_embed(args: types.SimpleNamespace) -> int:
    from .embedding import block_matrix_to_json, format_block_matrix, materialize, to_tsv

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


def cmd_recover(args: types.SimpleNamespace) -> int:
    from .monoid import self_map_from_json
    from .pushing import format_braid, recover_braid

    h = self_map_from_json(_load_json(args.map))
    k = sum(1 for lab in h.sig.labels if lab.kind == "p")
    got = recover_braid(_signature(h.sig.g, h.sig.d, k), h)
    if args.json:
        _print_json({"braid": format_braid(got)})
    else:
        print(format_braid(got))
    return 0


def cmd_kernel(args: types.SimpleNamespace) -> int:
    from .pushing import format_braid, kernel_report

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


def cmd_components(args: types.SimpleNamespace) -> int:
    from .orbits import components_bruteforce, components_formula, target_from_json
    from .pushing import ManifoldModel

    target = target_from_json(_load_json(args.target))
    model = ManifoldModel.default(args.g, args.d)
    if args.assume_hypotheses:
        model = ManifoldModel(model.g, model.d, model.character, model.crossings,
                              low_handle_dim=True)
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
    from .orbits import DEFAULT_MAX_STATES

    raw = os.environ.get("PUSHCALC_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        return read_decimal(raw)
    except ValueError:
        raise _CliError(
            "io", f"PUSHCALC_MAX_STATES must be a non-negative integer, got {raw!r}") from None


def cmd_verify(args: types.SimpleNamespace) -> int:
    from .verification import run_suite

    report = run_suite(
        args.suite, seed=args.seed, cases=args.cases,
        inject_fault=args.inject_fault,
    )
    _print_json(report.to_json())
    return 0 if report.ok else 1


def _int(text: str) -> int:
    """An integer flag's value: read_decimal's ASCII digits after an optional '-'."""
    return -read_decimal(text[1:]) if text[:1] == "-" else read_decimal(text)


# The model flags, and --json, which every subcommand but verify takes.
_MODEL = (
    ("-g", {"type": _int, "required": True, "help": "number of handles"}),
    ("-d", {"type": _int, "default": 3, "help": "ambient dimension (default 3)"}),
    ("-k", {"type": _int, "required": True, "help": "number of punctures"}),
)
_JSON = ("--json", {"action": "store_true"})


def _verify_flags() -> tuple[tuple[str, dict], ...]:
    from .verification import SUITES

    return (
        ("--suite", {"choices": SUITES, "default": "all"}),
        ("--seed", {"type": _int, "default": 0}),
        ("--cases", {"type": _int, "default": 100}),
        ("--inject-fault", {"action": "store_true",
                            "help": "add a deliberately false property (negative control)"}),
    )


# Each subcommand: its handler, its line in the top-level help, and a function
# that returns its flags in help order, as (flag, add_argument keywords) pairs.
# A flag not starting with '-' is a positional.
_COMMANDS: dict[str, tuple[Callable[[types.SimpleNamespace], int], str,
                           Callable[[], tuple[tuple[str, dict], ...]]]] = {
    "push-word": (cmd_push_word, "push a puncture around a loop word", lambda: (
        _JSON, *_MODEL,
        ("--slot", {"type": _int, "required": True, "help": "which puncture moves"}),
        ("word", {"help": "loop word, e.g. 'a1 A2'"}),
        ("--closed-form", {"action": "store_true",
                           "help": "also print the loop coefficients f_i and cross-check the "
                                   "answer against the letterwise composite of single-letter "
                                   "pushes"}),
        ("--matrix", {"action": "store_true", "help": "also print the matrix form"}),
    )),
    "push-braid": (cmd_push_braid, "push punctures along a braid", lambda: (
        _JSON,
        ("-g", {"type": _int, "required": True}),
        ("-d", {"type": _int, "default": 3}),
        ("braid", {"help": "braid text, e.g. '[a1 | e ; (1 2)]'"}),
    )),
    "compose": (cmd_compose, "compose two self-map JSON files", lambda: (
        _JSON,
        ("outer", {"help": "JSON file of the map applied second"}),
        ("inner", {"help": "JSON file of the map applied first"}),
    )),
    "embed": (cmd_embed, "matrix form of a self-map", lambda: (
        _JSON,
        ("--map", {"help": "self-map JSON file"}),
        ("-g", {"type": _int}),
        ("-d", {"type": _int, "help": "ambient dimension (default 3)"}),
        ("-k", {"type": _int}),
        ("--slot", {"type": _int}),
        ("word", {"nargs": "?"}),
        ("--truncate", {"type": _int, "metavar": "RADIUS",
                        "help": "print the finite window as TSV"}),
    )),
    "recover": (cmd_recover, "recover the braid behind a self-map", lambda: (
        _JSON,
        ("--map", {"required": True, "help": "self-map JSON file"}),
    )),
    "kernel": (cmd_kernel, "search for braids acting trivially", lambda: (
        _JSON, *_MODEL,
        ("--max-len", {"type": _int, "default": 4, "help": "slot word length bound"}),
        ("--max-braids", {"type": _int, "default": 20000,
                          "help": "exhaustive below this count, sampled above"}),
        ("--seed", {"type": _int, "default": 0}),
    )),
    "components": (cmd_components, "count components of a mapping space", lambda: (
        _JSON,
        ("--target", {"required": True, "help": "target model JSON file"}),
        *_MODEL,
        ("--brute-force", {"action": "store_true",
                           "help": "also count by exploring the state graph"}),
        ("--assume-hypotheses", {"action": "store_true",
                                 "help": "assert the counting hypotheses hold for your "
                                         "manifold"}),
    )),
    "verify": (cmd_verify, "run seeded property suites", _verify_flags),
}


def _dest(flag: str) -> str:
    """The namespace attribute a flag's value is stored in."""
    return flag.lstrip("-").replace("-", "_")


def _is_flag(token: str) -> bool:
    """token names a flag: it starts with '-' and is not a negative number."""
    return token[:1] == "-" and not token[1:].isdecimal()


def _invalid_choice(name: str, value: str, choices: Iterable[str]) -> _CliError:
    return _CliError("usage", f"argument {name}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, choices))})")


def _typed(flag: str, spec: dict, text: str) -> object:
    """text as the flag's value, through its choices and type."""
    if "choices" in spec and text not in spec["choices"]:
        raise _invalid_choice(flag, text, spec["choices"])
    if "type" not in spec:
        return text
    try:
        return spec["type"](text)
    except ValueError:
        raise _CliError("usage", f"argument {flag}: invalid int value: {text!r}") from None


def _parse(argv: list[str]) -> types.SimpleNamespace | str:
    """The namespace argv asks for, or the help text if argv holds -h or
    --help; a usage _CliError for any other argv.

    argv is a subcommand, then its flags and positionals in any order: each
    flag named in full, with its value, if it takes one, as the next token.
    A token that starts with '-' is a flag unless it is a negative number,
    and a repeated flag keeps its last value.
    """
    if not argv:
        raise _CliError("usage", "the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        return _help(None)
    if argv[0] not in _COMMANDS:
        raise _invalid_choice("command", argv[0], _COMMANDS)
    if "-h" in argv or "--help" in argv:
        return _help(argv[0])
    flags = _COMMANDS[argv[0]][2]()
    options = {flag: spec for flag, spec in flags if flag[0] == "-"}
    unfilled = [flag for flag, _ in flags if flag not in options]   # positionals
    values = {_dest(flag): spec.get("default", False if "action" in spec else None)
              for flag, spec in flags}
    values["command"] = argv[0]
    seen: set[str] = set()
    extras: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        spec = options.get(token)
        if spec is None:
            if _is_flag(token) or not unfilled:
                extras.append(token)
            else:
                values[unfilled.pop(0)] = token
            continue
        seen.add(token)
        if "action" in spec:   # store_true
            values[_dest(token)] = True
            continue
        value = next(tokens, "-")   # argv's end reads as a flag: no value
        if _is_flag(value):
            raise _CliError("usage", f"argument {token}: expected one argument")
        values[_dest(token)] = _typed(token, spec, value)
    # A positional is required unless its nargs is '?'.
    missing = [flag for flag, spec in flags if spec.get("required") and flag not in seen
               or flag in unfilled and "nargs" not in spec]
    if missing:
        raise _CliError("usage", f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _CliError("usage", f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(**values)


def _help(command: str | None) -> str:
    """The help of a subcommand, or of pushcalc for None, laid out as the
    standard library parser lays it out at 80 columns."""
    import textwrap

    rows = {"positional arguments": [], "options": [("-h, --help",
                                                     "show this help message and exit")]}
    options, positionals = ["[-h]"], []
    if command is None:
        choices = "{" + ",".join(_COMMANDS) + "}"
        positionals += [choices, "..."]
        rows["positional arguments"] += [(choices, ""), *(
            (f"  {name}", line) for name, (_, line, _) in _COMMANDS.items())]
    for flag, spec in _COMMANDS[command][2]() if command else ():
        if flag[0] != "-":
            positionals.append(f"[{flag}]" if "nargs" in spec else flag)
            rows["positional arguments"].append((flag, spec.get("help", "")))
            continue
        invocation = flag
        if "action" not in spec:
            choices = spec.get("choices")
            invocation += " " + spec.get("metavar", "{" + ",".join(choices) + "}" if choices
                                         else _dest(flag).upper())
        options.append(invocation if spec.get("required") else f"[{invocation}]")
        rows["options"].append((invocation, spec.get("help", "")))
    # Help is 78 columns wide.  A usage line too long for them is filled
    # part by part, the positionals from a new line.
    head = f"usage: pushcalc {command}" if command else "usage: pushcalc"
    out = [" ".join([head, *options, *positionals])]
    if len(out[0]) > 78:
        out, fresh = [], " " * len(head)
        for line, parts in ((head, options), (fresh, positionals)):
            for part in parts:
                if len(line) + 1 + len(part) > 78 and line != fresh:
                    out.append(line)
                    line = fresh
                line += " " + part
            if line != fresh:
                out.append(line)
    out += [""] if command else ["", __doc__.splitlines()[0], ""]
    # The help column: two past the longest invocation, at most 24.
    column = min(24, 4 + max(len(invocation) for section in rows.values()
                             for invocation, _ in section))
    for title, section in rows.items():
        if section:
            out.append(f"{title}:")
        for invocation, text in section:
            lines = textwrap.wrap(text, 78 - column)
            line = f"  {invocation}"
            if lines and len(line) <= column - 2:
                line = line.ljust(column) + lines.pop(0)
            out += [line, *(" " * column + rest for rest in lines)]
        if section:
            out.append("")
    return "\n".join(out)


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
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args, end="")
            return 0
        return _COMMANDS[args.command][0](args)
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
