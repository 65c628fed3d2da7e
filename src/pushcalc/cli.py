"""Command line interface.

One subcommand per invocation; output is deterministic for fixed flags
and seed.  Every refusal, argparse's included, is raised as a
PushcalcError or ValueError, and _run alone prints it as a single line
``error:<code>: message`` to stderr: exit 2 for a usage error, else 1.

A run loads only what its subcommand uses: each cmd_* imports the
modules it calls when it runs, and each subcommand's flags are added
when that subcommand parses.  Argv in the plain shape (see _plain_args)
is read without argparse.  Only help and argv outside that shape, which
takes in every argv argparse refuses as well as `--flag=value`, `-g7`,
`--max-l`, `--` and a negative value, import argparse and build its
parser, which answers or refuses them as it always has.
"""

from __future__ import annotations

import os
import sys

from .errors import HypothesisViolation, ParseError, PushcalcError, TooLarge, clip

# typing.TYPE_CHECKING without importing typing, which no run needs.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from collections.abc import Callable
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


def _terminal_columns() -> int:
    """The width shutil.get_terminal_size() reports, without importing shutil
    (and the bz2, lzma and fnmatch it loads).

    A terminal that reports 0 columns gives 80 from Python 3.11 on and 0
    before, as shutil does on each.
    """
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):
        return 80
    if sys.version_info >= (3, 11):
        return columns or 80
    return columns


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
        with open(path) as file:
            text = file.read()
    except OSError as exc:
        raise _CliError("io", f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text, parse_int=_json_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise _CliError("io", f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise _CliError("io", f"{path} is not valid JSON: nested too deeply") from None


def _signature(g: int, d: int, k: int) -> PuncturedSignature:
    from .pushing import ManifoldModel, PuncturedSignature

    return PuncturedSignature(ManifoldModel.default(g, d), k)


def cmd_push_word(args: argparse.Namespace) -> int:
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


def cmd_push_braid(args: argparse.Namespace) -> int:
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


def cmd_compose(args: argparse.Namespace) -> int:
    from .monoid import compose, format_self_map, self_map_from_json, self_map_to_json

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


def cmd_embed(args: argparse.Namespace) -> int:
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


def cmd_recover(args: argparse.Namespace) -> int:
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


def cmd_kernel(args: argparse.Namespace) -> int:
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


def cmd_components(args: argparse.Namespace) -> int:
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
        cap = int(raw)
    except ValueError:
        cap = -1   # refused with the negative ones
    if cap < 0:
        raise _CliError("io", f"PUSHCALC_MAX_STATES must be a non-negative integer, got {raw!r}")
    return cap


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_suite

    report = run_suite(
        args.suite, seed=args.seed, cases=args.cases,
        inject_fault=args.inject_fault,
    )
    _print_json(report.to_json())
    return 0 if report.ok else 1


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-g", type=int, required=True, help="number of handles")
    p.add_argument("-d", type=int, default=3, help="ambient dimension (default 3)")
    p.add_argument("-k", type=int, required=True, help="number of punctures")


def _push_word_flags(p: argparse.ArgumentParser) -> None:
    _model_flags(p)
    p.add_argument("--slot", type=int, required=True, help="which puncture moves")
    p.add_argument("word", help="loop word, e.g. 'a1 A2'")
    p.add_argument("--closed-form", action="store_true",
                   help="also print the loop coefficients f_i and cross-check the answer "
                        "against the letterwise composite of single-letter pushes")
    p.add_argument("--matrix", action="store_true", help="also print the matrix form")
    p.set_defaults(func=cmd_push_word)


def _push_braid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-d", type=int, default=3)
    p.add_argument("braid", help="braid text, e.g. '[a1 | e ; (1 2)]'")
    p.set_defaults(func=cmd_push_braid)


def _compose_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("outer", help="JSON file of the map applied second")
    p.add_argument("inner", help="JSON file of the map applied first")
    p.set_defaults(func=cmd_compose)


def _embed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", default=None, help="self-map JSON file")
    p.add_argument("-g", type=int, default=None)
    p.add_argument("-d", type=int, default=None, help="ambient dimension (default 3)")
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--slot", type=int, default=None)
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--truncate", type=int, default=None, metavar="RADIUS",
                   help="print the finite window as TSV")
    p.set_defaults(func=cmd_embed)


def _recover_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", required=True, help="self-map JSON file")
    p.set_defaults(func=cmd_recover)


def _kernel_flags(p: argparse.ArgumentParser) -> None:
    _model_flags(p)
    p.add_argument("--max-len", type=int, default=4, help="slot word length bound")
    p.add_argument("--max-braids", type=int, default=20000,
                   help="exhaustive below this count, sampled above")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kernel)


def _components_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True, help="target model JSON file")
    _model_flags(p)
    p.add_argument("--brute-force", action="store_true",
                   help="also count by exploring the state graph")
    p.add_argument("--assume-hypotheses", action="store_true",
                   help="assert the counting hypotheses hold for your manifold")
    p.set_defaults(func=cmd_components)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    from .verification import SUITES

    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--inject-fault", action="store_true",
                   help="add a deliberately false property (negative control)")
    p.set_defaults(func=cmd_verify)


def _json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")


# Each subcommand: the function that adds its flags, whether it also takes
# --json, and its line in the top-level help.
_COMMANDS: dict[str, tuple[Callable[[argparse.ArgumentParser], None], bool, str]] = {
    "push-word": (_push_word_flags, True, "push a puncture around a loop word"),
    "push-braid": (_push_braid_flags, True, "push punctures along a braid"),
    "compose": (_compose_flags, True, "compose two self-map JSON files"),
    "embed": (_embed_flags, True, "matrix form of a self-map"),
    "recover": (_recover_flags, True, "recover the braid behind a self-map"),
    "kernel": (_kernel_flags, True, "search for braids acting trivially"),
    "components": (_components_flags, True, "count components of a mapping space"),
    "verify": (_verify_flags, False, "run seeded property suites"),
}


class _DeclaredFlags:
    """The flags of one subcommand, recorded by running its flag functions
    on this stand-in for the parser, so that _plain_args reads the same
    flags argparse would."""

    def __init__(self, command: str) -> None:
        self.options: dict[str, dict] = {}   # '--slot' -> its add_argument keywords
        self.positionals: list[tuple[str, dict]] = []
        self.defaults: dict[str, object] = {"command": command}
        add_flags, takes_json, _ = _COMMANDS[command]
        if takes_json:
            _json_flag(self)
        add_flags(self)

    def add_argument(self, name: str, **spec: object) -> None:
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            self.options[name] = {"dest": dest, **spec}
            store_true = spec.get("action") == "store_true"
            self.defaults[dest] = False if store_true else spec.get("default")
        else:
            self.positionals.append((name, spec))
            self.defaults[name] = spec.get("default")

    def set_defaults(self, **defaults: object) -> None:
        self.defaults.update(defaults)


def _typed(spec: dict, text: str) -> object:
    """text as argparse stores it: through the type, then in the choices;
    ValueError where argparse would refuse it."""
    value = spec.get("type", str)(text)
    if "choices" in spec and value not in spec["choices"]:
        raise ValueError(value)
    return value


def _plain_args(argv: list[str]) -> object | None:
    """The namespace argparse parses argv to, read without argparse; None
    for argv outside the plain shape, which build_parser's parser then
    answers or refuses.

    The plain shape is a known subcommand, then flags named in full, each
    at most once, each value its own next token, and positionals; no
    token but a flag starts with '-', every required flag is present, the
    positional count is in range, and every value passes its type and
    choices.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _DeclaredFlags(argv[0])
    values = dict(flags.defaults)
    seen: set[str] = set()
    words: list[str] = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                words.append(token)
                continue
            spec = flags.options.get(token)
            if spec is None or token in seen:
                return None
            seen.add(token)
            if spec.get("action") == "store_true":
                values[spec["dest"]] = True
                continue
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            values[spec["dest"]] = _typed(spec, value)
        required = sum("nargs" not in spec for _, spec in flags.positionals)   # not '?'
        if not required <= len(words) <= len(flags.positionals):
            return None
        if any(spec.get("required") and name not in seen
               for name, spec in flags.options.items()):
            return None
        for (dest, spec), word in zip(flags.positionals, words):
            values[dest] = _typed(spec, word)
    except ValueError:
        return None
    return type(sys.implementation)(**values)   # types.SimpleNamespace, as argparse's Namespace


def _parser_class() -> type[argparse.ArgumentParser]:
    """argparse's parser as the CLI uses it, with its help formatter,
    defined when build_parser runs: a request in _plain_args's shape never
    imports argparse."""
    import argparse

    class _Formatter(argparse.HelpFormatter):
        """argparse's help formatter, with its default width worked out by
        _terminal_columns: argparse builds one for every flag it adds, and its
        own imports shutil."""

        def __init__(self, prog: str, **kwargs) -> None:
            if kwargs.get("width") is None:
                kwargs["width"] = _terminal_columns() - 2   # argparse's own margin
            super().__init__(prog, **kwargs)

    class _Parser(argparse.ArgumentParser):
        """Parser whose usage errors are raised to _run, not printed.

        `flags` adds the parser's own arguments the first time it parses, so
        a run builds only the flags of the one subcommand it names.
        """

        def __init__(self, *args, flags: Callable[[argparse.ArgumentParser], None] | None = None,
                     **kwargs) -> None:
            kwargs.setdefault("formatter_class", _Formatter)
            super().__init__(*args, **kwargs)
            self._flags = flags

        def parse_known_args(self, args=None, namespace=None):  # type: ignore[override]
            if self._flags is not None:
                flags, self._flags = self._flags, None
                flags(self)
            return super().parse_known_args(args, namespace)

        def error(self, message: str) -> None:  # type: ignore[override]
            raise _CliError("usage", message)

    return _Parser


def build_parser() -> argparse.ArgumentParser:
    """The pushcalc parser; each subcommand's flags are added when it parses."""
    parser_class = _parser_class()
    parser = parser_class(prog="pushcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = parser_class(add_help=False)
    _json_flag(json_flag)
    for name, (add_flags, takes_json, help_line) in _COMMANDS.items():
        sub.add_parser(name, parents=[json_flag] if takes_json else [], flags=add_flags,
                       help=help_line)
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
        args = _plain_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # argparse has printed --help
        return exc.code
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
