"""Command line goldens: byte-exact output, exit codes, error prefixes."""
from __future__ import annotations

import argparse
import ast
import collections
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pushcalc import cli
from pushcalc.cli import MAX_JSON_INT_DIGITS, TSV_MAX_CELLS, _check_grid, main
from pushcalc.errors import TooLarge, check_count, clip
from pushcalc.monoid import self_map_from_json
from pushcalc.orbits import target_from_json
from pushcalc.pushing import ManifoldModel, PuncturedSignature, parse_braid, push_word
from pushcalc.ring import parse_label
from pushcalc.verification import MAX_CASES, run_suite
from pushcalc.words import parse_word

GOLDEN = Path(__file__).parent / "golden"

TRIVIAL_TARGET = {
    "pi1_gens": 1,
    "classes": ["x", "y", "z"],
    "action": {"a1": ["x", "y", "z"]},
    "reflection": ["x", "y", "z"],
    "charge": ["x", "y", "z"],
    "f_classes": [["e"]],
}

CYCLE_TARGET = {
    "pi1_gens": 1,
    "classes": ["x", "y", "z"],
    "action": {"a1": ["y", "z", "x"]},
    "reflection": ["x", "y", "z"],
    "charge": ["x", "y", "z"],
    "f_classes": [["a1"]],
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def push_map_file(tmp_path, name: str, g: int, k: int, slot: int, word: str):
    sig = PuncturedSignature(ManifoldModel.default(g), k)
    h = push_word(sig, parse_word(word), slot)
    from pushcalc.monoid import self_map_to_json

    path = tmp_path / name
    path.write_text(json.dumps(self_map_to_json(h)))
    return path


def test_push_word_golden(capsys):
    code, out, err = run_cli(capsys, "push-word", "-g", "1", "-k", "1",
                             "--slot", "1", "a1")
    assert (code, err) == (0, "")
    assert out == "(a1, a1·p1, t1 + p1)\n"


def test_push_word_identity_golden(capsys):
    code, out, err = run_cli(capsys, "push-word", "-g", "1", "-k", "1",
                             "--slot", "1", "e")
    assert (code, out, err) == (0, "(a1, p1, t1)\n", "")


def test_push_word_closed_form_golden(capsys):
    code, out, err = run_cli(capsys, "push-word", "-g", "2", "-k", "1",
                             "--slot", "1", "a1 a2 A1", "--closed-form")
    assert (code, err) == (0, "")
    assert out == (
        "(a1, a2, a1 a2 A1·p1, t1 + (1 - a1 a2 A1)·p1, t2 + a1·p1)\n"
        "f1 = 1 - a1 a2 A1\n"
        "f2 = a1\n"
        "closed-form agrees: yes\n"
    )


def test_push_word_matrix_golden(capsys):
    code, out, err = run_cli(capsys, "push-word", "-g", "1", "-k", "1",
                             "--slot", "1", "a1", "--matrix")
    assert (code, err) == (0, "")
    assert out == "(a1, a1·p1, t1 + p1)\n[[a1, 1], [0, 1]]\n"


def test_push_word_json_round_trip(capsys):
    code, out, err = run_cli(capsys, "push-word", "-g", "2", "-k", "2",
                             "--slot", "2", "a1 A2", "--json", "--closed-form")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    sig = PuncturedSignature(ManifoldModel.default(2), 2)
    assert self_map_from_json(obj["map"]) == push_word(sig, parse_word("a1 A2"), 2)
    assert obj["closed_form_agrees"] is True
    assert set(obj["loop_coefficients"]) == {"f1", "f2"}


def test_push_word_parse_error(capsys):
    code, out, err = run_cli(capsys, "push-word", "-g", "1", "-k", "1",
                             "--slot", "1", "a0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:parse: ")
    assert err.count("\n") == 1


def test_push_word_slot_error(capsys):
    code, out, err = run_cli(capsys, "push-word", "-g", "1", "-k", "1",
                             "--slot", "2", "a1")
    assert code == 1
    assert err.startswith("error:slot-out-of-range: ")


@pytest.mark.parametrize("command", [[], *([name] for name in cli._COMMANDS)])
def test_help_exits_zero_with_usage(capsys, command):
    golden = GOLDEN / "help" / f"{command[0] if command else 'pushcalc'}.txt"
    assert run_cli(capsys, *command, "--help") == (0, golden.read_bytes().decode(), "")


@pytest.mark.parametrize("columns", [None, "120", " 50 ", "0", "-3", "wide"])
@pytest.mark.parametrize("stdout", ["captured", "none", "terminal"])
def test_help_ignores_the_terminal_width(capsys, monkeypatch, columns, stdout):
    # 80 columns, whatever COLUMNS holds or stdout is (a new pseudo-terminal has 0)
    monkeypatch.delenv("COLUMNS", raising=False)
    if columns:
        monkeypatch.setenv("COLUMNS", columns)
    leader, follower = os.openpty()
    with open(leader, "rb"), open(follower, "w") as terminal:
        streams = {"captured": sys.__stdout__, "none": None, "terminal": terminal}
        monkeypatch.setattr(sys, "__stdout__", streams[stdout])
        test_help_exits_zero_with_usage(capsys, ["components"])


# Each line of usage_errors.txt is 'argv<TAB>error line', argv in shell quoting.
USAGE_GOLDENS = [line.split("\t") for line in
                 (GOLDEN / "usage_errors.txt").read_bytes().decode().splitlines(keepends=True)]


@pytest.mark.parametrize("argv, err", USAGE_GOLDENS,
                         ids=[argv or "no-command" for argv, _ in USAGE_GOLDENS])
def test_usage_error_golden(capsys, argv, err):
    assert run_cli(capsys, *shlex.split(argv)) == (2, "", err)


@pytest.mark.parametrize("flag, value", [
    ("-g", "\u0662"), ("-k", "1_0"), ("--slot", "+1"), ("-g", " 2"), ("-k", "9" * 5000),
])
def test_int_flags_take_ascii_digits(capsys, flag, value):
    # as every other integer the CLI reads, here after an optional '-'
    flags = {"-g": "1", "-k": "1", "--slot": "1", flag: value}
    message = clip(f"argument {flag}: invalid int value: {value!r}", cli.MAX_MESSAGE_BYTES)
    assert run_cli(capsys, "push-word", *itertools.chain(*flags.items()), "a1") == (
        2, "", f"error:usage: {message}\n")


def test_negative_int_flags_are_values(capsys):
    assert run_cli(capsys, "push-word", "-g", "1", "-d", "-1", "-k", "1", "--slot", "1",
                   "a1") == (1, "", "error:invalid: dimension must be an int >= 3, got -1\n")
    assert run_cli(capsys, "kernel", "-g", "1", "-k", "1", "--max-len", "1", "--seed", "-1") \
        == (0, "mode: exhaustive\nchecked: 3\nkernel: trivial\n", "")


# Forms argparse reads and _parse refuses on purpose: '--', a lone '-', a
# flag with its value attached and an abbreviation.  Odd tokens and values add
# help, a negative number, an unknown flag, '' and ints in other spellings.
REFUSED = {"-", "--", "--slot=1", "-g7", "--max-l"}
ODD_TOKENS = [*sorted(REFUSED), "", "-h", "-1", "--bogus", "--json"]
ODD_VALUES = ["-1", "x", "", "1.5", "-", "--", " 3", "+2", "1_0", "\u0662", "ring", "all"]
WORDS = ["a1", "a1 A2", "[a1 | e ; (1 2)]", "map.json", ""]


def draw_argv(rng: random.Random) -> list[str]:
    """A shuffled argv of one subcommand's flags, mostly well formed, with a
    share of odd tokens, odd values, repeated flags and dropped tokens."""
    command = rng.choice(list(cli._COMMANDS))
    flags = cli._COMMANDS[command][2]()
    options = [(name, spec) for name, spec in flags if name.startswith("-")]

    def group(name: str, spec: dict) -> list[str]:
        if spec.get("action") == "store_true":
            return [name]
        if rng.random() < 0.1:
            return [name, rng.choice(ODD_VALUES)]
        if "choices" in spec:
            return [name, rng.choice([*spec["choices"], "x"])]
        if "type" in spec:
            return [name, str(rng.randrange(5))]
        return [name, rng.choice(WORDS)]

    groups = [group(name, spec) for name, spec in options
              if rng.random() < (0.95 if spec.get("required") else 0.4)]
    n_words = len(flags) - len(options)
    if rng.random() < 0.2:
        n_words = rng.randrange(n_words + 2)
    groups += [[rng.choice(WORDS)] for _ in range(n_words)]
    if rng.random() < 0.1:
        groups.append(group(*rng.choice(options)))   # a repeat, mostly of a new value
    groups += [[rng.choice(ODD_TOKENS)] for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 2]))]
    rng.shuffle(groups)
    argv = [command, *itertools.chain.from_iterable(groups)]
    if rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
    return argv


def oracle_int(text: str) -> int:   # the CLI's rule, written apart from cli._int
    return int(re.fullmatch(r"-?[0-9]+", text)[0])   # argparse reads a TypeError as ValueError


oracle_int.__name__ = "int"   # argparse names the type in "invalid int value"


def oracle_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS' flags, which read argv before _parse."""
    parser = argparse.ArgumentParser(prog="pushcalc", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in cli._COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, spec in flags():
            command.add_argument(flag, **{**spec, "type": oracle_int} if "type" in spec else spec)
    return parser


def reading(capsys, parse, argv: list[str]) -> object:
    """What a reader makes of argv: 'help', the namespace's dict or the error line."""
    try:
        parsed = parse(argv)
    except SystemExit as exc:   # argparse has printed help, or usage and an error line
        err = capsys.readouterr().err
        return "help" if exc.code == 0 else "error:usage: " + err.rpartition(": error: ")[2]
    except cli._CliError as exc:
        return f"error:usage: {exc}\n"
    return "help" if isinstance(parsed, str) else vars(parsed)


@pytest.mark.parametrize("seed", range(4))
def test_reader_agrees_with_argparse(capsys, seed):
    # argparse is the oracle: both readers give equal namespaces, the same
    # error line or help.  Left out: a flag before the subcommand, and -h
    # after a bad value (or as one), which _parse answers with help.  An
    # argv with a refused form must end in one usage error line.
    parser = oracle_parser()
    rng = random.Random(seed)
    outcomes = collections.Counter()
    for argv in [draw_argv(rng) for _ in range(600)]:
        ours = reading(capsys, cli._parse, argv)
        if ours != "help" and REFUSED.intersection(argv):
            assert ours.startswith("error:usage: ") and run_cli(capsys, *argv) == (2, "", ours)
            outcomes["refused form"] += 1
            continue
        theirs = reading(capsys, parser.parse_args, argv)
        if argv and cli._is_flag(argv[0]) or ours == "help" != theirs:
            outcomes["left out"] += 1
            continue
        assert ours == theirs, argv
        outcomes["help" if ours == "help" else type(ours).__name__] += 1   # dict or error line
    assert min(outcomes[kind] for kind in ("refused form", "help", "dict", "str")) >= 15 \
        and outcomes["left out"] <= 30, outcomes


def test_push_braid_golden(capsys):
    code, out, err = run_cli(capsys, "push-braid", "-g", "1", "[a1 | e ; (1 2)]")
    assert (code, err) == (0, "")
    assert out == "(a1, p2, a1·p1, t1 + p1)\n"


def test_compose_inverse_pair(capsys, tmp_path):
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    m2 = push_map_file(tmp_path, "m2.json", 1, 1, 1, "A1")
    code, out, err = run_cli(capsys, "compose", str(m1), str(m2))
    assert (code, out, err) == (0, "(a1, p1, t1)\n", "")


def test_compose_missing_file(capsys, tmp_path):
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    code, out, err = run_cli(capsys, "compose", str(m1),
                             str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error:io: ")


def test_compose_invalid_json(capsys, tmp_path):
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "compose", str(m1), str(bad))
    assert code == 1
    assert err.startswith("error:io: ")


# The C locale with UTF-8 mode off is where open() without an encoding reads ASCII.
@pytest.mark.parametrize("locale", [{}, {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}],
                         ids=["default", "C"])
def test_json_files_are_read_as_utf8(tmp_path, locale):
    target = {**TRIVIAL_TARGET, "classes": ["\u00fc", "y", "z"],
              "action": {"a1": ["\u00fc", "y", "z"]}, "reflection": ["\u00fc", "y", "z"],
              "charge": ["\u00fc", "y", "z"]}
    (tmp_path / "target.json").write_bytes(json.dumps(target, ensure_ascii=False).encode())
    (tmp_path / "bad.json").write_bytes(b'{"g": 1\xff}')
    package = os.path.dirname(os.path.dirname(cli.__file__))   # for a child in tmp_path

    def run(*argv: str) -> tuple[int, str, str]:
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "pushcalc", *argv],
                              cwd=tmp_path, env={**os.environ, **locale, "PYTHONPATH": package},
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    assert run("components", "--target", "target.json", "-g", "1", "-k", "1",
               "--assume-hypotheses") == (0, "formula: 3\n", "")
    assert run("recover", "--map", "bad.json") == (
        1, "", "error:io: bad.json is not valid JSON: 'utf-8' codec can't decode byte 0xff "
               "in position 7: invalid start byte\n")


def test_compose_rejects_bool_rank(capsys, tmp_path):
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    obj = json.loads(m1.read_text())
    obj["g"] = True
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "compose", str(m1), str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error:parse: ")
    assert err.count("\n") == 1


def test_embed_matrix_golden(capsys, tmp_path):
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    code, out, err = run_cli(capsys, "embed", "--map", str(m1))
    assert (code, out, err) == (0, "[[a1, 1], [0, 1]]\n", "")


def test_two_keys_naming_one_sphere_refused(capsys, tmp_path):
    # "p1" and "p01" both name p1: the map is refused, not read as one of them.
    obj = {"g": 1, "d": 3, "labels": ["p1", "t1"], "circles": ["a1"],
           "spheres": {"p1": {"p1": [[1, "a1"]]}, "p01": {"p1": [[1, "e"]]},
                       "t1": {"t1": [[1, "e"]]}}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    assert run_cli(capsys, "embed", "--map", str(path)) == (
        1, "", "error:parse: duplicate sphere image for label p1\n")


def test_repeated_json_key_in_a_map_refused(capsys, tmp_path):
    # json.loads alone keeps the second "p1" image, and embed answered with it.
    text = ('{"g": 1, "d": 3, "labels": ["p1", "t1"], "circles": ["a1"], '
            '"spheres": {"p1": {"p1": [[1, "a1"]]}, "p1": {"p1": [[1, "e"]]}, '
            '"t1": {"t1": [[1, "e"]]}}}')
    path = tmp_path / "map.json"
    path.write_text(text)
    assert run_cli(capsys, "embed", "--map", str(path)) == (
        1, "", "error:parse: duplicate key 'p1'\n")


def test_circle_image_beyond_rank_refused(capsys, tmp_path):
    obj = {"g": 2, "d": 3, "labels": ["p1"], "circles": ["a1", "a3"], "spheres": {}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    assert run_cli(capsys, "compose", str(path), str(path)) == (
        1, "", "error:parse: circle image a3 exceeds rank 2\n")


def test_repeated_json_key_in_a_target_refused(capsys, tmp_path):
    # The key's echo is clipped like every other echo of input.
    key = "charge" + "x" * 200
    text = json.dumps(TRIVIAL_TARGET)[:-1] + f', "{key}": 1, "{key}": 2}}'
    path = tmp_path / "target.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "1", "--assume-hypotheses")
    assert (code, out) == (1, "")
    assert err == f"error:parse: duplicate key {clip(repr(key))}\n"
    # The literal case: a second "charge" no longer wins.
    text = json.dumps(TRIVIAL_TARGET)[:-1] + ', "charge": ["x", "x", "y"]}'
    path.write_text(text)
    assert run_cli(capsys, "components", "--target", str(path),
                   "-g", "1", "-k", "1", "--assume-hypotheses") == (
        1, "", "error:parse: duplicate key 'charge'\n")


def test_embed_word_mode_tsv_golden(capsys):
    code, out, err = run_cli(capsys, "embed", "-g", "1", "-k", "1",
                             "--slot", "1", "a1", "--truncate", "1")
    assert (code, err) == (0, "")
    assert out == (
        "\tp1:e\tp1:a1\tp1:A1\tt1:e\tt1:a1\tt1:A1\n"
        "p1:e\t0\t0\t1\t1\t0\t0\n"
        "p1:a1\t1\t0\t0\t0\t1\t0\n"
        "p1:A1\t0\t0\t0\t0\t0\t1\n"
        "p1:a1^2\t0\t1\t0\t0\t0\t0\n"
        "p1:a1^-2\t0\t0\t0\t0\t0\t0\n"
        "t1:e\t0\t0\t0\t1\t0\t0\n"
        "t1:a1\t0\t0\t0\t0\t1\t0\n"
        "t1:A1\t0\t0\t0\t0\t0\t1\n"
        "t1:a1^2\t0\t0\t0\t0\t0\t0\n"
        "t1:a1^-2\t0\t0\t0\t0\t0\t0\n"
    )


def test_embed_usage_error(capsys):
    code, out, err = run_cli(capsys, "embed")
    assert code == 2
    assert err.startswith("error:usage: ")
    assert run_cli(capsys, "embed", "a1", "-g", "1") == (
        2, "", "error:usage: word mode needs -g, -k, and --slot\n")


@pytest.mark.parametrize("extra", [
    ("a7",), ("-g", "5"), ("-k", "3"), ("--slot", "9"),
    ("-g", "5", "-k", "3", "--slot", "9", "a7"),
], ids=["word", "g", "k", "slot", "all"])
def test_embed_map_refuses_word_mode_flags(capsys, tmp_path, extra):
    # A word-mode flag beside --map would otherwise be dropped without a word.
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    assert run_cli(capsys, "embed", "--map", str(m1), *extra) == (
        2, "", "error:usage: --map takes no word, -g, -k or --slot\n")


def test_embed_map_refuses_dimension(capsys, tmp_path):
    # The map file gives the dimension; a -d beside it was silently dropped.
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    for d in ("3", "7"):
        assert run_cli(capsys, "embed", "--map", str(m1), "-d", d) == (
            2, "", "error:usage: --map takes no -d: the map file gives the dimension\n")
    # the older refusal still comes first
    assert run_cli(capsys, "embed", "--map", str(m1), "-d", "7", "-g", "1") == (
        2, "", "error:usage: --map takes no word, -g, -k or --slot\n")
    # word mode keeps its default dimension, and takes another one
    _, three, _ = run_cli(capsys, "embed", "-g", "1", "-k", "1", "--slot", "1", "a1", "--json")
    _, explicit, _ = run_cli(capsys, "embed", "-g", "1", "-k", "1", "--slot", "1", "a1",
                             "-d", "3", "--json")
    code, seven, err = run_cli(capsys, "embed", "-g", "1", "-k", "1", "--slot", "1", "a1",
                               "-d", "7", "--json")
    assert three == explicit and (code, err) == (0, "")
    assert json.loads(seven)["d"] == 7 and json.loads(three)["d"] == 3


def test_recover_golden(capsys, tmp_path):
    m1 = push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")
    code, out, err = run_cli(capsys, "recover", "--map", str(m1))
    assert (code, out, err) == (0, "[a1 ; id]\n", "")


def test_recover_json(capsys, tmp_path):
    m = push_map_file(tmp_path, "m.json", 2, 2, 2, "a1 A2")
    code, out, err = run_cli(capsys, "recover", "--map", str(m), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"braid": "[e | a1 A2 ; id]"}


def test_recover_not_in_image(capsys, tmp_path):
    sig = PuncturedSignature(ManifoldModel.default(1), 1)
    from pushcalc.monoid import self_map_to_json

    obj = self_map_to_json(push_word(sig, parse_word("a1"), 1))
    obj["spheres"]["p1"] = {"p1": [[2, "a1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "recover", "--map", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:not-in-image: ")


# The push of [a1 | e ; id] at g = 1, k = 2, with one change per case.
RECOVER_BASE = {
    "g": 1, "d": 3, "labels": ["p1", "p2", "t1"], "circles": ["a1"],
    "spheres": {"p1": {"p1": [[1, "a1"]]}, "p2": {"p2": [[1, "e"]]},
                "t1": {"p1": [[1, "e"]], "t1": [[1, "e"]]}},
}


@pytest.mark.parametrize("change, reason", [
    ({"circles": ["a1^2"]}, "circle part is not the identity"),
    ({"spheres": {"p1": {}}}, "image of p1 is not a single basis term"),
    ({"spheres": {"p1": {"p1": [[1, "a1"]], "t1": [[1, "e"]]}}},
     "image of p1 is not a single basis term"),
    ({"spheres": {"p2": {"t1": [[1, "e"]]}}}, "image of p2 lands on t1"),
    ({"spheres": {"p1": {"p1": [[1, "a1"], [1, "e"]]}}}, "image of p1 has 2 group terms"),
    ({"spheres": {"p1": {"p1": [[-1, "a1"]]}}},
     "image of p1 has coefficient -1, expected the orientation sign 1"),
    ({"spheres": {"p2": {"p1": [[1, "e"]]}}}, "two puncture spheres land on p1"),
    ({"spheres": {"t1": {"t1": [[1, "e"]]}}}, "cell images do not match the decoded braid"),
    ({"spheres": {"t1": {"p1": [[1, "e"]], "t1": [[1, "e"]], "p2": [[1, "a1"]]}}},
     "cell images do not match the decoded braid"),
    ({"spheres": {"t1": {"p1": [[1, "e"]], "t1": [[2, "e"]]}}},
     "cell images do not match the decoded braid"),
])
def test_recover_refusal_lines(capsys, tmp_path, change, reason):
    obj = json.loads(json.dumps(RECOVER_BASE))
    obj["circles"] = change.get("circles", obj["circles"])
    obj["spheres"].update(change.get("spheres", {}))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    assert run_cli(capsys, "recover", "--map", str(path)) == (
        1, "", f"error:not-in-image: {reason}\n")


def test_kernel_golden(capsys):
    code, out, err = run_cli(capsys, "kernel", "-g", "1", "-k", "1",
                             "--max-len", "3")
    assert (code, err) == (0, "")
    assert out == "mode: exhaustive\nchecked: 7\nkernel: trivial\n"


def test_kernel_json(capsys):
    code, out, err = run_cli(capsys, "kernel", "-g", "1", "-k", "2",
                             "--max-len", "1", "--json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["exhaustive"] is True
    assert obj["checked"] == 18
    assert obj["nontrivial"] == []


def test_kernel_lists_the_hits_it_finds(capsys, monkeypatch):
    # A push that sends each one-letter braid to the identity: the sweep
    # reports both hits and exits 1, in text and in JSON.
    import pushcalc.pushing as pushing
    from pushcalc.monoid import identity_map

    push_braid = pushing.push_braid

    def collapsed(sig, braid):
        if sum(len(w.letters) for w in braid.words) == 1:
            return identity_map(sig.wedge)
        return push_braid(sig, braid)

    monkeypatch.setattr(pushing, "push_braid", collapsed)
    argv = ("kernel", "-g", "1", "-k", "1", "--max-len", "1")
    assert run_cli(capsys, *argv) == (1, (
        "mode: exhaustive\nchecked: 3\nkernel: nontrivial (2 found)\n"
        "  [a1 ; id]\n  [A1 ; id]\n"), "")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["nontrivial"] == ["[a1 ; id]", "[A1 ; id]"]


@pytest.mark.parametrize("argv, name, value", [
    (("--max-len", "2", "--max-braids", "-1"), "max_braids", "-1"),
    (("--max-len", "-3"), "max_word_len", "-3"),
])
def test_kernel_negative_sizes_refused(capsys, argv, name, value):
    code, out, err = run_cli(capsys, "kernel", "-g", "1", "-k", "1", *argv)
    assert (code, out) == (1, "")
    assert err == f"error:invalid: {name} must be a non-negative int, got {value}\n"


def _limit_memory() -> None:
    # A regression that lists the whole ball or every permutation again
    # should fail with MemoryError in the child, not exhaust the machine.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ("-g", "1", "-k", "11", "--max-len", "0"),    # 11! permutations
    ("-g", "3", "-k", "1", "--max-len", "13"),    # 1,831,054,687 words
])
def test_kernel_sizes_before_listing(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", "kernel", *argv, "--max-braids", "5"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "mode: sampled\nchecked: 5\nkernel: trivial\n"


@pytest.mark.parametrize("argv", [
    ("push-word", "-g", "1", "-k", "1", "--slot", "1", "a1^300000000"),
    ("embed", "-g", "2", "-k", "1", "--slot", "1", "a1", "--truncate", "12"),
    ("embed", "-g", "2", "-k", "1", "--slot", "1", "a1", "--truncate", "1000000000"),
    # 40 slots of 1,000 letters: each word is under the cap, the braid is not.
    ("push-braid", "-g", "2", "[" + " | ".join(["a1^1000"] * 40) + " ; id]"),
    # (2g-1)^L for the ball size alone would be a 2.3-gigabit integer.
    ("kernel", "-g", "3", "-k", "1", "--max-len", "1000000000"),
    # g + k over the model cap: no crossing data or label is built.
    ("push-word", "-g", "100000000", "-k", "1", "--slot", "1", "a1"),
    ("push-word", "-g", "1", "-k", "100000000", "--slot", "1", "a1"),
    ("push-braid", "-g", "100000000", "[a1 ; id]"),
    ("kernel", "-g", "100000000", "-k", "1", "--max-len", "1", "--max-braids", "3"),
    ("embed", "-g", "1", "-k", "100000000", "--slot", "1", "a1"),
    # Kernel sweeps estimated over MAX_KERNEL_WORK: an exhaustive search of
    # 1.8e9 braids, and samples of 20,000 braids that would run for hours
    # (20,000 labels each) or minutes (1,000-letter slot words).
    ("kernel", "-g", "3", "-k", "1", "--max-len", "13", "--max-braids", "1000000000000"),
    ("kernel", "-g", "1", "-k", "19999"),
    ("kernel", "-g", "3", "-k", "1", "--max-len", "1000"),
    ("verify", "--suite", "ring", "--cases", "100000000"),
    # a dense block grid of 3,001^2 cells
    ("embed", "-g", "3000", "-k", "1", "--slot", "1", "a1"),
    ("push-word", "-g", "3000", "-k", "1", "--slot", "1", "a1", "--matrix"),
    # an exponent past int()'s own 4,300-digit limit
    ("push-word", "-g", "1", "-k", "1", "--slot", "1", "a1^" + "9" * 5000),
])
def test_too_large_refused_before_allocating(argv):
    _assert_refused_in_child(argv)


def _assert_refused_in_child(argv) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:too-large: ")
    assert proc.stderr.count("\n") == 1


def test_oversized_compose_refused_before_allocating(tmp_path):
    # Each circle word is under the word cap, but substituting 60 circles of
    # 1,000 letters into themselves would write 60,000,000 letters.
    g = 60
    circles = [" ".join(f"a{(i + j) % g + 1}" for j in range(1000)) for i in range(g)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"g": g, "d": 3, "labels": [], "circles": circles, "spheres": {}}
    ))
    _assert_refused_in_child(("compose", str(big), str(big)))


@pytest.mark.parametrize("g, radius", [(2, 1000), (1, 100_000_000)])
def test_label_free_window_refused_before_listing_words(tmp_path, g, radius):
    # No labels means no keys, but the word balls are capped all the same:
    # 2.6e477 words at g = 2, 2e8 at g = 1.
    path = tmp_path / "free.json"
    circles = [f"a{i}" for i in range(1, g + 1)]
    path.write_text(json.dumps(
        {"g": g, "d": 3, "labels": [], "circles": circles, "spheres": {}}))
    _assert_refused_in_child(("embed", "--map", str(path), "--truncate", str(radius)))
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", "embed", "--map", str(path), "--truncate", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_json_integer_cap_edge(capsys, tmp_path):
    ident = push_map_file(tmp_path, "id.json", 1, 1, 1, "e")
    obj = json.loads(ident.read_text())
    big = tmp_path / "big.json"
    coef = int("9" * MAX_JSON_INT_DIGITS)
    obj["spheres"]["p1"]["p1"] = [[coef, "e"]]
    big.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "compose", str(big), str(ident))
    assert (code, err) == (0, "")
    assert str(coef) in out
    obj["spheres"]["p1"]["p1"] = [[10 * coef, "e"]]
    big.write_text(json.dumps(obj))
    assert run_cli(capsys, "compose", str(big), str(ident)) == (1, "", (
        f"error:too-large: a JSON integer is over the cap of {MAX_JSON_INT_DIGITS} digits\n"))


def test_block_grid_cap_edge(capsys):
    side = math.isqrt(TSV_MAX_CELLS)
    assert side * side == TSV_MAX_CELLS
    _check_grid(side)   # the widest grid printed; its 12 MB stay unprinted here
    argv = ("embed", "-g", str(side), "-k", "1", "--slot", "1", "a1")   # side + 1 labels
    assert run_cli(capsys, *argv) == (1, "", (
        f"error:too-large: the block grid would have {side + 1}^2 cells, over the cap "
        f"{TSV_MAX_CELLS} (pass --json for the sparse form)\n"))
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["labels"]) == side + 1


_ENTRY_FORMS = {   # id suffix -> interpreter arguments
    "": ("-m", "pushcalc"),
    "-cli": ("-m", "pushcalc.cli"),
    "-script": ("-c", "import sys; from pushcalc.cli import main; sys.exit(main())"),
    # what the installed `pushcalc` script runs
    "-entry": ("-c", "import sys; from pushcalc.cli import entry; sys.exit(entry())"),
}
# The child's streams as a user gets them: block-buffered stdout, whatever
# PYTHONUNBUFFERED the test run has.
_BUFFERED_ENV = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
_PIPE_ARGVS = [
    ("verify", "--suite", "ring", "--cases", "2"),   # still buffered at exit
    ("embed", "-g", "2", "-k", "1", "--slot", "1", "a1 a2", "--truncate", "2"),  # 55 KB
    ("--help",),
    ("push-word", "--help"),
]


@pytest.mark.parametrize("entry, argv", [
    pytest.param(entry, argv, id=f"argv{i}{suffix}")
    for i, argv in enumerate(_PIPE_ARGVS) for suffix, entry in _ENTRY_FORMS.items()
])
def test_closed_stdout_pipe_exits_without_traceback(entry, argv):
    proc = _run_with_reader_gone("stdout", entry, argv)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _run_with_reader_gone(stream: str, entry, argv) -> subprocess.CompletedProcess:
    """Run the CLI with stream ('stdout' or 'stderr') a pipe whose reader is
    gone before the first write, and the other stream captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run([sys.executable, *entry, *argv], **pipes,
                              env=_BUFFERED_ENV, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("entry, argv, code", [
    pytest.param(entry, argv, code, id=f"{name}{suffix}")
    for name, argv, code in (
        ("parse", ("push-word", "-g", "1", "-k", "1", "--slot", "1", "a0"), 1),
        ("usage", ("bogus",), 2),
    )
    for suffix, entry in _ENTRY_FORMS.items()
])
def test_closed_stderr_pipe_keeps_the_refusal_code(entry, argv, code):
    proc = _run_with_reader_gone("stderr", entry, argv)
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.parametrize("entry, argv", [
    pytest.param(entry, argv, id=f"{name}{suffix}")
    for name, argv in (
        ("tsv", _PIPE_ARGVS[1]),   # 55 KB, past stdout's 8 KB buffer
        ("json", ("push-word", "-g", "2", "-k", "1", "--slot", "1", "a1 a2",
                  "--closed-form", "--matrix", "--json")),
        ("parse", ("push-word", "-g", "1", "-k", "1", "--slot", "1", "a0")),
        ("usage", ("push-word", "-g", "1", "a1")),
        ("no-command", ()),
        ("bad-command", ("no-such-command",)),
        ("too-large", ("push-word", "-g", "1", "-k", "1", "--slot", "1", "a1^300000000")),
    )
    for suffix, entry in _ENTRY_FORMS.items()
])
def test_each_entry_form_prints_what_main_prints(capsys, entry, argv):
    # The entry ends the process without interpreter teardown; nothing of
    # the answer or the error line may be lost on the way.
    proc = subprocess.run([sys.executable, *entry, *argv], capture_output=True,
                          env=_BUFFERED_ENV, timeout=60)
    code, out, err = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert out or re.fullmatch(r"error:[a-z-]+: [^\n]*\n", err)


def _map_json(**change) -> str:
    # RECOVER_BASE with some fields replaced, as JSON text
    return json.dumps({**RECOVER_BASE, **change})


def _target_json(**change) -> str:
    return json.dumps({**TRIVIAL_TARGET, **change})


_SINGLETONS = list(range(200_000))


@pytest.mark.parametrize("command, text, k, code", [
    # 200,000 nested arrays overflow the JSON decoder's recursion
    pytest.param("compose", "[" * 200_000, 1, "io", id="nested-compose"),
    pytest.param("recover", "[" * 200_000, 1, "io", id="nested-recover"),
    pytest.param("components", "[" * 200_000, 1, "io", id="nested-components"),
    # a coefficient of 5,000 digits, past int()'s own 4,300-digit limit
    pytest.param(
        "compose", _map_json().replace('[[1, "a1"]]', '[[' + "9" * 5000 + ', "a1"]]'),
        1, "too-large", id="long-coefficient",
    ),
    # a count of 200,000 singleton orbits at k = 10**9, never computed
    pytest.param("components", _target_json(
        pi1_gens=0, classes=_SINGLETONS, action={}, reflection=_SINGLETONS,
        charge=_SINGLETONS, f_classes=[[]],
    ), 10**9, "too-large", id="huge-count"),
    # indices of 5,000 digits, and values of the wrong JSON type
    pytest.param("compose", _map_json(labels=["p" + "1" * 5000, "p2", "t1"]), 1, "parse",
                 id="long-label-index"),
    pytest.param("recover", _map_json(circles=["a" + "1" * 5000]), 1, "parse",
                 id="long-generator-index"),
    pytest.param("compose", _map_json(circles=[1]), 1, "parse", id="int-word"),
    pytest.param("compose", _map_json(labels=[1, "p2", "t1"]), 1, "parse", id="int-label"),
    pytest.param("components", _target_json(classes=[["x"], "y", "z"]), 1, "parse",
                 id="array-class-id"),
    pytest.param("components", _target_json(charge=[["x"]]), 1, "parse", id="array-charge-id"),
    pytest.param("components", _target_json(f_classes=[[1]]), 1, "parse", id="int-f-word"),
    # a value of the wrong JSON shape where the parser expects another
    *(pytest.param("components", _target_json(**{key: value}), 1, "parse", id=name)
      for name, key, value in (
          ("negative-pi1-gens", "pi1_gens", -1),
          ("string-classes", "classes", "xyz"),
          ("string-reflection", "reflection", "x"),
          ("string-charge", "charge", "x"),
          ("string-f-classes", "f_classes", "a1"),
          ("string-f-class", "f_classes", ["a1"]),
          ("array-action", "action", ["x", "y", "z"]),
          ("string-action-row", "action", {"a1": "xyz"}),
          ("extra-action-key", "action", {"a1": ["x", "y", "z"], "a2": ["x", "y", "z"]}),
      )),
    pytest.param("compose", "[]", 1, "parse", id="array-map"),
    pytest.param("recover", json.dumps({k: v for k, v in RECOVER_BASE.items() if k != "d"}),
                 1, "parse", id="missing-map-key"),
    pytest.param("compose", _map_json(labels="p1"), 1, "parse", id="string-labels"),
    pytest.param("recover", _map_json(circles="a1"), 1, "parse", id="string-circles"),
    pytest.param("compose", _map_json(spheres=[]), 1, "parse", id="array-spheres"),
])
def test_malformed_json_ends_in_one_error_line(tmp_path, command, text, k, code):
    path = tmp_path / "input.json"
    path.write_text(text)
    files = {
        "compose": (str(path), str(path)),
        "recover": ("--map", str(path)),
        "components": ("--target", str(path), "-g", "0", "-k", str(k)),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", command, *files[command]],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error:{code}: ") and proc.stderr.count("\n") == 1
    # no Python internals, and no state-cap hint for the formula's own cap
    for leak in ("Traceback", "set_int_max_str_digits", "PUSHCALC_MAX_STATES"):
        assert leak not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("recover", "--map", "nested.json"),
    ("compose", "nested.json", "nested.json"),
    ("components", "--target", "nested.json", "-g", "1", "-k", "1"),
])
def test_deeply_nested_json_in_process(capsys, tmp_path, monkeypatch, argv):
    # The decoder's RecursionError ends in the one io line, in this process.
    monkeypatch.chdir(tmp_path)
    Path("nested.json").write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli(capsys, *argv) == (
        1, "", "error:io: nested.json is not valid JSON: nested too deeply\n")


def test_push_word_answers_from_the_closed_form(capsys, monkeypatch):
    # cli imports push_word from pushing when a command runs, so the
    # patch on pushing is what it calls.
    import pushcalc.pushing as pushing
    from pushcalc.monoid import identity_map

    def fold(sig, w, slot):
        raise AssertionError("the letterwise fold ran")

    monkeypatch.setattr(pushing, "push_word", fold)
    code, out, err = run_cli(capsys, "push-word", "-g", "2", "-k", "1",
                             "--slot", "1", "a1 a2 A1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["map"]["spheres"]["t2"] == {"p1": [[1, "a1"]], "t2": [[1, "e"]]}
    code, out, err = run_cli(capsys, "embed", "-g", "1", "-k", "1", "--slot", "1", "a1")
    assert (code, out, err) == (0, "[[a1, 1], [0, 1]]\n", "")
    # --closed-form checks the answer against the fold, and the f_i lines
    # are read from the answer: a fold that disagrees exits 1.
    monkeypatch.setattr(pushing, "push_word", lambda sig, w, slot: identity_map(sig.wedge))
    code, out, err = run_cli(capsys, "push-word", "-g", "2", "-k", "1",
                             "--slot", "1", "a1 a2 A1", "--closed-form")
    assert (code, err) == (1, "")
    assert out.endswith("f1 = 1 - a1 a2 A1\nf2 = a1\nclosed-form agrees: no\n")


def _sphere_terms_map(n: int, length: int) -> dict:
    """Self-map at g = 2 whose p1 image has n distinct support words."""
    words = itertools.islice(
        (w for w in itertools.product(("a1", "a2", "A1", "A2"), repeat=length)
         if all(x.swapcase() != y for x, y in zip(w, w[1:]))),
        n,
    )
    return {"g": 2, "d": 3, "labels": ["p1", "t1", "t2"], "circles": ["a1", "a2"],
            "spheres": {"p1": {"p1": [[1, " ".join(w)] for w in words]},
                        "t1": {"t1": [[1, "e"]]}, "t2": {"t2": [[1, "e"]]}}}


@pytest.mark.parametrize("n, length", [
    (2000, 8),    # 4,000,000 term pairs
    (100, 1000),  # 10,000 pairs, but of 1,000-letter words
])
def test_compose_of_many_sphere_terms_refused(tmp_path, n, length):
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps(_sphere_terms_map(n, length)))
    _assert_refused_in_child(("compose", str(terms), str(terms)))


@pytest.mark.parametrize("argv", [
    ("push-word", "-g", "10000", "-k", "1", "--slot", "1", "a1"),
    ("push-word", "-g", "1", "-k", "10000", "--slot", "1", "a1"),
    ("push-braid", "-g", "10000", "[a1 ; id]"),
    ("kernel", "-g", "10000", "-k", "1", "--max-len", "1", "--max-braids", "3"),
    ("embed", "-g", "10000", "-k", "1", "--slot", "1", "a1", "--json"),
])
def test_large_models_under_the_cap_answer(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_components_golden(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "2", "--brute-force",
                             "--assume-hypotheses")
    assert (code, out, err) == (0, "formula: 6, brute-force: 6, agree\n", "")


def test_components_cycle_golden(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(CYCLE_TARGET))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "1", "--assume-hypotheses")
    assert (code, out, err) == (0, "formula: 1\n", "")


def test_components_k0_counts_f_classes(capsys, tmp_path):
    target = json.loads(json.dumps(TRIVIAL_TARGET))
    target["f_classes"] = [["e"], ["a1"]]
    path = tmp_path / "two_f.json"
    path.write_text(json.dumps(target))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "0", "--assume-hypotheses")
    assert (code, out, err) == (0, "formula: 2\n", "")


def test_components_hypothesis_gate(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "2")
    assert code == 1
    assert err.startswith("error:hypothesis-violation: ")
    assert "--assume-hypotheses" in err
    assert err.count("\n") == 1


def test_components_state_cap_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    monkeypatch.setenv("PUSHCALC_MAX_STATES", "5")
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "2", "--brute-force",
                             "--assume-hypotheses")
    assert code == 1
    assert err.startswith("error:too-large: ")
    assert "PUSHCALC_MAX_STATES" in err
    monkeypatch.setenv("PUSHCALC_MAX_STATES", "100")
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "2", "--brute-force",
                             "--assume-hypotheses")
    assert (code, out) == (0, "formula: 6, brute-force: 6, agree\n")


def test_components_huge_k_refused_before_allocating(tmp_path):
    # 3**1000000000 must never be built: the cap is checked by an early-exit
    # product, so this answers at once instead of hanging
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    env = {k: v for k, v in os.environ.items() if k != "PUSHCALC_MAX_STATES"}
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", "components", "--target", str(path),
         "-g", "1", "-k", "1000000000", "--brute-force", "--assume-hypotheses"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:too-large: ")
    assert proc.stderr.count("\n") == 1


def test_components_bad_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    # a negative cap is refused like a non-integer, not taken as a cap
    # that every state graph is over; so is any text but the digits 0-9,
    # which int() would read
    for raw in ("lots", "-3", "1_000", "+5", " 7 ", "\u0665", ""):
        monkeypatch.setenv("PUSHCALC_MAX_STATES", raw)
        code, out, err = run_cli(capsys, "components", "--target", str(path),
                                 "-g", "1", "-k", "2", "--brute-force",
                                 "--assume-hypotheses")
        assert (code, out) == (1, "")
        assert err == ("error:io: PUSHCALC_MAX_STATES must be a non-negative "
                       f"integer, got {raw!r}\n")


def test_components_rank_mismatch(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    assert run_cli(capsys, "components", "--target", str(path), "-g", "2", "-k", "2",
                   "--assume-hypotheses") == (
        1, "", "error:size-mismatch: f class gives 1 loop images but the model has rank 2\n")


def test_components_bad_target(capsys, tmp_path):
    target = json.loads(json.dumps(TRIVIAL_TARGET))
    del target["charge"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(target))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "1", "--assume-hypotheses")
    assert code == 1
    assert err.startswith("error:parse: ")


@pytest.mark.parametrize("classes, charge, where", [
    ([0, 1, 2], [True, False], "charge"),   # once read as the ids 1 and 0
    ([1, True, "z"], [1], "classes"),        # once refused as not distinct
])
def test_components_refuses_boolean_class_ids(capsys, tmp_path, classes, charge, where):
    target = {"pi1_gens": 0, "classes": classes, "action": {},
              "reflection": classes, "charge": charge, "f_classes": [[]]}
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(target))
    assert run_cli(capsys, "components", "--target", str(path),
                   "-g", "0", "-k", "2", "--brute-force") == (
        1, "", f"error:parse: {where} holds true or false; class ids must be "
               "JSON strings, numbers or null\n")


def test_components_json(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "2", "--brute-force",
                             "--assume-hypotheses", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"formula": 6, "brute_force": 6, "agree": True}


def test_components_disagreement_exits_1(capsys, tmp_path, monkeypatch):
    import pushcalc.orbits as orbits

    monkeypatch.setattr(orbits, "components_bruteforce", lambda *args, **kwargs: 7)
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    argv = ("components", "--target", str(path), "-g", "1", "-k", "2", "--brute-force",
            "--assume-hypotheses")
    assert run_cli(capsys, *argv) == (1, "formula: 6, brute-force: 7, DISAGREE\n", "")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"formula": 6, "brute_force": 7, "agree": False}


def test_verify_pass_and_determinism(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "ring",
                             "--cases", "25", "--seed", "3")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["ok"] is True
    assert {p["name"] for p in rep["properties"]} >= {
        "group-axioms", "reduce-idempotent", "ring-associativity",
        "augmentation-homomorphism",
    }
    assert all(p["cases"] == 25 for p in rep["properties"])
    code2, out2, err2 = run_cli(capsys, "verify", "--suite", "ring",
                                "--cases", "25", "--seed", "3")
    assert out2 == out


@pytest.mark.parametrize("argv, golden", [
    (("push-word", "-g", "1", "-k", "1", "--slot", "1", "a1", "--matrix", "--json"),
     "push_word_matrix.json"),
    (("push-braid", "-g", "1", "[a1 | e ; (1 2)]", "--json"), "push_braid.json"),
    (("compose", "{m1}", "{m2}", "--json"), "compose.json"),
    (("embed", "--map", "{m1}", "--truncate", "1", "--json"), "embed_truncate.json"),
])
def test_json_answers_golden(capsys, tmp_path, argv, golden):
    # Byte for byte, as --json prints them; m1 and m2 push along a1 and A1.
    files = {"{m1}": str(push_map_file(tmp_path, "m1.json", 1, 1, 1, "a1")),
             "{m2}": str(push_map_file(tmp_path, "m2.json", 1, 1, 1, "A1"))}
    code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


def test_verify_all_seed0_golden():
    # The whole report, byte for byte: every property's verdict and case
    # count, and through radius_log the truncation windows the embed suite
    # builds.  Run as a process, so the flush in __main__ is covered too.
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", "verify", "--suite", "all", "--seed", "0"],
        capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "verify_all_seed0.json").read_bytes()


def test_verify_inject_fault_fails_with_shrunk_case(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "ring",
                             "--cases", "30", "--seed", "3", "--inject-fault")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    bad = [p for p in rep["properties"] if not p["ok"]]
    assert [p["name"] for p in bad] == ["negative-control"]
    # the counterexample is shrunk to a single cancelling pair
    assert "((" in bad[0]["counterexample"]
    letters = bad[0]["counterexample"].split("case ")[1]
    assert letters in ("((1, -1),)", "((-1, 1),)", "((2, -2),)", "((-2, 2),)")


def test_verify_cases_bounds(capsys):
    # acceptance criterion 9 runs 1,000 cases per property
    assert MAX_CASES >= 1000
    with pytest.raises(TooLarge, match="cases"):
        run_suite("ring", cases=MAX_CASES + 1)
    # a negative count used to report a vacuous pass
    with pytest.raises(ValueError, match="cases"):
        run_suite("ring", cases=True)
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from "):
        run_suite("nope")
    code, out, err = run_cli(capsys, "verify", "--suite", "ring", "--cases", "-3")
    assert (code, out) == (1, "")
    assert err.startswith("error:invalid: cases must be") and err.count("\n") == 1


def test_verify_orbit_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "orbits",
                             "--cases", "30", "--seed", "11")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["ok"] is True
    assert {p["name"] for p in rep["properties"]} == {
        "action-axiom", "charge-preserved", "formula-vs-bruteforce",
    }


_LONG = "9" * 5000


@pytest.mark.parametrize("argv, files, code", [
    pytest.param(("push-word", "-g", "1", "-k", "1", "--slot", "1", "a" + _LONG), {},
                 "parse", id="word-generator"),
    pytest.param(("push-word", "-g", "1", "-k", "1", "--slot", "1", "a1 " + "x" * 5000), {},
                 "parse", id="word-token"),
    pytest.param(("push-braid", "-g", "1", "[a1 ; " + "x" * 5000 + "]"), {},
                 "parse", id="perm-syntax"),
    pytest.param(("push-braid", "-g", "1", "[a1 ; (" + _LONG + ")]"), {},
                 "parse", id="cycle-entry-unparsed"),
    pytest.param(("push-braid", "-g", "1", "[a1 ; (" + "9" * 4000 + ")]"), {},
                 "parse", id="cycle-entry-range"),
    pytest.param(("push-braid", "-g", "1", "x" * 5000), {}, "parse", id="braid-brackets"),
    pytest.param(("components", "--target", "t.json", "-g", "1", "-k", _LONG), {},
                 "usage", id="argparse-int"),
    pytest.param(("verify", "--suite", "x" * 5000), {}, "usage", id="argparse-choice"),
    pytest.param(("compose", "x" * 5000 + ".json", "m.json"), {}, "io", id="file-name"),
    pytest.param(("compose", "m.json", "m.json"),
                 {"m.json": {**RECOVER_BASE, "labels": ["q" * 5000]}}, "parse", id="label"),
    pytest.param(("compose", "m.json", "m.json"), {"m.json": {**RECOVER_BASE, "g": _LONG}},
                 "parse", id="count"),
    pytest.param(("compose", "m.json", "m.json"),
                 {"m.json": {**RECOVER_BASE, "spheres": {"p1": {"p1": [[_LONG, "a1"]]}}}},
                 "parse", id="coefficient"),
    pytest.param(("components", "--target", "t.json", "-g", "1", "-k", "1"),
                 {"t.json": {**TRIVIAL_TARGET, "charge": ["w" * 5000]}}, "parse",
                 id="class-id"),
])
def test_echoed_input_is_clipped(tmp_path, monkeypatch, capsys, argv, files, code):
    monkeypatch.chdir(tmp_path)
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    assert main(list(argv)) == (2 if code == "usage" else 1)
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error:{code}: ") and "..." in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("call", [
    lambda: parse_word("a1 " + "x" * 5000),
    lambda: parse_label("q" * 5000),
    lambda: parse_braid("x" * 5000),
    lambda: parse_braid("[a1 ; " + "x" * 5000 + "]"),
    lambda: parse_braid("[a1 ; (" + _LONG + ")]"),
    lambda: target_from_json({**TRIVIAL_TARGET, "charge": ["w" * 5000]}),
    lambda: check_count("cases", "x" * 5000),
], ids=["word", "label", "braid", "perm", "cycle", "target-id", "count"])
def test_library_errors_clip_echoed_input(call):
    with pytest.raises(ValueError) as info:
        call()
    assert "..." in str(info.value) and len(str(info.value).encode()) < 150


def test_clip_counts_utf8_bytes():
    assert clip("a1 A2") == "a1 A2" and clip("x" * 80) == "x" * 80
    assert clip("x" * 81) == "x" * 38 + "..." + "x" * 38
    for text in ("\u00e9" * 100, "\U0001f600" * 100, "\udcff" * 100):
        shown = clip(text)
        assert "..." in shown
        assert len(shown.encode("utf-8", "backslashreplace")) <= 80


# Inputs the goldens run, as (argv, files); each file holds JSON data.
_CONTRACT_BASES = [
    (["push-word", "-g", "1", "-k", "2", "--slot", "1", "a1 A1^2", "--closed-form",
      "--matrix"], {}),
    (["push-braid", "-g", "2", "[a1 | A2^3 ; (1 2)]", "--json"], {}),
    (["compose", "map.json", "map.json"], {"map.json": RECOVER_BASE}),
    (["recover", "--map", "map.json", "--json"], {"map.json": RECOVER_BASE}),
    (["embed", "--map", "map.json", "--truncate", "1"], {"map.json": RECOVER_BASE}),
    (["embed", "-g", "2", "-k", "1", "--slot", "1", "a1 a2", "--json"], {}),
    (["kernel", "-g", "1", "-k", "2", "--max-len", "2", "--max-braids", "50"], {}),
    (["components", "--target", "target.json", "-g", "1", "-k", "2", "--brute-force",
      "--assume-hypotheses"], {"target.json": CYCLE_TARGET}),
    (["verify", "--suite", "ring", "--cases", "3", "--seed", "1"], {}),
]

# Placeholders spliced into the JSON text: a deeply nested array, and a
# number too long for int() to parse.
_NEST, _LONG_NUMBER = "@nest@", "@long@"


def _hostile_arg(rng):
    digits = "9" * rng.choice((12, 2001, 5000))
    return rng.choice([
        digits, "-" + digits, f"a1^{digits}", f"A1^-{digits}", "a" + digits,
        "True", "False", "-1", "-1000000", "x" * 5000, "[" * 5000, "(" * 3000, "",
    ])


def _hostile_json(rng):
    digits = "9" * rng.choice((12, 2001, 5000))
    return rng.choice([
        int(digits[:2001]), -int(digits[:2001]), digits, f"a1^{digits}", f"p{digits}",
        True, False, -1, -1000000, None, "x" * 5000, {}, [], [[[]]], _NEST, _LONG_NUMBER,
    ])


def _json_slots(obj):
    """(container, key) for every value inside obj."""
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for key in list(keys):
        yield obj, key
        if isinstance(obj[key], (dict, list)):
            yield from _json_slots(obj[key])


def _contract_case(rng):
    """One golden input with one part removed or made hostile."""
    argv, files = rng.choice(_CONTRACT_BASES)
    argv = list(argv)
    files = json.loads(json.dumps(files))
    if files and rng.random() < 0.5:
        name = rng.choice(sorted(files))
        container, key = rng.choice(list(_json_slots(files[name])))
        if rng.random() < 0.25:
            del container[key]   # a missing field
        else:
            container[key] = _hostile_json(rng)
    else:
        i = rng.randrange(1, len(argv))
        if rng.random() < 0.25:
            del argv[i]
        else:
            argv[i] = _hostile_arg(rng)
    depth = rng.choice((50, 990, 5000))
    texts = {name: json.dumps(obj)
             .replace(json.dumps(_NEST), "[" * depth + "]" * depth)
             .replace(json.dumps(_LONG_NUMBER), "9" * 5000)
             for name, obj in files.items()}
    return argv, texts


_CONTRACT_CHILD = """
import contextlib, io, json, sys
from pushcalc.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:
            code = f"raised {type(exc).__name__}"
    results.append([code, out.getvalue()[:100], err.getvalue()])
json.dump(results, sys.stdout)
"""


def test_cli_contract_on_hostile_inputs(tmp_path):
    # Every run ends in an answer or in one short error line: exit 0 with
    # output and no stderr, or a nonzero exit, no output and exactly one
    # `error:<code>:` line of under 200 bytes.
    rng = random.Random(20261018)
    cases = []
    for i in range(500):
        argv, texts = _contract_case(rng)
        work = tmp_path / str(i)
        work.mkdir()
        for name, text in texts.items():
            (work / name).write_text(text)
        cases.append([str(work / a) if a in texts else a for a in argv])
    env = {k: v for k, v in os.environ.items() if k != "PUSHCALC_MAX_STATES"}
    proc = subprocess.run(
        [sys.executable, "-c", _CONTRACT_CHILD], input=json.dumps(cases),
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    answers = 0
    for argv, (code, out, err) in zip(cases, json.loads(proc.stdout)):
        where = [a[:40] for a in argv]
        if code == 0:
            assert out and err == "", where
            answers += 1
        else:
            assert isinstance(code, int) and out == "", (where, code, out)
            assert re.fullmatch(r"error:[a-z-]+: [^\n]*\n", err), (where, err[:300])
            assert len(err.encode()) < 200, (where, err[:300])
    # both outcomes occur: most hostile inputs are refused, a few still answer
    assert 10 <= answers <= 250


def readme_examples() -> list[tuple[list[str], str]]:
    """argv and the text below it, for each `$ pushcalc` example in README.md."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            argv = shlex.split(command)
            assert argv[0] == "pushcalc", command
            examples.append((argv[1:], output.rstrip("\n") + "\n"))
    return examples


def test_readme_examples_print_what_they_show(capsys):
    # Examples that read a file (the JSON inputs) are left out.
    examples = [(argv, shown) for argv, shown in readme_examples()
                if not any(arg.endswith(".json") for arg in argv)]
    assert len(examples) >= 8
    for argv, shown in examples:
        _, out, err = run_cli(capsys, *argv)
        # A line "..." elides the rest of the output: compare up to it.
        lines = shown.splitlines(keepends=True)
        elided = next((i for i, line in enumerate(lines) if line.strip() == "..."), None)
        if elided is None:
            assert out + err == shown, argv
        else:
            assert (out + err).startswith("".join(lines[:elided])), argv


def stderr_writers(source: str) -> set[str]:
    """Outermost functions of source that name sys.stderr."""
    writers = set()

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, ast.Attribute) and node.attr in ("stderr", "__stderr__"):
            writers.add(where)
        for child in ast.iter_child_nodes(node):
            inner = where
            if where == "<module>" and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return writers


def test_stderr_checker_sees_each_way_of_writing():
    source = (
        "import sys\n"
        "def _run():\n"
        "    print('error:x: y', file=sys.stderr)\n"
        "def die():\n"
        "    sys.stderr.write('error:x: y')\n"
        "class Log:\n"
        "    def write(self, line):\n"
        "        print(line, file=sys.__stderr__)\n"
        "def quiet():\n"
        "    sys.exit(1)\n"
    )
    assert stderr_writers(source) == {"_run", "die", "Log"}


def test_run_alone_writes_error_lines():
    source = (Path(__file__).resolve().parent.parent / "src" / "pushcalc" / "cli.py").read_text()
    assert stderr_writers(source) == {"_run"}
