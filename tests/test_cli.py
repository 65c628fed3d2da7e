"""Command line goldens: byte-exact output, exit codes, error prefixes."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from pushcalc.cli import main
from pushcalc.errors import TooLarge
from pushcalc.monoid import self_map_from_json
from pushcalc.pushing import ManifoldModel, PuncturedSignature, push_word
from pushcalc.verification import MAX_CASES, run_suite
from pushcalc.words import parse_word

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


def test_push_braid_golden(capsys):
    code, out, err = run_cli(capsys, "push-braid", "-g", "1", "[a1 | e ; (1 2)]")
    assert (code, err) == (0, "")
    assert out == "(a1, p2, a1·p1, t1 + p1)\n"


def test_push_braid_size_check(capsys):
    code, out, err = run_cli(capsys, "push-braid", "-g", "1", "-k", "3",
                             "[a1 | e ; (1 2)]")
    assert code == 1
    assert err.startswith("error:size-mismatch: ")


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
    ("verify", "--suite", "ring", "--cases", "100000000"),
    # a dense block grid of 3,001^2 cells
    ("embed", "-g", "3000", "-k", "1", "--slot", "1", "a1"),
    ("push-word", "-g", "3000", "-k", "1", "--slot", "1", "a1", "--matrix"),
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
    monkeypatch.setenv("PUSHCALC_MAX_STATES", "lots")
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "2", "--brute-force",
                             "--assume-hypotheses")
    assert code == 1
    assert err.startswith("error:io: ")


def test_components_bad_target(capsys, tmp_path):
    target = json.loads(json.dumps(TRIVIAL_TARGET))
    del target["charge"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(target))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "1", "--assume-hypotheses")
    assert code == 1
    assert err.startswith("error:parse: ")


def test_components_json(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(TRIVIAL_TARGET))
    code, out, err = run_cli(capsys, "components", "--target", str(path),
                             "-g", "1", "-k", "2", "--brute-force",
                             "--assume-hypotheses", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"formula": 6, "brute_force": 6, "agree": True}


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


def test_usage_errors_are_single_line():
    for argv in ([], ["no-such-command"], ["push-word", "-g", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "pushcalc.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:usage: ")
        assert proc.stderr.count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pushcalc", "push-word", "-g", "1", "-k", "1",
         "--slot", "1", "a1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(a1, a1·p1, t1 + p1)\n"
