"""The four workloads: seeded inputs, the timed op, and the oracle for each op.

A workload yields passes, lists of op specs built from the benchmark's
seeded random stream.  For every op the worker calls `prepare` (builds
the program's input objects, untimed), `run` (the timed op) and `check`
(untimed), which returns (what, got, want) triples; the op is correct
when got == want for every triple.  Tracing is paused outside `run`.
`pass_seconds` is the wall time one pass takes, with its checks, on the
2-CPU Xeon host the benchmark was sized on; the worker runs
round(--seconds / pass_seconds) passes.

Left out on purpose, for the safety of a small shared machine: the four
inputs known to crash the CLI (two `kernel` calls that raise MemoryError,
the word `a1^300000000`, and `embed --truncate 12` at g=2, which hangs).
They can exhaust memory or never return; they are defects the program's
own tests should pin, not requests a throughput benchmark may issue.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path


def reduced_letters(rng, g: int, n: int) -> tuple[int, ...]:
    """A freely reduced word of exactly n letters over g generators."""
    out: list[int] = []
    while len(out) < n:
        x = rng.choice((1, -1)) * rng.randint(1, g)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def word_text(letters: tuple[int, ...]) -> str:
    return " ".join(f"a{x}" if x > 0 else f"A{-x}" for x in letters) or "e"


class BraidStream:
    """push_braid then recover_braid on one seeded braid per op."""

    name = "braid-stream"
    pass_seconds = 0.4
    trace_ops = 100

    def setup(self, pc) -> None:
        self.pc = pc
        self.sigs = {(g, k): pc.PuncturedSignature(pc.ManifoldModel.default(g), k)
                     for g in range(1, 4) for k in range(1, 5)}

    def passes(self, rng):
        # Every (g, k) pair the same number of times per pass, so each run
        # has the same share of the large signatures that set the tail.
        pairs = [(g, k) for g in range(1, 4) for k in range(1, 5)] * 4
        while True:
            rng.shuffle(pairs)
            yield [self._spec(rng, g, k) for g, k in pairs]

    @staticmethod
    def _spec(rng, g: int, k: int) -> tuple:
        # Half the slot words have at most 3 letters, as in a kernel sweep;
        # the rest run up to 32, where the letterwise fold dominates.
        words = tuple(
            reduced_letters(rng, g, rng.randint(0, 3) if rng.random() < 0.5
                            else rng.randint(4, 32))
            for _ in range(k))
        perm = list(range(k))
        rng.shuffle(perm)
        return (g, k, words, tuple(perm), rng.randint(1, k))

    def prepare(self, spec):
        pc = self.pc
        g, k, words, perm, _ = spec
        return self.sigs[(g, k)], pc.BraidElement(tuple(pc.FreeWord(w) for w in words), perm)

    def run(self, args):
        # Module attribute lookups at call time, so the tracer's wrappers are seen.
        pc = self.pc
        sig, braid = args
        return pc.recover_braid(sig, pc.push_braid(sig, braid))

    def check(self, spec, args, result):
        pc = self.pc
        sig, braid = args
        slot = spec[4]
        w = braid.words[slot - 1]
        return [("recover round trip", result, braid),
                ("closed form vs fold", pc.push_word_closed(sig, w, slot),
                 pc.push_word(sig, w, slot))]


# classes, charge size, k, f classes, model loops g, target loop
# generators h, orientable; states = charge**k * f classes.  One op of
# each shape per pass, with f images of two letters, keeps the run's mix
# of graph sizes and per-edge costs the same on every seed; the action,
# reflection, f image letters and orientation character come from the seed.
# Non-orientable ops are checked by a union-find over act, which costs as
# much as the op, so their shapes stay small.
ORBIT_SHAPES = (
    (2, 2, 3, 1, 1, 1, True),      # 8
    (4, 4, 1, 3, 2, 2, True),      # 12
    (3, 3, 2, 2, 2, 1, False),     # 18
    (3, 2, 4, 2, 1, 0, True),      # 32
    (4, 3, 3, 2, 1, 2, False),     # 54
    (4, 4, 3, 2, 2, 1, True),      # 128
    (3, 3, 4, 3, 1, 2, False),     # 243
    (5, 2, 6, 4, 2, 1, True),      # 256
    (4, 4, 4, 2, 1, 2, False),     # 512
    (4, 4, 5, 1, 1, 1, True),      # 1024
    (5, 5, 4, 2, 2, 2, True),      # 1250
    (5, 4, 5, 3, 1, 1, True),      # 3072
    (5, 5, 6, 1, 0, 2, True),      # 15625
)
ORBIT_F_LETTERS = 2


def _block_perm(rng, n: int, m: int) -> tuple[int, ...]:
    """A permutation of 0..n-1 that maps the charge 0..m-1 to itself."""
    head, tail = list(range(m)), list(range(m, n))
    rng.shuffle(head)
    rng.shuffle(tail)
    return tuple(head + tail)


def _block_involution(rng, n: int, m: int) -> tuple[int, ...]:
    out = list(range(n))
    for lo, hi in ((0, m), (m, n)):
        idx = list(range(lo, hi))
        rng.shuffle(idx)
        for a, b in zip(idx[0::2], idx[1::2]):
            if rng.random() < 0.7:
                out[a], out[b] = b, a
    return tuple(out)


def target_spec(rng, n: int, m: int, nf: int, g: int, h: int, f_letters: int) -> tuple:
    action = tuple(_block_perm(rng, n, m) for _ in range(h))
    f_classes = tuple(
        tuple(reduced_letters(rng, h, f_letters) if h else () for _ in range(g))
        for _ in range(nf))
    return (h, n, m, action, _block_involution(rng, n, m), f_classes)


def target_json(tspec: tuple) -> dict:
    h, n, m, action, refl, f_classes = tspec
    ids = [f"c{i}" for i in range(n)]
    return {
        "pi1_gens": h,
        "classes": ids,
        "action": {f"a{j + 1}": [ids[i] for i in perm] for j, perm in enumerate(action)},
        "reflection": [ids[i] for i in refl],
        "charge": ids[:m],
        "f_classes": [[word_text(w) for w in ws] for ws in f_classes],
    }


class OrbitCount:
    """components_bruteforce plus components_formula on one seeded target per op."""

    name = "orbit-count"
    pass_seconds = 4.0
    trace_ops = len(ORBIT_SHAPES)   # one pass

    def setup(self, pc) -> None:
        self.pc = pc
        self.base_models = {g: dataclasses.replace(pc.ManifoldModel.default(g),
                                                   low_handle_dim=True)
                            for g in range(3)}

    def passes(self, rng):
        while True:
            specs = []
            for n, m, k, nf, g, h, orientable in ORBIT_SHAPES:
                character = (1,) * g
                if not orientable:
                    character = tuple(rng.choice((1, -1)) for _ in range(g))
                    if -1 not in character:
                        character = (-1,) + character[1:]
                specs.append((target_spec(rng, n, m, nf, g, h, ORBIT_F_LETTERS),
                              g, character, k))
            rng.shuffle(specs)
            yield specs

    def prepare(self, spec):
        pc = self.pc
        (h, n, m, action, refl, f_classes), g, character, k = spec
        target = pc.TargetModel(
            pi1_gens=h, classes=tuple(range(n)), action=action, reflection=refl,
            charge=tuple(range(m)),
            f_classes=tuple(tuple(pc.FreeWord(w) for w in ws) for ws in f_classes))
        return target, dataclasses.replace(self.base_models[g], character=character), k

    def run(self, args):
        pc = self.pc
        target, model, k = args
        brute = pc.components_bruteforce(target, model, k)
        try:
            formula = pc.components_formula(target, model, k)
        except pc.HypothesisViolation as exc:   # its guard for non-orientable models
            formula = exc
        return brute, formula

    def check(self, spec, args, result):
        target, model, k = args
        brute, formula = result
        if -1 not in model.character:
            return [("formula", brute, formula)]
        return [("formula refuses", type(formula).__name__, "HypothesisViolation"),
                ("union-find over act", brute, act_components(self.pc, target, model, k))]


def act_components(pc, target, model, k: int) -> int:
    """Oracle: union-find over the generator braids, applied with act."""
    BraidElement, FreeWord = pc.BraidElement, pc.FreeWord
    e = FreeWord()
    gens = [BraidElement(tuple(FreeWord((j,)) if i == s else e for i in range(k)),
                         tuple(range(k)))
            for s in range(k) for j in range(1, model.g + 1)]
    for s in range(k - 1):
        perm = list(range(k))
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
        gens.append(BraidElement((e,) * k, tuple(perm)))
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    def tuples(n):
        if n == 0:
            yield ()
            return
        for head in target.charge:
            for rest in tuples(n - 1):
                yield (head,) + rest

    for f in range(len(target.f_classes)):
        for tup in tuples(k):
            s = pc.MapState(f, tup)
            for gen in gens:
                t = pc.act(model, target, gen, s)
                rs, rt = find((s.f, s.g_classes)), find((t.f, t.g_classes))
                if rs != rt:
                    parent[rs] = rt
    return len({find(x) for x in list(parent)})


VERIFY_SUITES = ("ring", "monoid", "embed", "push", "orbits")
VERIFY_CASES = 3
# The embed suite's cost per seed is heavy-tailed (at 3 cases: median
# about 0.1 s, one seed in sixteen over 2 s), so a seeded sample of a few
# dozen embed seeds would move ops_per_s by a third between runs.  Embed
# therefore runs on a fixed corpus, seeds 0, 1, 2, ... taken sixteen per
# pass in a seeded order; the other four suites draw their seeds from the
# benchmark seed.
EMBED_SEEDS_PER_PASS = 16


class VerifyAll:
    """One run_suite call per op, cycling through the five suites."""

    name = "verify-all"
    pass_seconds = 5.5
    trace_ops = 5 * 8

    def setup(self, pc) -> None:
        self.pc = pc

    def passes(self, rng):
        for p in itertools.count():
            n = EMBED_SEEDS_PER_PASS
            order = list(range(p * n, (p + 1) * n))
            rng.shuffle(order)
            yield [(suite, s if suite == "embed" else rng.randrange(1 << 30))
                   for s in order for suite in VERIFY_SUITES]

    def prepare(self, spec):
        return spec

    def run(self, args):
        suite, seed = args
        return self.pc.run_suite(suite, seed, VERIFY_CASES)

    def check(self, spec, args, result):
        return [("suite", result.suite, spec[0]), ("suite ok", result.ok, True)]


def _map_json(rng, g: int, k: int) -> dict:
    """A random general self-map: arbitrary circle images, sparse spheres."""
    labels = [f"p{i}" for i in range(1, k + 1)] + [f"t{j}" for j in range(1, g + 1)]
    spheres = {}
    for src in labels:
        vec = {}
        for tgt in labels:
            if rng.random() < 0.5:
                vec[tgt] = [[rng.choice((-2, -1, 1, 2)),
                             word_text(reduced_letters(rng, g, rng.randint(0, 2)))]]
        spheres[src] = vec
    return {"g": g, "d": 3, "labels": labels,
            "circles": [word_text(reduced_letters(rng, g, rng.randint(0, 2)))
                        for _ in range(g)],
            "spheres": spheres}


def _perm_text(rng, k: int) -> str:
    if k < 2 or rng.random() < 0.4:
        return "id"
    a, b = sorted(rng.sample(range(1, k + 1), 2))
    return f"({a} {b})"


@dataclasses.dataclass
class CliRequest:
    kind: str
    argv: tuple[str, ...]
    files: dict[str, str]          # file name in the work dir -> JSON text
    env: dict[str, str]
    refusal: str | None = None     # expected error code, None for an answer


class CliSession:
    """One fresh `python -m pushcalc ...` process per op, one at a time."""

    name = "cli-session"
    pass_seconds = 1.65
    trace_ops = 15
    kinds = ("push-word", "push-word-closed", "push-braid", "compose", "recover",
             "embed-1", "embed-2", "kernel", "components", "components-brute",
             "verify-ring", "refuse-parse", "refuse-not-in-image",
             "refuse-hypothesis", "refuse-too-large")

    def __init__(self, root: Path, work: Path, env: dict[str, str]) -> None:
        self.root = root
        self.work = work
        self.env = env
        self.traced = False
        self.trace_aggs: list[dict] = []
        self.output_bytes = 0
        self.refusals = 0

    def setup(self, pc) -> None:
        import pushcalc.cli   # the in-process oracle

        self.pc = pc
        self.main = pushcalc.cli.main

    def passes(self, rng):
        # The kernel sizes differ most in cost; they take turns by pass.
        for kernel in itertools.cycle(((1, 1, 3), (2, 1, 2), (1, 2, 1), (1, 2, 2))):
            kinds = list(self.kinds)
            rng.shuffle(kinds)
            yield [self._request(rng, kind, kernel) for kind in kinds]

    def _request(self, rng, kind: str, kernel: tuple[int, int, int]) -> CliRequest:
        pc = self.pc
        g, k = rng.randint(1, 2), rng.randint(1, 2)
        slot = rng.randint(1, k)
        word = word_text(reduced_letters(rng, g, rng.randint(1, 6)))
        files: dict[str, str] = {}
        env: dict[str, str] = {}
        refusal = None
        json_flag = ["--json"] if rng.random() < 0.5 else []
        base = ["-g", str(g), "-k", str(k), "--slot", str(slot)]
        if kind == "push-word":
            argv = ["push-word", *base, word, *json_flag]
        elif kind == "push-word-closed":
            argv = ["push-word", *base, word, "--closed-form", "--matrix", *json_flag]
        elif kind == "push-braid":
            words = " | ".join(word_text(reduced_letters(rng, g, rng.randint(0, 5)))
                               for _ in range(k))
            argv = ["push-braid", "-g", str(g), f"[{words} ; {_perm_text(rng, k)}]",
                    *json_flag]
        elif kind == "compose":
            files = {"outer.json": json.dumps(_map_json(rng, g, k)),
                     "inner.json": json.dumps(_map_json(rng, g, k))}
            argv = ["compose", "outer.json", "inner.json", *json_flag]
        elif kind in ("recover", "refuse-not-in-image"):
            sig = pc.PuncturedSignature(pc.ManifoldModel.default(g), k)
            perm = list(range(k))
            rng.shuffle(perm)
            braid = pc.BraidElement(
                tuple(pc.FreeWord(reduced_letters(rng, g, rng.randint(0, 5)))
                      for _ in range(k)),
                tuple(perm))
            obj = pc.self_map_to_json(pc.push_braid(sig, braid))
            if kind == "refuse-not-in-image":
                (target, terms), = obj["spheres"]["p1"].items()
                terms.append([1, word_text(reduced_letters(rng, g, rng.randint(0, 2)))])
                refusal = "not-in-image"
            files = {"map.json": json.dumps(obj)}
            argv = ["recover", "--map", "map.json", *json_flag]
        elif kind in ("embed-1", "embed-2"):
            radius = kind[-1]
            if radius == "2":   # the window grows as 3**radius per generator
                g, k, slot = 1, 1, 1
                base = ["-g", "1", "-k", "1", "--slot", "1"]
            short = word_text(reduced_letters(rng, g, rng.randint(1, 3)))
            argv = ["embed", *base, short, "--truncate", radius]
        elif kind == "kernel":
            kg, kk, length = kernel
            argv = ["kernel", "-g", str(kg), "-k", str(kk), "--max-len", str(length),
                    *json_flag]
        elif kind in ("components", "components-brute", "refuse-hypothesis",
                      "refuse-too-large"):
            n = rng.randint(2, 3)
            kk = 4 if kind == "refuse-too-large" else rng.randint(1, 3)
            files = {"target.json": json.dumps(target_json(
                target_spec(rng, n, rng.randint(1, n), rng.randint(1, 2), g,
                            rng.randint(0, 2), rng.randint(0, 3))))}
            argv = ["components", "--target", "target.json", "-g", str(g), "-k", str(kk)]
            if kind != "refuse-hypothesis":
                argv.append("--assume-hypotheses")
            else:
                refusal = "hypothesis-violation"
            if kind in ("components-brute", "refuse-too-large"):
                argv.append("--brute-force")
            if kind == "refuse-too-large":
                env["PUSHCALC_MAX_STATES"] = "4"
                refusal = "too-large"
        elif kind == "verify-ring":
            argv = ["verify", "--suite", "ring", "--cases", "5",
                    "--seed", str(rng.randrange(1 << 20))]
        elif kind == "refuse-parse":
            bad = rng.choice(("a0", "b1", "a1^x", "a-2", "A"))
            argv = ["push-word", *base, f"{word} {bad}"]
            refusal = "parse"
        else:
            raise ValueError(f"unknown request kind {kind}")
        return CliRequest(kind, tuple(argv), files, env, refusal)

    def prepare(self, req: CliRequest):
        for name, text in req.files.items():
            (self.work / name).write_text(text)
        return req

    def run(self, req: CliRequest):
        env = {**self.env, **req.env}
        if self.traced:
            out_path = self.work / "trace.json"
            env["PERFBENCH_TRACE_OUT"] = str(out_path)
            cmd = [sys.executable, str(self.root / "perfbench" / "clichild.py")]
        else:
            cmd = [sys.executable, "-m", "pushcalc"]
        proc = subprocess.run(cmd + list(req.argv), cwd=self.work, env=env,
                              capture_output=True, timeout=60)
        if self.traced:
            self.trace_aggs.append(json.loads(out_path.read_text()))
            out_path.unlink()
            self.output_bytes += len(proc.stdout)
            self.refusals += req.refusal is not None and proc.returncode == 1
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, req: CliRequest, args, result):
        code, out, err = result
        buf_out, buf_err = io.StringIO(), io.StringIO()
        saved_env = {key: os.environ.get(key) for key in req.env}
        saved_cwd = os.getcwd()
        os.environ.update(req.env)
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
                want_code = self.main(list(req.argv))
        finally:
            os.chdir(saved_cwd)
            for key, val in saved_env.items():
                if val is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = val
        checks = [("stdout", out, buf_out.getvalue().encode()),
                  ("stderr", err, buf_err.getvalue().encode()),
                  ("exit code", code, want_code),
                  ("traceback", b"Traceback" in err, False)]
        if req.refusal is None:
            checks.append(("answer exit code", code, 0))
        else:
            lines = err.decode(errors="replace").splitlines()
            checks += [("refusal exit code", code, 1),
                       ("refusal lines", len(lines), 1),
                       ("refusal code", lines[0].split(": ", 1)[0] if lines else "",
                        f"error:{req.refusal}"),
                       ("refusal stdout", out, b"")]
        return checks


def make(name: str, root: Path, work: Path, env: dict[str, str]):
    if name == "cli-session":
        return CliSession(root, work, env)
    return {"braid-stream": BraidStream, "orbit-count": OrbitCount,
            "verify-all": VerifyAll}[name]()


NAMES = ("braid-stream", "orbit-count", "verify-all", "cli-session")
