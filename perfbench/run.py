"""pushcalc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py for why
each was chosen): braid-stream, orbit-count, verify-all, cli-session.
Each runs as a closed loop by one client, in its own fresh interpreter
(worker.py), with PYTHONHASHSEED derived from the seed; no threads, and
at most one child process at a time.

--trace 0 prints the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_tail_ms, setup_s (median over several fresh interpreters),
peak_rss_mb and success_ratio.  Their times are wall times divided by the
host's slowness at that moment (calibrate.py), i.e. wall times on the host
in its fast state; the raw wall times are in the detail line.  --trace 1
runs a fixed list of ops, first untraced and then traced, and prints the
per-layer metrics of tracer.PER_LAYER (raw wall times) with the tracing
overhead.  The line before the result holds the details: environment
(Python, kernel backend, CPU, nproc, git commit, PYTHONHASHSEED), samples,
the tail's percentile and sample counts, and the first failures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from tracer import PER_LAYER, layer_values  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_PROBES = 6          # fresh interpreters timed for setup_s, besides the worker
INTERPRETER_PROBES = 5    # bare `python -c pass` starts for cli.interpreter_s
DEADLINE_S = 170          # the whole run ends well inside 180 s


class BenchError(Exception):
    pass


def child_env(hash_seed: int) -> dict[str, str]:
    """The caller's environment with a fixed set of PYTHON* variables.

    Dropping the others (PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED, ...)
    keeps start-up and output costs the same whatever shell runs this;
    the warm-up start writes the bytecode cache that timed starts read.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def spawn(cmd: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict | None]:
    """Run a child to completion; return its spawn time and its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return t_spawn, json.loads(lines[-1]) if lines else None


def worker(args, mode: str, env, deadline) -> tuple[float, dict]:
    """Run worker.py; return its set-up time, scaled like the op latencies."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    meter = calibrate.Meter()
    meter.start()
    t_spawn, out = spawn(cmd, env, deadline)
    return (out["ready"] - t_spawn) / meter.slowness(), out


def environment(hash_seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "git_commit": git_commit(), "pythonhashseed": hash_seed}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"   # a checkout without git metadata


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, env, deadline, detail) -> tuple[dict, int, int]:
    # Half the set-up probes run before the measured loop and half after
    # it, so a drift in host speed moves both halves alike.
    setups = [worker(args, "setup", env, deadline)[0] for _ in range(SETUP_PROBES // 2)]
    setup_main, out = worker(args, "measure", env, deadline)
    setups.append(setup_main)
    setups += [worker(args, "setup", env, deadline)[0]
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    lat = sorted(out["latencies"])
    n, failed = len(lat), out["bad"].count(True)
    # The highest percentile with at least ten samples beyond it (the
    # maximum, with none beyond, on a run too short to have one).
    beyond = 10 if n > 10 else 0
    tail = lat[n - 1 - beyond]
    detail.update({
        "kernel_backend": out["kernel_backend"],
        "ops": n, "failed": failed, "errors": out["errors"], "wall_s": out["wall_s"],
        "timed_s": sum(lat),
        "raw": {"timed_s": sum(out["raw"]),
                "latency_p50_ms": 1000.0 * statistics.median(out["raw"]),
                "slowness": sum(out["raw"]) / sum(lat)},
        "latency_tail": {"percentile": 100.0 * (n - beyond) / n,
                         "samples_beyond": beyond, "samples": n},
        "setup_samples_s": setups,
    })
    metrics = {
        "ops_per_s": metric((n - failed) / sum(lat), "1/s"),
        "latency_p50_ms": metric(1000.0 * statistics.median(lat), "ms"),
        "latency_tail_ms": metric(1000.0 * tail, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        "success_ratio": metric((n - failed) / n, "ratio"),
    }
    return metrics, n, failed


def per_layer(args, env, deadline, detail) -> tuple[dict, int, int]:
    interp = []
    for _ in range(INTERPRETER_PROBES):
        t_spawn, _ = spawn([sys.executable, "-c", "pass"], env, deadline)
        interp.append(time.monotonic() - t_spawn)   # raw, as every per-layer time
    imports = [worker(args, "setup", env, deadline)[1]["import_s"]
               for _ in range(INTERPRETER_PROBES)]
    _, out = worker(args, "trace", env, deadline)
    values = layer_values(out["agg"])
    un, tr = out["untraced"], out["traced"]
    ops_un = un["ok"] / un["time_s"]
    ops_tr = tr["ok"] / tr["time_s"]
    values.update({
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "trace.overhead_ratio": ops_tr / ops_un,
        "trace.ops_per_s_traced": ops_tr,
        "trace.ops_per_s_untraced": ops_un,
    })
    detail.update({
        "kernel_backend": out["kernel_backend"], "trace_ops": out["attempted"] // 2,
        "errors": out["errors"], "span_count": out["agg"]["span_count"],
        "bindings_patched": out["agg"].get("bindings_patched"),
        "spans": out["agg"]["spans"], "counters": out["agg"]["counters"],
    })
    metrics = {name: metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    return metrics, out["attempted"], out["failed"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    calibrate.pin_to_one_cpu()
    if not (ROOT / "src" / "pushcalc" / "__init__.py").is_file():
        print(f"error: no pushcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    hash_seed = random.Random(f"hashseed:{args.workload}:{args.seed}").randrange(1 << 32)
    env = child_env(hash_seed)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(hash_seed)}
    try:
        # Compile the bytecode cache once, so every timed start sees it warm.
        spawn([sys.executable, "-c", "import pushcalc"], env, deadline)
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed = run(args, env, deadline, detail)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
