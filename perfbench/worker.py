"""One workload in one fresh interpreter; started by run.py, prints one JSON line.

Modes:
  setup    import pushcalc and do the workload's program-side set-up, then
           report the monotonic time at which the first op could be issued;
  measure  closed loop, one op at a time, over a number of passes set by
           --seconds; every op is checked after its timed interval, and
           its latency is scaled to the host's fast state (calibrate.py);
  trace    a fixed list of ops (so call counts repeat for a seed), first
           untraced and then with the tracer installed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CAL_PERIOD_S = 0.010


def run_ops(wl, ops, meter, tracer=None, corrupt: bool = False) -> dict:
    """Run, time and check each op; the tracer records only inside `run`.

    Each op's wall latency is also divided by the host's slowness over
    it, from `meter` (calibrate.Meter), with calibration time inside it
    taken out.
    """
    raw: list[float] = []
    latencies: list[float] = []
    bad: list[bool] = []
    errors: list[str] = []
    for i, spec in enumerate(ops):
        args = wl.prepare(spec)
        if tracer is not None:
            tracer.op_id = i
        meter.start()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = wl.run(args)
            raised = None
        except Exception as exc:   # an op that raises is a failed op, not a crash
            result, raised = None, exc
        meter.disarm()
        dt = time.perf_counter() - t0 - meter.spent
        if tracer is not None:
            tracer.enabled = False
        raw.append(dt)
        latencies.append(dt / meter.slowness())
        if raised is not None:
            msg = f"raised {raised!r}"
        else:
            msg = None
            for n, (what, got, want) in enumerate(wl.check(spec, args, result)):
                if corrupt and i == 0 and n == 0:
                    want = object()   # negative control: a wrong expected answer
                if got != want:
                    msg = f"{what}: got {got!r:.200}, want {want!r:.200}"
                    break
        bad.append(msg is not None)
        if msg is not None and len(errors) < 5:
            errors.append(f"op {i} {spec!r:.200}: {msg}")
    return {"raw": raw, "latencies": latencies, "bad": bad, "errors": errors}


def measure(wl, rng, seconds: float, corrupt: bool) -> dict:
    """round(seconds / pass_seconds) passes, so the same seed gives the same ops."""
    out = {"raw": [], "latencies": [], "bad": [], "errors": []}
    start = time.perf_counter()
    gen = wl.passes(rng)
    meter = calibrate.Meter(None if wl.name == "cli-session" else CAL_PERIOD_S)
    for p in range(max(1, round(seconds / wl.pass_seconds))):
        res = run_ops(wl, next(gen), meter, corrupt=corrupt and p == 0)
        for key in ("raw", "latencies", "bad"):
            out[key] += res[key]
        out["errors"] += res["errors"][:5 - len(out["errors"])]
    out["wall_s"] = time.perf_counter() - start
    return out


def trace(wl, rng) -> dict:
    from tracer import Tracer, merge

    ops = []
    for batch in wl.passes(rng):
        ops += batch
        if len(ops) >= wl.trace_ops:
            break
    ops = ops[:wl.trace_ops]
    # No calibration inside an op here, so none runs inside a span.
    meter = calibrate.Meter()
    untraced = run_ops(wl, ops, meter)
    if wl.name == "cli-session":   # the spans are recorded in each child
        wl.traced = True
        traced = run_ops(wl, ops, meter)
        agg = merge(wl.trace_aggs)
        agg["counters"]["cli.output_bytes"] = wl.output_bytes
        agg["counters"]["cli.refusals"] = wl.refusals
    else:
        tracer = Tracer()
        tracer.install()
        traced = run_ops(wl, ops, meter, tracer=tracer)
        agg = tracer.aggregate()
        agg["bindings_patched"] = tracer.bindings_patched
    summary = {}
    for key, res in (("untraced", untraced), ("traced", traced)):
        summary[key] = {"ok": res["bad"].count(False), "time_s": sum(res["latencies"]),
                        "raw_s": sum(res["raw"])}
    return {**summary, "agg": agg, "attempted": 2 * len(ops),
            "failed": untraced["bad"].count(True) + traced["bad"].count(True),
            "errors": untraced["errors"] + traced["errors"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: give the first op a wrong expected answer")
    args = ap.parse_args()

    import workloads

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    t0 = time.perf_counter()
    import pushcalc
    import_s = time.perf_counter() - t0
    wl = workloads.make(args.workload, ROOT, work, dict(os.environ))
    wl.setup(pushcalc)
    ready = time.monotonic()
    result = {"ready": ready, "import_s": import_s}
    if args.mode != "setup":
        rng = random.Random(f"{args.workload}:{args.seed}")
        work.mkdir(parents=True, exist_ok=True)
        try:
            if args.mode == "measure":
                result.update(measure(wl, rng, args.seconds, args.corrupt))
            else:
                result.update(trace(wl, rng))
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:   # another worker still uses it
                pass
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" \
            else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        result["kernel_backend"] = pushcalc.KERNEL_BACKEND
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
