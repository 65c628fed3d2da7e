"""Traced stand-in for `python -m pushcalc ARGS`, used by the cli-session trace.

Runs pushcalc.cli.main on the same argv with the tracer installed, keeps
stdout, stderr and the exit status unchanged, and writes the span
aggregate plus the import time to the file named by PERFBENCH_TRACE_OUT.
"""
from __future__ import annotations

import json
import os
import sys
import time

t0 = time.perf_counter()
import pushcalc.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = pushcalc.cli.main(sys.argv[1:])
    except SystemExit as exc:   # argparse exits this way on usage errors
        code = exc.code
    sys.stdout.flush()
    agg = tracer.aggregate()
    agg["import_s"] = import_s
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(agg, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
