"""One pass of rscol CLI commands in a fresh interpreter.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the source tree to import rscol from, whether to trace, and the
argument lists to pass to ``rscol.cli.run`` one after another.  The result
holds each command's time, exit code and output, the pass time, the peak
resident set size of this process, and the spans when tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


REFERENCE_SPACING_S = 0.2


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop, a probe of the host's current
    speed; the benchmark divides command times by it to cancel host drift."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def run_pass(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from rscol import cli

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    references = [reference_loop()]
    last_reference = pass_start = time.perf_counter()
    for index, argv in enumerate(plan["commands"]):
        if time.perf_counter() - last_reference >= REFERENCE_SPACING_S:
            references.append(reference_loop())
            last_reference = time.perf_counter()
            pass_start += references[-1]  # the probe is not part of the pass
        if tracer is not None:
            tracer.command = index
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.run(argv)
            except Exception:  # a crash is a failed command, not a failed pass
                code = -1
                out.write("CRASH\n" + traceback.format_exc())
        commands.append({"seconds": time.perf_counter() - start, "exit": code,
                         "stdout": out.getvalue()})
    wall = time.perf_counter() - pass_start
    references.append(reference_loop())
    return {
        "references": references,
        "wall_s": wall,
        "commands": commands,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }


def main() -> None:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    result = run_pass(plan)
    with open(result_path + ".part", "w") as fh:
        json.dump(result, fh)
    os.replace(result_path + ".part", result_path)


if __name__ == "__main__":
    main()
