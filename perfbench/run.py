"""Benchmark for rscol: seeded workloads driven through the real CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tree-150k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run sets the workload up several times from the seed (``setup_s`` is the
median), then runs passes over the workload's commands for about
``--seconds``: each pass is one new worker process that calls
``rscol.cli.run`` for every command in turn, a closed loop with one client,
and before each pass fresh interpreters are timed up to their first RESULT
line.  Every command is checked against the answer its input was built with.
Gated times are in ref units, multiples of a reference loop timed next to
them (see ``end_to_end``).  With ``--trace 1`` every other pass is traced and
the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report.  Without ``src/rscol`` next to it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from worker import reference_loop
from workloads import WORKLOADS, Command, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
# Set up SETUPS times before the passes, and again before each pass while the
# set-ups of that pass take under EXTRA_SETUP_S (at most MAX_SETUPS in all);
# setup_s is the median, so a set-up of milliseconds is sampled across the
# whole run like the passes are.
SETUPS, EXTRA_SETUP_S, MAX_SETUPS = 3, 0.1, 100
# Fresh interpreters timed before each pass, and the least number per run;
# startup_s is their median.  One launch varies by +-20%, so a run takes many.
STARTUPS_PER_PASS, STARTUPS = 3, 10
WORKER_TIMEOUT_S = 120
STARTUP_ARGV = ["path-feasible", "-n", "6", "-i", "0", "-j", "0"]  # a 6-path with 0..0: NO
STARTUP_CODE = "import sys; sys.path.insert(0, 'src'); from rscol.cli import main; main()"
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class Run:
    """Outcome of one run of one workload: timings, failures and spans."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.setup_times: list[float] = []
        self.startup_times: list[tuple[float, float]] = []  # (seconds, reference seconds)
        self.passes: list[dict] = []  # untraced passes: wall, per-command seconds and groups
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")


def result_error(command: Command, outcome: dict, out_dir: str) -> str | None:
    """Why a finished command's result is wrong, or None when it is right."""
    first = outcome["stdout"].split("\n", 1)[0]
    if outcome["exit"] != command.exit_code or first != f"RESULT: {command.token}":
        return (f"exit {outcome['exit']} and {first!r}, expected exit {command.exit_code} "
                f"and 'RESULT: {command.token}'")
    if command.check is None:
        return None
    try:
        return command.check(out_dir, outcome["stdout"])
    except (OSError, ValueError, IndexError) as exc:  # missing or malformed output
        return f"output check raised {exc!r}"


def set_up(run: Run, seed: int, scratch: str) -> list[Command]:
    """Build the inputs into a fresh directory and time it."""
    directory = os.path.join(scratch, f"inputs{len(run.setup_times)}")
    os.mkdir(directory)
    start = time.perf_counter()
    commands = run.workload.build(seed, directory)
    run.setup_times.append(time.perf_counter() - start)
    return commands


def extra_set_ups(run: Run, seed: int, scratch: str) -> None:
    """More timed set-ups whose files are thrown away, while they are cheap."""
    spent = 0.0
    while spent < EXTRA_SETUP_S and len(run.setup_times) < MAX_SETUPS:
        set_up(run, seed, scratch)
        spent += run.setup_times[-1]
        shutil.rmtree(os.path.join(scratch, f"inputs{len(run.setup_times) - 1}"))


def time_startup(run: Run, root: str) -> None:
    """Time one fresh interpreter from launch to its first RESULT line, with
    the reference loop run just before and after it."""
    reference = reference_loop()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", STARTUP_CODE, *STARTUP_ARGV],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    first = proc.stdout.readline().rstrip("\n") if ready else "no output within 60 s"
    elapsed = time.perf_counter() - start
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    reference = (reference + reference_loop()) / 2
    ok = proc.returncode == 1 and first == "RESULT: NO"
    run.record("startup path-feasible", None if ok else f"exit {proc.returncode}, {first!r}")
    if ok:
        run.startup_times.append((elapsed, reference))


def run_pass(run: Run, root: str, scratch: str, commands: list[Command], index: int,
             trace: bool) -> None:
    out_dir = os.path.join(scratch, f"pass{index}")
    os.mkdir(out_dir)
    plan = {
        "src": os.path.join(root, "src"),
        "trace": trace,
        "commands": [[arg.format(out=out_dir) for arg in c.argv] for c in commands],
    }
    plan_path = os.path.join(out_dir, "plan.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
            cwd=root, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
        )
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        returncode = "timeout"
    if returncode != 0 or not os.path.exists(result_path):
        for c in commands:
            run.record(" ".join(c.argv), f"worker ended with {returncode}")
        shutil.rmtree(out_dir)
        return
    with open(result_path) as fh:
        result = json.load(fh)
    for c, outcome in zip(commands, result["commands"]):
        run.record(" ".join(c.argv), result_error(c, outcome, out_dir))
    shutil.rmtree(out_dir)
    record = {
        "wall_s": result["wall_s"],
        "seconds": [o["seconds"] for o in result["commands"]],
        "groups": [c.group for c in commands],
        "colours": sum(_colours(o["stdout"]) for o in result["commands"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "reference_s": statistics.median(result["references"]),
        "spans": result["spans"],
    }
    (run.traced if trace else run.passes).append(record)


def _colours(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("colours: "):
            return int(line.split()[1])
    return 0


def measure(workload: Workload, root: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(workload)
    os.makedirs(os.path.join(root, ".perfbench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(root, ".perfbench_tmp"))
    try:
        for _ in range(SETUPS):
            commands = set_up(run, seed, scratch)  # the last set-up's files are used
        start = time.perf_counter()
        longest = 0.0
        index = 0
        # The host's speed drifts over seconds, so startups and passes are
        # interleaved and many short samples spread over the whole run.
        while True:
            began = time.perf_counter()
            if statistics.median(run.setup_times) < EXTRA_SETUP_S:
                extra_set_ups(run, seed, scratch)
            for _ in range(STARTUPS_PER_PASS):
                time_startup(run, root)
            run_pass(run, root, scratch, commands, index, trace and index % 2 == 1)
            longest = max(longest, time.perf_counter() - began)
            index += 1
            elapsed = time.perf_counter() - start
            if trace and not (run.passes and run.traced) and elapsed < 2 * seconds:
                continue
            if elapsed + longest > seconds:
                break
        for _ in range(STARTUPS - len(run.startup_times)):
            time_startup(run, root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # another run still uses it
            pass
    return run


# -- metrics ---------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest listed percentile with at least ten
    samples beyond it, by nearest rank; None when there are too few samples."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _group_seconds(p: dict, group: str) -> float:
    return sum(s for s, g in zip(p["seconds"], p["groups"]) if g == group)


def end_to_end(run: Run) -> dict[str, float]:
    """The gated metrics.  Times are in units of the median reference loop of
    their pass (see worker.reference_loop): the host's speed drifts by up to a
    third over tens of seconds, and the ratio cancels most of that drift."""
    passes = run.passes
    return {
        "setup_s": statistics.median(run.setup_times),
        "startup_ref": statistics.median(t / ref for t, ref in run.startup_times),
        "wall_ref": statistics.median(p["wall_s"] / p["reference_s"] for p in passes),
        "cmd_p50_ref": statistics.median(
            s / p["reference_s"] for p in passes for s in p["seconds"]),
        "group_a_ref": statistics.median(_group_seconds(p, "a") / p["reference_s"] for p in passes),
        "group_b_ref": statistics.median(_group_seconds(p, "b") / p["reference_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def seconds_report(run: Run) -> list[str]:
    """The same quantities in seconds as measured, with the workload's group names."""
    passes, w = run.passes, run.workload
    seconds = [s for p in passes for s in p["seconds"]]
    lines = [
        f"reference_s {statistics.median(p['reference_s'] for p in passes):.6g} s "
        "(one ref unit: median reference loop)",
        f"startup_s {statistics.median(t for t, _ in run.startup_times):.6g} s "
        f"(median of {len(run.startup_times)} launches)",
        f"wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s "
        f"(median of {len(passes)} passes)",
        f"cmd_p50_s {statistics.median(seconds):.6g} s (median of {len(seconds)} commands)",
    ]
    t = tail(seconds)
    if t is None:
        lines.append(f"cmd_tail_s not reported: {len(seconds)} commands leave no percentile "
                     "with ten samples beyond it")
    else:
        lines.append(f"cmd_tail_s {t[1]:.6g} s (p{t[0]:g} of {len(seconds)} commands)")
    for group, (name, what) in (("a", w.group_a), ("b", w.group_b)):
        value = statistics.median(_group_seconds(p, group) for p in passes)
        lines.append(f"{name} {value:.6g} s (group_{group}: {what})")
    colours = [p["colours"] for p in passes]
    if any(colours):
        lines.append(f"hess_colours {statistics.median(colours):g} colour groups per pass")
    return lines


def per_layer(run: Run) -> dict[str, float]:
    m = tracing.layer_metrics([p["spans"] for p in run.traced])
    m["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in run.traced)
                             - statistics.median(p["wall_s"] for p in run.passes))
    return m


def report(run: Run, trace: bool, units: dict[str, str]) -> dict[str, float]:
    """Print the readable report and return the contract metrics."""
    w = run.workload
    print(f"== {w.name}: {w.why}")
    print(f"   closed loop, 1 client, 1 worker process per pass; {len(run.passes)} untraced "
          f"and {len(run.traced)} traced passes")
    ok = run.passes and run.startup_times and (run.traced or not trace)
    if not ok:
        return {}
    metrics = per_layer(run) if trace else end_to_end(run)
    for name, value in metrics.items():
        print(f"   {name:32} {value:14.6g} {units.get(name, '')}")
    if not trace:
        for line in seconds_report(run):
            print(f"   {line}")
    else:
        for g, (name, _) in (("a", w.group_a), ("b", w.group_b)):
            ids = {i for i, cg in enumerate(run.traced[0]["groups"]) if cg == g}
            shares = tracing.layer_metrics([tracing.select(p["spans"], ids) for p in run.traced])
            total = statistics.mean(sum(p["seconds"][i] for i in ids) for p in run.traced)
            top = sorted(((v, k) for k, v in shares.items()
                          if k.endswith("_s") and not k.endswith("per_s")), reverse=True)
            print(f"   {name} (traced, {total:.4g} s per pass): "
                  + ", ".join(f"{k} {v / total:.0%}" for v, k in top[:4]))
    print(f"   fail_ratio {len(run.failures)}/{run.attempted}")
    for failure in run.failures[:10]:
        print(f"   FAILED {failure}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rscol", "cli.py")):
        print("perfbench: run from the root of an rscol checkout (src/rscol is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    attempted = failed = 0
    for name in names:
        run = measure(WORKLOADS[name], root, args.seed, args.seconds, bool(args.trace))
        metrics = report(run, bool(args.trace), units)
        attempted += run.attempted
        failed += len(run.failures)
        if set(metrics) != set(units):
            print(f"perfbench: {name} produced no complete set of metrics", file=sys.stderr)
            return 1
        outcomes[name] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": outcomes[names[0]] if len(names) == 1 else outcomes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
