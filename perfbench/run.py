"""drawlab benchmark: run one workload for a fixed time and check every cell.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload skip_cells --seed 0 --seconds 30 --trace 0

Each round of the workload runs in a fresh interpreter (``worker.py``), so
the completability memo and module caches start cold in every round, as in
every user invocation.  Rounds repeat until ``--seconds`` have passed (at
least ``MIN_ROUNDS``); every metric is the median over rounds.

Times of rounds that run on one CPU are reported at reference speed.  On a
shared host the speed of the same code drifts by tens of percent within a
minute, so each such round also times a fixed loop like the workload's hot
path (``worker.REFERENCE``) before its timed part and after each cell,
outside the timed part, and every time of the round is multiplied by the
loop's nominal time over its measured time, the latter weighed by the
cells' times (``worker.Clock``).  Rounds on a process pool (untraced
``sweep_cli``) report raw times.  Raw medians and the speed factor are
printed beside the metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones, plus the tracing overhead.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the error rate over cells.  The exit code is 0
only when every cell of every round passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> trials per cell
TRIALS = {"skip_cells": 10000, "uniform_reject": 65536, "sweep_cli": 1000}
MIN_ROUNDS = 3
DEADLINE_S = 170.0  # the whole command, set-up and every round included
MAX_WINDOW_S = 120.0  # no round starts later, so the last one ends in time

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class RoundError(RuntimeError):
    """A round could not run, so the benchmark has no result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_round(workload, seed, traced, trials, workers, index, timeout) -> dict:
    """Run one round in a fresh process and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(trials), str(workers), str(index)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"round {index} did not finish within {timeout:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round {index} exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawned
    record["traced"] = traced
    return record


def end_to_end(records) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in records),
        "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in records),
        "trials_per_s": statistics.median(r["trials"] / (r["cell_s"] * r["speed"]) for r in records),
        "cpu_s": statistics.median(r["cpu_s"] * r["speed"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def per_layer(records, problems) -> dict:
    """Median per-layer metrics of the traced rounds, times at reference speed.

    A deterministic counter that differs between traced rounds at one seed
    is reported in ``problems``.
    """
    from tracer import DETERMINISTIC, LAYER_UNITS

    traced = [r for r in records if r["traced"]]
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            continue
        values = [r["layers"][name] for r in traced]
        if name in DETERMINISTIC:
            if len(set(values)) != 1:
                problems.append(f"counter {name} differs between traced rounds: {values}")
            out[name] = values[0]
        elif unit == "s":
            out[name] = statistics.median(v * r["speed"] for v, r in zip(values, traced))
        else:
            out[name] = statistics.median(values)
    untraced_wall = statistics.median(r["wall_s"] * r["speed"] for r in records if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] * r["speed"] for r in traced)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRIALS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "drawlab" / "__init__.py").is_file():
        print(f"error: no drawlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    traced = args.trace == 1
    trials = TRIALS[args.workload]
    # Spans recorded in pool workers never return, so a traced sweep runs
    # serially; its untraced comparison rounds then run serially too.
    workers = 1
    if args.workload == "sweep_cli" and not traced:
        workers = min(2, nproc())

    window = min(args.seconds, MAX_WINDOW_S)
    records = []
    try:
        while len(records) < MIN_ROUNDS * (2 if traced else 1) or (
            time.monotonic() - started < window
        ):
            # in traced runs, alternate which side of each pair runs first
            pair, second = divmod(len(records), 2)
            trace_this = traced and (pair % 2 == second)
            timeout = DEADLINE_S - (time.monotonic() - started)
            records.append(run_round(args.workload, args.seed, trace_this, trials,
                                     workers, len(records), timeout))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in records for p in r["problems"]]
    attempted = sum(r["cells"] for r in records)
    failed = sum(r["failed"] for r in records)
    # every round ran the same cells at the same seed, so digests must agree
    for r in records[1:]:
        differ = [c for c, d in r["digests"].items() if records[0]["digests"].get(c) != d]
        if differ:
            problems.append(f"cells {differ} differ between rounds at one seed")
            failed += len(differ)
    if traced:
        from tracer import LAYER_UNITS as units

        before = len(problems)
        values = per_layer(records, problems)
        if len(problems) > before:  # counters that do not repeat fail the traced rounds
            failed += sum(r["cells"] for r in records if r["traced"])
    else:
        values, units = end_to_end(records), END_TO_END_UNITS
    failed = min(failed, attempted)

    first = records[0]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(records),
        "trials_per_cell": trials,
        "cells": first["cells"],
        "workers": workers,
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": nproc(),
        "cpu": cpu_model(),
        "golden_checked": first["golden_checked"],
    }
    print("env " + json.dumps(env))
    if traced and args.workload == "sweep_cli":
        print("note: traced sweep_cli rounds run with 1 worker, because spans recorded "
              "in pool workers do not return; the untraced comparison rounds do too")
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    raw = {k: statistics.median(r[k] for r in records) for k in ("setup_s", "wall_s", "cpu_s")}
    if workers == 1:
        raw["speed factor"] = statistics.median(r["speed"] for r in records)
    print("  raw medians, not scaled: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    print(f"  {'error_rate':<34} {failed / attempted:>14.6g} ({failed}/{attempted} cells)")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
