"""One round of one benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE TRIALS WORKERS ROUND

``run.py`` starts one such process per round, so every round begins with a
cold completability memo and cold module caches, as every user invocation
does.  The round imports drawlab from ``src/`` of the checkout, loads the
``ihf2025`` instance (set-up), runs the workload's timed part, then checks
every cell it produced.  Its last stdout line is one JSON record.  It exits
non-zero only when drawlab cannot be set up; a failed check is reported in
the record.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SKIP_SCENARIOS = (0, 1, 17, 31)
UNIFORM_SCENARIOS = (0, 17, 31)
SWEEP_CELLS = 64

# Uniform feasible shares the paper reports: scenario -> (share, half a unit
# of its last printed digit)
PAPER_SHARES = {1: (0.313, 0.0005), 31: (0.0562, 0.00005)}
# A Monte Carlo value may differ from its reference by at most Z standard errors.
Z = 5.0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _collector_off(loop):
    def timed() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            loop()
            return time.perf_counter() - t
        finally:
            if enabled:
                gc.enable()

    return timed


@_collector_off
def python_loop():
    """Dict and tuple work like the look-ahead memo's, in pure Python."""
    memo = {}
    acc = 0
    for i in range(800_000):
        key = (i & 1023, i % 7)
        hit = memo.get(key)
        if hit is None:
            memo[key] = i
        else:
            acc ^= hit + i


@_collector_off
def numpy_loop():
    """Word mixing and sorting on fresh arrays, like the vectorised Uniform path."""
    for _ in range(4):
        a = np.arange(2_000_000, dtype=np.uint64)
        a ^= a >> np.uint64(31)
        a *= np.uint64(0x9E3779B97F4A7C15)
        a ^= a >> np.uint64(29)
        np.argsort(a[:400_000])


# Reference loop of each workload and its time at reference speed (its
# typical time on an otherwise idle 2.1 GHz Xeon vCPU), which fixes the unit
# of every reported time.  The loops touch no drawlab code, so no change to
# drawlab can alter them.  On a shared host the speed of the same code
# drifts by tens of percent within a minute, and pure-Python code slows down
# more than numpy code, so each workload is scaled by a loop like its hot path.
REFERENCE = {
    "skip_cells": (python_loop, 0.16),
    "uniform_reject": (numpy_loop, 0.085),
    "sweep_cli": (python_loop, 0.16),
}


class Clock:
    """Wall and CPU time of a workload's timed part, cut into segments.

    A workload calls :meth:`lap` after each cell.  Given a reference
    ``(loop, nominal seconds)``, the clock runs the loop before the timed
    part and at every lap, outside the timed part, and weighs each segment
    by the mean of the loop times on either side of it, so a speed change
    of the host during a round is followed cell by cell.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.wall_s = self.cpu_s = 0.0
        self._per_ref = 0.0  # sum of segment time / loop time
        self._ref = reference[0]() if reference else None
        self._start()

    def _start(self):
        self._cpu0 = _cpu_s()
        self._t0 = time.perf_counter()

    def lap(self):
        dt = time.perf_counter() - self._t0
        self.cpu_s += _cpu_s() - self._cpu0
        self.wall_s += dt
        if self.reference:
            ref = self.reference[0]()
            self._per_ref += dt / ((self._ref + ref) / 2)
            self._ref = ref
        self._start()

    @property
    def speed(self) -> float:
        """Factor that brings the round's times to reference speed (1 when unscaled)."""
        if not self.reference:
            return 1.0
        loop_s = self.wall_s / self._per_ref if self._per_ref else self._ref
        return self.reference[1] / loop_s


def _exact_s0_inequality(oracle, metrics, instance):
    return float(metrics.inequality(metrics.hhi_index(oracle.exact_scenario0_matrices(instance)), instance.n))


# -- workloads: each calls clock.lap() after each cell and returns (results,
# -- exact scenario-0 I or None, problems, the structured export or None) ----


def _cells(dl, instance, scenarios, mechanism, seed, trials, clock):
    results = []
    for s in scenarios:
        results.append(dl.experiment.run_scenario(instance, s, mechanism, trials, seed))
        clock.lap()
    return results


def skip_cells(dl, instance, seed, trials, workers, clock):
    return _cells(dl, instance, SKIP_SCENARIOS, "skip", seed, trials, clock), None, [], None


def uniform_reject(dl, instance, seed, trials, workers, clock):
    results = _cells(dl, instance, UNIFORM_SCENARIOS, "uniform", seed, trials, clock)
    return results, _exact_s0_inequality(dl.oracle, dl.metrics, instance), [], None


def sweep_cli(dl, instance, seed, trials, workers, clock):
    cli, experiment = dl.cli, dl.experiment
    problems = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path = str(Path(tmp) / "sweep.json")
        argv = ["sweep", "--trials", str(trials), "--seed", str(seed), "--threads",
                str(workers), "--format", "structured", "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        clock.lap()
        if code != 0:
            return [], None, [f"drawlab sweep exited {code}"], None
        text = Path(path).read_text()
        results = experiment.parse_results(text)
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.main(["pareto", path])
    if code != 0:
        problems.append(f"drawlab pareto exited {code}")
    points = sum(ln.startswith("  scenario") for ln in report.getvalue().splitlines())
    if points != SWEEP_CELLS:
        problems.append(f"pareto report lists {points} cells, expected {SWEEP_CELLS}")
    return results, None, problems, text


WORKLOADS = {"skip_cells": skip_cells, "uniform_reject": uniform_reject, "sweep_cli": sweep_cli}
EXPECTED_CELLS = {"skip_cells": len(SKIP_SCENARIOS), "uniform_reject": len(UNIFORM_SCENARIOS),
                  "sweep_cli": SWEEP_CELLS}


# -- correctness --------------------------------------------------------------


def cell_digest(experiment, result) -> str:
    """Digest of one cell's structured export without elapsed-time metadata."""
    doc = experiment.strip_metadata(experiment.export_results([result], "structured"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def round_trip_problems(experiment, results, text) -> list:
    """The structured export must read back and export again to the same bytes."""
    again = experiment.export_results(results, "structured")
    if experiment.strip_metadata(again) != experiment.strip_metadata(text):
        return ["structured results do not round-trip through parse_results"]
    return []


def check_cell(r, trials, exact_s0) -> list:
    """Problems found in one cell (empty when it is correct)."""
    problems = []
    if r.trials != trials:
        problems.append(f"trials {r.trials} != {trials}")
    if sum(r.histogram.values()) != trials:
        problems.append("histogram does not sum to trials")
    c = r.matrix_counts
    if c is None or (c.sum(axis=1) != trials).any() or (c.sum(axis=2) != trials).any():
        problems.append("a matrix_counts row or column does not sum to trials")
    if r.mechanism == "uniform":
        if r.scenario == 0:
            if r.feasible_proportion != 1.0:
                problems.append(f"feasible share {r.feasible_proportion} != 1")
            if abs(r.inequality - exact_s0) > Z * r.stderr_i:
                problems.append(f"I {r.inequality} vs exact {exact_s0} beyond {Z} stderr")
        if r.scenario in PAPER_SHARES:
            share, half_unit = PAPER_SHARES[r.scenario]
            err = share * math.sqrt((1.0 - share) / trials)
            if abs(r.feasible_proportion - share) > Z * err + half_unit:
                problems.append(f"feasible share {r.feasible_proportion} vs paper {share}")
    return problems


def _golden(workload, seed, trials):
    table = json.loads((HERE / "golden.json").read_text()).get(workload, {})
    if table.get("trials") != trials:
        return None
    return table.get("seeds", {}).get(str(seed))


# -- one round ----------------------------------------------------------------


def main(argv) -> int:
    workload, seed, traced, trials, workers, index = argv
    seed, traced, trials, workers = int(seed), traced == "1", int(trials), int(workers)
    body = WORKLOADS[workload]

    sys.path.insert(0, str(ROOT / "src"))
    import drawlab as dl
    import drawlab.cli  # the console entry point is part of the program set up

    if Path(dl.__file__).resolve().parent != ROOT / "src" / "drawlab":
        print(f"drawlab imported from {dl.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(f"{workload}-seed{seed}-round{index}")
        tracer.install()
    instance = dl.model.get_instance("ihf2025")
    ready = time.monotonic()

    # cell execution time of sweep_cli, taken around experiment.sweep
    sweep_s = []
    sweep = dl.experiment.sweep

    def timed_sweep(*args, **kwargs):
        t = time.perf_counter()
        try:
            return sweep(*args, **kwargs)
        finally:
            sweep_s.append(time.perf_counter() - t)

    dl.experiment.sweep = timed_sweep
    # Only a round on one CPU is scaled: the loop measures the CPU it runs on,
    # and it did not follow the speed of a two-process pool.
    clock = Clock(REFERENCE[workload] if workers == 1 else None)
    try:
        results, exact_s0, problems, exported = body(dl, instance, seed, trials, workers, clock)
    except Exception as exc:  # a raising cell is a failed cell, not a crashed benchmark
        results, exact_s0, problems, exported = [], None, [f"{type(exc).__name__}: {exc}"], None
    clock.lap()  # the rest of the timed part: the last segment
    peak_rss_mb = _peak_rss_mb()
    dl.experiment.sweep = sweep
    layers = None
    if tracer is not None:
        tracer.remove()
        layers = tracer.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.npz")

    # checks run after the timed part and outside the tracer
    if exact_s0 is None:
        exact_s0 = _exact_s0_inequality(dl.oracle, dl.metrics, instance)
    if exported is not None:
        problems.extend(round_trip_problems(dl.experiment, results, exported))
    cells = EXPECTED_CELLS[workload]
    if len(results) != cells:
        problems.append(f"{len(results)} cells returned, expected {cells}")
    workload_failed = bool(problems)  # fails every cell of the round
    failed = set()
    digests = {}
    golden = _golden(workload, seed, trials)
    for r in results:
        cell = f"{r.scenario}/{r.mechanism}"
        try:
            digests[cell] = cell_digest(dl.experiment, r)
            found = check_cell(r, trials, exact_s0)
        except Exception as exc:  # a malformed cell fails its checks
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if golden is not None and golden.get(cell) != digests.get(cell):
            found.append("digest differs from the golden digest")
        if found:
            failed.add(cell)
            problems.extend(f"{cell}: {p}" for p in found)
    record = {
        "ready": ready,
        "wall_s": clock.wall_s,
        "cell_s": sweep_s[0] if sweep_s else clock.wall_s,
        "cpu_s": clock.cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "speed": clock.speed,
        "trials": trials * cells,
        "cells": cells,
        "failed": cells if workload_failed else len(failed),
        "problems": problems,
        "digests": digests,
        "golden_checked": golden is not None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "layers": layers,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
