"""Scenario sweeps, Monte Carlo aggregation, Pareto analysis, persistence.

A cell is one (scenario, mechanism) pair.  Cells aggregate per-trial
outcomes into integer counters (match-count histogram, pair-matrix counts,
proposal totals), so results are exactly mergeable: any sharding of the
trial range, run in any order or process pool, reproduces the serial
result bit for bit.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ResultFormatError
from .mechanisms import DEFAULT_PROPOSAL_CAP, MECHANISMS, get_skip_engine, get_uniform_sampler
from .metrics import MatrixAccumulator, PairMatrixSet, pair_matrices
from .model import Instance, scenario_constraints

RESULTS_SCHEMA = "drawlab.results/1"
_CHUNK = 1 << 16  # Uniform trials per batch
_SKIP_BATCH = 2048  # Skip trials per batch; bounds the kernel's per-step arrays

CSV_COLUMNS = (
    "scenario",
    "mechanism",
    "trials",
    "seed",
    "mean_unattractive",
    "stderr_unattractive",
    "I",
    "stderr_I",
    "feasible_proportion",
    "elapsed_ms",
)


@dataclass
class ScenarioResult:
    scenario: int
    mechanism: str
    trials: int
    seed: int
    mean_unattractive: float
    stderr_unattractive: float
    i_hat: float | None  # None when read back from the table format
    inequality: float
    stderr_i: float
    feasible_proportion: float | None
    histogram: dict | None  # unattractive count -> raw trial count; None as i_hat
    elapsed_ms: float
    m: int = 0
    n: int = 0
    matrix_counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def histogram_probs(self) -> dict:
        if self.histogram is None:
            raise ValueError(
                f"scenario {self.scenario} {self.mechanism} carries no histogram "
                "(the table format does not store one; use the structured format)"
            )
        return {k: v / self.trials for k, v in sorted(self.histogram.items())}


@dataclass(frozen=True)
class TradeoffPoint:
    x: float  # mean unattractive matches
    y: float  # inequality I
    scenario: int
    mechanism: str


@dataclass
class ParetoResult:
    frontier: list
    dominated: list  # (point, [dominating points])


# ---------------------------------------------------------------------------
# shard execution
# ---------------------------------------------------------------------------


def _shard(instance, constraints, mechanism, seed, lo, hi, max_proposals):
    """Integer counters of trials [lo, hi) of one cell, accumulated batch by batch."""
    if mechanism == "uniform":
        sampler = get_uniform_sampler(instance, constraints)
        batch = _CHUNK

        def draw(a, b):
            return sampler.run_trials(seed, a, b, max_proposals=max_proposals)

    else:
        engine = get_skip_engine(instance, constraints)
        batch = _SKIP_BATCH

        def draw(a, b):
            return engine.run_trials(seed, a, b), None

    acc = MatrixAccumulator(instance.m, instance.n)
    confs = [[t.confederation for t in instance.pot_teams(k)] for k in range(1, instance.m + 1)]
    same_conf = acc.pair_table(np.array(confs))
    hist = np.zeros(1, dtype=np.int64)
    proposals = 0
    for start in range(lo, hi, batch):
        pos, props = draw(start, min(start + batch, hi))
        if props is not None:
            proposals += int(props.sum())
        u = same_conf[acc.add_pos_batch(pos)].sum(axis=1)  # unattractive matches per trial
        top = int(u.max()) + 1
        if top > hist.size:
            hist = np.concatenate([hist, np.zeros(top - hist.size, dtype=np.int64)])
        hist += np.bincount(u, minlength=hist.size)
    return acc.counts, acc.trials, hist, proposals if mechanism == "uniform" else None


def _run_shard(args):
    """One shard's counters plus its own elapsed milliseconds."""
    instance, scenario, mechanism, seed, lo, hi, max_proposals = args
    t0 = time.perf_counter()
    parts = _shard(instance, scenario_constraints(scenario), mechanism, seed, lo, hi, max_proposals)
    return parts + ((time.perf_counter() - t0) * 1000.0,)


def _merge_shards(parts):
    counts = sum(p[0] for p in parts)
    trials = sum(p[1] for p in parts)
    top = max(p[2].size for p in parts)
    hist = np.zeros(top, dtype=np.int64)
    for p in parts:
        hist[: p[2].size] += p[2]
    proposals = None
    if parts[0][3] is not None:
        proposals = sum(p[3] for p in parts)
    elapsed_ms = sum(p[4] for p in parts)
    return counts, trials, hist, proposals, elapsed_ms


def _result_from_counts(instance, scenario, mechanism, trials, seed, merged):
    counts, _, hist, proposals, elapsed_ms = merged
    n, m = instance.n, instance.m
    probs = counts.astype(np.float64) / trials
    sq = float(np.square(probs).sum())
    i_hat = sq / n * 2.0 / (m * (m - 1))
    lo_bound = 1.0 / n
    ineq = (i_hat - lo_bound) / (1.0 - lo_bound)
    # delta method, covariances ignored (slightly conservative)
    grad_sq = np.square(2.0 * probs * (2.0 / (m * (m - 1)) / n))
    var_ihat = float((grad_sq * probs * (1.0 - probs)).sum()) / trials
    stderr_i = np.sqrt(var_ihat) / (1.0 - lo_bound)
    values = np.nonzero(hist)[0]
    histogram = {int(v): int(hist[v]) for v in values}
    mean_u = float((values * hist[values]).sum()) / trials
    var_u = float((values.astype(np.float64) ** 2 * hist[values]).sum()) / trials - mean_u**2
    stderr_u = np.sqrt(max(var_u, 0.0) / trials)
    feasible = None
    if proposals is not None:
        feasible = trials / proposals
    return ScenarioResult(
        scenario=scenario,
        mechanism=mechanism,
        trials=trials,
        seed=seed,
        mean_unattractive=mean_u,
        stderr_unattractive=float(stderr_u),
        i_hat=i_hat,
        inequality=ineq,
        stderr_i=float(stderr_i),
        feasible_proportion=feasible,
        histogram=histogram,
        elapsed_ms=elapsed_ms,
        m=m,
        n=n,
        matrix_counts=counts,
    )


def run_scenario(
    instance: Instance,
    scenario: int,
    mechanism: str,
    trials: int,
    seed: int,
    workers: int = 1,
    max_proposals: int = DEFAULT_PROPOSAL_CAP,
) -> ScenarioResult:
    """Aggregate ``trials`` deterministic trials of one cell."""
    cells = [(scenario, mechanism)]
    return _run_cells(instance, cells, trials, seed, workers, max_proposals)[0]


def _shard_ranges(trials: int, shards: int):
    """At most ``shards`` contiguous, non-empty trial ranges covering [0, trials)."""
    per = -(-trials // shards)
    return [(lo, min(lo + per, trials)) for lo in range(0, trials, per)]


def sweep(
    instance: Instance,
    scenarios,
    mechanisms,
    trials: int,
    seed: int,
    workers: int = 1,
    max_proposals: int = DEFAULT_PROPOSAL_CAP,
) -> list:
    """One ScenarioResult per (scenario, mechanism), canonically ordered.

    Trial streams are disjoint across cells, so the sweep equals running
    each cell on its own; workers only change wall time, never values.
    With at least as many cells as workers, each cell runs whole on one
    worker.
    """
    cells = [(s, mech) for s in sorted(scenarios) for mech in sorted(mechanisms)]
    return _run_cells(instance, cells, trials, seed, workers, max_proposals)


def _run_cells(instance, cells, trials, seed, workers, max_proposals) -> list:
    """One ScenarioResult per (scenario, mechanism) cell, in the given order.

    Each cell is split into ceil(workers / len(cells)) trial shards, so a
    cell is split only when there are fewer cells than workers: a pooled
    shard builds its own samplers and engines, each Skip engine's transition
    graph included.  All
    shards share one process pool of at most one worker per shard.
    """
    for _, mech in cells:
        if mech not in MECHANISMS:
            raise ValueError(f"unknown mechanism {mech!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    MatrixAccumulator(instance.m, instance.n)  # raises on too many groups or group compositions
    shards = _shard_ranges(trials, -(-workers // max(len(cells), 1)))
    tasks = [
        (instance, s, mech, seed, lo, hi, max_proposals) for s, mech in cells for lo, hi in shards
    ]
    pool_size = min(workers, len(tasks))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(_run_shard, tasks))
    else:
        parts = [_run_shard(t) for t in tasks]
    results = []
    for i, (s, mech) in enumerate(cells):
        # a cell's time is the sum of its own shards' times
        merged = _merge_shards(parts[i * len(shards) : (i + 1) * len(shards)])
        results.append(_result_from_counts(instance, s, mech, trials, seed, merged))
    return results


def result_matrices(result: ScenarioResult, instance: Instance) -> PairMatrixSet:
    """Empirical pair matrices of a result, with team-name headers."""
    if result.matrix_counts is None:
        raise ValueError("result carries no matrix counts")
    acc = MatrixAccumulator(result.m, result.n)
    acc.add_raw(result.matrix_counts, result.trials)
    names = tuple(
        tuple(t.name for t in instance.pot_teams(k)) for k in range(1, instance.m + 1)
    )
    return pair_matrices(acc, team_names=names)


def distortion_ratio(result_skip: ScenarioResult, result_uniform: ScenarioResult) -> float:
    """I_skip / I_uniform for one scenario."""
    if result_skip.scenario != result_uniform.scenario:
        raise ValueError("distortion ratio needs results for the same scenario")
    if result_uniform.inequality == 0:
        raise ZeroDivisionError("uniform inequality is zero")
    return result_skip.inequality / result_uniform.inequality


def tradeoff_points(results) -> list:
    return [
        TradeoffPoint(r.mean_unattractive, r.inequality, r.scenario, r.mechanism)
        for r in results
    ]


def pareto_frontier(points) -> ParetoResult:
    """Split points into the non-dominated frontier and the dominated rest.

    Both coordinates are minimised.  q dominates p when q <= p in both and
    q < p in at least one; exact ties stay on the frontier.
    """
    points = list(points)
    if not points:
        raise ValueError("no points")
    frontier = []
    dominated = []
    for p in points:
        doms = [
            q
            for q in points
            if (q.x <= p.x and q.y <= p.y) and (q.x < p.x or q.y < p.y)
        ]
        if doms:
            doms.sort(key=lambda q: (q.x, q.y, q.scenario, q.mechanism))
            dominated.append((p, doms))
        else:
            frontier.append(p)
    return ParetoResult(frontier=frontier, dominated=dominated)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def export_results(results, fmt: str = "table") -> str:
    """Render results as delimited text ("table") or JSON ("structured")."""
    results = sorted(results, key=lambda r: (r.scenario, r.mechanism))
    if fmt == "table":
        lines = [f"# {RESULTS_SCHEMA}", ",".join(CSV_COLUMNS)]
        for r in results:
            lines.append(
                ",".join(
                    [
                        str(r.scenario),
                        r.mechanism,
                        str(r.trials),
                        str(r.seed),
                        _fmt(r.mean_unattractive),
                        _fmt(r.stderr_unattractive),
                        _fmt(r.inequality),
                        _fmt(r.stderr_i),
                        _fmt(r.feasible_proportion),
                        _fmt(r.elapsed_ms),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "structured":
        payload = {"schema": RESULTS_SCHEMA, "results": []}
        for r in results:
            row = {
                "scenario": r.scenario,
                "mechanism": r.mechanism,
                "trials": r.trials,
                "seed": r.seed,
                "mean_unattractive": r.mean_unattractive,
                "stderr_unattractive": r.stderr_unattractive,
                "I_hat": r.i_hat,
                "I": r.inequality,
                "stderr_I": r.stderr_i,
                "feasible_proportion": r.feasible_proportion,
                "histogram": (
                    None
                    if r.histogram is None
                    else {str(k): v for k, v in sorted(r.histogram.items())}
                ),
                "m": r.m,
                "n": r.n,
                "elapsed_ms": r.elapsed_ms,
            }
            if r.matrix_counts is not None:
                row["matrix_counts"] = r.matrix_counts.tolist()
            payload["results"].append(row)
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r} (use 'table' or 'structured')")


def export_histograms(results) -> str:
    """Wide delimited table of histogram masses, one row per cell."""
    results = sorted(results, key=lambda r: (r.scenario, r.mechanism))
    cell_probs = [r.histogram_probs for r in results]
    values = sorted({v for probs in cell_probs for v in probs})
    lines = [f"# {RESULTS_SCHEMA} histograms"]
    lines.append(",".join(["scenario", "mechanism", "trials"] + [str(v) for v in values]))
    for r, probs in zip(results, cell_probs):
        lines.append(
            ",".join(
                [str(r.scenario), r.mechanism, str(r.trials)]
                + [_fmt(probs.get(v, 0.0)) for v in values]
            )
        )
    return "\n".join(lines) + "\n"


def parse_results(text: str):
    """Read back either export format into ScenarioResult rows."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultFormatError(f"malformed structured results: {exc}") from None
        if payload.get("schema") != RESULTS_SCHEMA:
            raise ResultFormatError(f"unknown schema {payload.get('schema')!r}")
        out = []
        for row in payload["results"]:
            counts = row.get("matrix_counts")
            hist = row["histogram"]
            out.append(
                ScenarioResult(
                    scenario=row["scenario"],
                    mechanism=row["mechanism"],
                    trials=row["trials"],
                    seed=row["seed"],
                    mean_unattractive=row["mean_unattractive"],
                    stderr_unattractive=row["stderr_unattractive"],
                    i_hat=row["I_hat"],
                    inequality=row["I"],
                    stderr_i=row["stderr_I"],
                    feasible_proportion=row["feasible_proportion"],
                    histogram=None if hist is None else {int(k): v for k, v in hist.items()},
                    elapsed_ms=row["elapsed_ms"],
                    m=row.get("m", 0),
                    n=row.get("n", 0),
                    matrix_counts=np.array(counts, dtype=np.int64) if counts else None,
                )
            )
        return out
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(f"# {RESULTS_SCHEMA}"):
        raise ResultFormatError("missing drawlab results schema header")
    header = lines[1].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ResultFormatError(f"unexpected columns: {header}")
    out = []
    for ln in lines[2:]:
        parts = ln.split(",")
        row = dict(zip(CSV_COLUMNS, parts))
        out.append(
            ScenarioResult(
                scenario=int(row["scenario"]),
                mechanism=row["mechanism"],
                trials=int(row["trials"]),
                seed=int(row["seed"]),
                mean_unattractive=float(row["mean_unattractive"]),
                stderr_unattractive=float(row["stderr_unattractive"]),
                i_hat=None,  # not in the table format
                inequality=float(row["I"]),
                stderr_i=float(row["stderr_I"]),
                feasible_proportion=(
                    float(row["feasible_proportion"]) if row["feasible_proportion"] else None
                ),
                histogram=None,
                elapsed_ms=float(row["elapsed_ms"]),
            )
        )
    return out


def strip_metadata(document: str) -> str:
    """Drop elapsed-time metadata so deterministic outputs compare equal."""
    stripped = document.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(document)
        for row in payload.get("results", []):
            row.pop("elapsed_ms", None)
        return json.dumps(payload, indent=2) + "\n"
    lines = document.splitlines()
    if len(lines) >= 2 and lines[1].split(",") == list(CSV_COLUMNS):
        keep = [lines[0], ",".join(CSV_COLUMNS[:-1])]
        for ln in lines[2:]:
            if ln.strip():
                keep.append(",".join(ln.split(",")[:-1]))
        return "\n".join(keep) + "\n"
    return document
