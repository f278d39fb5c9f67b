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
from dataclasses import MISSING, dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from .errors import ResultFormatError
from .mechanisms import DEFAULT_PROPOSAL_CAP, MECHANISMS, get_skip_engine, get_uniform_sampler
from .metrics import MatrixAccumulator, PairMatrixSet, pair_matrices
from .model import Instance, scenario_constraints

RESULTS_SCHEMA = "drawlab.results/1"
_CHUNK = 1 << 16  # Uniform trials per batch
_SKIP_BATCH = 2048  # Skip trials per batch; bounds the kernel's per-step arrays

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
    # an assignment has at most n * same_conf.max() unattractive matches
    hist = np.zeros(instance.n * int(same_conf.max()) + 1, dtype=np.int64)
    proposals = 0
    for start in range(lo, hi, batch):
        pos, props = draw(start, min(start + batch, hi))
        if props is not None:
            proposals += int(props.sum())
        u = same_conf[acc.add_pos_batch(pos)].sum(axis=1)  # unattractive matches per trial
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
    hist = sum(p[2] for p in parts)
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


# Every exported ScenarioResult field, in structured key order: its attribute,
# its structured key and its table-column parser (None: structured format only).
_FIELDS = (
    ("scenario", "scenario", int),
    ("mechanism", "mechanism", str),
    ("trials", "trials", int),
    ("seed", "seed", int),
    ("mean_unattractive", "mean_unattractive", float),
    ("stderr_unattractive", "stderr_unattractive", float),
    ("i_hat", "I_hat", None),
    ("inequality", "I", float),
    ("stderr_i", "stderr_I", float),
    ("feasible_proportion", "feasible_proportion", float),
    ("histogram", "histogram", None),
    ("m", "m", None),
    ("n", "n", None),
    ("elapsed_ms", "elapsed_ms", float),
    ("matrix_counts", "matrix_counts", None),
)
_COLUMNS = [f for f in _FIELDS if f[2] is not None]
CSV_COLUMNS = tuple(key for _, key, _ in _COLUMNS)
_DEFAULTED = {f.name for f in fields(ScenarioResult) if f.default is not MISSING}
_NEEDED = {k for a, k, _ in _FIELDS if a not in _DEFAULTED}  # keys of every structured row
# the structured-only fields without a default read back from a table as None
_TABLE_LACKS = {a: None for a, _, parse in _FIELDS if parse is None and a not in _DEFAULTED}
_KINDS = {a: get_args(t) or (t,) for a, t in get_type_hints(ScenarioResult).items()}
_OPTIONAL = {a for a, kinds in _KINDS.items() if type(None) in kinds}


def _cell(value, parse) -> str:
    return "" if value is None else repr(float(value)) if parse is float else str(value)


def _json_row(r) -> dict:
    row = {}
    for a, k, _ in _FIELDS:
        v = getattr(r, a)
        if isinstance(v, dict):  # a histogram: JSON keys are strings
            v = {str(c): n for c, n in sorted(v.items())}
        if v is not None or a not in _DEFAULTED:  # a None that is the default stays out
            row[k] = v.tolist() if isinstance(v, np.ndarray) else v
    return row


def export_results(results, fmt: str = "table") -> str:
    """Render results as delimited text ("table") or JSON ("structured")."""
    results = sorted(results, key=lambda r: (r.scenario, r.mechanism))
    if fmt == "table":
        rows = [",".join([_cell(getattr(r, a), p) for a, _, p in _COLUMNS]) for r in results]
        return "\n".join([f"# {RESULTS_SCHEMA}", ",".join(CSV_COLUMNS)] + rows) + "\n"
    if fmt == "structured":
        payload = {"schema": RESULTS_SCHEMA, "results": [_json_row(r) for r in results]}
        # every row is built afresh, so nothing can hold a cycle
        return json.dumps(payload, indent=2, check_circular=False) + "\n"
    raise ValueError(f"unknown format {fmt!r} (use 'table' or 'structured')")


def export_histograms(results) -> str:
    """Wide delimited table of histogram masses, one row per cell."""
    results = sorted(results, key=lambda r: (r.scenario, r.mechanism))
    cell_probs = [r.histogram_probs for r in results]
    values = sorted({v for probs in cell_probs for v in probs})
    ids = _COLUMNS[:3]  # the cell and its trial count
    header = [k for _, k, _ in ids] + [str(v) for v in values]
    lines = [f"# {RESULTS_SCHEMA} histograms", ",".join(header)]
    for r, probs in zip(results, cell_probs):
        masses = [repr(float(probs.get(v, 0.0))) for v in values]
        lines.append(",".join([_cell(getattr(r, a), p) for a, _, p in ids] + masses))
    return "\n".join(lines) + "\n"


def parse_results(text: str):
    """Read back either export format into ScenarioResult rows (ResultFormatError if neither)."""
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultFormatError(f"malformed structured results: {exc}") from None
        if payload.get("schema") != RESULTS_SCHEMA:
            raise ResultFormatError(f"unknown schema {payload.get('schema')!r}")
        if not isinstance(payload.get("results"), list):
            raise ResultFormatError("structured results need a 'results' list")
        return [_structured_row(row) for row in payload["results"]]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = [f"# {RESULTS_SCHEMA}", ",".join(CSV_COLUMNS)]
    if len(lines) < 2 or not lines[0].startswith(head[0]) or lines[1] != head[1]:
        raise ResultFormatError(f"a results table starts with the lines {head}")
    return [_table_row(ln.split(",")) for ln in lines[2:]]


def _structured_row(row) -> ScenarioResult:
    if not (isinstance(row, dict) and row.keys() >= _NEEDED):
        raise ResultFormatError(f"each structured result is an object with keys {sorted(_NEEDED)}")
    return ScenarioResult(**{a: _json_value(a, k, row[k]) for a, k, _ in _FIELDS if k in row})


def _json_value(a, k, v):
    """A structured value as its field's annotation types it, or ResultFormatError.

    A number is never a bool, and a float field takes an int too.  A
    histogram has int counts and int keys, which JSON writes as strings; a
    list of ints reads back as an int array, and an empty one as None.
    """
    kinds = _KINDS[a]
    try:
        if isinstance(v, dict):
            value = {int(c): n for c, n in v.items()}
            ok = dict in kinds and all(type(n) is int for n in value.values())
        elif isinstance(v, list):
            value = np.array(v) if v else None
            ok = np.ndarray in kinds and (value is None or value.dtype.kind == "i")
        else:
            value = v
            ok = type(v) in kinds or float in kinds and type(v) is int
    except ValueError:  # a key that is not an int, or a ragged list
        ok = False
    if not ok:
        raise ResultFormatError(f"bad {k} value in a structured result: {v!r}")
    return value


def _table_row(cells) -> ScenarioResult:
    if len(cells) != len(_COLUMNS):
        raise ResultFormatError(f"a table row needs {len(_COLUMNS)} cells: {','.join(cells)}")
    values = dict(_TABLE_LACKS)  # and the table's other missing fields take their default
    for (a, k, parse), cell in zip(_COLUMNS, cells):
        try:
            values[a] = parse(cell) if cell or a not in _OPTIONAL else None
        except ValueError:
            raise ResultFormatError(f"bad {k} cell {cell!r} in row {','.join(cells)}") from None
    return ScenarioResult(**values)


def strip_metadata(document: str) -> str:
    """Drop elapsed-time metadata so deterministic outputs compare equal."""
    timer = "elapsed_ms"
    if document.lstrip().startswith("{"):
        payload = json.loads(document)
        for row in payload.get("results", []):
            row.pop(timer, None)
        return json.dumps(payload, indent=2) + "\n"
    lines = document.splitlines()
    if len(lines) < 2 or tuple(lines[1].split(",")) != CSV_COLUMNS:
        return document
    drop = CSV_COLUMNS.index(timer)
    rows = [ln.split(",") for ln in lines[1:] if ln.strip()]
    return "\n".join([lines[0]] + [",".join(r[:drop] + r[drop + 1 :]) for r in rows]) + "\n"
