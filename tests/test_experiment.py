import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import drawlab as dl
from drawlab import experiment
from drawlab.experiment import strip_metadata
from drawlab.mechanisms import DEFAULT_PROPOSAL_CAP


def test_run_scenario_fills_fields(ihf):
    r = dl.run_scenario(ihf, 0, "uniform", 2000, seed=1)
    assert r.scenario == 0 and r.mechanism == "uniform"
    assert r.trials == 2000 and r.seed == 1
    assert r.feasible_proportion == 1.0
    assert abs(sum(r.histogram_probs.values()) - 1.0) < 1e-12
    assert r.stderr_unattractive > 0 and r.stderr_i > 0
    assert 0 <= r.inequality <= 1
    assert r.matrix_counts.shape == (6, 8, 8)
    assert r.elapsed_ms >= 0


def test_run_scenario_skip_has_no_feasible_proportion(ihf):
    r = dl.run_scenario(ihf, 0, "skip", 500, seed=1)
    assert r.feasible_proportion is None


def test_run_scenario_rejects_bad_args(ihf):
    with pytest.raises(ValueError):
        dl.run_scenario(ihf, 0, "uniform", 0, seed=1)
    with pytest.raises(ValueError):
        dl.run_scenario(ihf, 0, "drop", 100, seed=1)


def test_sweep_rejects_bad_trials_before_any_shard_runs(ihf, monkeypatch):
    def no_shard(args):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(experiment, "_run_shard", no_shard)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            dl.sweep(ihf, [0], ["uniform"], trials, 1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            dl.sweep(ihf, [0, 1], ["uniform"], 100, 1, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            dl.run_scenario(ihf, 0, "skip", 100, 1, workers=workers)


def test_run_scenario_rejects_too_many_groups_or_compositions_before_any_shard_runs(monkeypatch):
    def no_shard(args):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(experiment, "_run_shard", no_shard)
    # 8**7 = 2**21 compositions of a group, one histogram bin each; and 130
    # groups, more than the samplers' int8 group ids can hold
    for m, n in ((7, 8), (2, 130)):
        inst = dl.build_instance([[(f"t{k}_{i}", "Europe") for i in range(n)] for k in range(m)])
        for mech in ("uniform", "skip"):
            with pytest.raises(ValueError, match="at most 128 groups and 2\\*\\*20 group"):
                dl.run_scenario(inst, 0, mech, 100, 1)
    dl.MatrixAccumulator(4, 32)  # exactly 2**20
    dl.MatrixAccumulator(2, 128)


def test_run_scenario_infeasible():
    inst = dl.build_instance(
        [[("a", "Africa"), ("b", "Africa")], [("c", "Africa"), ("d", "Africa")]]
    )
    with pytest.raises(dl.InfeasibleScenarioError):
        dl.run_scenario(inst, 16, "skip", 10, seed=0)
    with pytest.raises(dl.ProposalBudgetError):
        dl.run_scenario(inst, 16, "uniform", 10, seed=0, max_proposals=50)


def test_budget_error_reaches_the_caller_through_a_worker_pool():
    inst = dl.build_instance(
        [[("a", "Africa"), ("b", "Africa")], [("c", "Africa"), ("d", "Africa")]]
    )
    pending = r"50 proposals \(scenario 16, 10 trials pending: 0, 1, 2, 3, 4, 5, 6, 7, \.\.\.\)"
    for run in (
        lambda: dl.run_scenario(inst, 16, "uniform", 20, seed=0, workers=2, max_proposals=50),
        lambda: dl.sweep(inst, [16], ["uniform"], 20, 0, workers=2, max_proposals=50),
    ):
        with pytest.raises(dl.ProposalBudgetError, match=pending) as err:
            run()
        assert type(err.value) is dl.ProposalBudgetError


@pytest.mark.parametrize("mechanism", ["uniform", "skip"])
def test_sharded_equals_serial(ihf, mechanism):
    serial = dl.run_scenario(ihf, 17, mechanism, 3000, seed=9, workers=1)
    sharded = dl.run_scenario(ihf, 17, mechanism, 3000, seed=9, workers=3)
    assert serial.mean_unattractive == sharded.mean_unattractive
    assert serial.inequality == sharded.inequality
    assert serial.histogram == sharded.histogram
    assert (serial.matrix_counts == sharded.matrix_counts).all()
    assert serial.feasible_proportion == sharded.feasible_proportion


@pytest.mark.parametrize(
    "ncells,trials,workers,shards,pool",
    [
        (64, 1000, 2, [(0, 1000)], 2),
        (64, 1000, 8, [(0, 1000)], 8),
        (2, 1000, 4, [(0, 500), (500, 1000)], 4),
        (3, 999, 8, [(0, 333), (333, 666), (666, 999)], 8),
        (1, 1000, 3, [(0, 334), (334, 668), (668, 1000)], 3),
        (1, 2, 5, [(0, 1), (1, 2)], 2),  # fewer trials than shards: no empty shard
        (3, 1000, 1, [(0, 1000)], None),  # one worker: no pool
        (0, 1000, 4, [], None),  # no cells: no pool, no results
    ],
)
def test_task_plan_splits_cells_only_when_fewer_than_workers(
    ihf, monkeypatch, ncells, trials, workers, shards, pool
):
    ran, pools = [], []

    def fake_shard(args):
        _, s, mech, _, lo, hi, _ = args
        ran.append((s, mech, lo, hi))
        return np.zeros(1, dtype=np.int64), hi - lo, np.array([hi - lo]), None, 0.0

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiment, "_run_shard", fake_shard)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    cells = [(s, mech) for s in range(32) for mech in ("skip", "uniform")][:ncells]
    results = experiment._run_cells(ihf, cells, trials, 0, workers, DEFAULT_PROPOSAL_CAP)
    assert ran == [(s, mech, lo, hi) for s, mech in cells for lo, hi in shards]
    assert pools == ([] if pool is None else [pool])
    # every cell's shards merge to all of its trials
    assert [r.histogram for r in results] == [{0: trials}] * ncells


def test_sweep_cardinality_order_and_determinism(ihf):
    results = dl.sweep(ihf, [3, 0], ["uniform", "skip"], 400, seed=5)
    assert [(r.scenario, r.mechanism) for r in results] == [
        (0, "skip"),
        (0, "uniform"),
        (3, "skip"),
        (3, "uniform"),
    ]
    again = dl.sweep(ihf, [3, 0], ["uniform", "skip"], 400, seed=5)
    a = strip_metadata(dl.export_results(results, "structured"))
    b = strip_metadata(dl.export_results(again, "structured"))
    assert a == b


def test_sweep_cell_matches_run_scenario(ihf):
    cell = dl.run_scenario(ihf, 1, "uniform", 800, seed=4)
    swept = dl.sweep(ihf, [1], ["uniform"], 800, seed=4)[0]
    assert cell.mean_unattractive == swept.mean_unattractive
    assert cell.histogram == swept.histogram


def test_distortion_ratio(ihf):
    u = dl.run_scenario(ihf, 0, "uniform", 1500, seed=2)
    s = dl.run_scenario(ihf, 0, "skip", 1500, seed=2)
    r = dl.distortion_ratio(s, u)
    assert 0.8 < r < 1.25
    assert dl.distortion_ratio(u, u) == 1.0
    other = dl.run_scenario(ihf, 1, "uniform", 100, seed=2)
    with pytest.raises(ValueError):
        dl.distortion_ratio(s, other)


def test_published_cell_values_at_desk_scale(ihf):
    # full-scale benchmark values, checked at 1e5 trials
    skip31 = dl.run_scenario(ihf, 31, "skip", 10**5, seed=10)
    assert abs(skip31.inequality - 0.0495) < 0.0015
    assert skip31.mean_unattractive == 12.0
    uni30 = dl.run_scenario(ihf, 30, "uniform", 10**5, seed=10)
    assert abs(uni30.mean_unattractive - 12.677) < 0.02
    assert abs(uni30.feasible_proportion - 0.126) < 0.005


def test_adding_a_constraint_does_not_raise_mean_unattractive(ihf):
    # one-sided check at 3 sigma for a few subset pairs
    trials = 20000
    for base, extended in ((0, 2), (0, 8), (17, 19), (30, 31)):
        rb = dl.run_scenario(ihf, base, "uniform", trials, seed=6)
        re = dl.run_scenario(ihf, extended, "uniform", trials, seed=7)
        slack = 3 * math.hypot(rb.stderr_unattractive, re.stderr_unattractive)
        assert re.mean_unattractive <= rb.mean_unattractive + slack


# ---------------------------------------------------------------------------
# Pareto
# ---------------------------------------------------------------------------


def P(x, y, scenario=0, mechanism="uniform"):
    return dl.TradeoffPoint(x, y, scenario, mechanism)


def test_pareto_single_point():
    res = dl.pareto_frontier([P(1.0, 1.0)])
    assert len(res.frontier) == 1 and not res.dominated


def test_pareto_identical_points_both_on_frontier():
    res = dl.pareto_frontier([P(1.0, 2.0, 0), P(1.0, 2.0, 1)])
    assert len(res.frontier) == 2 and not res.dominated


def test_pareto_dominated_with_witness():
    a, b, c = P(1.0, 5.0, 0), P(2.0, 6.0, 1), P(3.0, 1.0, 2)
    res = dl.pareto_frontier([a, b, c])
    assert set(p.scenario for p in res.frontier) == {0, 2}
    (pt, doms), = res.dominated
    assert pt.scenario == 1 and [d.scenario for d in doms] == [0]


def test_pareto_weak_dominance_needs_strict_improvement():
    res = dl.pareto_frontier([P(1.0, 2.0, 0), P(1.0, 3.0, 1)])
    assert [p.scenario for p in res.frontier] == [0]
    (pt, doms), = res.dominated
    assert pt.scenario == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
        ),
        min_size=1,
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_pareto_properties(coords, rnd):
    points = [P(float(x), float(y), i) for i, (x, y) in enumerate(coords)]
    res = dl.pareto_frontier(points)
    assert len(res.frontier) + len(res.dominated) == len(points)
    # no frontier point dominates another frontier point
    for p in res.frontier:
        for q in res.frontier:
            if p is q:
                continue
            assert not (q.x <= p.x and q.y <= p.y and (q.x < p.x or q.y < p.y))
    # invariant under input permutation
    shuffled = points[:]
    rnd.shuffle(shuffled)
    res2 = dl.pareto_frontier(shuffled)
    assert {id_ for id_ in map(lambda p: p.scenario, res2.frontier)} == {
        p.scenario for p in res.frontier
    }


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_export_round_trip_table(ihf):
    results = dl.sweep(ihf, [0, 1], ["uniform", "skip"], 300, seed=3)
    results[0].scenario = np.int64(results[0].scenario)  # prints as 0, not 0.0
    doc = dl.export_results(results, "table")
    parsed = dl.parse_results(doc)
    assert dl.export_results(parsed, "table") == doc
    assert [r.feasible_proportion is None for r in parsed] == [True, False, True, False]
    for orig, back in zip(results, parsed):
        for name in ("scenario", "mechanism", "trials", "seed", "mean_unattractive",
                     "stderr_unattractive", "inequality", "stderr_i", "feasible_proportion",
                     "elapsed_ms"):
            assert getattr(back, name) == getattr(orig, name)
        assert (back.m, back.n, back.matrix_counts) == (0, 0, None)


def test_table_readback_marks_values_it_lacks(ihf):
    results = dl.sweep(ihf, [0], ["uniform"], 300, seed=3)
    back = dl.parse_results(dl.export_results(results, "table"))[0]
    assert back.i_hat is None and back.histogram is None
    with pytest.raises(ValueError, match="no histogram"):
        back.histogram_probs
    with pytest.raises(ValueError, match="no histogram"):
        dl.export_histograms([back])
    # a structured export of the readback keeps them missing
    again = dl.parse_results(dl.export_results([back], "structured"))[0]
    assert again.i_hat is None and again.histogram is None


def test_sweep_cells_carry_their_own_time(ihf):
    results = dl.sweep(ihf, [0, 31], ["uniform", "skip"], 2000, seed=8)
    elapsed = {(r.scenario, r.mechanism): r.elapsed_ms for r in results}
    assert all(ms > 0 for ms in elapsed.values())
    assert len(set(elapsed.values())) == len(elapsed)
    # Skip under all constraints costs far more per trial than Uniform without any
    assert elapsed[(31, "skip")] > 2 * elapsed[(0, "uniform")]


def test_export_round_trip_structured(ihf):
    results = dl.sweep(ihf, [0], ["skip", "uniform"], 300, seed=3)
    doc = dl.export_results(results, "structured")
    parsed = dl.parse_results(doc)
    assert strip_metadata(dl.export_results(parsed, "structured")) == strip_metadata(doc)
    for orig, back in zip(results, parsed):
        assert back.histogram == orig.histogram
        assert back.i_hat == orig.i_hat
        assert (back.matrix_counts == orig.matrix_counts).all()
        assert (back.m, back.n) == (orig.m, orig.n) == (4, 8)
    # a row without m and n reads them as 0
    row = json.loads(doc)["results"][0]
    del row["m"], row["n"]
    old = dl.parse_results(json.dumps({"schema": "drawlab.results/1", "results": [row]}))[0]
    assert (old.m, old.n) == (0, 0)


def test_export_table_has_expected_rows(ihf):
    results = dl.sweep(ihf, [0, 1], ["uniform", "skip"], 200, seed=3)
    doc = dl.export_results(results, "table")
    lines = [ln for ln in doc.splitlines() if ln.strip()]
    assert lines[0].startswith("# drawlab.results/1")
    assert lines[1].split(",")[0] == "scenario"
    assert len(lines) == 2 + 4


def test_export_unknown_format(ihf):
    results = dl.sweep(ihf, [0], ["uniform"], 100, seed=3)
    with pytest.raises(ValueError):
        dl.export_results(results, "yaml")


def test_parse_rejects_bad_documents():
    with pytest.raises(dl.ResultFormatError):
        dl.parse_results("scenario,mechanism\n0,uniform\n")
    with pytest.raises(dl.ResultFormatError):
        dl.parse_results('{"schema": "other/9", "results": []}')
    with pytest.raises(dl.ResultFormatError):
        dl.parse_results("{not json")
    head = "# drawlab.results/1\n" + ",".join(experiment.CSV_COLUMNS) + "\n"
    row = "0,uniform,10,0,14.5,0.1,0.02,0.001,1.0,2.5"
    for bad in (
        '{"schema": "drawlab.results/1", "results": [{"scenario": 0}]}',  # missing keys
        '{"schema": "drawlab.results/1"}',  # no results
        '{"schema": "drawlab.results/1", "results": [7]}',  # a row that is not an object
        "# drawlab.results/1\n",  # no column header
        head + "0,uniform,10\n",  # too few cells
        head + row + ",9\n",  # too many cells
        head + row.replace("14.5", "x") + "\n",  # a float cell that is not one
        head + row.replace("14.5", "") + "\n",  # an empty cell the record needs
    ):
        with pytest.raises(dl.ResultFormatError):
            dl.parse_results(bad)
    assert len(dl.parse_results(head + row + "\n")) == 1
    # structured values of the wrong type, each in an otherwise valid row
    good = {
        "scenario": 0, "mechanism": "skip", "trials": 10, "seed": 0,
        "mean_unattractive": 14, "stderr_unattractive": 0.1, "I_hat": None, "I": 0.02,
        "stderr_I": 0.001, "feasible_proportion": None, "histogram": {"14": 10},
        "elapsed_ms": 2.5, "matrix_counts": [[1, 2], [3, 4]],
    }
    assert dl.parse_results(_structured(good))[0].histogram == {14: 10}
    for key, value in (
        ("mean_unattractive", "x"),  # a string for a number
        ("I", True),  # a bool for a number
        ("trials", 1.5),  # a float for an int
        ("scenario", None),  # None where the record does not allow it
        ("mechanism", 3),
        ("m", "4"),
        ("histogram", {"a": 1}),  # a key that is not an integer
        ("histogram", {"14": 1.5}),  # a count that is not an integer
        ("histogram", [10]),
        ("matrix_counts", [[1, "2"]]),
        ("matrix_counts", [[1], [2, 3]]),  # ragged
    ):
        with pytest.raises(dl.ResultFormatError, match=key):
            dl.parse_results(_structured({**good, key: value}))


def _structured(row) -> str:
    return json.dumps({"schema": "drawlab.results/1", "results": [row]})


def test_strip_metadata_removes_only_elapsed(ihf):
    results = dl.sweep(ihf, [0], ["uniform"], 150, seed=3)
    table = dl.export_results(results, "table")
    stripped = strip_metadata(table)
    assert "elapsed_ms" not in stripped
    assert "mean_unattractive" in stripped
    structured = strip_metadata(dl.export_results(results, "structured"))
    assert "elapsed_ms" not in structured


def test_histogram_export_columns(ihf):
    results = [dl.run_scenario(ihf, 0, "uniform", 20000, seed=8)]
    doc = dl.export_histograms(results)
    lines = doc.splitlines()
    header = lines[1].split(",")
    values = [int(v) for v in header[3:]]
    assert values[0] >= 12  # minimum forced by the European surplus
    assert values == sorted(values)
    row = lines[2].split(",")
    probs = dict(zip(values, map(float, row[3:])))
    assert abs(sum(probs.values()) - 1.0) < 1e-9
    assert abs(probs[14] - 0.2756) < 0.02  # the modal bar


def test_result_matrices_row_sums(ihf):
    r = dl.run_scenario(ihf, 31, "uniform", 1000, seed=12)
    ms = dl.result_matrices(r, ihf)
    ms.check_doubly_stochastic(tol=1e-9)
    assert ms.team_names[0][0] == "Denmark"
