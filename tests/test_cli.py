import json
import os
import subprocess
import sys

import drawlab as dl
from drawlab import cli
from drawlab.cli import main
from drawlab.experiment import strip_metadata


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_results_table(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(
        "simulate", "--instance", "ihf2025", "--scenario", "0",
        "--mechanism", "uniform", "--trials", "2000", "--seed", "42",
        "--threads", "1", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    rows = dl.parse_results(text)
    assert len(rows) == 1
    assert rows[0].feasible_proportion == 1.0
    assert abs(rows[0].inequality - 0.0238) < 0.004
    assert "mean_unattr" in capsys.readouterr().out


def test_simulate_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = (
        "simulate", "--scenario", "3,5", "--mechanism", "both", "--trials", "500",
        "--seed", "7", "--threads", "1",
    )
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert strip_metadata(a.read_text()) == strip_metadata(b.read_text())


def test_simulate_thread_count_does_not_change_results(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = (
        "simulate", "--scenario", "1", "--mechanism", "both", "--trials", "600",
        "--seed", "3", "--format", "structured",
    )
    assert run_cli(*base, "--threads", "1", "--out", str(a)) == 0
    assert run_cli(*base, "--threads", "4", "--out", str(b)) == 0
    assert strip_metadata(a.read_text()) == strip_metadata(b.read_text())


def test_simulate_forced_minimum_under_all_constraints(tmp_path):
    out = tmp_path / "r31.csv"
    code = run_cli(
        "simulate", "--scenario", "31", "--mechanism", "skip", "--trials", "500",
        "--seed", "9", "--threads", "1", "--out", str(out),
    )
    assert code == 0
    row = dl.parse_results(out.read_text())[0]
    assert row.mean_unattractive == 12.0


def test_simulate_usage_errors():
    assert run_cli("simulate", "--trials", "0") == 2
    assert run_cli("simulate", "--scenario", "99") == 2
    assert run_cli("simulate", "--mechanism", "drop") == 2
    assert run_cli("simulate", "--threads", "0") == 2
    assert run_cli("probs", "--scenario", "0", "--mechanism", "skip", "--threads", "-3") == 2
    assert run_cli("nonsense") == 2


def test_default_threads_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._default_threads() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._default_threads() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._default_threads() == 1


def test_simulate_infeasible_exit_code(tmp_path):
    inst = dl.build_instance(
        [[("a", "Africa"), ("b", "Africa")], [("c", "Africa"), ("d", "Africa")]]
    )
    p = tmp_path / "toy.json"
    p.write_text(inst.to_json())
    code = run_cli(
        "simulate", "--instance", str(p), "--scenario", "16",
        "--mechanism", "skip", "--trials", "50", "--threads", "1",
    )
    assert code == 3


def test_simulate_unknown_instance():
    assert run_cli("simulate", "--instance", "atlantis2030") == 2


def test_sweep_subcommand_defaults(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--scenario", "0-1", "--mechanism", "uniform",
        "--trials", "300", "--seed", "1", "--threads", "1", "--out", str(out),
    )
    assert code == 0
    assert len(dl.parse_results(out.read_text())) == 2


def test_probs_output(tmp_path, ihf):
    out = tmp_path / "m.tsv"
    code = run_cli(
        "probs", "--scenario", "0", "--mechanism", "uniform",
        "--trials", "20000", "--seed", "11", "--threads", "1", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# drawlab-pair-matrices v1")
    block = text[text.index("# pots 1-2"):].splitlines()
    header = block[1].split("\t")
    denmark = block[2].split("\t")
    portugal_col = header.index("Portugal")
    assert denmark[0] == "Denmark"
    assert abs(float(denmark[portugal_col]) - 1 / 6) < 0.015
    croatia_col = header.index("Croatia")
    assert float(denmark[croatia_col]) == 0.0


def test_probs_needs_single_cell():
    assert run_cli("probs", "--scenario", "0,1", "--mechanism", "uniform") == 2
    assert run_cli("probs", "--scenario", "0", "--mechanism", "both") == 2


def test_pareto_report(tmp_path, ihf):
    results = [
        dl.run_scenario(ihf, s, "uniform", 400, seed=2) for s in (0, 1, 30)
    ]
    doc = tmp_path / "results.csv"
    doc.write_text(dl.export_results(results, "table"))
    out = tmp_path / "pareto.txt"
    assert run_cli("pareto", str(doc), "--out", str(out)) == 0
    report = out.read_text()
    assert "frontier:" in report and "dominated:" in report


def test_pareto_synthetic_dominance(tmp_path, ihf):
    # hand-built rows: scenario 1 beaten in both coordinates by scenario 30
    rows = []
    for scen, mean_u, ineq in ((0, 14.6, 0.0238), (1, 13.5, 0.0328), (30, 12.7, 0.0300)):
        rows.append(
            dl.ScenarioResult(
                scenario=scen, mechanism="uniform", trials=10, seed=0,
                mean_unattractive=mean_u, stderr_unattractive=0.0,
                i_hat=0.0, inequality=ineq, stderr_i=0.0,
                feasible_proportion=1.0, histogram={}, elapsed_ms=0.0,
            )
        )
    doc = tmp_path / "r.csv"
    doc.write_text(dl.export_results(rows, "table"))
    out = tmp_path / "p.txt"
    assert run_cli("pareto", str(doc), "--out", str(out)) == 0
    report = out.read_text()
    assert "scenario  1 uniform" in report
    assert "dominated by 30/uniform" in report


def test_pareto_input_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run_cli("pareto", str(missing)) == 5
    bad = tmp_path / "bad.csv"
    bad.write_text("not a results document\n")
    assert run_cli("pareto", str(bad)) == 2
    single = tmp_path / "one.csv"
    r = dl.ScenarioResult(
        scenario=0, mechanism="uniform", trials=1, seed=0,
        mean_unattractive=1.0, stderr_unattractive=0.0, i_hat=0.0,
        inequality=0.0, stderr_i=0.0, feasible_proportion=1.0,
        histogram={}, elapsed_ms=0.0,
    )
    single.write_text(dl.export_results([r], "table"))
    assert run_cli("pareto", str(single)) == 2
    table = dl.export_results([r, r], "table")
    structured = dl.export_results([r, r], "structured")
    for text in (
        '{"schema": "drawlab.results/1", "results": [{"scenario": 0}]}',
        '{"schema": "drawlab.results/1"}',
        table.replace(table.splitlines()[-1], "0,uniform,1"),
        "# drawlab.results/1\n",
        structured.replace('"mean_unattractive": 1.0', '"mean_unattractive": "x"', 1),
        structured.replace('"histogram": {}', '"histogram": {"x": 1}', 1),
    ):
        bad.write_text(text)
        assert run_cli("pareto", str(bad)) == 2


def test_oracle_toy_two_by_two(tmp_path, capsys):
    inst = dl.build_instance([[("a", "X"), ("b", "X")], [("c", "X"), ("d", "X")]])
    p = tmp_path / "toy.json"
    p.write_text(inst.to_json())
    assert run_cli("oracle", "--instance", str(p), "--scenario", "0") == 0
    out = capsys.readouterr().out
    assert "4 valid labeled assignments of 4" in out
    assert "0.500000" in out
    assert "skip distribution equals uniform distribution" in out


def test_oracle_example1_reports_nonuniformity(tmp_path, capsys, example1):
    p = tmp_path / "e1.json"
    p.write_text(example1.to_json())
    assert run_cli("oracle", "--instance", str(p), "--scenario", "24",
                   "--mc-trials", "2000") == 0
    out = capsys.readouterr().out
    assert "18 valid labeled assignments of 36" in out
    assert "skip distribution differs from uniform distribution" in out
    assert "mc uniform" in out and "mc skip" in out


def test_oracle_canonical_refuses_enumeration(capsys):
    assert run_cli("oracle", "--instance", "ihf2025", "--scenario", "0") == 0
    out = capsys.readouterr().out
    assert "full enumeration refused" in out
    assert "7/48" in out and "1/42" in out


def test_oracle_budget_exit_for_large_non_canonical(tmp_path):
    pots = [[(f"t{k}_{i}", "X") for i in range(8)] for k in range(3)]
    inst = dl.build_instance(pots)
    p = tmp_path / "big.json"
    p.write_text(inst.to_json())
    assert run_cli("oracle", "--instance", str(p), "--scenario", "0") == 4


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "drawlab.cli", "simulate", "--scenario", "0",
         "--mechanism", "skip", "--trials", "200", "--seed", "1", "--threads", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "# drawlab.results/1" in proc.stdout
