"""Command-line interface.

Subcommands: simulate, sweep, probs, pareto, oracle.  Every command is a
deterministic function of its flags: identical invocations write identical
result documents (elapsed-time metadata aside).

Exit codes: 0 success, 2 usage or configuration error, 3 infeasible
scenario, 4 enumeration/proposal budget exceeded, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import experiment, metrics, oracle
from .errors import (
    DrawlabError,
    EnumerationBudgetError,
    InfeasibleScenarioError,
    InstanceFormatError,
    ProposalBudgetError,
    ResultFormatError,
)
from .mechanisms import MECHANISMS
from .model import get_instance, scenario_constraints

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_IO = 5


def _parse_scenarios(spec: str):
    if spec.strip().lower() == "all":
        return list(range(32))
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    seen = []
    for s in out:
        if not 0 <= s <= 31:
            raise ValueError(f"scenario {s} outside 0..31")
        if s not in seen:
            seen.append(s)
    if not seen:
        raise ValueError("empty scenario selection")
    return sorted(seen)


def _parse_mechanisms(spec: str):
    spec = spec.strip().lower()
    if spec == "both":
        return list(MECHANISMS)
    if spec in MECHANISMS:
        return [spec]
    raise ValueError(f"mechanism must be one of uniform, skip, both (got {spec!r})")


def _write_out(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _default_threads() -> int:
    """CPUs this process may run on (its affinity mask where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_common(p: argparse.ArgumentParser, trials_default=None) -> None:
    p.add_argument("--instance", default="ihf2025", help="built-in name or JSON file path")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes, >= 1; a cell is split only when there are fewer "
                   "cells than workers (default: the CPUs this process may run on)")
    p.add_argument("--out", default=None, help="output path ('-' or omitted = stdout)")
    p.add_argument("--format", choices=("table", "structured"), default="table")
    if trials_default is not None:
        p.add_argument("--trials", type=int, default=trials_default, help=f"trials per cell (default {trials_default})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="drawlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate selected (scenario, mechanism) cells")
    _add_common(sim, trials_default=100000)
    sim.add_argument("--scenario", default="0", help="'all', single id, list '0,5,31', range '0-15'")
    sim.add_argument("--mechanism", default="uniform", help="uniform, skip, or both")

    sw = sub.add_parser("sweep", help="full sweep over scenarios and mechanisms")
    _add_common(sw, trials_default=100000)
    sw.add_argument("--scenario", default="all")
    sw.add_argument("--mechanism", default="both")

    pr = sub.add_parser("probs", help="pairwise co-assignment probability matrices")
    _add_common(pr, trials_default=100000)
    pr.add_argument("--scenario", required=True, help="single scenario id")
    pr.add_argument("--mechanism", required=True, help="uniform or skip")

    pa = sub.add_parser("pareto", help="frontier/dominated split of a results document")
    pa.add_argument("results", help="path to a results document (table or structured)")
    pa.add_argument("--mechanism", default=None, help="restrict to one mechanism")
    pa.add_argument("--out", default=None)

    orc = sub.add_parser("oracle", help="exact enumeration report for small instances")
    orc.add_argument("--instance", default="ihf2025")
    orc.add_argument("--scenario", default="0", help="single scenario id")
    orc.add_argument("--budget", type=int, default=oracle.DEFAULT_ENUMERATION_BUDGET)
    orc.add_argument("--mc-trials", type=int, default=0, dest="mc_trials",
                     help="also compare Monte Carlo estimates at this trial count")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--out", default=None)
    return ap


def _summary_table(results) -> str:
    head = f"{'scen':>4} {'mech':<8} {'trials':>9} {'mean_unattr':>12} {'I':>9} {'feasible%':>10}"
    lines = [head, "-" * len(head)]
    for r in sorted(results, key=lambda x: (x.scenario, x.mechanism)):
        feas = f"{100 * r.feasible_proportion:.1f}" if r.feasible_proportion is not None else "-"
        lines.append(
            f"{r.scenario:>4} {r.mechanism:<8} {r.trials:>9} "
            f"{r.mean_unattractive:>12.4f} {r.inequality:>9.5f} {feas:>10}"
        )
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    scenarios = _parse_scenarios(args.scenario)
    mechanisms = _parse_mechanisms(args.mechanism)
    instance = get_instance(args.instance)
    workers = _default_threads() if args.threads is None else args.threads
    results = experiment.sweep(
        instance, scenarios, mechanisms, args.trials, args.seed, workers=workers
    )
    doc = experiment.export_results(results, args.format)
    if args.out:
        _write_out(args.out, doc)
        sys.stdout.write(_summary_table(results) + "\n")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def cmd_probs(args) -> int:
    scenarios = _parse_scenarios(args.scenario)
    mechanisms = _parse_mechanisms(args.mechanism)
    if len(scenarios) != 1 or len(mechanisms) != 1:
        raise ValueError("probs needs exactly one scenario and one mechanism")
    instance = get_instance(args.instance)
    workers = _default_threads() if args.threads is None else args.threads
    result = experiment.run_scenario(
        instance, scenarios[0], mechanisms[0], args.trials, args.seed, workers=workers
    )
    mats = experiment.result_matrices(result, instance)
    _write_out(args.out, metrics.export_matrices(mats))
    return EXIT_OK


def cmd_pareto(args) -> int:
    with open(args.results) as fh:
        text = fh.read()
    results = experiment.parse_results(text)
    if args.mechanism:
        results = [r for r in results if r.mechanism == args.mechanism]
    if len(results) < 2:
        raise ValueError("pareto needs results for at least two cells")
    points = experiment.tradeoff_points(results)
    res = experiment.pareto_frontier(points)
    lines = ["frontier:"]
    for p in sorted(res.frontier, key=lambda q: (q.x, q.y)):
        lines.append(f"  scenario {p.scenario:>2} {p.mechanism:<8} x={p.x:.4f} y={p.y:.5f}")
    lines.append("dominated:")
    if not res.dominated:
        lines.append("  (none)")
    for p, doms in sorted(res.dominated, key=lambda t: (t[0].scenario, t[0].mechanism)):
        wit = ", ".join(f"{q.scenario}/{q.mechanism}" for q in doms[:4])
        lines.append(
            f"  scenario {p.scenario:>2} {p.mechanism:<8} x={p.x:.4f} y={p.y:.5f}"
            f"  dominated by {wit}"
        )
    _write_out(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _fraction_str(x) -> str:
    f = Fraction(x)
    return f"{f} ({float(f):.6f})"


def cmd_oracle(args) -> int:
    instance = get_instance(args.instance)
    scenarios = _parse_scenarios(args.scenario)
    if len(scenarios) != 1:
        raise ValueError("oracle needs exactly one scenario id")
    scenario = scenarios[0]
    constraints = scenario_constraints(scenario)
    lines = [f"instance {instance.name}: {instance.m} pots x {instance.n} groups"]
    space = oracle._assignment_space(instance)
    if space > args.budget:
        lines.append(
            f"assignment space {space:.3e} exceeds budget {args.budget:.1e}; "
            "full enumeration refused"
        )
        try:
            mats = oracle.exact_scenario0_matrices(instance)
        except ValueError:
            _write_out(args.out, "\n".join(lines) + "\n")
            raise EnumerationBudgetError(
                "instance too large to enumerate and has no analytic baseline"
            )
        i_hat = metrics.hhi_index(mats)
        lines.append("analytic host-feasible baseline (scenario 0):")
        lines.append(f"  I_hat = {_fraction_str(i_hat)}")
        lines.append(f"  I     = {_fraction_str(metrics.inequality(i_hat, instance.n))}")
        lines.append(metrics.export_matrices(mats))
        _write_out(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    uni = oracle.enumerate_uniform(instance, constraints, budget=args.budget)
    skp = oracle.enumerate_skip(instance, constraints, budget=args.budget)
    lines.append(
        f"scenario {scenario}: {uni.feasible_count} valid labeled assignments "
        f"of {uni.baseline_count} host-feasible ({space} total)"
    )
    lines.append(f"uniform: I_hat = {_fraction_str(uni.i_hat)}  I = {_fraction_str(uni.inequality)}")
    lines.append(f"skip:    I_hat = {_fraction_str(skp.i_hat)}  I = {_fraction_str(skp.inequality)}")
    same = uni.classes == skp.classes
    lines.append(f"skip distribution {'equals' if same else 'differs from'} uniform distribution")
    if args.mc_trials:
        for mech, exact in (("uniform", uni), ("skip", skp)):
            r = experiment.run_scenario(instance, scenario, mech, args.mc_trials, args.seed)
            lines.append(
                f"mc {mech}: I = {r.inequality:.6f} vs exact {float(exact.inequality):.6f} "
                f"({args.mc_trials} trials)"
            )
    lines.append("uniform matrices:")
    lines.append(metrics.export_matrices(uni.matrices))
    lines.append("skip matrices:")
    lines.append(metrics.export_matrices(skp.matrices))
    _write_out(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    handlers = {
        "simulate": cmd_simulate,
        "sweep": cmd_simulate,
        "probs": cmd_probs,
        "pareto": cmd_pareto,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, InstanceFormatError, ResultFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleScenarioError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ProposalBudgetError, EnumerationBudgetError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:  # an unreadable input or an unwritable output
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DrawlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
