"""Sweep all 32 constraint scenarios with both mechanisms.

Produces the attractiveness/fairness trade-off table, the Skip-vs-Uniform
distortion ratios, and the Pareto split, then writes plot-ready CSV files
(sweep.csv, tradeoff.csv) to the working directory.

At the default 20k trials per cell the sweep takes about 15 s on one core
of a 2-CPU machine; pass a different trial count as the first argument if
wanted.
"""

import sys

import drawlab as dl

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
inst = dl.get_instance("ihf2025")

print(f"sweeping 32 scenarios x 2 mechanisms at {trials} trials per cell ...")
results = dl.sweep(inst, range(32), ["uniform", "skip"], trials=trials, seed=42)
by_cell = {(r.scenario, r.mechanism): r for r in results}

print(f"{'scen':>4} {'constraints':>11} {'feasible':>9} {'mean unattractive':>25} "
      f"{'inequality I':>21} {'I_skip/I_uni':>12}")
for s in range(32):
    u, k = by_cell[(s, "uniform")], by_cell[(s, "skip")]
    cons = dl.scenario_constraints(s).describe()
    ratio = dl.distortion_ratio(k, u)
    print(f"{s:>4} {cons:>11} {u.feasible_proportion:>9.4f} "
          f"uni {u.mean_unattractive:>7.3f} skip {k.mean_unattractive:>7.3f} "
          f"uni {u.inequality:>8.5f} skip {k.inequality:>8.5f} {ratio:>12.3f}")

res = dl.pareto_frontier(dl.tradeoff_points(results))
print()
print(f"frontier cells ({len(res.frontier)}):")
for p in sorted(res.frontier, key=lambda q: q.x):
    print(f"  scenario {p.scenario:>2} {p.mechanism:<8} "
          f"mean={p.x:.3f} I={p.y:.5f}")
print(f"dominated cells ({len(res.dominated)}):")
for p, doms in sorted(res.dominated, key=lambda t: t[0].scenario):
    wit = ", ".join(f"{q.scenario}/{q.mechanism}" for q in doms[:3])
    print(f"  scenario {p.scenario:>2} {p.mechanism:<8} beaten by {wit}")

with open("sweep.csv", "w") as fh:
    fh.write(dl.export_results(results, "table"))
with open("tradeoff.csv", "w") as fh:
    fh.write("scenario,mechanism,mean_unattractive,inequality\n")
    for p in dl.tradeoff_points(results):
        fh.write(f"{p.scenario},{p.mechanism},{p.x!r},{p.y!r}\n")
print()
print("wrote sweep.csv and tradeoff.csv")
