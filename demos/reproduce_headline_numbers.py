"""Million-trial reproduction of the headline quantities.

Runs the headline cells at full scale: the
unconstrained match-count distribution, feasible proportions, Skip
distortion ratios, and the probability-table spot checks. Slow by design
(about 75 s on one core of a 2-CPU machine); the acceptance test suite runs
the same cells with hard tolerances.
"""

import time

import drawlab as dl

TRIALS = 1_000_000
inst = dl.get_instance("ihf2025")

cells = {}
for mech, scenarios in (("uniform", (0, 1, 17, 30, 31)), ("skip", (0, 1, 17, 31))):
    for s in scenarios:
        t0 = time.perf_counter()
        cells[(s, mech)] = dl.run_scenario(inst, s, mech, TRIALS, seed=1)
        print(f"scenario {s:>2} {mech:<8} done in {time.perf_counter() - t0:6.1f} s")

r0 = cells[(0, "uniform")]
print()
print("unconstrained draw (scenario 0, uniform):")
print(f"  mean unattractive matches: {r0.mean_unattractive:.4f}")
print("  distribution:", {k: round(v, 4) for k, v in r0.histogram_probs.items()})
print(f"  inequality I: {r0.inequality:.6f} (exact benchmark 1/42 = {1 / 42:.6f})")

print()
print("feasible proportion of host-feasible assignments:")
for s in (0, 1, 17, 30, 31):
    print(f"  scenario {s:>2}: {cells[(s, 'uniform')].feasible_proportion:.4f}")

print()
print("Skip-vs-Uniform inequality distortion:")
for s in (0, 1, 17, 31):
    ratio = dl.distortion_ratio(cells[(s, "skip")], cells[(s, "uniform")])
    print(f"  scenario {s:>2}: {ratio:.4f}")

print()
print("probability spot checks at scenario 31 (percent):")
u = dl.result_matrices(cells[(31, "uniform")], inst)
k = dl.result_matrices(cells[(31, "skip")], inst)
loc = lambda nm: inst.local_index(inst.team(nm).id)
for a, b, pots in (("France", "Croatia", (1, 2)),
                   ("Egypt", "Switzerland", (1, 4)),
                   ("Denmark", "Switzerland", (1, 4))):
    pu = 100 * u.matrix(*pots)[loc(a), loc(b)]
    ps = 100 * k.matrix(*pots)[loc(a), loc(b)]
    print(f"  {a}-{b}: uniform {pu:.1f}, skip {ps:.1f}")
