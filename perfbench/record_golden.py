"""Record the golden per-cell digests of every workload at seeds 0-9.

Run from the repository root: python3 perfbench/record_golden.py

worker.py compares each cell's digest with this table whenever a round runs
at a recorded seed and the default trial count.  Re-record only in a change
that is meant to alter results.
"""

import json

from run import HERE, TRIALS, run_round

SEEDS = range(10)


def main() -> None:
    table = {}
    for workload, trials in TRIALS.items():
        seeds = {}
        for seed in SEEDS:
            record = run_round(workload, seed, False, trials, 1, 0, timeout=170)
            # a digest may differ from the old table; any other problem is a defect
            wrong = [p for p in record["problems"] if not p.endswith("golden digest")]
            if wrong:
                raise SystemExit(f"{workload} seed {seed}: {wrong}")
            seeds[str(seed)] = record["digests"]
        table[workload] = {"trials": trials, "seeds": seeds}
    (HERE / "golden.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
