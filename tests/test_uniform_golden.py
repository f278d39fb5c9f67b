"""Golden digests of Uniform cells on ihf2025.

Each digest is the sha256 prefix of a cell's structured export without its
elapsed-time metadata, so it pins the histogram, the pair-matrix counts,
the proposal total and every derived statistic bit for bit.  The same
digests must hold at any worker count and shard split: 4100 trials run as
one shard and as three shards of 1367, 1367 and 1366; 2051 trials pin a
second trial count.  The cells span one to about eighteen proposals per
trial (s1, s17, s30, s31), so they also pin the rejection loop.

Re-record only in a change that is meant to alter Uniform results:
``PYTHONPATH=src python tests/test_uniform_golden.py``.
"""

import hashlib

import pytest

import drawlab as dl
from drawlab.experiment import export_results, strip_metadata

SCENARIOS = (1, 17, 30, 31)
SEEDS = (4, 19)
RUNS = ((4100, 1), (4100, 3), (2051, 1))  # (trials, workers)

GOLDEN = {
    (4100, 4): {1: 'aed91ae98f8b6626', 17: '89391c8395e5ccf7', 30: '777d8ee06fc3ab3f', 31: 'ab896164d6b97516'},
    (4100, 19): {1: 'cf89e82fd3b26011', 17: '83192e3e226e7e6c', 30: '13af3013f32c935a', 31: '24af286446e88230'},
    (2051, 4): {1: 'db9022a712cbca8a', 17: '0fa6449548679bcf', 30: 'f7ed02538a853f73', 31: 'b71ce724c7ca7e88'},
    (2051, 19): {1: '92855f7fc8fad21a', 17: 'c6d8e6939ec80403', 30: '434a3ca7058589cf', 31: '36748e65be899361'},
}


def cell_digests(instance, trials, seed, workers):
    if workers == 1:
        results = dl.sweep(instance, SCENARIOS, ["uniform"], trials, seed)
    else:
        # one cell at a time, so each cell is split into `workers` shards;
        # a sweep of at least as many cells as workers runs every cell whole
        results = [dl.run_scenario(instance, s, "uniform", trials, seed, workers=workers)
                   for s in SCENARIOS]
    out = {}
    for r in results:
        doc = strip_metadata(export_results([r], "structured"))
        out[r.scenario] = hashlib.sha256(doc.encode()).hexdigest()[:16]
    return out


@pytest.mark.parametrize("trials,workers", RUNS)
@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_cells_match_golden_digests(ihf, seed, trials, workers):
    assert cell_digests(ihf, trials, seed, workers) == GOLDEN[(trials, seed)]


if __name__ == "__main__":
    inst = dl.get_instance("ihf2025")
    for trials in sorted({t for t, _ in RUNS}, reverse=True):
        for seed in SEEDS:
            print(f"    ({trials}, {seed}): {cell_digests(inst, trials, seed, 1)},")
