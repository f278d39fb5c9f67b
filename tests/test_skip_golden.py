"""Golden digests of Skip cells on ihf2025.

Each digest is the sha256 prefix of a cell's structured export without its
elapsed-time metadata, so it pins the histogram, the pair-matrix counts and
every derived statistic bit for bit.  The same digests must hold at any
worker count, shard split and batch size: 4100 trials run as one shard
(two full 2048-trial batches and a remainder) and as two shards of 2050
(each one full batch plus two trials); 2051 trials straddle one batch.
``GOLDEN_ALL`` pins every one of the 32 scenarios at 2051 trials and seed 2,
so a change to any scenario's transition graph shows.

Re-record only in a change that is meant to alter Skip results:
``PYTHONPATH=src python tests/test_skip_golden.py``.
"""

import hashlib

import pytest

import drawlab as dl
from drawlab.experiment import export_results, strip_metadata

SCENARIOS = (0, 1, 17, 31)
SEEDS = (2, 11)
RUNS = ((4100, 1), (4100, 2), (2051, 1))  # (trials, workers)

GOLDEN = {
    (4100, 2): {0: 'ab910bc7b40e7a37', 1: '1c3e1a1b2776655b', 17: 'bec8b927f5fcedc8', 31: 'd420e31632cf1f67'},
    (4100, 11): {0: '6d88dd3e7abf2cdc', 1: '36479b85e14d0235', 17: 'b0751fdb8d0651f0', 31: '72b16634e53b4119'},
    (2051, 2): {0: 'adcbcda96708087b', 1: '6356c0b1270e25ed', 17: 'f8808fc1d466a738', 31: 'a56357cb744ebfc7'},
    (2051, 11): {0: 'db7df3305b125988', 1: '04720c8f8f121068', 17: '50244493a916930d', 31: 'd93f79271979f594'},
}
GOLDEN_ALL = {  # (2051, 2), every scenario
    0: 'adcbcda96708087b', 1: '6356c0b1270e25ed', 2: '0f11378407e9ec3f', 3: 'c45fad003fb0fe9b',
    4: 'a23ea8f32cce0a07', 5: '583d3e2778683580', 6: '93a0d494789d216f', 7: 'f0df8bdf475db3bc',
    8: '5c9d4334ce9cd071', 9: 'c4e6513fb4108539', 10: '78c8eab5f059b0aa', 11: 'cbf69bbd58c40580',
    12: 'fd9e17854716254a', 13: '0e5f23ed87f33459', 14: '0d4c4de632eba57f', 15: 'e5d2ec920e8149f3',
    16: 'b73597859006ed8a', 17: 'f8808fc1d466a738', 18: '455327157f612f9d', 19: 'cbee571773074099',
    20: 'aa244b5e8fb222df', 21: 'c67971b24db8789d', 22: '9612647d155cc896', 23: '80117ad3d426b230',
    24: '9bd7cf25e62c02a6', 25: '913f144b568149e4', 26: '8d6419c944bd04ec', 27: '3602ddb26ca4931c',
    28: 'dfb221890598a72b', 29: '5068c261fe97a892', 30: 'a65af8cfa84cbbfd', 31: 'a56357cb744ebfc7',
}


def cell_digests(instance, trials, seed, workers, scenarios=SCENARIOS):
    if workers == 1:
        results = dl.sweep(instance, scenarios, ["skip"], trials, seed)
    else:
        # one cell at a time, so each cell is split into `workers` shards;
        # a sweep of at least as many cells as workers runs every cell whole
        results = [dl.run_scenario(instance, s, "skip", trials, seed, workers=workers)
                   for s in scenarios]
    out = {}
    for r in results:
        doc = strip_metadata(export_results([r], "structured"))
        out[r.scenario] = hashlib.sha256(doc.encode()).hexdigest()[:16]
    return out


@pytest.mark.parametrize("trials,workers", RUNS)
@pytest.mark.parametrize("seed", SEEDS)
def test_skip_cells_match_golden_digests(ihf, seed, trials, workers):
    assert cell_digests(ihf, trials, seed, workers) == GOLDEN[(trials, seed)]


def test_every_skip_scenario_matches_golden_digest(ihf):
    assert cell_digests(ihf, 2051, 2, 1, range(32)) == GOLDEN_ALL


if __name__ == "__main__":
    inst = dl.get_instance("ihf2025")
    for trials in sorted({t for t, _ in RUNS}, reverse=True):
        for seed in SEEDS:
            print(f"    ({trials}, {seed}): {cell_digests(inst, trials, seed, 1)},")
    print("GOLDEN_ALL = {")
    for s, digest in cell_digests(inst, 2051, 2, 1, range(32)).items():
        print(f"    {s}: {digest!r},")
    print("}")
