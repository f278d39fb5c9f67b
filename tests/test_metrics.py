import random
from fractions import Fraction

import numpy as np
import pytest

import drawlab as dl
from drawlab.metrics import pot_pairs
from drawlab.oracle import _Rules, _Tally

from conftest import many_groups_instance, random_instance


def uniform_set(m, n):
    mats = {
        pair: np.full((n, n), Fraction(1, n), dtype=object) for pair in pot_pairs(m)
    }
    return dl.PairMatrixSet(m, n, mats, "exact")


def permutation_set(m, n, rng):
    mats = {}
    for pair in pot_pairs(m):
        mat = np.full((n, n), Fraction(0), dtype=object)
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mat[i, j] = Fraction(1)
        mats[pair] = mat
    return dl.PairMatrixSet(m, n, mats, "exact")


def unconstrained_draw_matrices():
    """Pair matrices of the canonical draw with no constraints, written out
    from first principles: the two non-excluded pot-1 teams (locals 1, 7)
    pair with the two excluded pot-2 teams (locals 1, 2) with probability
    1/2; the six-by-six remainder is uniform 1/6; every other pot pair is
    uniform 1/8."""
    n = 8
    host_rows = {0, 2, 3, 4, 5, 6}
    host_cols = {1, 2}
    p12 = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if i in host_rows:
                p12[i, j] = Fraction(1, 6) if j not in host_cols else Fraction(0)
            else:
                p12[i, j] = Fraction(1, 2) if j in host_cols else Fraction(0)
    mats = {(1, 2): p12}
    for pair in pot_pairs(4):
        if pair != (1, 2):
            mats[pair] = np.full((n, n), Fraction(1, 8), dtype=object)
    return dl.PairMatrixSet(4, 8, mats, "exact")


def test_hhi_minimum_at_uniform_matrices():
    ms = uniform_set(4, 8)
    assert dl.hhi_index(ms) == Fraction(1, 8)
    assert dl.inequality(Fraction(1, 8), 8) == 0


def test_hhi_maximum_at_permutation_matrices():
    ms = permutation_set(3, 5, random.Random(1))
    assert dl.hhi_index(ms) == 1
    assert dl.inequality(Fraction(1), 5) == 1


def test_hhi_worked_example_value():
    ms = unconstrained_draw_matrices()
    i_hat = dl.hhi_index(ms)
    assert i_hat == Fraction(7, 48)
    assert dl.inequality(i_hat, 8) == Fraction(1, 42)


def test_inequality_examples_and_range():
    assert dl.inequality(Fraction(1, 8), 8) == 0
    assert dl.inequality(Fraction(7, 48), 8) == Fraction(1, 42)
    assert dl.inequality(1.0, 8) == 1.0
    with pytest.raises(ValueError):
        dl.inequality(0.05, 8)  # below 1/8
    with pytest.raises(ValueError):
        dl.inequality(Fraction(2), 8)


def test_hhi_rejects_non_stochastic():
    n = 4
    bad = np.full((n, n), 1.0 / n)
    bad[0, 0] += 0.01
    ms = dl.PairMatrixSet(2, n, {(1, 2): bad}, ("empirical", 100))
    with pytest.raises(ValueError):
        dl.hhi_index(ms)


def test_hhi_invariant_under_team_relabelling():
    rng = random.Random(7)
    ms = unconstrained_draw_matrices()
    base = dl.hhi_index(ms)
    mats = {}
    for pair, mat in ms.matrices.items():
        rows = list(range(8))
        cols = list(range(8))
        rng.shuffle(rows)
        rng.shuffle(cols)
        mats[pair] = mat[np.ix_(rows, cols)]
    shuffled = dl.PairMatrixSet(4, 8, mats, "exact")
    assert dl.hhi_index(shuffled) == base


def test_hhi_transpose_symmetry():
    ms = unconstrained_draw_matrices()
    transposed = dl.PairMatrixSet(
        4, 8, {p: m.T.copy() for p, m in ms.matrices.items()}, "exact"
    )
    assert abs(float(dl.hhi_index(ms)) - float(dl.hhi_index(transposed))) < 1e-12


def _random_rows(instance, count, seed):
    """Random complete assignments as (count, m*n) team->group rows."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        pos = []
        for k in range(instance.m):
            groups = list(range(instance.n))
            rng.shuffle(groups)
            pos.extend(groups)
        rows.append(pos)
    return np.array(rows, dtype=np.int8)


def test_accumulate_counts_per_pair(ihf):
    acc = dl.MatrixAccumulator(ihf.m, ihf.n)
    acc.add_pos_batch(_random_rows(ihf, 1, 3))
    assert acc.trials == 1
    # one co-membership count per group per pot pair
    assert (acc.counts.sum(axis=(1, 2)) == ihf.n).all()
    ms = dl.pair_matrices(acc)
    for pair in pot_pairs(ihf.m):
        mat = ms.matrix(*pair)
        assert (mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
        assert set(np.unique(mat)) <= {0.0, 1.0}  # permutation matrix


def _accumulator_instance(name):
    if name == "ihf2025":
        return dl.get_instance("ihf2025")
    if name == "24 groups":
        return many_groups_instance()
    # seeds 0-15 draw m 2-5 and n 3-9, odd n included
    return random_instance(random.Random(int(name)), max_pots=5, max_teams=9)


@pytest.mark.parametrize("name", ["ihf2025", "24 groups"] + [str(seed) for seed in range(16)])
def test_add_pos_batch_matches_scalar(name):
    inst = _accumulator_instance(name)
    m, n = inst.m, inst.n
    rows = _random_rows(inst, 40, 17)
    # the oracle's tally counts from grid[k][g] = team id of pot k+1 in group g
    tally = _Tally(inst)
    rules = _Rules(inst, dl.scenario_constraints(0))
    for row in rows.tolist():
        grid = [[-1] * n for _ in range(m)]
        for tid, g in enumerate(row):
            grid[tid // n][g] = tid
        tally.add(grid, rules)
    batch = dl.MatrixAccumulator(m, n)
    codes = batch.add_pos_batch(rows)
    for i, pair in enumerate(batch.pairs):
        assert batch.counts[i].tolist() == tally.pair_counts[pair], pair
    assert batch.trials == tally.total == 40
    # a code's base-n digits, pot 1 first, are the pot-local teams of its group
    assert codes.shape == (40, n)
    for row, row_codes in zip(rows.tolist(), codes.tolist()):
        for g, code in enumerate(row_codes):
            digits = []
            for _ in range(m):
                code, digit = divmod(code, n)
                digits.append(digit)
            assert code == 0
            assert digits[::-1] == [row[k * n : (k + 1) * n].index(g) for k in range(m)]


def test_pair_table_counts_unattractive_matches():
    # confederation labels per pot-local team give each trial's unattractive
    # matches as a table lookup per group
    confs_seen, hosted = set(), 0
    for seed in range(12):
        inst = random_instance(random.Random(seed), max_pots=5, max_teams=9)
        confs_seen |= {inst.confederations[t.confederation].name for t in inst.teams}
        hosted += bool(inst.host_exclusion)
        acc = dl.MatrixAccumulator(inst.m, inst.n)
        confs = [[t.confederation for t in inst.pot_teams(k)] for k in range(1, inst.m + 1)]
        rows = _random_rows(inst, 30, seed)
        unattractive = acc.pair_table(np.array(confs))[acc.add_pos_batch(rows)].sum(axis=1)
        for row, u in zip(rows.tolist(), unattractive.tolist()):
            asg = dl.Assignment.empty(inst)
            for tid, g in enumerate(row):
                asg.place(inst, tid, g)
            assert u == dl.count_unattractive(inst, asg)
    assert len(confs_seen) == 5 and hosted > 0


def test_pair_matrices_zero_trials(ihf):
    with pytest.raises(ValueError):
        dl.pair_matrices(dl.MatrixAccumulator(ihf.m, ihf.n))


def test_empirical_matrices_doubly_stochastic(ihf):
    acc = dl.MatrixAccumulator(ihf.m, ihf.n)
    acc.add_pos_batch(_random_rows(ihf, 100, 5))
    ms = dl.pair_matrices(acc)
    ms.check_doubly_stochastic(tol=1e-9)
    assert ms.stochastic_error() < 1e-12


def test_inequality_report_contributions():
    ms = unconstrained_draw_matrices()
    report = dl.inequality_report(ms)
    assert report.i_hat == Fraction(7, 48)
    assert report.inequality == Fraction(1, 42)
    assert report.pair_contributions[(1, 2)] == Fraction(1, 4)
    for pair in pot_pairs(4):
        if pair != (1, 2):
            assert report.pair_contributions[pair] == Fraction(1, 8)


def test_export_matrices_format(ihf):
    ms = unconstrained_draw_matrices()
    ms.team_names = tuple(
        tuple(t.name for t in ihf.pot_teams(k)) for k in range(1, 5)
    )
    text = dl.export_matrices(ms)
    lines = text.splitlines()
    assert lines[0] == "# drawlab-pair-matrices v1"
    assert "# pots 1-2" in lines
    header = lines[lines.index("# pots 1-2") + 1].split("\t")
    assert header[1:] == [t.name for t in ihf.pot_teams(2)]
    denmark = lines[lines.index("# pots 1-2") + 2].split("\t")
    assert denmark[0] == "Denmark"
    assert denmark[1] == "0.166667"  # six decimals
    assert text.count("# pots") == 6
