import math
import random

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import drawlab as dl
from drawlab import feasibility, mechanisms
from drawlab.experiment import _merge_shards, _run_shard
from drawlab.mechanisms import (
    DEFAULT_PROPOSAL_CAP,
    SkipEngine,
    VectorUniform,
    _pos_to_assignment,
    cell_key,
    get_skip_engine,
    trial_stream,
)
from drawlab.oracle import _Rules, _naive_skip_place, _naive_uniform_trial
from drawlab.rng import advance_keys, trial_keys

from conftest import random_feasible_case, random_instance


def _pos_of(instance, assignment):
    pos = [-1] * (instance.m * instance.n)
    for k in range(instance.m):
        for g, tid in enumerate(assignment.slots[k]):
            pos[tid] = g
    return pos


# ---------------------------------------------------------------------------
# host-feasible sampling
# ---------------------------------------------------------------------------


def _host_feasible_rows(instance, seed, trials):
    """Scenario-0 Uniform rows: every first proposal is accepted, so row t
    is the host-feasible sample of trial t's first m*n stream words."""
    pos, props = VectorUniform(instance, dl.scenario_constraints(0)).run_trials(seed, 0, trials)
    assert (props == 1).all()
    return pos


def test_host_sample_always_separates_hosts(ihf):
    cs0 = dl.scenario_constraints(0)
    for t in range(200):
        asg = dl.draw_trial(ihf, cs0, "uniform", 5, t).assignment
        assert dl.check_full(ihf, cs0, asg) == []


def test_host_sample_pairs_egypt_france_with_austria_croatia(ihf):
    n_trials = 20000
    pos = _host_feasible_rows(ihf, 6, n_trials)
    sigma = math.sqrt(0.25 / n_trials)
    for a in ("Egypt", "France"):
        for b in ("Austria", "Croatia"):
            count = int((pos[:, ihf.team(a).id] == pos[:, ihf.team(b).id]).sum())
            assert abs(count / n_trials - 0.5) < 5 * sigma, (a, b, count)


def test_host_sample_matches_analytic_matrices_on_toy():
    inst = dl.build_instance(
        [
            [("a", "Africa"), ("b", "Africa"), ("c", "Asia"), ("d", "Asia")],
            [("e", "Africa"), ("f", "Asia"), ("g", "Asia"), ("h", "Africa")],
            [("i", "Africa"), ("j", "Asia"), ("k", "Asia"), ("l", "Africa")],
        ],
        host_exclusion=["a", "e", "f"],
        name="hosty",
    )
    exact = dl.host_feasible_matrices(inst)
    acc = dl.MatrixAccumulator(inst.m, inst.n)
    trials = 20000
    acc.add_pos_batch(_host_feasible_rows(inst, 7, trials))
    emp = dl.pair_matrices(acc)
    for pair in exact.matrices:
        E = exact.matrix(*pair)
        M = emp.matrix(*pair)
        for i in range(inst.n):
            for j in range(inst.n):
                p = float(E[i, j])
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
                assert abs(M[i, j] - p) < max(5 * sigma, 1e-9), (pair, i, j)


def test_host_sample_without_exclusions_is_plain_product():
    inst = dl.build_instance(
        [[("a", "X"), ("b", "X"), ("c", "X")], [("d", "X"), ("e", "X"), ("f", "X")]]
    )
    seen = {tuple(row) for row in _host_feasible_rows(inst, 8, 500).tolist()}
    assert len(seen) == 36  # all 3! x 3! labelled assignments occur


# ---------------------------------------------------------------------------
# uniform mechanism
# ---------------------------------------------------------------------------


def test_uniform_scenario0_accepts_first_proposal(ihf):
    cs = dl.scenario_constraints(0)
    for t in range(50):
        assert dl.draw_trial(ihf, cs, "uniform", 9, t).proposals_used == 1


def test_uniform_outcomes_satisfy_constraints(ihf):
    for scenario in (1, 17, 30, 31):
        cs = dl.scenario_constraints(scenario)
        for t in range(25):
            out = dl.draw_trial(ihf, cs, "uniform", 10, t)
            assert dl.check_full(ihf, cs, out.assignment) == []
            assert out.proposals_used >= 1


def test_uniform_budget_exhaustion():
    inst = dl.build_instance(
        [[("a", "Africa"), ("b", "Africa")], [("c", "Africa"), ("d", "Africa")]]
    )
    cs = dl.scenario_constraints(16)  # two Africans per group are unavoidable
    with pytest.raises(dl.ProposalBudgetError):
        dl.draw_trial(inst, cs, "uniform", 1, 0, max_proposals=64)


def _assert_three_ways_equal(inst, cs, seed, t0, pos, props):
    """Batch rows, single draws and the oracle's scalar restatement agree."""
    rules = _Rules(inst, cs)
    for i, (row, used) in enumerate(zip(pos.tolist(), props.tolist())):
        out = dl.draw_trial(inst, cs, "uniform", seed, t0 + i)
        ref = _naive_uniform_trial(rules, trial_stream(seed, "uniform", cs.scenario, t0 + i))
        assert _pos_of(inst, out.assignment) == row == ref[0], (cs.scenario, t0 + i)
        assert out.proposals_used == used == ref[1], (cs.scenario, t0 + i)


def test_vector_uniform_equals_scalar(ihf):
    for scenario in range(32):
        cs = dl.scenario_constraints(scenario)
        pos, props = VectorUniform(ihf, cs).run_trials(seed=21, t_lo=10, t_hi=14)
        _assert_three_ways_equal(ihf, cs, 21, 10, pos, props)


def test_vector_uniform_equals_scalar_on_toys():
    hostless = dl.build_instance(
        [
            [("a", "Africa"), ("b", "Asia"), ("c", "Europe")],
            [("d", "Africa"), ("e", "Asia"), ("f", "Europe")],
            [("g", "Africa"), ("h", "Asia"), ("i", "Europe")],
        ]
    )
    hosty = dl.build_instance(
        [
            [("a", "Africa"), ("b", "Asia"), ("c", "Asia")],
            [("d", "Africa"), ("e", "Asia"), ("f", "Africa")],
        ],
        host_exclusion=["a", "d", "e"],
    )
    all_host_pot = dl.build_instance(
        [
            [("a", "Africa"), ("b", "Asia"), ("c", "Europe")],
            [("d", "Africa"), ("e", "Asia"), ("f", "Europe")],
        ],
        host_exclusion=["a", "b", "c"],
    )
    cases = ((hostless, 24), (hostless, 0), (hosty, 0), (all_host_pot, 0), (all_host_pot, 24))
    for inst, scenario in cases:
        cs = dl.scenario_constraints(scenario)
        pos, props = VectorUniform(inst, cs).run_trials(seed=14, t_lo=0, t_hi=30)
        _assert_three_ways_equal(inst, cs, 14, 0, pos, props)


def test_vector_uniform_shard_invariance(ihf):
    cs = dl.scenario_constraints(17)
    vu = VectorUniform(ihf, cs)
    whole_pos, whole_props = vu.run_trials(seed=3, t_lo=0, t_hi=40)
    part_pos = np.vstack(
        [vu.run_trials(seed=3, t_lo=lo, t_hi=lo + 10)[0] for lo in range(0, 40, 10)]
    )
    assert (whole_pos == part_pos).all()


def _hosted_uniform_case(rng):
    """A random instance with host teams in several pots, and a scenario whose
    proposals are accepted often enough for the oracle's scalar restatement to
    keep up."""
    while True:
        inst = random_instance(rng, max_pots=4, max_teams=5)
        if len({inst.pot_of(t) for t in inst.host_exclusion}) < 2:
            continue
        cs = dl.scenario_constraints(rng.randrange(32))
        try:
            VectorUniform(inst, cs).run_trials(0, 0, 50, max_proposals=500)
        except dl.ProposalBudgetError:
            continue
        return inst, cs


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**20),
    t0=st.integers(0, 10**6),
    cuts=st.lists(st.integers(1, 29), max_size=4),
)
def test_vector_uniform_equals_scalar_at_any_split(case, seed, t0, cuts):
    inst, cs = _hosted_uniform_case(random.Random(case))
    vu = VectorUniform(inst, cs)
    T = 30
    bounds = [0] + sorted(set(cuts)) + [T]
    parts = [vu.run_trials(seed, t0 + a, t0 + b) for a, b in zip(bounds, bounds[1:])]
    pos = np.vstack([p for p, _ in parts])
    props = np.concatenate([n for _, n in parts])
    whole_pos, whole_props = vu.run_trials(seed, t0, t0 + T)
    assert (pos == whole_pos).all() and (props == whole_props).all()
    _assert_three_ways_equal(inst, cs, seed, t0, pos, props)


@settings(max_examples=30, deadline=None)
@given(case=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**20), order=st.randoms())
def test_vector_uniform_any_valid_step_order_gives_the_same_draws(case, seed, order):
    inst, cs = _hosted_uniform_case(random.Random(case))
    vu = VectorUniform(inst, cs)
    steps = list(vu.steps)
    order.shuffle(steps)
    # the host step must still come before every pot whose pool it narrows
    host = next((st for st in steps if st.pot == 0), None)
    hosted = [i for i, st in enumerate(steps) if st.hosts is not None]
    if host is not None and hosted and steps.index(host) > hosted[0]:
        steps.remove(host)
        steps.insert(hosted[0], host)
    vu.steps = steps
    vu._plan()
    pos, props = vu.run_trials(seed, 0, 30)
    _assert_three_ways_equal(inst, cs, seed, 0, pos, props)


def test_vector_uniform_step_order_on_ihf(ihf):
    vu = VectorUniform(ihf, dl.scenario_constraints(31))
    # the unhosted pots, most [0, 1]-banded first, then the host step (pot 0)
    assert [st.pot for st in vu.steps] == [4, 3, 0, 1, 2]
    # pot 3, pot 1 and the last step end the word runs
    assert [[st.pot for st, _, _ in run] for _, run in vu.runs] == [[4, 3], [0, 1], [2]]


# rounds: a pass gives every pending trial up to twice as many proposals as
# it has had, while they all fit in one block
_ROUNDS = {0: 1, 17: 7, 31: 13}


@pytest.mark.parametrize(
    "scenario, words, proposals", [(0, 128_000, 4_000), (17, 1_008_068, 31_214), (31, 1_643_500, 71_049)]
)
def test_vector_uniform_generates_words_only_for_live_proposals(ihf, monkeypatch, scenario, words, proposals):
    made, rounds = [], []
    real_words, real_round = mechanisms.words_np, VectorUniform._round

    def words_np(*a):
        out = real_words(*a)
        made.append(out.size)
        return out

    monkeypatch.setattr(mechanisms, "words_np", words_np)
    monkeypatch.setattr(VectorUniform, "_round", lambda *a: rounds.append(1) or real_round(*a))
    vu = VectorUniform(ihf, dl.scenario_constraints(scenario))
    _, props = vu.run_trials(3, 0, 4000)
    assert (sum(made), int(props.sum()), len(rounds)) == (words, proposals, _ROUNDS[scenario])
    if scenario == 0:  # no step can reject: all m*n words of a round in one call
        assert len(made) == len(rounds) == 1 and words == ihf.m * ihf.n * proposals
    else:
        assert len(rounds) < len(made) <= len(vu.runs) * len(rounds)


def _infeasible_toy():
    inst = dl.build_instance(
        [[("a", "Africa"), ("b", "Africa")], [("c", "Africa"), ("d", "Africa")]]
    )
    return inst, dl.scenario_constraints(16)  # two Africans per group are unavoidable


def test_vector_uniform_budget_error_after_exactly_the_cap(monkeypatch):
    inst, cs = _infeasible_toy()
    vu = VectorUniform(inst, cs)
    streams = []
    real = VectorUniform._round
    monkeypatch.setattr(
        VectorUniform, "_round", lambda self, keys: streams.extend(keys.tolist()) or real(self, keys)
    )
    with pytest.raises(dl.ProposalBudgetError, match=r"64 proposals .*3 trials pending: 5, 6, 7\)"):
        vu.run_trials(1, 5, 8, max_proposals=64)
    # proposal p of a trial is its stream moved on by p*m*n words: each of
    # the pending trials' first 64 proposals reaches a round exactly once
    keys = trial_keys(cell_key(1, "uniform", cs.scenario), np.arange(5, 8, dtype=np.uint64))
    expect = advance_keys(keys, np.arange(64, dtype=np.uint64)[:, None] * np.uint64(vu.words))
    assert sorted(streams) == sorted(expect.ravel().tolist())


def test_vector_uniform_budget_error_names_only_the_pending_trials(ihf):
    vu = VectorUniform(ihf, dl.scenario_constraints(31))
    _, props = vu.run_trials(7, 100, 140)
    cap = int(np.sort(props)[-4])  # at most three trials need more
    pending = [100 + i for i in np.nonzero(props > cap)[0].tolist()]
    assert 0 < len(pending) <= 3
    listed = ", ".join(map(str, pending))
    with pytest.raises(dl.ProposalBudgetError, match=rf"{len(pending)} trials pending: {listed}\)"):
        vu.run_trials(7, 100, 140, max_proposals=cap)


def test_vector_uniform_cap_at_the_largest_need_changes_nothing(ihf):
    vu = VectorUniform(ihf, dl.scenario_constraints(31))
    pos, props = vu.run_trials(3, 0, 300)
    cap = int(props.max())
    capped_pos, capped_props = vu.run_trials(3, 0, 300, max_proposals=cap)
    assert (capped_pos == pos).all() and (capped_props == props).all()
    with pytest.raises(dl.ProposalBudgetError):
        vu.run_trials(3, 0, 300, max_proposals=cap - 1)


def test_vector_uniform_cap_that_cuts_a_spread_pass_changes_nothing(ihf, monkeypatch):
    vu = VectorUniform(ihf, dl.scenario_constraints(31))
    _, props = vu.run_trials(3, 0, 60)
    # a lone trial's passes hold 1, 2, 4, ... proposals: a need of q cuts the
    # pass that starts at p when q - p < p + 1
    t = next(t for t, q in enumerate(props.tolist()) if q > 2 and (q + 1) & q)
    need = int(props[t])
    pos, _ = vu.run_trials(3, t, t + 1)
    sizes = []
    real = VectorUniform._round
    monkeypatch.setattr(
        VectorUniform, "_round", lambda self, keys: sizes.append(keys.size) or real(self, keys)
    )
    capped_pos, capped_props = vu.run_trials(3, t, t + 1, max_proposals=need)
    assert (capped_pos == pos).all() and capped_props.tolist() == [need]
    *before, last = sizes
    assert sum(before) + last == need and last < sum(before) + 1  # the cap cut the last pass
    with pytest.raises(dl.ProposalBudgetError):
        vu.run_trials(3, t, t + 1, max_proposals=need - 1)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_vector_uniform_round_blocks_change_nothing(ihf, monkeypatch, block):
    for scenario in (17, 31):
        vu = VectorUniform(ihf, dl.scenario_constraints(scenario))
        pos, props = vu.run_trials(5, 40, 340)
        with monkeypatch.context() as mp:
            mp.setattr(mechanisms, "_ROUND_BLOCK", block)
            blocked_pos, blocked_props = vu.run_trials(5, 40, 340)
        assert (blocked_pos == pos).all() and (blocked_props == props).all(), scenario


def test_vector_uniform_refuses_more_groups_than_a_mask_word_holds():
    pots = [[(f"t{k}_{g}", "Africa") for g in range(65)] for k in range(2)]
    inst = dl.build_instance(pots)
    with pytest.raises(ValueError, match="at most 64 groups"):
        VectorUniform(inst, dl.scenario_constraints(16))
    VectorUniform(inst, dl.scenario_constraints(0))  # no bound confederation, no mask


def test_samplers_refuse_more_groups_than_int8_ids_hold():
    pots = [[(f"t{k}_{g}", "Europe") for g in range(130)] for k in range(2)]
    inst = dl.build_instance(pots)
    c0 = dl.scenario_constraints(0)
    for mech in ("uniform", "skip"):
        with pytest.raises(ValueError, match="at most 128 groups"):
            dl.draw_trial(inst, c0, mech, 0, 0)
    orders = [[t.id for t in inst.pot_teams(k)] for k in (1, 2)]
    with pytest.raises(ValueError, match="at most 128 groups"):
        dl.skip_draw_with_orders(inst, c0, orders)


# ---------------------------------------------------------------------------
# skip mechanism
# ---------------------------------------------------------------------------


def test_skip_worked_example_trace(example1, example1_constraints):
    out = dl.skip_draw_with_orders(example1, example1_constraints, [[0, 1, 2], [3, 4, 5]])
    assert out.assignment.comembership() == ((0, 5), (1, 3), (2, 4))
    # team 4 skips group A; team 5 skips group A; team 6 fills group A
    assert out.trace == (
        (0, 0, ()),
        (1, 1, ()),
        (2, 2, ()),
        (3, 1, (0,)),
        (4, 2, (0,)),
        (5, 0, ()),
    )


def test_skip_with_orders_validates_orders(example1, example1_constraints):
    with pytest.raises(ValueError):
        dl.skip_draw_with_orders(example1, example1_constraints, [[0, 1], [3, 4, 5]])
    with pytest.raises(ValueError):
        dl.skip_draw_with_orders(example1, example1_constraints, [[0, 1, 2], [3, 4, 4]])


def test_skip_outcomes_satisfy_constraints(ihf):
    for scenario in (0, 1, 17, 31):
        cs = dl.scenario_constraints(scenario)
        for t in range(25):
            out = dl.skip_draw(ihf, cs, trial_stream(11, "skip", scenario, t))
            assert dl.check_full(ihf, cs, out.assignment) == []


def test_skip_unconstrained_no_hosts_never_skips():
    inst = dl.build_instance(
        [[("a", "X"), ("b", "X"), ("c", "X")], [("d", "X"), ("e", "X"), ("f", "X")]]
    )
    cs = dl.scenario_constraints(0)
    for t in range(50):
        stream = trial_stream(12, "skip", 0, t)
        orders = [stream.draw_order([0, 1, 2]), stream.draw_order([3, 4, 5])]
        out = dl.skip_draw_with_orders(inst, cs, orders)
        assert all(skipped == () for _, _, skipped in out.trace)
        # j-th drawn team of each pot sits in group j
        for k, order in enumerate(orders):
            for j, tid in enumerate(order):
                assert out.assignment.slots[k][j] == tid


def test_skip_infeasible_raises():
    inst = dl.build_instance(
        [[("a", "Africa"), ("b", "Africa")], [("c", "Africa"), ("d", "Africa")]]
    )
    cs = dl.scenario_constraints(16)
    with pytest.raises(dl.InfeasibleScenarioError):
        dl.skip_draw(inst, cs, trial_stream(1, "skip", 16, 0))


def test_skip_engine_matches_naive_placement_on_random_instances():
    rng = random.Random(20250608)
    checked = 0
    while checked < 25:
        inst, cs, _ = random_feasible_case(rng, max_pots=3, max_teams=4)
        rules = _Rules(inst, cs)
        for _ in range(8):
            orders = []
            for k in range(1, inst.m + 1):
                ids = [t.id for t in inst.pot_teams(k)]
                rng.shuffle(ids)
                orders.append(ids)
            out = dl.skip_draw_with_orders(inst, cs, orders)
            grid = _naive_skip_place(rules, [tuple(o) for o in orders])
            naive = tuple(
                sorted(
                    tuple(sorted(grid[k][g] for k in range(inst.m)))
                    for g in range(inst.n)
                )
            )
            assert out.assignment.comembership() == naive
        checked += 1


def _random_orders(rng, inst):
    orders = []
    for k in range(1, inst.m + 1):
        ids = [t.id for t in inst.pot_teams(k)]
        rng.shuffle(ids)
        orders.append(ids)
    return orders


def _naive_classes(inst, cs, orders):
    grid = _naive_skip_place(_Rules(inst, cs), [tuple(o) for o in orders])
    return tuple(
        sorted(tuple(sorted(grid[k][g] for k in range(inst.m))) for g in range(inst.n))
    )


def test_skip_batch_placement_matches_naive_placement_on_random_instances():
    rng = random.Random(20251018)
    for _ in range(25):
        inst, cs, _ = random_feasible_case(rng, max_pots=3, max_teams=4)
        batch = [_random_orders(rng, inst) for _ in range(40)]
        pos = get_skip_engine(inst, cs).place_orders(np.array(batch))
        for orders, row in zip(batch, pos.tolist()):
            got = _pos_to_assignment(inst, row).comembership()
            assert got == _naive_classes(inst, cs, orders)


def _stream_orders(inst, stream):
    return [stream.draw_order([t.id for t in inst.pot_teams(k)]) for k in range(1, inst.m + 1)]


def test_vector_draw_orders_equal_stream_draw_order(ihf):
    rng = random.Random(4)
    # 128 ihf2025 trials pick from 512 pot pools: the scalar-divisor picks
    assert 128 * ihf.m >= mechanisms._SCALAR_ROWS
    for inst in (ihf, random_instance(rng, max_pots=4, max_teams=6)):
        engine = get_skip_engine(inst, dl.scenario_constraints(0))
        keys = trial_keys(cell_key(5, "skip", 0), np.arange(100, 228, dtype=np.uint64))
        for offset in (0, 3):
            orders = engine.draw_orders(advance_keys(keys, offset))
            for t, got in zip(range(100, 228), orders.tolist()):
                stream = trial_stream(5, "skip", 0, t)
                stream.pos = offset
                assert got == _stream_orders(inst, stream)
                assert stream.pos == offset + inst.m * inst.n


def _reference_pick_and_swap(pool, words, out):
    """Picks by one ``%`` over all words, then the swap after every pick."""
    R, size = pool.shape
    picks = (words % np.arange(size, size - len(words), -1, dtype=np.uint64)[:, None]).view(np.intp)
    picks += np.arange(0, R * size, size)
    flat = pool.ravel()
    for i, at in enumerate(picks):
        out[i] = flat[at]
        flat[at] = pool[:, size - 1 - i]


@pytest.mark.parametrize("size, k", [(1, 1), (2, 2), (5, 3), (7, 7), (8, 8), (12, 5)])
def test_pick_and_swap_equals_remainder_then_swap(size, k):
    rng = np.random.default_rng(size * 100 + k)
    R = mechanisms._SCALAR_ROWS + 7
    # pick i divides by d = size - i: its words hold 0, 2**64 - 1 and d*q - 1,
    # d*q for a small and the largest q among random words, in shuffled rows
    words = rng.integers(0, 2**64 - 1, size=(k, R), dtype=np.uint64, endpoint=True)
    for i in range(k):
        d = size - i
        top = (2**64 - 1) // d
        edges = [0, 2**64 - 1, d - 1, d, 3 * d - 1, 3 * d, d * top - 1, d * top]
        words[i, : len(edges)] = edges
        words[i] = rng.permutation(words[i])
    pool = np.array([rng.permutation(100)[:size] for _ in range(R)], dtype=np.int8)
    expect = np.empty((k, R), dtype=np.int8)
    _reference_pick_and_swap(pool.copy(), words, expect)
    # more rows than the switch: each pick row by its scalar divisor
    got = np.full((k, R), -1, dtype=np.int8)
    kept = words.copy()
    mechanisms._pick_and_swap(pool.copy(), words, got)
    assert (got == expect).all()
    assert (words == kept).all()
    # one row at a time: one % over all picks
    for r in range(R):
        one = np.full((k, 1), -1, dtype=np.int8)
        mechanisms._pick_and_swap(pool[r : r + 1].copy(), words[:, r : r + 1], one)
        assert (one[:, 0] == expect[:, r]).all()


def _feasible_skip_case(rng):
    while True:
        inst = random_instance(rng, max_pots=3, max_teams=5)
        cs = dl.scenario_constraints(rng.randrange(32))
        if get_skip_engine(inst, cs).feasible:
            return inst, cs


@settings(max_examples=30, deadline=None)
@given(
    case=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**20),
    cuts=st.lists(st.integers(1, 69), max_size=4),
)
def test_skip_results_do_not_depend_on_batch_or_shard_split(case, seed, cuts):
    inst, cs = _feasible_skip_case(random.Random(case))
    engine = get_skip_engine(inst, cs)
    T = 70
    bounds = [0] + sorted(set(cuts)) + [T]
    spans = list(zip(bounds, bounds[1:]))
    whole = engine.run_trials(seed, 0, T)
    assert (np.vstack([engine.run_trials(seed, a, b) for a, b in spans]) == whole).all()
    # a single draw is the same trial as its row of a batch
    t = bounds[1] - 1
    out = dl.draw_trial(inst, cs, "skip", seed, t)
    assert _pos_to_assignment(inst, whole[t].tolist()) == out.assignment
    # shard counters merge to the serial ones
    task = (inst, cs.scenario, "skip", seed)
    serial = _run_shard(task + (0, T, DEFAULT_PROPOSAL_CAP))
    merged = _merge_shards([_run_shard(task + (a, b, DEFAULT_PROPOSAL_CAP)) for a, b in spans])
    assert (serial[0] == merged[0]).all() and serial[1] == merged[1] == T
    assert np.trim_zeros(serial[2], "b").tolist() == np.trim_zeros(merged[2], "b").tolist()


def test_skip_transition_table_is_built_whole_and_deterministic(ihf):
    # two fresh engines build the same table, and positions do not depend on
    # what the engine drew before
    rng = random.Random(12)
    while True:
        inst = random_instance(rng, max_pots=4, max_teams=6)
        cs = dl.scenario_constraints(rng.randrange(1, 32))
        if get_skip_engine(inst, cs).feasible:
            break
    cases = [(ihf, dl.scenario_constraints(31)), (inst, cs)]

    def fresh_engine(i, c):
        get_skip_engine.cache_clear()
        feasibility.get_checker.cache_clear()
        return get_skip_engine(i, c)

    for i, c in cases:
        a, b = fresh_engine(i, c), fresh_engine(i, c)
        assert a is not b
        assert [t.tobytes() for t in a._tabs] == [t.tobytes() for t in b._tabs]
        assert a._cols.tobytes() == b._cols.tobytes()
        # every level's last column is the failures of the signatures without a success
        assert all((t[:, -1] == -1).all() for t in a._tabs)
    cold = [fresh_engine(i, c).run_trials(3, 1000, 1400).tobytes() for i, c in cases]
    for i, c in cases:
        engine = get_skip_engine(i, c)
        engine.run_trials(8, 0, 1500)
        engine.run_trials(3, 1200, 1900)
        for t in range(5):
            dl.draw_trial(i, c, "skip", 4, t)
    warm = [get_skip_engine(i, c).run_trials(3, 1000, 1400).tobytes() for i, c in cases]
    assert warm == cold


@pytest.mark.parametrize(
    "scenario, states, attempts, succeed",
    [
        (0, 57, 104, 80),
        (1, 156, 414, 320),
        (17, 410, 1913, 1337),
        (30, 5307, 55894, 41016),
        (31, 3772, 39483, 24469),
    ],
)
def test_skip_transition_graph_sizes(ihf, scenario, states, attempts, succeed):
    # completable canonical states and their attempts below the empty state.
    # Full groups that meet every band's lo share one closed signature, so
    # these are not breadth-first counts over the groups' own signatures,
    # which gave s17 536 / 2477 / 1700, s30 30871 / 226417 / 162184 and s31
    # 12222 / 101475 / 62009 (s0 and s1 have no full groups that differ)
    engine = get_skip_engine(ihf, dl.scenario_constraints(scenario))
    checker = engine.checker
    root = checker.state_of(dl.Assignment.empty(ihf))
    _, levels, comp = checker._build(*root)
    # an attempt: a distinct open signature of a completable state, with a type its pot holds
    assert sum(np.count_nonzero(c[lv[0]]) for c, lv in zip(comp, levels)) == attempts
    tabs = engine._tabs
    assert sum(np.count_nonzero(t >= 0) for t in tabs) == succeed
    # one table row per completable state below the leaves, and every
    # state but the root is some success's child, numbered densely by level
    leaves = (tabs[-1].max() >> engine._bits) + 1
    assert sum(t.shape[0] for t in tabs) + leaves == states == sum(c.sum() for c in comp)
    for t, below in zip(tabs, tabs[1:]):
        assert np.unique(t[t >= 0] >> engine._bits).tolist() == list(range(below.shape[0]))
    # the states that pass the band prune, completable or not: a looser prune
    # keeps more of them, though it leaves the tables as they are
    built = {0: 57, 1: 156, 17: 411, 30: 5410, 31: 3819}[scenario]
    assert sum(c.size for c in comp) == built


def _table_bytes(engine):
    return sum(t.nbytes for t in engine._tabs) + engine._cols.nbytes


def test_skip_tables_memory(ihf):
    # bytes an engine keeps for its tables; the sorted code table they
    # replaced kept 16 B per attempt, 631 728 B at s31 and 6 345 312 B over
    # all 32 scenarios, and the dense tables may take at most 1.25 times that
    engines = [SkipEngine(ihf, dl.scenario_constraints(s)) for s in range(32)]
    assert _table_bytes(engines[31]) == 774_056
    assert sum(_table_bytes(e) for e in engines) == 7_810_724


def test_skip_dead_end_raises(ihf):
    # np.take wraps a -1 index, so only the kernel's check turns a step with
    # no successful group into an error rather than a wrong group
    engine = SkipEngine(ihf, dl.scenario_constraints(31))
    keys = trial_keys(cell_key(3, "skip", 31), np.arange(4, dtype=np.uint64))
    orders = engine.draw_orders(keys)
    engine.place_orders(orders)
    # at the root every group has the empty signature, so the type of trial
    # 0's first team has one success there, and trial 0 relies on it
    entries = engine._tabs[0][0, :, engine.team_type[orders[0, 0, 0]]]
    assert np.count_nonzero(entries >= 0) == 1
    entries[entries >= 0] = -1
    with pytest.raises(dl.InfeasibleScenarioError, match="dead end"):
        engine.place_orders(orders)


# ---------------------------------------------------------------------------
# per-trial determinism
# ---------------------------------------------------------------------------


def test_draw_trial_deterministic(ihf):
    cs = dl.scenario_constraints(31)
    for mech in ("uniform", "skip"):
        a = dl.draw_trial(ihf, cs, mech, 77, 5)
        b = dl.draw_trial(ihf, cs, mech, 77, 5)
        assert a.assignment == b.assignment
        assert a.proposals_used == b.proposals_used
        assert a.trace == b.trace


def test_draw_trial_streams_are_independent(ihf):
    cs = dl.scenario_constraints(0)
    outcomes = {
        dl.draw_trial(ihf, cs, "uniform", 77, t).assignment.as_tuple() for t in range(30)
    }
    assert len(outcomes) == 30
    # different mechanisms see different streams too
    u = dl.draw_trial(ihf, cs, "uniform", 77, 0).assignment
    s = dl.draw_trial(ihf, cs, "skip", 77, 0).assignment
    assert u != s


def test_draw_trial_unknown_mechanism(ihf):
    with pytest.raises(ValueError):
        dl.draw_trial(ihf, dl.scenario_constraints(0), "drop", 1, 0)


def test_scenario0_pair_frequencies_uniform(ihf):
    result = dl.run_scenario(ihf, 0, "uniform", 10000, seed=13)
    mats = dl.result_matrices(result, ihf)
    sigma = math.sqrt(0.125 * 0.875 / result.trials)
    for pair in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        M = mats.matrix(*pair)
        assert np.abs(M - 0.125).max() < 5 * sigma, pair
