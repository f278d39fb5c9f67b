import random

import numpy as np
import pytest

import drawlab as dl
from drawlab.errors import IncompleteAssignmentError
from drawlab.feasibility import CompletabilityChecker, _row_keys, constraint_bands, get_checker
from drawlab.oracle import _Rules, _naive_completable

from conftest import many_groups_instance, random_instance


def canonical_assignment(ihf):
    """Deterministic complete assignment with hand-computed properties.

    Group 0 collects four Europeans, group 2 two Asians, group 3 two South
    Americans, group 7 three Africans and a single European; the eight
    host-excluded teams all sit in different groups.
    """
    by_group = {
        0: ("Denmark", "Portugal", "Poland", "Switzerland"),
        1: ("France", "Croatia", "North Macedonia", "Bahrain"),
        2: ("Sweden", "Czechia", "Qatar", "Kuwait"),
        3: ("Germany", "Iceland", "Brazil", "Chile"),
        4: ("Hungary", "Netherlands", "Argentina", "Tunisia"),
        5: ("Slovenia", "Spain", "Cuba", "Cape Verde"),
        6: ("Norway", "Italy", "Japan", "United States"),
        7: ("Egypt", "Austria", "Algeria", "Guinea"),
    }
    asg = dl.Assignment.empty(ihf)
    for g, names in by_group.items():
        for nm in names:
            asg.place(ihf, ihf.team(nm).id, g)
    return asg


def test_check_full_flags_expected_violations(ihf):
    asg = canonical_assignment(ihf)
    violations = dl.check_full(ihf, dl.scenario_constraints(31), asg)
    tags = sorted((v.constraint, v.group) for v in violations)
    assert tags == [("A", 7), ("B", 2), ("D", 3), ("E", 0), ("E", 7)]


def test_check_full_scenario0_only_hosts_matter(ihf):
    asg = canonical_assignment(ihf)
    assert dl.check_full(ihf, dl.scenario_constraints(0), asg) == []


def test_host_violation_in_every_scenario(ihf):
    asg = canonical_assignment(ihf)
    # swap Croatia into Denmark's group: two excluded teams together
    croatia, portugal = ihf.team("Croatia").id, ihf.team("Portugal").id
    asg.slots[1][0], asg.slots[1][1] = croatia, portugal
    for scenario in (0, 17, 31):
        violations = dl.check_full(ihf, dl.scenario_constraints(scenario), asg)
        assert any(v.constraint == "HOST" and v.group == 0 for v in violations)


def test_check_full_requires_complete(ihf):
    with pytest.raises(IncompleteAssignmentError):
        dl.check_full(ihf, dl.scenario_constraints(0), dl.Assignment.empty(ihf))


def test_check_partial_upper_bound(ihf):
    asg = dl.Assignment.empty(ihf)
    asg.place(ihf, ihf.team("Egypt").id, 0)
    asg.place(ihf, ihf.team("Algeria").id, 0)
    violations = dl.check_partial(ihf, dl.scenario_constraints(16), asg)
    assert [(v.constraint, v.group) for v in violations] == [("A", 0)]
    # without constraint A the same state is fine
    assert dl.check_partial(ihf, dl.scenario_constraints(0), asg) == []


def test_check_partial_unreachable_lower_bound(ihf):
    asg = dl.Assignment.empty(ihf)
    for nm in ("Egypt", "Portugal", "Cuba", "Bahrain"):
        asg.place(ihf, ihf.team(nm).id, 0)
    violations = dl.check_partial(ihf, dl.scenario_constraints(1), asg)
    assert [(v.constraint, v.group) for v in violations] == [("E", 0)]
    # with a slot still open the bound is reachable, so no violation yet
    asg2 = dl.Assignment.empty(ihf)
    for nm in ("Egypt", "Portugal", "Cuba"):
        asg2.place(ihf, ihf.team(nm).id, 0)
    assert dl.check_partial(ihf, dl.scenario_constraints(1), asg2) == []


def test_check_partial_empty_assignment(ihf):
    asg = dl.Assignment.empty(ihf)
    assert dl.check_partial(ihf, dl.scenario_constraints(31), asg) == []


def test_count_unattractive_hand_computed(ihf):
    asg = canonical_assignment(ihf)
    # per group: 6 + 3 + 2 + 2 + 1 + 1 + 1 + 3
    assert dl.count_unattractive(ihf, asg) == 19


def test_count_unattractive_four_europeans_is_six():
    inst = dl.build_instance(
        [
            [("e1", "Europe"), ("x1", "Africa")],
            [("e2", "Europe"), ("x2", "Asia")],
            [("e3", "Europe"), ("x3", "North America")],
            [("e4", "Europe"), ("x4", "South America")],
        ]
    )
    asg = dl.Assignment.empty(inst)
    for k in range(4):
        asg.place(inst, 2 * k, 0)  # all Europeans together
        asg.place(inst, 2 * k + 1, 1)
    assert dl.count_unattractive(inst, asg) == 6


def test_count_unattractive_all_separated_is_zero(example1):
    # {1,6}, {2,4}, {3,5}: every group mixes confederations
    asg = dl.Assignment.empty(example1)
    for tid, g in ((0, 0), (1, 1), (2, 2), (5, 0), (3, 1), (4, 2)):
        asg.place(example1, tid, g)
    assert dl.count_unattractive(example1, asg) == 0


def test_count_unattractive_invariant_under_relabelling(ihf):
    asg = canonical_assignment(ihf)
    perm = [3, 1, 4, 0, 6, 2, 7, 5]
    relabelled = dl.Assignment(asg.m, asg.n)
    for k in range(asg.m):
        for g in range(asg.n):
            relabelled.slots[k][perm[g]] = asg.slots[k][g]
    assert dl.count_unattractive(ihf, relabelled) == dl.count_unattractive(ihf, asg)


def test_count_unattractive_requires_complete(ihf):
    with pytest.raises(IncompleteAssignmentError):
        dl.count_unattractive(ihf, dl.Assignment.empty(ihf))


def test_completable_worked_example(example1, example1_constraints):
    # pots I: teams 1-3 (ids 0-2), II: teams 4-6 (ids 3-5); groups A,B,C
    base = dl.Assignment.empty(example1)
    for tid, g in ((0, 0), (1, 1), (2, 2), (3, 1)):
        base.place(example1, tid, g)
    five_in_a = base.copy()
    five_in_a.place(example1, 4, 0)
    assert not dl.completable(example1, example1_constraints, five_in_a)
    five_in_c = base.copy()
    five_in_c.place(example1, 4, 2)
    assert dl.completable(example1, example1_constraints, five_in_c)


def test_completable_complete_and_empty(ihf, example1, example1_constraints):
    asg = canonical_assignment(ihf)
    assert dl.completable(ihf, dl.scenario_constraints(0), asg)
    # a complete assignment violating a constraint is not completable
    assert not dl.completable(ihf, dl.scenario_constraints(31), asg)
    assert dl.completable(example1, example1_constraints, dl.Assignment.empty(example1))


def test_completable_empty_canonical_all_constraints(ihf):
    assert dl.completable(ihf, dl.scenario_constraints(31), dl.Assignment.empty(ihf))


def _random_partial(rng, inst, cs, depth=None):
    """Random check_partial-clean partial assignment (may be a dead end)."""
    asg = dl.Assignment.empty(inst)
    teams = [t.id for t in inst.teams]
    rng.shuffle(teams)
    target = depth if depth is not None else rng.randrange(len(teams) + 1)
    placed = 0
    for tid in teams:
        if placed >= target:
            break
        pot = inst.pot_of(tid)
        groups = [g for g in range(inst.n) if asg.slots[pot - 1][g] == -1]
        rng.shuffle(groups)
        for g in groups:
            asg.place(inst, tid, g)
            if dl.check_partial(inst, cs, asg):
                asg.slots[pot - 1][g] = -1
                continue
            placed += 1
            break
    return asg


def _naive_state(inst, asg):
    groups = [[tid for tid in asg.group_members(g)] for g in range(inst.n)]
    todo = []
    for k in range(inst.m):
        for g_tid in inst.pot_teams(k + 1):
            if asg.find(g_tid.id) is None:
                todo.append((k, g_tid.id))
    return groups, todo


def _any_partial(rng, inst):
    """Random partial assignment, whether or not it already breaks a band."""
    asg = dl.Assignment.empty(inst)
    share = rng.random()
    for k in range(inst.m):
        ids = [t.id for t in inst.pot_teams(k + 1)]
        rng.shuffle(ids)
        asg.slots[k] = [tid if rng.random() < share else -1 for tid in ids]
    return asg


def test_completable_matches_brute_force():
    rng = random.Random(424242)
    checked = broken = 0
    while checked < 1500:  # 100 instances
        inst = random_instance(rng, max_pots=3, max_teams=4)
        scenario = rng.randrange(32)
        cs = dl.scenario_constraints(scenario)
        # clean partials, and partials that may already break a band
        for asg in [_random_partial(rng, inst, cs) for _ in range(10)] + [
            _any_partial(rng, inst) for _ in range(5)
        ]:
            got = dl.completable(inst, cs, asg)
            groups, todo = _naive_state(inst, asg)
            expect = _naive_completable(_Rules(inst, cs), groups, todo)
            assert got == expect, (inst.to_document(), scenario, asg.slots)
            checked += 1
            broken += bool(dl.check_partial(inst, cs, asg))
    assert broken > 100


def test_completable_matches_brute_force_on_deep_skip_partials(ihf):
    # Skip draws with their last teams blanked, and each way to place the
    # next of those teams again, against the plain search of the oracle
    cs = dl.scenario_constraints(31)
    rules = _Rules(ihf, cs)
    rng = random.Random(31)
    verdicts = set()
    for t in range(12):
        trace = dl.draw_trial(ihf, cs, "skip", 9, t).trace
        blank = rng.randint(1, 6)
        asg = dl.Assignment.empty(ihf)
        for tid, g, _ in trace[:-blank]:
            asg.place(ihf, tid, g)
        tid = trace[-blank][0]
        pot = ihf.pot_of(tid)
        cases = [asg]
        for g in range(ihf.n):
            if asg.slots[pot - 1][g] == -1:
                child = asg.copy()
                child.place(ihf, tid, g)
                cases.append(child)
        for case in cases:
            got = dl.completable(ihf, cs, case)
            assert got == _naive_completable(rules, *_naive_state(ihf, case)), case.slots
            verdicts.add(got)
    assert verdicts == {True, False}


def test_band_prune_counts_a_slot_only_while_its_pot_holds_band_teams():
    # The states that pass the prune, completable or not.  A looser prune
    # that counts each group's open slot in the current pot for every band,
    # even once that pot holds no more of the band's teams, keeps 16 and 23.
    inst = dl.build_instance(
        [
            [("t0", "Europe"), ("t1", "Africa"), ("t2", "Asia")],
            [("t3", "Europe"), ("t4", "Asia"), ("t5", "Europe")],
            [("t6", "Europe"), ("t7", "Europe"), ("t8", "Europe")],
        ],
        europe="Europe",
    )
    for scenario, built in ((1, 15), (17, 21)):
        checker = CompletabilityChecker(inst, dl.scenario_constraints(scenario))
        root = checker.state_of(dl.Assignment.empty(inst))
        assert sum(c.size for c in checker._build(*root)[2]) == built, scenario


def test_completable_matches_brute_force_with_many_groups():
    # 24 groups.  Every group needs a second European from pot 2 or 3; some
    # ways to place a blanked pot-3 team leave a group without one.
    inst = many_groups_instance()
    n = inst.n
    cs = dl.scenario_constraints(31)
    rules = _Rules(inst, cs)
    rng = random.Random(7)
    verdicts = set()
    for _ in range(6):
        asg = dl.Assignment.empty(inst)
        for k in range(2):
            ids = [t.id for t in inst.pot_teams(k + 1)]
            rng.shuffle(ids)
            asg.slots[k] = ids
        last = {True: [], False: []}
        for t in inst.pot_teams(3):
            last[t.confederation == inst.europe].append(t.id)
        for g in range(n):
            european = inst.teams[asg.slots[1][g]].confederation == inst.europe
            asg.slots[2][g] = last[not european].pop()
        assert not dl.check_full(inst, cs, asg)
        blank = rng.sample(range(n), rng.randint(2, 5))
        tid = asg.slots[2][blank[0]]
        for g in blank:
            asg.slots[2][g] = -1
        cases = [asg]
        for g in blank:
            child = asg.copy()
            child.place(inst, tid, g)
            cases.append(child)
        for case in cases:
            got = dl.completable(inst, cs, case)
            assert got == _naive_completable(rules, *_naive_state(inst, case)), case.slots
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("top", [3, 300, 70_000])
def test_row_keys_sort_like_the_rows(top):
    # the builder numbers a level's children in key order, which must be the
    # rows' numeric order whatever byte width their largest value needs
    rng = np.random.default_rng(top)
    pool = rng.integers(0, top + 1, size=(50, 4))
    pool[0, 3] = top
    pick = rng.integers(0, 50, size=300)
    counts = rng.integers(0, 3, size=(50, 2)).astype(np.uint8)[pick]
    rows = pool[pick]
    got = np.unique(_row_keys(counts, rows), return_index=True, return_inverse=True)
    want = np.unique(np.hstack([counts, rows]), axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2].ravel(), want[2].ravel())
    assert _row_keys(counts[:0], rows[:0]).size == 0


def test_place_sig_gives_full_groups_that_meet_every_lo_one_closed_signature(ihf):
    cs = dl.scenario_constraints(31)  # E keeps two or three Europeans in a group
    checker = CompletabilityChecker(ihf, cs)

    def fill(names):
        sig = checker.empty_group_sig
        for k, name in enumerate(names):
            sig = checker.place_sig(sig, checker.team_type[ihf.team(name).id], k)
        return sig

    closed = checker.closed_sig
    assert fill(("Denmark", "Portugal", "Qatar", "Tunisia")) == closed
    assert fill(("Denmark", "Portugal", "Poland", "Tunisia")) == closed  # three Europeans
    assert fill(("Germany", "Iceland", "Brazil", "Kuwait")) == closed
    # one European: the group keeps its own signature, and no state holding it completes
    broken = fill(("Egypt", "Portugal", "Qatar", "Chile"))
    assert broken is not None and broken != closed
    assert broken < 1 << checker.open_shift  # no open slot
    asg = dl.Assignment.empty(ihf)
    for name in ("Egypt", "Portugal", "Qatar", "Chile"):
        asg.place(ihf, ihf.team(name).id, 0)
    sigs, remaining = checker.state_of(asg)
    assert broken in sigs
    assert not checker.completable_state(sigs, remaining)
    # the closed signature takes no further team
    assert all(
        checker.place_sig(closed, tc, k) is None
        for tc in range(checker.ntypes)
        for k in range(ihf.m)
    )
    # every group of a valid complete assignment is closed
    valid = dl.draw_trial(ihf, cs, "skip", 1, 0).assignment
    assert checker.state_of(valid)[0] == (closed,) * ihf.n


def test_completable_has_a_completable_extension():
    rng = random.Random(99)
    for _ in range(60):
        inst = random_instance(rng, max_pots=3, max_teams=4)
        cs = dl.scenario_constraints(rng.randrange(32))
        asg = _random_partial(rng, inst, cs)
        if not dl.completable(inst, cs, asg) or asg.is_complete():
            continue
        found = False
        for t in inst.teams:
            if asg.find(t.id) is not None:
                continue
            for g in range(inst.n):
                if asg.slots[t.pot - 1][g] != -1:
                    continue
                child = asg.copy()
                child.place(inst, t.id, g)
                if not dl.check_partial(inst, cs, child) and dl.completable(inst, cs, child):
                    found = True
                    break
            if found:
                break
        assert found


def test_checks_agree_with_oracle_rules():
    """check_partial/check_full flag exactly the groups the oracle's rules reject."""
    rng = random.Random(20251019)
    for case in range(2000):
        inst = random_instance(rng, max_pots=4, max_teams=5)
        cs = dl.scenario_constraints(case % 32)
        rules = _Rules(inst, cs)
        full = dl.Assignment.empty(inst)
        for k in range(inst.m):
            ids = [t.id for t in inst.pot_teams(k + 1)]
            rng.shuffle(ids)
            full.slots[k] = ids
        expect = {g for g in range(inst.n) if not rules.group_ok_full(full.group_members(g))}
        assert {v.group for v in dl.check_full(inst, cs, full)} == expect
        partial = full.copy()
        keep = rng.random()
        for row in partial.slots:
            for g in range(inst.n):
                if rng.random() > keep:
                    row[g] = -1
        flagged = {v.group for v in dl.check_partial(inst, cs, partial)}
        expect = set()
        for g in range(inst.n):
            members = partial.group_members(g)
            if not rules.group_ok_partial(members, inst.m - len(members)):
                expect.add(g)
        assert flagged == expect, (inst.to_document(), cs.scenario, partial.slots)


def test_constraint_bands_of_ihf2025(ihf):
    bands = constraint_bands(ihf, dl.scenario_constraints(31))
    assert [(b.letter, b.label, b.lo, b.hi) for b in bands] == [
        ("A", "Africa", 0, 1),
        ("B", "Asia", 0, 1),
        ("C", "North America", 0, 1),
        ("D", "South America", 0, 1),
        ("E", "Europe", 2, 3),
        ("HOST", "host-excluded", 0, 1),
    ]
    assert bands[4].teams == {t.id for t in ihf.teams if t.confederation == ihf.europe}
    assert bands[5].teams == ihf.host_exclusion
    # scenario 0 keeps only the host rule; a missing confederation drops its band
    assert [b.letter for b in constraint_bands(ihf, dl.scenario_constraints(0))] == ["HOST"]
    inst = dl.build_instance([[("a", "Africa"), ("b", "Europe")], [("c", "Asia"), ("d", "Europe")]])
    assert [b.letter for b in constraint_bands(inst, dl.scenario_constraints(31))] == ["A", "B"]


def test_checker_cache_is_bounded_and_reuses_checkers():
    rng = random.Random(5)
    for _ in range(100):
        get_checker(random_instance(rng), dl.scenario_constraints(rng.randrange(32)))
    assert get_checker.cache_info().currsize <= 64
    inst = random_instance(rng)
    assert get_checker(inst, dl.scenario_constraints(17)) is get_checker(
        inst, dl.scenario_constraints(17)
    )
