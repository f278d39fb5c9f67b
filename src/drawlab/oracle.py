"""Exact ground truth for small instances, by brute force.

These enumerators are deliberately naive re-statements of the draw rules:
they iterate every per-pot permutation (uniform) or every per-pot draw
order (skip), apply the definitions directly, and count.  They share no
search machinery with the production mechanisms, which is what makes them
usable as independent oracles in the tests.  The same plain loops also
restate single draws: ``_naive_uniform_trial`` reads a trial's stream words
in the production word layout, and ``_naive_skip_place`` places pinned draw
orders; both take validity from ``_Rules`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from .errors import EnumerationBudgetError, InfeasibleScenarioError, ProposalBudgetError
from .metrics import PairMatrixSet, hhi_index, inequality, pot_pairs
from .model import ConstraintSet, EUROPE_BOUNDS, Instance, UPPER_BOUND_BINDINGS

DEFAULT_ENUMERATION_BUDGET = 10**7


@dataclass
class ExactDistribution:
    """Exact outcome distribution of one mechanism on a small instance."""

    mechanism: str
    classes: dict  # co-membership partition -> Fraction probability
    matrices: PairMatrixSet
    i_hat: Fraction
    inequality: Fraction
    denominator: int  # equally likely elementary outcomes
    unattractive_hist: dict  # match count -> Fraction probability
    mean_unattractive: Fraction
    feasible_count: int | None = None  # uniform only
    baseline_count: int | None = None  # host-feasible assignments (uniform only)

    @property
    def feasible_proportion(self) -> Fraction | None:
        if self.feasible_count is None or not self.baseline_count:
            return None
        return Fraction(self.feasible_count, self.baseline_count)


class _Rules:
    """Plain-loop restatement of the constraint definitions."""

    def __init__(self, instance: Instance, constraints: ConstraintSet):
        self.instance = instance
        self.n = instance.n
        self.m = instance.m
        self.conf = [t.confederation for t in instance.teams]
        self.bound = []
        for letter in "ABCD":
            if letter in constraints:
                c = instance.confederation_named(UPPER_BOUND_BINDINGS[letter])
                if c is not None:
                    self.bound.append(c.id)
        self.europe = instance.europe if "E" in constraints else None
        self.lo, self.hi = EUROPE_BOUNDS
        self.host = instance.host_exclusion

    def group_ok_full(self, members) -> bool:
        """Valid completed group (one member per pot)."""
        by_conf = {}
        hosts = 0
        for tid in members:
            c = self.conf[tid]
            by_conf[c] = by_conf.get(c, 0) + 1
            if tid in self.host:
                hosts += 1
        if hosts > 1:
            return False
        for c in self.bound:
            if by_conf.get(c, 0) > 1:
                return False
        if self.europe is not None:
            e = by_conf.get(self.europe, 0)
            if e < self.lo or e > self.hi:
                return False
        return True

    def host_ok(self, members) -> bool:
        return sum(1 for tid in members if tid in self.host) <= 1

    def group_ok_partial(self, members, open_slots) -> bool:
        """No forced violation in a partially filled group."""
        by_conf = {}
        hosts = 0
        for tid in members:
            c = self.conf[tid]
            by_conf[c] = by_conf.get(c, 0) + 1
            if tid in self.host:
                hosts += 1
        if hosts > 1:
            return False
        for c in self.bound:
            if by_conf.get(c, 0) > 1:
                return False
        if self.europe is not None:
            e = by_conf.get(self.europe, 0)
            if e > self.hi or e + open_slots < self.lo:
                return False
        return True

    def unattractive(self, members_by_group) -> int:
        total = 0
        for members in members_by_group:
            by_conf = {}
            for tid in members:
                c = self.conf[tid]
                by_conf[c] = by_conf.get(c, 0) + 1
            total += sum(t * (t - 1) // 2 for t in by_conf.values())
        return total


class _Tally:
    """Class counts, pair-matrix counts and unattractive histogram."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.classes = {}
        self.pair_counts = {
            pair: [[0] * instance.n for _ in range(instance.n)]
            for pair in pot_pairs(instance.m)
        }
        self.hist = {}
        self.total = 0

    def add(self, grid, rules: _Rules) -> None:
        """grid[k][g] = team id occupying (pot k+1, group g)."""
        inst = self.instance
        n = inst.n
        groups = [tuple(sorted(grid[k][g] for k in range(inst.m))) for g in range(n)]
        key = tuple(sorted(groups))
        self.classes[key] = self.classes.get(key, 0) + 1
        for (k, l), mat in self.pair_counts.items():
            ra, rb = grid[k - 1], grid[l - 1]
            for g in range(n):
                mat[ra[g] % n][rb[g] % n] += 1
        u = rules.unattractive(groups)
        self.hist[u] = self.hist.get(u, 0) + 1
        self.total += 1

    def finish(self, mechanism, denominator, **extra) -> ExactDistribution:
        inst = self.instance
        names = tuple(
            tuple(t.name for t in inst.pot_teams(k)) for k in range(1, inst.m + 1)
        )
        mats = {}
        for pair, mat in self.pair_counts.items():
            mats[pair] = np.array(
                [[Fraction(c, denominator) for c in row] for row in mat], dtype=object
            )
        matrices = PairMatrixSet(inst.m, inst.n, mats, "exact", names)
        i_hat = hhi_index(matrices)
        hist = {u: Fraction(c, denominator) for u, c in sorted(self.hist.items())}
        mean = sum(Fraction(u * c, denominator) for u, c in self.hist.items())
        return ExactDistribution(
            mechanism=mechanism,
            classes={k: Fraction(c, denominator) for k, c in self.classes.items()},
            matrices=matrices,
            i_hat=i_hat,
            inequality=inequality(i_hat, inst.n),
            denominator=denominator,
            unattractive_hist=hist,
            mean_unattractive=mean,
            **extra,
        )


def _assignment_space(instance: Instance) -> int:
    return math.factorial(instance.n) ** instance.m


def enumerate_uniform(
    instance: Instance,
    constraints: ConstraintSet,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ExactDistribution:
    """Exact uniform-mechanism distribution over all valid assignments.

    The feasible proportion is reported against the host-feasible baseline,
    matching what the rejection sampler estimates.
    """
    total = _assignment_space(instance)
    if total > budget:
        raise EnumerationBudgetError(
            f"{total} assignments exceed the enumeration budget of {budget}"
        )
    rules = _Rules(instance, constraints)
    n, m = instance.n, instance.m
    tally = _Tally(instance)
    feasible = 0
    baseline = 0
    pot_ids = [[t.id for t in instance.pot_teams(k)] for k in range(1, m + 1)]
    for perms in product(*(permutations(ids) for ids in pot_ids)):
        members = [[perms[k][g] for k in range(m)] for g in range(n)]
        if not all(rules.host_ok(ms) for ms in members):
            continue
        baseline += 1
        if all(rules.group_ok_full(ms) for ms in members):
            feasible += 1
            tally.add(perms, rules)
    if feasible == 0:
        raise InfeasibleScenarioError(
            f"no valid assignment exists for scenario {constraints.scenario}"
        )
    return tally.finish(
        "uniform", feasible, feasible_count=feasible, baseline_count=baseline
    )


def _naive_completable(rules: _Rules, groups, todo) -> bool:
    """Can the remaining (pot, team) list be placed to finish validly?"""
    if not todo:
        return all(rules.group_ok_full(ms) for ms in groups)
    n = rules.n
    pot, tid = todo[0]
    rest = todo[1:]
    filled = {g for g, ms in enumerate(groups) if any(t // n == pot for t in ms)}
    for g in range(n):
        if g in filled:
            continue
        members = groups[g] + [tid]
        open_slots = rules.m - len(members)
        if not rules.group_ok_partial(members, open_slots):
            continue
        groups[g] = members
        if _naive_completable(rules, groups, rest):
            groups[g] = members[:-1]
            return True
        groups[g] = members[:-1]
    return False


def _pick(stream, tids, pool, pos) -> None:
    """Place ``tids`` in turn into groups drawn from ``pool`` by pick-and-swap."""
    size = len(pool)
    for tid in tids:
        j = stream.next_word() % size
        pos[tid] = pool[j]
        size -= 1
        pool[j] = pool[size]


def _naive_uniform_trial(rules: _Rules, stream):
    """Uniform rejection draw by direct restatement: (pos, proposals used).

    Each proposal reads m*n words of ``stream``: one per host team in id
    order, picking among the groups no other host team holds, then one per
    other team, pot by pot in id order, picking among the groups its pot's
    host teams left open, in ascending order.  The first proposal whose
    every group is valid is accepted, within the enumeration budget.
    """
    n, m = rules.n, rules.m
    for p in range(1, DEFAULT_ENUMERATION_BUDGET + 1):
        pos = [-1] * (m * n)
        _pick(stream, sorted(rules.host), list(range(n)), pos)
        for k in range(m):
            pot = range(k * n, (k + 1) * n)
            taken = {pos[t] for t in pot}
            open_groups = [g for g in range(n) if g not in taken]
            _pick(stream, [t for t in pot if pos[t] == -1], open_groups, pos)
        groups = [[t for t in range(m * n) if pos[t] == g] for g in range(n)]
        if all(rules.group_ok_full(ms) for ms in groups):
            return pos, p
    raise ProposalBudgetError(f"no valid assignment in {DEFAULT_ENUMERATION_BUDGET} proposals")


def _naive_skip_place(rules: _Rules, orders):
    """Skip placement by direct restatement: first group that stays completable."""
    n, m = rules.n, rules.m
    grid = [[-1] * n for _ in range(m)]
    groups = [[] for _ in range(n)]
    for k in range(m):
        for t_pos, tid in enumerate(orders[k]):
            later = [(k, t) for t in orders[k][t_pos + 1 :]] + [
                (kk, t)
                for kk in range(k + 1, m)
                for t in range(kk * n, (kk + 1) * n)
            ]
            placed = False
            for g in range(n):
                if grid[k][g] != -1:
                    continue
                members = groups[g] + [tid]
                if not rules.group_ok_partial(members, m - len(members)):
                    continue
                groups[g] = members
                if _naive_completable(rules, groups, later):
                    grid[k][g] = tid
                    placed = True
                    break
                groups[g] = members[:-1]
            if not placed:
                raise InfeasibleScenarioError("skip placement has no viable group")
    return grid


def enumerate_skip(
    instance: Instance,
    constraints: ConstraintSet,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ExactDistribution:
    """Exact Skip-mechanism distribution over all per-pot draw orders."""
    total = _assignment_space(instance)
    if total > budget:
        raise EnumerationBudgetError(
            f"{total} draw orders exceed the enumeration budget of {budget}"
        )
    rules = _Rules(instance, constraints)
    tally = _Tally(instance)
    pot_ids = [[t.id for t in instance.pot_teams(k)] for k in range(1, instance.m + 1)]
    for orders in product(*(permutations(ids) for ids in pot_ids)):
        grid = _naive_skip_place(rules, orders)
        tally.add(grid, rules)
    return tally.finish("skip", total)


# ---------------------------------------------------------------------------
# analytic scenario-0 matrices
# ---------------------------------------------------------------------------


def host_feasible_matrices(instance: Instance) -> PairMatrixSet:
    """Exact pair matrices of the host-feasible uniform baseline (scenario 0).

    With the excluded teams pinned to pairwise distinct groups and every
    other slot filled by an independent uniform permutation, the
    co-assignment probability of pot-k team i and pot-l team j depends only
    on exclusion membership: 0 for two excluded teams, 1/(n - h_l) when only
    i is excluded (h_l = excluded teams in pot l), and
    (n - h_k - h_l) / ((n - h_k)(n - h_l)) when neither is.
    """
    n, m = instance.n, instance.m
    excl = instance.host_exclusion
    h = [sum(1 for t in instance.pot_teams(k) if t.id in excl) for k in range(1, m + 1)]
    names = tuple(tuple(t.name for t in instance.pot_teams(k)) for k in range(1, m + 1))
    mats = {}
    for k, l in pot_pairs(m):
        hk, hl = h[k - 1], h[l - 1]
        mat = np.empty((n, n), dtype=object)
        for i, ti in enumerate(instance.pot_teams(k)):
            for j, tj in enumerate(instance.pot_teams(l)):
                i_ex = ti.id in excl
                j_ex = tj.id in excl
                if i_ex and j_ex:
                    p = Fraction(0)
                elif i_ex:
                    p = Fraction(1, n - hl)
                elif j_ex:
                    p = Fraction(1, n - hk)
                else:
                    p = Fraction(n - hk - hl, (n - hk) * (n - hl))
                mat[i, j] = p
        mats[(k, l)] = mat
    return PairMatrixSet(m, n, mats, "exact", names)


def exact_scenario0_matrices(instance: Instance) -> PairMatrixSet:
    """Analytic scenario-0 matrices for the canonical 2025 instance shape."""
    excl = instance.host_exclusion
    h = tuple(
        sum(1 for t in instance.pot_teams(k) if t.id in excl)
        for k in range(1, instance.m + 1)
    )
    if (instance.m, instance.n, h) != (4, 8, (6, 2, 0, 0)):
        raise ValueError(
            "analytic scenario-0 matrices are defined for the canonical instance "
            f"(4 pots x 8 groups, exclusions split 6/2/0/0; got m={instance.m}, "
            f"n={instance.n}, split {h})"
        )
    return host_feasible_matrices(instance)
