"""Constraint bands, constraint checks, unattractive-match counting, and completability.

Every draw constraint is a per-group band lo <= count <= hi on one set of
teams (``constraint_bands``): A-D allow at most one team of a confederation
per group, E keeps two or three European teams in every group, and the host
rule keeps the host-excluded teams in distinct groups.  The checks here,
the Uniform sampler and the completability builder all read the bands;
``oracle`` alone restates the rules independently.

Violations are monotone in the partial order of assignments: placing more
teams can only add forced violations, never remove them.  Completability
(does a valid completion exist?) is decided exactly on the graph of
canonical states below the query's state, built level by level in numpy
and merged by one byte-string key per state; states are canonicalised so
that groups that look alike are interchangeable, and every full group that
meets each band's lo shares one closed signature, since it can take no team
and break no band any more.  That keeps the graph small.  Each level is
pruned with per-pot tables of per-signature band columns, one gather for
all bands.  The same builder, rooted at the empty state, gives the Skip
engine every level's states and attempts, from which it builds its dense
transition tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IncompleteAssignmentError
from .model import (
    Assignment,
    ConstraintSet,
    EUROPE_BOUNDS,
    Instance,
    UPPER_BOUND_BINDINGS,
    composition,
)


@dataclass(frozen=True)
class Violation:
    constraint: str  # "A".."E" or "HOST"
    group: int
    detail: str


@dataclass(frozen=True)
class Band:
    """Every group must hold between ``lo`` and ``hi`` of ``teams`` (team ids)."""

    letter: str  # "A".."E" or "HOST"
    label: str  # what the teams are, for violation details
    teams: frozenset
    lo: int
    hi: int


def constraint_bands(instance: Instance, constraints: ConstraintSet) -> tuple:
    """The scenario's constraints as per-group bands, in the order A-D, E, HOST.

    A-D are [0, 1] on their confederation, E is ``EUROPE_BOUNDS`` on the
    instance's European confederation and HOST is [0, 1] on the
    host-excluded teams.  A constraint whose confederation does not exist in
    the instance is vacuous and dropped, and so is the host rule of an
    instance without host-excluded teams.
    """

    def members(conf: int) -> frozenset:
        return frozenset(t.id for t in instance.teams if t.confederation == conf)

    bands = []
    for letter in "ABCD":
        if letter in constraints:
            conf = instance.confederation_named(UPPER_BOUND_BINDINGS[letter])
            if conf is not None:
                bands.append(Band(letter, conf.name, members(conf.id), 0, 1))
    if "E" in constraints and instance.europe is not None:
        name = instance.confederations[instance.europe].name
        bands.append(Band("E", name, members(instance.europe), *EUROPE_BOUNDS))
    if instance.host_exclusion:
        bands.append(Band("HOST", "host-excluded", instance.host_exclusion, 0, 1))
    return tuple(bands)


def check_full(instance, constraints, assignment) -> list:
    """All violations of a complete assignment (empty list = valid)."""
    if not assignment.is_complete():
        raise IncompleteAssignmentError("check_full requires a complete assignment")
    return check_partial(instance, constraints, assignment)


def check_partial(instance, constraints, assignment) -> list:
    """Violations already forced by the placed teams of a partial assignment.

    A group breaks a band when it holds more than ``hi`` of the band's
    teams, or when its count plus its open slots is below ``lo``.  On a
    complete assignment these are all violations.
    """
    groups = [assignment.group_members(g) for g in range(instance.n)]
    violations = []
    for band in constraint_bands(instance, constraints):
        for g, members in enumerate(groups):
            count = sum(1 for tid in members if tid in band.teams)
            open_slots = instance.m - len(members)
            if count > band.hi or count + open_slots < band.lo:
                violations.append(
                    Violation(
                        band.letter,
                        g,
                        f"{count} {band.label} teams and {open_slots} open slots in "
                        f"group {g} (band {band.lo}..{band.hi})",
                    )
                )
    return violations


def count_unattractive(instance, assignment) -> int:
    """Number of same-confederation pairs in a complete assignment."""
    if not assignment.is_complete():
        raise IncompleteAssignmentError("count_unattractive requires a complete assignment")
    return composition(instance, assignment).unattractive()


# ---------------------------------------------------------------------------
# Completability: the canonical state graph, built level by level in numpy.
#
# A group's constraint-relevant state is packed into one integer, its
# signature: first one counter field per band, in band order and
# hi.bit_length() bits wide, that holds how many of the band's teams the
# group has; then one bit per pot, set while the group's slot for that pot
# is open.  A team's type is the set of bands that contain it.  A full group
# that meets every band's lo has no future, so it gets the one closed
# signature, every counter at its lo; a full group below some lo keeps its
# own, and the prune rejects its state.  Groups with equal signatures are
# interchangeable, so a state is the sorted tuple of group signatures plus
# the remaining team-type counts per pot.  Pots empty in order, so below a
# given root every state of one level draws from the same pot and has the
# same number of teams left in every pot.
# ---------------------------------------------------------------------------

class CompletabilityChecker:
    """Exact completability decisions for one (instance, constraint set)."""

    def __init__(self, instance: Instance, constraints: ConstraintSet):
        self.n = instance.n
        self.m = instance.m
        bands = constraint_bands(instance, constraints)
        # (shift, value mask, lo, hi) of each band's counter field
        self.fields = []
        shift = 0
        for band in bands:
            width = band.hi.bit_length()
            self.fields.append((shift, (1 << width) - 1, band.lo, band.hi))
            shift += width
        self.open_shift = shift

        # team types: the bands containing a team -> dense code
        type_of = {}
        self.type_bands = []  # code -> indices of the bands containing the type
        self.team_type = []
        for t in instance.teams:
            key = tuple(b for b, band in enumerate(bands) if t.id in band.teams)
            if key not in type_of:
                type_of[key] = len(self.type_bands)
                self.type_bands.append(key)
            self.team_type.append(type_of[key])
        self.ntypes = len(self.type_bands)
        self.full_pot_counts = []
        for k in range(1, self.m + 1):
            row = [0] * self.ntypes
            for t in instance.pot_teams(k):
                row[self.team_type[t.id]] += 1
            self.full_pot_counts.append(tuple(row))
        # type x band membership, for the prune's supply counts
        self.band_member = np.array(
            [[b in key for b in range(len(bands))] for key in self.type_bands], dtype=np.int64
        ).reshape(self.ntypes, len(bands))

        self.empty_group_sig = ((1 << self.m) - 1) << self.open_shift
        self.closed_sig = sum(lo << shift for shift, _, lo, _ in self.fields)
        self._memo = {}  # root state -> completable

    def place_sig(self, sig: int, type_code: int, pot_idx: int):
        """Group state after placing a team type, or None on a taken slot or a broken hi.

        A group that this fills and that meets every band's lo gets ``closed_sig``.
        """
        open_bit = 1 << (self.open_shift + pot_idx)
        if not sig & open_bit:
            return None
        result = sig & ~open_bit
        for b in self.type_bands[type_code]:
            shift, mask, _, hi = self.fields[b]
            if sig >> shift & mask >= hi:
                return None
            result += 1 << shift
        full = not result >> self.open_shift
        if full and all(result >> shift & mask >= lo for shift, mask, lo, _ in self.fields):
            return self.closed_sig
        return result

    def state_of(self, assignment: Assignment):
        """Canonical (group sigs, remaining type counts) of a partial assignment."""
        sigs = [self.empty_group_sig] * self.n
        remaining = [list(row) for row in self.full_pot_counts]
        for k in range(self.m):
            for g, tid in enumerate(assignment.slots[k]):
                if tid == -1:
                    continue
                tc = self.team_type[tid]
                sig = self.place_sig(sigs[g], tc, k)
                if sig is None:
                    return None  # already breaks an upper bound
                sigs[g] = sig
                remaining[k][tc] -= 1
        return tuple(sorted(sigs)), tuple(tuple(r) for r in remaining)

    def completable_state(self, sigs, remaining) -> bool:
        """True iff a canonical state has a valid completion; memoised per root."""
        key = (sigs, remaining)
        if key not in self._memo:
            self._memo[key] = bool(self._build(sigs, remaining)[2][0].any())
        return self._memo[key]

    # -- the builder ------------------------------------------------------

    def _signatures(self, sigs, remaining):
        """Every signature reachable from ``sigs``, ascending, and its transitions.

        The pots fill in order, each slot with a type its pot holds.
        Returns (values, trans): trans[k, i, tc] is the index in ``values``
        of signature i after a team of type tc fills its pot-k slot, or -1.
        """
        values = set(sigs)
        for k, row in enumerate(remaining):
            placed = (self.place_sig(v, tc, k) for v in values for tc, c in enumerate(row) if c)
            values |= set(placed) - {None}
        values = sorted(values)
        index = {v: i for i, v in enumerate(values)}
        trans = [
            [[index.get(self.place_sig(v, tc, k), -1) for tc in range(self.ntypes)] for v in values]
            for k in range(self.m)
        ]
        return np.array(values, dtype=np.int64), np.array(trans, np.min_scalar_type(-len(values)))

    def _build(self, sigs, remaining):
        """The graph below one canonical state, one whole level at a time.

        A level's states are rows of sorted signature ids plus the type
        counts left in the level's pot.  The forward pass expands each state
        by every (distinct open signature, type its pot holds), merges equal
        children by one byte-string key per row, in the rows' numeric order,
        and drops the children that fail the band prune.  The backward pass
        marks a leaf completable (at a leaf the prune is the lo check) and
        any other state completable iff one of its children is.

        Returns (values, levels, comp): the signature values by id; per level
        below the last, the attempts (state, signature id, type, new
        signature id or -1, surviving child or -1) of its states; and per
        level which states are completable.
        """
        m, n = self.m, self.n
        vals, trans = self._signatures(sigs, remaining)
        opens = np.zeros((m + 1, vals.size), dtype=np.int8)  # pot m: past the last pot
        opens[:m] = [vals >> (self.open_shift + k) & 1 for k in range(m)]
        full = np.zeros((m + 1, self.ntypes), dtype=np.min_scalar_type(n))
        full[:m] = remaining
        pots = [k for k in range(m) for _ in range(sum(remaining[k]))] + [m]  # pot of each level
        prune = self._prune_tables(vals, opens, full)

        rows = np.searchsorted(vals, sigs).astype(trans.dtype)[None]
        rem = full[pots[0]][None]
        keep = self._bands_hold(rows, rem, *prune[pots[0]])
        rows, rem = rows[keep], rem[keep]
        levels, sizes = [], [len(rows)]
        for k, k2 in zip(pots, pots[1:]):
            distinct = np.diff(rows, axis=1, prepend=-1) != 0  # rows are sorted
            pick = ((opens[k][rows] > 0) & distinct)[:, :, None] & (rem > 0)[:, None, :]
            s, i, tc = np.nonzero(pick)
            sid = rows[s, i]
            new = trans[k, sid, tc]
            ok = new >= 0
            j = np.arange(np.count_nonzero(ok))
            crow, crem = rows[s[ok]], rem[s[ok]]
            crow[j, i[ok]] = new[ok]
            crow.sort(axis=1)
            crem[j, tc[ok]] -= 1
            if k2 != k:  # the pot is empty; the child draws from the next one
                crem += full[k2]
            # one key per child: its counts, last type first, then its row
            key = _row_keys(crem[:, ::-1], crow)
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            crow, crem = crow[first], crem[first]
            keep = self._bands_hold(crow, crem, *prune[k2])
            renumber = np.where(keep, np.cumsum(keep) - 1, -1)
            child = np.full(s.size, -1, dtype=np.int32)
            child[ok] = renumber[inverse]
            levels.append((s.astype(np.int32), sid, tc.astype(np.int8), new, child))
            rows, rem = crow[keep], crem[keep]
            sizes.append(len(rows))

        comp = [np.ones(sizes[-1], dtype=bool)]
        for (s, _, _, _, child), size in zip(reversed(levels), reversed(sizes[:-1])):
            good = child >= 0
            good[good] = comp[-1][child[good]]
            comp.append(np.bincount(s[good], minlength=size) > 0)
        return vals, levels, comp[::-1]

    def _prune_tables(self, vals, opens, full) -> list:
        """Per pot k: the band prune's table by signature id, and the later pots' supply.

        The band teams still to place (their supply) can only go to open slots
        of the pots that still hold some, at most hi - count per group: every
        group must still reach lo, the groups' total deficit below lo must fit
        in the supply, and the supply must fit in what the groups can absorb.
        A table row holds, for every band, without and with the group's pot-k
        slot (it counts while pot k holds band teams): r < need, need and
        min(r, hi - count), r being the slots that can take band teams and
        need lo - count floored at 0.
        """
        shift, mask, lo, hi = np.array(self.fields, dtype=np.int64).reshape(-1, 4).T
        cnt = vals[:, None] >> shift & mask
        need = np.maximum(lo - cnt, 0)
        supply = full @ self.band_member  # per pot and band
        tables = []
        for k in range(self.m + 1):
            reach = opens[k + 1 :].T @ (supply[k + 1 :] > 0)
            r = np.stack([reach, reach + opens[k][:, None]], axis=1)  # without, with the slot
            need_k = np.broadcast_to(need[:, None], r.shape)
            cols = (r < need_k, need_k, np.minimum(r, (hi - cnt)[:, None]))
            tables.append((np.stack(cols, axis=2).astype(np.int8), supply[k + 1 :].sum(axis=0)))
        return tables

    def _bands_hold(self, rows, rem, table, later) -> np.ndarray:
        """Which states of a level pass the band prune of its pot's table.

        ``rem`` holds each state's type counts of the pot; ``later`` is the
        later pots' supply per band.
        """
        cur = rem @ self.band_member
        sums = table[rows].sum(axis=1)  # per state: (2, 3, bands)
        bad, need, cap = np.where((cur > 0)[:, None], sums[:, 1], sums[:, 0]).transpose(1, 0, 2)
        supply = later + cur
        return ((bad == 0) & (need <= supply) & (supply <= cap)).all(axis=1)


def _row_keys(*blocks) -> np.ndarray:
    """One byte string per row of the side-by-side blocks of non-negative ints.

    The rows are cast to the narrowest big-endian unsigned ints that hold
    them, whose bytes compare in the rows' numeric lexicographic order.
    """
    top = max(block.max(initial=0) for block in blocks)
    dtype = np.min_scalar_type(top).newbyteorder(">")
    rows = np.hstack(blocks, dtype=dtype, casting="unsafe")
    return rows.view(np.dtype((np.void, rows.shape[1] * dtype.itemsize))).ravel()


@lru_cache(maxsize=64)
def get_checker(instance: Instance, constraints: ConstraintSet) -> CompletabilityChecker:
    """The shared checker, and so the shared completability memo, of one cell's constraints."""
    return CompletabilityChecker(instance, constraints)


def completable(instance, constraints, assignment) -> bool:
    """True iff the partial assignment extends to some valid complete one."""
    checker = get_checker(instance, constraints)
    state = checker.state_of(assignment)  # None on a broken hi; the prune rejects a lost lo
    if state is None:
        return False
    return checker.completable_state(*state)
