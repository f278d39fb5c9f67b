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
and break no band any more.  That keeps the graph small.  One array rule,
``CompletabilityChecker.place``, gives a group's signature after a team
fills a slot, for a canonical state and for every transition the builder
reads.  Each level is pruned with per-pot tables of per-signature band
columns, one gather for all bands.  The same builder, rooted at the empty
state, gives the Skip draw its dense per-level transition tables
(``CompletabilityChecker.skip_tables``), which the Skip engine steps on.
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
        # each band's counter field: its shift, value mask and bounds
        width = np.array([band.hi.bit_length() for band in bands], dtype=np.int64)
        self.shift = np.cumsum(width) - width
        self.mask = (1 << width) - 1
        self.lo = np.array([band.lo for band in bands], dtype=np.int64)
        self.hi = np.array([band.hi for band in bands], dtype=np.int64)
        self.open_shift = int(width.sum())

        # team types: the bands containing a team -> dense code
        type_of = {}
        keys = [tuple(t.id in band.teams for band in bands) for t in instance.teams]
        self.team_type = np.array([type_of.setdefault(key, len(type_of)) for key in keys])
        self.ntypes = len(type_of)
        # type x band membership: what a team of the type adds to each counter
        self.band_member = np.array(list(type_of), dtype=np.int64)
        self.full_pot_counts = []
        for k in range(1, self.m + 1):
            row = [0] * self.ntypes
            for t in instance.pot_teams(k):
                row[self.team_type[t.id]] += 1
            self.full_pot_counts.append(tuple(row))

        self.empty_group_sig = ((1 << self.m) - 1) << self.open_shift
        self.closed_sig = int((self.lo << self.shift).sum())
        self._memo = {}  # root state -> completable

    def place(self, sigs, types, pot) -> np.ndarray:
        """Group signatures after teams of ``types`` fill their groups' slot of pot ``pot``.

        ``sigs``, ``types`` and ``pot`` (0-based) broadcast against each
        other.  An entry is -1 on a taken slot or a broken hi; a group that
        this fills and that meets every band's lo gets ``closed_sig``.
        """
        sigs = np.asarray(sigs, dtype=np.int64)
        add = self.band_member[types]
        open_bit = 1 << (self.open_shift + np.asarray(pot))
        cnt = (sigs[..., None] >> self.shift & self.mask) + add
        new = (sigs & ~open_bit) + (add << self.shift).sum(axis=-1)
        closed = (new >> self.open_shift == 0) & (cnt >= self.lo).all(axis=-1)
        broken = (sigs & open_bit == 0) | (cnt > self.hi).any(axis=-1)
        return np.where(broken, -1, np.where(closed, self.closed_sig, new))

    def state_of(self, assignment: Assignment):
        """Canonical (group sigs, remaining type counts) of a partial assignment."""
        sigs = np.full(self.n, self.empty_group_sig, dtype=np.int64)
        remaining = np.array(self.full_pot_counts)
        for k, row in enumerate(assignment.slots):
            row = np.array(row)
            g = np.flatnonzero(row != -1)
            types = self.team_type[row[g]]
            sigs[g] = self.place(sigs[g], types, k)
            if (sigs < 0).any():
                return None  # already breaks an upper bound
            remaining[k] -= np.bincount(types, minlength=self.ntypes)
        return tuple(sorted(sigs.tolist())), tuple(map(tuple, remaining.tolist()))

    def completable_state(self, sigs, remaining) -> bool:
        """True iff a canonical state has a valid completion; memoised per root."""
        key = (sigs, remaining)
        if key not in self._memo:
            self._memo[key] = bool(self._build(sigs, remaining)[2][0].any())
        return self._memo[key]

    def skip_tables(self):
        """The Skip draw's dense transition tables below the empty state.

        Returns (feasible, root, bits, tabs, cols), and records whether the
        empty state completes in the memo.  ``root`` is the empty group
        signature's id.  Level L's table ``tabs[L]`` is indexed by (a
        completable state's local id, column, type); an entry is (the
        child's local id << ``bits``) | the group's new signature id, or -1
        when the team breaks a band's hi or the child is not completable.
        Row ``cols[L]`` of the column maps holds each signature id's column
        times the types: a column per signature with a success in the level,
        and a last one, of failures only, for all others.  The tables are
        views of one array, filled by one scatter.
        """
        nt = self.ntypes
        root = (self.empty_group_sig,) * self.n, tuple(self.full_pot_counts)
        vals, levels, comp = self._build(*root)
        feasible = self._memo[root] = bool(comp[0].any())
        bits = max(vals.size - 1, 1).bit_length()
        # int32 ids and offsets keep the build's temporaries small
        lev = np.repeat(np.arange(len(levels), dtype=np.int32), [lv[0].size for lv in levels])
        s, sid, tc, new, child = (np.concatenate(a) for a in zip(*levels))
        # number the states of all levels in one row; ahead[r]: completable rows before row r
        first = np.cumsum([0] + [c.size for c in comp], dtype=np.int32)
        flags = np.concatenate(comp)
        ahead = np.concatenate([np.zeros(1, np.int32), np.cumsum(flags, dtype=np.int32)])
        kid = first[lev + 1] + child
        # an attempt succeeds when its child survived the prune and is completable
        j = np.flatnonzero((child >= 0) & flags[kid])
        lev, sid, tc, new = lev[j], sid[j], tc[j], new[j]
        base = ahead[first]  # completable rows before each level
        state = ahead[first[lev] + s[j]] - base[lev]
        child = ahead[kid[j]] - base[lev + 1]
        used = np.zeros((len(levels), vals.size), dtype=bool)
        used[lev, sid] = True
        width = used.sum(axis=1, dtype=np.int32) + 1
        col = np.where(used, used.cumsum(axis=1, dtype=np.int32) - 1, width[:, None] - 1)
        rows = np.diff(base)
        dtype = np.int32 if int(rows.max()) << bits < 2**31 else np.int64
        sizes = rows[:-1].astype(np.int64) * width * nt
        starts = np.cumsum(sizes) - sizes
        flat = np.full(sizes.sum(), -1, dtype=dtype)
        flat[starts[lev] + (state * width[lev] + col[lev, sid]) * nt + tc] = child << bits | new
        tabs = [flat[a : a + size].reshape(-1, w, nt) for a, size, w in zip(starts, sizes, width)]
        return feasible, int(np.searchsorted(vals, self.empty_group_sig)), bits, tabs, col * nt

    # -- the builder ------------------------------------------------------

    def _signatures(self, sigs, remaining):
        """Every signature reachable from ``sigs``, ascending, and its transitions.

        The pots fill in order, each slot with a type its pot holds.
        Returns (values, trans): trans[k, i, tc] is the index in ``values``
        of signature i after a team of type tc fills its pot-k slot, or -1.
        """
        values = set(sigs)
        for k, row in enumerate(remaining):
            placed = self.place(np.array(list(values))[:, None], np.flatnonzero(row), k)
            values.update(placed[placed >= 0].tolist())
        vals = np.array(sorted(values), dtype=np.int64)
        new = self.place(vals[:, None], np.arange(self.ntypes), np.arange(self.m)[:, None, None])
        at = np.minimum(np.searchsorted(vals, new), vals.size - 1)
        return vals, np.where(vals[at] == new, at, -1).astype(np.min_scalar_type(-vals.size))

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
        cnt = vals[:, None] >> self.shift & self.mask
        need = np.maximum(self.lo - cnt, 0)
        supply = full @ self.band_member  # per pot and band
        tables = []
        for k in range(self.m + 1):
            reach = opens[k + 1 :].T @ (supply[k + 1 :] > 0)
            r = np.stack([reach, reach + opens[k][:, None]], axis=1)  # without, with the slot
            need_k = np.broadcast_to(need[:, None], r.shape)
            cols = (r < need_k, need_k, np.minimum(r, (self.hi - cnt)[:, None]))
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
