"""Constraint bands, constraint checks, unattractive-match counting, and completability.

Every draw constraint is a per-group band lo <= count <= hi on one set of
teams (``constraint_bands``): A-D allow at most one team of a confederation
per group, E keeps two or three European teams in every group, and the host
rule keeps the host-excluded teams in distinct groups.  The checks here,
the Uniform sampler and the completability look-ahead all read the bands;
``oracle`` alone restates the rules independently.

Violations are monotone in the partial order of assignments: placing more
teams can only add forced violations, never remove them.  Completability
(does a valid completion exist?) is decided by an exact depth-first search
over constraint-relevant state classes; states are canonicalised so that
groups that look alike are interchangeable, which keeps the search small
and lets results be memoised across queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
# Completability: exact DFS over canonical constraint states.
#
# A group's constraint-relevant state is packed into one integer: first one
# counter field per band, in band order and hi.bit_length() bits wide, that
# holds how many of the band's teams the group has; then one bit per pot,
# set while the group's slot for that pot is open.  A team's type is the
# set of bands that contain it.  Groups with equal packed state are
# interchangeable, so a search state is the sorted tuple of group states
# plus the remaining team-type counts per pot.  The DFS result for a
# canonical state is memoised for the lifetime of the checker, which also
# amortises look-ahead across repeated draws.
# ---------------------------------------------------------------------------


class CompletabilityChecker:
    """Exact completability decisions for one (instance, constraint set)."""

    def __init__(self, instance: Instance, constraints: ConstraintSet):
        self.instance = instance
        self.constraints = constraints
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
        # type codes of each band, for the prune's supply counts
        self.band_types = [
            [c for c, key in enumerate(self.type_bands) if b in key] for b in range(len(bands))
        ]

        self.empty_group_sig = ((1 << self.m) - 1) << self.open_shift
        self._memo = {}
        self._trans = {}
        self._tuples = {}  # one shared copy of each remaining-counts tuple and row
        self._open_bands = {}  # remaining type counts -> _bands_to_place
        self._shared = {}  # one copy of each equal prune table

    # -- packed-state helpers ------------------------------------------

    def place_sig(self, sig: int, type_code: int, pot_idx: int):
        """Group state after placing a team type, or None if a band's hi breaks."""
        key = (sig, type_code, pot_idx)
        cached = self._trans.get(key, -1)
        if cached != -1:
            return cached
        result = None
        open_bit = 1 << (self.open_shift + pot_idx)
        if sig & open_bit:  # else the slot is already filled
            result = sig & ~open_bit
            for b in self.type_bands[type_code]:
                shift, mask, _, hi = self.fields[b]
                if sig >> shift & mask >= hi:
                    result = None
                    break
                result += 1 << shift
        self._trans[key] = result
        return result

    def take(self, remaining, pot_idx: int, type_code: int):
        """``remaining`` less one team of a type in one pot, as a shared tuple.

        Memo keys, the look-ahead search and the Skip engine's states hold
        one copy of each distinct remaining-counts tuple and row.
        """
        share = self._tuples.setdefault
        row = list(remaining[pot_idx])
        row[type_code] -= 1
        row = tuple(row)
        child = remaining[:pot_idx] + (share(row, row),) + remaining[pot_idx + 1 :]
        return share(child, child)

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

    # -- search ---------------------------------------------------------

    def completable_state(self, sigs, remaining) -> bool:
        memo = self._memo
        key = (sigs, remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        result = self._search(sigs, remaining)
        memo[key] = result
        return result

    def _search(self, sigs, remaining) -> bool:
        # locate the first pot that still has teams to place
        pot_idx = -1
        for k, row in enumerate(remaining):
            if any(row):
                pot_idx = k
                break
        if pot_idx < 0:
            return self._final_ok(sigs)
        if not self._prune_ok(sigs, remaining):
            return False
        type_code = next(i for i, c in enumerate(remaining[pot_idx]) if c)
        child_rem = self.take(remaining, pot_idx, type_code)
        open_bit = 1 << (self.open_shift + pot_idx)
        tried = set()
        for i, sig in enumerate(sigs):
            if sig in tried or not sig & open_bit:
                continue
            tried.add(sig)
            new_sig = self.place_sig(sig, type_code, pot_idx)
            if new_sig is None:
                continue
            child_sigs = tuple(sorted(sigs[:i] + (new_sig,) + sigs[i + 1 :]))
            if self.completable_state(child_sigs, child_rem):
                return True
        return False

    def _final_ok(self, sigs) -> bool:
        return all(
            sig >> shift & mask >= lo for shift, mask, lo, _ in self.fields if lo for sig in sigs
        )

    def _prune_ok(self, sigs, remaining) -> bool:
        """False when some band can no longer be met, whatever the placements.

        The band teams still to place (its supply) can only go to open slots
        of the pots that still hold some, at most hi - count per group: every
        group must still reach lo, the groups' total deficit below lo must
        fit in the supply, and the supply must fit in what the groups can
        absorb.
        """
        bands = self._open_bands.get(remaining)
        if bands is None:
            bands = self._open_bands[remaining] = self._bands_to_place(remaining)
        for shift, mask, lo, hi, supply, pots in bands:
            deficit = absorb = 0
            for sig in sigs:
                count = sig >> shift & mask
                reach = (sig & pots).bit_count()
                if count + reach < lo:
                    return False
                if count < lo:
                    deficit += lo - count
                room = hi - count
                absorb += reach if reach < room else room
            if deficit > supply or supply > absorb:
                return False
        return True

    def _bands_to_place(self, remaining) -> tuple:
        """(field, supply, open-slot bits of its pots) of each band the prune checks.

        A band's supply is the number of its teams still to place; a band
        with no supply and lo = 0 cannot be broken any more and is left out.
        Many remaining counts give equal tuples, so they are shared.
        """
        share = self._shared.setdefault
        out = []
        for types, (shift, mask, lo, hi) in zip(self.band_types, self.fields):
            supply = pots = 0
            for k, row in enumerate(remaining):
                c = sum([row[i] for i in types])
                if c:
                    supply += c
                    pots |= 1 << (self.open_shift + k)
            if supply or lo:
                band = (shift, mask, lo, hi, supply, pots)
                out.append(share(band, band))
        out = tuple(out)
        return share(out, out)


@lru_cache(maxsize=64)
def get_checker(instance: Instance, constraints: ConstraintSet) -> CompletabilityChecker:
    """The shared checker, and so the shared look-ahead memo, of one cell's constraints."""
    return CompletabilityChecker(instance, constraints)


def completable(instance, constraints, assignment) -> bool:
    """True iff the partial assignment extends to some valid complete one."""
    if check_partial(instance, constraints, assignment):
        return False  # forced violations are permanent
    checker = get_checker(instance, constraints)
    state = checker.state_of(assignment)
    if state is None:
        return False
    return checker.completable_state(*state)
