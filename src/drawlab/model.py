"""Tournament data model: instances, constraint scenarios, assignments.

An instance is m pots of n teams; a complete assignment puts one team from
every pot into each of the n groups.  Constraint scenarios are the 32
subsets of the five geographic restrictions, encoded as a bitmask
(A=16, B=8, C=4, D=2, E=1).  The host pre-selection is modelled as a
mutual-exclusion set: those teams must land in pairwise distinct groups.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import InstanceFormatError

# Scenario bit weights and the confederations each upper-bound constraint
# binds to.  Constraint E is a 2..3 band on the instance's designated
# "europe" confederation rather than a <=1 cap.
CONSTRAINT_WEIGHTS = {"A": 16, "B": 8, "C": 4, "D": 2, "E": 1}
UPPER_BOUND_BINDINGS = {
    "A": "Africa",
    "B": "Asia",
    "C": "North America",
    "D": "South America",
}
EUROPE_BOUNDS = (2, 3)

BUILTIN_INSTANCE_NAMES = ("ihf2025",)
_DATA_DIR_ENV = "DRAWLAB_DATA_DIR"


@dataclass(frozen=True)
class Confederation:
    id: int
    name: str


@dataclass(frozen=True)
class Team:
    id: int
    name: str
    confederation: int
    pot: int  # 1-based


@dataclass(frozen=True)
class ConstraintSet:
    """Active subset of constraints A..E for one scenario."""

    scenario: int
    active: frozenset

    @property
    def bitmask(self) -> int:
        return sum(CONSTRAINT_WEIGHTS[c] for c in self.active)

    def __contains__(self, letter: str) -> bool:
        return letter in self.active

    def describe(self) -> str:
        if not self.active:
            return "none"
        return "".join(sorted(self.active))


def scenario_constraints(scenario_id: int) -> ConstraintSet:
    """Decode a scenario id in 0..31 into its active constraint letters."""
    if not 0 <= scenario_id <= 31:
        raise ValueError(f"scenario id must be in 0..31, got {scenario_id}")
    active = frozenset(
        letter for letter, w in CONSTRAINT_WEIGHTS.items() if scenario_id & w
    )
    return ConstraintSet(scenario=scenario_id, active=active)


class Instance:
    """Immutable tournament configuration.

    Team ids are dense, pot-major: pot 1 holds ids 0..n-1, pot 2 holds
    n..2n-1, and so on.  ``host_exclusion`` is a frozenset of team ids that
    must occupy pairwise distinct groups in every valid assignment.
    """

    __slots__ = (
        "name",
        "m",
        "n",
        "confederations",
        "teams",
        "host_exclusion",
        "europe",
        "_by_name",
    )

    def __init__(self, name, confederations, teams, host_exclusion, europe):
        self.name = name
        self.confederations = tuple(confederations)
        self.teams = tuple(teams)
        pots = sorted({t.pot for t in teams})
        self.m = len(pots)
        self.n = len(teams) // self.m if self.m else 0
        self.host_exclusion = frozenset(host_exclusion)
        self.europe = europe
        self._by_name = {t.name: t for t in self.teams}
        self._validate(pots)

    def _validate(self, pots):
        if self.m < 2:
            raise InstanceFormatError("instance needs at least two pots")
        if pots != list(range(1, self.m + 1)):
            raise InstanceFormatError(f"pot numbers must be 1..m, got {pots}")
        for k in range(1, self.m + 1):
            count = sum(1 for t in self.teams if t.pot == k)
            if count != self.n:
                raise InstanceFormatError(
                    f"pot {k} has {count} teams, expected {self.n} in every pot"
                )
        for t in self.teams:
            if self._by_name[t.name] is not t:  # the map keeps a name's last team
                raise InstanceFormatError(f"duplicate team name {t.name!r}")
        names = [c.name for c in self.confederations]
        if len(set(names)) != len(names):
            raise InstanceFormatError("duplicate confederation names")
        valid_conf = {c.id for c in self.confederations}
        for t in self.teams:
            if t.confederation not in valid_conf:
                raise InstanceFormatError(f"team {t.name}: unknown confederation")
        for i, t in enumerate(self.teams):
            if t.id != i or t.pot != i // self.n + 1:
                raise InstanceFormatError("team ids must be dense and pot-major")
        if len(self.host_exclusion) > self.n:
            raise InstanceFormatError(
                "host exclusion set larger than the number of groups"
            )
        if not self.host_exclusion <= {t.id for t in self.teams}:
            raise InstanceFormatError("host exclusion references unknown team")
        if self.europe is not None and self.europe not in valid_conf:
            raise InstanceFormatError("europe designation references unknown confederation")

    # -- lookups -------------------------------------------------------

    def pot_teams(self, pot: int):
        """Teams of a 1-based pot, in id order."""
        return self.teams[(pot - 1) * self.n : pot * self.n]

    def team(self, name: str) -> Team:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no team named {name!r}") from None

    def confederation_named(self, name: str):
        for c in self.confederations:
            if c.name == name:
                return c
        return None

    def local_index(self, team_id: int) -> int:
        """Index of a team within its pot (0..n-1)."""
        return team_id % self.n

    def pot_of(self, team_id: int) -> int:
        return team_id // self.n + 1

    # -- serialization -------------------------------------------------

    def to_document(self) -> dict:
        conf_names = [c.name for c in self.confederations]
        return {
            "name": self.name,
            "confederations": conf_names,
            "europe": conf_names[self.europe] if self.europe is not None else None,
            "pots": [
                [
                    {"name": t.name, "confederation": conf_names[t.confederation]}
                    for t in self.pot_teams(k)
                ]
                for k in range(1, self.m + 1)
            ],
            "host_exclusion": sorted(
                self.teams[tid].name for tid in self.host_exclusion
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2) + "\n"

    def __repr__(self):
        return f"Instance({self.name!r}, m={self.m}, n={self.n})"


def _assemble(name, conf_names, pots, host_exclusion, europe) -> Instance:
    """Number the teams of nested (team name, confederation name) pots.

    ``conf_names`` fixes the confederation ids in its order; the host
    exclusion lists team names, and ``europe`` is a name or None.
    """
    # before Instance, which numbers the pots it sees and so misses an empty one
    if len({len(pot) for pot in pots}) > 1:
        raise InstanceFormatError(f"pots have unequal sizes: {[len(pot) for pot in pots]}")
    confs = tuple(Confederation(i, cname) for i, cname in enumerate(conf_names))
    conf_id = {c.name: c.id for c in confs}
    rows = [(k, tname, cname) for k, pot in enumerate(pots, start=1) for tname, cname in pot]
    teams = [Team(tid, tname, conf_id[cname], k) for tid, (k, tname, cname) in enumerate(rows)]
    by_name = {t.name: t.id for t in teams}
    excl = set()
    for nm in host_exclusion:
        if nm not in by_name:
            raise InstanceFormatError(f"host exclusion references unknown team {nm!r}")
        excl.add(by_name[nm])
    if europe is not None and europe not in conf_id:
        raise InstanceFormatError(f"unknown europe confederation {europe!r}")
    return Instance(name, confs, teams, excl, conf_id.get(europe))


def build_instance(pots, host_exclusion=(), europe=None, name="custom") -> Instance:
    """Construct an instance from nested (team name, confederation name) pots."""
    # confederation ids in order of first appearance
    conf_names = list(dict.fromkeys(conf for pot in pots for _, conf in pot))
    return _assemble(name, conf_names, pots, host_exclusion, europe)


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def load_instance(text) -> Instance:
    """Parse an instance document (JSON text or an already-parsed dict)."""
    if isinstance(text, (bytes, str)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"malformed instance document: {exc}") from None
    else:
        doc = text
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for field in ("confederations", "pots"):
        if field not in doc:
            raise InstanceFormatError(f"instance document missing field {field!r}")
    conf_names = doc["confederations"]
    if not _list_of(conf_names, str):
        raise InstanceFormatError("'confederations' must be a list of names")
    if not _list_of(doc["pots"], list):
        raise InstanceFormatError("'pots' must be a list of lists of teams")
    declared = set(conf_names)
    pots = []
    for k, pot in enumerate(doc["pots"], start=1):
        rows = []
        for entry in pot:
            row = [entry.get("name"), entry.get("confederation")] if isinstance(entry, dict) else [None]
            if not _list_of(row, str):
                raise InstanceFormatError(f"pot {k}: entries need a 'name' and a 'confederation' name")
            tname, cname = row
            if cname not in declared:
                raise InstanceFormatError(
                    f"team {tname!r}: unknown confederation {cname!r}"
                )
            rows.append((tname, cname))
        pots.append(rows)
    host_exclusion = doc.get("host_exclusion", [])
    if not _list_of(host_exclusion, str):
        raise InstanceFormatError("'host_exclusion' must be a list of team names")
    # keep the declared confederation order, unused entries included; an
    # empty "europe" means no Europe
    europe = doc.get("europe") or None
    if not (europe is None or isinstance(europe, str)):
        raise InstanceFormatError("'europe' must be a confederation name")
    return _assemble(doc.get("name", "unnamed"), conf_names, pots, host_exclusion, europe)


def builtin_instance_path(name: str) -> Path:
    override = os.environ.get(_DATA_DIR_ENV)
    if override:
        candidate = Path(override) / f"{name}.json"
        if candidate.exists():
            return candidate
    return Path(__file__).parent / "data" / f"{name}.json"


def get_instance(source: str) -> Instance:
    """Resolve an instance by built-in name or by file path."""
    path = builtin_instance_path(source) if "/" not in source and "\\" not in source else Path(source)
    if not path.exists():
        path = Path(source)
    if not path.exists():
        raise InstanceFormatError(f"unknown instance {source!r} (no built-in, no such file)")
    return load_instance(path.read_text())


class Assignment:
    """Mapping of (pot, group) slots to team ids; -1 marks an empty slot."""

    __slots__ = ("m", "n", "slots")

    def __init__(self, m: int, n: int, slots=None):
        self.m = m
        self.n = n
        self.slots = [list(row) for row in slots] if slots else [[-1] * n for _ in range(m)]

    @classmethod
    def empty(cls, instance: Instance) -> "Assignment":
        return cls(instance.m, instance.n)

    def copy(self) -> "Assignment":
        return Assignment(self.m, self.n, self.slots)

    def place(self, instance: Instance, team_id: int, group: int) -> None:
        pot = instance.pot_of(team_id)
        row = self.slots[pot - 1]
        if row[group] != -1:
            raise ValueError(f"slot (pot {pot}, group {group}) already filled")
        if self.find(team_id) is not None:
            raise ValueError(f"team {team_id} already placed")
        row[group] = team_id

    def find(self, team_id: int):
        for k, row in enumerate(self.slots):
            for g, tid in enumerate(row):
                if tid == team_id:
                    return (k + 1, g)
        return None

    def group_members(self, group: int):
        return [row[group] for row in self.slots if row[group] != -1]

    @property
    def placed(self) -> int:
        return sum(1 for row in self.slots for tid in row if tid != -1)

    def is_complete(self) -> bool:
        return all(tid != -1 for row in self.slots for tid in row)

    def as_tuple(self):
        return tuple(tuple(row) for row in self.slots)

    def comembership(self):
        """Canonical label-free form: sorted tuple of sorted group tuples."""
        groups = []
        for g in range(self.n):
            members = tuple(sorted(row[g] for row in self.slots if row[g] != -1))
            groups.append(members)
        return tuple(sorted(groups))

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return f"Assignment({self.slots!r})"


class GroupComposition:
    """Per-group team counts by confederation."""

    __slots__ = ("counts", "confederations")

    def __init__(self, counts, confederations):
        self.counts = tuple(tuple(row) for row in counts)  # (n groups, C confs)
        self.confederations = tuple(confederations)

    def unattractive(self) -> int:
        """Same-confederation pairs summed over groups: C(t, 2) per cell."""
        return sum(t * (t - 1) // 2 for row in self.counts for t in row)


def composition(instance: Instance, assignment: Assignment) -> GroupComposition:
    """Count placed teams per group and confederation (partial allowed)."""
    counts = [[0] * len(instance.confederations) for _ in range(instance.n)]
    for row in assignment.slots:
        for g, tid in enumerate(row):
            if tid != -1:
                counts[g][instance.teams[tid].confederation] += 1
    return GroupComposition(counts, instance.confederations)
