"""The two draw procedures: Uniform (rejection) and Skip (sequential).

Uniform draws are rejection-sampled from the host-feasible baseline: the
mutually excluded teams are placed into distinct groups directly (never by
rejection), remaining pot slots are filled by uniform permutations, and the
proposal is accepted iff the active constraints hold.  Skip draws empty the
pots in order, placing each randomly drawn team into the lowest-index group
that keeps the partial assignment valid and completable.

Each trial consumes a private counter-based stream, so a trial's outcome is
a pure function of (instance, constraints, mechanism, seed, trial index).
Each mechanism has a single implementation, which runs Monte Carlo cells on
batches of trials and single draws on a batch of one.  Uniform is
``VectorUniform``: every team of a proposal reads a fixed word of its
stream, so it may place the teams in any order that puts the host teams
before the pots they share.  It builds the pots without host teams first,
then places the host teams, then builds the other pots, the most
constrained pots first within each part; it drops a rejected proposal as
soon as a bound breaks, and generates stream words only for the steps of
the proposals still alive.  Skip is the batch kernel of
``SkipEngine``: every trial carries the id of its canonical state, and
every placement attempt is looked up in the engine's transition table,
built whole when the engine is made by the same completability builder
that ``feasibility.completable`` uses.
The brute-force ``oracle`` module restates both mechanisms independently,
and the tests compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InfeasibleScenarioError, ProposalBudgetError
from .feasibility import constraint_bands, get_checker
from .model import Assignment, ConstraintSet, Instance
from .rng import RngStream, derive_key, trial_keys, words_np

MECHANISMS = ("uniform", "skip")
_MECH_CODE = {"uniform": 1, "skip": 2}

DEFAULT_PROPOSAL_CAP = 10**7
# Uniform proposals per round: bounds a round's arrays (its word runs,
# positions and masks), so a batch's peak memory does not depend on how
# many of its trials are still pending
_ROUND_BLOCK = 8192


@dataclass
class DrawOutcome:
    """Result of one draw trial."""

    assignment: Assignment
    proposals_used: int = 1
    trace: tuple = field(default_factory=tuple)  # (team id, group, skipped groups)


def cell_key(seed: int, mechanism: str, scenario: int) -> int:
    """Stream key shared by all trials of one (seed, mechanism, scenario) cell."""
    return derive_key(seed, _MECH_CODE[mechanism], scenario)


def trial_stream(seed: int, mechanism: str, scenario: int, trial: int) -> RngStream:
    return RngStream(seed, _MECH_CODE[mechanism], scenario, trial)


def _pos_to_assignment(instance: Instance, pos) -> Assignment:
    asg = Assignment.empty(instance)
    for tid, g in enumerate(pos):
        asg.slots[instance.pot_of(tid) - 1][g] = tid
    return asg


# ---------------------------------------------------------------------------
# Skip mechanism
# ---------------------------------------------------------------------------


class SkipEngine:
    """Skip placement with exact completability look-ahead, batched across trials.

    All trials of a batch step through the m*n placements together, each
    carrying the id of its canonical state: the sorted group signatures
    plus the remaining type counts, with id 0 for the empty assignment.
    A group filled with every band's lo met takes the checker's one closed
    signature, so states that differ only in their full groups share an id.
    Placing a team of type tc into a group of signature s has an outcome
    that depends on (state, s, tc) alone: the group's new signature and the
    child state's id, or a failure when a band's hi breaks or the child is
    not completable.  So every pending trial's attempt is one int64 code,
    looked up for the whole step with ``np.searchsorted`` in a sorted
    transition table.  The engine builds that table once, whole, with the
    checker's ``graph`` from the empty state: it lists every attempt of
    every completable state, so a step is a few array operations from the
    first trial on.
    """

    def __init__(self, instance: Instance, constraints: ConstraintSet):
        self.instance = instance
        self.constraints = constraints
        self.checker = checker = get_checker(instance, constraints)
        self.n = n = instance.n
        self.m = m = instance.m
        # narrow dtypes keep a batch's per-step arrays small
        self.pot_ids = np.array(
            [[t.id for t in instance.pot_teams(k)] for k in range(1, m + 1)],
            dtype=np.min_scalar_type(m * n - 1),
        )
        self.team_type = np.array(checker.team_type, dtype=np.int64)
        # attempt codes and outcomes as ``CompletabilityChecker.graph`` encodes them
        self._sig_bits = checker.sig_bits
        self._span = checker.ntypes << self._sig_bits  # codes per state
        self.feasible, self._codes, self._outcomes = checker.graph()

    def draw_orders(self, keys, offset: int = 0) -> np.ndarray:
        """Per-pot draw orders of a batch of streams: (T, m, n) team ids.

        Pot k consumes words offset + k*n .. offset + k*n + n-1 of each
        stream, with the same pick-and-swap as ``RngStream.draw_order``.
        All pots of all trials pick together, one pick index at a time.
        """
        keys = np.asarray(keys, dtype=np.uint64)[:, None]
        T = keys.shape[0]
        m, n = self.m, self.n
        words = words_np(keys, np.uint64(offset) + np.arange(m * n, dtype=np.uint64))
        # pick i of a pot indexes its pool of the n - i teams not yet drawn
        picks = (words.reshape(T * m, n) % np.arange(n, 0, -1, dtype=np.uint64)).astype(np.intp)
        pool = np.tile(self.pot_ids, (T, 1))  # row t*m + k: pot k of trial t
        rows = np.arange(T * m)
        orders = np.empty_like(pool)
        for i in range(n):
            j = picks[:, i]
            orders[:, i] = pool[rows, j]
            pool[rows, j] = pool[:, n - 1 - i]
        return orders.reshape(T, m, n)

    def place_orders(self, orders) -> np.ndarray:
        """Deterministic Skip placement of a batch of draw orders.

        ``orders`` is (T, m, n): row k of a trial lists pot k+1's team ids in
        draw order.  Returns pos (T, m*n) int8, team id -> group.
        """
        if not self.feasible:
            raise InfeasibleScenarioError(
                f"no valid assignment exists for scenario {self.constraints.scenario}"
            )
        orders = np.asarray(orders)
        T = orders.shape[0]
        n, nt, bits = self.n, self.checker.ntypes, self._sig_bits
        low = (1 << bits) - 1
        rows = np.arange(T)
        groups = np.arange(n)
        sigs = np.full((T, n), self.checker.empty_group_sig, dtype=np.int64)
        state = np.zeros(T, dtype=np.int64)
        pos = np.full((T, self.m * n), -1, dtype=np.int8)
        for k in range(self.m):
            filled = np.zeros((T, n), dtype=bool)
            for j in range(n):
                tid = orders[:, k, j]
                live = rows
                g = filled.argmin(axis=1)  # first open group
                base = state * self._span + self.team_type[tid]
                while True:
                    out = self._outcomes_of(base + sigs[live, g] * nt)
                    ok = out >= 0
                    every = ok.all()  # the common case: no trial tries a later group
                    done, gd = (live, g) if every else (live[ok], g[ok])
                    out = out if every else out[ok]
                    sigs[done, gd] = out & low
                    state[done] = out >> bits
                    filled[done, gd] = True
                    pos[done, tid[done]] = gd
                    if every:
                        break
                    live, g, base = live[~ok], g[~ok], base[~ok]
                    later = ~filled[live] & (groups > g[:, None])
                    g = later.argmax(axis=1)
                    if not later[np.arange(live.size), g].all():
                        raise InfeasibleScenarioError(
                            "skip draw dead end; completability look-ahead violated"
                        )
        return pos

    def _outcomes_of(self, codes: np.ndarray) -> np.ndarray:
        """The table's outcome of every attempt code, probed in ascending order."""
        order = np.argsort(codes)
        out = np.empty_like(codes)
        out[order] = self._outcomes[np.searchsorted(self._codes, codes[order])]
        return out

    def run_trials(self, seed: int, t_lo: int, t_hi: int) -> np.ndarray:
        """Skip assignments (T, m*n) of trials [t_lo, t_hi) of one cell."""
        ckey = cell_key(seed, "skip", self.constraints.scenario)
        keys = trial_keys(ckey, np.arange(t_lo, t_hi, dtype=np.uint64))
        return self.place_orders(self.draw_orders(keys))

    def outcome(self, orders, want_trace: bool = True) -> DrawOutcome:
        """One placed trial of (m, n) draw orders, with its trace.

        A team's skipped groups are the groups of its pot still open when it
        was drawn whose label is below the group it went to.
        """
        orders = np.asarray(orders, dtype=np.intp)
        pos = self.place_orders(orders[None])[0].tolist()
        trace = []
        if want_trace:
            for order in orders.tolist():
                taken = set()
                for tid in order:
                    g = pos[tid]
                    trace.append((tid, g, tuple(h for h in range(g) if h not in taken)))
                    taken.add(g)
        asg = _pos_to_assignment(self.instance, pos)
        return DrawOutcome(asg, proposals_used=1, trace=tuple(trace))


@lru_cache(maxsize=64)
def get_skip_engine(instance: Instance, constraints: ConstraintSet) -> SkipEngine:
    return SkipEngine(instance, constraints)


def skip_draw(instance: Instance, constraints: ConstraintSet, rng: RngStream) -> DrawOutcome:
    """One Skip draw: pots emptied in order, teams drawn uniformly within a pot."""
    engine = get_skip_engine(instance, constraints)
    orders = engine.draw_orders([rng.key], offset=rng.pos)[0]
    rng.pos += engine.m * engine.n
    return engine.outcome(orders)


def skip_draw_with_orders(instance, constraints, orders, want_trace: bool = True) -> DrawOutcome:
    """Skip placement for pinned draw orders (per-pot lists of team ids)."""
    engine = get_skip_engine(instance, constraints)
    if len(orders) != instance.m:
        raise ValueError(f"orders must list {instance.m} pots")
    for k, order in enumerate(orders, start=1):
        expect = {t.id for t in instance.pot_teams(k)}
        if set(order) != expect or len(order) != len(expect):
            raise ValueError(f"orders[{k - 1}] must list every pot-{k} team exactly once")
    return engine.outcome(orders, want_trace=want_trace)


def draw_trial(
    instance: Instance,
    constraints: ConstraintSet,
    mechanism: str,
    seed: int,
    trial: int,
    max_proposals: int = DEFAULT_PROPOSAL_CAP,
) -> DrawOutcome:
    """Deterministic single trial; identical whether run alone or in a sweep."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if mechanism == "uniform":
        sampler = get_uniform_sampler(instance, constraints)
        pos, proposals = sampler.run_trials(seed, trial, trial + 1, max_proposals)
        return DrawOutcome(
            _pos_to_assignment(instance, pos[0].tolist()), proposals_used=int(proposals[0])
        )
    stream = trial_stream(seed, mechanism, constraints.scenario, trial)
    return skip_draw(instance, constraints, stream)


# ---------------------------------------------------------------------------
# Uniform mechanism
# ---------------------------------------------------------------------------


class VectorUniform:
    """Uniform rejection sampling, batched across trials.

    Word layout: every proposal reads exactly m*n stream words, proposal p
    of a trial words p*m*n .. (p+1)*m*n - 1.  First comes one word per host
    team, in id order, each picking a group not yet taken by another host
    team; then one word per other team, pot by pot in id order, each
    picking from the groups its pot's host teams left open, listed in
    ascending order.  A pick takes entry ``word % size`` of the open list
    and moves the list's last entry into its place.  The proposal is
    accepted iff every band holds.

    Fixed word positions make every trial's outcome independent of shard
    boundaries and batch sizes, and make a pot's groups a function of its
    own words and the host teams' groups alone, so the steps of a proposal
    can run in any order that places the host teams before the pots that
    hold hosts.  A round builds the pots without host teams first, then
    places the host teams, then builds the pots with host teams; within
    each part, the pots with the most teams of [0, 1] bands (A-D) go
    first.  After each step it drops the proposals that already break a
    band that step's teams can break, so later steps run only for the
    proposals still alive.  The steps form runs, each ending at a step
    that can reject, and a run's stream words are generated in one block,
    only for the proposals alive when it starts.  Every other band (E) is
    checked once, after the last step.
    """

    def __init__(self, instance: Instance, constraints: ConstraintSet):
        self.instance = instance
        self.constraints = constraints
        n, m = instance.n, instance.m
        self.n, self.m = n, m
        self.words = m * n
        # proposals meet the host band by construction
        bands = [b for b in constraint_bands(instance, constraints) if b.letter != "HOST"]
        caps = [b.teams for b in bands if (b.lo, b.hi) == (0, 1)]
        # every other band is checked once, on the finished proposals
        self.counted = [
            (np.array(sorted(b.teams), dtype=np.intp), b.lo, b.hi)
            for b in bands
            if (b.lo, b.hi) != (0, 1)
        ]
        # [0, 1] bands: an n-bit group field per band, packed into int64
        # mask words; field f sits in word f // per_word
        per_word = 64 // n
        if caps and not per_word:
            raise ValueError(f"the Uniform sampler supports at most 64 groups (got {n})")
        field = {tid: f for f, ids in enumerate(caps) for tid in ids}
        self.nmasks = -(-len(caps) // per_word) if per_word else 0

        def step(pot, start, tids, pool_size, hosts=()):
            masks = []
            for w in sorted({field[t] // per_word for t in tids if t in field}):
                ids = [t for t in tids if t in field and field[t] // per_word == w]
                offs = np.array([[field[t] % per_word * n] for t in ids], dtype=np.int64)
                masks.append((w, np.array(ids, dtype=np.intp), offs, {field[t] for t in ids}))
            return _Step(
                pot=pot,
                words=range(start, start + len(tids)),
                tids=tids,
                moduli=np.arange(pool_size, pool_size - len(tids), -1, dtype=np.uint64)[:, None],
                hosts=np.array(hosts, dtype=np.intp) if hosts else None,
                masks=masks,
            )

        # the pots without host teams, then the host teams, then the pots
        # with host teams, most bound teams first within each part; a pot
        # of host teams only has nothing left to build
        hosts = sorted(instance.host_exclusion)
        start = len(hosts)
        pots = []
        for k in range(1, m + 1):
            tids = [t.id for t in instance.pot_teams(k) if t.id not in instance.host_exclusion]
            if tids:
                pot_hosts = [t for t in hosts if instance.pot_of(t) == k]
                pots.append(step(k, start, tids, len(tids), pot_hosts))
            start += len(tids)
        pots.sort(key=lambda st: (st.hosts is not None, -sum(len(ids) for _, ids, _, _ in st.masks)))
        if hosts:
            pots.insert(sum(st.hosts is None for st in pots), step(0, 0, hosts, n))
        self.steps = pots
        self._plan()

    def _plan(self):
        """Split ``self.steps`` into word runs, each ending at a step that can reject.

        A step checks a mask word only if an earlier step set one of the
        fields its teams set there, and a step that checks can reject.  Each
        run is (its (k, 1) word indices, then (step, its rows of the run's
        words, a check flag per mask word) per step).
        """
        self.runs, run, words, seen = [], [], [], set()
        for i, st in enumerate(self.steps):
            checks = [bool(fields & seen) for *_, fields in st.masks]
            seen.update(*(fields for *_, fields in st.masks))
            run.append((st, slice(len(words), len(words) + len(st.tids)), checks))
            words.extend(st.words)
            if any(checks) or i == len(self.steps) - 1:
                self.runs.append((np.array(words, dtype=np.uint64)[:, None], run))
                run, words = [], []

    def _round(self, keys: np.ndarray, first: int):
        """One proposal round for the streams ``keys``, from word ``first`` on.

        Returns (cols, pos): the indices into ``keys`` whose proposal is
        valid, and their (m*n, L') team->group positions.
        """
        n = self.n
        L = keys.size
        pos = np.empty((self.m * n, L), dtype=np.int8)
        masks = [np.zeros(L, dtype=np.int64) for _ in range(self.nmasks)]
        cols = np.arange(L)  # index into keys of each live proposal
        for idx, run in self.runs:
            L = cols.size
            if not L:
                break
            words = words_np(keys if L == keys.size else keys[cols], np.uint64(first) + idx)
            rows = np.arange(L)
            for st, at, checks in run:
                if st.hosts is None:
                    pool = np.tile(np.arange(n, dtype=np.int8), (L, 1))
                else:
                    # open groups in ascending order, as the word layout lists them
                    taken = np.zeros((L, n), dtype=bool)
                    taken[rows, pos[st.hosts]] = True
                    pool = np.nonzero(~taken)[1].astype(np.int8).reshape(L, -1)
                size = pool.shape[1]
                # pick-and-swap: pick i takes flat pool slot picks[i], whose
                # entry is replaced by the row's last remaining one
                picks = (words[at] % st.moduli).view(np.intp)
                picks += rows * size
                flat = pool.ravel()
                for i, tid in enumerate(st.tids):
                    pos[tid] = flat[picks[i]]
                    flat[picks[i]] = pool[:, size - 1 - i]
                ok = None
                for (w, ids, offs, _), check in zip(st.masks, checks):
                    bits = (1 << (pos[ids] + offs)).sum(axis=0)
                    if check:
                        clear = (masks[w] & bits) == 0
                        ok = clear if ok is None else ok & clear
                    masks[w] |= bits
                if ok is not None and not ok.all():
                    cols, pos = cols[ok], pos[:, ok]
                    masks = [mk[ok] for mk in masks]
        for ids, lo, hi in self.counted:
            L = cols.size
            if not L:
                break
            offsets = pos[ids].astype(np.intp) + n * np.arange(L)
            counts = np.bincount(offsets.ravel(), minlength=L * n).reshape(L, n)
            ok = ((counts >= lo) & (counts <= hi)).all(axis=1)
            cols, pos = cols[ok], pos[:, ok]
        return cols, pos

    def run_trials(self, seed: int, t_lo: int, t_hi: int, max_proposals: int = DEFAULT_PROPOSAL_CAP):
        """Accepted assignments for trials [t_lo, t_hi).

        Returns (pos, proposals): pos is (T, m*n) team->group, proposals the
        per-trial count of proposals including the accepted one.
        """
        T = t_hi - t_lo
        ckey = cell_key(seed, "uniform", self.constraints.scenario)
        keys = trial_keys(ckey, np.arange(t_lo, t_hi, dtype=np.uint64))
        out_pos = np.empty((T, self.m * self.n), dtype=np.int8)
        proposals = np.zeros(T, dtype=np.int64)
        live = np.arange(T)
        p = 0
        while live.size:
            if p >= max_proposals:
                pending = ", ".join(str(t_lo + t) for t in live[:8].tolist())
                raise ProposalBudgetError(
                    f"no valid assignment in {max_proposals} proposals "
                    f"(scenario {self.constraints.scenario}, {live.size} trials pending: "
                    f"{pending}{', ...' if live.size > 8 else ''})"
                )
            rejected = []
            for a in range(0, live.size, _ROUND_BLOCK):
                part = live[a : a + _ROUND_BLOCK]
                good, pos = self._round(keys[part], p * self.words)
                done = part[good]
                out_pos[done] = pos.T
                proposals[done] = p + 1
                rejected.append(np.delete(part, good))
            live = np.concatenate(rejected)
            p += 1
        return out_pos, proposals


@lru_cache(maxsize=64)
def get_uniform_sampler(instance: Instance, constraints: ConstraintSet) -> VectorUniform:
    return VectorUniform(instance, constraints)


@dataclass
class _Step:
    """One placement step of a proposal round: the host teams, or one pot's other teams."""

    pot: int  # its pot, 1-based, or 0 for the host step
    words: range  # the word of each of its teams within a proposal
    tids: list  # its teams, in word order
    moduli: np.ndarray  # (len(tids), 1): the pool size at each pick
    hosts: np.ndarray | None  # host teams of the pot, whose groups are closed to it
    masks: list  # (mask word, team ids, (k, 1) bit offsets, fields) per word it touches
