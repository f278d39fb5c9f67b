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
the proposals still alive.  Proposal p of a stream is the stream moved on
by p*m*n words, so a round may hold several consecutive proposals of one
trial, and the earliest accepted one wins.  Both mechanisms draw without
replacement by the same flat pick-and-swap, which takes the raw stream
words and owns the pick arithmetic.  Skip is the batch kernel of
``SkipEngine``: every trial carries the id of its canonical state and a
signature id per group, and a step looks up every group's attempt in one
gather from the level's dense transition table.  ``feasibility`` builds
those tables, from the graph of the same completability builder that
``feasibility.completable`` uses, and the engine steps on them.
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
from .rng import RngStream, advance_keys, derive_key, trial_keys, words_np

MECHANISMS = ("uniform", "skip")
_MECH_CODE = {"uniform": 1, "skip": 2}

DEFAULT_PROPOSAL_CAP = 10**7
# Uniform proposals per round: bounds a round's arrays (its word runs,
# positions and masks), so a batch's peak memory does not depend on how
# many of its trials are still pending; a pass gives each pending trial
# more than one proposal only while all of them fit in one round
_ROUND_BLOCK = 8192
# pools of at least this many rows divide each pick row by a scalar; the
# measured crossover (see ``_pick_and_swap``)
_SCALAR_ROWS = 512


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


def _check_groups(instance: Instance) -> None:
    """Both samplers hold group ids as int8."""
    if instance.n > 128:
        raise ValueError(f"the samplers support at most 128 groups (got {instance.n})")


def _pos_to_assignment(instance: Instance, pos) -> Assignment:
    asg = Assignment.empty(instance)
    for tid, g in enumerate(pos):
        asg.slots[instance.pot_of(tid) - 1][g] = tid
    return asg


def _pick_and_swap(pool: np.ndarray, words: np.ndarray, out: np.ndarray) -> None:
    """Draw k entries without replacement from each row of ``pool`` (R, size).

    Pick i of row r takes slot ``words[i, r] % (size - i)`` of the row into
    ``out[i, r]``, and the row's last remaining entry takes that slot, as in
    ``RngStream.draw_order``.  ``pool`` (C-contiguous) is used up; the uint64
    stream words ``words`` (k, R) are not changed.

    numpy divides a contiguous row by a scalar with a multiply and a shift,
    but by an array, a (k, 1) column too, with a hardware division per
    element.  So pools of ``_SCALAR_ROWS`` rows or more divide each pick row
    by its own scalar.  That costs a numpy call per pick, which made single
    Uniform draws 1.2-1.4x slower, so smaller pools take one ``%`` by the
    column of divisors; the two break even at 400-500 rows of 7 or 8 columns
    (numpy 2.4, one x86-64 core).
    """
    R, size = pool.shape
    div = np.arange(size, size - len(words), -1, dtype=np.uint64)
    if R < _SCALAR_ROWS:
        picks = words % div[:, None]
    else:
        picks = np.empty_like(words)
        for w, d, q in zip(words, div, picks):
            np.floor_divide(w, d, out=q)
        picks *= div[:, None]
        np.subtract(words, picks, out=picks)
    picks = picks.view(np.intp)
    picks += np.arange(0, R * size, size)  # each pick's slot in the flat pool
    flat = pool.ravel()
    for i, at in enumerate(picks):
        out[i] = flat[at]
        if i < len(picks) - 1:  # the pool is not read after the last pick
            flat[at] = pool[:, size - 1 - i]


# ---------------------------------------------------------------------------
# Skip mechanism
# ---------------------------------------------------------------------------


class SkipEngine:
    """Skip placement with exact completability look-ahead, batched across trials.

    All trials of a batch step through the m*n placements together, so at
    every step they are on the same level: the number of teams placed.  Each
    trial carries the local id of its canonical state within the level (the
    sorted group signatures plus the remaining type counts) and the
    signature id of each of its groups, by label.  A group filled with every
    band's lo met takes the checker's one closed signature, so states that
    differ only in their full groups share an id.  Placing a team of type tc
    into a group of signature s has an outcome that depends on (state, s,
    tc) alone: the child's local id and the group's new signature id, or a
    failure when a band's hi breaks or the child is not completable.  The
    checker builds every level's dense table of these outcomes
    (``CompletabilityChecker.skip_tables``) when the engine is made, and
    the engine steps on them: a step is one gather over all groups of all
    trials, which then take their first group whose attempt succeeds.
    """

    def __init__(self, instance: Instance, constraints: ConstraintSet):
        _check_groups(instance)
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
        self.team_type = np.array(checker.team_type, dtype=np.int32)
        self.feasible, self._root_sig, self._bits, self._tabs, self._cols = checker.skip_tables()

    def draw_orders(self, keys) -> np.ndarray:
        """Per-pot draw orders of a batch of streams: (T, m, n) team ids.

        Pot k consumes words k*n .. k*n + n-1 of each stream (a stream read
        from a later word is one moved on by ``rng.advance_keys``), with the
        same pick-and-swap as ``RngStream.draw_order``.  All pots of all
        trials pick together, one pick index at a time.
        """
        keys = np.asarray(keys, dtype=np.uint64)[:, None]
        T = keys.shape[0]
        m, n = self.m, self.n
        # pick-major, each pick row contiguous (a C-ordered idx gives a C-ordered
        # block): words[i, t*m + k] is pick i of pot k of trial t, word k*n + i
        idx = np.arange(n, dtype=np.uint64)[:, None, None] + np.arange(0, m * n, n, dtype=np.uint64)
        words = words_np(keys, idx).reshape(n, T * m)
        pool = np.tile(self.pot_ids, (T, 1))  # row t*m + k: pot k of trial t
        orders = np.empty_like(pool)
        _pick_and_swap(pool, words, orders.T)
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
        T, n = len(orders), self.n
        orders = np.asarray(orders).reshape(T, self.m * n)  # column L: the team placed at level L
        types = self.team_type.take(orders)
        first = np.arange(0, T * n, n)  # each trial's first entry in the flat (T, n) arrays
        sid = np.full((T, n), self._root_sig, dtype=np.intp)
        state = np.zeros(T, dtype=np.int32)
        groups = np.empty_like(orders, dtype=np.int8)  # column L: the group taken at level L
        for L, (tab, cols) in enumerate(zip(self._tabs, self._cols)):
            idx = cols.take(sid)
            idx += (state * (tab.shape[1] * tab.shape[2]) + types[:, L])[:, None]
            out = tab.take(idx)
            g = (out >= 0).argmax(axis=1)  # each trial's first group that keeps it completable
            at = first + g
            got = out.take(at)
            if (got < 0).any():  # np.take would wrap a -1 silently
                raise InfeasibleScenarioError("skip draw dead end; look-ahead violated")
            state = got >> self._bits
            sid.put(at, got & (1 << self._bits) - 1)
            groups[:, L] = g
        pos = np.empty_like(groups)
        np.put_along_axis(pos, orders, groups, axis=1)
        return pos

    def run_trials(self, seed: int, t_lo: int, t_hi: int) -> np.ndarray:
        """Skip assignments (T, m*n) of trials [t_lo, t_hi) of one cell."""
        ckey = cell_key(seed, "skip", self.constraints.scenario)
        keys = trial_keys(ckey, np.arange(t_lo, t_hi, dtype=np.uint64))
        return self.place_orders(self.draw_orders(keys))

    def outcome(self, orders) -> DrawOutcome:
        """One placed trial of (m, n) draw orders, with its trace.

        A team's skipped groups are the groups of its pot still open when it
        was drawn whose label is below the group it went to.
        """
        orders = np.asarray(orders, dtype=np.intp)
        pos = self.place_orders(orders[None])[0].tolist()
        trace = []
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
    orders = engine.draw_orders(advance_keys([rng.key], rng.pos))[0]
    rng.pos += engine.m * engine.n
    return engine.outcome(orders)


def skip_draw_with_orders(instance, constraints, orders) -> DrawOutcome:
    """Skip placement for pinned draw orders (per-pot lists of team ids)."""
    engine = get_skip_engine(instance, constraints)
    if len(orders) != instance.m:
        raise ValueError(f"orders must list {instance.m} pots")
    for k, order in enumerate(orders, start=1):
        expect = {t.id for t in instance.pot_teams(k)}
        if set(order) != expect or len(order) != len(expect):
            raise ValueError(f"orders[{k - 1}] must list every pot-{k} team exactly once")
    return engine.outcome(orders)


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
    of a trial words p*m*n .. (p+1)*m*n - 1: words 0 .. m*n - 1 of the
    trial's stream moved on by p*m*n words.  First comes one word per host
    team, in id order, each picking a group not yet taken by another host
    team; then one word per other team, pot by pot in id order, each
    picking from the groups its pot's host teams left open, listed in
    ascending order.  A pick takes entry ``word % size`` of the open list
    and moves the list's last entry into its place.  The proposal is
    accepted iff every band holds.  A step stores no divisors: it hands its
    rows of stream words to ``_pick_and_swap``, which computes the picks.

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

    A round takes one proposal from each of its streams, so a pass can give
    every pending trial its next r proposals at once, as r streams moved on
    by p, p+1, .. p+r-1 proposals; each trial keeps the earliest one that is
    accepted.  r at most doubles from pass to pass, and exceeds 1 only while
    the whole pass fits in one round of at most ``_ROUND_BLOCK`` proposals.
    """

    def __init__(self, instance: Instance, constraints: ConstraintSet):
        _check_groups(instance)
        self.instance = instance
        self.constraints = constraints
        n, m = instance.n, instance.m
        self.n, self.m = n, m
        self.words = m * n
        # a round holds each team's group in the row of its word
        hosts = sorted(instance.host_exclusion)
        order = hosts + [t.id for t in instance.teams if t.id not in instance.host_exclusion]
        self.word_of = word_of = np.argsort(order)
        # proposals meet the host band by construction
        bands = [b for b in constraint_bands(instance, constraints) if b.letter != "HOST"]
        caps = [b.teams for b in bands if (b.lo, b.hi) == (0, 1)]
        # every other band is checked once, on the finished proposals
        self.counted = [
            (word_of[sorted(b.teams)], b.lo, b.hi)
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

        def step(pot, start, tids, hosts=()):
            masks = []
            for w in sorted({field[t] // per_word for t in tids if t in field}):
                ids = [t for t in tids if t in field and field[t] // per_word == w]
                offs = np.array([[field[t] % per_word * n] for t in ids], dtype=np.int64)
                masks.append((w, word_of[ids], offs, {field[t] for t in ids}))
            return _Step(
                pot=pot,
                words=range(start, start + len(tids)),
                tids=tids,
                hosts=word_of[hosts] if hosts else None,
                masks=masks,
            )

        # the pots without host teams, then the host teams, then the pots
        # with host teams, most bound teams first within each part; a pot
        # of host teams only has nothing left to build
        start = len(hosts)
        pots = []
        for k in range(1, m + 1):
            tids = [t.id for t in instance.pot_teams(k) if t.id not in instance.host_exclusion]
            if tids:
                pot_hosts = [t for t in hosts if instance.pot_of(t) == k]
                pots.append(step(k, start, tids, pot_hosts))
            start += len(tids)
        pots.sort(key=lambda st: (st.hosts is not None, -sum(len(ids) for _, ids, _, _ in st.masks)))
        if hosts:
            pots.insert(sum(st.hosts is None for st in pots), step(0, 0, hosts))
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

    def _round(self, keys: np.ndarray):
        """One proposal from each of the streams ``keys``, read from word 0 on.

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
            words = words_np(keys if L == keys.size else keys[cols], idx)
            first = np.arange(0, L * n, n)  # each proposal's first entry in a flat (L, n) array
            for st, at, checks in run:
                if st.hosts is None:
                    pool = np.tile(np.arange(n, dtype=np.int8), (L, 1))
                else:
                    # open groups in ascending order, as the word layout lists them:
                    # one flatnonzero over all proposals, less each one's offset
                    free = np.ones(L * n, dtype=bool)
                    free[pos[st.hosts] + first] = False
                    pool = (free.nonzero()[0].reshape(L, -1) - first[:, None]).astype(np.int8)
                _pick_and_swap(pool, words[at], pos[st.words.start : st.words.stop])
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
        return cols, pos[self.word_of]

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
            # proposals p .. p+r-1 of every pending trial, when they fit in one block
            r = min(max(1, _ROUND_BLOCK // live.size), p + 1, max_proposals - p)
            shift = np.arange(p * self.words, (p + r) * self.words, self.words, dtype=np.uint64)
            rejected = []
            for a in range(0, live.size, _ROUND_BLOCK):
                part = live[a : a + _ROUND_BLOCK]
                # row j*L + i: proposal p+j of trial part[i], its stream moved on (p+j)*m*n words
                good, pos = self._round(advance_keys(keys[part], shift[:, None]).ravel())
                j = 0
                if r > 1:  # each trial keeps its earliest accepted proposal
                    _, first = np.unique(good % part.size, return_index=True)
                    j, good = np.divmod(good[first], part.size)
                    pos = pos[:, first]
                done = part[good]
                out_pos[done] = pos.T
                proposals[done] = p + 1 + j
                left = np.ones(part.size, dtype=bool)
                left[good] = False
                rejected.append(part[left])
            live = np.concatenate(rejected)
            p += r
        return out_pos, proposals


@lru_cache(maxsize=64)
def get_uniform_sampler(instance: Instance, constraints: ConstraintSet) -> VectorUniform:
    return VectorUniform(instance, constraints)


@dataclass
class _Step:
    """One placement step of a proposal round: the host teams, or one pot's other teams."""

    pot: int  # its pot, 1-based, or 0 for the host step
    words: range  # the word of each of its teams within a proposal, and its row in a round
    tids: list  # its teams, in word order
    hosts: np.ndarray | None  # host teams of the pot, whose groups are closed to it
    masks: list  # (mask word, team ids, (k, 1) bit offsets, fields) per word it touches
