"""Outside-in span tracer for the drawlab benchmark.

The tracer replaces the public entry points of each drawlab layer with
wrappers that record one span per call: its name, start, end and the span
that was open when the call began (its parent).  Spans of one benchmark
round share that round's run id.  They are kept in flat in-memory arrays
while the round runs and written once, when it ends.

Nothing under ``src/`` changes: wrappers are set on module and class
attributes by :meth:`Tracer.install` and put back by :meth:`Tracer.remove`.
Names are patched where callers look them up, e.g. ``mechanisms.words_np``,
because ``mechanisms`` imports ``words_np`` by name.

Recursive look-ahead calls (``completable_state`` called from its own
search) are counted as search nodes but get no span of their own, so a
look-ahead span covers the whole search it started.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# span names, one per wrapped entry point; the index is the stored name id
SPANS = (
    "rng.draw_order",
    "rng.words_np",
    "mechanisms.place_orders",
    "mechanisms.run_trials",
    "feasibility.lookahead",
    "metrics.add_pos_batch",
    "experiment.run_scenario",
    "experiment.sweep",
    "experiment.export",
    "experiment.parse",
    "experiment.pareto",
    "cli.main",
    "model.get_instance",
    "oracle.exact_s0",
)

# Per-layer metrics, in report order: name -> unit.  Counters that are a
# pure function of (workload, seed, trials) are listed in DETERMINISTIC;
# experiment.export.bytes is not, as the export carries elapsed_ms values.
LAYER_UNITS = {
    "rng.draw_order.calls": "count",
    "rng.draw_order.s": "s",
    "rng.words_np.words": "count",
    "rng.words_np.s": "s",
    "mechanisms.place_orders.calls": "count",
    "mechanisms.place_orders.self_s": "s",
    "mechanisms.run_trials.self_s": "s",
    "mechanisms.proposals_per_trial": "count",
    "feasibility.lookahead.calls": "count/trial",
    "feasibility.search_nodes": "count",
    "feasibility.memo_misses": "count",
    "feasibility.memo_hit_rate": "ratio",
    "feasibility.memo_entries": "count",
    "feasibility.lookahead.self_s": "s",
    "metrics.add_pos_batch.calls": "count",
    "metrics.add_pos_batch.s": "s",
    "experiment.run_scenario.self_s": "s",
    "experiment.sweep.s": "s",
    "experiment.export.s": "s",
    "experiment.export.bytes": "B",
    "experiment.parse.s": "s",
    "experiment.pareto.s": "s",
    "cli.main.self_s": "s",
    "model.get_instance.s": "s",
    "oracle.exact_s0.s": "s",
    "trace.overhead_frac": "ratio",
}

DETERMINISTIC = (
    "rng.draw_order.calls",
    "rng.words_np.words",
    "mechanisms.place_orders.calls",
    "mechanisms.proposals_per_trial",
    "feasibility.lookahead.calls",
    "feasibility.search_nodes",
    "feasibility.memo_misses",
    "feasibility.memo_entries",
    "metrics.add_pos_batch.calls",
)


class Tracer:
    """Span recorder for one benchmark round (one process, one thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = list(SPANS)
        self.name = array("B")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []
        self._in_lookahead = False
        self._checkers = {}  # id -> (checker, memo size when first returned)
        self.words = 0
        self.proposals = 0
        self.uniform_trials = 0
        self.search_nodes = 0
        self.export_bytes = 0

    # -- wrapping -------------------------------------------------------

    def span(self, label: str, fn, on_return=None):
        """``fn`` wrapped so that every call records one span named ``label``."""
        nid = self.names.index(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _lookahead(self, fn):
        # Inlined rather than built on span(): this wrapper runs ~35 times
        # per Skip trial.  Look-ahead spans never have children, so they are
        # not pushed on the stack.
        nid = self.names.index("feasibility.lookahead")
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def completable_state(checker, sigs, remaining):
            if tracer._in_lookahead:
                tracer.search_nodes += 1
                return fn(checker, sigs, remaining)
            tracer._in_lookahead = True
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            start.append(clock())
            try:
                return fn(checker, sigs, remaining)
            finally:
                end[i] = clock()
                tracer._in_lookahead = False

        return completable_state

    def _watch_checkers(self, fn):
        def get_checker(instance, constraints):
            checker = fn(instance, constraints)
            self._checkers.setdefault(id(checker), (checker, len(checker._memo)))
            return checker

        return get_checker

    def _count_words(self, out):
        self.words += out.size

    def _count_proposals(self, out):
        self.proposals += int(out[1].sum())
        self.uniform_trials += out[1].size

    def _count_export(self, out):
        self.export_bytes += len(out)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced entry point (drawlab must be importable)."""
        from drawlab import cli, experiment, feasibility, mechanisms, metrics, model, oracle, rng

        p, s = self._patch, self.span
        p(rng.RngStream, "draw_order", s("rng.draw_order", rng.RngStream.draw_order))
        p(mechanisms, "words_np", s("rng.words_np", mechanisms.words_np, self._count_words))
        p(mechanisms.SkipEngine, "place_orders",
          s("mechanisms.place_orders", mechanisms.SkipEngine.place_orders))
        p(mechanisms.VectorUniform, "run_trials",
          s("mechanisms.run_trials", mechanisms.VectorUniform.run_trials, self._count_proposals))
        p(mechanisms, "get_checker", self._watch_checkers(mechanisms.get_checker))
        p(feasibility.CompletabilityChecker, "completable_state",
          self._lookahead(feasibility.CompletabilityChecker.completable_state))
        p(metrics.MatrixAccumulator, "add_pos_batch",
          s("metrics.add_pos_batch", metrics.MatrixAccumulator.add_pos_batch))
        p(experiment, "run_scenario", s("experiment.run_scenario", experiment.run_scenario))
        p(experiment, "sweep", s("experiment.sweep", experiment.sweep))
        p(experiment, "export_results",
          s("experiment.export", experiment.export_results, self._count_export))
        p(experiment, "parse_results", s("experiment.parse", experiment.parse_results))
        p(experiment, "pareto_frontier", s("experiment.pareto", experiment.pareto_frontier))
        p(cli, "main", s("cli.main", cli.main))
        get_instance = s("model.get_instance", model.get_instance)
        p(model, "get_instance", get_instance)
        p(cli, "get_instance", get_instance)
        p(oracle, "exact_scenario0_matrices",
          s("oracle.exact_s0", oracle.exact_scenario0_matrices))

    def remove(self):
        """Put every original entry point back."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results --------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.uint8),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def write(self, path) -> None:
        """Write every span, with the name table and run id, to ``path`` (.npz)."""
        name, parent, start, end = self._arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name=name, parent=parent, start=start, end=end)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far (0 where a layer was not reached)."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        own = dur - covered

        def calls(label):
            return int(np.count_nonzero(name == self.names.index(label)))

        def total(label, times=dur):
            return float(times[name == self.names.index(label)].sum())

        trials = calls("mechanisms.place_orders")
        lookups = calls("feasibility.lookahead") + self.search_nodes
        entries = sum(len(c._memo) for c, _ in self._checkers.values())
        misses = entries - sum(base for _, base in self._checkers.values())
        out = {
            "rng.draw_order.calls": calls("rng.draw_order"),
            "rng.draw_order.s": total("rng.draw_order"),
            "rng.words_np.words": self.words,
            "rng.words_np.s": total("rng.words_np"),
            "mechanisms.place_orders.calls": trials,
            "mechanisms.place_orders.self_s": total("mechanisms.place_orders", own),
            "mechanisms.run_trials.self_s": total("mechanisms.run_trials", own),
            "mechanisms.proposals_per_trial": (
                self.proposals / self.uniform_trials if self.uniform_trials else 0.0
            ),
            "feasibility.lookahead.calls": (
                calls("feasibility.lookahead") / trials if trials else 0.0
            ),
            "feasibility.search_nodes": self.search_nodes,
            "feasibility.memo_misses": misses,
            "feasibility.memo_hit_rate": 1.0 - misses / lookups if lookups else 0.0,
            "feasibility.memo_entries": entries,
            "feasibility.lookahead.self_s": total("feasibility.lookahead", own),
            "metrics.add_pos_batch.calls": calls("metrics.add_pos_batch"),
            "metrics.add_pos_batch.s": total("metrics.add_pos_batch"),
            "experiment.run_scenario.self_s": total("experiment.run_scenario", own),
            "experiment.sweep.s": total("experiment.sweep"),
            "experiment.export.s": total("experiment.export"),
            "experiment.export.bytes": self.export_bytes,
            "experiment.parse.s": total("experiment.parse"),
            "experiment.pareto.s": total("experiment.pareto"),
            "cli.main.self_s": total("cli.main", own),
            "model.get_instance.s": total("model.get_instance"),
            "oracle.exact_s0.s": total("oracle.exact_s0"),
        }
        return out
