"""Outside tracer: wraps relubab's layer functions where they are looked up.

Nothing inside ``src/relubab`` is changed. ``relubab.search`` binds its
helpers with ``from ... import``, so those are patched in the search
module's namespace; module-level helpers called from their own module
(``numeric.build_relaxation``, ``heuristics.babsr_scores``) are patched
there, and ``BoundedSimplex`` / ``QNet`` methods on the class.

Spans (name, start, end, parent) stay in memory while the tracer is active
and are written out by ``write_spans``. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import relubab.agent
import relubab.harness
import relubab.heuristics
import relubab.numeric
import relubab.search


def _count_infeasible(stat, args, result):
    if result is False:
        stat["infeasible"] += 1


def _count_rows(stat, args, result):
    stat["rows"] += len(result[0])


def _count_nodes(stat, args, result):
    stat["nodes"] += result.iterations


# (owner, attribute, span name, extra counter or None)
TARGETS = (
    (relubab.search, "verify", "search.verify", _count_nodes),
    (relubab.agent, "verify", "search.verify", _count_nodes),
    (relubab.search, "propagate_intervals", "numeric.propagate_intervals",
     None),
    (relubab.search, "tighten_bounds_lp", "numeric.tighten_bounds_lp", None),
    (relubab.search, "solve_relaxation", "numeric.solve_relaxation", None),
    (relubab.numeric, "build_relaxation", "numeric.build_relaxation", None),
    (relubab.numeric, "solve_lp", "numeric.solve_lp", None),
    (relubab.numeric.BoundedSimplex, "__init__", "numeric.simplex_setup",
     None),
    (relubab.numeric.BoundedSimplex, "find_feasible",
     "numeric.simplex_phase1", _count_infeasible),
    (relubab.numeric.BoundedSimplex, "optimize", "numeric.simplex_phase2",
     None),
    (relubab.search, "compute_scores", "heuristics.compute_scores", None),
    (relubab.heuristics, "babsr_scores", "heuristics.babsr_scores", None),
    (relubab.search, "select_split", "heuristics.select_split", None),
    (relubab.search, "check_witness", "query.check_witness", None),
    (relubab.agent, "featurize", "agent.featurize", None),
    (relubab.agent.QNet, "forward", "agent.qnet_forward", _count_rows),
    (relubab.agent.QNet, "backward", "agent.qnet_backward", None),
    (relubab.agent, "prepare_targets", "agent.prepare_targets", None),
    (relubab.agent, "compute_gradients", "agent.compute_gradients", None),
    (relubab.agent, "sample_prioritized", "agent.sample_prioritized", None),
    (relubab.agent, "train_step", "agent.train_step", None),
    (relubab.agent, "generate_demonstrations",
     "agent.generate_demonstrations", None),
    (relubab.harness, "load_nnet", "model.load_nnet", None),
    (relubab.harness, "parse_property", "query.parse_property", None),
    (relubab.harness, "gen_random_suite", "harness.gen_random_suite", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Collects spans and per-name totals while active."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int]] = []
        self.stats = {name: dict.fromkeys(
            ("calls", "self_ns", "rows", "infeasible", "nodes"), 0)
            for name in SPAN_NAMES}
        self._name_index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._stack: list[list[int]] = []   # [span index, child ns]
        self._patches = []
        for owner, attr, name, extra in TARGETS:
            original = owner.__dict__[attr]
            self._patches.append(
                (owner, attr, original, self._wrap(original, name, extra)))

    def _wrap(self, fn, name, extra):
        stat = self.stats[name]
        name_idx = self._name_index[name]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (name_idx, start, end, parent)
                stat["calls"] += 1
                stat["self_ns"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if extra is not None:
                extra(stat, args, result)
            return result

        return traced

    def activate(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def deactivate(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, dict[str, int]]:
        return {name: dict(s) for name, s in self.stats.items()}

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i, (name_idx, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{SPAN_NAMES[name_idx]},{start},{end},"
                         f"{parent}\n")
