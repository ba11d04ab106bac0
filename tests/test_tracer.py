"""The benchmark's outside tracer (bench/tracer.py) still reaches its targets.

The tracer looks every function it wraps up by name in its owner's
``__dict__``, so building it raises KeyError when a name moved. A function
that is no longer called through the patched name reads zero calls.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import relubab.search  # noqa: E402
from relubab.agent import AgentPolicy, QNet  # noqa: E402
from relubab.harness import gen_random_suite  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

# spans a branch-and-bound node passes through; numeric.build_relaxation is
# a target that no node reaches any more (both node LPs keep one layout per
# query, NodeLP), so it reads zero calls
NODE_SPANS = (
    "search.verify", "numeric.propagate_intervals",
    "numeric.tighten_bounds_lp", "numeric.solve_relaxation",
    "numeric.solve_lp", "numeric.simplex_setup",
    "numeric.simplex_phase1", "numeric.simplex_phase2",
    "heuristics.compute_scores", "heuristics.babsr_scores",
    "heuristics.select_split", "query.check_witness", "agent.featurize",
)


@pytest.fixture(scope="module")
def traced_calls():
    # a SAT query whose agent tree splits below the shared initial depth
    inst = gen_random_suite(seed=7, count=1, n_relus=(6, 10))[0]
    budget = relubab.search.Budget(seed=0, max_iterations=2000)
    tracer = Tracer()
    tracer.activate()
    try:
        for strategy, tighten in (("babsr", True), ("babsr", False)):
            relubab.search.verify(inst.net, inst.query, strategy, budget,
                                  tighten=tighten)
        policy = AgentPolicy(QNet.create(np.random.default_rng(0)))
        relubab.search.verify(inst.net, inst.query, policy, budget,
                              tighten=False)
    finally:
        tracer.deactivate()
    return {name: stat["calls"] for name, stat in tracer.snapshot().items()}


def test_node_spans_are_targets():
    assert set(NODE_SPANS) <= set(SPAN_NAMES)


@pytest.mark.parametrize("span", NODE_SPANS)
def test_node_span_called(traced_calls, span):
    assert traced_calls[span] > 0


def test_deactivate_restores_originals(traced_calls):
    assert not hasattr(relubab.search.verify, "__wrapped__")
