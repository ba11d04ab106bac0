"""Byte-identical regression test for search trees and a training loss trace.

The files under ``tests/golden/`` hold the event logs of a fixed suite for
the four static strategies and an untrained agent, each with LP tightening
on and off, and the loss trace of one short training run. A refactor that
keeps behaviour keeps these bytes. A change that alters trees on purpose
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and reviews the diff of ``tests/golden/``.
"""

from pathlib import Path

import numpy as np
import pytest

from relubab.agent import AgentPolicy, QNet, TrainerConfig, train
from relubab.harness import gen_random_suite
from relubab.heuristics import STATIC_STRATEGIES
from relubab.search import Budget, events_to_text, verify

GOLDEN_DIR = Path(__file__).parent / "golden"
STRATEGIES = STATIC_STRATEGIES + ("agent",)
LOSS_TRACE = "train-loss-trace.txt"


def _suite():
    return gen_random_suite(seed=7, count=6, n_relus=(6, 10))


def _log_name(strategy: str, tighten: bool) -> str:
    return f"{strategy}-{'lp' if tighten else 'interval'}.log"


GOLDEN_NAMES = tuple(_log_name(s, t) for s in STRATEGIES
                     for t in (True, False)) + (LOSS_TRACE,)


def _event_log_text(strategy: str, tighten: bool) -> str:
    chunks = []
    for inst in _suite():
        policy = strategy
        if strategy == "agent":
            policy = AgentPolicy(QNet.create(np.random.default_rng(0)))
        log: list = []
        verify(inst.net, inst.query, policy, Budget(seed=0,
                                                    max_iterations=2000),
               tighten=tighten, event_log=log)
        chunks.append(f"# query {inst.query_id}\n" + events_to_text(log))
    return "".join(chunks)


def _loss_trace_text() -> str:
    pairs = [(inst.net, inst.query) for inst in _suite()]
    config = TrainerConfig(demo_epochs=1, demo_steps=20, finetune_epochs=1,
                           finetune_steps=20, seed=3, tighten=False,
                           run_max_iterations=300)
    return repr(train(config, pairs[:3], pairs[3:]).loss_trace) + "\n"


def golden_text(name: str) -> str:
    if name == LOSS_TRACE:
        return _loss_trace_text()
    strategy, mode = name[:-len(".log")].rsplit("-", 1)
    return _event_log_text(strategy, mode == "lp")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_matches_golden(name):
    assert golden_text(name) == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_NAMES:
        (GOLDEN_DIR / name).write_text(golden_text(name))
        print(f"wrote {GOLDEN_DIR / name}")
