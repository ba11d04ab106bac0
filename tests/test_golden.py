"""Byte-identical regression test for search trees and a training loss trace.

The files under ``tests/golden/`` hold the event logs of two fixed suites
for the four static strategies and an untrained agent, each with LP
tightening on and off, and the loss trace of one short training run. The
first suite's queries are all SAT; the second (``unsat-*.log``) holds only
UNSAT queries, so their trees are explored to the end and every leaf is a
conflict. A refactor that keeps behaviour keeps these bytes. A change that
alters trees on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and reviews the diff of ``tests/golden/``. A change that should alter only
some files names them, and the script rewrites only those:

    PYTHONPATH=src python tests/test_golden.py train-loss-trace.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relubab
from relubab.agent import AgentPolicy, QNet, TrainerConfig, train
from relubab.harness import gen_random_suite
from relubab.heuristics import STATIC_STRATEGIES
from relubab.search import Budget, events_to_text, verify

GOLDEN_DIR = Path(__file__).parent / "golden"
STRATEGIES = STATIC_STRATEGIES + ("agent",)
LOSS_TRACE = "train-loss-trace.txt"
UNSAT_PREFIX = "unsat-"


def _suite():
    return gen_random_suite(seed=7, count=6, n_relus=(6, 10))


def _unsat_suite():
    suite = gen_random_suite(seed=8, count=12, n_relus=(6, 10))
    return [suite[i] for i in (0, 2, 7, 8, 10, 11)]


def _log_name(strategy: str, tighten: bool) -> str:
    return f"{strategy}-{'lp' if tighten else 'interval'}.log"


GOLDEN_NAMES = tuple(prefix + _log_name(s, t) for prefix in ("", UNSAT_PREFIX)
                     for s in STRATEGIES
                     for t in (True, False)) + (LOSS_TRACE,)


def _event_log_text(suite, strategy: str, tighten: bool,
                    seed: int = 0) -> str:
    chunks = []
    for inst in suite:
        policy = strategy
        if strategy == "agent":
            policy = AgentPolicy(QNet.create(np.random.default_rng(0)))
        log: list = []
        verify(inst.net, inst.query, policy,
               Budget(seed=seed, max_iterations=2000), tighten=tighten,
               event_log=log)
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
    suite = _suite
    if name.startswith(UNSAT_PREFIX):
        suite, name = _unsat_suite, name[len(UNSAT_PREFIX):]
    strategy, mode = name[:-len(".log")].rsplit("-", 1)
    return _event_log_text(suite(), strategy, mode == "lp")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_matches_golden(name):
    assert golden_text(name) == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("tighten", [True, False], ids=["lp", "interval"])
def test_budget_seed_changes_no_event(strategy, tighten):
    # verification draws no random numbers, so Budget.seed only labels a
    # record: seed 12345 gives the bytes the golden file holds for seed 0
    text = _event_log_text(_suite(), strategy, tighten, seed=12345)
    assert text == (GOLDEN_DIR / _log_name(strategy, tighten)).read_text()


def test_regenerating_unknown_name_is_an_error():
    # checked before any file is written
    src = str(Path(relubab.__file__).parents[1])
    run = subprocess.run([sys.executable, __file__, LOSS_TRACE, "nope.log"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode != 0
    assert "unknown golden file(s) nope.log" in run.stderr
    assert "wrote" not in run.stdout


if __name__ == "__main__":
    names = sys.argv[1:] or GOLDEN_NAMES
    unknown = sorted(set(names) - set(GOLDEN_NAMES))
    if unknown:
        sys.exit(f"unknown golden file(s) {', '.join(unknown)}; "
                 f"choose from {', '.join(GOLDEN_NAMES)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN_DIR / name).write_text(golden_text(name))
        print(f"wrote {GOLDEN_DIR / name}")
