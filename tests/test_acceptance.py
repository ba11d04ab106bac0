"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines as
they complete. Criterion 9 trains the agent for its full step budget and
evaluates five strategies over a generated benchmark; expect the module to
take on the order of ten minutes on one CPU.
"""

import time

import numpy as np
import pytest

from conftest import gradient_check_max_error, phase_vector
from relubab.agent import (AgentPolicy, QNet, TrainerConfig,
                           TrajectoryCollector, double_dqn_target,
                           generate_demonstrations, margin_loss, q_forward,
                           record_delayed_rewards, train, train_step,
                           Transition)
from relubab.harness import RunRecord, brute_force_verify, gen_random_suite
from relubab.heuristics import babsr_scores, polarity, soi_error
from relubab.model import NeuronId, toy_network
from relubab.numeric import Phase, propagate_intervals
from relubab.query import check_witness, example_property, \
    make_robustness_queries
from relubab.search import (Budget, NodeEvent, SplitAction, SplitEvent,
                            events_to_text, verify)

N1 = NeuronId(0, 0)
N2 = NeuronId(0, 1)
STATIC = ("soi", "polarity", "pseudo-impact", "babsr")

ORACLE_SUITE_SEED = 7001
ORACLE_SUITE_SIZE = 200
TREND_SUITE_SEED = 202
TREND_SUITE_SIZE = 100
TREND_TRAINER_SEED = 1


def _report(num: int, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def oracle_results():
    """200 generated instances: oracle verdict plus every static strategy."""
    instances = gen_random_suite(seed=ORACLE_SUITE_SEED,
                                 count=ORACLE_SUITE_SIZE)
    results = []
    t0 = time.monotonic()
    for inst in instances:
        expected = brute_force_verify(inst.net, inst.query)
        by_strategy = {}
        for strategy in STATIC:
            by_strategy[strategy] = verify(
                inst.net, inst.query, strategy,
                Budget(timeout_s=300, max_iterations=500_000, seed=0))
        results.append((inst, expected, by_strategy))
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def trend_results():
    """Full-budget training on 5% of a 100-query suite, then evaluation of
    the agent and the four static heuristics on the remaining queries.

    The whole pipeline runs without LP tightening: at desk scale the
    per-node LP deduction collapses most search trees to a handful of
    nodes, which would leave the splitting policies nothing to decide;
    interval-only deduction keeps the branching decision dominant, matching
    the regime the splitting comparison is about.
    """
    suite = gen_random_suite(seed=TREND_SUITE_SEED, count=TREND_SUITE_SIZE)
    pairs = [(inst.net, inst.query) for inst in suite]
    n_demo = TREND_SUITE_SIZE // 20  # 5%
    config = TrainerConfig(seed=TREND_TRAINER_SEED, tighten=False,
                           run_max_iterations=3000, run_timeout_s=60)
    t0 = time.monotonic()
    result = train(config, pairs[:n_demo], pairs[:n_demo])
    train_seconds = time.monotonic() - t0

    policy = AgentPolicy(result.qnet)
    budget = Budget(timeout_s=60, max_iterations=20_000, seed=0)
    records = []
    witnesses = []
    t0 = time.monotonic()
    for inst in suite[n_demo:]:
        for name, strategy in [("agent", policy)] + [(s, s) for s in STATIC]:
            verdict = verify(inst.net, inst.query, strategy, budget,
                             tighten=False)
            records.append(RunRecord(inst.query_id, name, verdict.outcome,
                                     verdict.wall_time_ms, verdict.iterations,
                                     verdict.splits, 0))
            if verdict.outcome == "SAT":
                witnesses.append((inst.net, inst.query, verdict.witness))
    eval_seconds = time.monotonic() - t0
    return {"train": result, "config": config, "records": records,
            "witnesses": witnesses, "train_seconds": train_seconds,
            "eval_seconds": eval_seconds}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_running_example():
    toy = toy_network()
    query = example_property(toy)
    t0 = time.monotonic()

    strategies = list(STATIC) + [AgentPolicy(QNet.create(
        np.random.default_rng(0)))]
    for strategy in strategies:
        verdict = verify(toy, query, strategy, Budget(seed=0))
        assert verdict.outcome == "SAT"
        assert check_witness(toy, query, verdict.witness)

    # forcing (n1, Inactive) with LP tightening on: that branch closes with
    # zero further splits
    log = []
    verdict = verify(toy, query, "babsr", Budget(seed=0),
                     force_first=[SplitAction(N1, Phase.INACTIVE)],
                     event_log=log)
    assert verdict.outcome == "SAT"
    branch = next(e for e in log if isinstance(e, NodeEvent)
                  and e.action == SplitAction(N1, Phase.INACTIVE))
    assert branch.result == "conflict"
    assert not any(isinstance(e, SplitEvent) and e.node_id == branch.node_id
                   for e in log)

    # n2 first with tightening disabled: the search is forced through both
    # n2 subtrees and both n1 children, so all four split-created nodes are
    # visited (a SAT leaf always terminates a depth-first search before all
    # four activation patterns themselves can be enumerated)
    log = []
    verdict = verify(toy, query, "babsr", Budget(seed=0), tighten=False,
                     force_first=[SplitAction(N2, Phase.INACTIVE)],
                     event_log=log)
    assert verdict.outcome == "SAT"
    nodes = [e for e in log if isinstance(e, NodeEvent)]
    splits = [e for e in log if isinstance(e, SplitEvent)]
    assert [s.neuron for s in splits] == [N2, N1]
    children = [n for n in nodes if n.parent_id >= 0]
    assert len(children) == 4
    assert {n.action.neuron for n in children} == {N1, N2}

    elapsed = time.monotonic() - t0
    _report(1, elapsed < 1.0,
            f"running example reproduced (SAT + forced probes) in "
            f"{elapsed:.3f}s < 1s")


def test_criterion_2_oracle_equivalence(oracle_results):
    results, elapsed = oracle_results
    disagreements = []
    for inst, expected, by_strategy in results:
        for strategy, verdict in by_strategy.items():
            if verdict.outcome != expected.outcome:
                disagreements.append((inst.query_id, strategy,
                                      expected.outcome, verdict.outcome))
    total = len(results) * len(STATIC)
    _report(2, not disagreements and elapsed < 600,
            f"verify agrees with brute force on {total - len(disagreements)}"
            f"/{total} runs over {len(results)} instances in {elapsed:.0f}s"
            + (f"; disagreements {disagreements[:5]}" if disagreements
               else ""))


def test_criterion_3_witness_soundness(oracle_results, trend_results):
    results, _ = oracle_results
    checked = 0
    failures = 0
    for inst, expected, by_strategy in results:
        verdicts = list(by_strategy.values()) + [expected]
        for verdict in verdicts:
            if verdict.outcome == "SAT":
                checked += 1
                failures += not check_witness(inst.net, inst.query,
                                              verdict.witness)
    for net, query, witness in trend_results["witnesses"]:
        checked += 1
        failures += not check_witness(net, query, witness)
    # robustness-query family exercises the multi-output path
    rng = np.random.default_rng(3)
    from conftest import make_random_net
    from relubab.model import Layer, Network
    hidden = Layer(weight=rng.uniform(-1, 1, (5, 3)),
                   bias=rng.uniform(-0.2, 0.2, 5), has_relu=True)
    out = Layer(weight=rng.uniform(-1, 1, (4, 5)),
                bias=np.array([0.0, 0.3, -0.3, 0.6]), has_relu=False)
    net = Network(layers=(hidden, out), input_lower=-np.ones(3),
                  input_upper=np.ones(3))
    for point in ([0.0, 0.1, -0.2], [0.4, -0.5, 0.3]):
        for query in make_robustness_queries(net, point, 0.4):
            verdict = verify(net, query, "babsr", Budget(seed=0))
            if verdict.outcome == "SAT":
                checked += 1
                failures += not check_witness(net, query, verdict.witness)
    _report(3, failures == 0 and checked > 0,
            f"all {checked} SAT witnesses validate at tolerance 1e-6")


def test_criterion_4_heuristic_formula_suite():
    toy = toy_network()
    tol = 1e-12
    checks = []

    def close(a, b):
        checks.append(abs(a - b) <= tol)

    close(soi_error(0.6, 0.6), 0.0)
    close(soi_error(-0.4, 0.0), 0.0)
    close(soi_error(2.0, 3.0), 1.0)
    close(polarity(-1.0, 1.0), 0.0)
    close(polarity(-1.0, 3.0), 0.5)
    close(polarity(-2.0, 0.5), -0.6)
    unfixed = phase_vector(toy)
    bounds = propagate_intervals(toy, toy.input_lower, toy.input_upper,
                                 unfixed)
    scores = babsr_scores(toy, bounds, unfixed, np.array([1.0]))
    close(scores[0], 0.0)                  # N1: zero bias, nu_hat <= 0
    close(scores[1], -1.0 / 3.0)           # N2: slope 1/3 times nu_hat = 1
    flipped = babsr_scores(toy, bounds, unfixed, np.array([-1.0]))
    close(flipped[1], 0.0)                 # nu_hat <= 0 drops the slope term
    all_fixed = babsr_scores(toy, bounds,
                             phase_vector(toy, {N1: Phase.ACTIVE,
                                                N2: Phase.INACTIVE}),
                             np.array([1.0]))
    checks.append(all_fixed.tolist() == [0.0, 0.0])
    # delayed rewards on synthetic logs
    events = [NodeEvent(0, -1, 0, None, "open", 2, 1.0),
              SplitEvent(0, N1, Phase.INACTIVE, 2)]
    (tr,) = record_delayed_rewards(events)
    close(tr.reward, -1.0 / 3.0)
    events = [NodeEvent(0, -1, 0, None, "open", 1, 1.0),
              SplitEvent(0, N1, Phase.INACTIVE, 1)]
    (tr,) = record_delayed_rewards(events)
    close(tr.reward, -1.0)
    _report(4, all(checks),
            f"{len(checks)} tagged formula examples exact at 1e-12")


def test_criterion_5_gradient_check():
    worst = gradient_check_max_error(n_configs=100, seed=12, step=1e-5)
    _report(5, worst <= 1e-4,
            f"max relative gradient error {worst:.2e} <= 1e-4 over 100 "
            f"random configurations")


def test_criterion_6_targets_margin_and_freeze():
    checks = []
    tol = 1e-12

    checks.append(abs(double_dqn_target(-0.25, None, True, None, None, 0.9)
                      - (-0.25)) <= tol)

    class Fixed:
        def __init__(self, values):
            self.values = np.asarray(values, dtype=float)

        def forward(self, x):
            return self.values.copy(), None

    from relubab.agent import StateFeatures
    state = StateFeatures(candidates=((N1, Phase.ACTIVE),
                                      (N1, Phase.INACTIVE)),
                          matrix=np.zeros((2, 14)))
    got = double_dqn_target(-0.5, state, False, Fixed([0.2, -0.1]),
                            Fixed([-0.3, 0.4]), 0.9)
    checks.append(abs(got - (-0.77)) <= tol)

    checks.append(abs(margin_loss(np.array([1.0, 2.0]), 0, 0.8) - 1.8) <= tol)
    checks.append(margin_loss(np.array([3.0, 1.0]), 0, 0.8) == 0.0)
    checks.append(margin_loss(np.array([0.7]), 0, 0.8) == 0.0)

    # target network outputs are bit-identical between syncs
    rng = np.random.default_rng(20)
    qnet = QNet.create(rng, hidden=(8,))
    target = qnet.copy()
    probe_matrix = rng.normal(size=(4, 14))
    probe = StateFeatures(candidates=tuple((NeuronId(0, i), Phase.ACTIVE)
                                           for i in range(4)),
                          matrix=probe_matrix)
    before = q_forward(target, probe).tobytes()
    batch = []
    for _ in range(4):
        n = int(rng.integers(2, 5))
        matrix = rng.normal(size=(n, 14))
        state_i = StateFeatures(candidates=tuple((NeuronId(0, j), Phase.ACTIVE)
                                                 for j in range(n)),
                                matrix=matrix)
        batch.append(Transition(state=state_i, action=int(rng.integers(n)),
                                reward=-0.5, next_state=None, terminal=True,
                                is_demo=True))
    for _ in range(25):
        train_step(qnet, target, batch, np.ones(4), 0.5)
    checks.append(q_forward(target, probe).tobytes() == before)
    _report(6, all(checks),
            "Double-DQN target, margin values exact at 1e-12; target "
            "network frozen between syncs")


def test_criterion_7_reward_bookkeeping():
    instances = gen_random_suite(seed=5005, count=25, n_relus=(8, 13))
    runs = 0
    reward_violations = 0
    recount_mismatches = 0
    exhaustive_seen = 0
    exhaustive_wrong = 0
    for inst in instances:
        for strategy in ("babsr", "soi"):
            log = []
            verdict = verify(inst.net, inst.query, strategy,
                             Budget(timeout_s=60, max_iterations=3000,
                                    seed=0),
                             tighten=False, event_log=log)
            runs += 1
            transitions = record_delayed_rewards(log)
            if not transitions:
                continue
            # independent recount: children adjacency instead of parent walks
            children = {}
            split_at = {}
            for ev in log:
                if isinstance(ev, NodeEvent) and ev.parent_id >= 0:
                    children.setdefault(ev.parent_id, []).append(ev.node_id)
            for ev in log:
                if isinstance(ev, SplitEvent):
                    split_at[ev.node_id] = ev

            def subtree_split_count(root):
                count = 0
                stack = [root]
                while stack:
                    node = stack.pop()
                    count += node in split_at
                    stack.extend(children.get(node, []))
                return count

            for tr in transitions:
                if not -1.0 <= tr.reward < 0.0:
                    reward_violations += 1
                if subtree_split_count(tr.node_id) != tr.actual:
                    recount_mismatches += 1
                if tr.actual == tr.full:
                    exhaustive_seen += 1
                    exhaustive_wrong += tr.reward != -1.0
            if verdict.outcome == "UNSAT":
                assert transitions[0].actual == verdict.splits
    ok = (runs == 50 and reward_violations == 0 and recount_mismatches == 0
          and exhaustive_seen > 0 and exhaustive_wrong == 0)
    _report(7, ok,
            f"{runs} runs: rewards in [-1, 0), recount matches emitted "
            f"values, {exhaustive_seen} exhaustive subtrees all at -1")


def test_criterion_8_imitation():
    instances = gen_random_suite(seed=101, count=120, n_relus=(9, 14))
    pairs = [(inst.net, inst.query) for inst in instances]
    demos, _ = generate_demonstrations(
        pairs, Budget(seed=0, timeout_s=120, max_iterations=3000),
        tighten=False, expert="soi")
    holdout = demos[::5]
    train_part = [t for i, t in enumerate(demos) if i % 5 != 0]
    config = TrainerConfig(demo_epochs=5, demo_steps=1000, finetune_epochs=0,
                           seed=11)
    result = train(config, [], [], demo_transitions=train_part)
    agree = sum(int(np.argmax(q_forward(result.qnet, t.state)) == t.action)
                for t in holdout)
    fraction = agree / len(holdout)
    _report(8, fraction >= 0.70,
            f"greedy agreement with the demonstrating heuristic on "
            f"{len(holdout)} held-out states: {fraction:.1%} >= 70%")


def test_criterion_9_end_to_end_trend(trend_results):
    result = trend_results["train"]
    config = trend_results["config"]
    assert config.total_steps == 45_000
    assert len(result.loss_trace) == 45_000

    records = trend_results["records"]
    names = ["agent", *STATIC]
    by_strategy = {name: {r.query_id: r for r in records
                          if r.strategy == name} for name in names}
    solved = {name: sum(r.verdict in ("SAT", "UNSAT")
                        for r in recs.values())
              for name, recs in by_strategy.items()}
    common = set.intersection(*(
        {q for q, r in by_strategy[name].items()
         if r.verdict in ("SAT", "UNSAT")} for name in names))
    avg_iters = {name: float(np.mean([by_strategy[name][q].iterations
                                      for q in common]))
                 for name in names}
    best = min(STATIC, key=lambda n: avg_iters[n])
    ratio = avg_iters["agent"] / avg_iters[best]
    wall = trend_results["train_seconds"] + trend_results["eval_seconds"]
    detail = (f"45,000 steps trained in {trend_results['train_seconds']:.0f}s"
              f"; over {len(common)} commonly solved queries agent avg "
              f"iterations {avg_iters['agent']:.2f} vs best static ({best}) "
              f"{avg_iters[best]:.2f} -> ratio {ratio:.3f}; "
              f"solved agent={solved['agent']} vs {best}={solved[best]}; "
              f"wall {wall:.0f}s")
    ok = (ratio <= 1.15 and solved["agent"] >= solved[best] - 2
          and wall <= 7200)
    _report(9, ok, detail)


def test_criterion_10_determinism():
    instances = gen_random_suite(seed=606, count=10)
    identical = True
    for inst in instances[:10]:
        for strategy in ("babsr", "pseudo-impact"):
            logs = []
            for _ in range(2):
                log = []
                verify(inst.net, inst.query, strategy, Budget(seed=4),
                       event_log=log)
                logs.append(events_to_text(log))
            identical &= logs[0] == logs[1]

    pairs = [(inst.net, inst.query) for inst in
             gen_random_suite(seed=707, count=6, n_relus=(9, 12))]
    config = TrainerConfig(demo_epochs=1, demo_steps=50, finetune_epochs=1,
                           finetune_steps=50, seed=13, tighten=False,
                           run_max_iterations=500)
    runs = [train(config, pairs[:3], pairs[3:]) for _ in range(2)]
    identical &= runs[0].loss_trace == runs[1].loss_trace
    identical &= runs[0].episodes == runs[1].episodes
    for w1, w2 in zip(runs[0].qnet.weights, runs[1].qnet.weights):
        identical &= bool(np.array_equal(w1, w2))
    _report(10, identical,
            "verdicts, split sequences, and training loss traces identical "
            "across reruns with fixed seeds")
