import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubab.agent import (FEATURE_NAMES, INPUT_WIDTH, AgentPolicy, QNet,
                           ReplayBuffer, TrainerConfig, TrajectoryCollector,
                           Transition, act, compute_gradients,
                           double_dqn_target, featurize,
                           generate_demonstrations, load_checkpoint,
                           loss_given_targets, margin_loss, prepare_targets,
                           q_forward, record_delayed_rewards, sample_prioritized,
                           save_checkpoint, train, train_step,
                           update_priorities)
from relubab.harness import gen_random_suite
from relubab.model import NeuronId
from relubab.numeric import Phase
from relubab.query import example_property
from relubab.search import (Budget, NodeEvent, SplitAction, SplitEvent,
                            expand, verify, FeatureContext)

N1 = NeuronId(0, 0)
N2 = NeuronId(0, 1)


def toy_root_features(toy, toy_query):
    from relubab.heuristics import compute_scores
    root = expand(toy, toy_query, None, None, tighten=True)
    fctx = FeatureContext(root.bounds)
    scores = compute_scores(toy, root, np.array([1.0]), np.array([1.0, 0.75]))
    return featurize(toy, root, scores, fctx), root, fctx


def random_state(rng, n_candidates):
    matrix = rng.normal(size=(n_candidates, INPUT_WIDTH))
    cands = tuple((NeuronId(0, i // 2),
                   Phase.ACTIVE if i % 2 == 0 else Phase.INACTIVE)
                  for i in range(n_candidates))
    from relubab.agent import StateFeatures
    return StateFeatures(candidates=cands, matrix=matrix)


class TestFeaturize:
    def test_toy_root_candidates(self, toy, toy_query):
        state, _, _ = toy_root_features(toy, toy_query)
        assert len(state) == 4  # 2 unfixed neurons x 2 phases
        assert state.matrix.shape == (4, INPUT_WIDTH)
        assert state.candidates[0] == (N1, Phase.ACTIVE)
        assert state.candidates[1] == (N1, Phase.INACTIVE)

    def test_feature_width_layout(self):
        assert INPUT_WIDTH == 14
        assert len(FEATURE_NAMES) == 14
        assert FEATURE_NAMES[-1] == "phase_bit"

    def test_one_unfixed_two_candidates(self, toy, toy_query):
        from relubab.heuristics import compute_scores
        root = expand(toy, toy_query, None, None, tighten=True)
        child = expand(toy, toy_query, root, SplitAction(N1, Phase.ACTIVE),
                       tighten=True)
        fctx = FeatureContext(root.bounds)
        fctx.running_max_splits = 1
        scores = compute_scores(toy, child, np.array([1.0]),
                                np.array([1.0, 0.75]))
        state = featurize(toy, child, scores, fctx)
        assert len(state) == 2
        assert {c[0] for c in state.candidates} == {N2}

    def test_globals_normalized(self, toy, toy_query):
        state, _, _ = toy_root_features(toy, toy_query)
        # columns 10..12 are the global features
        assert np.all(state.matrix[:, 10:13] >= 0.0)
        assert np.all(state.matrix[:, 10:13] <= 1.0 + 1e-12)

    def test_no_unfixed_rejected(self, toy, toy_query):
        from relubab.heuristics import HeuristicScores
        root = expand(toy, toy_query, None, None, tighten=True)
        fctx = FeatureContext(root.bounds)
        empty = HeuristicScores(unfixed=np.array([], dtype=int),
                                soi=np.zeros(2), polarity=np.zeros(2),
                                babsr=np.zeros(2), pi=np.zeros(2))
        with pytest.raises(ValueError):
            featurize(toy, root, empty, fctx)


class TestQForward:
    def test_zero_weights_zero_q(self, toy, toy_query):
        state, _, _ = toy_root_features(toy, toy_query)
        qnet = QNet.create(np.random.default_rng(0))
        for w in qnet.weights:
            w[...] = 0.0
        np.testing.assert_array_equal(q_forward(qnet, state), np.zeros(4))

    def test_single_candidate_argmax(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 1)
        qnet = QNet.create(rng)
        assert act(qnet, state, 0.0, rng) == 0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 6)
        qnet = QNet.create(rng)
        q = q_forward(qnet, state)
        perm = rng.permutation(6)
        from relubab.agent import StateFeatures
        permuted = StateFeatures(
            candidates=tuple(state.candidates[i] for i in perm),
            matrix=state.matrix[perm])
        np.testing.assert_allclose(q_forward(qnet, permuted), q[perm],
                                   atol=1e-12)
        # the greedy choice names the same (neuron, phase) either way
        a = act(qnet, state, 0.0, rng)
        b = act(qnet, permuted, 0.0, rng)
        assert state.candidates[a] == permuted.candidates[b]

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        qnet = QNet.create(rng)
        with pytest.raises(ValueError):
            qnet.forward(np.zeros((2, INPUT_WIDTH + 1)))


class TestAct:
    def test_greedy_deterministic(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 5)
        qnet = QNet.create(rng)
        picks = {act(qnet, state, 0.0, np.random.default_rng(i))
                 for i in range(20)}
        assert len(picks) == 1

    def test_greedy_tie_lowest_index(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 4)
        qnet = QNet.create(rng)
        for w in qnet.weights:
            w[...] = 0.0
        assert act(qnet, state, 0.0, rng) == 0

    def test_uniform_when_fully_random(self):
        # chi-square over 10k draws, 4 candidates, df=3; reject at p < 0.01
        # only beyond 11.345
        rng = np.random.default_rng(6)
        state = random_state(rng, 4)
        qnet = QNet.create(rng)
        counts = np.zeros(4)
        draw = np.random.default_rng(123)
        for _ in range(10_000):
            counts[act(qnet, state, 1.0, draw)] += 1
        expected = 2500.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 11.345

    def test_epsilon_validated(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 3)
        qnet = QNet.create(rng)
        with pytest.raises(ValueError):
            act(qnet, state, 1.5, rng)


class TestSchedules:
    def test_epsilon_start(self):
        assert TrainerConfig().epsilon(0) == 1.0

    def test_epsilon_decay(self):
        assert TrainerConfig().epsilon(1) == pytest.approx(0.95)

    def test_epsilon_floor(self):
        assert TrainerConfig().epsilon(1000) == 0.05

    def test_epsilon_custom_decay(self):
        config = TrainerConfig(epsilon_start=0.8, epsilon_decay=0.5,
                               epsilon_min=0.1)
        assert config.epsilon(1) == pytest.approx(0.4)
        assert config.epsilon(3) == pytest.approx(0.1)
        assert config.epsilon(4) == 0.1


class _FixedNet:
    """QNet stand-in returning preset scores (for target arithmetic)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def forward(self, x):
        return self.values.copy(), None


class TestDoubleDQNTarget:
    def test_terminal(self):
        assert double_dqn_target(-0.25, None, True, None, None, 0.9) == -0.25

    def test_hand_example(self):
        # online net prefers action 0; frozen net values it at -0.3:
        # -0.5 + 0.9 * (-0.3) = -0.77
        rng = np.random.default_rng(8)
        state = random_state(rng, 2)
        online = _FixedNet([0.2, -0.1])
        frozen = _FixedNet([-0.3, 0.4])
        target = double_dqn_target(-0.5, state, False, online, frozen, 0.9)
        assert target == pytest.approx(-0.77, abs=1e-12)

    def test_equal_nets_reduce_to_max_target(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, 3)
        net = _FixedNet([0.1, 0.7, -0.2])
        target = double_dqn_target(-1.0, state, False, net, net, 0.9)
        assert target == pytest.approx(-1.0 + 0.9 * 0.7, abs=1e-12)


class TestMarginLoss:
    def test_expert_dominated(self):
        assert margin_loss(np.array([1.0, 2.0]), 0, 0.8) == \
            pytest.approx(1.8, abs=1e-12)

    def test_expert_dominant(self):
        assert margin_loss(np.array([3.0, 1.0]), 0, 0.8) == 0.0

    def test_single_candidate(self):
        assert margin_loss(np.array([0.4]), 0, 0.8) == 0.0

    def test_invalid_expert(self):
        with pytest.raises(ValueError):
            margin_loss(np.array([1.0]), 3, 0.8)


def synthetic_log(splits):
    """Event list: root + a split chain; splits = [(node_id, parent, k)]."""
    events = [NodeEvent(node_id=0, parent_id=-1, depth=0, action=None,
                        result="open", unfixed=splits[0][2], soi=1.0)]
    for node_id, parent, k in splits:
        if node_id != 0:
            events.append(NodeEvent(node_id=node_id, parent_id=parent,
                                    depth=0, action=None, result="open",
                                    unfixed=k, soi=0.5))
        events.append(SplitEvent(node_id=node_id, neuron=N1,
                                 phase=Phase.INACTIVE, k=k))
    return events


class TestDelayedRewards:
    def test_single_split_k2(self):
        # one decision with k=2 that closes right away: -1/3
        events = synthetic_log([(0, -1, 2)])
        (tr,) = record_delayed_rewards(events)
        assert tr.full == 3 and tr.actual == 1
        assert tr.reward == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert tr.terminal

    def test_exhaustive_k3_subtree(self):
        # full binary expansion: 1 split at k=3, 2 at k=2, 4 at k=1
        events = [NodeEvent(0, -1, 0, None, "open", 3, 1.0),
                  SplitEvent(0, N1, Phase.INACTIVE, 3)]
        nid = 1
        for parent in (0, 0):
            events.append(NodeEvent(nid, parent, 1, None, "open", 2, 0.5))
            events.append(SplitEvent(nid, N2, Phase.INACTIVE, 2))
            gp = nid
            nid += 1
            for _ in range(2):
                events.append(NodeEvent(nid, gp, 2, None, "open", 1, 0.2))
                events.append(SplitEvent(nid, NeuronId(1, 0),
                                         Phase.INACTIVE, 1))
                nid += 1
        transitions = record_delayed_rewards(events)
        assert len(transitions) == 7
        root_tr = transitions[0]
        assert root_tr.k == 3 and root_tr.full == 7 and root_tr.actual == 7
        assert root_tr.reward == pytest.approx(-1.0, abs=1e-12)

    def test_k1_always_minus_one(self):
        events = synthetic_log([(0, -1, 1)])
        (tr,) = record_delayed_rewards(events)
        assert tr.reward == -1.0

    def test_rewards_in_range_and_root_totals(self, toy, toy_query):
        log = []
        verdict = verify(toy, toy_query, "babsr", Budget(seed=0),
                         event_log=log)
        transitions = record_delayed_rewards(log)
        assert len(transitions) == verdict.splits
        assert all(-1.0 <= t.reward < 0.0 for t in transitions)
        assert transitions[0].actual == verdict.splits
        assert sum(t.terminal for t in transitions) == 1
        assert transitions[-1].terminal

    def test_malformed_log_rejected(self):
        with pytest.raises(ValueError):
            record_delayed_rewards([SplitEvent(7, N1, Phase.INACTIVE, 2)])

    def test_double_split_rejected(self):
        events = synthetic_log([(0, -1, 2)])
        events.append(SplitEvent(0, N2, Phase.ACTIVE, 1))
        with pytest.raises(ValueError):
            record_delayed_rewards(events)


def _transition(reward=-0.5, is_demo=True):
    return Transition(state=None, action=0, reward=reward, next_state=None,
                      terminal=True, is_demo=is_demo)


class _ListReplay:
    """Reference replay buffer: the list-based layout the array buffer
    replaced, with priorities held beside each entry and rebuilt into an
    array on every read."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.demo, self.selfplay = [], []
        self._ring_pos = 0

    def add_demo(self, tr):
        tr.is_demo = True
        self.demo.append([tr, 1.0])

    def add_self(self, tr):
        tr.is_demo = False
        entry = [tr, max(1.0, self.max_priority())]
        ring_cap = max(1, self.capacity - len(self.demo))
        if len(self.selfplay) < ring_cap:
            self.selfplay.append(entry)
        else:
            self.selfplay[self._ring_pos] = entry
            self._ring_pos = (self._ring_pos + 1) % ring_cap

    def __len__(self):
        return len(self.demo) + len(self.selfplay)

    def get(self, idx):
        nd = len(self.demo)
        return self.demo[idx] if idx < nd else self.selfplay[idx - nd]

    def priorities(self):
        return np.array([e[1] for e in self.demo]
                        + [e[1] for e in self.selfplay])

    def max_priority(self):
        prios = self.priorities()
        return float(prios.max()) if prios.size else 1.0

    def sample(self, batch_size, per_alpha, per_beta, rng):
        n = len(self)
        if n == 0:
            raise ValueError("buffer is empty")
        prios = self.priorities()[:n] ** per_alpha
        probs = prios / prios.sum()
        idx = rng.choice(n, size=batch_size, replace=True, p=probs)
        weights = (n * probs[idx]) ** (-per_beta)
        weights = weights / weights.max()
        return idx, [self.get(int(i))[0] for i in idx], weights

    def update(self, indices, td_errors, per_eps):
        for i, td in zip(indices, td_errors):
            self.get(int(i))[1] = abs(float(td)) + per_eps


_replay_ops = st.lists(st.one_of(
    st.just(("demo",)), st.just(("self",)),
    st.tuples(st.just("sample"), st.integers(0, 2 ** 32 - 1),
              st.floats(0.0, 1.0), st.floats(0.0, 1.0),
              st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))),
    max_size=40)


class TestPrioritizedReplay:
    def _buffer(self, priorities):
        buf = ReplayBuffer()
        for _ in priorities:
            buf.add_demo(_transition())
        buf.priority[:] = priorities
        return buf

    def test_equal_priorities_uniform(self):
        buf = self._buffer([1.0] * 4)
        rng = np.random.default_rng(0)
        _, _, weights = sample_prioritized(buf, 16, 0.6, 0.4, rng)
        counts = np.zeros(4)
        for _ in range(2500):
            idx, _, _ = sample_prioritized(buf, 4, 0.6, 0.4, rng)
            for i in idx:
                counts[i] += 1
        expected = counts.sum() / 4
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 11.345
        np.testing.assert_allclose(weights, 1.0)

    def test_alpha_zero_ignores_priorities(self):
        buf = self._buffer([100.0, 1.0, 1.0, 1.0])
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        for _ in range(2500):
            idx, _, _ = sample_prioritized(buf, 4, 0.0, 0.4, rng)
            for i in idx:
                counts[i] += 1
        expected = counts.sum() / 4
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 11.345

    def test_dominant_priority_dominates(self):
        buf = self._buffer([1e6, 1e-3, 1e-3, 1e-3])
        rng = np.random.default_rng(2)
        idx, _, _ = sample_prioritized(buf, 1000, 1.0, 0.4, rng)
        assert np.mean(np.asarray(idx) == 0) > 0.99

    def test_oversized_batch_samples_with_replacement(self):
        buf = self._buffer([1.0, 1.0])
        rng = np.random.default_rng(3)
        idx, batch, _ = sample_prioritized(buf, 10, 0.6, 0.4, rng)
        assert len(batch) == 10

    def test_priority_update(self):
        buf = self._buffer([1.0, 1.0])
        update_priorities(buf, [0], [0.25], 1e-3)
        assert buf.priority[0] == pytest.approx(0.251)

    def test_demos_never_evicted(self):
        buf = ReplayBuffer(capacity=6)
        demos = [_transition() for _ in range(3)]
        for tr in demos:
            buf.add_demo(tr)
        for _ in range(50):
            buf.add_self(_transition(is_demo=False))
        assert buf.n_demo == 3
        assert buf.items[:3] == demos
        assert len(buf) - buf.n_demo == 3  # ring capped at capacity - demos

    def test_demo_after_selfplay_rejected(self):
        buf = ReplayBuffer(capacity=6)
        buf.add_demo(_transition())
        buf.add_self(_transition(is_demo=False))
        with pytest.raises(ValueError):
            buf.add_demo(_transition())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), _replay_ops)
    def test_matches_list_reference(self, capacity, ops):
        buf, ref = ReplayBuffer(capacity), _ListReplay(capacity)
        for j, op in enumerate(ops):
            if op[0] == "demo" and len(buf) > buf.n_demo:
                with pytest.raises(ValueError):
                    buf.add_demo(_transition(reward=-j))
            elif op[0] in ("demo", "self"):
                tr = _transition(reward=-j)
                getattr(buf, "add_" + op[0])(tr)
                getattr(ref, "add_" + op[0])(tr)
            elif len(buf) == 0:
                with pytest.raises(ValueError):
                    sample_prioritized(buf, 1, 0.6, 0.4,
                                       np.random.default_rng(0))
            else:
                _, seed, alpha, beta, tds = op
                got = sample_prioritized(buf, len(tds), alpha, beta,
                                         np.random.default_rng(seed))
                want = ref.sample(len(tds), alpha, beta,
                                  np.random.default_rng(seed))
                np.testing.assert_array_equal(got[0], want[0])
                assert all(a is b for a, b in zip(got[1], want[1]))
                assert got[2].tobytes() == want[2].tobytes()
                update_priorities(buf, got[0], tds, 1e-3)
                ref.update(want[0], tds, 1e-3)
            assert buf.items == [e[0] for e in ref.demo + ref.selfplay]
            assert buf.priority.tobytes() == ref.priorities().tobytes()


def make_batch(rng, size, demo_fraction=0.5):
    batch = []
    for _ in range(size):
        n = int(rng.integers(2, 5))
        state = random_state(rng, n)
        nxt = random_state(rng, int(rng.integers(2, 5)))
        batch.append(Transition(
            state=state, action=int(rng.integers(n)),
            reward=float(-rng.uniform(0, 1)), next_state=nxt,
            terminal=bool(rng.random() < 0.3),
            is_demo=bool(rng.random() < demo_fraction)))
    return batch


class TestTrainStep:
    def test_lambda_zero_is_pure_td(self):
        rng = np.random.default_rng(10)
        qnet = QNet.create(rng, hidden=(8,))
        batch = make_batch(rng, 6)
        weights = rng.uniform(0.5, 1.0, 6)
        targets = prepare_targets(qnet, qnet.copy(), batch, 0.9)
        loss, _, tds = compute_gradients(qnet, batch, targets, weights, 0.0,
                                         0.8)
        assert loss == pytest.approx(float(np.sum(weights * tds ** 2)),
                                     abs=1e-12)

    def test_zero_td_and_dominant_margin_is_zero_step(self):
        rng = np.random.default_rng(11)
        qnet = QNet.create(rng, hidden=(8,))
        state = random_state(rng, 3)
        q = q_forward(qnet, state)
        a = int(np.argmax(q))
        # reward equal to the current value of a terminal transition: td = 0
        batch = [Transition(state=state, action=a, reward=float(q[a]),
                            next_state=None, terminal=True, is_demo=True)]
        dominant = q[a] - np.max(np.delete(q, a))
        margin = max(1e-6, float(dominant) / 2)  # expert dominant by > m
        before = qnet.flatten()
        config = TrainerConfig(margin=margin, hidden=(8,))
        train_step(qnet, qnet.copy(), batch, np.ones(1), 1.0, config)
        np.testing.assert_array_equal(qnet.flatten(), before)

    def test_gradient_matches_finite_differences(self):
        from conftest import gradient_check_max_error
        assert gradient_check_max_error(n_configs=100, seed=12) <= 1e-4

    def test_non_finite_loss_aborts(self):
        rng = np.random.default_rng(13)
        qnet = QNet.create(rng, hidden=(8,))
        batch = make_batch(rng, 2)
        batch[0].reward = float("nan")
        config = TrainerConfig(hidden=(8,))
        with pytest.raises(RuntimeError):
            train_step(qnet, qnet.copy(), batch, np.ones(2), 0.5, config)


class TestTargetFreeze:
    def test_outputs_bit_identical_between_syncs(self, toy, toy_query):
        rng = np.random.default_rng(14)
        qnet = QNet.create(rng, hidden=(8,))
        target = qnet.copy()
        probe = random_state(rng, 4)
        before = q_forward(target, probe).tobytes()
        config = TrainerConfig(hidden=(8,), target_sync=10 ** 9)
        batch = make_batch(rng, 4)
        for _ in range(20):
            train_step(qnet, target, batch, np.ones(4), 0.5, config)
        assert q_forward(target, probe).tobytes() == before
        assert q_forward(qnet, probe).tobytes() != before


class TestDemonstrationsAndTraining:
    def test_generate_demonstrations(self):
        # wide nets searched without LP tightening go deep enough to leave
        # policy-controlled decisions behind
        insts = gen_random_suite(seed=41, count=6, n_relus=(9, 12))
        pairs = [(i.net, i.query) for i in insts]
        transitions, experts = generate_demonstrations(pairs, tighten=False)
        assert transitions
        assert all(t.is_demo for t in transitions)
        assert all(t.depth >= 4 for t in transitions)
        assert set(experts.values()) <= {"soi", "polarity", "pseudo-impact",
                                         "babsr"}

    def test_single_expert_demonstrations(self):
        insts = gen_random_suite(seed=41, count=4, n_relus=(9, 12))
        pairs = [(i.net, i.query) for i in insts]
        _, experts = generate_demonstrations(pairs, tighten=False,
                                             expert="babsr")
        assert set(experts.values()) == {"babsr"}

    def test_empty_demo_source_rejected(self):
        config = TrainerConfig(demo_epochs=1, demo_steps=1,
                               finetune_epochs=0)
        with pytest.raises(ValueError):
            train(config, [], [], demo_transitions=[])

    def test_short_training_runs_and_is_deterministic(self):
        insts = gen_random_suite(seed=41, count=6, n_relus=(9, 12))
        pairs = [(i.net, i.query) for i in insts]
        config = TrainerConfig(demo_epochs=1, demo_steps=30,
                               finetune_epochs=1, finetune_steps=40,
                               seed=3, target_sync=20, run_max_iterations=500,
                               tighten=False)
        r1 = train(config, pairs[:3], pairs[3:])
        r2 = train(config, pairs[:3], pairs[3:])
        assert r1.loss_trace == r2.loss_trace
        assert r1.episodes == r2.episodes
        for w1, w2 in zip(r1.qnet.weights, r2.qnet.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_training_leaves_demonstrations_unchanged(self):
        # replay priorities live in the buffer, so a demonstration list can
        # seed any number of identical runs
        insts = gen_random_suite(seed=41, count=4, n_relus=(9, 12))
        pairs = [(i.net, i.query) for i in insts]
        demos, _ = generate_demonstrations(pairs, tighten=False,
                                           expert="babsr")
        config = TrainerConfig(demo_epochs=1, demo_steps=60,
                               finetune_epochs=0, hidden=(8,), seed=4)
        r1 = train(config, [], [], demo_transitions=demos)
        r2 = train(config, [], [], demo_transitions=demos)
        assert r1.loss_trace == r2.loss_trace

    def test_imitation_smoke(self):
        # after demo-only training, the greedy policy should usually agree
        # with the demonstrating expert on the demo states themselves
        insts = gen_random_suite(seed=43, count=6, n_relus=(9, 12))
        pairs = [(i.net, i.query) for i in insts]
        demos, _ = generate_demonstrations(pairs, tighten=False, expert="soi")
        config = TrainerConfig(demo_epochs=2, demo_steps=250,
                               finetune_epochs=0, seed=7)
        result = train(config, [], [], demo_transitions=demos)
        agree = sum(int(np.argmax(q_forward(result.qnet, t.state))
                        == t.action) for t in demos)
        assert agree / len(demos) >= 0.6


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        qnet = QNet.create(rng)
        config = TrainerConfig(seed=9)
        path = tmp_path / "ck.txt"
        save_checkpoint(path, qnet, config)
        loaded, loaded_config = load_checkpoint(path)
        for a, b in zip(qnet.weights + qnet.biases,
                        loaded.weights + loaded.biases):
            np.testing.assert_array_equal(a, b)
        assert loaded_config.seed == 9
        assert loaded_config.gamma == config.gamma

    def test_feature_layout_validated(self, tmp_path):
        rng = np.random.default_rng(16)
        qnet = QNet.create(rng)
        path = tmp_path / "ck.txt"
        save_checkpoint(path, qnet, TrainerConfig())
        text = path.read_text().replace("phase_bit", "wrong_bit")
        path.write_text(text)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, QNet.create(np.random.default_rng(18),
                                          hidden=(3, 2)), TrainerConfig())
        lines = path.read_text().splitlines(keepends=True)
        for cut in range(len(lines)):
            path.write_text("".join(lines[:cut]))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(path)

    def test_layer_shapes_must_chain(self, tmp_path):
        rng = np.random.default_rng(19)
        good = QNet.create(rng, hidden=(3,))
        path = tmp_path / "ck.txt"
        for weights, biases in (
                ([good.weights[0], rng.normal(size=(1, 4))], good.biases),
                (good.weights, [good.biases[0], np.zeros(2)]),
                ([good.weights[0]], [good.biases[0]])):
            save_checkpoint(path, QNet(weights, biases), TrainerConfig())
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(path)

    def test_policy_verifies(self, toy, toy_query, tmp_path):
        rng = np.random.default_rng(17)
        qnet = QNet.create(rng)
        verdict = verify(toy, toy_query, AgentPolicy(qnet), Budget(seed=0))
        assert verdict.outcome == "SAT"


class TestCollector:
    def test_collector_alignment(self, toy, toy_query):
        log = []
        collector = TrajectoryCollector()
        verdict = verify(toy, toy_query, "babsr", Budget(seed=0),
                         event_log=log, collector=collector)
        assert len(collector.steps) == verdict.splits
        transitions = record_delayed_rewards(log, collector.steps)
        for tr in transitions:
            assert tr.state is not None
            assert tr.state.candidates[tr.action] == (tr.neuron, tr.phase)
