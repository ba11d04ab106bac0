"""Learned splitting policy and its trainer.

The policy scores every (unfixed neuron, phase) candidate with one shared
Q-network: the input of a candidate is its local feature row plus the node's
global summary plus a phase bit, and the output is a scalar action value.
Training follows learning-from-demonstrations: a pretraining phase on expert
transitions with a large-margin imitation term, then epsilon-greedy
fine-tuning with Double-DQN targets and prioritized replay. Rewards are the
delayed subtree penalties reconstructed from verification event logs.

Gradients are computed by manual backpropagation (semi-gradient: targets are
treated as constants), which the finite-difference tests check directly.

Batch layout: a gradient step scores its batch as stacks of rows, not
transition by transition. ``compute_gradients`` stacks every transition's
``state.matrix`` into one matrix; ``offsets[i]:offsets[i + 1]`` are the rows
of transition i, and row ``offsets[i] + action`` is the action taken.
``prepare_targets`` stacks the ``next_state`` matrices of the non-terminal
transitions the same way. A step therefore runs at most three forward passes
(online on next states, target on next states, online on states) and one
backward pass over d(loss)/dq scattered into one vector. Each argmax is
taken within its segment and, as ``np.argmax`` does, a tie goes to the
segment's lowest row. ``double_dqn_target``, ``margin_loss`` and
``loss_given_targets`` keep the per-transition definitions that the stacked
step is tested against.
BLAS may round a row of a stacked product differently from the same row
scored alone, so the loss trace depends in its last bits on this layout;
the trace, and with it the trained weights, drift from those of a
per-transition loop over many steps.

Replay layout: ``ReplayBuffer.items`` holds the ``n_demo`` demonstrations
first, never evicted, then the self-play ring of the remaining capacity.
``ReplayBuffer.priority`` is one float64 array in the same order, read by
sampling and written by priority updates.

Checkpoint format v2 (text)::

    relubab-checkpoint v2
    features <comma-separated feature names>
    config <key=value ...>
    layer <i> weight <rows> <cols>
    <one row of %.17g values per line>
    layer <i> bias <rows>
    <one value per line>

The layer blocks alone define the network; the hidden widths are their row
counts. The ``config`` line records the trainer settings for provenance and
is not read back. Loading checks the feature list against the featurizer
and that the layer shapes chain from it to one output; any other file,
including a v1 file (which had a ``hidden`` line), raises ValueError.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .heuristics import INITIAL_SPLIT_DEPTH, HeuristicScores, \
    STATIC_STRATEGIES, SplitAction
from .model import Network, NeuronId
from .numeric import Phase
from .query import Query
from .search import Budget, NodeEvent, SplitEvent, verify

LOCAL_FEATURE_NAMES = (
    "pre_lower", "pre_upper", "post_lower", "post_upper",
    "status_active", "status_inactive", "status_unfixed",
    "soi_error", "polarity", "babsr_score",
)
GLOBAL_FEATURE_NAMES = ("unfixed_frac", "depth_frac", "splits_frac")
FEATURE_NAMES = LOCAL_FEATURE_NAMES + GLOBAL_FEATURE_NAMES + ("phase_bit",)
INPUT_WIDTH = len(FEATURE_NAMES)

_PHASE_ORDER = (Phase.ACTIVE, Phase.INACTIVE)  # candidate sort within neuron

# one INFO line per training epoch; silent unless a caller adds a handler
_train_log = logging.getLogger("relubab.train")


@dataclass(frozen=True)
class StateFeatures:
    """Per-candidate feature matrix; row i scores candidates[i]."""

    candidates: tuple[tuple[NeuronId, Phase], ...]
    matrix: np.ndarray  # (n_candidates, INPUT_WIDTH)

    def index_of(self, neuron: NeuronId, phase: Phase) -> int:
        return self.candidates.index((neuron, phase))

    def __len__(self) -> int:
        return len(self.candidates)


def _minmax(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (v - lo) / (hi - lo) if hi > lo else np.full_like(v, 0.5)


def featurize(net: Network, node, scores: HeuristicScores,
              fctx) -> StateFeatures:
    """Deterministic candidate features for one node.

    Candidates cover exactly the unfixed neurons x {Active, Inactive},
    sorted by (NeuronId, phase) with Active first. Bound features are
    min-max normalized against the network-wide root-node bound range
    (fctx), which keeps cross-neuron width differences visible. The
    soi_error and babsr_score columns are min-max normalized over the
    node's own unfixed neurons: the neuron that the soi or babsr rule
    would split reads 1 in every node, whatever the scale of that node's
    scores (0.5 on a tie of all of them).
    """
    unfixed = scores.unfixed
    if not len(unfixed):
        raise ValueError("node has no unfixed neuron to featurize")
    total = max(1, net.num_relus)
    globals_row = (
        len(unfixed) / total,
        node.depth / total,
        node.splits_so_far / max(1, fctx.running_max_splits),
    )
    rlo, rhi, rplo, rphi = fctx.root_scales
    bounds = node.bounds
    status = node.phases[unfixed]
    soi, babsr = scores.soi[unfixed], scores.babsr[unfixed]
    local = np.array((
        _minmax(bounds.pre_lower[unfixed], rlo, rhi),
        _minmax(bounds.pre_upper[unfixed], rlo, rhi),
        _minmax(bounds.post_lower[unfixed], rplo, rphi),
        _minmax(bounds.post_upper[unfixed], rplo, rphi),
        status == Phase.ACTIVE.value, status == Phase.INACTIVE.value,
        status == Phase.UNFIXED.value,
        _minmax(soi, soi.min(), soi.max()), scores.polarity[unfixed],
        _minmax(babsr, babsr.min(), babsr.max()),
    ), dtype=float).T
    width = local.shape[1]
    matrix = np.empty((len(_PHASE_ORDER) * len(unfixed), INPUT_WIDTH))
    matrix[:, width:-1] = globals_row
    for j, phase in enumerate(_PHASE_ORDER):
        rows = matrix[j::len(_PHASE_ORDER)]
        rows[:, :width] = local
        rows[:, -1] = 1.0 if phase is Phase.ACTIVE else 0.0
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite feature encountered")
    ids = net.relu_ids()
    candidates = tuple((ids[u], ph) for u in unfixed for ph in _PHASE_ORDER)
    return StateFeatures(candidates=candidates, matrix=matrix)


# ---------------------------------------------------------------------------
# Q-network


class QNet:
    """Fully-connected scorer: ReLU hidden layers, scalar linear output.

    Weights are plain float64 arrays; forward/backward are hand-written so
    the whole training loop stays dependency-free and bit-reproducible.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    @classmethod
    def create(cls, rng: np.random.Generator,
               hidden: Sequence[int] = (64, 64)) -> "QNet":
        dims = [INPUT_WIDTH, *hidden, 1]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = math.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[1]

    def copy(self) -> "QNet":
        return QNet([w.copy() for w in self.weights],
                    [b.copy() for b in self.biases])

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Scores for each row of x; also returns the activation cache."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        if h.shape[1] != self.input_width:
            raise ValueError(
                f"feature width {h.shape[1]} != expected {self.input_width}")
        cache = [h]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w.T + b, 0.0)
            cache.append(h)
        out = h @ self.weights[-1].T + self.biases[-1]
        return out[:, 0], cache

    def backward(self, cache: list, dout: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Parameter gradients given d(loss)/d(output row scores)."""
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)
        delta = np.atleast_2d(np.asarray(dout, dtype=float)).reshape(-1, 1)
        for li in range(len(self.weights) - 1, -1, -1):
            grads[li] = (delta.T @ cache[li], delta.sum(axis=0))
            if li > 0:
                delta = (delta @ self.weights[li]) * (cache[li] > 0.0)
        return grads

    def apply_gradients(self, grads, lr: float):
        for (dw, db), w, b in zip(grads, self.weights, self.biases):
            w -= lr * dw
            b -= lr * db

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for pair in zip(self.weights, self.biases)
                               for a in pair])

    def load_flat(self, flat: np.ndarray):
        pos = 0
        for arrs in zip(self.weights, self.biases):
            for a in arrs:
                a[...] = flat[pos:pos + a.size].reshape(a.shape)
                pos += a.size


def q_forward(qnet: QNet, state: StateFeatures) -> np.ndarray:
    """One Q value per candidate; the same network scores every row."""
    q, _ = qnet.forward(state.matrix)
    return q


def act(qnet: QNet, state: StateFeatures, epsilon: float,
        rng: np.random.Generator) -> int:
    """Epsilon-greedy candidate index; greedy ties go to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(state)))
    return int(np.argmax(q_forward(qnet, state)))


def double_dqn_target(reward: float, next_state: Optional[StateFeatures],
                      terminal: bool, qnet: QNet, target_qnet: QNet,
                      gamma: float) -> float:
    """r, or r + gamma * Q'(s', argmax_a Q(s', a))."""
    if terminal or next_state is None:
        return float(reward)
    a = int(np.argmax(q_forward(qnet, next_state)))
    return float(reward + gamma * q_forward(target_qnet, next_state)[a])


def margin_loss(q: np.ndarray, expert: int, m: float) -> float:
    """max_a [q(a) + m * 1(a != expert)] - q(expert)."""
    q = np.asarray(q, dtype=float)
    if not 0 <= expert < q.shape[0]:
        raise ValueError(f"expert index {expert} out of range")
    if m <= 0:
        raise ValueError("margin must be positive")
    aug = q + m * (np.arange(q.shape[0]) != expert)
    return float(np.max(aug) - q[expert])


# ---------------------------------------------------------------------------
# transitions and delayed rewards


@dataclass
class Transition:
    state: Optional[StateFeatures]
    action: int
    reward: float
    next_state: Optional[StateFeatures]
    terminal: bool
    is_demo: bool
    neuron: Optional[NeuronId] = None
    phase: Optional[Phase] = None
    k: int = 0
    actual: int = 0
    full: int = 0
    node_id: int = -1
    depth: int = 0


def record_delayed_rewards(events: Iterable) -> list[Transition]:
    """Transitions with delayed subtree penalties from one run's event log.

    Each split on a node with k unfixed neurons is charged
    -actual / (2^k - 1) when its subtree closes, where actual counts the
    split itself plus every split performed inside the subtree. Transitions
    follow DFS action order; the run's final action carries the terminal
    flag. They carry no state: the log alone gives the rewards.
    """
    node_parent: dict[int, int] = {}
    node_depth: dict[int, int] = {}
    splits: list[SplitEvent] = []
    for ev in events:
        if isinstance(ev, NodeEvent):
            node_parent[ev.node_id] = ev.parent_id
            node_depth[ev.node_id] = ev.depth
        elif isinstance(ev, SplitEvent):
            splits.append(ev)

    split_index: dict[int, int] = {}
    for j, sp in enumerate(splits):
        if sp.node_id not in node_parent:
            raise ValueError(f"split references unknown node {sp.node_id}")
        if sp.node_id in split_index:
            raise ValueError(f"node {sp.node_id} split twice")
        if sp.k < 1:
            raise ValueError(f"split with k={sp.k} < 1")
        split_index[sp.node_id] = j

    actual = [0] * len(splits)
    for sp in splits:
        node = sp.node_id
        while node != -1:
            if node in split_index:
                actual[split_index[node]] += 1
            node = node_parent.get(node, -1)

    transitions = []
    for j, sp in enumerate(splits):
        full = 2 ** sp.k - 1
        transitions.append(Transition(
            state=None, action=-1, reward=-actual[j] / full, next_state=None,
            terminal=(j + 1 == len(splits)), is_demo=False,
            neuron=sp.neuron, phase=sp.phase, k=sp.k,
            actual=actual[j], full=full, node_id=sp.node_id,
            depth=node_depth[sp.node_id]))
    return transitions


def policy_transitions(events: Iterable,
                       captures: Sequence[tuple[StateFeatures, int]]
                       ) -> list[Transition]:
    """Transitions restricted to the decisions the strategy controls.

    Splits at depth <= INITIAL_SPLIT_DEPTH belong to the shared initial
    policy, not to the learned policy, so they are treated as environment
    dynamics: their states never enter the replay buffer, and the one-step
    chain links consecutive controllable decisions (terminal on the last
    one). ``captures`` holds (state features, action index) for each of
    these deep splits in order, as TrajectoryCollector records them; a
    count that differs raises ValueError.
    """
    deep = [t for t in record_delayed_rewards(events)
            if t.depth > INITIAL_SPLIT_DEPTH]
    if len(captures) != len(deep):
        raise ValueError(f"{len(captures)} captures for {len(deep)} splits "
                         f"deeper than depth {INITIAL_SPLIT_DEPTH}")
    for i, (tr, (state, action)) in enumerate(zip(deep, captures)):
        tr.state, tr.action = state, action
        tr.next_state = captures[i + 1][0] if i + 1 < len(deep) else None
        tr.terminal = i + 1 == len(deep)
    return deep


# ---------------------------------------------------------------------------
# prioritized replay


class ReplayBuffer:
    """Demonstrations first, never evicted, then a ring of self-play entries
    in the remaining capacity; ``priority[i]`` belongs to ``items[i]``."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        self.items: list[Transition] = []
        self.n_demo = 0
        self._store = np.empty(64)  # priority is its first len(items) slots
        self._ring_pos = 0

    @property
    def priority(self) -> np.ndarray:
        return self._store[:len(self.items)]

    def _append(self, tr: Transition, priority: float):
        n = len(self.items)
        if n == self._store.size:
            self._store = np.concatenate([self._store, np.empty(n)])
        self._store[n] = priority
        self.items.append(tr)

    def add_demo(self, tr: Transition):
        if len(self.items) > self.n_demo:
            raise ValueError("demonstrations must be added before self-play")
        tr.is_demo = True
        self._append(tr, 1.0)
        self.n_demo += 1

    def add_self(self, tr: Transition):
        tr.is_demo = False
        priority = max(1.0, float(self.priority.max())) if self.items else 1.0
        ring_cap = max(1, self.capacity - self.n_demo)
        if len(self.items) - self.n_demo < ring_cap:
            self._append(tr, priority)
        else:
            slot = self.n_demo + self._ring_pos
            self.items[slot] = tr
            self._store[slot] = priority
            self._ring_pos = (self._ring_pos + 1) % ring_cap

    def __len__(self) -> int:
        return len(self.items)


def sample_prioritized(buffer: ReplayBuffer, batch_size: int, per_alpha: float,
                       per_beta: float, rng: np.random.Generator):
    """Indices, transitions, and normalized importance weights.

    Sampling probability is priority^alpha; weights are (N * P)^-beta
    scaled by their maximum. Draws are with replacement, so batch sizes
    beyond the buffer size are fine.
    """
    n = len(buffer)
    if n == 0:
        raise ValueError("buffer is empty")
    prios = buffer.priority ** per_alpha
    probs = prios / prios.sum()
    idx = rng.choice(n, size=batch_size, replace=True, p=probs)
    weights = (n * probs[idx]) ** (-per_beta)
    weights = weights / weights.max()
    return idx, [buffer.items[i] for i in idx], weights


def update_priorities(buffer: ReplayBuffer, indices, td_errors,
                      per_eps: float):
    # an ordered loop: when a batch repeats an index, its last write wins
    priority = buffer.priority
    for i, td in zip(indices, td_errors):
        priority[int(i)] = abs(float(td)) + per_eps


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainerConfig:
    learning_rate: float = 1e-3
    gamma: float = 0.9
    margin: float = 0.8
    lambda_start: float = 1.0
    per_alpha: float = 0.6
    per_beta_start: float = 0.4
    per_beta_end: float = 1.0
    per_eps: float = 1e-3
    target_sync: int = 500
    demo_epochs: int = 5
    demo_steps: int = 1000
    finetune_epochs: int = 40
    finetune_steps: int = 1000
    batch_size: int = 32
    buffer_capacity: int = 100_000
    hidden: tuple[int, ...] = (64, 64)
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.95
    epsilon_min: float = 0.05
    seed: int = 0
    run_max_iterations: int = 4000
    run_timeout_s: float = 120.0
    tighten: bool = True

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.margin <= 0 or self.learning_rate <= 0:
            raise ValueError("margin and learning rate must be positive")
        if not 0.0 < self.epsilon_decay < 1.0:
            raise ValueError("epsilon decay must lie in (0, 1)")

    def epsilon(self, episode: int) -> float:
        """Exploration rate of a fine-tuning episode: geometric decay from
        epsilon_start down to the epsilon_min floor."""
        return max(self.epsilon_min,
                   self.epsilon_start * self.epsilon_decay ** episode)

    @property
    def total_steps(self) -> int:
        return (self.demo_epochs * self.demo_steps
                + self.finetune_epochs * self.finetune_steps)


def _stack(states: Sequence[StateFeatures]) -> tuple[np.ndarray, np.ndarray]:
    """All candidate rows of ``states`` in one matrix, and the offsets that
    bound each state's segment: rows offsets[i]:offsets[i + 1] are
    states[i]."""
    offsets = np.zeros(len(states) + 1, dtype=np.intp)
    np.cumsum([len(s.matrix) for s in states], out=offsets[1:])
    return np.concatenate([s.matrix for s in states]), offsets


def _segment_argmax(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """np.argmax within each segment, as indices into ``values``: the first
    maximum of the segment, or its first NaN."""
    starts = offsets[:-1]
    top = np.maximum.reduceat(values, starts)
    hit = (values == np.repeat(top, np.diff(offsets))) | np.isnan(values)
    rows = np.where(hit, np.arange(len(values)), len(values))
    return np.minimum.reduceat(rows, starts)


def prepare_targets(qnet: QNet, target_qnet: QNet,
                    batch: Sequence[Transition], gamma: float) -> np.ndarray:
    """Double-DQN targets for a batch, computed up front and then treated
    as constants by the loss (semi-gradient). Equal to double_dqn_target
    per transition; the next states are scored as one stack."""
    targets = np.array([t.reward for t in batch], dtype=float)
    live = [i for i, t in enumerate(batch)
            if not t.terminal and t.next_state is not None]
    if live:
        rows, offsets = _stack([batch[i].next_state for i in live])
        best = _segment_argmax(qnet.forward(rows)[0], offsets)
        targets[live] += gamma * target_qnet.forward(rows)[0][best]
    return targets


def loss_given_targets(qnet: QNet, batch: Sequence[Transition],
                       targets: np.ndarray, weights: np.ndarray,
                       lam: float, margin: float) -> float:
    """sum_i w_i * td_i^2 + lam * sum_{demo i} margin_loss_i."""
    total = 0.0
    for t, tgt, w in zip(batch, targets, weights):
        q, _ = qnet.forward(t.state.matrix)
        total += w * (q[t.action] - tgt) ** 2
        if lam > 0.0 and t.is_demo:
            total += lam * margin_loss(q, t.action, margin)
    return float(total)


def compute_gradients(qnet: QNet, batch: Sequence[Transition],
                      targets: np.ndarray, weights: np.ndarray, lam: float,
                      margin: float):
    """Loss, parameter gradients, and per-sample TD errors for a batch with
    fixed targets. The analytic gradients here are what the
    finite-difference oracle checks against loss_given_targets.

    One forward pass scores the stacked states, d(loss)/dq is scattered
    into one vector over the stacked rows, and one backward pass turns it
    into gradients."""
    rows, offsets = _stack([t.state for t in batch])
    actions = np.array([t.action for t in batch], dtype=np.intp)
    if np.any((actions < 0) | (actions >= np.diff(offsets))):
        raise ValueError(f"action indices {actions} out of their states' "
                         f"ranges {np.diff(offsets)}")
    taken = offsets[:-1] + actions
    q, cache = qnet.forward(rows)
    weights = np.asarray(weights, dtype=float)
    tds = q[taken] - targets
    total = float(np.sum(weights * tds * tds))
    dq = np.zeros(len(q))
    dq[taken] = 2.0 * weights * tds
    demo = np.array([t.is_demo for t in batch], dtype=bool)
    if lam > 0.0 and demo.any():
        aug = q + margin
        aug[taken] = q[taken]
        star = _segment_argmax(aug, offsets)[demo]
        total += lam * float(np.sum(aug[star] - q[taken[demo]]))
        off = star != taken[demo]
        dq[star[off]] += lam
        dq[taken[demo][off]] -= lam
    return total, qnet.backward(cache, dq), tds


def train_step(qnet: QNet, target_qnet: QNet, batch: Sequence[Transition],
               weights: np.ndarray, lam: float, config: TrainerConfig
               ) -> tuple[float, np.ndarray]:
    """One gradient-descent update; returns (loss, per-sample TD errors)."""
    targets = prepare_targets(qnet, target_qnet, batch, config.gamma)
    total, grads, tds = compute_gradients(qnet, batch, targets, weights, lam,
                                          config.margin)
    if not np.isfinite(total):
        raise RuntimeError(
            f"non-finite loss {total}; batch rewards "
            f"{[t.reward for t in batch]}, targets {targets}")
    qnet.apply_gradients(grads, config.learning_rate)
    return float(total), tds


# ---------------------------------------------------------------------------
# policy and trajectory capture


class AgentPolicy:
    """Splitting strategy backed by a QNet; plugs into search.verify.

    A greedy policy (epsilon = 0) draws nothing. With epsilon > 0 it
    explores with its own generator ``rng`` (the trainer's), which it needs.
    """

    def __init__(self, qnet: QNet, epsilon: float = 0.0,
                 rng: np.random.Generator | None = None):
        if epsilon > 0.0 and rng is None:
            raise ValueError("an exploring policy (epsilon > 0) needs rng")
        self.qnet = qnet
        self.epsilon = epsilon
        self.rng = rng

    def choose(self, net, node, scores, fctx) -> SplitAction:
        state = featurize(net, node, scores, fctx)
        idx = act(self.qnet, state, self.epsilon, self.rng)
        neuron, phase = state.candidates[idx]
        return SplitAction(neuron, phase)


class TrajectoryCollector:
    """Captures (state features, chosen action index) at every split deeper
    than INITIAL_SPLIT_DEPTH, the splits that policy_transitions keeps."""

    def __init__(self):
        self.steps: list[tuple[StateFeatures, int]] = []

    def on_split(self, net, node, scores, action, fctx):
        if node.depth <= INITIAL_SPLIT_DEPTH:
            return
        state = featurize(net, node, scores, fctx)
        self.steps.append((state, state.index_of(action.neuron, action.phase)))


# ---------------------------------------------------------------------------
# demonstrations and the two-phase trainer


def generate_demonstrations(instances: Sequence[tuple[Network, Query]],
                            budget: Budget | None = None,
                            tighten: bool = True,
                            expert: str | None = None):
    """Expert transitions for the replay buffer.

    Per query, either run the named static heuristic, or run all four and
    keep the trajectory of the fastest (fewest iterations) one that solved
    it, the first on a tie. Only a strictly faster run can replace the
    best, so each later strategy runs with one node fewer than the best as
    its iteration budget, and none runs once the best took one node. Only
    the decisions the strategy controls (beyond the shared initial-split
    depth) become transitions.
    """
    budget = budget or Budget()
    candidates = (expert,) if expert is not None else STATIC_STRATEGIES
    transitions: list[Transition] = []
    expert_of: dict[str, str] = {}
    for net, query in instances:
        best = None
        for strategy in candidates:
            log: list = []
            collector = TrajectoryCollector()
            verdict = verify(net, query, strategy, budget if best is None
                             else replace(budget, max_iterations=best[0] - 1),
                             tighten=tighten, event_log=log,
                             collector=collector)
            if verdict.outcome not in ("SAT", "UNSAT"):
                continue
            best = (verdict.iterations, strategy, log, collector.steps)
            if best[0] == 1:
                break
        if best is None:
            continue
        _, strategy, log, steps = best
        expert_of[query.label] = strategy
        for tr in policy_transitions(log, steps):
            tr.is_demo = True
            transitions.append(tr)
    return transitions, expert_of


@dataclass
class TrainResult:
    qnet: QNet
    loss_trace: list[float]
    checkpoint_paths: list[Path]
    demo_transitions: int
    episodes: int


def train(config: TrainerConfig,
          demo_instances: Sequence[tuple[Network, Query]],
          train_instances: Sequence[tuple[Network, Query]],
          checkpoint_dir: str | Path | None = None,
          demo_transitions: list[Transition] | None = None) -> TrainResult:
    """Two-phase training: demonstration pretraining, then epsilon-greedy
    self-play fine-tuning. One gradient step per fine-tuning split action.

    ``demo_transitions`` may supply pre-generated expert transitions; by
    default they are produced from demo_instances with the static experts.
    Every random draw comes from one generator seeded with ``config.seed``.

    At the end of every epoch, one line goes to the ``relubab.train``
    logger at INFO: the epoch's mean loss, the lambda and beta of its last
    step, the epsilon of the latest self-play episode, the buffer size, and
    the episode count with its SAT, UNSAT and TIMEOUT outcomes so far.
    """
    rng = np.random.default_rng(config.seed)
    budget = Budget(timeout_s=config.run_timeout_s,
                    max_iterations=config.run_max_iterations)
    if demo_transitions is None:
        demo_transitions, _ = generate_demonstrations(
            demo_instances, budget, tighten=config.tighten)
    if not demo_transitions:
        raise ValueError("demo source is empty")

    buffer = ReplayBuffer(config.buffer_capacity)
    for tr in demo_transitions:
        buffer.add_demo(tr)
    qnet = QNet.create(rng, config.hidden)
    target = qnet.copy()

    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_paths: list[Path] = []
    loss_trace: list[float] = []
    total_p2 = config.finetune_epochs * config.finetune_steps
    episodes = 0
    outcomes: Counter[str] = Counter()
    epoch_start = 0

    def save(tag: str):
        if ckpt_dir is None:
            return
        path = ckpt_dir / f"checkpoint_{tag}.txt"
        save_checkpoint(path, qnet, config)
        checkpoint_paths.append(path)

    def end_epoch(phase: str, epoch: int, lam: float, beta: float, tag: str):
        nonlocal epoch_start
        losses = loss_trace[epoch_start:]
        epoch_start = len(loss_trace)
        _train_log.info(
            "phase=%s epoch=%d steps=%d loss=%.6g lambda=%.6g beta=%.6g "
            "epsilon=%.6g buffer=%d episodes=%d sat=%d unsat=%d timeout=%d",
            phase, epoch, len(loss_trace),
            sum(losses) / len(losses) if losses else math.nan, lam, beta,
            config.epsilon(max(episodes - 1, 0)), len(buffer), episodes,
            outcomes["SAT"], outcomes["UNSAT"], outcomes["TIMEOUT"])
        save(tag)

    def gradient_step(lam: float, beta: float):
        nonlocal target
        idx, batch, weights = sample_prioritized(
            buffer, config.batch_size, config.per_alpha, beta, rng)
        loss, tds = train_step(qnet, target, batch, weights, lam, config)
        update_priorities(buffer, idx, tds, config.per_eps)
        loss_trace.append(loss)
        if len(loss_trace) % config.target_sync == 0:
            target = qnet.copy()

    # phase 1: demonstrations only
    for epoch in range(config.demo_epochs):
        for _ in range(config.demo_steps):
            gradient_step(config.lambda_start, config.per_beta_start)
        end_epoch("pretrain", epoch, config.lambda_start,
                  config.per_beta_start, f"demo{epoch:03d}")

    # phase 2: self-play fine-tuning, one gradient step per splitting step;
    # only the policy-controlled transitions enter the buffer
    p2 = 0
    epoch_mark = config.finetune_steps
    while p2 < total_p2 and train_instances:
        order = rng.permutation(len(train_instances))
        progressed = False
        for oi in order:
            if p2 >= total_p2:
                break
            net, query = train_instances[int(oi)]
            policy = AgentPolicy(qnet, epsilon=config.epsilon(episodes),
                                 rng=rng)
            log: list = []
            collector = TrajectoryCollector()
            verdict = verify(net, query, policy, budget,
                             tighten=config.tighten,
                             event_log=log, collector=collector)
            episodes += 1
            outcomes[verdict.outcome] += 1
            for tr in policy_transitions(log, collector.steps):
                buffer.add_self(tr)
            for _ in range(verdict.splits):
                if p2 >= total_p2:
                    break
                frac = p2 / total_p2
                lam = config.lambda_start * (1.0 - frac)
                beta = config.per_beta_start + frac * (
                    config.per_beta_end - config.per_beta_start)
                gradient_step(lam, beta)
                p2 += 1
                progressed = True
                if p2 >= epoch_mark:
                    epoch = p2 // config.finetune_steps - 1
                    end_epoch("finetune", epoch, lam, beta, f"ft{epoch:03d}")
                    epoch_mark += config.finetune_steps
        if not progressed:
            raise RuntimeError(
                "no split action produced by a full pass over the "
                "training queries; cannot reach the step budget")
    save("final")
    return TrainResult(qnet, loss_trace, checkpoint_paths,
                       len(demo_transitions), episodes)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, qnet: QNet, config: TrainerConfig):
    lines = ["relubab-checkpoint v2",
             "features " + ",".join(FEATURE_NAMES)]
    cfg_items = []
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = "/".join(str(x) for x in v)
        cfg_items.append(f"{f.name}={v}")
    lines.append("config " + " ".join(cfg_items))
    for i, (w, b) in enumerate(zip(qnet.weights, qnet.biases)):
        lines.append(f"layer {i} weight {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(",".join(f"{v:.17g}" for v in row))
        lines.append(f"layer {i} bias {b.shape[0]}")
        for v in b:
            lines.append(f"{v:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_checkpoint(path: str | Path) -> QNet:
    """A v2 checkpoint's network; ValueError names a bad file, and a file
    that cannot be read raises its OSError."""
    try:
        return _parse_checkpoint(Path(path).read_text().splitlines())
    except (IndexError, ValueError) as err:  # IndexError: missing line
        raise ValueError(f"{path}: not a well-formed v2 checkpoint "
                         f"({err})") from None


def _parse_checkpoint(lines: list[str]) -> QNet:
    if lines[0].strip() != "relubab-checkpoint v2":
        raise ValueError(f"header {lines[0]!r}, expected "
                         f"'relubab-checkpoint v2'")
    feats = tuple(lines[1].split(" ", 1)[1].split(","))
    if feats != FEATURE_NAMES:
        raise ValueError(
            f"feature layout {feats} does not match the current "
            f"featurizer {FEATURE_NAMES}")
    if lines[2].split(" ", 1)[0] != "config":
        raise ValueError(f"expected a config line, got {lines[2]!r}")
    weights, biases = [], []
    blocks = {"weight": weights, "bias": biases}
    i = 3
    while i < len(lines):
        header = lines[i].split()
        if header[0] != "layer" or header[2] not in blocks:
            raise ValueError(f"unexpected line {lines[i]!r}")
        shape = tuple(int(t) for t in header[3:])
        body = lines[i + 1:i + 1 + shape[0]]
        block = np.array([[float(t) for t in ln.split(",")] for ln in body])
        if block.shape != (shape + (1,))[:2]:  # a bias line holds one value
            raise ValueError(f"layer {header[1]} {header[2]} block is not "
                             f"of shape {shape}")
        blocks[header[2]].append(block.reshape(shape))
        i += 1 + shape[0]
    widths = [len(FEATURE_NAMES)] + [w.shape[0] for w in weights]
    if ([w.shape for w in weights] != list(zip(widths[1:], widths[:-1]))
            or [b.shape for b in biases] != [(d,) for d in widths[1:]]
            or widths[-1] != 1):
        raise ValueError(f"layer shapes {[w.shape for w in weights]} and "
                         f"{[b.shape for b in biases]} do not chain from "
                         f"{widths[0]} features to one output")
    return QNet(weights, biases)
