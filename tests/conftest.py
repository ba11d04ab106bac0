import numpy as np
import pytest

from relubab.model import Layer, Network, toy_network
from relubab.query import example_property


@pytest.fixture
def toy() -> Network:
    return toy_network()


@pytest.fixture
def toy_query(toy):
    """The running-example property y <= -0.5 on the full input box."""
    return example_property(toy)


@pytest.fixture(scope="session")
def trained_checkpoint(tmp_path_factory):
    """The final checkpoint of a short training run (interval mode)."""
    from relubab.agent import TrainerConfig, train
    from relubab.harness import gen_random_suite

    pairs = [(inst.net, inst.query) for inst in
             gen_random_suite(seed=29, count=4, n_relus=(9, 12))]
    config = TrainerConfig(seed=5, demo_epochs=1, demo_steps=20,
                           finetune_epochs=1, finetune_steps=20,
                           run_max_iterations=500, tighten=False)
    out = tmp_path_factory.mktemp("agent")
    result = train(config, pairs[:1], pairs[1:], checkpoint_dir=out)
    return result.checkpoint_paths[-1]


def gradient_check_max_error(n_configs: int = 100, seed: int = 12,
                             step: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central differences.

    Draws random (network, batch) configurations; draws sitting within a
    kink's reach of the step (ReLU boundary or margin-argmax tie, where the
    loss is not differentiable) are redrawn, since the comparison is only
    defined on smooth regions.
    """
    from relubab.agent import (INPUT_WIDTH, QNet, StateFeatures, Transition,
                               compute_gradients, loss_given_targets,
                               prepare_targets)
    from relubab.model import NeuronId
    from relubab.numeric import Phase

    rng = np.random.default_rng(seed)

    def random_state(n):
        matrix = rng.normal(size=(n, INPUT_WIDTH))
        cands = tuple((NeuronId(0, i // 2),
                       Phase.ACTIVE if i % 2 == 0 else Phase.INACTIVE)
                      for i in range(n))
        return StateFeatures(candidates=cands, matrix=matrix)

    def make_batch(size):
        batch = []
        for _ in range(size):
            n = int(rng.integers(2, 5))
            batch.append(Transition(
                state=random_state(n), action=int(rng.integers(n)),
                reward=float(-rng.uniform(0, 1)),
                next_state=random_state(int(rng.integers(2, 5))),
                terminal=bool(rng.random() < 0.3),
                is_demo=bool(rng.random() < 0.5)))
        return batch

    def smooth(qnet, batch, gap=1e-2):
        for t in batch:
            h = t.state.matrix
            for w, b in zip(qnet.weights[:-1], qnet.biases[:-1]):
                pre = h @ w.T + b
                if np.min(np.abs(pre)) < gap:
                    return False
                h = np.maximum(pre, 0.0)
            q = (h @ qnet.weights[-1].T + qnet.biases[-1])[:, 0]
            if len(q) > 1:
                aug = q + 0.8 * (np.arange(len(q)) != t.action)
                top = np.sort(aug)
                if top[-1] - top[-2] < gap:
                    return False
        return True

    worst = 0.0
    checked = 0
    while checked < n_configs:
        hidden = tuple(int(rng.integers(3, 7))
                       for _ in range(int(rng.integers(1, 3))))
        qnet = QNet.create(rng, hidden=hidden)
        batch = make_batch(int(rng.integers(2, 5)))
        weights = rng.uniform(0.2, 1.0, len(batch))
        lam = float(rng.uniform(0.0, 1.0))
        if not smooth(qnet, batch):
            continue
        checked += 1
        targets = prepare_targets(qnet, QNet.create(rng, hidden=hidden),
                                  batch, 0.9)
        _, grads, _ = compute_gradients(qnet, batch, targets, weights, lam,
                                        0.8)
        analytic = np.concatenate([g.ravel() for pair in grads for g in pair])
        flat = qnet.flatten()
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            for sign in (1.0, -1.0):
                bumped = flat.copy()
                bumped[j] += sign * step
                qnet.load_flat(bumped)
                val = loss_given_targets(qnet, batch, targets, weights, lam,
                                         0.8)
                fd[j] += sign * val / (2 * step)
        qnet.load_flat(flat)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    return worst


def phase_vector(net: Network, fixed: dict | None = None) -> np.ndarray:
    """The phase vector of ``net`` with every ReLU unfixed except those in
    ``fixed`` (NeuronId -> Phase)."""
    from relubab.numeric import Phase

    phases = np.full(net.num_relus, Phase.UNFIXED, dtype=np.int8)
    for nid, phase in (fixed or {}).items():
        phases[net.relu_index(nid)] = phase
    return phases


def make_random_net(rng: np.random.Generator, n_in: int | None = None,
                    widths: list[int] | None = None) -> Network:
    """Small random ReLU net for property tests (weights uniform [-1, 1])."""
    if n_in is None:
        n_in = int(rng.integers(2, 5))
    if widths is None:
        widths = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3)))]
    layers = []
    prev = n_in
    for w in widths:
        layers.append(Layer(weight=rng.uniform(-1, 1, (w, prev)),
                            bias=rng.uniform(-0.5, 0.5, w), has_relu=True))
        prev = w
    layers.append(Layer(weight=rng.uniform(-1, 1, (1, prev)),
                        bias=rng.uniform(-0.5, 0.5, 1), has_relu=False))
    return Network(layers=tuple(layers), input_lower=-np.ones(n_in),
                   input_upper=np.ones(n_in))
