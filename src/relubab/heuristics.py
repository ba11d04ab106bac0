"""Static splitting heuristics and the shared split-selection entry point.

Scores are recomputed from the node's current bounds and relaxation solution
at every decision, so a strategy's preference can change as the search
deepens. All ties break toward the smallest NeuronId for reproducibility.

Backward-score recursion
------------------------
The bound-improvement score walks one backward pass from the output
objective direction c. Let lam be the coefficient vector arriving at a
hidden layer's post-activations (initially W_out^T c). For neuron i with
pre-activation bounds [l, u]:

    slope_i = 1                if fixed active
              0                if fixed inactive
              u / (u - l)      if unfixed   (triangle upper slope)
    nu_hat_i = lam_i
    v_i      = slope_i * nu_hat_i

and the layer below receives lam' = W^T v. An unfixed neuron i with feeding
bias b gets the score

    s_i = max(v_i * b, (v_i - 1) * b) - slope_i * max(nu_hat_i, 0)

which two-layer cases can verify by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network, NeuronId
from .numeric import Phase, VarMap

PI_BETA = 0.5
INITIAL_SPLIT_DEPTH = 3  # nodes at depth <= 3 split by Pseudo-Impact

STATIC_STRATEGIES = ("soi", "polarity", "pseudo-impact", "babsr")


@dataclass(frozen=True)
class SplitAction:
    neuron: NeuronId
    phase: Phase

    def complement(self) -> "SplitAction":
        other = Phase.INACTIVE if self.phase is Phase.ACTIVE else Phase.ACTIVE
        return SplitAction(self.neuron, other)

    def __str__(self) -> str:
        return f"{self.neuron}:{self.phase.short.lower()}"


def soi_error(n_b, n_a):
    """Deviation of (pre, post) relaxation values from exact ReLU;
    elementwise on arrays."""
    return np.minimum(n_a - n_b, n_a)


def relu_soi(solution: np.ndarray, vmap: VarMap) -> dict[int, np.ndarray]:
    """soi_error of every ReLU neuron at a relaxation solution, per layer."""
    if solution is None or vmap is None:
        raise ValueError("node has no relaxation solution")
    return {k: soi_error(solution[vmap.pre[k]], solution[vmap.post[k]])
            for k in vmap.pre}


def soi_total(solution: np.ndarray, vmap: VarMap) -> float:
    """Sum of soi_error over all ReLU neurons; 0 means every ReLU is exact."""
    return sum((float(np.sum(e)) for e in relu_soi(solution, vmap).values()),
               0.0)


def polarity(a: float, b: float) -> float:
    """(a+b)/(b-a): 0 for a symmetric pre-activation interval, +-1 skewed."""
    if not (a < 0.0 < b):
        raise ValueError(f"polarity needs a < 0 < b, got [{a}, {b}]")
    return (a + b) / (b - a)


def pseudo_impact_update(pi_old: float, delta: float, beta: float = PI_BETA) -> float:
    """Exponential moving average of observed infeasibility change."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    return beta * pi_old + (1.0 - beta) * delta


def babsr_scores(net: Network, bounds, phases: dict[NeuronId, Phase],
                 output_direction: np.ndarray) -> dict[NeuronId, float]:
    """One backward pass; returns a score per unfixed neuron (see module
    docstring for the recursion). Fixed neurons are excluded."""
    scores: dict[NeuronId, float] = {}
    layers = net.layers
    c = np.asarray(output_direction, dtype=float)
    lam = layers[-1].weight.T @ c
    for k in range(len(layers) - 2, -1, -1):
        layer = layers[k]
        v = np.zeros(layer.out_dim)
        for i in range(layer.out_dim):
            nid = NeuronId(k, i)
            ph = phases.get(nid, Phase.UNFIXED)
            nu_hat = float(lam[i])
            if ph is Phase.ACTIVE:
                slope = 1.0
            elif ph is Phase.INACTIVE:
                slope = 0.0
            else:
                lo, up = bounds.pre(nid)
                if up == lo:
                    raise ValueError(
                        f"degenerate pre interval for {nid}; fix it instead")
                if up <= 0.0:
                    slope = 0.0
                elif lo >= 0.0:
                    slope = 1.0
                else:
                    slope = up / (up - lo)
                bias = float(layer.bias[i])
                vi = slope * nu_hat
                scores[nid] = max(vi * bias, (vi - 1.0) * bias) \
                    - slope * max(nu_hat, 0.0)
            v[i] = slope * nu_hat
        if k > 0:
            lam = layer.weight.T @ v
    return scores


@dataclass
class HeuristicScores:
    """Per-node score bundle shared by selection and featurization."""

    unfixed: list[NeuronId]
    soi: dict[NeuronId, float]
    polarity: dict[NeuronId, float]
    babsr: dict[NeuronId, float]
    pi: dict[NeuronId, float]


def compute_scores(net: Network, node, output_direction: np.ndarray,
                   pi: dict[NeuronId, float]) -> HeuristicScores:
    """Scores of an open node; ``pi`` is the run's Pseudo-Impact table."""
    unfixed = node.unfixed()
    soi = {NeuronId(k, i): float(e)
           for k, errs in relu_soi(node.solution, node.vmap).items()
           for i, e in enumerate(errs)}
    pol: dict[NeuronId, float] = {}
    for nid in unfixed:
        lo, up = node.bounds.pre(nid)
        if up <= 0.0:
            pol[nid] = -1.0
        elif lo >= 0.0:
            pol[nid] = 1.0
        else:
            pol[nid] = polarity(lo, up)
    babsr = babsr_scores(net, node.bounds, node.phases, output_direction)
    return HeuristicScores(unfixed=unfixed, soi=soi, polarity=pol,
                           babsr=babsr, pi=pi)


def _argbest(ids: list[NeuronId], key, bigger_is_better: bool) -> NeuronId:
    best = ids[0]
    best_v = key(best)
    for nid in ids[1:]:
        v = key(nid)
        if (v > best_v) if bigger_is_better else (v < best_v):
            best, best_v = nid, v
    return best


def select_split(node, strategy, rng, scores: HeuristicScores,
                 net: Network | None = None, fctx=None):
    """Pick the next SplitAction for a node.

    Nodes at depth <= INITIAL_SPLIT_DEPTH use the Pseudo-Impact ranking no
    matter which strategy runs the search (shared initial policy). Static
    strategies rank neurons only and take the Inactive phase first by
    convention; a policy object with a ``choose`` method (the learned agent)
    picks both neuron and phase.
    """
    ids = scores.unfixed
    if not ids:
        raise ValueError("no unfixed neuron to split on")

    if node.depth <= INITIAL_SPLIT_DEPTH:
        nid = _argbest(ids, lambda n: scores.pi.get(n, 0.0), True)
        return SplitAction(nid, Phase.INACTIVE)
    if hasattr(strategy, "choose"):
        return strategy.choose(net, node, scores, fctx, rng)
    if strategy == "soi":
        nid = _argbest(ids, lambda n: scores.soi.get(n, 0.0), True)
    elif strategy == "polarity":
        nid = _argbest(ids, lambda n: abs(scores.polarity[n]), False)
    elif strategy == "pseudo-impact":
        nid = _argbest(ids, lambda n: scores.pi.get(n, 0.0), True)
    elif strategy == "babsr":
        nid = _argbest(ids, lambda n: scores.babsr[n], True)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return SplitAction(nid, Phase.INACTIVE)
