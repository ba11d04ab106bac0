"""Static splitting heuristics and the shared split-selection entry point.

Scores are recomputed from the node's current bounds and relaxation errors
at every decision, so a strategy's preference can change as the search
deepens. Scores are float arrays over the network's ReLUs in relu_ids()
order. All ties break toward the smallest NeuronId for reproducibility:
np.argmax/np.argmin over the ascending unfixed positions take the first.

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


@dataclass(frozen=True, slots=True)
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


def relu_soi(solution: np.ndarray, vmap: VarMap) -> np.ndarray:
    """soi_error of every ReLU neuron at a relaxation solution, in
    relu_ids() order."""
    return soi_error(solution[vmap.pre], solution[vmap.post])


def soi_total(net: Network, errors: np.ndarray) -> float:
    """Sum of the per-ReLU soi_errors (relu_soi); 0 means every ReLU is
    exact.

    Summed within each layer, then over layers: the order fixes the last
    digits of the logged value."""
    return sum((float(np.sum(errors[sl])) for sl in net.relu_slices.values()),
               0.0)


def polarity(a, b):
    """(a+b)/(b-a): 0 for a symmetric pre-activation interval, +-1 skewed;
    elementwise on arrays."""
    if not np.logical_and(a < 0.0, 0.0 < b).all():
        raise ValueError(f"polarity needs a < 0 < b, got [{a}, {b}]")
    return (a + b) / (b - a)


def pseudo_impact_update(pi_old: float, delta: float) -> float:
    """Moving average of observed infeasibility change, PI_BETA on pi_old."""
    return PI_BETA * pi_old + (1.0 - PI_BETA) * delta


def babsr_scores(net: Network, bounds, phases: np.ndarray,
                 output_direction: np.ndarray) -> np.ndarray:
    """One backward pass; returns the score of every unfixed neuron, 0 at
    fixed ones (see module docstring for the recursion)."""
    lo, up = bounds.pre_lower, bounds.pre_upper
    unfixed = phases == Phase.UNFIXED.value
    degenerate = unfixed & (up == lo)
    if degenerate.any():
        nid = net.relu_ids()[degenerate.argmax()]
        raise ValueError(f"degenerate pre interval for {nid}; fix it instead")
    rising = unfixed & (up > 0.0)
    slope = ((phases == Phase.ACTIVE.value)
             | (rising & (lo >= 0.0))).astype(float)
    np.divide(up, up - lo, out=slope, where=rising & (lo < 0.0))
    layers = net.layers
    nu_hat = np.empty(net.num_relus)
    lam = layers[-1].weight.T @ np.asarray(output_direction, dtype=float)
    for k in range(len(layers) - 2, -1, -1):
        sl = net.relu_slices[k]
        nu_hat[sl] = lam
        if k > 0:
            lam = layers[k].weight.T @ (slope[sl] * lam)
    bias = np.concatenate([layers[k].bias for k in net.relu_slices])
    v = slope * nu_hat
    at_v, at_v1 = v * bias, (v - 1.0) * bias
    # max(a, b) as np.where(b > a, b, a): a tie keeps a, as max() does
    scores = np.where(at_v1 > at_v, at_v1, at_v) \
        - slope * np.where(0.0 > nu_hat, 0.0, nu_hat)
    return np.where(unfixed, scores, 0.0)


@dataclass
class HeuristicScores:
    """Per-node score bundle shared by selection and featurization.

    ``unfixed`` holds the positions of the unfixed neurons in ascending
    order; the score arrays, like the run's Pseudo-Impact table ``pi``,
    cover every ReLU in relu_ids() order.
    """

    unfixed: np.ndarray
    soi: np.ndarray
    polarity: np.ndarray
    babsr: np.ndarray
    pi: np.ndarray


def compute_scores(net: Network, node, output_direction: np.ndarray,
                   pi: np.ndarray) -> HeuristicScores:
    """Scores of an open node; ``pi`` is the run's Pseudo-Impact table.

    Deduction leaves every unfixed neuron of an open node with a < 0 < b,
    so polarity is defined on all of them."""
    unfixed = node.unfixed()
    pol = np.zeros(net.num_relus)
    pol[unfixed] = polarity(node.bounds.pre_lower[unfixed],
                            node.bounds.pre_upper[unfixed])
    babsr = babsr_scores(net, node.bounds, node.phases, output_direction)
    return HeuristicScores(unfixed=unfixed, soi=node.soi_errors,
                           polarity=pol, babsr=babsr, pi=pi)


# name -> rule: the position, among the unfixed positions u, of the neuron
# to split; np.argmax/np.argmin take the first occurrence on a tie
_SPLIT_RULES = {
    "soi": lambda scores, u: np.argmax(scores.soi[u]),
    "polarity": lambda scores, u: np.argmin(np.abs(scores.polarity[u])),
    "pseudo-impact": lambda scores, u: np.argmax(scores.pi[u]),
    "babsr": lambda scores, u: np.argmax(scores.babsr[u]),
}
# the order is behaviour: generate_demonstrations keeps the first of the
# strategies with the fewest iterations
STATIC_STRATEGIES = tuple(_SPLIT_RULES)


def select_split(node, strategy, scores: HeuristicScores, net: Network,
                 fctx=None):
    """Pick the next SplitAction for a node; draws no random numbers.

    Nodes at depth <= INITIAL_SPLIT_DEPTH use the Pseudo-Impact rule no
    matter which strategy runs the search (shared initial policy). Static
    strategies (STATIC_STRATEGIES) rank neurons only and take the Inactive
    phase first; a policy object (the learned agent) picks both neuron and
    phase by ``choose(net, node, scores, fctx)``.
    """
    u = scores.unfixed
    if not len(u):
        raise ValueError("no unfixed neuron to split on")
    if node.depth <= INITIAL_SPLIT_DEPTH:
        rule = _SPLIT_RULES["pseudo-impact"]
    elif hasattr(strategy, "choose"):
        return strategy.choose(net, node, scores, fctx)
    elif strategy in _SPLIT_RULES:
        rule = _SPLIT_RULES[strategy]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return SplitAction(net.relu_ids()[u[rule(scores, u)]], Phase.INACTIVE)
