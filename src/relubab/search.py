"""Depth-first branch-and-bound over ReLU phases.

``expand`` is the one place a node is built: it fixes the split neuron's
phase in a copy of the parent's phase vector (int8 ``Phase`` codes in
``Network.relu_ids()`` order), runs deduction to a fixpoint
(interval propagation, optional LP tightening, phase deduction), then
solves the triangle relaxation for the most-violating point. A node
closes as a conflict when deduction empties it, and as SAT when even that
point satisfies every ReLU exactly (total SoI within tolerance) together
with the output property; the point's input part is the witness. The
engine around it only keeps the books: budget, node ids, the event log
and the Pseudo-Impact table. Splitting deduces both children eagerly (the
sibling's deduction feeds the Pseudo-Impact table), then explores the
chosen phase first.

``tests/test_golden.py`` pins the event logs of a fixed suite, byte for
byte, for every strategy with LP tightening on and off. A change that
alters trees on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py``.

Event log text format, one record per line:

    node id=<n> parent=<n|-> depth=<n> action=<layer:idx:a|i|-> \
        result=<open|conflict|sat> unfixed=<n> soi=<float|->
    split node=<n> neuron=<layer:idx> phase=<a|i> k=<n>
    verdict outcome=<sat|unsat|timeout> iterations=<n> splits=<n>

``k`` is the number of unfixed neurons at the node before the split; the
reward bookkeeping and the tests recount subtree sizes from these lines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .heuristics import PI_BETA, STATIC_STRATEGIES, SplitAction, \
    compute_scores, pseudo_impact_update, select_split, soi_total
from .model import Network, NeuronId
from .numeric import SAT_SOI_TOL, _CONFLICT_EPS, BoundsMap, Conflict, Phase, \
    VarMap, propagate_intervals, solve_relaxation, tighten_bounds_lp
from .query import Query, Verdict, check_witness


@dataclass
class Budget:
    timeout_s: float = 3600.0
    max_iterations: int = 10 ** 9
    seed: int = 0

    def __post_init__(self):
        if self.timeout_s <= 0 or self.max_iterations <= 0:
            raise ValueError("budget must be positive")


class _Timeout(Exception):
    pass


@dataclass
class NodeState:
    """One BaB node after deduction, as built by ``expand``.

    A conflict node carries no bounds, solution or SoI; its phases are
    those deduced before the conflict. ``node_id`` and
    ``splits_so_far`` (the run's split count when the node was visited) are
    set by the engine.
    """

    phases: np.ndarray  # int8 Phase codes in relu_ids() order
    depth: int
    status: str  # "open" | "conflict" | "sat"
    bounds: BoundsMap | None = None
    solution: np.ndarray | None = None
    vmap: VarMap | None = None
    soi: float | None = None
    witness: np.ndarray | None = None
    action: SplitAction | None = None
    parent_id: int = -1
    node_id: int = -1
    splits_so_far: int = 0

    def unfixed(self) -> np.ndarray:
        """Positions of the unfixed neurons, ascending."""
        return (self.phases == Phase.UNFIXED.value).nonzero()[0]


# ---------------------------------------------------------------------------
# event log


@dataclass(frozen=True)
class NodeEvent:
    node_id: int
    parent_id: int
    depth: int
    action: SplitAction | None
    result: str
    unfixed: int
    soi: float | None

    def to_line(self) -> str:
        act = str(self.action) if self.action else "-"
        par = str(self.parent_id) if self.parent_id >= 0 else "-"
        soi = f"{self.soi:.17g}" if self.soi is not None else "-"
        return (f"node id={self.node_id} parent={par} depth={self.depth} "
                f"action={act} result={self.result} unfixed={self.unfixed} "
                f"soi={soi}")


@dataclass(frozen=True)
class SplitEvent:
    node_id: int
    neuron: NeuronId
    phase: Phase
    k: int  # unfixed count at the node before this split

    def to_line(self) -> str:
        return (f"split node={self.node_id} neuron={self.neuron} "
                f"phase={self.phase.short.lower()} k={self.k}")


@dataclass(frozen=True)
class VerdictEvent:
    outcome: str
    iterations: int
    splits: int

    def to_line(self) -> str:
        return (f"verdict outcome={self.outcome.lower()} "
                f"iterations={self.iterations} splits={self.splits}")


def events_to_text(events: Iterable) -> str:
    return "\n".join(ev.to_line() for ev in events) + "\n"


def _phase_from_token(tok: str) -> Phase:
    return {"a": Phase.ACTIVE, "i": Phase.INACTIVE}[tok]


def parse_event_log(text: str) -> list:
    """Inverse of events_to_text; malformed input raises ValueError."""
    events = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *rest = line.split()
        kv = dict(tok.split("=", 1) for tok in rest)
        if kind == "node":
            action = None
            if kv["action"] != "-":
                layer, idx, ph = kv["action"].split(":")
                action = SplitAction(NeuronId(int(layer), int(idx)),
                                     _phase_from_token(ph))
            events.append(NodeEvent(
                node_id=int(kv["id"]),
                parent_id=-1 if kv["parent"] == "-" else int(kv["parent"]),
                depth=int(kv["depth"]), action=action, result=kv["result"],
                unfixed=int(kv["unfixed"]),
                soi=None if kv["soi"] == "-" else float(kv["soi"])))
        elif kind == "split":
            events.append(SplitEvent(
                node_id=int(kv["node"]), neuron=NeuronId.parse(kv["neuron"]),
                phase=_phase_from_token(kv["phase"]), k=int(kv["k"])))
        elif kind == "verdict":
            events.append(VerdictEvent(
                outcome=kv["outcome"].upper(),
                iterations=int(kv["iterations"]), splits=int(kv["splits"])))
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    return events


# ---------------------------------------------------------------------------
# deduction


def deduce_phases(bounds: BoundsMap, phases: np.ndarray) -> int:
    """Fix, in place, every unfixed neuron whose pre bounds pin it to one
    phase; returns how many were fixed.

    Applying the fixes and re-deducing reaches a fixpoint because fixes only
    shrink intervals.
    """
    unfixed = phases == Phase.UNFIXED.value
    inactive = unfixed & (bounds.pre_upper <= 0.0)
    active = unfixed & ~inactive & (bounds.pre_lower >= 0.0)
    phases[inactive] = Phase.INACTIVE.value
    phases[active] = Phase.ACTIVE.value
    return np.count_nonzero(inactive | active)


def _interval_output_conflict(bounds: BoundsMap, constraints) -> None:
    for con in constraints:
        cp = np.clip(con.coeffs, 0.0, None)
        cm = np.clip(con.coeffs, None, 0.0)
        lo = cp @ bounds.output_lower + cm @ bounds.output_upper
        if lo > con.bound + _CONFLICT_EPS:
            raise Conflict(f"output interval violates {con}")


def _deduce_bounds(net: Network, query: Query, phases: np.ndarray,
                   clip: BoundsMap | None, tighten: bool) -> BoundsMap:
    """Run deduction to a fixpoint, fixing ``phases`` in place.

    Raises Conflict when the node is empty.
    """
    # settled: the last LP tightening fixed no phase, so one more
    # propagation that fixes none ends deduction
    carry, settled = clip, False
    while True:
        bounds = propagate_intervals(net, query.input_lower, query.input_upper,
                                     phases, clip=carry)
        _interval_output_conflict(bounds, query.constraints)
        if deduce_phases(bounds, phases):
            carry, settled = bounds, False
            continue
        if settled or not tighten:
            return bounds
        carry = tighten_bounds_lp(net, bounds, phases, query.constraints)
        settled = not deduce_phases(carry, phases)


def expand(net: Network, query: Query, parent: NodeState | None,
           action: SplitAction | None, *, tighten: bool) -> NodeState:
    """The deduced child of ``parent`` under ``action``; the root node when
    both are None.

    A Conflict during deduction yields a closed child (status "conflict")
    rather than an exception; the sibling is the expansion under the
    complementary action. A split on a neuron that is fixed, or that the
    network does not have, raises ValueError.
    """
    if parent is None:
        phases = np.full(net.num_relus, Phase.UNFIXED.value, dtype=np.int8)
        depth, clip, parent_id = 0, None, -1
    else:
        u = net.relu_index(action.neuron)
        if parent.phases[u] != Phase.UNFIXED.value:
            raise ValueError(f"{action.neuron} is not unfixed in this node")
        phases = parent.phases.copy()
        phases[u] = action.phase
        depth, clip, parent_id = (parent.depth + 1, parent.bounds,
                                  parent.node_id)
    try:
        bounds = _deduce_bounds(net, query, phases, clip, tighten)
        result, vmap = solve_relaxation(net, bounds, phases, query.constraints)
        if not result.feasible:
            raise Conflict("relaxation infeasible")
    except Conflict:
        return NodeState(phases=phases, depth=depth, status="conflict",
                         action=action, parent_id=parent_id)

    soi = soi_total(net, result.x, vmap)
    status, witness = "open", None
    if soi <= SAT_SOI_TOL:
        candidate = result.x[vmap.x].copy()
        if check_witness(net, query, candidate):
            status, witness = "sat", candidate
        elif not (phases == Phase.UNFIXED.value).any():
            raise RuntimeError(
                "fully fixed node is LP-feasible but its witness fails "
                "validation; solver tolerance breach")
    return NodeState(phases=phases, depth=depth, status=status, bounds=bounds,
                     solution=result.x, vmap=vmap, soi=soi, witness=witness,
                     action=action, parent_id=parent_id)


# ---------------------------------------------------------------------------
# engine


class FeatureContext:
    """Run-level context the featurizer reads: the network-wide
    (pre_min, pre_max, post_min, post_max) of the root bounds for
    normalization, and the running split maximum."""

    def __init__(self, root_bounds: BoundsMap):
        self.root_scales = (float(root_bounds.pre_lower.min()),
                            float(root_bounds.pre_upper.max()),
                            float(root_bounds.post_lower.min()),
                            float(root_bounds.post_upper.max()))
        self.running_max_splits = 0


class _Engine:
    def __init__(self, net: Network, query: Query, strategy, budget: Budget,
                 tighten: bool, force_first, event_sink, collector):
        self.net = net
        self.query = query
        self.strategy = strategy
        self.budget = budget
        self.tighten = tighten
        self.force = list(force_first or [])
        self.events = event_sink if event_sink is not None else []
        self.collector = collector
        self.rng = np.random.default_rng(budget.seed)
        self.out_direction = np.sum([c.coeffs for c in query.constraints],
                                    axis=0)
        self.pi_table = np.zeros(net.num_relus)
        self.fctx = None  # set once the root bounds are known
        self.iterations = 0  # also the id of the next node
        self.splits = 0
        self.t0 = time.monotonic()

    def _elapsed_ms(self) -> float:
        return (time.monotonic() - self.t0) * 1000.0

    def _check_budget(self):
        if self.iterations >= self.budget.max_iterations:
            raise _Timeout
        if time.monotonic() - self.t0 > self.budget.timeout_s:
            raise _Timeout

    def _visit(self, parent: NodeState | None,
               action: SplitAction | None) -> NodeState:
        self._check_budget()
        node = expand(self.net, self.query, parent, action,
                      tighten=self.tighten)
        node.node_id = self.iterations
        node.splits_so_far = self.splits
        self.iterations += 1
        self.events.append(NodeEvent(
            node_id=node.node_id, parent_id=node.parent_id, depth=node.depth,
            action=action, result=node.status,
            unfixed=len(node.unfixed()) if node.bounds is not None else 0,
            soi=node.soi))
        if action is not None:  # every expanded parent is open, with an SoI
            child_soi = node.soi if node.status == "open" else 0.0
            delta = abs(parent.soi - child_soi)
            u = self.net.relu_index(action.neuron)
            self.pi_table[u] = pseudo_impact_update(
                float(self.pi_table[u]), delta, PI_BETA)
        return node

    def _init_pi(self, root: NodeState):
        widths = np.abs(root.bounds.pre_upper - root.bounds.pre_lower)
        wmax = widths.max(initial=0.0)
        self.pi_table = widths / wmax if wmax > 0 else np.zeros_like(widths)

    def _pick_action(self, node: NodeState) -> SplitAction:
        scores = compute_scores(self.net, node, self.out_direction,
                                self.pi_table)
        if self.force:
            action = self.force.pop(0)
        else:
            action = select_split(node, self.strategy, self.rng, scores,
                                  net=self.net, fctx=self.fctx)
        self.splits += 1
        self.fctx.running_max_splits = self.splits
        self.events.append(SplitEvent(node_id=node.node_id,
                                      neuron=action.neuron,
                                      phase=action.phase,
                                      k=len(node.unfixed())))
        if self.collector is not None:
            self.collector.on_split(self.net, node, scores, action, self.fctx)
        return action

    def run(self) -> Verdict:
        outcome = "UNSAT"
        witness = None
        try:
            root = self._visit(None, None)
            if root.status == "sat":
                outcome, witness = "SAT", root.witness
            elif root.status == "conflict":
                outcome = "UNSAT"
            else:
                self._init_pi(root)
                self.fctx = FeatureContext(root.bounds)
                outcome, witness = self._dfs(root)
        except _Timeout:
            outcome = "TIMEOUT"
        self.events.append(VerdictEvent(outcome=outcome,
                                        iterations=self.iterations,
                                        splits=self.splits))
        return Verdict(outcome=outcome, witness=witness,
                       iterations=self.iterations, splits=self.splits,
                       wall_time_ms=self._elapsed_ms())

    def _dfs(self, root: NodeState) -> tuple[str, np.ndarray | None]:
        stack: list[list] = [[root, None]]
        while stack:
            node, pending = stack[-1]
            if pending is None:
                action = self._pick_action(node)
                chosen = self._visit(node, action)
                if chosen.status == "sat":
                    return "SAT", chosen.witness
                sibling = self._visit(node, action.complement())
                if sibling.status == "sat":
                    return "SAT", sibling.witness
                stack[-1][1] = [c for c in (chosen, sibling)
                                if c.status == "open"]
            elif pending:
                stack.append([pending.pop(0), None])
            else:
                stack.pop()
        return "UNSAT", None


def verify(net: Network, query: Query, strategy="babsr",
           budget: Budget | None = None, *, tighten: bool = True,
           force_first: Sequence[SplitAction] | None = None,
           event_log: list | None = None, collector=None) -> Verdict:
    """Decide a query by branch-and-bound under the given splitting strategy.

    ``strategy`` is one of ``STATIC_STRATEGIES`` or a policy object with a
    ``choose`` method; anything else raises ValueError before the search
    starts. ``force_first`` overrides the first decisions (testing hook).
    ``event_log``, when a list, receives the event records of the run.
    """
    if not (hasattr(strategy, "choose") or strategy in STATIC_STRATEGIES):
        raise ValueError(f"unknown strategy {strategy!r}; expected one of "
                         f"{', '.join(STATIC_STRATEGIES)} or a policy "
                         f"object with a choose method")
    engine = _Engine(net, query, strategy, budget or Budget(),
                     tighten, force_first, event_log, collector)
    return engine.run()

