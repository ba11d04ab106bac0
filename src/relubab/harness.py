"""Benchmark harness: brute-force oracle, random suite generation, the
suite runner with timeout accounting, and result aggregation.

The oracle enumerates activation patterns and solves one exact LP per
pattern over the inputs only (the network collapses to an affine map once
a pattern is fixed), so it shares no code path with the branch-and-bound
engine beyond the LP solver itself.

``make_strategy`` turns a strategy name (one of ``STATIC_STRATEGIES`` or
"agent") into the policy ``verify`` runs; the CLI and ``run_suite`` share
it. ``run_suite`` resolves every name once, before its first job, so a bad
name or a missing agent checkpoint raises instead of filling ERROR rows,
and an agent checkpoint is read once per suite, not once per query.
"""

from __future__ import annotations

import csv
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .heuristics import STATIC_STRATEGIES
from .model import Layer, Network, emit_nnet, evaluate_batch, load_nnet
from .numeric import LPProblem, solve_lp
from .query import OutputConstraint, Query, Verdict, parse_property
from .search import Budget, verify

ORACLE_RELU_GUARD = 20

CSV_COLUMNS = ("query_id", "strategy", "verdict", "wall_time_ms",
               "iterations", "splits", "seed", "checkpoint")


def brute_force_verify(net: Network, query: Query) -> Verdict:
    """Enumerate all activation patterns; SAT iff any pattern's exact LP is
    feasible together with the output constraints.

    Patterns are visited in binary counting order with bit 0 = the first
    ReLU, bit value 1 = active. iterations reports patterns checked.
    """
    n_relus = net.num_relus
    if n_relus > ORACLE_RELU_GUARD:
        raise ValueError(f"{n_relus} ReLUs exceed the oracle guard "
                         f"({ORACLE_RELU_GUARD})")
    n = net.input_dim
    positions = np.arange(n_relus)
    t0 = time.monotonic()
    iterations = 0
    for mask in range(2 ** n_relus):
        iterations += 1
        bits = (mask >> positions) & 1
        rows: list[np.ndarray] = []
        rhs: list = []
        m = np.eye(n)
        v = np.zeros(n)
        for k, layer in enumerate(net.layers):
            m = layer.weight @ m
            v = layer.weight @ v + layer.bias
            if not layer.has_relu:
                continue
            keep = bits[net.relu_slices[k]]
            s = 1 - 2 * keep    # active: pre >= 0, inactive: pre <= 0
            rows.append(s[:, None] * m)
            rhs.append(-s * v)
            m = keep[:, None] * m
            v = keep * v
        for con in query.constraints:
            rows.append(con.coeffs @ m)
            rhs.append(con.bound - float(con.coeffs @ v))
        result = solve_lp(LPProblem(
            lower=query.input_lower, upper=query.input_upper,
            a_ub=np.vstack(rows), b_ub=np.hstack(rhs)))
        if result.feasible:
            return Verdict(outcome="SAT", witness=result.x,
                           iterations=iterations, splits=0,
                           wall_time_ms=(time.monotonic() - t0) * 1000.0)
    return Verdict(outcome="UNSAT", iterations=iterations, splits=0,
                   wall_time_ms=(time.monotonic() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# random suites


@dataclass
class SuiteInstance:
    query_id: str
    net: Network
    query: Query
    net_path: Optional[Path] = None
    prop_path: Optional[Path] = None


def gen_random_suite(
        seed: int, count: int, out_dir: str | Path | None = None,
        n_inputs: tuple[int, int] = (2, 5),
        n_relus: tuple[int, int] = (6, 12)) -> list[SuiteInstance]:
    """Reproducible random networks with single-output threshold queries.

    Thresholds are calibrated against 800 sampled outputs so that roughly
    half the instances are SAT: a coin picks either a threshold slightly
    above the sampled minimum (a sampled witness guarantees SAT) or well
    below it (UNSAT unless the sampling missed a deep minimum).
    """
    rng = np.random.default_rng(seed)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    instances = []
    for idx in range(count):
        n_in = int(rng.integers(n_inputs[0], n_inputs[1] + 1))
        relus = int(rng.integers(n_relus[0], n_relus[1] + 1))
        if relus >= 4 and rng.random() < 0.5:
            first = int(rng.integers(2, relus - 1))
            widths = [first, relus - first]
        else:
            widths = [relus]
        layers = []
        prev = n_in
        for w in widths:
            layers.append(Layer(
                weight=rng.uniform(-1.0, 1.0, size=(w, prev)),
                bias=rng.uniform(-0.3, 0.3, size=w), has_relu=True))
            prev = w
        layers.append(Layer(weight=rng.uniform(-1.0, 1.0, size=(1, prev)),
                            bias=rng.uniform(-0.3, 0.3, size=1),
                            has_relu=False))
        net = Network(layers=tuple(layers), input_lower=-np.ones(n_in),
                      input_upper=np.ones(n_in))
        xs = rng.uniform(-1.0, 1.0, size=(800, n_in))
        ys = evaluate_batch(net, xs)[:, 0]
        lo, hi = float(ys.min()), float(ys.max())
        spread = max(hi - lo, 1e-6)
        # slightly above the sampled minimum (a sample witnesses SAT) or
        # well below it (UNSAT unless sampling missed a deep minimum)
        if rng.random() < 0.5:
            threshold = lo + 0.05 * spread
        else:
            threshold = lo - 0.15 * spread
        query_id = f"inst_{idx:04d}"
        query = Query(input_lower=net.input_lower.copy(),
                      input_upper=net.input_upper.copy(),
                      constraints=(OutputConstraint(
                          coeffs=np.array([1.0]), bound=threshold),),
                      label=query_id)
        net_path = prop_path = None
        if out is not None:
            net_path = out / f"{query_id}.nnet"
            prop_path = out / f"{query_id}.prop"
            net_path.write_text(emit_nnet(net, comment=query_id))
            prop_path.write_text(f"out 1 <= {threshold:.17g}\n")
        instances.append(SuiteInstance(query_id=query_id, net=net,
                                       query=query, net_path=net_path,
                                       prop_path=prop_path))
    return instances


def load_instance(net_path: str | Path, prop_path: str | Path,
                  query_id: str | None = None) -> SuiteInstance:
    net = load_nnet(Path(net_path).read_text())
    query_id = query_id or Path(net_path).stem
    query = parse_property(Path(prop_path).read_text(), net, label=query_id)
    return SuiteInstance(query_id=query_id, net=net, query=query,
                         net_path=Path(net_path), prop_path=Path(prop_path))


# ---------------------------------------------------------------------------
# suite runner


@dataclass
class RunRecord:
    query_id: str
    strategy: str
    verdict: str
    wall_time_ms: float
    iterations: int
    splits: int
    seed: int
    checkpoint: str = ""

    def row(self) -> list:
        return [self.query_id, self.strategy, self.verdict,
                f"{self.wall_time_ms:.3f}", self.iterations, self.splits,
                self.seed, self.checkpoint]


def make_strategy(name: str, checkpoint=None):
    """The policy ``verify`` runs for a strategy name: the name itself for
    a static heuristic, an ``AgentPolicy`` loaded from ``checkpoint`` for
    "agent". An unknown name, or "agent" without a checkpoint, raises
    ValueError."""
    if name == "agent":
        from .agent import AgentPolicy, load_checkpoint
        if checkpoint is None:
            raise ValueError("agent strategy needs a checkpoint")
        return AgentPolicy(load_checkpoint(checkpoint))
    if name not in STATIC_STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of "
                         f"{', '.join(STATIC_STRATEGIES + ('agent',))}")
    return name


def run_suite(instances: Sequence[SuiteInstance], strategies: Sequence[str],
              budget: Budget | None = None, out_dir: str | Path | None = None,
              checkpoint=None, tighten: bool = True) -> list[RunRecord]:
    """Every (query, strategy) pair under the budget, run in order in this
    process: for each query, each strategy in the given order.

    Each strategy name is resolved once, before any job runs, so an
    unknown name or an agent without a usable checkpoint raises ValueError
    and the agent checkpoint is loaded once per call. A job that raises
    prints its traceback and becomes an ERROR row rather than a dropped
    one. With an output directory, each record is written to its
    ``records.csv`` and flushed as soon as it exists, so the file holds the
    returned records in the same order."""
    if not instances or not strategies:
        raise ValueError("suite needs at least one query and strategy")
    budget = budget or Budget()
    policies = {name: make_strategy(name, checkpoint) for name in strategies}
    csv_file = writer = None
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        csv_file, writer = _open_records_csv(Path(out_dir) / "records.csv")
    records = []
    try:
        for inst in instances:
            for name in strategies:
                try:
                    verdict = verify(inst.net, inst.query, policies[name],
                                     budget, tighten=tighten)
                except Exception:
                    traceback.print_exc()
                    verdict = Verdict(outcome="ERROR")
                rec = RunRecord(query_id=inst.query_id, strategy=name,
                                verdict=verdict.outcome,
                                wall_time_ms=verdict.wall_time_ms,
                                iterations=verdict.iterations,
                                splits=verdict.splits, seed=budget.seed,
                                checkpoint=str(checkpoint or ""))
                records.append(rec)
                if writer is not None:
                    writer.writerow(rec.row())
                    csv_file.flush()
    finally:
        if csv_file is not None:
            csv_file.close()
    return records


def _open_records_csv(path: str | Path):
    """An open records file with its header written, and its CSV writer."""
    fh = open(path, "w", newline="")
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    return fh, writer


def write_records_csv(path: str | Path, records: Sequence[RunRecord]):
    fh, writer = _open_records_csv(path)
    with fh:
        writer.writerows(rec.row() for rec in records)


def read_records_csv(path: str | Path) -> list[RunRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(RunRecord(
                query_id=row["query_id"], strategy=row["strategy"],
                verdict=row["verdict"],
                wall_time_ms=float(row["wall_time_ms"]),
                iterations=int(row["iterations"]), splits=int(row["splits"]),
                seed=int(row["seed"]), checkpoint=row["checkpoint"]))
    return records


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class StrategySummary:
    strategy: str
    sats: int
    unsats: int
    timeouts: int
    errors: int
    avg_time_ms: float
    avg_iterations: float
    common_queries: int


def aggregate(records: Sequence[RunRecord],
              budget_ms: float) -> list[StrategySummary]:
    """Per-strategy outcome counts plus averages over the queries attempted
    by every strategy, timeouts counted at the full budget."""
    strategies = sorted({r.strategy for r in records})
    by_strat: dict[str, dict[str, RunRecord]] = {s: {} for s in strategies}
    for rec in records:
        by_strat[rec.strategy][rec.query_id] = rec
    common = None
    for s in strategies:
        attempted = {q for q, r in by_strat[s].items() if r.verdict != "ERROR"}
        common = attempted if common is None else (common & attempted)
    common = common or set()
    summaries = []
    for s in strategies:
        recs = by_strat[s]
        sats = sum(1 for r in recs.values() if r.verdict == "SAT")
        unsats = sum(1 for r in recs.values() if r.verdict == "UNSAT")
        touts = sum(1 for r in recs.values() if r.verdict == "TIMEOUT")
        errs = sum(1 for r in recs.values() if r.verdict == "ERROR")
        times = []
        iters = []
        for q in common:
            r = recs[q]
            times.append(budget_ms if r.verdict == "TIMEOUT"
                         else r.wall_time_ms)
            iters.append(r.iterations)
        summaries.append(StrategySummary(
            strategy=s, sats=sats, unsats=unsats, timeouts=touts,
            errors=errs,
            avg_time_ms=float(np.mean(times)) if times else 0.0,
            avg_iterations=float(np.mean(iters)) if iters else 0.0,
            common_queries=len(common)))
    return summaries


def cumulative_curve(records: Sequence[RunRecord],
                     strategy: str) -> list[tuple[float, int]]:
    """(solve time, instances solved by then) step points, timeouts and
    errors excluded, nondecreasing in both coordinates."""
    times = sorted(r.wall_time_ms for r in records
                   if r.strategy == strategy and r.verdict in ("SAT", "UNSAT"))
    return [(t, i + 1) for i, t in enumerate(times)]


def write_summary(path: str | Path, summaries: Sequence[StrategySummary]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "sats", "unsats", "timeouts", "errors",
                         "avg_time_ms", "avg_iterations", "common_queries"])
        for s in summaries:
            writer.writerow([s.strategy, s.sats, s.unsats, s.timeouts,
                             s.errors, f"{s.avg_time_ms:.3f}",
                             f"{s.avg_iterations:.3f}", s.common_queries])


def write_curve(path: str | Path, curve: Sequence[tuple[float, int]]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ms", "solved"])
        for t, c in curve:
            writer.writerow([f"{t:.3f}", c])
