"""relubab benchmark: one workload per process, a closed loop of whole rounds.

    python3 bench/run.py --workload verify-lp --seed 1 --seconds 35 --trace 0

Run it from the repository root (the command in BENCHMARK.json also pins
BLAS/OpenMP to one thread). ``src`` is put on ``sys.path`` here because the
package need not be installed. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones declared in
BENCHMARK.json, with ``--trace 1`` the per-layer ones. Details go to
``bench/out/results/`` and, for traced runs, spans to ``bench/out/traces/``.

A round is a fixed job: every query of the workload's suite under every
static strategy (verify-*), or demonstrations + training + greedy agent on
held-out queries (train-agent). Rounds repeat while another one fits in
``--seconds``; each round does the same operations, so counts repeat
exactly and times are taken as medians over rounds and operations.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

STATIC = ("soi", "polarity", "pseudo-impact", "babsr")
# The fresh query comes from this offset plus --seed, so it never repeats
# a core suite (core seeds are small).
FRESH_SEED_BASE = 1_000_000
FRESH_COUNT = 1


@dataclass(frozen=True)
class SuiteSpec:
    """A fixed core suite plus a query drawn from --seed.

    Per-query work is heavy-tailed (one query can cost 10x the median), so a
    run whose queries all came from --seed would move by 15-25% from seed to
    seed on the grid totals. The core keeps totals comparable between runs;
    the fresh query keeps a change from being tuned to one draw.
    """

    core_seed: int
    core_count: int
    n_inputs: tuple[int, int]
    n_relus: tuple[int, int]
    fresh_relus: tuple[int, int] | None = None   # default: n_relus


@dataclass(frozen=True)
class Workload:
    kind: str          # "verify" or "train"
    tighten: bool
    suite: SuiteSpec
    demo_count: int = 0  # train: leading core queries used for training


WORKLOADS = {
    # ROADMAP's seed-7 suite at the generator's default sizes; LP tightening
    # keeps trees at a few nodes, so per-node LP cost sets the time.
    "verify-lp": Workload("verify", True, SuiteSpec(7, 30, (2, 5), (6, 12))),
    # Interval-only deduction on larger networks: trees of tens to hundreds
    # of nodes, phase 1 rebuilt at every node, strategies' trees differ.
    # The fresh query is drawn smaller: at 10-14 ReLUs one query alone can
    # add 15% to the round.
    "verify-interval": Workload(
        "verify", False, SuiteSpec(11, 12, (3, 5), (10, 14), (6, 12))),
    # The DQfD pipeline in interval mode on the acceptance trend suite's
    # seed: demonstrations, pretraining and fine-tuning, then the greedy
    # agent on held-out queries.
    "train-agent": Workload(
        "train", False, SuiteSpec(202, 44, (2, 5), (6, 12)), demo_count=4),
}

VERIFY_BUDGET = dict(timeout_s=60.0, max_iterations=20_000, seed=0)
TRAIN_CONFIG = dict(seed=1, tighten=False, demo_epochs=1, demo_steps=300,
                    finetune_epochs=1, finetune_steps=300,
                    run_max_iterations=3000, run_timeout_s=60.0)


def _process_age_s() -> float:
    """Seconds since this process started (10 ms resolution), from /proc."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age_s()

if not (ROOT / "src" / "relubab").is_dir():
    sys.exit(f"relubab sources not found under {ROOT / 'src'}; run from a "
             "checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import relubab.agent as agent  # noqa: E402
import relubab.harness as harness  # noqa: E402
import relubab.search as search  # noqa: E402
from relubab.query import TOL_BOX, TOL_OUT  # noqa: E402

import oracle  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# suites


@dataclass
class Suite:
    generated: list   # in-memory instances from the generator (oracle side)
    loaded: list      # the same instances read back from .nnet/.prop files
    fresh_from: int   # index of the first fresh instance


def build_suite(spec: SuiteSpec, seed: int, directory: Path) -> Suite:
    """Write the core and fresh suites to disk and load them back, as
    ``relubab gen`` + ``relubab bench`` do."""
    generated, loaded = [], []
    parts = (("core", spec.core_seed, spec.core_count, spec.n_relus),
             ("fresh", FRESH_SEED_BASE + seed, FRESH_COUNT,
              spec.fresh_relus or spec.n_relus))
    for part, part_seed, count, n_relus in parts:
        insts = harness.gen_random_suite(
            seed=part_seed, count=count, out_dir=directory / part,
            n_inputs=spec.n_inputs, n_relus=n_relus)
        for inst in insts:
            inst.query_id = f"{part}/{inst.query_id}"
            generated.append(inst)
            loaded.append(harness.load_instance(
                inst.net_path, inst.prop_path, query_id=inst.query_id))
    return Suite(generated, loaded, spec.core_count)


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Op:
    """One checked verify call."""

    inst: int
    strategy: str
    outcome: str
    iterations: int
    splits: int
    witness: object
    ms: float
    events: list


@dataclass
class Round:
    wall_s: float
    ops: list
    traced: bool = False
    train: dict = field(default_factory=dict)


def timed_verify(idx: int, inst, strategy, name: str, tighten: bool) -> Op:
    events: list = []
    t0 = time.perf_counter()
    try:
        v = search.verify(inst.net, inst.query, strategy,
                          search.Budget(**VERIFY_BUDGET), tighten=tighten,
                          event_log=events)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Op(idx, name, "ERROR", 0, 0, None,
                  (time.perf_counter() - t0) * 1000.0, events)
    return Op(idx, name, v.outcome, v.iterations, v.splits, v.witness,
              (time.perf_counter() - t0) * 1000.0, events)


def verify_round(work: Workload, suite: Suite) -> Round:
    t0 = time.perf_counter()
    ops = [timed_verify(i, inst, s, s, work.tighten)
           for i, inst in enumerate(suite.loaded) for s in STATIC]
    return Round(time.perf_counter() - t0, ops)


def train_round(work: Workload, suite: Suite) -> Round:
    config = agent.TrainerConfig(**TRAIN_CONFIG)
    pairs = [(inst.net, inst.query) for inst in suite.loaded[:work.demo_count]]
    t0 = time.perf_counter()
    demos, _ = agent.generate_demonstrations(
        pairs, search.Budget(timeout_s=config.run_timeout_s,
                             max_iterations=config.run_max_iterations,
                             seed=config.seed),
        tighten=config.tighten)
    t1 = time.perf_counter()
    result = agent.train(config, [], pairs, demo_transitions=demos)
    t2 = time.perf_counter()
    policy = agent.AgentPolicy(result.qnet)
    ops = [timed_verify(i, inst, policy, "agent", config.tighten)
           for i, inst in enumerate(suite.loaded) if i >= work.demo_count]
    return Round(time.perf_counter() - t0, ops, train=dict(
        demo_s=t1 - t0, train_s=t2 - t1,
        steps=len(result.loss_trace), loss=result.loss_trace,
        demos=demos, qnet=result.qnet, config=config))


def measure(work: Workload, suite: Suite, seconds: float,
            tracer: Tracer | None) -> list[Round]:
    """Whole rounds while the next one is expected to end within
    ``seconds``; a traced run alternates untraced and traced rounds and
    makes at least one of each."""
    run = verify_round if work.kind == "verify" else train_round
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.activate()
        try:
            r = run(work, suite)
        finally:
            if traced:
                tracer.deactivate()
        r.traced = traced
        rounds.append(r)
        if tracer is not None and len(rounds) < 2:
            continue
        typical = statistics.median(x.wall_s for x in rounds)
        if time.perf_counter() - start + typical > seconds:
            return rounds


# ---------------------------------------------------------------------------
# checks


def failed(op: Op) -> bool:
    return op.outcome not in ("SAT", "UNSAT")


def event_errors(op: Op, label: str) -> list[str]:
    lines = search.events_to_text(op.events).splitlines()
    nodes = sum(1 for ln in lines if ln.startswith("node "))
    splits = sum(1 for ln in lines if ln.startswith("split "))
    errors = []
    if nodes != op.iterations:
        errors.append(f"{label}: {nodes} node lines, {op.iterations} "
                      "iterations")
    if splits != op.splits:
        errors.append(f"{label}: {splits} split lines, {op.splits} splits")
    return errors


def gradient_errors(qnet, demos, config, n_params: int = 24,
                    step: float = 1e-6) -> list[str]:
    """compute_gradients against central differences of
    loss_given_targets on a demonstration batch."""
    batch = demos[:8]
    targets = agent.prepare_targets(qnet, qnet.copy(), batch, config.gamma)
    weights = np.ones(len(batch))
    lam, margin = config.lambda_start, config.margin
    _, grads, _ = agent.compute_gradients(qnet, batch, targets, weights, lam,
                                          margin)
    analytic = np.concatenate([a.ravel() for pair in grads for a in pair])
    flat = qnet.flatten()
    probe = qnet.copy()
    errors = []
    picks = np.random.default_rng(0).choice(flat.size, n_params,
                                            replace=False)
    for j in picks:
        losses = []
        for sign in (1.0, -1.0):
            moved = flat.copy()
            moved[j] += sign * step
            probe.load_flat(moved)
            losses.append(agent.loss_given_targets(probe, batch, targets,
                                                   weights, lam, margin))
        numeric = (losses[0] - losses[1]) / (2.0 * step)
        if abs(numeric - analytic[j]) > 1e-6 + 1e-4 * abs(analytic[j]):
            errors.append(f"parameter {j}: analytic {analytic[j]:.9g}, "
                          f"central difference {numeric:.9g}")
    return errors


def check(work: Workload, suite: Suite, rounds: list[Round]):
    """Every verdict against the MILP oracle, witnesses under the oracle's
    forward pass, event logs against verdict counts, rounds against each
    other, and the training invariants. Returns (errors, oracle gaps)."""
    errors: list[str] = []
    first = [(op.outcome, op.iterations, op.splits) for op in rounds[0].ops]
    for n, r in enumerate(rounds[1:], start=1):
        if [(op.outcome, op.iterations, op.splits) for op in r.ops] != first:
            errors.append(f"round {n} verdicts or counts differ from round 0")

    checked = {op.inst for r in rounds for op in r.ops if not failed(op)}
    results = {i: oracle.solve_instance(suite.generated[i]) for i in checked}
    for r in rounds:
        for op in r.ops:
            if failed(op):
                continue
            label = f"{suite.generated[op.inst].query_id}/{op.strategy}"
            errors += oracle.check_verdict(suite.generated[op.inst],
                                           results[op.inst], op.outcome,
                                           op.witness, TOL_BOX, TOL_OUT)
            errors += event_errors(op, label)

    if work.kind == "train":
        for n, r in enumerate(rounds):
            if not all(np.isfinite(r.train["loss"])):
                errors.append(f"round {n}: non-finite loss")
            if r.train["loss"] != rounds[0].train["loss"]:
                errors.append(f"round {n}: loss trace differs from round 0")
            bad = [t.reward for t in r.train["demos"]
                   if not -1.0 <= t.reward < 0.0]
            if bad:
                errors.append(f"round {n}: demonstration rewards {bad[:3]} "
                              "outside [-1, 0)")
        last = rounds[-1].train
        errors += gradient_errors(last["qnet"], last["demos"], last["config"])

    gaps = {part: min((res.gap for i, res in results.items()
                       if (i >= suite.fresh_from) == (part == "fresh")),
                      default=None)
            for part in ("core", "fresh")}
    return errors, gaps


# ---------------------------------------------------------------------------
# metrics


def harrell_davis_median(values) -> float:
    """Beta-weighted average of the order statistics around the median."""
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    a = (x.size + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(x.size + 1) / x.size))
    return float(weights @ x)


def end_to_end(rounds: list[Round], suite: Suite, setup_s: float,
               peak_rss_mb: float):
    ops = [op for r in rounds for op in r.ops]
    ms = [op.ms for op in ops]
    # Verification times cluster by tree size (1, 3, 5 nodes, ...) with
    # gaps near the median, so the sample median jumps between clusters when
    # a few operations swap places. The core suite's operations are the same
    # in every run, and the Harrell-Davis estimate averages across the gap.
    core_ms = [op.ms for op in ops if op.inst < suite.fresh_from]
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(r.wall_s for r in rounds),
        "query_ms_p50": harrell_davis_median(core_ms),
        "nodes_per_s": sum(op.iterations for op in ops) / (sum(ms) / 1e3),
        "iterations": sum(op.iterations for op in rounds[0].ops),
        "peak_rss_mb": peak_rss_mb,
    }


def train_figures(rounds: list[Round]) -> dict:
    plain = [r for r in rounds if not r.traced and r.train]
    if not plain:
        return {"steps_per_s": 0.0, "demo_s": 0.0}
    return {
        "steps_per_s": statistics.median(
            r.train["steps"] / r.train["train_s"] for r in plain),
        "demo_s": statistics.median(r.train["demo_s"] for r in plain),
    }


SETUP_SPANS = ("model.load_nnet", "query.parse_property",
               "harness.gen_random_suite")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(rounds: list[Round], setup_stats, final_stats):
    traced = [r for r in rounds if r.traced]
    n = len(traced)

    def total(name, key):
        """Per run for the set-up layers, per traced round for the rest."""
        if name in SETUP_SPANS:
            return setup_stats[name][key]
        return (final_stats[name][key] - setup_stats[name][key]) / n

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = total(name, "calls")
        out[f"{name}.self_ms"] = total(name, "self_ns") / 1e6
    out["numeric.simplex_phase1.infeasible"] = total(
        "numeric.simplex_phase1", "infeasible")
    out["numeric.simplex_phase1.us_per_call"] = _ratio(
        out["numeric.simplex_phase1.self_ms"] * 1e3,
        out["numeric.simplex_phase1.calls"])
    out["numeric.simplex_phase2.calls_per_node"] = _ratio(
        out["numeric.simplex_phase2.calls"], total("search.verify", "nodes"))
    out["agent.qnet_forward.rows"] = total("agent.qnet_forward", "rows")
    out["agent.qnet_forward.rows_per_call"] = _ratio(
        out["agent.qnet_forward.rows"], out["agent.qnet_forward.calls"])

    lines = [ln for r in traced for op in r.ops
             for ln in search.events_to_text(op.events).splitlines()]
    out["search.nodes"] = sum(ln.startswith("node ") for ln in lines) / n
    out["search.splits"] = sum(ln.startswith("split ") for ln in lines) / n
    out["search.conflicts"] = sum(
        ln.startswith("node ") and "result=conflict" in ln for ln in lines) / n

    figures = train_figures(rounds)
    out["train.steps_per_s"] = figures["steps_per_s"]
    out["train.demo_s"] = figures["demo_s"]
    plain = statistics.median(r.wall_s for r in rounds if not r.traced)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(r.wall_s for r in traced) / plain - 1.0)
    return out


# ---------------------------------------------------------------------------
# main


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    units = declared_metrics(bool(args.trace))
    work = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tracer = Tracer() if args.trace else None
    suite_dir = OUT / "suites" / f"{tag}-{os.getpid()}"
    try:
        if tracer is not None:
            tracer.activate()
        try:
            suite = build_suite(work.suite, args.seed, suite_dir)
        finally:
            if tracer is not None:
                tracer.deactivate()
        setup_stats = tracer.snapshot() if tracer is not None else None
        setup_s = _AGE0 + time.perf_counter() - _T0
        rounds = measure(work, suite, args.seconds, tracer)
    finally:
        shutil.rmtree(suite_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, gaps = check(work, suite, rounds)
    ops = [op for r in rounds for op in r.ops]
    if tracer is None:
        metrics = end_to_end(rounds, suite, setup_s, peak_rss_mb)
    else:
        metrics = per_layer(rounds, setup_stats, tracer.snapshot())
        tracer.write_spans(OUT / "traces" / f"{tag}.csv")
    if set(metrics) != set(units):
        raise SystemExit("metrics computed and declared in BENCHMARK.json "
                         f"differ: {sorted(set(metrics) ^ set(units))}")

    ms = [op.ms for op in ops]
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "rounds": len(rounds),
        "round_s": [r.wall_s for r in rounds],
        "traced_rounds": [r.traced for r in rounds],
        "ops_per_round": len(rounds[0].ops),
        "queries": {"core": work.suite.core_count, "fresh": FRESH_COUNT},
        "iterations_by_strategy": {
            s: sum(op.iterations for op in rounds[0].ops if op.strategy == s)
            for s in dict.fromkeys(op.strategy for op in rounds[0].ops)},
        "query_ms_p90": (float(np.percentile(ms, 90))
                         if len(rounds[0].ops) >= 100 else None),
        "train": train_figures(rounds) if work.kind == "train" else None,
        "oracle_min_gap": gaps,
        "errors": errors,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)

    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(failed(op) for op in ops),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
