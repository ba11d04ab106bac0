"""Reference figures quoted in bench/README.md.

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 bench/reference.py

Prints, as Markdown:
  * each workload's layer shares: self time per layer over the traced
    round's wall time, from one ``--trace 1`` run per workload (seed 1);
  * the smallest distance between the MILP minimum and the threshold, per
    core suite and over the fresh slices of seeds 1-10;
  * on train-agent's held-out core queries, the greedy agent's iterations
    next to every static strategy's, the paper's comparison;
  * the agent's iterations for training seeds 1-4.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run  # also puts src on sys.path
from run import (BENCH, ROOT, STATIC, TRAIN_CONFIG, WORKLOADS, agent,
                 build_suite, oracle, search)

SEED = 1
TRAINING_SEEDS = (1, 2, 3, 4)


def layer_shares(workload: str) -> tuple[list, float]:
    """(layer, calls, share) rows above 0.5%, and the tracing overhead."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                   timeout=180)
    details = json.loads((BENCH / "out" / "results" /
                          f"{workload}-seed{SEED}-trace1.json").read_text())
    metrics = details["metrics"]
    wall_ms = 1e3 * statistics.median(
        s for s, t in zip(details["round_s"], details["traced_rounds"]) if t)
    rows = []
    for name, value in metrics.items():
        if name.endswith(".self_ms") and not name.startswith(
                run.SETUP_SPANS):
            rows.append((name[:-len(".self_ms")],
                         metrics[name[:-len("self_ms")] + "calls"],
                         value / wall_ms))
    rows.sort(key=lambda r: -r[2])
    return [r for r in rows if r[2] >= 0.005], metrics["trace.overhead_pct"]


def oracle_gaps(workload: str) -> tuple[float, float]:
    spec = WORKLOADS[workload].suite
    core = build_suite(spec, 0, BENCH / "out" / "reference" / workload)
    core_gap = min(oracle.solve_instance(inst).gap
                   for inst in core.generated[:spec.core_count])
    fresh_gap = min(
        oracle.solve_instance(inst).gap
        for seed in range(1, 11)
        for inst in build_suite(spec, seed, BENCH / "out" / "reference" /
                                workload).generated[spec.core_count:])
    return core_gap, fresh_gap


def held_out_iterations(training_seed: int, suite, with_static: bool):
    work = WORKLOADS["train-agent"]
    config = agent.TrainerConfig(**{**TRAIN_CONFIG, "seed": training_seed})
    pairs = [(i.net, i.query) for i in suite.loaded[:work.demo_count]]
    result = agent.train(config, pairs, pairs)
    held_out = suite.loaded[work.demo_count:work.suite.core_count]
    budget = search.Budget(**run.VERIFY_BUDGET)
    strategies = [("agent", agent.AgentPolicy(result.qnet))]
    if with_static:
        strategies += [(s, s) for s in STATIC]
    return {name: sum(search.verify(i.net, i.query, strategy, budget,
                                    tighten=False).iterations
                      for i in held_out)
            for name, strategy in strategies}


def main() -> int:
    print("## Layer shares (self time / traced round wall time, seed 1)\n")
    for workload in WORKLOADS:
        rows, overhead = layer_shares(workload)
        print(f"### {workload} (tracing overhead {overhead:+.1f}%)\n")
        print("| layer | calls per round | share |\n|---|---:|---:|")
        for name, calls, share in rows:
            print(f"| `{name}` | {calls:.0f} | {100 * share:.1f}% |")
        print()

    print("## Oracle: smallest |MILP minimum - threshold|\n")
    print("| workload | core suite | fresh slices, seeds 1-10 |\n"
          "|---|---:|---:|")
    for workload in WORKLOADS:
        core_gap, fresh_gap = oracle_gaps(workload)
        print(f"| {workload} | {core_gap:.3g} | {fresh_gap:.3g} |")
    print()

    suite = build_suite(WORKLOADS["train-agent"].suite, SEED,
                        BENCH / "out" / "reference" / "train-agent")
    first = held_out_iterations(TRAIN_CONFIG["seed"], suite, True)
    print("## Held-out iterations on train-agent's core queries\n")
    print("| strategy | iterations |\n|---|---:|")
    for name, iters in first.items():
        print(f"| {name} | {iters} |")
    print("\n## Agent iterations by training seed\n")
    print("| training seed | agent iterations |\n|---|---:|")
    for seed in TRAINING_SEEDS:
        iters = first["agent"] if seed == TRAIN_CONFIG["seed"] else \
            held_out_iterations(seed, suite, False)["agent"]
        print(f"| {seed} | {iters} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
