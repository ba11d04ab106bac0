"""Command-line interface.

Subcommands: verify (single query), bench (suite), train (agent),
oracle (brute force), report (aggregate + curve data), gen (random suite).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import (SuiteConfig, SuiteInstance, _strategy_object,
                      aggregate, brute_force_verify, cumulative_curve,
                      gen_random_suite, load_instance, read_records_csv,
                      run_suite, write_curve, write_summary)
from .model import load_nnet
from .query import load_robustness_manifest, make_robustness_queries, \
    parse_property
from .search import Budget, events_to_text, verify

STRATEGY_CHOICES = ("soi", "polarity", "pseudo-impact", "babsr", "agent")


def _budget(args) -> Budget:
    return Budget(timeout_s=args.timeout_s,
                  max_iterations=args.max_iterations, seed=args.seed)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--timeout-s", type=float, default=3600.0)
    p.add_argument("--max-iterations", type=int, default=10 ** 9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-tighten", action="store_true",
                   help="interval-only deduction (no LP bound tightening)")
    p.add_argument("--normalize-inputs", action="store_true",
                   help="map manifest points through the NNet header's "
                        "input normalization before building queries")


def _load_queries(args, net):
    """Queries on ``net`` from --prop and --robust-manifest, shared by every
    command that takes --net so that all honour --normalize-inputs."""
    if not (args.prop or args.robust_manifest):
        raise SystemExit("need --prop or --robust-manifest")
    queries = []
    if args.prop:
        text = Path(args.prop).read_text()
        queries.append(parse_property(text, net, label=Path(args.prop).stem))
    if args.robust_manifest:
        rows = load_robustness_manifest(Path(args.robust_manifest).read_text())
        for i, (x0, delta) in enumerate(rows):
            if args.normalize_inputs:
                x0 = net.normalize_input(x0)
            queries.extend(make_robustness_queries(
                net, x0, delta, comparator=args.comparator,
                label=f"rob{i:04d}"))
        print(f"# comparator={args.comparator} ({len(rows)} points, "
              f"{len(queries)} queries)")
    return queries


def cmd_verify(args) -> int:
    net = load_nnet(Path(args.net).read_text())
    queries = _load_queries(args, net)
    try:
        strategy = _strategy_object(args.strategy, args.checkpoint)
    except ValueError as err:  # agent without a usable --checkpoint
        raise SystemExit(f"--strategy {args.strategy}: {err}") from None
    any_sat = False
    for query in queries:
        log = [] if args.log else None
        verdict = verify(net, query, strategy, _budget(args),
                         tighten=not args.no_tighten, event_log=log)
        any_sat |= verdict.outcome == "SAT"
        witness = ""
        if verdict.witness is not None:
            witness = " witness=" + ",".join(f"{v:.9g}"
                                             for v in verdict.witness)
        print(f"{query.label} {verdict.outcome} "
              f"iterations={verdict.iterations} splits={verdict.splits} "
              f"time_ms={verdict.wall_time_ms:.1f}{witness}")
        if args.log:
            Path(args.log).write_text(events_to_text(log))
    if len(queries) > 1:
        print(f"group-verdict {'SAT' if any_sat else 'UNSAT/TIMEOUT'}")
    return 0


def cmd_oracle(args) -> int:
    net = load_nnet(Path(args.net).read_text())
    for query in _load_queries(args, net):
        verdict = brute_force_verify(net, query)
        witness = ""
        if verdict.witness is not None:
            witness = " witness=" + ",".join(f"{v:.9g}"
                                             for v in verdict.witness)
        print(f"{query.label} {verdict.outcome} "
              f"patterns={verdict.iterations}{witness}")
    return 0


def _suite_instances(args) -> list[SuiteInstance]:
    instances = []
    if args.suite_dir:
        for net_path in sorted(Path(args.suite_dir).glob("*.nnet")):
            prop = net_path.with_suffix(".prop")
            if prop.exists():
                instances.append(load_instance(net_path, prop))
    if args.net:
        net = load_nnet(Path(args.net).read_text())
        instances.extend(SuiteInstance(query_id=q.label, net=net, query=q)
                         for q in _load_queries(args, net))
    if not instances:
        raise SystemExit("no instances (use --suite-dir, or --net with "
                         "--prop/--robust-manifest)")
    return instances


def cmd_bench(args) -> int:
    instances = _suite_instances(args)
    config = SuiteConfig(
        instances=instances,
        strategies=list(args.strategies.split(",")),
        budget=_budget(args), workers=args.workers,
        out_dir=Path(args.out) if args.out else None,
        checkpoint=args.checkpoint, tighten=not args.no_tighten)
    records = run_suite(config)
    for summary in aggregate(records, args.timeout_s * 1000.0):
        print(f"{summary.strategy}: SAT={summary.sats} UNSAT={summary.unsats} "
              f"TIMEOUT={summary.timeouts} ERROR={summary.errors} "
              f"avg_time_ms={summary.avg_time_ms:.1f} "
              f"avg_iterations={summary.avg_iterations:.1f} "
              f"(over {summary.common_queries} common)")
    return 0


def cmd_train(args) -> int:
    from .agent import TrainerConfig, train
    instances = _suite_instances(args)
    pairs = [(inst.net, inst.query) for inst in instances]
    n_demo = max(1, round(args.demo_fraction * len(pairs)))
    config = TrainerConfig(
        seed=args.seed, demo_epochs=args.demo_epochs,
        demo_steps=args.demo_steps, finetune_epochs=args.finetune_epochs,
        finetune_steps=args.finetune_steps,
        run_timeout_s=args.timeout_s, run_max_iterations=args.max_iterations,
        tighten=not args.no_tighten)
    result = train(config, pairs[:n_demo], pairs[n_demo:],
                   checkpoint_dir=args.out)
    print(f"trained: {len(result.loss_trace)} gradient steps, "
          f"{result.episodes} self-play episodes, "
          f"{result.demo_transitions} demo transitions")
    if result.checkpoint_paths:
        print(f"final checkpoint: {result.checkpoint_paths[-1]}")
    return 0


def cmd_report(args) -> int:
    records = read_records_csv(args.records)
    summaries = aggregate(records, args.budget_ms)
    out = Path(args.out) if args.out else Path(args.records).parent
    out.mkdir(parents=True, exist_ok=True)
    write_summary(out / "summary.csv", summaries)
    for summary in summaries:
        curve = cumulative_curve(records, summary.strategy)
        write_curve(out / f"curve_{summary.strategy}.csv", curve)
        print(f"{summary.strategy}: SAT={summary.sats} "
              f"UNSAT={summary.unsats} TIMEOUT={summary.timeouts} "
              f"avg_time_ms={summary.avg_time_ms:.1f} "
              f"avg_iterations={summary.avg_iterations:.1f}")
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_gen(args) -> int:
    instances = gen_random_suite(seed=args.seed, count=args.count,
                                 out_dir=args.out,
                                 n_inputs=(args.min_inputs, args.max_inputs),
                                 n_relus=(args.min_relus, args.max_relus))
    print(f"wrote {len(instances)} instances to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relubab",
        description="Branch-and-bound ReLU network verifier with "
                    "hand-crafted and learned splitting heuristics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a single query")
    p.add_argument("--net", required=True)
    p.add_argument("--prop")
    p.add_argument("--robust-manifest")
    p.add_argument("--comparator", choices=("argmax", "argmin"),
                   default="argmax")
    p.add_argument("--strategy", choices=STRATEGY_CHOICES, default="babsr")
    p.add_argument("--checkpoint")
    p.add_argument("--log", help="write the event log here")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    p.add_argument("--net", required=True)
    p.add_argument("--prop")
    p.add_argument("--robust-manifest")
    p.add_argument("--comparator", choices=("argmax", "argmin"),
                   default="argmax")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a suite of queries")
    p.add_argument("--suite-dir", help="directory of paired .nnet/.prop files")
    p.add_argument("--net")
    p.add_argument("--prop")
    p.add_argument("--robust-manifest")
    p.add_argument("--comparator", choices=("argmax", "argmin"),
                   default="argmax")
    p.add_argument("--strategies", default="soi,polarity,pseudo-impact,babsr")
    p.add_argument("--checkpoint")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train the splitting agent")
    p.add_argument("--suite-dir")
    p.add_argument("--net")
    p.add_argument("--prop")
    p.add_argument("--robust-manifest")
    p.add_argument("--comparator", choices=("argmax", "argmin"),
                   default="argmax")
    p.add_argument("--demo-fraction", type=float, default=0.05)
    p.add_argument("--demo-epochs", type=int, default=5)
    p.add_argument("--demo-steps", type=int, default=1000)
    p.add_argument("--finetune-epochs", type=int, default=40)
    p.add_argument("--finetune-steps", type=int, default=1000)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="aggregate a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--budget-ms", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen", help="generate a random benchmark suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--min-inputs", type=int, default=2)
    p.add_argument("--max-inputs", type=int, default=5)
    p.add_argument("--min-relus", type=int, default=6)
    p.add_argument("--max-relus", type=int, default=12)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
