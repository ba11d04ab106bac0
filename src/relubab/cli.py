"""Command-line interface.

Subcommands: verify (single query), bench (suite), train (agent),
oracle (brute force), report (aggregate + curve data), gen (random suite).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (SuiteInstance, aggregate, brute_force_verify,
                      cumulative_curve, gen_random_suite, load_instance,
                      make_strategy, read_records_csv, run_suite,
                      write_curve, write_summary)
from .heuristics import INITIAL_SPLIT_DEPTH, STATIC_STRATEGIES
from .model import Network, load_nnet
from .query import PropertyFormatError, load_robustness_manifest, \
    make_robustness_queries, parse_property
from .search import Budget, events_to_text, verify


def _add_search_args(p: argparse.ArgumentParser):
    p.add_argument("--timeout-s", type=float, default=3600.0)
    p.add_argument("--max-iterations", type=int, default=10 ** 9)
    p.add_argument("--no-tighten", action="store_true",
                   help="interval-only deduction (no LP bound tightening)")


def _add_query_args(p: argparse.ArgumentParser, net_required: bool):
    p.add_argument("--net", required=net_required)
    p.add_argument("--prop")
    p.add_argument("--robust-manifest")
    p.add_argument("--comparator", choices=("argmax", "argmin"),
                   default="argmax")
    p.add_argument("--normalize-inputs", action="store_true",
                   help="map manifest points through the NNet header's "
                        "input normalization before building queries")


def _unreadable(path, err: OSError) -> SystemExit:
    """The one-line exit for an input file that cannot be read."""
    return SystemExit(f"cannot read {path}: {err.strerror or err}")


def _read(path: str) -> str:
    """The text of an input file; one that cannot be read exits with a
    one-line message naming it."""
    try:
        return Path(path).read_text()
    except OSError as err:  # missing file, a directory, no permission
        raise _unreadable(path, err) from None


def _budget(args) -> Budget:
    """The search budget of --timeout-s and --max-iterations; a value that
    is not positive exits with a one-line message naming its option."""
    for option, value in (("--timeout-s", args.timeout_s),
                          ("--max-iterations", args.max_iterations)):
        if not value > 0:
            raise SystemExit(f"{option} must be positive, got {value}")
    return Budget(timeout_s=args.timeout_s,
                  max_iterations=args.max_iterations)


def _load_queries(args) -> tuple[Network, list]:
    """The --net network and its queries from --prop and --robust-manifest,
    shared by every command that takes --net so that all honour
    --normalize-inputs. A file that cannot be read, a malformed network, or
    a property or manifest that yields no valid query, exits with a
    one-line message."""
    try:
        net = load_nnet(_read(args.net))
    except ValueError as err:  # NNetFormatError, inconsistent layers
        raise SystemExit(f"cannot load {args.net}: {err}") from None
    if not (args.prop or args.robust_manifest):
        raise SystemExit("need --prop or --robust-manifest")
    queries = []
    try:
        if args.prop:
            text = _read(args.prop)
            queries.append(parse_property(text, net,
                                          label=Path(args.prop).stem))
        if args.robust_manifest:
            rows = load_robustness_manifest(_read(args.robust_manifest))
            for i, (x0, delta) in enumerate(rows):
                if args.normalize_inputs:
                    x0 = net.normalize_input(x0)
                queries.extend(make_robustness_queries(
                    net, x0, delta, comparator=args.comparator,
                    label=f"rob{i:04d}"))
            print(f"# comparator={args.comparator} ({len(rows)} points, "
                  f"{len(queries)} queries)")
    except ValueError as err:  # PropertyFormatError, TieError, bad network
        raise SystemExit(f"cannot build queries: {err}") from None
    return net, queries


def _witness_text(verdict) -> str:
    if verdict.witness is None:
        return ""
    return " witness=" + ",".join(f"{v:.9g}" for v in verdict.witness)


def cmd_verify(args) -> int:
    budget = _budget(args)
    net, queries = _load_queries(args)
    try:
        strategy = make_strategy(args.strategy, args.checkpoint)
    except ValueError as err:  # agent without a usable --checkpoint
        raise SystemExit(f"--strategy {args.strategy}: {err}") from None
    except OSError as err:  # a --checkpoint that cannot be read
        raise _unreadable(args.checkpoint, err) from None
    any_sat = False
    logs = []
    for query in queries:
        log = [] if args.log else None
        verdict = verify(net, query, strategy, budget,
                         tighten=not args.no_tighten, event_log=log)
        any_sat |= verdict.outcome == "SAT"
        print(f"{query.label} {verdict.outcome} "
              f"iterations={verdict.iterations} splits={verdict.splits} "
              f"time_ms={verdict.wall_time_ms:.1f}{_witness_text(verdict)}")
        if args.log:
            logs.append(f"# query {query.label}\n" + events_to_text(log))
            Path(args.log).write_text("".join(logs))
    if len(queries) > 1:
        print(f"group-verdict {'SAT' if any_sat else 'UNSAT/TIMEOUT'}")
    return 0


def cmd_oracle(args) -> int:
    net, queries = _load_queries(args)
    for query in queries:
        verdict = brute_force_verify(net, query)
        print(f"{query.label} {verdict.outcome} "
              f"patterns={verdict.iterations}{_witness_text(verdict)}")
    return 0


def _suite_instances(args) -> list[SuiteInstance]:
    instances = []
    if args.suite_dir:
        for net_path in sorted(Path(args.suite_dir).glob("*.nnet")):
            prop = net_path.with_suffix(".prop")
            if prop.exists():
                try:
                    instances.append(load_instance(net_path, prop))
                except PropertyFormatError as err:
                    raise SystemExit(f"cannot load {prop}: {err}") from None
                except ValueError as err:  # NNetFormatError, bad layers
                    raise SystemExit(f"cannot load {net_path}: {err}") from None
    if args.net:
        net, queries = _load_queries(args)
        instances.extend(SuiteInstance(query_id=q.label, net=net, query=q)
                         for q in queries)
    if not instances:
        raise SystemExit("no instances (use --suite-dir, or --net with "
                         "--prop/--robust-manifest)")
    return instances


def cmd_bench(args) -> int:
    budget = replace(_budget(args), seed=args.seed)
    instances = _suite_instances(args)
    try:
        records = run_suite(instances, args.strategies.split(","), budget,
                            args.out, args.checkpoint,
                            tighten=not args.no_tighten)
    except ValueError as err:  # raised before any job or output file
        raise SystemExit(f"--strategies {args.strategies}: {err}") from None
    except OSError as err:
        # the checkpoint is read before any job; other files are not inputs
        if err.filename is None or args.checkpoint is None \
                or Path(err.filename) != Path(args.checkpoint):
            raise
        raise _unreadable(args.checkpoint, err) from None
    for summary in aggregate(records, args.timeout_s * 1000.0):
        print(f"{summary.strategy}: SAT={summary.sats} UNSAT={summary.unsats} "
              f"TIMEOUT={summary.timeouts} ERROR={summary.errors} "
              f"avg_time_ms={summary.avg_time_ms:.1f} "
              f"avg_iterations={summary.avg_iterations:.1f} "
              f"(over {summary.common_queries} common)")
    return 0


def cmd_train(args) -> int:
    from .agent import TrainerConfig, generate_demonstrations, train
    budget = _budget(args)
    instances = _suite_instances(args)
    pairs = [(inst.net, inst.query) for inst in instances]
    n_demo = max(1, round(args.demo_fraction * len(pairs)))
    config = TrainerConfig(
        seed=args.seed, demo_epochs=args.demo_epochs,
        demo_steps=args.demo_steps, finetune_epochs=args.finetune_epochs,
        finetune_steps=args.finetune_steps,
        run_timeout_s=budget.timeout_s,
        run_max_iterations=budget.max_iterations,
        tighten=not args.no_tighten)
    demos, _ = generate_demonstrations(pairs[:n_demo], budget,
                                       tighten=config.tighten)
    if not demos:
        raise SystemExit(
            f"no demonstration transitions were produced from the first "
            f"{n_demo} of {len(pairs)} queries (an expert must solve one "
            f"with a split deeper than depth {INITIAL_SPLIT_DEPTH}); "
            f"raise --demo-fraction")
    # the trainer's per-epoch progress lines go to stdout for this command
    progress = logging.getLogger("relubab.train")
    handler = logging.StreamHandler(sys.stdout)
    level = progress.level
    progress.addHandler(handler)
    progress.setLevel(logging.INFO)
    try:
        result = train(config, [], pairs[n_demo:], checkpoint_dir=args.out,
                       demo_transitions=demos)
    finally:
        progress.removeHandler(handler)
        progress.setLevel(level)
    print(f"trained: {len(result.loss_trace)} gradient steps, "
          f"{result.episodes} self-play episodes, "
          f"{result.demo_transitions} demo transitions")
    if result.checkpoint_paths:
        print(f"final checkpoint: {result.checkpoint_paths[-1]}")
    return 0


def cmd_report(args) -> int:
    try:
        records = read_records_csv(args.records)
    except OSError as err:
        raise _unreadable(args.records, err) from None
    except KeyError as err:
        raise SystemExit(f"cannot read {args.records}: no {err} column") \
            from None
    except ValueError as err:  # a value that does not parse
        raise SystemExit(f"cannot read {args.records}: {err}") from None
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
    for size in ("inputs", "relus"):
        low, high = getattr(args, f"min_{size}"), getattr(args, f"max_{size}")
        if low < 1:
            raise SystemExit(f"--min-{size} must be at least 1, got {low}")
        if low > high:
            raise SystemExit(f"--min-{size} {low} is above --max-{size} "
                             f"{high}")
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
    _add_query_args(p, net_required=True)
    p.add_argument("--strategy", choices=STATIC_STRATEGIES + ("agent",),
                   default="babsr")
    p.add_argument("--checkpoint")
    p.add_argument("--log", help="write the event log here, each query's "
                   "headed by a '# query <label>' line")
    _add_search_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    _add_query_args(p, net_required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a suite of queries")
    p.add_argument("--suite-dir", help="directory of paired .nnet/.prop files")
    _add_query_args(p, net_required=False)
    p.add_argument("--strategies", default=",".join(STATIC_STRATEGIES),
                   help="comma-separated names from "
                        f"{', '.join(STATIC_STRATEGIES + ('agent',))}")
    p.add_argument("--checkpoint")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0, help="records' seed label")
    _add_search_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train the splitting agent")
    p.add_argument("--suite-dir")
    _add_query_args(p, net_required=False)
    p.add_argument("--demo-fraction", type=float, default=0.05)
    p.add_argument("--demo-epochs", type=int, default=5)
    p.add_argument("--demo-steps", type=int, default=1000)
    p.add_argument("--finetune-epochs", type=int, default=40)
    p.add_argument("--finetune-steps", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="training's seed")
    _add_search_args(p)
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
