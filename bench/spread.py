"""Seed-to-seed spread of the end-to-end metrics.

    python3 bench/spread.py --workloads verify-lp,verify-interval,train-agent \
        --seeds 1-10

Runs the BENCHMARK.json command once per (workload, seed), one process at a
time, and prints for every end-to-end metric its median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound. The raw results go to
``bench/out/spread-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10", type=seed_list)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=180)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        print(f"\n{workload}: metric median IQR/median bound")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            print(f"  {name:14s} {med:12.4f} {spread:8.4f} {bound:5.2f}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(shares)}\n", flush=True)
        report[workload] = runs
    name = args.workloads.replace(",", "_")
    out_path = BENCH / "out" / f"spread-{name}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
