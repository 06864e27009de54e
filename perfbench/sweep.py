"""Run the benchmark over several seeds and summarise every metric.

This is how ``baseline.json`` was made; later changes quote their before
and after numbers from it.

    python3 perfbench/sweep.py [--seeds 10] [--first-seed 1] [--workload NAME ...]
                               [--out perfbench/baseline.json]

For each workload: ``--seeds`` untraced runs, one seed each, then one
traced run.  Each end-to-end metric is summarised by its median (``value``), its
quartiles (``statistics.quantiles(values, n=4)``) and its spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Per-layer metrics come from the
traced run with the first seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} gave wrong outputs:\n{proc.stderr}")
    return result


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "run_seconds": declared["run_seconds"],
        "seeds": seeds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        attempted = []
        for seed in seeds:
            result = run(workload, seed, declared["run_seconds"], 0)
            attempted.append(result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            end_to_end[name] = {
                "value": median, "unit": units[name], "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }
            print(f"{workload:20} {name:14} median {median:10.4f}  spread {spread:.4f}"
                  f"  (bound {bounds[name]})", file=sys.stderr)
        traced = run(workload, seeds[0], declared["run_seconds"], 1)
        summary["workloads"][workload] = {
            "ops_per_run": attempted,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
