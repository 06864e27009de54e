"""autkit benchmark: run one workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in a child interpreter under a
wall-clock limit and prints, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, from a
run in which the program's layers are wrapped in spans.

``setup_s`` is the time from starting a fresh interpreter until it is
ready for the first timed op: ``import autkit``, generating the graph6
inputs and the expected answers.  It is the median over the measuring
child and ``SETUP_PROBES`` children that stop after set-up, each scaled
to the reference machine speed as ``worker.py`` explains.  Raw wall-clock
figures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
TIME_LIMIT_S = 170  # the whole run, set-up probes included


class Overrun(Exception):
    def __init__(self, message: str, ops: int) -> None:
        super().__init__(message)
        self.ops = ops


def run_child(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start a worker; return its scaled set-up time and its result."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.time()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        done = sum(line.startswith("progress ") for line in out.splitlines())
        raise Overrun(
            f"{args.workload} overran the {TIME_LIMIT_S} s wall-clock limit after "
            f"{done} ops and was killed",
            done,
        ) from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    return (result["ready"] - spawned) * result["setup_scale"], result


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "autkit" / "__init__.py").is_file():
        print(f"error: no autkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [run_child(args, deadline, True)[0] for _ in range(SETUP_PROBES if not args.trace else 0)]
        setup, result = run_child(args, deadline, False)
    except Overrun as exc:
        print(f"error: {exc}", file=sys.stderr)
        # unchecked ops and the one cut short all count as failed
        print(json.dumps({"correct": False, "attempted": exc.ops + 1, "failed": exc.ops + 1, "metrics": {}}))
        return 1
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = dict(result["metrics"], setup_s=statistics.median(setups + [setup]))
    for error in result["errors"]:
        print(f"failed {error}", file=sys.stderr)
    print(f"{args.workload}: {result['attempted']} ops, {result['failed']} failed", file=sys.stderr)
    if result["raw"]:
        print("raw wall-clock: " + ", ".join(f"{k} {v:.4g}" for k, v in result["raw"].items()), file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
