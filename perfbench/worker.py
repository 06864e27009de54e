"""One workload in one fresh interpreter; started by ``run.py``.

Closed loop, one client, single thread: each op calls ``autkit.cli.main``
in process with stdout captured, and the next op starts when it returns.
Outputs are checked after the timed phase, so checking costs no op time.

The machine this runs on is shared, and its speed for Python code drifts
by up to about 1.5x over minutes.  So after every op the worker times
``workloads.reference_work``, a fixed piece of pure-Python work, and the
end-to-end times are scaled to a machine on which that work takes
``REFERENCE_MS``: each op by the median reference time of the seven ops
around it, set-up by the median of five reference runs right after it.
The raw wall-clock figures are returned as well.

Prints ``progress <i>`` after each op, so that ``run.py`` can say how far
a killed run got, then one JSON line with its results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
MIN_OPS = 100  # p90 needs ten samples beyond it
REFERENCE_MS = 2.0
VERIFY_PHASES = (
    "build_graph",
    "phi_automorphisms",
    "homomorphism",
    "kernel",
    "image_order",
    "aut_search",
    "brute_force",
)
#: spans whose direct permutation products are the search's candidate automorphisms
SEARCH_ROOTS = ("search.automorphism_group", "search.canonical_form")


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    outcomes: list[tuple] = field(default_factory=list)  # (op index, results, report)
    wall: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def import_autkit():
    sys.path.insert(0, str(ROOT / "src"))
    import autkit
    import autkit.cli

    if Path(autkit.__file__).resolve().parent != ROOT / "src" / "autkit":
        raise SystemExit(f"imported autkit from {autkit.__file__}, not from this checkout")
    return autkit


def run_calls(cli, calls) -> list[workloads.CallResult]:
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                rc = f"{type(exc).__name__}: {exc}"
        results.append((rc, out.getvalue(), err.getvalue()))
    return results


def run_phase(cli, ops, cycle, seconds, min_ops, done, tracer=None) -> Phase:
    """Run ops round robin until ``seconds`` have passed and ``min_ops``
    are done, or twice ``seconds`` have passed; stop only between cycles."""
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        if i and i % cycle == 0:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_ops) or elapsed >= 2 * seconds:
                break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        t0, c0 = time.perf_counter(), time.process_time()
        results = run_calls(cli, op.calls)
        phase.latencies.append(time.perf_counter() - t0)
        phase.cpu.append(time.process_time() - c0)
        phase.references.append(reference_seconds())
        report = Path(op.report).read_text(encoding="ascii") if op.report else None
        phase.outcomes.append((i % len(ops), results, report))
        print(f"progress {done + i + 1}", flush=True)
        i += 1
    phase.wall = time.perf_counter() - start
    return phase


def reference_seconds() -> float:
    t0 = time.perf_counter()
    workloads.reference_work()
    return time.perf_counter() - t0


def check_phase(ops, phase: Phase) -> None:
    memo: dict = {}
    for idx, results, report in phase.outcomes:
        key = (idx, tuple(results), report)
        if key not in memo:
            memo[key] = ops[idx].check(results, report)
        if memo[key] is not None:
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(f"op {idx}: {memo[key]}")


def end_to_end(phase: Phase) -> tuple[dict[str, float], dict[str, float]]:
    """Scaled metrics, and the raw wall-clock ones for comparison."""
    n = len(phase.latencies)
    ok = n - phase.failed
    refs = phase.references
    scale = [REFERENCE_MS / 1000 / statistics.median(refs[max(0, i - 3):i + 4]) for i in range(n)]
    ms = [t * f * 1000 for t, f in zip(phase.latencies, scale)]
    raw_ms = [t * 1000 for t in phase.latencies]
    metrics = {
        "ops_per_s": ok / (sum(ms) / 1000),
        "op_p50_ms": workloads.percentile(ms, 50),
        "op_p90_ms": workloads.percentile(ms, 90),
        "cpu_ms_per_op": sum(c * f for c, f in zip(phase.cpu, scale)) * 1000 / n,
        "ok_ratio": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "ops_per_s": ok / phase.wall,
        "op_p50_ms": workloads.percentile(raw_ms, 50),
        "op_p90_ms": workloads.percentile(raw_ms, 90),
        "cpu_ms_per_op": sum(phase.cpu) * 1000 / n,
        "reference_ms": statistics.median(refs) * 1000,
    }
    return metrics, raw


def scaled_rate(phase: Phase) -> float:
    """Ops per second of wall time, scaled like the end-to-end times."""
    return len(phase.latencies) / phase.wall * statistics.median(phase.references) * 1000 / REFERENCE_MS


def per_layer(tracer: tracing.Tracer, base: Phase, traced: Phase) -> dict[str, float]:
    n = len(traced.latencies)
    totals, by_parent = tracer.aggregate()

    def calls(name):
        return totals.get(name, [0, 0, 0])[0] / n

    def ms(name, column=1):
        return totals.get(name, [0, 0, 0])[column] / n / 1e6

    kept = sum(by_parent["perms.schreier_sims", root] for root in SEARCH_ROOTS)
    tried = sum(tracer.counts["perms.Permutation.mul", root] for root in SEARCH_ROOTS)
    reports = [json.loads(r) for _, _, r in base.outcomes if r is not None]
    untraced_rate, traced_rate = scaled_rate(base), scaled_rate(traced)
    metrics = {
        "cli.main.self_ms_per_op": ms("cli.main", 2),
        "search.automorphism_group.self_ms_per_op": ms("search.automorphism_group", 2),
        "search.canonical_form.self_ms_per_op": ms("search.canonical_form", 2),
        "search.are_isomorphic.self_ms_per_op": ms("search.are_isomorphic", 2),
        "search.brute_force_automorphisms.ms_per_op": ms("search.brute_force_automorphisms"),
        "search.new_generator_ratio": kept / tried if tried else 0.0,
        "search.new_generators_per_op": kept / n,
        "search.candidate_automorphisms_per_op": tried / n,
        "perms.Permutation.mul.calls_per_op": sum(
            c for (name, _), c in tracer.counts.items() if name == "perms.Permutation.mul"
        ) / n,
        "verify.homomorphism_pairs": statistics.median(
            r["homomorphism_checked"] for r in reports
        ) if reports else 0,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate,
        "trace.traced_ops": n,
    }
    for name in (
        "perms.schreier_sims",
        "perms.BSGS.contains",
        "perms.closure",
        "graphs.permute_graph",
        "graphs.is_automorphism",
    ):
        metrics[f"{name}.calls_per_op"] = calls(name)
        metrics[f"{name}.ms_per_op"] = ms(name)
    metrics["graphs.graph6_decode.ms_per_op"] = ms("graphs.graph6_decode")
    for phase in VERIFY_PHASES:
        metrics[f"verify.phase.{phase}_ms"] = statistics.median(
            r["timings"].get(phase, 0.0) * 1000 for r in reports
        ) if reports else 0.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    args = parser.parse_args()

    autkit = import_autkit()
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        ready = time.time()
        # scale set-up by the machine's speed just after it
        setup_scale = REFERENCE_MS / 1000 / statistics.median(reference_seconds() for _ in range(5))
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0

        if args.trace == 0:
            phases = [run_phase(autkit.cli, wl.ops, wl.cycle, args.seconds, MIN_OPS, 0)]
            check_phase(wl.ops, phases[0])
            metrics, raw = end_to_end(phases[0])
        else:
            ops = wl.ops[:wl.trace_ops]
            base = run_phase(autkit.cli, ops, len(ops), args.seconds / 3, len(ops), 0)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, autkit)
            try:
                traced = run_phase(
                    autkit.cli, ops, len(ops), args.seconds * 2 / 3, len(ops),
                    len(base.latencies), tracer,
                )
            finally:
                restore()
            phases = [base, traced]
            for phase in phases:
                check_phase(ops, phase)
            tracer.dump(ROOT / "perfbench" / ".traces" / f"{args.workload}-seed{args.seed}.tsv")
            metrics, raw = per_layer(tracer, base, traced), {}

    print(json.dumps({
        "ready": ready,
        "setup_scale": setup_scale,
        "raw": raw,
        "attempted": sum(len(p.latencies) for p in phases),
        "failed": sum(p.failed for p in phases),
        "errors": [e for p in phases for e in p.errors],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
