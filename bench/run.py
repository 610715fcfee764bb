"""Benchmark of the coarsegraph package: one workload per process.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all    # each workload in its own process

The load is a closed loop with one client and no threads: each operation is
sent when the previous one has returned.  The operation list is fixed by the
workload, the seed and ``--seconds`` (whole passes over the same inputs, see
``workloads.PASS_SECONDS``), so a faster commit runs the same operations in
less time and every percentile rests on the same sample count.

With ``--trace 0`` the run reports the end-to-end metrics.  Every time is
scaled to the machine's reference speed (see ``speed``), and the throughput
and percentiles are taken over every operation of the run.
With ``--trace 1`` each operation runs once untraced and once with every
function of ``tracing.TRACED`` wrapped; the run reports the per-layer metrics
and writes the spans under ``.bench_out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("corpus", "planar-scale", "toolbox")
DEFAULT_SEED = 20240817        # coarsegraph.corpus.DEFAULT_SEED (a test checks they agree)
SETUP_PROBES = 6               # extra set-ups, each in a fresh interpreter
TIME_CAP_S = 150.0             # operations not started by then count as failed
MIN_BEYOND_TAIL = 10

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_package() -> None:
    """Import coarsegraph from this checkout's sources, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "coarsegraph", "__init__.py")):
        raise SystemExit(f"no coarsegraph sources under {SRC}")
    sys.path[:0] = [p for p in (SRC, BENCH_DIR) if p not in sys.path]
    import coarsegraph
    if os.path.dirname(os.path.dirname(os.path.abspath(coarsegraph.__file__))) != SRC:
        raise SystemExit(f"coarsegraph was imported from {coarsegraph.__file__}, not from {SRC}")


def setup(workload: str, seed: int, seconds: float):
    """Import the package and generate the operations.

    Returns the elapsed seconds, scaled to the reference speed, and the
    operations.
    """
    before = speed.chunk_seconds()
    t0 = time.perf_counter()
    import_package()
    import workloads
    ops = workloads.make_ops(workload, seed, seconds)
    elapsed = time.perf_counter() - t0
    return elapsed * speed.REFERENCE_S / ((before + speed.chunk_seconds()) / 2), ops


def print_setup_seconds(workload: str, seed: int, seconds: float) -> None:
    """Entry point of a set-up probe in a fresh interpreter."""
    print(repr(setup(workload, seed, seconds)[0]))


def _probe_setup(workload: str, seed: int, seconds: float) -> float:
    code = (f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import run; "
            f"run.print_setup_seconds({workload!r}, {seed!r}, {seconds!r})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _run_op(op, tracer=None, i: int = -1) -> tuple[float, str | None]:
    """One timed call, traced when a tracer is given; (latency s, failure)."""
    reason = None
    if tracer is not None:
        tracer.install()
        tracer.open_op(i)
    try:
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            reason = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close_op(t0, t1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as exc:  # an answer the check cannot read is wrong
            reason = f"check raised {type(exc).__name__}: {exc}"
    return t1 - t0, reason


def measure(ops, deadline: float, tracer=None):
    """Run every operation in order.

    Returns (latencies, scales, traced, failures): the untraced latencies in
    seconds, the speed scale of each (see ``speed``), the traced latencies,
    and the failure reasons.  With a tracer each operation runs twice,
    untraced and traced, the order alternating, so warm-up and drift weigh
    on both sides alike.
    """
    latencies: list[float] = []
    chunk_index: list[int] = []
    traced: list[float] = []
    failures: Counter = Counter()
    timeline = speed.Timeline()
    for i, op in enumerate(ops):
        if time.perf_counter() > deadline:
            failures["time cap reached before the operation ran"] += (len(ops) - i) * (1 if tracer is None else 2)
            break
        chunk_index.append(timeline.tick())
        if tracer is None:
            variants = (None,)
        else:
            variants = (None, tracer) if i % 2 == 0 else (tracer, None)
        for variant in variants:
            lat, reason = _run_op(op, variant, i)
            (latencies if variant is None else traced).append(lat)
            if reason:
                failures[f"{op.kind}: {reason}"] += 1
    timeline.close()
    return latencies, [timeline.scale(c) for c in chunk_index], traced, failures


def tail_rank(n: int) -> int:
    """Nearest rank (1-based) of the highest percentile of n samples with at
    least MIN_BEYOND_TAIL samples beyond it; never below the median."""
    return max(n - MIN_BEYOND_TAIL, (n + 1) // 2)


def end_to_end(latencies: list[float], setup_s: float) -> tuple[dict, int]:
    """The end-to-end metrics from every operation's latency; and the tail rank."""
    ordered = sorted(latencies)
    rank = tail_rank(len(ordered))
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": len(ordered) / sum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[rank - 1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, rank


def _versions() -> str:
    import networkx
    return (f"python {platform.python_version()}  networkx {networkx.__version__}  "
            f"nproc {os.cpu_count()}  {platform.machine()}")


def _print_kinds(ops, latencies) -> None:
    by_kind = defaultdict(list)
    for op, lat in zip(ops, latencies):
        by_kind[op.kind].append(lat)
    whole = sum(latencies)
    for kind in sorted(by_kind, key=lambda k: statistics.median(by_kind[k])):
        lats = by_kind[kind]
        print(f"  {kind:<12} {len(lats):>6} ops  median {statistics.median(lats) * 1e3:10.3f} ms  "
              f"total {sum(lats):8.3f} s  share {sum(lats) / whole:.3f}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 limit: int | None = None, setup_probes: int = SETUP_PROBES) -> dict:
    """One run; prints a summary and returns the result object.

    ``limit`` keeps only the first operations, for the benchmark's own tests.
    """
    started = time.perf_counter()
    deadline = started + TIME_CAP_S
    if trace:
        import_package()
        import tracing
        import workloads
        tracer = tracing.Tracer()
        with tracer.installed():
            ops = workloads.make_ops(workload, seed, seconds)[:limit]
        untraced, _, traced, failures = measure(ops, deadline, tracer)
        attempted = 2 * len(ops)
        metrics = tracing.layer_metrics(tracer, ops, sum(untraced), sum(traced))
        units = dict(tracing.PER_LAYER)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.csv.gz")
        tracer.write(span_file)
    else:
        setup_s, ops = setup(workload, seed, seconds)
        ops = ops[:limit]
        raw, scales, _, failures = measure(ops, deadline)
        latencies = [lat * scale for lat, scale in zip(raw, scales)]
        attempted = len(ops)
        probes = [_probe_setup(workload, seed, seconds) for _ in range(setup_probes)]
        metrics, rank = end_to_end(latencies, statistics.median([setup_s] + probes))
        units = dict(END_TO_END)
    failed = sum(failures.values())

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  ops {len(ops)}  "
          f"wall {time.perf_counter() - started:.1f} s")
    print(f"  {_versions()}")
    if trace:
        print(f"  spans {len(tracer.span_name)} written to {os.path.relpath(span_file, ROOT)}")
        print(f"  peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
        print(f"  ratio bases: {sum(op.vertices for op in ops)} host vertices and "
              f"{sum(op.parts for op in ops)} outer parts over the pipeline operations")
        _print_kinds(ops, traced)
        for entry in tracing.LAYER_MAP:
            for name, workloads_ in entry.get("zero_calls_on", {}).items():
                if workload in workloads_:
                    calls = metrics[f"{name}.calls"]
                    print(f"  predicted 0 calls of {name} on {workload}: {calls} "
                          f"({'holds' if calls == 0 else 'DOES NOT HOLD'})")
    else:
        _print_kinds(ops, latencies)
        print(f"  times are scaled to the reference speed by {statistics.median(scales):.4f} "
              f"(median; raw throughput {len(raw) / sum(raw):.6g} ops/s)")
        print(f"  latency_tail_ms is p{100 * rank / len(latencies):.4g} of {len(latencies)} operations "
              f"({len(latencies) - rank} beyond it)")
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for reason, count in failures.most_common(10):
        print(f"    {count} x {reason}")
    for name, value in metrics.items():
        print(f"  {name} {value if isinstance(value, int) else format(value, '.6g')} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
