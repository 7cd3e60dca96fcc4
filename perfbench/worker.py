"""One workload in a fresh interpreter; started by run.py, not by hand.

run.py starts it with the BLAS and OpenMP pools pinned to one thread.  The
worker makes the workload's inputs, signals "ready" on ``--ready-fd``
(run.py times set-up up to that signal) and, unless ``--setup-only``,
measures and writes ``result.json`` into ``--work``.

Untraced, it repeats whole operations for as long as ``--seconds`` allows
(at least the workload's MIN_OPS).  Traced, it reports the per-layer
metrics of traced operations and the tracing overhead against untraced
ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import environment  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PAIRS = 2


def measure(workload, seconds: float) -> list:
    """Whole operations while the next one is expected to fit in the
    window, and at least the workload's MIN_OPS."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(workload.run_op())
        elapsed = time.perf_counter() - start
        if len(ops) >= workload.MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > seconds:
            return ops


def measure_traced(workload, trace_dir: Path, seed: int):
    """A warm-up operation, then PAIRS pairs of an untraced and a traced one.

    The first operation in a process runs slower (fresh heap pages), so it
    is kept out of the comparison.  The per-layer metrics are the mean over
    the traced operations.  The untraced ones record only their epoch
    boundaries (one span per epoch), which gives the per-epoch wall time
    the traced epoch split is checked against."""
    ops = [workload.run_op()]
    summaries, clocks, traced_spans = [], [], []
    for pair in range(PAIRS):
        clock = tracer.Tracer(epochs_only=True)
        with clock:
            ops.append(workload.run_op())
        clocks.append(tracer.epoch_split(clock.spans))
        spans = tracer.Tracer()
        spans.run_id = f"{workload.name}/seed{seed}/op{pair}"
        with spans:
            ops.append(workload.run_op())
        summaries.append(spans.summary())
        traced_spans += spans.spans
    untraced, traced = ops[1::2], ops[2::2]
    metrics = {k: statistics.fmean(s[k] for s in summaries) for k in summaries[0]}
    overheads = [t.wall_s - u.wall_s for t, u in zip(traced, untraced)]
    metrics.update({"trace.wall_s": statistics.fmean(op.wall_s for op in traced),
                    "trace.untraced_wall_s": statistics.fmean(op.wall_s for op in untraced),
                    "trace.overhead_s": statistics.fmean(overheads)})
    metrics.update(tracer.epoch_check(
        [s["experiments.epoch.wall_ms"] for s in summaries],
        [1e3 * c["wall"] / c["epochs"] if c["epochs"] else 0.0 for c in clocks],
        [1e3 * o / c["epochs"] if c["epochs"] else 0.0 for o, c in zip(overheads, clocks)]))
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(traced_spans, trace_dir / f"{workload.name}-seed{seed}.jsonl")
    return ops, metrics


def peak_rss_mb(ops) -> float:
    """The largest peak RSS of an operation that ran in its own processes;
    otherwise the peak RSS of this process plus that of its largest child,
    once every child (the sweep's pool workers) has ended and been reaped."""
    own = [op.peak_rss_mb for op in ops if op.peak_rss_mb is not None]
    if own:
        return max(own)
    gc.collect()
    deadline = time.monotonic() + 30
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="scratch directory of this run")
    p.add_argument("--ready-fd", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](str(work), args.seed, bool(args.trace))
    workload.setup()
    os.write(args.ready_fd, b"ready\n")
    os.close(args.ready_fd)
    if args.setup_only:
        return 0

    if args.trace:
        ops, per_layer = measure_traced(workload, work.parent / "traces", args.seed)
    else:
        ops, per_layer = measure(workload, args.seconds), None
    result = {
        "ops": [{k: v for k, v in asdict(op).items() if k != "observed"} for op in ops],
        "per_layer": per_layer,
        "reference": workload.reference is not None,
        "peak_rss_mb": peak_rss_mb(ops),
        "environment": environment.environment(),
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
