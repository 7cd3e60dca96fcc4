"""magsim benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-supra-20k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(perfbench/worker.py) with the BLAS and OpenMP pools pinned to one thread.
``--trace 0`` sets the workload up SETUPS times (set-up is timed from
process start until the inputs are ready) and measures it untraced for
``--seconds``; ``--trace 1`` reports the per-layer metrics of traced
operations, each paired with an untraced one.  See perfbench/README.md.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report and the environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from environment import THREAD_VARS
from tracer import PER_LAYER, epoch_split_agrees

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train-supra-20k", "sweep-2k", "data-200k")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUPS = 11
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(argv, work: Path, deadline: float) -> float:
    """Start a worker, wait for it to end, and return its set-up seconds:
    from process start until it signals that its inputs are ready."""
    read_fd, write_fd = os.pipe()
    log = open(work / "worker.log", "ab")
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *argv, "--ready-fd", str(write_fd)],
            cwd=ROOT, env=child_env(), pass_fds=(write_fd,), stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True)
    finally:
        os.close(write_fd)
        log.close()
    try:
        with os.fdopen(read_fd, "rb") as ready:
            if not select.select([ready], [], [], max(0.0, deadline - time.monotonic()))[0]:
                raise BenchError("set-up did not finish in time")
            signalled = ready.readline() == b"ready\n"
            setup_s = time.perf_counter() - start
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker stopped: {exc}") from None
    if code != 0 or not signalled:
        raise BenchError(f"worker exited with {code}:\n"
                         + (work / "worker.log").read_text(errors="replace")[-4000:])
    return setup_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "magsim" / "__init__.py").is_file():
        print(f"perfbench: no magsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work", str(work)]
    try:
        setups = [run_worker(worker_argv + ["--setup-only"], work, deadline)
                  for _ in range(0 if args.trace else SETUPS - 1)]
        setups.append(run_worker(worker_argv, work, deadline))
        with open(work / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    report = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median([op["wall_s"] for op in ops]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_frac": (failed / attempted, "1"),
    }
    if any(op["epochs"] for op in ops):
        rates = [op["epochs"] / op["wall_s"] for op in ops]
        report["epochs_per_s"] = (statistics.median(rates), "1/s")
    for phase in ("gen_s", "load_s"):
        if any(phase in op["phases"] for op in ops):
            report[phase] = (statistics.median([op["phases"][phase] for op in ops]), "s")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(ops)} "
          f"operations, {attempted} attempted, {failed} failed, reference "
          f"{'checked' if result['reference'] else 'not recorded for this seed'}")
    for name, (value, unit) in report.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    print("  set-ups (s): " + " ".join(f"{s:.4g}" for s in setups))
    print("  operations (s): " + " ".join(f"{op['wall_s']:.4g}" for op in ops))
    for problem in sorted({p for op in ops for p in op["problems"]}):
        print(f"  problem: {problem}")
    if args.trace:
        layer = result["per_layer"]
        for name, unit in PER_LAYER:
            print(f"  {name:<38} {layer[name]:.6g} {unit}")
        if layer["experiments.epochs"]:
            verdict = "agrees" if epoch_split_agrees(layer) else "DOES NOT agree"
            print(f"  epoch split {verdict} with the untraced epochs: gap "
                  f"{layer['trace.epoch_gap_ms']:.4g} ms/epoch, tracing overhead "
                  f"{layer['trace.epoch_overhead_ms']:.4g} ms/epoch, variation between "
                  f"untraced operations {layer['trace.epoch_noise_ms']:.4g} ms/epoch")
    print("environment " + json.dumps(result["environment"], sort_keys=True))

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": report[name][0], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
