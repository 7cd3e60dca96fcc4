"""The benchmark's three workloads.

Each workload is a closed loop with one caller: ``setup`` makes its inputs
from the seed (untimed), ``run_op`` performs one operation, times it and
checks its output.  An operation's failures are counted against the
operations it attempted: a training run, a sweep cell, a ``gen`` or a
``load``.

Outputs are checked three ways: against properties that hold for any seed,
against the first operation of the same run (every command is meant to be
byte-reproducible), and against ``reference.json`` when it holds the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import dataop
from magsim import cli, experiments, graph

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The README dataset family; each workload sets its own node count and seed.
SYNTHETIC = {
    "num_classes": 4,
    "modalities": [
        {"name": "text", "dim": 16, "signal_norm": 1.0, "noise_var": 0.2},
        {"name": "visual", "dim": 16, "signal_norm": 1.0, "noise_var": 0.8},
    ],
    "homophily": 0.8,
    "mean_degree": 10,
}

# Supra, full variant, with the auxiliary losses on.  Patience equals
# max_epochs, so every training run does exactly EPOCHS epochs.
TRAIN = {"kind": "supra", "supra_variant": "full", "lambda_aux": 0.7,
         "hidden": 64, "num_layers": 2, "alpha": 0.5}

# Epochs of every training run, in both training workloads.  Under the
# README config (max_epochs 200, patience 40) early stopping ended runs
# after 49-200 epochs (median 90) on 36 cells of the 2k sweep grid and
# after 66 and 69 on the 20k graph, never before patience + 1 = 41.  A
# traced run (a warm-up and two traced/untraced pairs: five operations)
# must finish within the 180 s a run may take; at the slowest 20k epoch
# seen (0.83 s) that is about 125 s at 30 epochs and 170 s at 40.
EPOCHS = 30

# Tolerances against the recorded reference.  They admit the last-digit
# drift of a reordered float sum but not a change of the model or the data.
LOSS_RTOL = 1e-6
ACC_ATOL = 0.01

SWEEP_COLUMNS = ["scale", "kind", "seed", "acc", "f1"]

CHILD_TIMEOUT_S = 170


@dataclass
class Op:
    """One operation's timing and outcome."""
    wall_s: float
    attempted: int
    failed: int
    epochs: int = 0
    phases: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    peak_rss_mb: float | None = None   # set when the operation ran in its own process
    observed: object = None


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def synthetic(num_nodes: int, seed: int) -> dict:
    return {"num_nodes": num_nodes, **SYNTHETIC, "seed": seed}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


class Workload:
    name = ""
    MIN_OPS = 1        # operations per untraced run, even past --seconds

    def __init__(self, work_dir: str, seed: int, traced: bool = False, reference=None):
        self.work_dir = work_dir
        self.seed = seed
        self.traced = traced
        self.reference = (load_reference() if reference is None else reference) \
            .get(self.name, {}).get(str(seed))
        self.first = None          # observed output of the run's first operation

    def setup(self):
        raise NotImplementedError

    def run_op(self) -> Op:
        raise NotImplementedError


class TrainSupra(Workload):
    """experiments.train of supra on a generated 20k-node graph."""
    name = "train-supra-20k"
    NUM_NODES = 20_000

    def setup(self):
        spec = cli.synthetic_spec({"synthetic": synthetic(self.NUM_NODES, self.seed)})
        self.mag = graph.generate(spec)
        self.cfg = experiments.TrainConfig(**TRAIN, max_epochs=EPOCHS,
                                           patience=EPOCHS, seed=self.seed)

    def run_op(self) -> Op:
        start = time.perf_counter()
        try:
            report = experiments.train(self.mag, self.cfg)
        except Exception as exc:            # counted as a failed training run
            return Op(time.perf_counter() - start, 1, 1, problems=[dataop.error_text(exc)])
        wall = time.perf_counter() - start
        observed = {"loss_total": [e["loss_total"] for e in report.epochs],
                    "test_acc": report.test_acc}
        problems = self.check(observed)
        return Op(wall, 1, int(bool(problems)), epochs=len(report.epochs),
                  problems=problems, observed=observed)

    def check(self, observed) -> list:
        losses, acc = observed["loss_total"], observed["test_acc"]
        problems = []
        if len(losses) != EPOCHS:
            problems.append(f"{len(losses)} epochs, expected {EPOCHS}")
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite loss")
        elif losses and losses[-1] >= losses[0]:
            problems.append(f"loss did not fall: {losses[0]} -> {losses[-1]}")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"test_acc {acc} outside [0, 1]")
        if self.first is None:
            self.first = observed
        elif observed != self.first:
            problems.append("training is not deterministic within the run")
        ref = self.reference
        if ref is not None:
            if len(ref["loss_total"]) != len(losses) or any(
                    abs(a - b) > LOSS_RTOL * abs(b) for a, b in zip(losses, ref["loss_total"])):
                problems.append("loss_total differs from the reference")
            if abs(acc - ref["test_acc"]) > ACC_ATOL:
                problems.append(f"test_acc {acc} vs reference {ref['test_acc']}")
        return problems


class Sweep(Workload):
    """cli sweep-noise over 18 cells of the README dataset, 2 pool workers."""
    name = "sweep-2k"
    NUM_NODES = 2_000
    SCALES = [0.0, 1.0, 4.0]
    KINDS = ["ef-mlp", "gcn-joint", "supra"]
    SEEDS = [0, 1]

    def setup(self):
        self.data_dir = os.path.join(self.work_dir, "data")
        self.config = os.path.join(self.work_dir, "config.json")
        self.out = os.path.join(self.work_dir, "sweep.csv")
        doc = {"synthetic": synthetic(self.NUM_NODES, self.seed),
               "train": {**TRAIN, "max_epochs": EPOCHS, "patience": EPOCHS},
               "sweep": {"scales": self.SCALES, "kinds": self.KINDS, "seeds": self.SEEDS}}
        write_json(self.config, doc)
        graph.save(graph.generate(cli.synthetic_spec(doc)), self.data_dir)
        # Spans recorded in pool workers are out of reach, so the traced run
        # uses one process.
        self.jobs = 1 if self.traced else 2

    def run_op(self) -> Op:
        cells = len(self.SCALES) * len(self.KINDS) * len(self.SEEDS)
        argv = ["sweep-noise", "--config", self.config, "--data", self.data_dir,
                "--out", self.out, "--jobs", str(self.jobs), "--seed", str(self.seed)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:            # every cell of the sweep failed
            return Op(time.perf_counter() - start, cells, cells, problems=[dataop.error_text(exc)])
        wall = time.perf_counter() - start
        if code != 0:
            return Op(wall, cells, cells, problems=[f"sweep-noise exited with {code}"])
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        problems, bad = self.check(lines)
        return Op(wall, cells, bad, epochs=cells * EPOCHS, problems=problems,
                  observed=lines)

    def check(self, lines):
        """Problems found and the number of cells whose row is wrong."""
        grid = {(s, k, d) for s in self.SCALES for k in self.KINDS for d in self.SEEDS}
        if not lines or lines[0].split(",") != SWEEP_COLUMNS:
            return [f"sweep CSV header {lines[:1]}"], len(grid)
        if self.first is None:
            self.first = lines
        ref = dict(_parse_row(line) for line in (self.reference or [])[1:])
        problems, seen = [], set()
        for line in lines[1:]:
            try:
                key, (acc, f1) = _parse_row(line)
            except ValueError:
                problems.append(f"malformed row {line!r}")
                continue
            ok = key in grid and key not in seen and 0 <= acc <= 1 and 0 <= f1 <= 1
            ok = ok and line in self.first
            if key in ref:
                ok = ok and all(abs(a - b) <= ACC_ATOL for a, b in zip((acc, f1), ref[key]))
            if ok:
                seen.add(key)
            else:
                problems.append(f"bad row {line!r}")
        missing = len(grid - seen)
        if missing:
            problems.append(f"{missing} of {len(grid)} cells missing or wrong")
        return problems, missing


def _parse_row(line):
    """``scale,kind,seed,acc,f1`` -> ((scale, kind, seed), (acc, f1))."""
    scale, kind, seed, acc, f1 = line.split(",")
    return (float(scale), kind, int(seed)), (float(acc), float(f1))


class Data(Workload):
    """cli gen at N = 200k, then graph.load of what it wrote.

    Untraced, each half runs in a fresh interpreter (dataop.py) and reports
    its own peak RSS; traced, both run in this process under the tracer."""
    name = "data-200k"
    NUM_NODES = 200_000
    # One operation takes most of a run.  With one per run, wall_s spread
    # by 0.26 (q3 - q1 over the median) over ten seeds on a noisy 2-core
    # host; the median of two evens out a single slow moment.
    MIN_OPS = 2

    def setup(self):
        self.config = os.path.join(self.work_dir, "config.json")
        self.out = os.path.join(self.work_dir, "data")
        write_json(self.config, {"synthetic": synthetic(self.NUM_NODES, self.seed)})

    def half(self, *argv) -> dict:
        """One half of the operation; a crash is reported as a problem."""
        if self.traced:
            if argv[0] == "gen":
                return dataop.gen(self.config, self.out, self.seed)
            return dataop.load(self.out)
        proc = subprocess.run([sys.executable, dataop.__file__, *argv], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            return {"problems": [f"{argv[0]} exited with {proc.returncode}: "
                                 + proc.stderr.strip()[-500:]]}
        return json.loads(proc.stdout.splitlines()[-1])

    def run_op(self) -> Op:
        gen = self.half("gen", "--config", self.config, "--out", self.out,
                        "--seed", str(self.seed))
        load = self.half("load", "--out", self.out)
        gen_problems = gen["problems"] or self.check_files(gen)
        load_problems = list(load["problems"])
        if "mag" in load and load["mag"] != gen.get("mag"):
            load_problems.append("loaded graph differs from the generated one")
        gen_s, load_s = gen.get("gen_s", 0.0), load.get("load_s", 0.0)
        peak = None if self.traced else max(gen.get("peak_rss_mb", 0.0),
                                            load.get("peak_rss_mb", 0.0))
        return Op(gen_s + load_s, 2, int(bool(gen_problems)) + int(bool(load_problems)),
                  phases={"gen_s": gen_s, "load_s": load_s}, peak_rss_mb=peak,
                  problems=gen_problems + load_problems, observed=gen.get("files"))

    def check_files(self, gen) -> list:
        digests = gen["files"]
        problems = []
        if digests != gen["expected"]:
            problems.append("dataset files differ from the documented format")
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            problems.append("gen is not byte-reproducible within the run")
        if self.reference is not None and digests != self.reference:
            problems.append("dataset files differ from the reference digests")
        return problems


WORKLOADS = {w.name: w for w in (TrainSupra, Sweep, Data)}
