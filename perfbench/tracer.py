"""In-memory span tracer for magsim, installed from outside the package.

``Tracer.install`` rebinds every public function of ``magsim.tensor``,
``aggregation``, ``graph``, ``models``/``supra``, ``experiments`` and ``cli``
(in every magsim module that imported it by name), and the class methods
the per-layer metrics need, to timing wrappers.  ``uninstall`` puts the originals
back.  No magsim source is edited.  ``Tracer(epochs_only=True)`` records
only the spans that mark epoch boundaries, one per epoch.

A span records its name, start, end, parent span and run id.  Spans stay
in memory until ``write_jsonl`` is called when the run ends.  ``summary``
turns the spans and counters of one traced operation into the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pickle
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# Tape ops reported per epoch: forward milliseconds and call count.
TENSOR_OPS = ("matmul", "spmm", "add", "scale", "relu", "dropout", "concat_cols",
              "row_select", "cross_entropy_smoothed")

# Per-layer metrics and their units.  "/epoch" values are divided by the
# training epochs of the traced operation, "/op" values are per workload
# operation, "/train" per training run and "/cell" per sweep cell.
PER_LAYER = (
    [(f"tensor.{op}.fwd_ms", "ms/epoch") for op in TENSOR_OPS]
    + [(f"tensor.{op}.calls", "count/epoch") for op in TENSOR_OPS]
    + [
        ("tensor.spmm.nnz_cols", "count/epoch"),
        ("tensor.tape_nodes", "count/epoch"),
        ("tensor.backward_ms", "ms/epoch"),
        ("tensor.adam_step_ms", "ms/epoch"),
        ("aggregation.mean_aggregate.ms", "ms/epoch"),
        ("aggregation.mean_aggregate.self_ms", "ms/epoch"),
        ("aggregation.mean_aggregate.calls", "count/epoch"),
        ("aggregation.gnn_stack.ms", "ms/epoch"),
        ("graph.generate_s", "s/op"),
        ("graph.save_s", "s/op"),
        ("graph.load_s", "s/op"),
        ("graph.csr_build.ms", "ms/op"),
        ("graph.csr_build.calls", "count/op"),
        ("graph.row_normalize.ms", "ms/op"),
        ("graph.row_normalize.calls", "count/op"),
        ("graph.measure.ms", "ms/op"),
        ("graph.inject_noise.ms", "ms/op"),
        ("graph.bytes_written", "B/op"),
        ("graph.bytes_read", "B/op"),
        ("models.build_ms", "ms/train"),
        ("models.forward_train_ms", "ms/epoch"),
        ("supra.loss_ms", "ms/epoch"),
        ("models.state_copy.ms", "ms/epoch"),
        ("models.state_copy.calls", "count/epoch"),
        ("models.grad_norm_ms", "ms/epoch"),
        ("experiments.epoch.forward_ms", "ms/epoch"),
        ("experiments.epoch.backward_ms", "ms/epoch"),
        ("experiments.epoch.adam_ms", "ms/epoch"),
        ("experiments.epoch.eval_ms", "ms/epoch"),
        ("experiments.epoch.other_ms", "ms/epoch"),
        ("experiments.epoch.wall_ms", "ms/epoch"),
        ("experiments.epochs", "count/op"),
        ("experiments.train_s", "s/op"),
        ("experiments.train_fixed_ms", "ms/train"),
        ("experiments.sweep_cell_s", "s/cell"),
        ("cli.cells", "count/op"),
        ("cli.cell_payload_bytes", "B/cell"),
        ("trace.spans", "count/op"),
        ("trace.wall_s", "s/op"),
        ("trace.untraced_wall_s", "s/op"),
        ("trace.overhead_s", "s/op"),
        ("trace.epoch_untraced_ms", "ms/epoch"),
        ("trace.epoch_gap_ms", "ms/epoch"),
        ("trace.epoch_overhead_ms", "ms/epoch"),
        ("trace.epoch_noise_ms", "ms/epoch"),
    ]
)

# Direct children of a training run, by the part of the epoch they belong to.
EPOCH_PARTS = {
    "models.forward_train": "forward",
    "supra.loss": "forward",
    "tensor.row_select": "forward",
    "tensor.cross_entropy_smoothed": "forward",
    "tensor.backward": "backward",
    "tensor.adam_step": "adam",
    "experiments.predict": "eval",
    "experiments.accuracy": "eval",
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str | None


def _dir_bytes(directory) -> int:
    with os.scandir(directory) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


def _forward_name(args, kwargs):
    tape = args[3] if len(args) > 3 else kwargs.get("tape")
    return "models.forward_train" if tape is not None else "models.forward_eval"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, epochs_only=False):
        self.epochs_only = epochs_only
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self.run_id = None
        self._stack = []
        self._next_sid = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's
        arguments.  ``before``/``after`` hooks update counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(tracer, args, kwargs)
            sid = tracer._next_sid
            tracer._next_sid += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, span_name, start, end, parent, tracer.run_id))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def count(self, name, amount=1):
        self.counters[name] += amount

    def _measuring_pool_map(self, pool_map):
        def measured(fn, cells):
            cells = list(cells)
            for cell in cells:
                self.count("cli.cell_payload_bytes", len(pickle.dumps(cell)))
            self.count("cli.cells", len(cells))
            return pool_map(fn, cells)
        return measured

    # -- installation ----------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every magsim module binding of ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "magsim" or mod_name.startswith("magsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._undo.append((cls, attr, original))

    def install(self):
        from magsim import aggregation, cli, experiments, graph, models, supra, tensor

        self._patch_method(tensor.Tape, "__init__", "tensor.tape")
        self._patch_method(models.Model, "load_state", "models.load_state")
        if self.epochs_only:
            self._rebind(experiments.train, self.wrap("experiments.train", experiments.train))
            return

        def count_spmm(tr, args, kwargs):
            adj, h = args[0], args[1]
            tr.count("tensor.spmm.nnz_cols", adj.nnz * h.cols)

        def count_tape(tr, args, kwargs):
            tr.count("tensor.tape_nodes", len(args[0]))

        def count_written(tr, args, kwargs, result):
            tr.count("graph.bytes_written", _dir_bytes(args[1]))

        def count_read(tr, args, kwargs):
            tr.count("graph.bytes_read", _dir_bytes(args[0]))

        hooks = {"spmm": {"before": count_spmm},
                 "save": {"after": count_written},
                 "load": {"before": count_read}}
        renamed = {"build_model": "models.build"}
        for module in (tensor, aggregation, graph, models, supra, experiments, cli):
            layer = module.__name__.split(".")[-1]
            for fn_name, original in list(vars(module).items()):
                if (fn_name.startswith("_") or not inspect.isfunction(original)
                        or original.__module__ != module.__name__):
                    continue
                span_name = renamed.get(fn_name, f"{layer}.{fn_name}")
                wrapper = self.wrap(span_name, original, **hooks.get(fn_name, {}))
                if fn_name == "sweep_noise":
                    wrapper = self._with_payload_count(wrapper)
                self._rebind(original, wrapper)

        self._patch_method(tensor.Tape, "backward", "tensor.backward", before=count_tape)
        self._patch_method(graph.CsrMatrix, "__init__", "graph.csr_build")
        self._patch_method(graph.CsrMatrix, "row_normalize", "graph.row_normalize")
        self._patch_method(aggregation.GnnStack, "forward", "aggregation.gnn_stack")
        for attr in ("state_copy", "grad_norm", "grads"):
            self._patch_method(models.Model, attr, f"models.{attr}")
        for cls in (models.MlpModel, models.JointGcn, models.IndependentAgg,
                    supra.SupraModel):
            self._patch_method(cls, "forward", _forward_name)
        self._patch_method(supra.SupraModel, "loss", "supra.loss")

    def _with_payload_count(self, traced_sweep):
        @functools.wraps(traced_sweep)
        def sweep(*args, **kwargs):
            if len(args) > 5:
                args = args[:5] + (self._measuring_pool_map(args[5]),) + args[6:]
            else:
                kwargs["pool_map"] = self._measuring_pool_map(kwargs.get("pool_map", map))
            return traced_sweep(*args, **kwargs)
        return sweep

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded (one operation)."""
        return summarize(self.spans, self.counters)


def write_jsonl(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict:
    """sid -> span duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.sid], key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def epoch_split(spans) -> dict:
    """Split each training epoch into forward, backward, Adam, eval and
    other seconds.  An epoch runs from one ``Tape`` construction inside
    ``experiments.train`` to the next, and the last one ends where the
    best state is restored (or where the training run ends)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    parts = dict.fromkeys(("forward", "backward", "adam", "eval", "wall", "train"), 0.0)
    epochs = 0
    for run in (s for s in spans if s.name == "experiments.train"):
        parts["train"] += run.end - run.start
        kids = sorted(children[run.sid], key=lambda c: c.start)
        starts = [c.start for c in kids if c.name == "tensor.tape"]
        if not starts:
            continue
        ends = [c.start for c in kids if c.name == "models.load_state" and c.start > starts[-1]]
        bounds = starts + [ends[0] if ends else run.end]
        epochs += len(starts)
        parts["wall"] += bounds[-1] - bounds[0]
        for c in kids:
            part = EPOCH_PARTS.get(c.name)
            if part is not None and bounds[0] <= c.start < bounds[-1]:
                parts[part] += c.end - c.start
    parts["other"] = parts["wall"] - sum(parts[k] for k in ("forward", "backward", "adam", "eval"))
    return {"epochs": epochs, **parts}


def summarize(spans, counters) -> dict:
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
    selfs = self_times(spans)
    self_total = defaultdict(float)
    for s in spans:
        self_total[s.name] += selfs[s.sid]

    split = epoch_split(spans)
    epochs = split["epochs"]
    trains = calls["models.build"]
    cells = calls["experiments.sweep_cell"]

    def per(value, n):
        return value / n if n else 0.0

    def ms_epoch(name):
        return per(1e3 * total[name], epochs)

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = ms_epoch(f"tensor.{op}")
        m[f"tensor.{op}.calls"] = per(calls[f"tensor.{op}"], epochs)
    m["tensor.spmm.nnz_cols"] = per(counters["tensor.spmm.nnz_cols"], epochs)
    m["tensor.tape_nodes"] = per(counters["tensor.tape_nodes"], calls["tensor.backward"])
    m["tensor.backward_ms"] = ms_epoch("tensor.backward")
    m["tensor.adam_step_ms"] = ms_epoch("tensor.adam_step")
    m["aggregation.mean_aggregate.ms"] = ms_epoch("aggregation.mean_aggregate")
    m["aggregation.mean_aggregate.self_ms"] = per(
        1e3 * self_total["aggregation.mean_aggregate"], epochs)
    m["aggregation.mean_aggregate.calls"] = per(calls["aggregation.mean_aggregate"], epochs)
    m["aggregation.gnn_stack.ms"] = ms_epoch("aggregation.gnn_stack")
    m["graph.generate_s"] = total["graph.generate"]
    m["graph.save_s"] = total["graph.save"]
    m["graph.load_s"] = total["graph.load"]
    m["graph.csr_build.ms"] = 1e3 * total["graph.csr_build"]
    m["graph.csr_build.calls"] = calls["graph.csr_build"]
    m["graph.row_normalize.ms"] = 1e3 * total["graph.row_normalize"]
    m["graph.row_normalize.calls"] = calls["graph.row_normalize"]
    m["graph.measure.ms"] = 1e3 * (total["graph.measure_alignment"]
                                   + total["graph.measure_neighborhood_noise"])
    m["graph.inject_noise.ms"] = 1e3 * total["graph.inject_noise"]
    m["graph.bytes_written"] = counters["graph.bytes_written"]
    m["graph.bytes_read"] = counters["graph.bytes_read"]
    m["models.build_ms"] = per(1e3 * total["models.build"], trains)
    m["models.forward_train_ms"] = ms_epoch("models.forward_train")
    m["supra.loss_ms"] = ms_epoch("supra.loss")
    m["models.state_copy.ms"] = ms_epoch("models.state_copy")
    m["models.state_copy.calls"] = per(calls["models.state_copy"], epochs)
    m["models.grad_norm_ms"] = ms_epoch("models.grad_norm")
    for part in ("forward", "backward", "adam", "eval", "other", "wall"):
        m[f"experiments.epoch.{part}_ms"] = per(1e3 * split[part], epochs)
    m["experiments.epochs"] = epochs
    m["experiments.train_s"] = total["experiments.train"]
    m["experiments.train_fixed_ms"] = per(1e3 * (split["train"] - split["wall"]), trains)
    m["experiments.sweep_cell_s"] = per(total["experiments.sweep_cell"], cells)
    m["cli.cells"] = counters["cli.cells"]
    m["cli.cell_payload_bytes"] = per(counters["cli.cell_payload_bytes"], counters["cli.cells"])
    m["trace.spans"] = len(spans)
    return m


def epoch_check(traced_ms, untraced_ms, overhead_ms) -> dict:
    """Metrics that compare the traced epoch split with untraced epochs.

    One value per traced/untraced pair: ``traced_ms`` is the split's sum per
    epoch (forward + backward + Adam + eval + other), ``untraced_ms`` the
    per-epoch wall time of the paired untraced operation, ``overhead_ms``
    the pair's whole-operation tracing overhead per epoch."""
    if not any(untraced_ms):
        return {"trace.epoch_untraced_ms": 0.0, "trace.epoch_gap_ms": 0.0,
                "trace.epoch_overhead_ms": 0.0, "trace.epoch_noise_ms": 0.0}
    return {
        "trace.epoch_untraced_ms": statistics.fmean(untraced_ms),
        "trace.epoch_gap_ms": statistics.fmean(t - u for t, u in zip(traced_ms, untraced_ms)),
        "trace.epoch_overhead_ms": statistics.fmean(overhead_ms),
        "trace.epoch_noise_ms": max(untraced_ms) - min(untraced_ms),
    }


def epoch_split_agrees(m) -> bool:
    """Whether the traced epoch split sums to the untraced per-epoch wall
    time to within the measured tracing overhead, give or take the
    variation between the untraced operations of the same run."""
    noise = m["trace.epoch_noise_ms"]
    return -noise <= m["trace.epoch_gap_ms"] <= max(m["trace.epoch_overhead_ms"], 0.0) + noise
