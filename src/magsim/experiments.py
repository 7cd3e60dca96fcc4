"""Training loops, metrics, and the three diagnostic protocols
(noise-sweep crossover, gradient-dynamics tracking, corruption probe).

Training is full batch: the graphs here are small enough that exactness
beats speed, and it removes a stochasticity source.  All randomness flows
from a single base seed; per-cell sub-seeds are derived by stable hashing
of the cell coordinates.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__
from . import tensor as T
from .errors import ContractError, MagsimError, check_number
from .graph import Mag, calibrate, corrupt_modality, inject_noise
from .models import IndependentAgg, JointGcn, MlpModel
from .supra import VARIANTS, SupraModel
from .theory import tau

MODEL_KINDS = ("text-mlp", "visual-mlp", "ef-mlp", "gcn-joint", "sage-concat",
               "indep-agg", "supra")


class NumericError(MagsimError):
    """Training produced a non-finite loss."""


def derive_seed(base: int, *parts) -> int:
    """Stable sub-seed from a base seed and arbitrary cell coordinates."""
    h = hashlib.sha256(("|".join([str(base)] + [str(p) for p in parts])).encode())
    return int.from_bytes(h.digest()[:8], "little")


@dataclass
class TrainConfig:
    kind: str = "ef-mlp"
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 40
    seed: int = 0
    hidden: int = 64
    num_layers: int = 2
    alpha: float = 0.5
    dropout: float = 0.3
    smoothing: float = 0.1
    weight_decay: float = 1e-4
    lambda_aux: float = 0.0
    supra_variant: str = "full"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ContractError(f"unknown model kind {self.kind!r}")
        v = vars(self)
        for name in ("patience", "hidden", "num_layers", "max_epochs", "seed"):
            check_number(name, v[name], integer=True, low=0 if name == "seed" else 1)
        for name in ("lr", "lambda_aux", "weight_decay", "alpha", "dropout", "smoothing"):
            check_number(name, v[name], low=0 if name in ("lr", "lambda_aux") else None)
        for name in ("dropout", "smoothing"):
            if not 0.0 <= v[name] < 1.0:
                raise ContractError(f"{name} must be in [0,1), got {v[name]}")
        if not 0.0 < self.alpha < 1.0:
            raise ContractError(f"alpha must be in (0,1), got {self.alpha}")
        if self.supra_variant not in VARIANTS:
            raise ContractError(f"unknown supra_variant {self.supra_variant!r}")


@dataclass
class TrainReport:
    config: dict
    epochs: list                 # per-epoch dicts, 1-based epoch numbers
    best_epoch: int
    test_acc: float
    test_f1: float
    param_count: int
    wall_clock_seconds: float

    def to_json(self, include_timing: bool = True) -> str:
        d = asdict(self)
        if not include_timing:
            del d["wall_clock_seconds"]
        return json.dumps(d, sort_keys=True)


def build_model(cfg: TrainConfig, mag: Mag, rng):
    names = mag.modality_names()
    if cfg.kind == "visual-mlp" and len(names) < 2:
        raise ContractError("visual-mlp needs a second modality")
    mlp_inputs = {"text-mlp": names[:1], "visual-mlp": names[1:2], "ef-mlp": names}
    if cfg.kind in mlp_inputs:
        return MlpModel(rng, mag, mlp_inputs[cfg.kind], cfg.hidden, cfg.dropout, cfg.smoothing)
    # every other kind aggregates over A_hat, which lives as long as the graph:
    # made before the first epoch's arrays, it sits below them in the heap
    # instead of pinning a spot among them (supra at 20k: peak RSS -5 MiB)
    mag.adjacency.row_normalize()
    if cfg.kind == "supra":
        return SupraModel(rng, mag, cfg.hidden, cfg.num_layers, cfg.alpha, cfg.dropout,
                          cfg.smoothing, cfg.lambda_aux, cfg.supra_variant)
    gnn = (rng, mag, cfg.hidden, cfg.num_layers, cfg.alpha, cfg.dropout, cfg.smoothing)
    if cfg.kind == "indep-agg":
        return IndependentAgg(*gnn)
    return JointGcn(*gnn, variant="ego-concat" if cfg.kind == "sage-concat" else "mean-mix")


def predict(model, mag: Mag, rows) -> np.ndarray:
    out = model.forward(mag)
    return np.argmax(out["logits"].data[rows], axis=1)


def accuracy(preds, labels) -> float:
    preds, labels = np.asarray(preds), np.asarray(labels)
    if preds.size == 0:
        raise ContractError("empty input")
    return float(np.mean(preds == labels))


def macro_f1(preds, labels, num_classes: int) -> float:
    """Unweighted mean of per-class F1.

    A class with neither actual nor predicted instances is skipped; a class
    that is present but never correctly covered contributes 0.
    """
    preds, labels = np.asarray(preds), np.asarray(labels)
    if preds.size == 0:
        raise ContractError("empty input")
    scores = []
    for c in range(num_classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        if tp + fp + fn == 0:
            continue
        scores.append(2.0 * tp / (2.0 * tp + fp + fn))
    return float(np.mean(scores)) if scores else 0.0


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's mallopt parameters


def _keep_freed_memory():
    """Keep the memory a training epoch frees in the C heap for the next one.

    Each epoch frees and re-allocates the same activation and gradient
    arrays.  By default glibc serves arrays above 128 KiB from mmap, or
    trims them off the top of its heap once freed, so every epoch
    page-faults its whole working set back in.  Serving arrays up to
    32 MiB (glibc's own 64-bit ceiling for its dynamic mmap threshold) from
    the heap and trimming only above 256 MiB keeps them resident until the
    process exits.  Values are unchanged; a C library without ``mallopt``
    is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def train(mag: Mag, cfg: TrainConfig, return_model: bool = False):
    """Full-batch training with early stopping on validation accuracy.

    Test metrics come from the parameters at the best validation epoch,
    not the last one.
    """
    t0 = time.perf_counter()
    _keep_freed_memory()
    rng_init = np.random.default_rng(derive_seed(cfg.seed, "init"))
    rng_drop = np.random.default_rng(derive_seed(cfg.seed, "dropout"))
    model = build_model(cfg, mag, rng_init)
    state = T.AdamState()

    train_idx = mag.splits["train"]
    best_val, best_epoch, best_state = -1.0, 0, model.state_copy()
    epochs = []

    for epoch in range(1, cfg.max_epochs + 1):
        tape = T.Tape()
        out = model.forward(mag, tape=tape, rng=rng_drop)
        losses = model.loss(out, mag.labels, train_idx)
        row = {"epoch": epoch, "loss_total": float(losses["total"].data[0, 0]),
               "loss_task": float(losses["task"].data[0, 0]),
               "loss_aux": float(sum(a.data[0, 0] for a in losses["aux"].values()))}
        if not np.isfinite(row["loss_total"]):
            raise NumericError(f"non-finite loss at epoch {epoch}")
        tape.backward(losses["total"])
        del out, losses   # the eval forward below must not run on top of them
        branch_norms = model.branch_grad_norms()
        T.adam_step(model.params, model.grads(), state, cfg.lr, cfg.weight_decay)

        val_acc = accuracy(predict(model, mag, mag.splits["val"]),
                           mag.labels[mag.splits["val"]])
        epochs.append({**row, "val_acc": val_acc, "grad_norms": branch_norms})
        if val_acc > best_val:
            best_val, best_epoch = val_acc, epoch
            best_state = model.state_copy()
        elif epoch - best_epoch >= cfg.patience:
            break

    model.load_state(best_state)
    test_idx = mag.splits["test"]
    preds = predict(model, mag, test_idx)
    report = TrainReport(
        config=asdict(cfg), epochs=epochs, best_epoch=best_epoch,
        test_acc=accuracy(preds, mag.labels[test_idx]),
        test_f1=macro_f1(preds, mag.labels[test_idx], mag.num_classes),
        param_count=model.param_count(),
        wall_clock_seconds=time.perf_counter() - t0)
    return (report, model) if return_model else report


# ---------------------------------------------------------------------------
# Diagnostic protocols
# ---------------------------------------------------------------------------

def _cell_config(base: TrainConfig, overrides: dict, *coords) -> TrainConfig:
    """A protocol cell's config: ``overrides`` on ``base``, seeded by its coordinates."""
    return TrainConfig(**{**asdict(base), **overrides, "seed": derive_seed(base.seed, *coords)})


def calibration_table(mag: Mag, alpha: float) -> dict:
    """beta_hat, sigma_n^2 hat and tau per modality; empty without class signals."""
    table = {}
    for name in mag.features if mag.signals is not None else ():
        beta, sigma = calibrate(mag, name)
        table[name] = {"beta_hat": beta, "sigma_n_sq_hat": sigma, "tau": tau(alpha, beta, sigma)}
    return table


def sweep_cell(args):
    """One noise-sweep cell; top level so process pools can pickle it."""
    mag, scale, kind, seed, base_cfg = args
    noisy = inject_noise(mag, scale, derive_seed(base_cfg.seed, "noise", repr(scale), seed))
    variant = base_cfg.supra_variant if base_cfg.kind == "supra" else "base"   # supra reads it
    report = train(noisy, _cell_config(base_cfg, {"kind": kind, "supra_variant": variant},
                                       "train", repr(scale), kind, seed))
    return {"scale": scale, "kind": kind, "seed": seed,
            "acc": report.test_acc, "f1": report.test_f1}


def sweep_noise(mag: Mag, scales, kinds, seeds, base_cfg: TrainConfig,
                pool_map=map):
    """Cartesian noise-injection sweep, annotated with the calibration table
    of the base graph (built first, so a graph it rejects trains nothing)."""
    scales, kinds, seeds = list(scales), list(kinds), list(seeds)
    if not scales or not kinds:
        raise ContractError("need at least one scale and one model kind")
    annotation = {"modalities": calibration_table(mag, base_cfg.alpha)}
    cells = [(mag, scale, kind, seed, base_cfg)
             for scale in scales for kind in kinds for seed in seeds]
    return list(pool_map(sweep_cell, cells)), annotation


def track_gradients(mag: Mag, variants, num_epochs: int, base_cfg: TrainConfig):
    """Per-epoch per-branch gradient L2 norms for a set of named model
    configurations, trained for a fixed number of epochs."""
    if len(mag.modalities) < 2:
        raise ContractError("gradient tracking needs at least two modalities")
    rows = []
    for name, overrides in variants:
        fixed = {**overrides, "max_epochs": num_epochs, "patience": num_epochs}
        report = train(mag, _cell_config(base_cfg, fixed, "track", name))
        for row in report.epochs:
            for branch, norm in row["grad_norms"].items():
                rows.append({"epoch": row["epoch"], "variant": name,
                             "branch": branch, "grad_l2": norm})
    return rows


def corruption_probe(mag: Mag, kinds, dominant: str, seeds,
                     base_cfg: TrainConfig):
    """Train on clean data, evaluate macro-F1 on the clean test split (F)
    and on a test split whose dominant modality is replaced by matched
    noise (D); H is their harmonic mean.

    All kinds under the same probe seed share one derived training seed,
    so variants are compared from identical initializations and the D
    differences are not dominated by init variance."""
    if dominant not in mag.modality_names():     # a list: an unhashable name is unknown too
        raise ContractError(f"unknown modality {dominant!r}")
    test_idx = mag.splits["test"]
    y_test = mag.labels[test_idx]
    rows = []
    for kind_name, overrides in kinds:
        for seed in seeds:
            cfg = _cell_config(base_cfg, overrides, "probe", seed)
            _, model = train(mag, cfg, return_model=True)
            corrupted = corrupt_modality(mag, dominant,
                                         derive_seed(base_cfg.seed, "corrupt", seed))
            f_score = macro_f1(predict(model, mag, test_idx), y_test, mag.num_classes)
            d_score = macro_f1(predict(model, corrupted, test_idx), y_test, mag.num_classes)
            h = 0.0 if f_score + d_score == 0 else 2 * f_score * d_score / (f_score + d_score)
            rows.append({"kind": kind_name, "seed": seed,
                         "F": f_score, "D": d_score, "H": h})
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

CSV_SCHEMAS = {
    "sweep": ["scale", "kind", "seed", "acc", "f1"],
    "grads": ["epoch", "variant", "branch", "grad_l2"],
    "probe": ["kind", "seed", "F", "D", "H"],
}


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_csv(path: str, schema: str, rows):
    cols = CSV_SCHEMAS[schema]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def write_manifest(path: str, cfg: TrainConfig, extra: dict):
    doc = {"config": asdict(cfg), "seed": cfg.seed, "version": __version__, **extra}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
