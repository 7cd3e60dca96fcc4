"""Decoupled dual-pathway model: unique specificity streams, a shared
synergy GNN over the concatenated projections, parallel heads, and the
training objective with auxiliary deep supervision.

The per-modality heads are shared between the mean-pooled final
prediction and the auxiliary losses: the auxiliary term gives every
projector a gradient path that never touches the GNN.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .aggregation import GnnStack
from .errors import ContractError, TapeError
from .graph import Mag
from .models import Model, _he, _linear

VARIANTS = ("full", "base", "synergy-only")


@dataclass
class SupraConfig:
    proj_dim: int = 64
    num_layers: int = 2
    alpha: float = 0.5
    lambda_aux: float = 0.0
    dropout: float = 0.3
    smoothing: float = 0.1
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}")
        if self.lambda_aux < 0:
            raise ContractError(f"lambda_aux must be >= 0, got {self.lambda_aux}")
        if self.variant in ("base", "synergy-only"):
            self.lambda_aux = 0.0


class SupraModel(Model):
    def __init__(self, rng, mag: Mag, cfg: SupraConfig):
        super().__init__(cfg.smoothing)
        self.cfg = cfg
        self.modalities = list(mag.modalities)
        for name, dim in self.modalities:
            self.add_linear(rng, f"proj_{name}", dim, cfg.proj_dim)
            self.add_linear(rng, f"head_{name}", cfg.proj_dim, mag.num_classes)
        self.stack = GnnStack(cfg.num_layers, cfg.alpha, hidden_dim=cfg.proj_dim,
                              in_dim=cfg.proj_dim * len(self.modalities))
        for pname, shape in self.stack.param_shapes("synergy").items():
            self.params[pname] = _he(rng, shape[0], shape)
        self.add_linear(rng, "head_s", cfg.proj_dim, mag.num_classes)

    def synergy_param_count(self) -> int:
        names = list(self.stack.param_shapes("synergy"))
        return int(sum(self.params[n].size for n in names))

    def forward(self, mag, norm_adj, tape, training, rng):
        cfg = self.cfg
        p = self.wrap(tape)
        z_unique, aux_logits = {}, {}
        for name, _dim in self.modalities:
            x = T.Tensor(mag.features[name], None)
            z = T.relu(_linear(p, f"proj_{name}", x))
            z = T.dropout(z, cfg.dropout, rng, training)
            z_unique[name] = z
            aux_logits[name] = _linear(p, f"head_{name}", z)

        h_s = T.concat_cols([z_unique[name] for name, _ in self.modalities])
        # head_s is folded into the last synergy layer, its bias added after P
        synergy_logits = T.add(
            self.stack.forward(h_s, norm_adj, p, "synergy", head=p["head_s.w"]), p["head_s.b"])

        if cfg.variant == "synergy-only":
            y_final = synergy_logits
        else:
            total = synergy_logits
            for name, _dim in self.modalities:
                total = T.add(total, aux_logits[name])
            y_final = T.scale(total, 1.0 / (len(self.modalities) + 1))

        return {"logits": y_final, "z_unique": z_unique, "synergy_logits": synergy_logits,
                "aux_logits": aux_logits}

    def loss(self, outputs, labels, train_idx):
        """Task + lambda_aux * sum of per-modality auxiliary losses, each a
        smoothed cross-entropy over the train rows."""
        losses = super().loss(outputs, labels, train_idx)
        y, lam = labels[train_idx], self.cfg.lambda_aux
        for name, _dim in self.modalities:
            a = T.cross_entropy_smoothed(
                T.row_select(outputs["aux_logits"][name], train_idx), y, self.smoothing)
            losses["aux"][name] = a
            if lam > 0:
                losses["total"] = T.add(losses["total"], T.scale(a, lam))
        return losses

    def branches(self):
        out = {}
        for name, _dim in self.modalities:
            out[f"proj_{name}"] = [f"proj_{name}.w", f"proj_{name}.b"]
        out["synergy"] = list(self.stack.param_shapes("synergy"))
        return out

    def branch_grad_norms(self):
        if self._taped is None or all(t.grad is None for t in self._taped.values()):
            raise TapeError("branch_grad_norms called before backward")
        return super().branch_grad_norms()


# ---------------------------------------------------------------------------
# Checkpoints: one binary file, JSON shape manifest + little-endian f64 blob
# ---------------------------------------------------------------------------

_MAGIC = b"MAGS"


def save_checkpoint(model: Model, path: str):
    names = sorted(model.params)
    manifest = json.dumps({"params": [[n, list(model.params[n].shape)] for n in names]})
    blob = b"".join(model.params[n].astype("<f8").tobytes() for n in names)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest.encode("utf-8"))
        fh.write(blob)


def load_checkpoint(model: Model, path: str):
    """Load a checkpoint written by ``save_checkpoint`` into ``model``.  The
    file must hold exactly the model's parameter names and shapes and no
    byte more; anything else raises ContractError before a value is copied."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ContractError(f"{path}: not a checkpoint file")
    try:
        (mlen,) = struct.unpack_from("<I", raw, 4)
        manifest = json.loads(raw[8:8 + mlen].decode("utf-8"))
        entries = [(str(name), tuple(shape)) for name, shape in manifest["params"]]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ContractError(f"{path}: malformed header ({type(exc).__name__}: {exc})")
    names = [name for name, _ in entries]
    if names != sorted(model.params):
        diff = sorted(set(names) ^ set(model.params)) or names
        raise ContractError(f"{path}: parameter names differ from the model's: {diff}")
    for name, shape in entries:
        if shape != model.params[name].shape:
            raise ContractError(f"{path}: {name} has shape {list(shape)}, "
                                f"the model's is {list(model.params[name].shape)}")
    offset = 8 + mlen
    expected = offset + 8 * sum(model.params[name].size for name in names)
    if len(raw) != expected:
        raise ContractError(f"{path}: {len(raw)} bytes, expected {expected}")
    for name in names:
        target = model.params[name]
        target[...] = np.frombuffer(raw, "<f8", target.size, offset).reshape(target.shape)
        offset += 8 * target.size
