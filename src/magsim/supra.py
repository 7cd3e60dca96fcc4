"""Decoupled dual-pathway model: unique specificity streams, a shared
synergy GNN over the concatenated projections, parallel heads, and the
training objective with auxiliary deep supervision.

The per-modality heads are shared between the mean-pooled final
prediction and the auxiliary losses: the auxiliary term gives every
projector a gradient path that never touches the GNN.
"""

from __future__ import annotations

from . import tensor as T
from .aggregation import GnnStack
from .graph import Mag
from .models import Model, _linear

VARIANTS = ("full", "base", "synergy-only")


class SupraModel(Model):
    def __init__(self, rng, mag: Mag, hidden, num_layers, alpha, dropout, smoothing,
                 lambda_aux, variant):
        super().__init__(dropout, smoothing)
        self.lambda_aux = lambda_aux if variant == "full" else 0.0
        self.variant = variant
        self.modalities = list(mag.modalities)
        for name, dim in self.modalities:
            self.add_linear(rng, f"proj_{name}", dim, hidden)
            self.add_linear(rng, f"head_{name}", hidden, mag.num_classes)
        self.stack = self.add_stack(rng, "synergy", GnnStack(
            num_layers, alpha, hidden_dim=hidden, in_dim=hidden * len(self.modalities)))
        self.add_linear(rng, "head_s", hidden, mag.num_classes)

    def synergy_param_count(self) -> int:
        return int(sum(self.params[n].size for n in self.stack.param_shapes("synergy")))

    def forward(self, mag, tape=None, rng=None):
        p = self.wrap(tape)
        z_unique, aux_logits = {}, {}
        for name, _dim in self.modalities:
            z_unique[name] = self.encode(p, f"proj_{name}", T.Tensor(mag.features[name], None), rng)
            aux_logits[name] = _linear(p, f"head_{name}", z_unique[name])

        # head_s is folded into the last synergy layer, its bias added after P
        h_s = [z_unique[name] for name, _ in self.modalities]   # the concat's blocks
        synergy_logits = T.add(
            self.stack.forward(h_s, mag.adjacency, p, "synergy", head=p["head_s.w"]), p["head_s.b"])

        if self.variant == "synergy-only":
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
        smoothed cross-entropy over the train rows; lambda_aux is 0 unless
        the variant is ``full``."""
        losses = super().loss(outputs, labels, train_idx)
        y, lam = labels[train_idx], self.lambda_aux
        for name, _dim in self.modalities:
            a = T.cross_entropy_smoothed(outputs["aux_logits"][name], y, self.smoothing, train_idx)
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
