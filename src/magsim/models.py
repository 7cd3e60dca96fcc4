"""Baseline model zoo: MLPs, joint / ego-concat GNNs, independent aggregation.

Every model owns a flat dict of named float64 parameter arrays.  A forward
pass wraps those arrays into tensors on the caller's tape; after backward
the gradients are read back from the same wrappers.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .aggregation import GnnStack
from .errors import ContractError, TapeError
from .graph import Mag


def _he(rng, fan_in, shape):
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


class Model:
    """Common parameter bookkeeping for all trainable models."""

    def __init__(self, dropout: float, smoothing: float):
        self.params: dict[str, np.ndarray] = {}
        self.dropout, self.smoothing = dropout, smoothing
        self._taped = None

    def add_linear(self, rng, name, d_in, d_out):
        self.params[f"{name}.w"] = _he(rng, d_in, (d_in, d_out))
        self.params[f"{name}.b"] = np.zeros((1, d_out))

    def add_stack(self, rng, prefix, stack: GnnStack) -> GnnStack:
        """He-initialised weights for each layer of ``stack``, under ``prefix``."""
        for name, shape in stack.param_shapes(prefix).items():
            self.params[name] = _he(rng, shape[0], shape)
        return stack

    def encode(self, p, prefix, x, rng):
        """relu of the ``prefix`` linear of x, then dropout (with an rng): one
        tensor.dense node."""
        return T.dense(x, p[f"{prefix}.w"], p[f"{prefix}.b"], self.dropout, rng)

    def wrap(self, tape):
        """Parameters as tensors on ``tape``; ``grads`` reads the last taped
        set, so an untaped (eval) forward leaves it in place."""
        wrapped = {k: T.Tensor(v, tape) for k, v in self.params.items()}
        if tape is not None:
            self._taped = wrapped
        return wrapped

    def grads(self) -> dict:
        if self._taped is None:
            raise TapeError("no forward/backward recorded yet")
        return {k: t.grad for k, t in self._taped.items() if t.grad is not None}

    def grad_norm(self, names) -> float:
        g = self.grads()
        total = sum(float(np.sum(g[n] ** 2)) for n in names if n in g)
        return float(np.sqrt(total))

    def loss(self, outputs, labels, train_idx) -> dict:
        """Smoothed cross-entropy of the logits over the train rows; models
        with auxiliary terms extend ``aux`` and ``total``."""
        task = T.cross_entropy_smoothed(outputs["logits"], labels[train_idx], self.smoothing,
                                        train_idx)
        return {"total": task, "task": task, "aux": {}}

    def branches(self) -> dict:
        return {"all": list(self.params)}

    def branch_grad_norms(self) -> dict:
        if self._taped is None or all(t.grad is None for t in self._taped.values()):
            raise TapeError("branch_grad_norms called before backward")
        return {b: self.grad_norm(names) for b, names in self.branches().items()}

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def state_copy(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    def load_state(self, state: dict):
        for k in self.params:
            self.params[k][...] = state[k]

    # subclasses implement forward(mag, tape=None, rng=None) -> dict: the
    # graph comes from mag, and dropout runs exactly when an rng is given


def _linear(p, prefix, x):
    return T.linear(x, p[f"{prefix}.w"], p[f"{prefix}.b"])


class MlpModel(Model):
    """Two-layer perceptron on one modality or on the early-fusion concat."""

    def __init__(self, rng, mag: Mag, modality_names, hidden, dropout, smoothing):
        super().__init__(dropout, smoothing)
        self.modality_names = list(modality_names)
        d_in = sum(dim for name, dim in mag.modalities if name in self.modality_names)
        if d_in == 0:
            raise ContractError(f"no such modalities: {modality_names}")
        self.add_linear(rng, "fc1", d_in, hidden)
        self.add_linear(rng, "head", hidden, mag.num_classes)

    def forward(self, mag, tape=None, rng=None):
        p = self.wrap(tape)
        # early fusion as column blocks: fc1 reads them in place of their concat
        x = [T.Tensor(mag.features[n], None) for n in self.modality_names]
        return {"logits": _linear(p, "head", self.encode(p, "fc1", x, rng))}


class JointGcn(Model):
    """Joint aggregation: early-fused features projected once, then routed
    through L mean-aggregation layers and a linear head (folded into the
    last layer's weight, so the last layer, mean-mix or ego-concat,
    propagates at the class width)."""

    def __init__(self, rng, mag: Mag, hidden, num_layers, alpha, dropout, smoothing,
                 variant="mean-mix"):
        super().__init__(dropout, smoothing)
        d_in = sum(dim for _, dim in mag.modalities)
        self.add_linear(rng, "proj", d_in, hidden)
        self.stack = self.add_stack(
            rng, "gnn", GnnStack(num_layers, alpha, hidden_dim=hidden, variant=variant))
        self.add_linear(rng, "head", hidden, mag.num_classes)

    def forward(self, mag, tape=None, rng=None):
        p = self.wrap(tape)
        x = [T.Tensor(mag.features[n], None) for n in mag.modality_names()]   # as column blocks
        h = self.stack.forward(self.encode(p, "proj", x, rng), mag.adjacency, p, "gnn",
                               head=p["head.w"])
        return {"logits": T.add(h, p["head.b"])}


class IndependentAgg(Model):
    """Independent aggregation: one GNN branch per modality, outputs
    concatenated into a shared linear fusion head.  The concat is never
    formed: each branch folds its own row block of the head into its last
    layer, and the branch logits are summed before the one bias."""

    def __init__(self, rng, mag: Mag, hidden, num_layers, alpha, dropout, smoothing):
        super().__init__(dropout, smoothing)
        self.hidden = hidden
        self.stacks = {}
        for name, dim in mag.modalities:
            self.add_linear(rng, f"proj_{name}", dim, hidden)
            self.stacks[name] = self.add_stack(rng, f"gnn_{name}",
                                               GnnStack(num_layers, alpha, hidden_dim=hidden))
        self.add_linear(rng, "head", hidden * len(mag.modalities), mag.num_classes)

    def forward(self, mag, tape=None, rng=None):
        p = self.wrap(tape)
        logits = None
        for i, (name, _dim) in enumerate(mag.modalities):
            h = self.encode(p, f"proj_{name}", T.Tensor(mag.features[name], None), rng)
            block = T.row_select(p["head.w"], np.arange(i * self.hidden, (i + 1) * self.hidden))
            h = self.stacks[name].forward(h, mag.adjacency, p, f"gnn_{name}", head=block)
            logits = h if logits is None else T.add(logits, h)
        return {"logits": T.add(logits, p["head.b"])}

    def branches(self):
        out = {}
        for name in self.stacks:
            out[f"proj_{name}"] = [f"proj_{name}.w", f"proj_{name}.b"]
            out[f"gnn_{name}"] = list(self.stacks[name].param_shapes(f"gnn_{name}"))
        return out
