"""Mean-aggregation layers and stack, plus the structural ego-Jacobian.

The backbone operator mixes a node's own representation (weight alpha)
with the average of its neighbors (weight 1-alpha).  An ego-concat
variant concatenates the two instead of mixing, doubling the
pre-transform width.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .graph import CsrMatrix


def mean_aggregate(h: T.Tensor, adj: CsrMatrix, alpha: float) -> T.Tensor:
    """alpha * h + (1-alpha) * neighbor mean; differentiable in h.

    One product with the adjacency's cached operator P = alpha*I +
    (1-alpha)*A_hat, recorded as one tape node whose backward is P^T @ g."""
    if not isinstance(adj, CsrMatrix):
        raise TypeError("mean_aggregate expects a CsrMatrix adjacency")
    if adj.num_cols != h.rows:
        raise ShapeError(f"mean_aggregate: adjacency {adj.num_rows}x{adj.num_cols} "
                         f"vs h {h.data.shape}")
    p, p_t = adj.mix_operator(alpha)
    return T._op(p @ h.data, (h,), (lambda g: p_t @ g,))


class MeanAggLayer:
    """One aggregation step, optionally followed by a linear transform.

    alpha must lie strictly inside (0,1); the boundary cases make the
    operator either a no-op or pure smoothing and are excluded from the
    analysis this layer is built to test.
    """

    def __init__(self, alpha: float, in_dim=None, out_dim=None, variant="mean-mix"):
        if not 0.0 < alpha < 1.0:
            raise ContractError(f"alpha must be in (0,1), got {alpha}")
        if variant not in ("mean-mix", "ego-concat"):
            raise ContractError(f"unknown variant {variant!r}")
        self.alpha = alpha
        self.variant = variant
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.has_weight = in_dim is not None and out_dim is not None

    def weight_shape(self):
        if not self.has_weight:
            return None
        width = 2 * self.in_dim if self.variant == "ego-concat" else self.in_dim
        return (width, self.out_dim)

    def forward(self, h: T.Tensor, adj: CsrMatrix, weight: T.Tensor | None = None) -> T.Tensor:
        if self.has_weight and weight is None:
            raise ContractError("layer has a weight but none was supplied")
        if self.variant == "ego-concat":
            mixed = T.concat_cols([h, T.spmm(adj, h)])
            return T.matmul(mixed, weight) if self.has_weight else mixed
        # transform before propagate: P(HW) equals (PH)W, and the sparse
        # product runs at the output width, never wider than the input here
        return mean_aggregate(T.matmul(h, weight) if self.has_weight else h,
                              adj, self.alpha)


class GnnStack:
    """L aggregation layers with ReLU between them (none after the last),
    optionally with a linear head folded into the last layer."""

    def __init__(self, num_layers: int, alpha: float, hidden_dim=None,
                 in_dim=None, variant="mean-mix"):
        if num_layers < 1:
            raise ContractError(f"stack needs at least one layer, got {num_layers}")
        self.num_layers = num_layers
        self.alpha = alpha
        self.variant = variant
        self.layers = []
        for i in range(num_layers):
            if hidden_dim is None:
                self.layers.append(MeanAggLayer(alpha, variant=variant))
            else:
                d_in = in_dim if (i == 0 and in_dim is not None) else hidden_dim
                self.layers.append(MeanAggLayer(alpha, d_in, hidden_dim, variant))

    def param_shapes(self, prefix: str) -> dict:
        return {f"{prefix}.w{i}": layer.weight_shape()
                for i, layer in enumerate(self.layers) if layer.has_weight}

    def forward(self, h: T.Tensor, adj: CsrMatrix, params: dict, prefix: str,
                activation: bool = True, head: T.Tensor | None = None) -> T.Tensor:
        """With a ``head`` weight (hidden x C) the last layer uses W_last @ head:
        the linear head folded in, so a mean-mix layer returns P(H W_last head)
        and its sparse product and backward run at width C.  The head's bias
        is the caller's to add after P, whose rows sum to alpha at isolated
        nodes."""
        for i, layer in enumerate(self.layers):
            w = params.get(f"{prefix}.w{i}")
            if head is not None and i + 1 == self.num_layers:
                if w is None:
                    raise ContractError("a folded head needs a weighted last layer")
                w = T.matmul(w, head)
            h = layer.forward(h, adj, w)
            if activation and i + 1 < self.num_layers:
                h = T.relu(h)
        return h


def ego_jacobian_diag(adj: CsrMatrix, alpha: float, num_layers: int, node: int) -> float:
    """(node, node) entry of P^L, P = alpha*I + (1-alpha)*A_hat, via L
    products of the cached operator with a basis vector.  Equals the
    structural ego-gradient through L linear mean-aggregation layers."""
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0,1), got {alpha}")
    if not 0 <= node < adj.num_rows:
        raise ContractError(f"node {node} out of range [0,{adj.num_rows})")
    p, _ = adj.mix_operator(alpha)
    v = np.zeros(adj.num_rows)
    v[node] = 1.0
    for _ in range(num_layers):
        v = p @ v
    return float(v[node])
