"""Mean aggregation, the GNN stack built on it, and the structural ego-Jacobian.

The backbone operator mixes a node's own representation (weight alpha)
with the average of its neighbors (weight 1-alpha).  An ego-concat
variant concatenates the two instead of mixing, doubling the weight's
input width; it too transforms first, [H, A_hat H] W = H W_top + A_hat
(H W_bot), so every layer propagates once, at its output width.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .graph import CsrMatrix


def mean_aggregate(h: T.Tensor, adj: CsrMatrix, alpha: float, ego=None) -> T.Tensor:
    """alpha * h + (1-alpha) * neighbor mean, alpha in [0,1); differentiable
    in h.  At alpha = 0 it is the plain neighbor mean, a zero row at isolated
    nodes.  ``adj`` is any square adjacency, its row-normalized copy A_hat the
    mean weights.  One tape node: the product with the cached A_hat (tensor._spmm)
    and, backward, with A_hat^T on the same arrays (tensor._spmm_t).

    ``ego``, a pair (x, w) of linear's operands, adds the self term x @ w (alpha
    must be 0): x @ w + A_hat h, an ego-concat layer's H W_top + A_hat (H W_bot).
    x @ w is formed here and SciPy's kernel adds A_hat h into its array, so the
    sum costs no temporary and the sparse product stays one tape node."""
    if not isinstance(adj, CsrMatrix):
        raise TypeError("mean_aggregate expects a CsrMatrix adjacency")
    if not adj.num_rows == adj.num_cols == h.rows:
        raise ShapeError(f"mean_aggregate: adjacency {adj.num_rows}x{adj.num_cols} "
                         f"vs h {h.data.shape}")
    if not 0.0 <= alpha < 1.0:
        raise ContractError(f"mean_aggregate: alpha must be in [0,1), got {alpha}")
    if ego is not None and alpha:
        raise ContractError(f"mean_aggregate: a self term needs alpha 0, got {alpha}")
    a_hat = adj._norm or adj.row_normalize()    # one row_normalize call per adjacency
    if ego is None:
        return T._op(T._spmm(a_hat, h.data, alpha), (h,), (lambda g: T._spmm_t(a_hat, g, alpha),))
    own = T.linear(*ego)
    if own.data.shape != h.data.shape:
        raise ShapeError(f"mean_aggregate: self term {own.data.shape} vs h {h.data.shape}")
    return T._op(T._spmm_into(a_hat, h.data, own.data), (own, h),
                 (lambda g: g, lambda g: T._spmm_t(a_hat, g)))


class GnnStack:
    """L weighted aggregation layers with ReLU between them (none after the
    last), optionally with a linear head folded into the last layer.  Every
    layer transforms, then propagates once, at its output width: a mean-mix
    layer computes P(HW), an ego-concat layer [H, A_hat H] W as
    H W_top + A_hat (H W_bot), W_top and W_bot the row halves of its weight.
    alpha lies strictly inside (0,1): the analysis this stack is built to
    test excludes the boundaries, where P is a no-op or pure smoothing."""

    def __init__(self, num_layers: int, alpha: float, hidden_dim: int,
                 in_dim=None, variant="mean-mix"):
        if num_layers < 1:
            raise ContractError(f"stack needs at least one layer, got {num_layers}")
        if not 0.0 < alpha < 1.0:
            raise ContractError(f"alpha must be in (0,1), got {alpha}")
        if variant not in ("mean-mix", "ego-concat"):
            raise ContractError(f"unknown variant {variant!r}")
        self.num_layers = num_layers
        self.alpha = alpha
        self.variant = variant
        width = 2 if variant == "ego-concat" else 1
        d_in = in_dim if in_dim is not None else hidden_dim
        self.weight_shapes = [(width * (d_in if i == 0 else hidden_dim), hidden_dim)
                              for i in range(num_layers)]

    def param_shapes(self, prefix: str) -> dict:
        return {f"{prefix}.w{i}": shape for i, shape in enumerate(self.weight_shapes)}

    def forward(self, h: T.Tensor | list, adj: CsrMatrix, params: dict, prefix: str,
                head: T.Tensor | None = None) -> T.Tensor:
        """``h`` is one tensor or a list of column blocks read as their concat.
        With a ``head`` weight (hidden x C) the last layer uses W_last @ head:
        the linear head folded in, so the last layer returns P(H W_last head)
        or its ego-concat form, and its sparse product and backward run at
        width C.  The head's bias is the caller's to add after P, whose rows
        sum to alpha at isolated nodes."""
        for i in range(self.num_layers):
            blocks = [h] if isinstance(h, T.Tensor) else h
            w = params.get(f"{prefix}.w{i}")
            if w is None:
                raise ContractError(f"layer {i} has a weight but none was supplied")
            last = i + 1 == self.num_layers
            if head is not None and last:
                w = T.linear(w, head)
            if self.variant == "ego-concat":
                # H W_top + A_hat (H W_bot); H W_bot is bound to no name, so it is
                # freed once the sum is formed
                d = w.rows // 2
                h = mean_aggregate(T.linear(blocks, T.row_select(w, np.arange(d, 2 * d))), adj,
                                   0.0, ego=(blocks, T.row_select(w, np.arange(d))))
            else:
                # transform before propagate: P(HW) equals (PH)W, and the sparse
                # product runs at the output width, never wider than the input here
                h = mean_aggregate(T.linear(blocks, w), adj, self.alpha)
            if not last:
                h = T.relu(h)
        return h


def ego_jacobian_diag(adj: CsrMatrix, alpha: float, num_layers: int, node: int) -> float:
    """(node, node) entry of P^L, P = alpha*I + (1-alpha)*A_hat: L
    mean_aggregate steps applied to an untaped basis vector.  Equals the
    structural ego-gradient through L linear mean-aggregation layers."""
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0,1), got {alpha}")
    if not 0 <= node < adj.num_rows:
        raise ContractError(f"node {node} out of range [0,{adj.num_rows})")
    v = T.Tensor(np.eye(adj.num_rows, 1, -node))      # the basis vector e_node
    for _ in range(num_layers):
        v = mean_aggregate(v, adj, alpha)
    return float(v.data[node, 0])
