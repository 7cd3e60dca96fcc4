"""Finite-difference gradient harness shared by the tensor tests and the
acceptance suite.

Each case builds random inputs and a scalar-valued composition exercising
one op, runs the tape backward once, and compares every input gradient
against central finite differences of the recomputed scalar.
"""

import numpy as np

from magsim import tensor as T
from magsim.aggregation import GnnStack, mean_aggregate
from magsim.graph import CsrMatrix


def _random_adj(rng, n):
    """Random row-normalized adjacency with at least one edge."""
    while True:
        pairs = set()
        for _ in range(rng.integers(n, 3 * n)):
            a, b = rng.integers(0, n, 2)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        if pairs:
            break
    arr = np.array(sorted(pairs), dtype=np.int64)
    return CsrMatrix.from_undirected_edges(arr, n).row_normalize()


def _away_from_kink(rng, shape, margin=0.05):
    """Standard normal values resampled to keep |x| > margin (ReLU-safe)."""
    x = rng.standard_normal(shape)
    x = np.where(np.abs(x) < margin, margin * np.sign(x) + (x == 0) * margin, x)
    return x


def _case_matmul(rng):
    # linear without a bias: the plain product a @ b
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    c = rng.standard_normal((3, 2))

    def run(p, tape):
        return T.sum_all(T.mul(T.linear(p["a"], p["b"]), T.Tensor(c, None)))

    return {"a": a, "b": b}, run


def _case_neighbor_mean(rng):
    # alpha = 0 and no self term: the plain neighbor mean
    adj = _random_adj(rng, 6)
    h = rng.standard_normal((6, 3))
    c = rng.standard_normal((6, 3))

    def run(p, tape):
        return T.sum_all(T.mul(mean_aggregate(p["h"], adj, 0.0), T.Tensor(c, None)))

    return {"h": h}, run


def _case_mean_aggregate(rng):
    adj = _random_adj(rng, 6)
    alpha = float(rng.uniform(0.1, 0.9))
    h = rng.standard_normal((6, 3))
    c = rng.standard_normal((6, 3))

    def run(p, tape):
        return T.sum_all(T.mul(mean_aggregate(p["h"], adj, alpha), T.Tensor(c, None)))

    return {"h": h}, run


def _case_mean_aggregate_directed(rng):
    # a directed chain i -> i+1 with skip links i -> i+2 and unequal weights:
    # not symmetric, so the backward reads a separately transposed A_hat^T;
    # the last node has no out-edge
    n = 6
    pattern = [[j for j in (i + 1, i + 2) if j < n] for i in range(n)]
    offsets = np.cumsum([0] + [len(cols) for cols in pattern])
    adj = CsrMatrix(n, n, offsets, sum(pattern, []), rng.uniform(0.5, 2.0, offsets[-1]))
    alpha = float(rng.uniform(0.1, 0.9))
    h = rng.standard_normal((n, 3))
    c = rng.standard_normal((n, 3))

    def run(p, tape):
        return T.sum_all(T.mul(mean_aggregate(p["h"], adj, alpha), T.Tensor(c, None)))

    return {"h": h}, run


def _layer_case(rng, alpha, in_dim, out_dim, variant="mean-mix"):
    """A one-layer weighted stack, gradients in both h and the weight."""
    adj = _random_adj(rng, 6)
    stack = GnnStack(1, alpha, hidden_dim=out_dim, in_dim=in_dim, variant=variant)
    h = rng.standard_normal((6, in_dim))
    w = rng.standard_normal(stack.weight_shapes[0])
    c = rng.standard_normal((6, out_dim))

    def run(p, tape):
        out = stack.forward(p["h"], adj, {"g.w0": p["w"]}, "g")
        return T.sum_all(T.mul(out, T.Tensor(c, None)))

    return {"h": h, "w": w}, run


def _case_narrowing_layer(rng):
    # out_dim < in_dim: the layer propagates after the weight, P(HW)
    return _layer_case(rng, float(rng.uniform(0.1, 0.9)), 5, 2)


def _case_ego_concat_layer(rng):
    return _layer_case(rng, 0.5, 3, 2, variant="ego-concat")


def _folded_head_case(rng, variant):
    """A 2-layer stack with a C=2 head folded into its last layer: gradients
    reach both layer weights and the head through W1 @ head."""
    adj = _random_adj(rng, 6)
    stack = GnnStack(2, float(rng.uniform(0.1, 0.9)), hidden_dim=4, in_dim=3, variant=variant)
    x = rng.standard_normal((6, 3))
    c = rng.standard_normal((6, 2))
    arrays = {"w0": rng.standard_normal(stack.weight_shapes[0]),
              "w1": rng.standard_normal(stack.weight_shapes[1]),
              "head": rng.standard_normal((4, 2))}

    def run(p, tape):
        params = {"gnn.w0": p["w0"], "gnn.w1": p["w1"]}
        out = stack.forward(T.Tensor(x, None), adj, params, "gnn", head=p["head"])
        return T.sum_all(T.mul(out, T.Tensor(c, None)))

    return arrays, run


def _case_folded_head(rng):
    return _folded_head_case(rng, "mean-mix")


def _case_ego_concat_folded_head(rng):
    # H W_top + A_hat (H W_bot) in each layer, the self term fused into the
    # sparse product: gradients reach both row halves of each weight and the head
    return _folded_head_case(rng, "ego-concat")


def _case_relu(rng):
    x = _away_from_kink(rng, (4, 5))
    c = rng.standard_normal((4, 5))

    def run(p, tape):
        return T.sum_all(T.mul(T.relu(p["x"]), T.Tensor(c, None)))

    return {"x": x}, run


def _case_add(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    c = rng.standard_normal((3, 4))

    def run(p, tape):
        return T.sum_all(T.mul(T.add(p["a"], p["b"]), T.Tensor(c, None)))

    return {"a": a, "b": b}, run


def _case_add_bias(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((1, 4))
    c = rng.standard_normal((3, 4))

    def run(p, tape):
        return T.sum_all(T.mul(T.add(p["a"], p["b"]), T.Tensor(c, None)))

    return {"a": a, "b": b}, run


def _case_linear(rng):
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal((1, 4))
    c = rng.standard_normal((5, 4))

    def run(p, tape):
        return T.sum_all(T.mul(T.linear(p["x"], p["w"], p["b"]), T.Tensor(c, None)))

    return {"x": x, "w": w, "b": b}, run


def _case_scale(rng):
    x = rng.standard_normal((4, 3))
    k = float(rng.uniform(-2, 2))
    c = rng.standard_normal((4, 3))

    def run(p, tape):
        return T.sum_all(T.mul(T.scale(p["x"], k), T.Tensor(c, None)))

    return {"x": x}, run


def _case_mul(rng):
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((3, 5))

    def run(p, tape):
        return T.sum_all(T.mul(p["a"], p["b"]))

    return {"a": a, "b": b}, run


def _block_linear_case(rng, bias):
    """linear over two column blocks, standing for their concat."""
    a = rng.standard_normal((4, 2))
    b = rng.standard_normal((4, 3))
    w = rng.standard_normal((5, 3))
    c = rng.standard_normal((4, 3))
    arrays = {"a": a, "b": b, "w": w}
    if bias:
        arrays["bias"] = rng.standard_normal((1, 3))

    def run(p, tape):
        out = T.linear([p["a"], p["b"]], p["w"], p.get("bias"))
        return T.sum_all(T.mul(out, T.Tensor(c, None)))

    return arrays, run


def _case_linear_blocks(rng):
    return _block_linear_case(rng, bias=True)


def _case_linear_blocks_no_bias(rng):
    return _block_linear_case(rng, bias=False)


def _case_row_select(rng):
    x = rng.standard_normal((6, 3))
    idx = rng.integers(0, 6, 8)         # repeats exercise grad accumulation
    c = rng.standard_normal((8, 3))

    def run(p, tape):
        return T.sum_all(T.mul(T.row_select(p["x"], idx), T.Tensor(c, None)))

    return {"x": x}, run


def _case_dropout(rng):
    # the encoder block: dropout(relu(x @ w + b)), every pre-activation away
    # from the kink, differentiated in x, w and b
    while True:
        x, w, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal((1, 4))
        if np.abs(x @ w + b).min() > 0.05:
            break
    c = rng.standard_normal((5, 4))
    mask_seed = int(rng.integers(0, 2**31))

    def run(p, tape):
        drop_rng = np.random.default_rng(mask_seed)   # same mask every call
        return T.sum_all(T.mul(T.dense(p["x"], p["w"], p["b"], 0.4, drop_rng),
                               T.Tensor(c, None)))

    return {"x": x, "w": w, "b": b}, run


def _case_sum_all(rng):
    x = rng.standard_normal((3, 7))

    def run(p, tape):
        return T.sum_all(p["x"])

    return {"x": x}, run


def _case_cross_entropy(rng):
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, 5)
    s = float(rng.uniform(0, 0.3))

    def run(p, tape):
        return T.cross_entropy_smoothed(p["logits"], labels, s, np.arange(5))

    return {"logits": logits}, run


def _case_mlp_composite(rng):
    x = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, 6)
    w1 = rng.standard_normal((3, 5))
    b1 = rng.standard_normal((1, 5))
    w2 = rng.standard_normal((5, 3))
    b2 = rng.standard_normal((1, 3))

    def run(p, tape):
        h = T.relu(T.add(T.linear(T.Tensor(x, None), p["w1"]), p["b1"]))
        logits = T.add(T.linear(h, p["w2"]), p["b2"])
        return T.cross_entropy_smoothed(logits, labels, 0.1, np.arange(6))

    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}, run


ALL_CASES = {
    "matmul": _case_matmul,
    "neighbor-mean": _case_neighbor_mean,
    "mean_aggregate": _case_mean_aggregate,
    "mean_aggregate-directed": _case_mean_aggregate_directed,
    "mean-agg-layer-narrowing": _case_narrowing_layer,
    "ego-concat-layer": _case_ego_concat_layer,
    "folded-head": _case_folded_head,
    "ego-concat-folded-head": _case_ego_concat_folded_head,
    "relu": _case_relu,
    "add": _case_add,
    "add-bias": _case_add_bias,
    "linear": _case_linear,
    "scale": _case_scale,
    "mul": _case_mul,
    "linear-blocks": _case_linear_blocks,
    "linear-blocks-no-bias": _case_linear_blocks_no_bias,
    "row_select": _case_row_select,
    "dropout": _case_dropout,
    "sum_all": _case_sum_all,
    "cross_entropy": _case_cross_entropy,
    "mlp-composite": _case_mlp_composite,
}


def autodiff_grads(arrays, run):
    tape = T.Tape()
    wrapped = {k: T.Tensor(v.copy(), tape) for k, v in arrays.items()}
    loss = run(wrapped, tape)
    tape.backward(loss)
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in wrapped.items()}


def numeric_grads(arrays, run, h=1e-5):
    grads = {}
    for name, base in arrays.items():
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            hi = {k: v.copy() for k, v in arrays.items()}
            lo = {k: v.copy() for k, v in arrays.items()}
            hi[name][ix] += h
            lo[name][ix] -= h
            f_hi = float(run({k: T.Tensor(v, None) for k, v in hi.items()}, None).data[0, 0])
            f_lo = float(run({k: T.Tensor(v, None) for k, v in lo.items()}, None).data[0, 0])
            g[ix] = (f_hi - f_lo) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_error(case_name, seed):
    arrays, run = ALL_CASES[case_name](np.random.default_rng(seed))
    ad = autodiff_grads(arrays, run)
    fd = numeric_grads(arrays, run)
    worst = 0.0
    for name in arrays:
        denom = max(float(np.linalg.norm(fd[name])), 1e-8)
        worst = max(worst, float(np.linalg.norm(ad[name] - fd[name])) / denom)
    return worst
