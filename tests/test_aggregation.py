"""Mean aggregation, the GNN stack, the two fusion paradigms, and the ego-Jacobian."""

import numpy as np
import pytest

import fd_checks
from conftest import isolated_node_mag, randomize_params
from magsim import aggregation
from magsim import tensor as T
from magsim.aggregation import GnnStack, ego_jacobian_diag, mean_aggregate
from magsim.errors import ContractError, ShapeError, TapeError
from magsim.graph import (CsrMatrix, Mag, ModalitySpec, SyntheticSpec,
                          generate)
from magsim.models import IndependentAgg, JointGcn
from magsim.validation import autodiff_ego_gradient, directed_chain


def ring_adj(n):
    pairs = np.array([[i, (i + 1) % n] for i in range(n)])
    return CsrMatrix.from_undirected_edges(pairs, n).row_normalize()


def triangle_adj():
    pairs = np.array([[0, 1], [1, 2], [0, 2]])
    return CsrMatrix.from_undirected_edges(pairs, 3).row_normalize()


# ---------------------------------------------------------------------------
# mean_aggregate
# ---------------------------------------------------------------------------

def test_mean_aggregate_fixed_point():
    adj = ring_adj(6)
    h = T.Tensor(np.tile([2.0, -1.0, 3.0], (6, 1)))
    for alpha in (0.2, 0.5, 0.8):
        out = mean_aggregate(h, adj, alpha)
        assert np.max(np.abs(out.data - h.data)) < 1e-12


def test_mean_aggregate_mutual_pair():
    adj = CsrMatrix.from_undirected_edges(np.array([[0, 1]]), 2).row_normalize()
    out = mean_aggregate(T.Tensor([[1.0, 0.0], [0.0, 1.0]]), adj, 0.5)
    assert np.array_equal(out.data, [[0.5, 0.5], [0.5, 0.5]])


def test_mean_aggregate_dense_oracle():
    rng = np.random.default_rng(0)
    adj = ring_adj(8)
    h = rng.standard_normal((8, 3))
    alpha = 0.3
    expected = alpha * h + (1 - alpha) * adj.to_dense() @ h
    out = mean_aggregate(T.Tensor(h), adj, alpha)
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_mean_aggregate_rejects_malformed_adjacency():
    # row-normalized but 2x3: the mixing operator alpha*I + (1-alpha)*A needs a square A
    rect = CsrMatrix(2, 3, [0, 1, 2], [0, 2], [1.0, 1.0], normalized=True)
    with pytest.raises(ShapeError):
        mean_aggregate(T.Tensor(np.ones((3, 2))), rect, 0.5)
    with pytest.raises(ShapeError):
        ego_jacobian_diag(rect, 0.5, 1, 0)
    with pytest.raises(TypeError):
        mean_aggregate(T.Tensor(np.ones((3, 2))), np.eye(3), 0.5)


@pytest.mark.parametrize("alpha", [1.0, -0.1, float("nan"), float("inf")])
def test_alpha_outside_zero_to_one_is_rejected(alpha):
    # the kernel divides by 1-alpha: alpha = 1 must not reach it
    adj = ring_adj(4)
    with pytest.raises(ContractError):
        mean_aggregate(T.Tensor(np.ones((4, 2))), adj, alpha)
    with pytest.raises(ContractError):
        ego_jacobian_diag(adj, alpha, 2, 0)


def test_neighbor_mean_mutual_pair():
    adj = CsrMatrix.from_undirected_edges(np.array([[0, 1]]), 2).row_normalize()
    out = mean_aggregate(T.Tensor([[1.0, 0.0], [0.0, 1.0]]), adj, 0.0)
    assert np.array_equal(out.data, [[0.0, 1.0], [1.0, 0.0]])


def test_neighbor_mean_isolated_node_zero_row():
    adj = CsrMatrix.from_undirected_edges(np.array([[0, 1]]), 3).row_normalize()
    out = mean_aggregate(T.Tensor(np.ones((3, 2))), adj, 0.0)
    assert np.array_equal(out.data[2], [0.0, 0.0])


def test_neighbor_mean_dense_oracle():
    rng = np.random.default_rng(0)
    adj = fd_checks._random_adj(rng, 10)
    h = rng.standard_normal((10, 4))
    out = mean_aggregate(T.Tensor(h), adj, 0.0)
    assert np.max(np.abs(out.data - adj.to_dense() @ h)) < 1e-12


def test_mean_operator_normalizes_a_raw_adjacency():
    # node 4 is isolated; the raw 0/1 adjacency and its row-normalized copy
    # give the same bits, forward and backward, and so does the ego-Jacobian
    raw = CsrMatrix.from_undirected_edges(np.array([[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]]), 5)
    norm = raw.row_normalize()
    assert not raw.normalized and norm.row_normalize() is norm
    g = np.random.default_rng(2).standard_normal((5, 3))
    for alpha in (0.0, 0.3):
        outs = []
        for adj in (raw, norm):
            tape = T.Tape()
            h = T.Tensor(g, tape)
            out = mean_aggregate(h, adj, alpha)
            tape.backward(T.sum_all(T.mul(out, T.Tensor(g))))
            outs.append((out.data, h.grad))
        assert all(np.array_equal(a, b) for a, b in zip(*outs))
    for node in range(5):
        assert np.array_equal(ego_jacobian_diag(raw, 0.3, 3, node),
                              ego_jacobian_diag(norm, 0.3, 3, node))


def test_mean_aggregate_records_one_tape_node():
    tape = T.Tape()
    h = T.Tensor(np.ones((6, 2)), tape)
    before = len(tape)
    mean_aggregate(h, ring_adj(6), 0.4)
    assert len(tape) == before + 1


# ---------------------------------------------------------------------------
# the stack and its layers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["mean-mix", "ego-concat"])
def test_narrowing_layer_transforms_before_propagating(monkeypatch, variant):
    rng = np.random.default_rng(5)
    adj = fd_checks._random_adj(rng, 9)
    h = rng.standard_normal((9, 6))
    stack = GnnStack(1, 0.3, hidden_dim=2, in_dim=6, variant=variant)
    w = rng.standard_normal(stack.weight_shapes[0])
    widths, tape = [], T.Tape()

    def spy(x, a, alpha, **ego):
        widths.append(x.cols)
        return mean_aggregate(x, a, alpha, **ego)

    monkeypatch.setattr(aggregation, "mean_aggregate", spy)
    before = len(tape)
    out = stack.forward(T.Tensor(h, tape), adj, {"g.w0": T.Tensor(w, tape)}, "g")
    assert widths == [2]        # one sparse product, at the output width
    if variant == "mean-mix":   # P(HW) == (PH)W
        expected = (0.3 * np.eye(9) + 0.7 * adj.to_dense()) @ h @ w
        assert len(tape) - before == 2                  # linear, mean_aggregate
    else:                       # H W_top + A_hat (H W_bot) == [H, A_hat H] W
        expected = np.hstack([h, adj.to_dense() @ h]) @ w
        assert len(tape) - before == 5                  # 2 row_select, 2 linear, mean_aggregate
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_layer_alpha_bounds():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ContractError):
            GnnStack(1, bad, hidden_dim=2)


def test_layer_unknown_variant():
    with pytest.raises(ContractError):
        GnnStack(1, 0.5, hidden_dim=2, variant="gat")


def test_ego_concat_doubles_width():
    stack = GnnStack(1, 0.5, hidden_dim=3, in_dim=4, variant="ego-concat")
    assert stack.param_shapes("g") == {"g.w0": (8, 3)}
    assert GnnStack(1, 0.5, hidden_dim=3, in_dim=4).param_shapes("g") == {"g.w0": (4, 3)}


def test_layer_missing_weight_errors():
    stack = GnnStack(1, 0.5, hidden_dim=2)
    adj = CsrMatrix.from_undirected_edges(np.array([[0, 1]]), 2).row_normalize()
    with pytest.raises(ContractError):
        stack.forward(T.Tensor(np.ones((2, 2))), adj, {}, "g")


def test_folded_head_propagates_at_class_width(monkeypatch):
    rng = np.random.default_rng(6)
    adj = fd_checks._random_adj(rng, 9)
    stack = GnnStack(2, 0.3, hidden_dim=6, in_dim=5)
    params = {k: T.Tensor(rng.standard_normal(s)) for k, s in stack.param_shapes("g").items()}
    head = T.Tensor(rng.standard_normal((6, 2)))
    h = T.Tensor(rng.standard_normal((9, 5)))
    widths = []

    def spy(x, a, alpha):
        widths.append(x.cols)
        return mean_aggregate(x, a, alpha)

    monkeypatch.setattr(aggregation, "mean_aggregate", spy)
    folded = stack.forward(h, adj, params, "g", head=head).data
    assert widths == [6, 2]                        # the last product at width C
    unfolded = stack.forward(h, adj, params, "g").data @ head.data
    assert np.max(np.abs(folded - unfolded)) < 1e-12


def test_stack_needs_a_layer():
    with pytest.raises(ContractError):
        GnnStack(0, 0.5, hidden_dim=2)


def test_stack_param_shapes_chain_dimensions():
    stack = GnnStack(3, 0.5, hidden_dim=8, in_dim=20)
    shapes = stack.param_shapes("gnn")
    assert shapes == {"gnn.w0": (20, 8), "gnn.w1": (8, 8), "gnn.w2": (8, 8)}


# ---------------------------------------------------------------------------
# joint and independent paradigms
# ---------------------------------------------------------------------------

def _single_modality_mag():
    spec = SyntheticSpec(60, 3, [ModalitySpec("text", 6, 1.0, 0.2)],
                         homophily=0.7, mean_degree=4, seed=8)
    return generate(spec)


def test_joint_single_modality_is_plain_gcn():
    mag = _single_modality_mag()
    rng = np.random.default_rng(0)
    model = JointGcn(rng, mag, hidden=8, num_layers=2, alpha=0.5, dropout=0.0,
                     smoothing=0.1)
    out = model.forward(mag)
    assert out["logits"].data.shape == (60, 3)


def test_joint_branch_grad_norms_need_backward():
    mag = _single_modality_mag()
    model = JointGcn(np.random.default_rng(0), mag, hidden=8, num_layers=2, alpha=0.5,
                     dropout=0.0, smoothing=0.1)
    with pytest.raises(TapeError):
        model.branch_grad_norms()
    model.forward(mag, T.Tape())
    with pytest.raises(TapeError):
        model.branch_grad_norms()


def test_joint_identical_rows_give_identical_logits():
    mag = _single_modality_mag()
    const = np.tile(mag.features["text"][0], (60, 1))
    mag = mag.with_features({"text": const})
    rng = np.random.default_rng(1)
    model = JointGcn(rng, mag, hidden=8, num_layers=2, alpha=0.5, dropout=0.0,
                     smoothing=0.1)
    # smoothing has a fixed point on row-constant input, except where
    # isolated nodes receive a zero neighbor mean
    active = mag.adjacency.degrees > 0
    logits = model.forward(mag)["logits"].data[active]
    assert np.max(np.abs(logits - logits[0])) < 1e-10


def _two_modality_mag():
    spec = SyntheticSpec(50, 3, [ModalitySpec("a", 5, 1.0, 0.3),
                                 ModalitySpec("b", 5, 1.0, 0.3)],
                         homophily=0.7, mean_degree=4, seed=13)
    return generate(spec)


def test_independent_branch_symmetry():
    mag = _two_modality_mag()
    # identical features and identical branch parameters
    mag = mag.with_features({"a": mag.features["a"], "b": mag.features["a"]})
    model = IndependentAgg(np.random.default_rng(2), mag, hidden=6,
                           num_layers=2, alpha=0.5, dropout=0.0, smoothing=0.1)
    for pname in list(model.params):
        if pname.endswith("_b.w") or pname.endswith("_b.b"):
            model.params[pname][...] = model.params[pname.replace("_b.", "_a.")]
        if pname.startswith("gnn_b."):
            model.params[pname][...] = model.params["gnn_a." + pname.split(".")[1]]
    p = model.wrap(None)
    outs = []
    for name in ("a", "b"):
        h = T.relu(T.add(T.linear(T.Tensor(mag.features[name], None),
                                  p[f"proj_{name}.w"]), p[f"proj_{name}.b"]))
        h = model.stacks[name].forward(h, mag.adjacency, p, f"gnn_{name}")
        outs.append(h.data)
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-12


def test_independent_head_additivity():
    mag = _two_modality_mag()
    model = IndependentAgg(np.random.default_rng(3), mag, hidden=6,
                           num_layers=1, alpha=0.5, dropout=0.0, smoothing=0.1)
    full = model.forward(mag)["logits"].data
    model.params["head.w"][:6, :] = 0.0     # zero branch a's slice of the head
    only_b = model.forward(mag)["logits"].data
    model.params["head.w"][6:, :] = 0.0     # now both slices zero: bias only
    bias_only = model.forward(mag)["logits"].data
    contrib_a = full - only_b
    assert np.max(np.abs((only_b - bias_only) + contrib_a + bias_only - full)) < 1e-10


def test_independent_dense_oracle():
    mag = _two_modality_mag()
    model = IndependentAgg(np.random.default_rng(4), mag, hidden=6,
                           num_layers=1, alpha=0.4, dropout=0.0, smoothing=0.1)
    logits = model.forward(mag)["logits"].data

    dense = mag.adjacency.row_normalize().to_dense()
    outs = []
    for name in ("a", "b"):
        h = mag.features[name] @ model.params[f"proj_{name}.w"] + model.params[f"proj_{name}.b"]
        h = np.maximum(h, 0.0)
        h = (0.4 * h + 0.6 * dense @ h) @ model.params[f"gnn_{name}.w0"]
        outs.append(h)
    expected = np.concatenate(outs, axis=1) @ model.params["head.w"] + model.params["head.b"]
    assert np.max(np.abs(logits - expected)) < 1e-10


@pytest.mark.parametrize("variant", ["mean-mix", "ego-concat"])
def test_joint_folded_head_equals_unfolded(variant):
    # gcn-joint and sage-concat; node 0 is isolated, so a head bias added
    # before P (scaled by alpha there) would show
    mag = isolated_node_mag()
    model = JointGcn(np.random.default_rng(0), mag, hidden=6, num_layers=2, alpha=0.4,
                     dropout=0.0, smoothing=0.1, variant=variant)
    randomize_params(model, seed=1)
    logits = model.forward(mag)["logits"].data
    x = np.concatenate([mag.features[n] for n in mag.modality_names()], axis=1)
    h = np.maximum(x @ model.params["proj.w"] + model.params["proj.b"], 0.0)
    z = model.stack.forward(T.Tensor(h), mag.adjacency, model.wrap(None), "gnn").data
    expected = z @ model.params["head.w"] + model.params["head.b"]
    assert np.max(np.abs(logits - expected)) < 1e-12


def test_independent_folded_head_equals_unfolded():
    mag = isolated_node_mag()
    model = IndependentAgg(np.random.default_rng(0), mag, hidden=6, num_layers=2,
                           alpha=0.4, dropout=0.0, smoothing=0.1)
    randomize_params(model, seed=2)
    logits = model.forward(mag)["logits"].data
    p, outs = model.wrap(None), []
    for name, _dim in mag.modalities:
        h = np.maximum(mag.features[name] @ model.params[f"proj_{name}.w"]
                       + model.params[f"proj_{name}.b"], 0.0)
        outs.append(model.stacks[name].forward(T.Tensor(h), mag.adjacency, p, f"gnn_{name}").data)
    expected = np.concatenate(outs, axis=1) @ model.params["head.w"] + model.params["head.b"]
    assert np.max(np.abs(logits - expected)) < 1e-12


# ---------------------------------------------------------------------------
# ego-Jacobian
# ---------------------------------------------------------------------------

def test_ego_jacobian_chain_alpha_cubed():
    adj = directed_chain(10)
    assert abs(ego_jacobian_diag(adj, 0.5, 3, 0) - 0.125) < 1e-15


def test_ego_jacobian_single_layer_is_alpha():
    for adj in (ring_adj(5), triangle_adj()):
        for alpha in (0.3, 0.7):
            assert abs(ego_jacobian_diag(adj, alpha, 1, 0) - alpha) < 1e-15


def test_ego_jacobian_triangle_two_layers():
    # dense 3x3 matrix-power oracle: diag of (alpha*I + (1-alpha)*A_hat)^2
    adj = triangle_adj()
    B = 0.5 * np.eye(3) + 0.5 * adj.to_dense()
    expected = (B @ B)[0, 0]
    assert abs(expected - 0.375) < 1e-15   # alpha^2 + (1-alpha)^2 * 1/2
    assert abs(ego_jacobian_diag(adj, 0.5, 2, 0) - expected) < 1e-15


def test_ego_jacobian_dag_alpha_power():
    rng = np.random.default_rng(0)
    adj = directed_chain(30)
    for _ in range(10):
        alpha = float(rng.uniform(0.05, 0.95))
        L = int(rng.integers(1, 6))
        assert abs(ego_jacobian_diag(adj, alpha, L, 0) - alpha ** L) < 1e-12


def test_ego_jacobian_errors():
    adj = directed_chain(5)
    with pytest.raises(ContractError):
        ego_jacobian_diag(adj, 1.0, 2, 0)
    with pytest.raises(ContractError):
        ego_jacobian_diag(adj, 0.5, 2, 9)


def test_autodiff_matches_structural_jacobian():
    adj = directed_chain(20)
    for alpha in (0.3, 0.9):
        for L in (1, 3):
            structural = ego_jacobian_diag(adj, alpha, L, 0)
            measured = autodiff_ego_gradient(adj, alpha, L, 0)
            assert abs(measured - structural) < 1e-10


def test_autodiff_ego_gradient_with_cycles():
    # on a cyclic graph the structural diagonal exceeds alpha^L; the
    # autodiff pass must still match it exactly
    adj = triangle_adj()
    structural = ego_jacobian_diag(adj, 0.5, 2, 0)
    measured = autodiff_ego_gradient(adj, 0.5, 2, 0)
    assert abs(measured - structural) < 1e-12
    assert structural > 0.25
