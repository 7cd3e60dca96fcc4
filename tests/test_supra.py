"""Dual-pathway model: pooling, routing variants, objective."""

import numpy as np
import pytest

from conftest import isolated_node_mag, randomize_params, three_node_mag
from magsim import tensor as T
from magsim.errors import ContractError, TapeError
from magsim.experiments import TrainConfig
from magsim.graph import ModalitySpec, SyntheticSpec, generate
from magsim.supra import SupraModel


def build(mag, seed=0, **kwargs):
    kwargs = {"hidden": 6, "num_layers": 2, "alpha": 0.5, "dropout": 0.0,
              "smoothing": 0.1, "lambda_aux": 0.0, "variant": "full", **kwargs}
    return SupraModel(np.random.default_rng(seed), mag, **kwargs)


def unfolded_synergy_logits(model, mag, out):
    """stack(h_s) @ W_head + b with head_s kept out of the stack: the
    reference for the folded synergy pathway's ``synergy_logits``."""
    h_s = T.Tensor(np.concatenate([out["z_unique"][name].data for name, _ in model.modalities],
                                  axis=1))
    z_s = model.stack.forward(h_s, mag.adjacency, model.wrap(None), "synergy")
    return z_s.data @ model.params["head_s.w"] + model.params["head_s.b"]


def small_two_modality(seed=21):
    spec = SyntheticSpec(80, 3, [ModalitySpec("text", 5, 1.0, 0.2),
                                 ModalitySpec("visual", 7, 1.0, 0.4)],
                         homophily=0.7, mean_degree=4, seed=seed)
    return generate(spec)


# ---------------------------------------------------------------------------
# pooling and routing
# ---------------------------------------------------------------------------

def test_pooled_head_arithmetic():
    # ([3,0] + [0,3] + [0,0]) / 3 = [1,1]
    heads = [np.array([[3.0, 0.0]]), np.array([[0.0, 3.0]]), np.array([[0.0, 0.0]])]
    assert np.array_equal(sum(heads) / 3, [[1.0, 1.0]])


def test_forward_pooling_identity():
    mag = small_two_modality()
    model = build(mag)
    out = model.forward(mag)
    n_heads = len(mag.modalities) + 1
    head_s = unfolded_synergy_logits(model, mag, out)
    assert np.max(np.abs(out["synergy_logits"].data - head_s)) < 1e-12
    pooled = head_s.copy()
    for name, _ in mag.modalities:
        pooled += out["aux_logits"][name].data
    pooled /= n_heads
    assert np.max(np.abs(out["logits"].data - pooled)) < 1e-12


def test_synergy_only_logits_are_synergy_head():
    mag = small_two_modality()
    model = build(mag, variant="synergy-only")
    out = model.forward(mag)
    head_s = unfolded_synergy_logits(model, mag, out)
    assert np.max(np.abs(out["logits"].data - head_s)) < 1e-12


@pytest.mark.parametrize("variant", ["full", "base", "synergy-only"])
def test_folded_synergy_head_equals_unfolded(variant):
    # node 0 is isolated, so a head_s bias added before P (scaled by alpha
    # there) would show
    mag = isolated_node_mag()
    model = build(mag, variant=variant, lambda_aux=0.7)
    randomize_params(model, seed=3)
    out = model.forward(mag)
    head_s = unfolded_synergy_logits(model, mag, out)
    assert np.max(np.abs(out["synergy_logits"].data - head_s)) < 1e-12
    if variant == "synergy-only":
        expected = head_s
    else:
        expected = (head_s + sum(out["aux_logits"][n].data for n, _ in mag.modalities)) / 3
    assert np.max(np.abs(out["logits"].data - expected)) < 1e-12


def test_modality_permutation_symmetry():
    # swapping modality order (names, dims, features, matching params)
    # must leave the pooled logits unchanged up to concat ordering
    mag = small_two_modality()
    model = build(mag, seed=5)
    out_a = model.forward(mag)["logits"].data

    swapped = mag.with_features(dict(mag.features))
    swapped.modalities = list(reversed(mag.modalities))
    model_b = build(swapped, seed=6)
    for name, _ in mag.modalities:
        for suffix in (".w", ".b"):
            model_b.params[f"proj_{name}{suffix}"][...] = model.params[f"proj_{name}{suffix}"]
            model_b.params[f"head_{name}{suffix}"][...] = model.params[f"head_{name}{suffix}"]
    model_b.params["head_s.w"][...] = model.params["head_s.w"]
    model_b.params["head_s.b"][...] = model.params["head_s.b"]
    # the synergy input concat is reordered: permute the first weight's rows
    d = 6                      # build's projection width
    w0 = model.params["synergy.w0"]
    model_b.params["synergy.w0"][...] = np.concatenate([w0[d:], w0[:d]], axis=0)
    for i in range(1, model.stack.num_layers):
        model_b.params[f"synergy.w{i}"][...] = model.params[f"synergy.w{i}"]
    out_b = model_b.forward(swapped)["logits"].data
    assert np.max(np.abs(out_a - out_b)) < 1e-12


# ---------------------------------------------------------------------------
# synergy sizing
# ---------------------------------------------------------------------------

def test_synergy_width_is_total_projection_width():
    mag = small_two_modality()
    model = build(mag, hidden=6)
    assert model.params["synergy.w0"].shape == (12, 6)
    assert model.params["synergy.w1"].shape == (6, 6)


def test_synergy_param_count_invariant_to_raw_dims():
    small = small_two_modality()
    big_spec = SyntheticSpec(80, 3, [ModalitySpec("text", 50, 1.0, 0.2),
                                     ModalitySpec("visual", 70, 1.0, 0.4)],
                             homophily=0.7, mean_degree=4, seed=22)
    big = generate(big_spec)
    a = build(small, hidden=6).synergy_param_count()
    b = build(big, hidden=6).synergy_param_count()
    assert a == b > 0


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _loss_parts(mag, **kwargs):
    model = build(mag, **kwargs)
    tape = T.Tape()
    out = model.forward(mag, tape)
    losses = model.loss(out, mag.labels, mag.splits["train"])
    return model, tape, losses


def test_negative_lambda_rejected():
    with pytest.raises(ContractError):
        TrainConfig(kind="supra", supra_variant="full", lambda_aux=-0.1)


def test_lambda_zero_total_equals_task():
    mag = small_two_modality()
    _, _, losses = _loss_parts(mag, lambda_aux=0.0)
    assert losses["total"].data[0, 0] == losses["task"].data[0, 0]


@pytest.mark.parametrize("variant", ["base", "synergy-only"])
def test_lambda_applies_only_to_full_variant(variant):
    mag = small_two_modality()
    _, _, losses = _loss_parts(mag, lambda_aux=0.9, variant=variant)
    assert losses["aux"] and all(a.data[0, 0] > 0 for a in losses["aux"].values())
    assert losses["total"].data[0, 0] == losses["task"].data[0, 0]


def test_objective_arithmetic():
    mag = small_two_modality()
    _, _, losses = _loss_parts(mag, lambda_aux=0.7)
    aux_sum = sum(a.data[0, 0] for a in losses["aux"].values())
    expected = losses["task"].data[0, 0] + 0.7 * aux_sum
    assert abs(losses["total"].data[0, 0] - expected) < 1e-12
    # worked example: task 0.5 plus 0.7 * aux 1.0 gives 1.2
    assert abs(0.5 + 0.7 * 1.0 - 1.2) < 1e-15


def test_aux_path_reaches_projector_without_gnn():
    # zero the synergy head so the task path contributes nothing through
    # the GNN output; the aux losses must still move the projectors
    mag = small_two_modality()
    model = build(mag, lambda_aux=0.7)
    model.params["head_s.w"][...] = 0.0
    model.params["head_s.b"][...] = 0.0
    tape = T.Tape()
    out = model.forward(mag, tape)
    losses = model.loss(out, mag.labels, mag.splits["train"])
    tape.backward(losses["total"])
    norms = model.branch_grad_norms()
    assert norms["proj_text"] > 0
    assert norms["proj_visual"] > 0


def test_identical_modalities_give_identical_aux_grads():
    spec = SyntheticSpec(80, 3, [ModalitySpec("text", 5, 1.0, 0.2),
                                 ModalitySpec("visual", 5, 1.0, 0.4)],
                         homophily=0.7, mean_degree=4, seed=24)
    mag = generate(spec)
    mag = mag.with_features({"text": mag.features["text"],
                             "visual": mag.features["text"]})
    model = build(mag, lambda_aux=0.7, seed=9)
    for suffix in (".w", ".b"):
        model.params[f"proj_visual{suffix}"][...] = model.params[f"proj_text{suffix}"]
        model.params[f"head_visual{suffix}"][...] = model.params[f"head_text{suffix}"]
    d = 6                      # build's projection width
    w0 = model.params["synergy.w0"]
    w0[d:, :] = w0[:d, :]
    tape = T.Tape()
    out = model.forward(mag, tape)
    losses = model.loss(out, mag.labels, mag.splits["train"])
    tape.backward(losses["total"])
    g = model.grads()
    assert np.max(np.abs(g["proj_text.w"] - g["proj_visual.w"])) < 1e-12
    assert np.max(np.abs(g["head_text.w"] - g["head_visual.w"])) < 1e-12


# ---------------------------------------------------------------------------
# branch gradient norms
# ---------------------------------------------------------------------------

def test_branch_grad_norms_before_backward_errors():
    mag = small_two_modality()
    model = build(mag)
    with pytest.raises(TapeError):
        model.branch_grad_norms()
    model.forward(mag, T.Tape())
    with pytest.raises(TapeError):
        model.branch_grad_norms()


def test_branch_grad_norm_is_euclidean():
    mag = small_two_modality()
    model = build(mag)
    tape = T.Tape()
    out = model.forward(mag, tape)
    losses = model.loss(out, mag.labels, mag.splits["train"])
    tape.backward(losses["total"])
    # overwrite one branch's gradients with a known 3-4-5 pattern
    taped = model._taped
    gw = np.zeros_like(taped["proj_text.w"].data)
    gw.flat[0] = 3.0
    gb = np.zeros_like(taped["proj_text.b"].data)
    gb.flat[0] = 4.0
    taped["proj_text.w"].grad = gw
    taped["proj_text.b"].grad = gb
    assert abs(model.branch_grad_norms()["proj_text"] - 5.0) < 1e-12


def test_branches_cover_projectors_and_synergy():
    mag = small_two_modality()
    model = build(mag)
    b = model.branches()
    assert set(b) == {"proj_text", "proj_visual", "synergy"}
    assert b["synergy"] == ["synergy.w0", "synergy.w1"]


def test_forward_on_hand_built_graph_shapes():
    mag = three_node_mag()
    model = build(mag, hidden=4)
    model.params["head_s.b"][...] = [[0.5, -1.0]]   # node 2 is isolated
    out = model.forward(mag)
    assert out["logits"].data.shape == (3, 2)
    assert out["z_unique"]["text"].data.shape == (3, 4)
    assert out["synergy_logits"].data.shape == (3, 2)
    assert np.max(np.abs(out["synergy_logits"].data
                         - unfolded_synergy_logits(model, mag, out))) < 1e-12
