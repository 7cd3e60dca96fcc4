"""Autodiff engine: op semantics, gradient correctness, tape rules, Adam."""

import math
import re
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd_checks
from conftest import dropout
from magsim import tensor as T
from magsim.errors import ShapeError, TapeError
from magsim.experiments import TrainConfig, build_model
from magsim.graph import ModalitySpec, SyntheticSpec, generate


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

# linear without a bias is the plain product x @ w

def test_matmul_identity():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = T.linear(T.Tensor(np.eye(2)), T.Tensor(m))
    assert np.array_equal(out.data, m)


def test_matmul_hand_arithmetic():
    out = T.linear(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_relu_example():
    assert np.array_equal(T.relu(T.Tensor([[-1.0, 2.0]])).data, [[0.0, 2.0]])


def test_linear_blocks_example():
    # [1, 2] @ [[3], [4]] + 5, the blocks [1] and [2] meeting rows 0 and 1 of w
    out = T.linear([T.Tensor([[1.0]]), T.Tensor([[2.0]])], T.Tensor([[3.0], [4.0]]),
                   T.Tensor([[5.0]]))
    assert np.array_equal(out.data, [[16.0]])


def test_add_bias_broadcast():
    out = T.add(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[10.0, 20.0]]))
    assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])


def test_add_shape_error():
    with pytest.raises(ShapeError):
        T.add(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((3, 2))))


def test_dropout_rate_zero_identity():
    # at rate 0 or without an rng the encoder block is relu(x @ w + b) and
    # draws nothing: with w = I and b = 0 it returns x >= 0 unchanged
    x = T.Tensor([[1.0, 0.0, 2.5]])
    rng = np.random.default_rng(0)
    before = str(rng.bit_generator.state)
    for out in (dropout(x, 0.0, rng), dropout(x, 0.5, None)):
        assert out.data.tobytes() == x.data.tobytes()
    assert str(rng.bit_generator.state) == before
    assert np.array_equal(dropout(T.Tensor([[1.0, -2.0]]), 0.0, rng).data, [[1.0, 0.0]])


def test_dropout_rate_bounds():
    with pytest.raises(ShapeError):
        dropout(T.Tensor([[1.0]]), 1.0, np.random.default_rng(0))


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(1)
    x = T.Tensor(np.ones((2000, 1)))
    out = dropout(x, 0.3, rng)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1.0 / 0.7)
    assert abs(out.data.mean() - 1.0) < 0.05


def test_row_select_out_of_range():
    with pytest.raises(ShapeError):
        T.row_select(T.Tensor(np.ones((2, 2))), [2])


def test_cross_entropy_uniform_logits():
    for c in (2, 4, 7):
        logits = T.Tensor(np.zeros((5, c)))
        loss = T.cross_entropy_smoothed(logits, np.zeros(5, dtype=int), 0.1, np.arange(5))
        assert abs(loss.data[0, 0] - math.log(c)) < 1e-12


def test_cross_entropy_confident_limit():
    logits = np.full((3, 4), -50.0)
    logits[np.arange(3), [0, 1, 2]] = 50.0
    loss = T.cross_entropy_smoothed(T.Tensor(logits), np.array([0, 1, 2]), 0.0, np.arange(3))
    assert loss.data[0, 0] < 1e-10


def test_cross_entropy_direct_summation_oracle():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((3, 4))
    labels = np.array([1, 3, 0])
    s = 0.1
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    target = np.full((3, 4), s / 3)
    target[np.arange(3), labels] = 1.0 - s
    expected = -(target * np.log(p)).sum() / 3
    loss = T.cross_entropy_smoothed(T.Tensor(logits), labels, s, np.arange(3))
    assert abs(loss.data[0, 0] - expected) < 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ShapeError):
        T.cross_entropy_smoothed(T.Tensor(np.zeros((2, 3))), np.array([0, 3]), 0.0, np.arange(2))


def _loss_and_grad(logits, labels, rows, select):
    """The loss over ``rows`` of ``logits`` and d loss / d logits, the rows
    read by the loss itself or picked by a row_select node before it."""
    tape = T.Tape()
    x = T.Tensor(logits, tape)
    if select:
        loss = T.cross_entropy_smoothed(T.row_select(x, rows), labels, 0.1, np.arange(len(rows)))
    else:
        loss = T.cross_entropy_smoothed(x, labels, 0.1, rows)
    tape.backward(loss)
    return loss.data, x.grad


def test_loss_over_its_rows_is_row_select_then_the_loss_bit_for_bit():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((300, 4)) * 3
    rows = np.flatnonzero(rng.random(300) < 0.6)
    labels = rng.integers(0, 4, rows.size)
    direct, selected = (_loss_and_grad(logits, labels, rows, s) for s in (False, True))
    for got, want in zip(direct, selected):
        assert got.tobytes() == want.tobytes()
    # and the bits of the max(axis=1) formula with a scatter-add backward
    shifted = logits[rows] - logits[rows].max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    target = np.full((rows.size, 4), 0.1 / 3)
    target[np.arange(rows.size), labels] = 0.9
    grad = np.zeros_like(logits)
    np.add.at(grad, rows, 1.0 * (np.exp(log_p) - target) / rows.size)
    assert direct[0][0, 0] == -(target * log_p).sum() / rows.size
    assert direct[1].tobytes() == grad.tobytes()


@pytest.mark.parametrize("rows", [[2, 1], [1, 1], [0, 4], [-1, 2], [[0, 1]]],
                         ids=["unsorted", "repeated", "out-of-range", "negative", "2-d"])
def test_loss_rejects_rows_that_are_not_strictly_increasing_indices(rows):
    with pytest.raises(ShapeError, match="strictly increasing"):
        T.cross_entropy_smoothed(T.Tensor(np.zeros((4, 3))), np.zeros(2, dtype=int), 0.1, rows)


# ---------------------------------------------------------------------------
# gradient correctness (finite differences)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(fd_checks.ALL_CASES))
def test_finite_difference_gradients(case):
    for seed in range(20):
        assert fd_checks.max_rel_error(case, seed) < 1e-4, f"{case} seed {seed}"


def test_gradient_accumulation_on_reuse():
    tape = T.Tape()
    x = T.Tensor([[2.0]], tape)
    y = T.add(x, x)
    tape.backward(T.sum_all(y))
    assert x.grad[0, 0] == 2.0


# ---------------------------------------------------------------------------
# tape rules
# ---------------------------------------------------------------------------

def test_backward_twice_errors():
    tape = T.Tape()
    x = T.Tensor([[1.0]], tape)
    loss = T.sum_all(x)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_needs_scalar():
    tape = T.Tape()
    x = T.Tensor(np.ones((2, 2)), tape)
    with pytest.raises(ShapeError):
        tape.backward(x)


def test_backward_foreign_loss():
    tape = T.Tape()
    other = T.Tape()
    loss = T.sum_all(T.Tensor([[1.0]], other))
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_detached_tensors_get_no_gradient():
    tape = T.Tape()
    x = T.Tensor([[1.0, 2.0]], tape)
    c = T.Tensor([[3.0, 4.0]], None)
    tape.backward(T.sum_all(T.mul(x, c)))
    assert c.grad is None
    assert np.array_equal(x.grad, [[3.0, 4.0]])


def test_add_operand_gradients_accumulate_independently():
    # x also feeds an op recorded before the add, so its gradient grows
    # after the add has handed the same output gradient array to both operands
    tape = T.Tape()
    x = T.Tensor([[1.0, 2.0]], tape)
    y = T.Tensor([[3.0, 4.0]], tape)
    u = T.scale(x, 2.0)
    tape.backward(T.sum_all(T.add(T.add(x, y), u)))
    assert np.array_equal(x.grad, [[3.0, 3.0]])
    assert np.array_equal(y.grad, [[1.0, 1.0]])


def test_tape_isolation_detached_ops():
    tape = T.Tape()
    before = len(tape)
    T.linear(T.Tensor(np.ones((2, 2)), None), T.Tensor(np.ones((2, 2)), None))
    T.relu(T.Tensor(np.ones((2, 2)), None))
    assert len(tape) == before


def test_mixed_tapes_error():
    a = T.Tensor([[1.0]], T.Tape())
    b = T.Tensor([[1.0]], T.Tape())
    with pytest.raises(TapeError):
        T.add(a, b)


def test_gradient_determinism():
    def run():
        rng = np.random.default_rng(5)
        tape = T.Tape()
        x = T.Tensor(rng.standard_normal((4, 3)), tape)
        w = T.Tensor(rng.standard_normal((3, 2)), tape)
        loss = T.cross_entropy_smoothed(T.linear(T.relu(x), w),
                                        np.array([0, 1, 0, 1]), 0.1, np.arange(4))
        tape.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    la, xa, wa = run()
    lb, xb, wb = run()
    assert np.array_equal(la, lb) and np.array_equal(xa, xb) and np.array_equal(wa, wb)


def test_linear_equals_matmul_plus_bias_bit_for_bit():
    rng = np.random.default_rng(3)
    x, w, b = rng.standard_normal((7, 5)), rng.standard_normal((5, 3)), rng.standard_normal((1, 3))
    c = rng.standard_normal((7, 3))

    def run(fused):
        tape = T.Tape()
        leaves = [T.Tensor(v, tape) for v in (x, w, b)]
        out = T.linear(*leaves) if fused else T.add(T.linear(*leaves[:2]), leaves[2])
        nodes = len(tape)
        tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))
        return out.data, [t.grad for t in leaves], nodes

    fused, unfused = run(True), run(False)
    assert np.array_equal(fused[0], unfused[0])
    assert all(np.array_equal(f, u) for f, u in zip(fused[1], unfused[1]))
    assert (fused[2], unfused[2]) == (1, 2)


def test_linear_shape_errors():
    x, w = T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        T.linear(x, w, T.Tensor(np.ones((2, 4))))     # a bias is one row
    with pytest.raises(ShapeError):
        T.linear(x, T.Tensor(np.ones((2, 4))), T.Tensor(np.ones((1, 4))))
    with pytest.raises(ShapeError):
        T.linear([], w)
    with pytest.raises(ShapeError):
        T.linear([x, T.Tensor(np.ones((2, 1)))], w)     # the blocks are 4 columns wide
    with pytest.raises(ShapeError):
        T.linear([T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((3, 1)))], w)   # row counts


@pytest.mark.parametrize("bias", [True, False])
def test_block_linear_equals_concat_then_product(bias):
    """linear over column blocks against NumPy's concat-then-product: the
    value and every gradient, with one tape node for the whole op."""
    rng = np.random.default_rng(8)
    blocks = [rng.standard_normal((9, d)) for d in (2, 5, 3)]
    w, b = rng.standard_normal((10, 4)), rng.standard_normal((1, 4))
    c = rng.standard_normal((9, 4))
    tape = T.Tape()
    xs = [T.Tensor(x, tape) for x in blocks]
    tw, tb = T.Tensor(w, tape), T.Tensor(b, tape) if bias else None
    out = T.linear(xs, tw, tb)
    assert len(tape) == 1
    tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))

    x = np.concatenate(blocks, axis=1)
    assert np.max(np.abs(out.data - (x @ w + (b if bias else 0.0)))) < 1e-12
    assert np.max(np.abs(tw.grad - x.T @ c)) < 1e-12
    grad_x = c @ w.T
    for t, lo, hi in zip(xs, (0, 2, 7), (2, 7, 10)):
        assert np.max(np.abs(t.grad - grad_x[:, lo:hi])) < 1e-12
    if bias:
        assert np.max(np.abs(tb.grad - c.sum(axis=0, keepdims=True))) < 1e-12


# ---------------------------------------------------------------------------
# memory: only leaves keep gradients, each op saves only what its vjp reads
# ---------------------------------------------------------------------------

def test_backward_gives_grad_to_leaves_only_and_empties_the_tape():
    rng = np.random.default_rng(0)
    tape = T.Tape()
    x = T.Tensor(rng.standard_normal((6, 3)))
    w, b = T.Tensor(rng.standard_normal((3, 4)), tape), T.Tensor(np.zeros((1, 4)), tape)
    w2 = T.Tensor(rng.standard_normal((4, 2)), tape)
    h = T.dense(x, w, b, 0.5, rng)          # linear, relu and dropout: one node
    logits = T.linear(h, w2)
    loss = T.cross_entropy_smoothed(T.row_select(logits, [0, 2, 5]), np.array([0, 1, 1]), 0.1,
                                    np.arange(3))
    assert len(tape) == 4
    tape.backward(loss)
    assert len(tape) == 0
    assert all(t.grad is None for t in (h, logits, loss, x))
    assert all(t.grad is not None and t.grad.shape == t.data.shape for t in (w, b, w2))


def test_a_gradient_reached_three_ways_has_the_out_of_place_sums_bits():
    # x reaches the loss through linear and twice through add.  Replayed in
    # reverse, the adds hand x the output gradient itself, an array other
    # keys hold, so those are summed out of place; linear's is a new array,
    # into which the earlier sum is added in place.  With one add, x's first
    # contribution is linear's own output gradient, and w's gradient, read
    # after x's, shows that array was left alone
    rng = np.random.default_rng(3)
    xv, wv, c = rng.standard_normal((7, 3)), rng.standard_normal((3, 3)), rng.standard_normal((7, 3))
    for adds, first in ((2, c + c), (1, c)):
        tape = T.Tape()
        x, w = T.Tensor(xv, tape), T.Tensor(wv, tape)
        s = T.linear(x, w)
        for _ in range(adds):
            s = T.add(s, x)
        tape.backward(T.sum_all(T.mul(s, T.Tensor(c))))
        assert x.grad.tobytes() == (first + c @ wv.T).tobytes()
        assert w.grad.tobytes() == (xv.T @ c).tobytes()


def test_forward_drops_the_pre_activation_while_the_tape_lives():
    rng = np.random.default_rng(1)
    tape = T.Tape()
    x = T.Tensor(rng.standard_normal((50, 8)))
    w, b = T.Tensor(rng.standard_normal((8, 16)), tape), T.Tensor(np.ones((1, 16)), tape)
    pre = T.linear(x, w, b)
    ref = weakref.ref(pre.data)
    h = T.relu(pre)
    del pre
    assert ref() is None and len(tape) == 2
    tape.backward(T.sum_all(h))
    assert np.array_equal(b.grad, (h.data > 0).sum(axis=0, keepdims=True).astype(float))


MEM_N, MEM_HIDDEN = 2000, 64


def _memory_model(kind):
    mag = generate(SyntheticSpec(MEM_N, 4, [ModalitySpec("text", 16, 1.0, 0.2),
                                            ModalitySpec("visual", 16, 1.0, 0.8)],
                                 homophily=0.8, mean_degree=10, seed=3))
    cfg = TrainConfig(kind=kind, lambda_aux=0.7, hidden=MEM_HIDDEN, num_layers=2)
    return mag, build_model(cfg, mag, np.random.default_rng(0))


def _training_step(mag, model, rng):
    tape = T.Tape()
    out = model.forward(mag, tape=tape, rng=rng)
    tape.backward(model.loss(out, mag.labels, mag.splits["train"])["total"])


def _peak_units(run, *args):
    """tracemalloc's peak above the start while ``run(*args)`` runs, in
    N x hidden float64 arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (MEM_N * MEM_HIDDEN * 8)


def test_supra_training_step_peak_memory():
    """forward + loss + backward of supra at N=2k, counted in N x hidden
    float64 arrays; a tape that holds every activation and every
    intermediate gradient until backward ends peaks at 27.7 here."""
    mag, model = _memory_model("supra")
    _training_step(mag, model, np.random.default_rng(1))   # fills the operator caches
    units = _peak_units(_training_step, mag, model, np.random.default_rng(2))
    assert units <= 12.0, f"peak {units:.1f} N x hidden arrays"


def test_block_linear_forms_no_concat():
    """supra's synergy layer and sage-concat's ego-concat layer read their
    column blocks in place; building the concat on the tape peaked at 8.0
    (supra's training step) and 7.9 (sage-concat's taped forward) here."""
    mag, model = _memory_model("supra")
    _training_step(mag, model, np.random.default_rng(1))
    units = _peak_units(_training_step, mag, model, np.random.default_rng(2))
    assert units <= 7.0, f"supra step peak {units:.1f} N x hidden arrays"

    mag, model = _memory_model("sage-concat")
    model.forward(mag)
    units = _peak_units(lambda: model.forward(mag, tape=T.Tape(), rng=np.random.default_rng(2)))
    assert units <= 4.0, f"sage-concat forward peak {units:.1f} N x hidden arrays"


def test_ego_concat_layers_sum_in_the_self_terms_array():
    """sage-concat's layers add A_hat (H W_bot) into H W_top's own array, at the
    output width; aggregating H before the weight peaked at 6.5 (training step)
    and 4.0 (eval forward) here."""
    mag, model = _memory_model("sage-concat")
    _training_step(mag, model, np.random.default_rng(1))
    units = _peak_units(_training_step, mag, model, np.random.default_rng(2))
    assert units <= 5.0, f"sage-concat step peak {units:.1f} N x hidden arrays"
    units = _peak_units(model.forward, mag)
    assert units <= 3.5, f"sage-concat eval peak {units:.1f} N x hidden arrays"


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

finite_rows = st.lists(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3),
    min_size=1, max_size=4)


@given(finite_rows)
@settings(max_examples=30, deadline=None)
def test_relu_idempotent(rows):
    x = T.Tensor(np.array(rows))
    once = T.relu(x).data
    twice = T.relu(T.relu(x)).data
    assert np.array_equal(once, twice)
    assert np.all(once >= 0)


@given(finite_rows, finite_rows)
@settings(max_examples=30, deadline=None)
def test_add_commutes(a, b):
    if len(a) != len(b):
        return
    ta, tb = T.Tensor(np.array(a)), T.Tensor(np.array(b))
    assert np.array_equal(T.add(ta, tb).data, T.add(tb, ta).data)


@given(finite_rows, st.floats(-3, 3, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_scale_matches_numpy(rows, k):
    x = np.array(rows)
    assert np.array_equal(T.scale(T.Tensor(x), k).data, x * k)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_is_lr_sized():
    params = {"x": np.array([[1.0]])}
    grads = {"x": np.array([[0.3]])}
    T.adam_step(params, grads, T.AdamState(), lr=0.01)
    assert abs(params["x"][0, 0] - (1.0 - 0.01)) < 1e-6


def test_adam_zero_grad_no_change():
    params = {"x": np.array([[2.0, -3.0]])}
    T.adam_step(params, {"x": np.zeros((1, 2))}, T.AdamState(), lr=0.1)
    assert np.array_equal(params["x"], [[2.0, -3.0]])


def test_adam_missing_grad_skipped():
    params = {"x": np.array([[2.0]])}
    T.adam_step(params, {}, T.AdamState(), lr=0.1)
    assert np.array_equal(params["x"], [[2.0]])


def test_adam_descends_quadratic():
    params = {"x": np.array([[3.0]])}
    state = T.AdamState()
    prev = params["x"][0, 0] ** 2
    for _ in range(10):
        g = {"x": 2.0 * params["x"]}
        T.adam_step(params, g, state, lr=0.1)
        cur = params["x"][0, 0] ** 2
        assert cur < prev
        prev = cur


def test_adam_weight_decay_pulls_to_zero():
    params = {"x": np.array([[5.0]])}
    T.adam_step(params, {"x": np.zeros((1, 1))}, T.AdamState(), lr=0.1,
                weight_decay=1e-2)
    assert params["x"][0, 0] < 5.0


def test_scipy_sparse_reuses_magsims_compiled_routines():
    import scipy.sparse
    from scipy.sparse import _sparsetools
    assert _sparsetools is scipy.sparse._compressed._sparsetools is T._sparsetools


def test_missing_sparsetools_is_an_import_error(monkeypatch, tmp_path):
    # no fallback to the scipy.sparse package: the error names where it looked
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(T.importlib.util, "find_spec",
                        lambda name: types.SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))):
        T._load_sparsetools()
