"""The row-block runner of ``magsim.tensor``: the N-row kernels give the same
bits at one and at two threads, the sparse and elementwise kernels give the
bits of the whole-array SciPy/NumPy result, and a forked child does not
inherit a pool whose threads it lacks."""

import ctypes
import multiprocessing
import os
import sys

import numpy as np
import pytest

from conftest import dropout, scipy_csr, scipy_mix
from magsim import tensor as T
from magsim.aggregation import mean_aggregate
from magsim.errors import ContractError
from magsim.experiments import TrainConfig, train
from magsim.graph import CsrMatrix, ModalitySpec, SyntheticSpec, generate
from magsim.validation import directed_chain

N = 3 * T.ROW_BLOCK + 17      # three blocks, none of them a multiple of the block size


@pytest.fixture(autouse=True)
def _default_threads():
    yield
    T._set_threads(None)


def at_threads(fn, *args):
    """fn(*args) with the runner at one thread, then at two."""
    results = []
    for threads in (1, 2):
        T._set_threads(threads)
        results.append(fn(*args))
    assert T._pool is not None          # the second run used the pool
    return results


def assert_bytes_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_row_blocks_are_equal_and_fixed():
    seen = []
    T._set_threads(1)
    T._by_rows((N, 1), lambda out, lo, hi: seen.append((lo, hi)))
    sizes = [hi - lo for lo, hi in seen]
    assert seen[0][0] == 0 and seen[-1][1] == N and len(seen) == 3
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    assert min(sizes) >= T.ROW_BLOCK and max(sizes) - min(sizes) <= 1
    one = []
    T._by_rows((2 * T.ROW_BLOCK - 1, 1), lambda out, lo, hi: one.append((lo, hi)))
    assert one == [(0, 2 * T.ROW_BLOCK - 1)]


def _linear_run(widths, cols, bias):
    """linear's value and the gradients of every operand, for one tape."""
    rng = np.random.default_rng(len(widths) * 10 + cols)
    tape = T.Tape()
    xs = [T.Tensor(rng.standard_normal((N, d)), tape) for d in widths]
    w = T.Tensor(rng.standard_normal((sum(widths), cols)), tape)
    b = T.Tensor(rng.standard_normal((1, cols)), tape) if bias else None
    out = T.linear(xs, w, b)
    c = T.Tensor(rng.standard_normal((N, cols)))
    tape.backward(T.sum_all(T.mul(out, c)))
    leaves = xs + [w] + ([b] if bias else [])
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("widths", [(16,), (5, 8), (3, 8, 12), (2, 9, 4, 16)])
@pytest.mark.parametrize("cols", [1, 4, 12, 16])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_bits_do_not_depend_on_the_thread_count(widths, cols, bias):
    one, two = at_threads(_linear_run, widths, cols, bias)
    assert_bytes_equal(one, two)


@pytest.mark.parametrize("cols", [*range(1, 17), 64])
def test_matmul_is_the_stacked_products_of_its_fixed_blocks(cols):
    """Every width runs over the same row blocks: at one and at two threads
    the product is, byte for byte, its blocks' products stacked."""
    rng = np.random.default_rng(cols)
    a, b = rng.standard_normal((N, 24)), rng.standard_normal((24, cols))
    k = N // T.ROW_BLOCK
    bounds = [N * i // k for i in range(k + 1)]
    stacked = np.concatenate([a[lo:hi] @ b for lo, hi in zip(bounds, bounds[1:])])
    one, two = at_threads(T._matmul, a, b)
    assert_bytes_equal([one, two], [stacked, stacked])


def _isolated_adjacency():
    """A random graph on N nodes whose last 300 nodes, and any others the
    draw misses, have no edge."""
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, N - 300, size=(3 * N, 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    adj = CsrMatrix.from_undirected_edges(pairs, N)
    assert (adj.degrees == 0).sum() >= 300
    return adj


def mix_by_rows(a, x, alpha):
    """alpha*x + (1-alpha)*(a @ x) for a SciPy CSR matrix a, one row at a time
    in the fused kernel's order: x_i * alpha/(1-alpha), plus each a_ij * x_j
    in stored column order, times 1-alpha."""
    out = np.empty_like(x)
    for i in range(a.shape[0]):
        acc = x[i] * (alpha / (1.0 - alpha))
        for k in range(a.indptr[i], a.indptr[i + 1]):
            acc = acc + a.data[k] * x[a.indices[k]]
        out[i] = acc * (1.0 - alpha)
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_mean_aggregate_bits_match_scipy_at_any_thread_count(alpha):
    adj = _isolated_adjacency()
    rng = np.random.default_rng(4)
    h, c = rng.standard_normal((N, 24)), rng.standard_normal((N, 24))

    def run():
        tape = T.Tape()
        x = T.Tensor(h, tape)
        out = mean_aggregate(x, adj, alpha)
        tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))
        return [out.data, x.grad]

    one, two = at_threads(run)
    assert_bytes_equal(one, two)
    a_hat = scipy_csr(adj.row_normalize())
    if alpha == 0.0:        # the plain neighbor mean is SciPy's own product
        assert_bytes_equal(one, [a_hat @ h, a_hat.T.tocsr() @ c])
    else:
        assert_bytes_equal(one, [mix_by_rows(a_hat, h, alpha),
                                 mix_by_rows(a_hat.T.tocsr(), c, alpha)])
        p, p_t = scipy_mix(adj, alpha)
        for got, want in zip(one, [p @ h, p_t @ c]):
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("graph", ["isolated", "directed-chain", "self-loop"])
def test_mean_operator_arrays_are_scipys(graph, alpha):
    # the isolated-node graph spans several row blocks; the chain is not
    # symmetric; at the self-loop alpha and (1-alpha)*a_hat meet in one entry
    import scipy.sparse as sp
    adj = {"isolated": _isolated_adjacency, "directed-chain": lambda: directed_chain(9),
           "self-loop": lambda: CsrMatrix(3, 3, [0, 2, 3, 5], [0, 1, 2, 0, 2],
                                          [1.0, 2.0, 1.0, 3.0, 1.0])}[graph]()
    raw = scipy_csr(adj)
    sums = np.asarray(raw.sum(axis=1)).ravel()
    a_hat = (sp.diags(1.0 / np.where(sums == 0.0, 1.0, sums)) @ raw).tocsr()
    a_hat.sort_indices()
    got = adj.row_normalize()
    assert_bytes_equal([got.row_offsets, got.col_indices, got.values],
                       [a_hat.indptr.astype(np.int64), a_hat.indices.astype(np.int64),
                        a_hat.data])
    # the backward, SciPy's CSC product on these arrays, has the bits of its
    # CSR product on the transpose; the mix at alpha is SciPy's P @ h and P^T @ c
    rng = np.random.default_rng(8)
    h, c = rng.standard_normal((adj.num_rows, 5)), rng.standard_normal((adj.num_rows, 5))
    tape = T.Tape()
    x = T.Tensor(h, tape)
    out = mean_aggregate(x, adj, alpha)
    tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))
    a_hat_t = a_hat.T.tocsr()
    if alpha == 0.0:        # mix_by_rows would give -0.0 at isolated rows
        assert_bytes_equal([out.data, x.grad], [a_hat @ h, a_hat_t @ c])
    else:
        assert_bytes_equal([out.data, x.grad], [mix_by_rows(a_hat, h, alpha),
                                                mix_by_rows(a_hat_t, c, alpha)])
    p, p_t = scipy_mix(adj, alpha)
    for got, want in zip([out.data, x.grad], [p @ h, p_t @ c]):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.fixture(scope="module")
def readme_20k_adjacency():
    """The README family's 20k graph (seed 3): nine row blocks."""
    return generate(SyntheticSpec(20000, 4, [ModalitySpec("text", 16, 1.0, 0.2),
                                             ModalitySpec("visual", 16, 1.0, 0.8)],
                                  seed=3)).adjacency


def csc_product(a, x, alpha):
    """alpha*x + (1-alpha)*(a.T @ x) as one call of SciPy's CSC product on a's
    arrays: the one-core backward, whatever the runner's thread count."""
    return T._mix(x, np.empty_like(x), alpha, T._sparsetools.csc_matvecs, a.num_cols,
                  a.num_rows, x.shape[1], a.row_offsets, a.col_indices, a.values, x.ravel())


@pytest.fixture
def kernels(monkeypatch):
    """The names of the SciPy sparse kernels tensor calls, in call order."""
    called, real = [], T._sparsetools

    class Spy:
        def __getattr__(self, name):
            def spy(*args):
                called.append(name)
                return getattr(real, name)(*args)
            return spy

    monkeypatch.setattr(T, "_sparsetools", Spy())
    return called


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("width", [1, 4, 7, 8, 64])
@pytest.mark.parametrize("graph", ["readme-20k", "isolated"])
def test_undirected_backward_has_the_bytes_of_the_csc_product(
        graph, width, alpha, threads, kernels, request):
    # a.T's value at (i, j) is row j's: by row blocks on two threads, the
    # CSR kernel on a's index arrays adds each row's terms in the CSC
    # product's order; at one thread, or below 8 columns (T._SPLIT_WIDTH),
    # the product is the CSC call itself
    adj = (request.getfixturevalue("readme_20k_adjacency") if graph == "readme-20k"
           else _isolated_adjacency())
    a_hat = adj.row_normalize()
    assert a_hat._undirected
    g = np.random.default_rng(width).standard_normal((adj.num_rows, width))
    want = csc_product(a_hat, g, alpha)
    T._set_threads(threads)
    kernels.clear()
    got = T._spmm_t(a_hat, g, alpha)
    split = threads == 2 and width >= 8
    assert set(kernels) == {"csr_matvecs" if split else "csc_matvecs"}
    assert_bytes_equal([got], [want])


def _one_value_directed():
    """A chain i -> i+1 whose values are one 1.0 broadcast: a stride-0 array
    on a pattern that is not symmetric."""
    return CsrMatrix(N, N, np.r_[np.arange(N), N - 1], np.arange(1, N),
                     np.broadcast_to(1.0, (N - 1,)))


def _weighted():
    """The isolated-node graph's symmetric pattern with unequal weights."""
    adj = _isolated_adjacency()
    weights = np.random.default_rng(13).uniform(0.5, 2.0, adj.nnz)
    return CsrMatrix(adj.num_rows, adj.num_cols, adj.row_offsets, adj.col_indices, weights)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("graph", ["directed-chain", "weighted", "one-value-directed"])
def test_directed_and_weighted_backward_keeps_the_csc_product(graph, alpha, kernels):
    # without the undirected mark a.T is not a's pattern with row values,
    # so even on two threads and several blocks the backward is SciPy's CSC call
    adj = {"directed-chain": lambda: directed_chain(N), "weighted": _weighted,
           "one-value-directed": _one_value_directed}[graph]()
    assert not adj._undirected and adj.num_rows // T.ROW_BLOCK > 1
    rng = np.random.default_rng(14)
    h, c = rng.standard_normal((N, 8)), rng.standard_normal((N, 8))
    T._set_threads(2)
    tape = T.Tape()
    x = T.Tensor(h, tape)
    out = mean_aggregate(x, adj, alpha)
    kernels.clear()
    tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))
    assert kernels == ["csc_matvecs"]
    a_hat_t = scipy_csr(adj.row_normalize()).T.tocsr()
    if alpha == 0.0:
        assert_bytes_equal([x.grad], [a_hat_t @ c])
    else:
        assert_bytes_equal([x.grad], [mix_by_rows(a_hat_t, c, alpha)])
        assert np.max(np.abs(x.grad - scipy_mix(adj, alpha)[1] @ c)) <= 1e-12


def test_a_training_step_draws_no_os_entropy(monkeypatch):
    """Each dropout block's generator copy is seeded with a constant and then
    set to the rng's state: a taped training step on several row blocks
    seeds no SeedSequence from the OS, which numpy reads through random's
    SystemRandom."""
    import random

    def refuse(size):
        raise AssertionError(f"{size} bytes of OS entropy drawn")

    monkeypatch.setattr(random, "_urandom", refuse)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.PCG64()           # the probe sees an entropy-seeded generator
    mag = generate(SyntheticSpec(N, 4, [ModalitySpec("text", 16, 1.0, 0.2),
                                        ModalitySpec("visual", 16, 1.0, 0.8)], seed=2))
    T._set_threads(2)
    report = train(mag, TrainConfig(kind="supra", lambda_aux=0.7, hidden=16, dropout=0.3,
                                    max_epochs=1, patience=1, seed=1))
    assert report.to_json(include_timing=False)


def test_relu_bits_match_numpy_at_any_thread_count():
    rng = np.random.default_rng(5)
    x, c = rng.standard_normal((N, 20)), rng.standard_normal((N, 20))

    def run():
        tape = T.Tape()
        leaf = T.Tensor(x, tape)
        out = T.relu(leaf)
        tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))
        return [out.data, leaf.grad]

    one, two = at_threads(run)
    assert_bytes_equal(one, two)
    assert_bytes_equal(one, [np.maximum(x, 0.0), c * (x > 0.0)])


def test_taped_relu_fills_its_output_and_mask_in_one_pass(monkeypatch):
    row_blocks, passes = T._row_blocks, []
    monkeypatch.setattr(T, "_row_blocks", lambda n, run: passes.append(n) or row_blocks(n, run))
    T.relu(T.Tensor(np.ones((N, 4)), T.Tape()))
    assert passes == [N]


def test_dropout_bits_match_numpy_at_any_thread_count():
    rng = np.random.default_rng(6)
    x, c = np.abs(rng.standard_normal((N, 20))), rng.standard_normal((N, 20))

    def run():
        tape = T.Tape()
        leaf = T.Tensor(x, tape)
        out = dropout(leaf, 0.3, np.random.default_rng(7))
        tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))
        return [out.data, leaf.grad]

    one, two = at_threads(run)
    assert_bytes_equal(one, two)
    kept = np.random.default_rng(7).random(x.shape) < 0.7
    # x's gradient is the block's output gradient times I.T, whose +0.0 terms
    # turn the -0.0 of a dropped entry into +0.0
    assert_bytes_equal(one, [kept / 0.7 * x, kept / 0.7 * c + 0.0])


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_dense_has_the_bits_of_linear_relu_and_dropout_as_separate_ops(rate):
    """The encoder block, one node, against linear, relu and a product with
    the kept / keep mask: the output and every gradient, x as two column
    blocks, at one and at two threads."""
    rng = np.random.default_rng(15)
    xs = [rng.standard_normal((N, d)) for d in (5, 8)]
    w, b, c = rng.standard_normal((13, 20)), rng.standard_normal((1, 20)), rng.standard_normal((N, 20))
    c[::7] = -0.0
    kept = np.random.default_rng(7).random((N, 20)) < 1.0 - rate

    def run(fused):
        tape = T.Tape()
        leaves = [T.Tensor(a, tape) for a in (*xs, w, b)]
        if fused:
            out = T.dense(leaves[:2], *leaves[2:], rate, np.random.default_rng(7))
        else:
            out = T.mul(T.relu(T.linear(leaves[:2], *leaves[2:])), T.Tensor(kept / (1.0 - rate)))
        tape.backward(T.sum_all(T.mul(out, T.Tensor(c))))
        return [out.data] + [t.grad for t in leaves]

    one, two = at_threads(run, True)
    assert_bytes_equal(one, two)
    assert_bytes_equal(one, run(False))


def _block_bounds(n):
    k = max(1, n // T.ROW_BLOCK)
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


@pytest.mark.parametrize("n", [N, 2 * T.ROW_BLOCK - 1])
@pytest.mark.parametrize("widths,bias", [((16,), True), ((5, 8, 12), True), ((5, 8, 12), False)],
                         ids=["widths0", "widths1", "no-bias"])
def test_weight_and_bias_gradients_are_sums_of_their_fixed_blocks(n, widths, bias, monkeypatch):
    """linear's weight and bias gradients add their row blocks' products in
    block order at one and at two threads; below two blocks that is the whole
    product and the whole column sum.  One pass over the blocks makes both."""
    rng = np.random.default_rng(9)
    xs = [rng.standard_normal((n, d)) for d in widths]
    w, b, g = (rng.standard_normal(shape) for shape in ((sum(widths), 12), (1, 12), (n, 12)))
    block_sum, calls = T._block_sum, []
    monkeypatch.setattr(T, "_block_sum", lambda *a: calls.append(a) or block_sum(*a))

    def run():
        tape = T.Tape()
        wt, bt = T.Tensor(w, tape), T.Tensor(b, tape) if bias else None
        out = T.linear([T.Tensor(x, tape) for x in xs], wt, bt)
        calls.clear()
        tape.backward(T.sum_all(T.mul(out, T.Tensor(g))))       # linear's output gradient is g
        assert len(calls) == 1
        return [wt.grad, bt.grad] if bias else [wt.grad]

    bounds = _block_bounds(n)
    if len(bounds) > 1:
        one, two = at_threads(run)
        assert_bytes_equal(one, two)
    else:           # one block runs inline, pool or not
        one = run()
    w_sum = np.concatenate([x[:bounds[0][1]].T @ g[:bounds[0][1]] for x in xs])
    b_sum = g[:bounds[0][1]].sum(axis=0, keepdims=True)
    for lo, hi in bounds[1:]:
        w_sum = w_sum + np.concatenate([x[lo:hi].T @ g[lo:hi] for x in xs])
        b_sum = b_sum + g[lo:hi].sum(axis=0, keepdims=True)
    assert_bytes_equal(one, [w_sum, b_sum][:len(one)])
    whole = [np.concatenate([x.T @ g for x in xs]), g.sum(axis=0, keepdims=True)][:len(one)]
    if len(bounds) == 1:
        assert_bytes_equal(one, whole)
    for got, want in zip(one, whole):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
@pytest.mark.parametrize("half_draw", [False, True])
def test_dropout_leaves_the_stream_where_one_whole_draw_does(bit_generator, half_draw):
    """At one and at two threads the block-drawn mask is the whole draw's, and
    the generator's next draws are those after one whole random(shape), also
    when a 32-bit half-draw was buffered before it."""
    x = T.Tensor(np.abs(np.random.default_rng(10).standard_normal((N, 20))))

    def fresh():
        rng = np.random.Generator(bit_generator(11))
        if half_draw:
            rng.integers(0, 2 ** 31, dtype=np.int32)      # leaves the other 32 bits buffered
        return rng

    def run():
        rng = fresh()
        out = dropout(x, 0.3, rng)
        return [out.data, rng.random(5), rng.integers(0, 2 ** 31, size=3, dtype=np.int32)]

    one, two = at_threads(run)
    assert_bytes_equal(one, two)
    whole = fresh()
    kept = whole.random(x.data.shape) < 0.7
    assert_bytes_equal(one, [kept / 0.7 * x.data, whole.random(5),
                             whole.integers(0, 2 ** 31, size=3, dtype=np.int32)])


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937, np.random.SFC64])
def test_dropout_refuses_a_bit_generator_whose_advance_is_not_one_draw(bit_generator):
    """Philox advances by 256-bit blocks, MT19937 and SFC64 cannot advance: a
    ContractError names the bit generator before anything is drawn."""
    rng = np.random.Generator(bit_generator(12))
    before = rng.bit_generator.state
    with pytest.raises(ContractError, match=bit_generator.__name__):
        dropout(T.Tensor(np.ones((N, 4))), 0.3, rng)
    assert str(rng.bit_generator.state) == str(before)
    x = T.Tensor(np.ones((3, 4)))
    # rate 0 draws nothing, so any generator will do
    assert dropout(x, 0.0, rng).data.tobytes() == x.data.tobytes()


@pytest.mark.parametrize("kind", ["supra", "sage-concat"])
def test_training_reports_do_not_depend_on_the_thread_count(kind):
    mag = generate(SyntheticSpec(N, 4, [ModalitySpec("text", 16, 1.0, 0.2),
                                        ModalitySpec("visual", 16, 1.0, 0.8)],
                                 homophily=0.8, mean_degree=6, seed=2))
    cfg = TrainConfig(kind=kind, lambda_aux=0.7 if kind == "supra" else 0.0,
                      hidden=16, max_epochs=3, patience=3, seed=1)
    one, two = at_threads(lambda: train(mag, cfg).to_json(include_timing=False))
    assert one == two


def test_each_block_runs_once_under_thread_switching():
    """More runner threads than cores, switching every microsecond: the shared
    block iterator hands each block to exactly one thread."""
    n = 40 * T.ROW_BLOCK + 5
    T._set_threads(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            seen = []
            T._by_rows((n, 1), lambda out, lo, hi: seen.append((lo, hi)))
            assert len(seen) == 40 and sorted(seen)[0][0] == 0
            assert sum(hi - lo for lo, hi in seen) == n and len(set(seen)) == 40
    finally:
        sys.setswitchinterval(interval)


def test_runner_threads_fall_back_to_the_cpu_count(monkeypatch):
    """Where os.sched_getaffinity is missing (macOS, Windows) the runner
    takes one thread per CPU."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    T._set_threads(None)
    assert T._row_threads() == (os.cpu_count() or 1)


def test_the_runner_runs_blas_at_one_thread():
    """The runner, not OpenBLAS, spreads a product over the cores: once it
    has its thread count, numpy's OpenBLAS runs at one thread."""
    try:
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        getter = blas.scipy_openblas_get_num_threads64_
        setter = blas.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pytest.skip("numpy has no scipy-openblas thread getter")
    getter.argtypes, getter.restype = (), ctypes.c_int
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    setter(2)
    assert getter() == 2
    T._set_threads(None)
    T.relu(T.Tensor(np.ones((2 * T.ROW_BLOCK, 8))))
    assert getter() == 1


def _relu_in_child():
    x = np.arange(2 * T.ROW_BLOCK * 8, dtype=float).reshape(-1, 8) - 7.0
    if T.relu(T.Tensor(x)).data.tobytes() != np.maximum(x, 0.0).tobytes():
        raise SystemExit(1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_does_not_wait_on_the_parents_pool():
    """A child inherits the parent's pool object but none of its threads;
    without the fork hook its first block kernel waits forever."""
    T._set_threads(2)
    T.relu(T.Tensor(np.ones((2 * T.ROW_BLOCK, 8))))
    assert T._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_relu_in_child)
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in its first block kernel")
    assert child.exitcode == 0
