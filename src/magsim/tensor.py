"""Dense 2-D tensors with reverse-mode automatic differentiation.

Everything is float64 and row-major.  A Tensor participates in gradient
computation only while attached to a Tape; detached tensors are plain
value carriers and never receive gradient.  The tape records operations
in execution order and replays them in reverse for backprop.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import itertools
import os
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ContractError, ShapeError, TapeError


def _load_sparsetools():
    """SciPy's compiled sparse routines from their extension file alone: importing
    the scipy.sparse package would cost 0.15-0.25 s and about 20 MB per process."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:     # registered there, so scipy.sparse reuses this module
        scipy = importlib.util.find_spec("scipy")       # finds SciPy without running it
        where = [os.path.join(d, "sparse") for d in scipy.submodule_search_locations] if scipy else []
        spec = importlib.machinery.PathFinder.find_spec("_sparsetools", where)
        if spec is None:
            raise ImportError(f"SciPy's _sparsetools extension not found in {where}")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


_sparsetools = _load_sparsetools()

# Row-block runner.  The N-row kernels below (dense products, sparse products
# and the undirected transposed product, ReLU, the encoder block with its
# dropout draw, the weight and bias gradients' sums over rows) and
# the N-row passes of the data layer (graph.py) cut their work into equal
# blocks of at least ROW_BLOCK rows and run the blocks on a thread pool;
# NumPy's products, ufuncs and generators and SciPy's sparse product release
# the GIL.  The blocks depend on the row count alone, never on the thread count
# or the width, and a sum over rows adds its blocks' partials in block order,
# so a result has the same bits at any thread count.  A pool
# thread runs only closures over NumPy/SciPy calls and private helpers: no
# public magsim function.  The runner, not BLAS, spreads the work over the
# cores: from the first kernel on, numpy's OpenBLAS runs at one thread, so two
# cores run two busy threads.
ROW_BLOCK = 2048
_threads = None         # runner threads; the CPU affinity until _set_threads
_pool = None            # created on first use


def _set_threads(n: int | None):
    """Run the row blocks on ``n`` threads (None: one per CPU this process may
    use, from the next kernel on) and numpy's OpenBLAS, if it has one, on one."""
    global _threads, _pool
    if _pool is not None:
        _pool.shutdown(wait=False)
    _threads, _pool = n, None
    if n is not None:
        with contextlib.suppress(AttributeError, OSError):
            setter = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)


def _row_threads() -> int:
    if _threads is None:
        _set_threads(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    return _threads


def _drop_pool():
    """A forked child inherits the pool object but none of its threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):     # without fork there is no inherited pool
    os.register_at_fork(after_in_child=_drop_pool)


def _row_blocks(n: int, run):
    """run(lo, hi) once for each fixed block of n rows: n // ROW_BLOCK blocks
    (at least one) whose sizes differ by at most one row.  The calling thread
    and the pool's take the blocks from one shared iterator; with one block or
    one thread they all run inline."""
    global _pool
    k = max(1, n // ROW_BLOCK)
    blocks = iter([(n * i // k, n * (i + 1) // k) for i in range(k)])

    def drain():        # next() on a list iterator is atomic under the GIL
        for lo, hi in blocks:
            run(lo, hi)

    helpers = min(_row_threads(), k) - 1
    if helpers and _pool is None:
        _pool = ThreadPoolExecutor(_threads - 1)
    futures = [_pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        wait(futures)
    for f in futures:
        f.result()      # re-raises a block's exception


def _by_rows(shape, fill, dtype=np.float64) -> np.ndarray:
    """A new array of ``shape`` filled by fill(block, lo, hi), ``block`` being
    its rows lo:hi, once for each of _row_blocks' blocks."""
    out = np.empty(shape, dtype=dtype)
    _row_blocks(shape[0], lambda lo, hi: fill(out[lo:hi], lo, hi))
    return out


def _block_sum(n: int, part) -> np.ndarray:
    """The sum of part(lo, hi), a new array, over _row_blocks' blocks of n rows,
    added in block order: its bits depend on the blocks alone.  With one block
    it is part(0, n) itself."""
    partials = {}
    _row_blocks(n, lambda lo, hi: partials.__setitem__(lo, part(lo, hi)))
    first, *rest = (partials[lo] for lo in sorted(partials))
    for p in rest:
        first += p
    return first


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _by_rows((a.shape[0], b.shape[1]),
                    lambda out, lo, hi: np.matmul(a[lo:hi], b, out=out))


def _mix(x: np.ndarray, out: np.ndarray, alpha: float | None, kernel, *args) -> np.ndarray:
    """alpha*x + (1-alpha)*product into ``out``, which starts at x*alpha/(1-alpha):
    SciPy's kernel(*args, out) adds the product and 1-alpha scales it in place.
    With alpha None, ``out`` starts at what it holds: out + product."""
    if alpha:
        np.multiply(x, alpha / (1.0 - alpha), out=out)
    elif alpha is not None:
        out.fill(0.0)        # not x * 0: no -0.0 at isolated rows, no NaN from an inf
    kernel(*args, out.ravel())
    if alpha:
        out *= 1.0 - alpha
    return out


def _spmm_rows(a, x: np.ndarray, out: np.ndarray, lo: int, hi: int, alpha: float | None = 0.0):
    """Rows lo:hi of alpha*x + (1-alpha)*(a @ x) into ``out`` (alpha None:
    out + a @ x), for a graph.CsrMatrix a and a C-contiguous float64 x:
    SciPy's CSR product."""
    _mix(x[lo:hi], out, alpha, _sparsetools.csr_matvecs, hi - lo, a.num_cols, x.shape[1],
         a.row_offsets[lo:hi + 1], a.col_indices, a.values, x.ravel())


def _spmm(a, x: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """alpha*x + (1-alpha)*(a @ x), by the row blocks of _spmm_rows."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return _by_rows((a.num_rows, x.shape[1]),
                    lambda out, lo, hi: _spmm_rows(a, x, out, lo, hi, alpha))


def _spmm_into(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out + a @ x, added into ``out`` in place by the row blocks of _spmm_rows:
    no sum temporary.  ``out``, C-contiguous float64, is an array the caller
    has just made and alone holds."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    _row_blocks(a.num_rows, lambda lo, hi: _spmm_rows(a, x, out[lo:hi], lo, hi, None))
    return out


_SPLIT_WIDTH = 8        # the narrowest x whose transposed product splits


def _spmm_t(a, x: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """alpha*x + (1-alpha)*(a.T @ x), a square: the bits of SciPy's CSR product on a.T.

    An undirected ``a`` (graph.CsrMatrix's mark: a symmetric pattern whose
    rows each hold one value) is its own pattern transposed, a.T's value at
    (i, j) being row j's, so where the product splits (several row blocks and
    runner threads, and x at least _SPLIT_WIDTH columns wide) it runs as
    _spmm_rows does, on a's index arrays, each block gathering its values
    from the rows' values.  Otherwise it is one call (it scatters) of SciPy's
    CSC product on a's arrays, a.T's CSC arrays: on 2 cores the gather made
    the split slower below width 8 at 20k to 200k rows.  Both add each row's
    terms in ascending column order."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if not (a._undirected and a.nnz and x.shape[1] >= _SPLIT_WIDTH
            and min(_row_threads(), a.num_rows // ROW_BLOCK) > 1):
        return _mix(x, np.empty_like(x), alpha, _sparsetools.csc_matvecs, a.num_cols,
                    a.num_rows, x.shape[1], a.row_offsets, a.col_indices, a.values, x.ravel())
    ro, ci = a.row_offsets, a.col_indices
    row_value = np.take(a.values, ro[:-1], mode="clip")     # an empty row's is never read

    def fill(out, lo, hi):
        start, stop = ro[lo], ro[hi]
        cols = ci[start:stop]
        _mix(x[lo:hi], out, alpha, _sparsetools.csr_matvecs, hi - lo, a.num_cols, x.shape[1],
             ro[lo:hi + 1] - start, cols, row_value[cols], x.ravel())

    return _by_rows(x.shape, fill)


class Tape:
    """Ordered record of differentiable operations.

    Recording order equals the reverse order of gradient replay.  A tape
    can be backpropagated through once; re-running backward without
    re-recording is an error.

    The tape never holds a Tensor.  Each node stores its output's key and,
    per taped parent, the parent's key and a vjp closure over exactly the
    arrays that vjp reads, so an activation the forward drops is freed at
    once.  Backward pops each node as it runs it and each gradient as it
    is consumed; only leaves (tensors built as ``Tensor(data, tape)``)
    receive ``.grad``, and op outputs keep ``grad is None``.
    """

    def __init__(self):
        self._nodes = []  # (out_key, ((parent_key, vjp), ...)), execution order
        self._leaves = {}  # key -> weakref to a leaf Tensor
        self._keys = itertools.count()
        self._consumed = False

    def __len__(self):
        return len(self._nodes)

    def _leaf(self, tensor) -> int:
        key = next(self._keys)
        self._leaves[key] = weakref.ref(tensor)
        return key

    def _record(self, edges) -> int:
        key = next(self._keys)
        self._nodes.append((key, edges))
        return key

    def backward(self, loss: "Tensor"):
        if self._consumed:
            raise TapeError("backward already ran on this tape; record a fresh tape")
        if loss.tape is not self:
            raise TapeError("loss tensor is not attached to this tape")
        if loss.data.shape != (1, 1):
            raise ShapeError(f"backward needs a 1x1 scalar, got {loss.data.shape}")
        self._consumed = True
        grads = {loss.key: np.ones((1, 1))}
        nodes = self._nodes
        while nodes:
            key, edges = nodes.pop()
            g = grads.pop(key, None)
            if g is None:
                continue
            for parent, vjp in edges:
                # a later contribution is added into the vjp's new array (_op's
                # contract), never into ``g``, which other keys may share
                c, prev = vjp(g), grads.get(parent)
                if prev is not None:
                    c = prev + c if c is g else np.add(c, prev, out=c)
                grads[parent] = c
        for key, ref in self._leaves.items():
            leaf = ref()
            if leaf is not None and key in grads:
                leaf.grad = grads[key]
        self._leaves.clear()


class Tensor:
    """A rows x cols float64 matrix, optionally attached to a Tape.

    ``Tensor(data, tape)`` makes a leaf: after ``tape.backward`` its
    ``grad`` holds d loss / d data (None if the loss does not depend on
    it).  Op outputs are never leaves and never receive ``grad``."""

    __slots__ = ("data", "tape", "grad", "key", "__weakref__")

    def __init__(self, data, tape: Tape | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.tape = tape
        self.grad = None
        self.key = None if tape is None else tape._leaf(self)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def __repr__(self):
        return f"Tensor({self.rows}x{self.cols}, taped={self.tape is not None})"


def _out_tape(*operands):
    """Tape for an op result: the single tape its operands live on, if any."""
    tapes = {id(t.tape): t.tape for t in operands if isinstance(t, Tensor) and t.tape is not None}
    if len(tapes) > 1:
        raise TapeError("operands live on different tapes")
    return next(iter(tapes.values())) if tapes else None


def _op(data, parents, vjps) -> Tensor:
    """The one way an op makes its result: a Tensor holding ``data`` and,
    when a parent is on a tape, one recorded backward node.

    ``vjps[i]`` maps the output gradient to the gradient contribution of
    ``parents[i]``.  It runs during backward, only for parents on the tape
    and only once the output has received gradient.  A vjp closes over the
    arrays it reads, never over a Tensor, and the vjps of untaped parents
    are dropped here.  A vjp returns ``g`` itself or a new array (or rows
    of one) that no other gradient shares: backward adds a parent's later
    contributions into that array in place.
    """
    tape = _out_tape(*parents)
    out = Tensor(data)
    if tape is not None:
        out.tape = tape
        out.key = tape._record(tuple((p.key, vjp) for p, vjp in zip(parents, vjps)
                                     if p.tape is tape))
    return out


def _affine(name, x, w, b, rectify=False, rate=0.0, rng=None) -> Tensor:
    """x @ w (+ b, a 1 x cols bias row) as one tape node; with ``rectify``, dense's
    relu and dropout.  ``x`` is one tensor or a list of column blocks standing
    for their concat: block i meets rows r_i of w, and the products x_i @ w[r_i]
    and the bias are summed into each row block of the result, so the concat is
    never formed.  One backward pass, made by whichever vjp runs first, forms
    gz, the gradient at x @ w + b (g itself, or (mask * 1/keep) * g with the
    one saved array, the bool out > 0), and the blocks' weight and bias partials."""
    blocks = [x] if isinstance(x, Tensor) else list(x)
    widths = [t.cols for t in blocks]
    if (not blocks or any(t.rows != blocks[0].rows for t in blocks) or sum(widths) != w.rows
            or (b is not None and b.data.shape != (1, w.cols))):
        raise ShapeError(f"{name}: {[t.data.shape for t in blocks]} x {w.data.shape}"
                         f" + {None if b is None else b.data.shape}")
    offsets = list(itertools.accumulate(widths, initial=0))
    xs, wd = [t.data for t in blocks], w.data
    ws = [wd[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    bd = None if b is None else b.data
    parents = [*blocks, w] if b is None else [*blocks, w, b]
    n, cols = blocks[0].rows, w.cols
    drop = rng is not None and rate > 0.0        # linear's rate is 0
    keep = 1.0 - rate if drop else 1.0
    inv = 1.0 / keep
    if drop:
        draw, skip = _uniform_blocks(rng)
    mask = None             # out > 0, read only by backward; the kept draws before that
    if rectify and (drop or _out_tape(*parents) is not None):
        mask = np.empty((n, cols), dtype=bool)

    def fill(o, lo, hi):
        if drop:
            draw(o, lo * cols)
            np.less(o, keep, out=mask[lo:hi])
        np.matmul(xs[0][lo:hi], ws[0], out=o)
        for xd, wi in zip(xs[1:], ws[1:]):
            o += xd[lo:hi] @ wi
        if bd is not None:
            o += bd
        if rectify:
            np.maximum(o, 0.0, out=o)
        if drop:
            o *= mask[lo:hi]
            o *= inv
        if mask is not None:
            np.greater(o, 0.0, out=mask[lo:hi])

    out = _by_rows((n, cols), fill)
    if drop:
        skip(out.size)
    d, found = w.rows, {}

    def backward_pass(g):
        if not found:
            gz = g if mask is None else np.empty_like(g)    # allocated by the calling thread

            def part(lo, hi):
                gb = gz[lo:hi]
                if mask is not None:
                    np.multiply(mask[lo:hi], inv, out=gb)
                    gb *= g[lo:hi]
                parts = [xd[lo:hi].T @ gb for xd in xs]
                if bd is not None:
                    parts.append(gb.sum(axis=0, keepdims=True))
                return np.concatenate(parts)

            found["sums"] = _block_sum(n, part)     # the weight's rows, then the bias row
            found["gz"] = gz
        return found

    vjps = [lambda g, wi=wi: _matmul(backward_pass(g)["gz"], wi.T) for wi in ws]
    vjps += [lambda g: backward_pass(g)["sums"][:d], lambda g: backward_pass(g)["sums"][d:]]
    return _op(out, parents, vjps)      # without a bias, zip drops the last vjp


def linear(x: Tensor | list, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b, a 1 x cols bias row) as one tape node.  ``x`` is one tensor
    or a list of column blocks standing for their concat, which is never formed."""
    return _affine("linear", x, w, b)


def dense(x: Tensor | list, w: Tensor, b: Tensor, rate: float = 0.0,
          rng: np.random.Generator | None = None) -> Tensor:
    """An encoder block as one tape node: relu(x @ w + b), ``x`` as in linear,
    then inverted dropout (kept activations divided by the keep probability)
    with an ``rng``; without one, as in evaluation, or at rate 0, no dropout.

    Each row block of the result receives its uniforms, compares them into
    the mask, is overwritten by x @ w + b, and is rectified and multiplied
    by the mask and then by 1/keep in place: no temporary array.  The bits
    are those of relu, then dropout, as separate ops.

    The uniforms are ``rng.random(out.shape)``, drawn by row blocks, each
    from a copy of the bit generator advanced to the block's first element.
    That is exact only where ``advance`` counts 64-bit draws: PCG64
    (``default_rng``'s) or PCG64DXSM, else ContractError.  The rng ends where
    the one whole draw leaves it."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0,1), got {rate}")
    return _affine("dense", x, w, b, True, rate, rng)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), and on a tape the mask x > 0 for backward, in one row-block pass."""
    xd = x.data
    mask = None if x.tape is None else np.empty(xd.shape, dtype=bool)

    def fill(o, lo, hi):
        np.maximum(xd[lo:hi], 0.0, out=o)
        if mask is not None:
            np.greater(xd[lo:hi], 0.0, out=mask[lo:hi])

    def vjp(g):
        return _by_rows(g.shape, lambda o, lo, hi: np.multiply(g[lo:hi], mask[lo:hi], out=o))

    return _op(_by_rows(xd.shape, fill), (x,), (vjp,))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a 1 x cols row vector (bias broadcast)."""
    if a.data.shape != b.data.shape and not (b.rows == 1 and b.cols == a.cols):
        raise ShapeError(f"add: {a.data.shape} + {b.data.shape}")
    broadcast = b.data.shape != a.data.shape
    return _op(a.data + b.data, (a, b),
               (lambda g: g,
                lambda g: g.sum(axis=0, keepdims=True) if broadcast else g))


def scale(x: Tensor, c: float) -> Tensor:
    return _op(x.data * c, (x,), (lambda g: g * c,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} * {b.data.shape}")
    ad, bd = a.data, b.data
    return _op(ad * bd, (a, b), (lambda g: g * bd, lambda g: g * ad))


def row_select(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise ShapeError(f"row_select: index out of range for {x.rows} rows")
    shape = x.data.shape

    def vjp(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return full

    return _op(x.data[idx], (x,), (vjp,))


def _uniform_blocks(rng: np.random.Generator):
    """(draw, skip) for one whole ``rng.random`` draw made by blocks:
    draw(out, start) fills ``out`` with the draw's elements from ``start`` on,
    and skip(n) moves the rng on as the whole draw of n elements would."""
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ContractError(f"dropout needs a bit generator whose advance counts 64-bit draws "
                            f"(PCG64, PCG64DXSM), got {type(bits).__name__}")
    state = bits.state

    def ahead(draws):   # a copy of bits, seeded without OS entropy, advanced by ``draws``
        copy = type(bits)(0)
        copy.state = state
        return copy.advance(draws)

    def draw(out, start):
        np.random.Generator(ahead(start)).random(out=out)

    def skip(n):        # a buffered 32-bit half-draw stays
        bits.state = {**state, "state": ahead(n).state["state"]}

    return draw, skip


def sum_all(x: Tensor) -> Tensor:
    """Reduce to a 1x1 scalar tensor."""
    shape = x.data.shape
    return _op([[x.data.sum()]], (x,), (lambda g: np.full(shape, g[0, 0]),))


def cross_entropy_smoothed(logits: Tensor, labels, smoothing: float, rows) -> Tensor:
    """Mean smoothed negative log-likelihood over ``rows`` of ``logits``, a
    strictly increasing array of row indices; ``labels`` holds their classes.

    The target distribution puts 1-s on the true class and s/(C-1) on each
    of the others.  Softmax and log are fused with max subtraction.  The
    backward assigns the rows' gradients into a zero array of the logits'
    shape, which strictly increasing rows make equal to a scatter-add.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    total, c = logits.data.shape
    if rows.ndim != 1 or (rows.size and (rows[0] < 0 or rows[-1] >= total
                                         or np.any(rows[1:] <= rows[:-1]))):
        raise ShapeError(f"loss rows must be strictly increasing indices below {total}")
    n = rows.size
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} vs {n} loss rows")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ShapeError(f"label out of range [0,{c})")
    if not 0.0 <= smoothing < 1.0:
        raise ContractError(f"smoothing must be in [0,1), got {smoothing}")

    shifted = logits.data[rows]                 # a copy: shifted, then log_p, in place
    top = shifted[:, 0].copy()                  # the row max, column by column (exact)
    for j in range(1, c):
        np.maximum(top, shifted[:, j], out=top)
    shifted -= top[:, None]
    delta = np.exp(shifted)                     # its buffer later holds softmax - target
    log_z = np.log(delta.sum(axis=1, keepdims=True))
    log_p = np.subtract(shifted, log_z, out=shifted)

    target = np.full((n, c), smoothing / (c - 1) if c > 1 else 0.0)
    target[np.arange(n), labels] = 1.0 - smoothing

    loss = -(target * log_p).sum() / n
    np.exp(log_p, out=delta)                    # all the backward reads
    delta -= target

    def vjp(g):         # backward calls it once, so it scales delta in place
        full = np.zeros((total, c))
        np.multiply(delta, g[0, 0], out=delta)
        full[rows] = np.divide(delta, n, out=delta)
        return full

    return _op([[loss]], (logits,), (vjp,))


class AdamState:
    """Per-parameter first/second moment buffers plus a step counter."""

    def __init__(self):
        self.step = 0
        self.m = {}
        self.v = {}


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator floor


def adam_step(params: dict, grads: dict, state: AdamState, lr: float, weight_decay: float = 0.0):
    """One Adam update, in place on the ``params`` arrays.

    Weight decay is added to the raw gradient before the moment updates;
    that single convention is used everywhere in the package.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if weight_decay:
            g = g + weight_decay * p
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)
