"""Multimodal attributed graphs: data model, synthetic generator, disk format.

The generator is built so the quantities in the closed-form analysis are
directly measurable: class signals are mutually orthogonal with a chosen
norm, encoder noise has a chosen expected squared norm, and the homophily
level doubles as the semantic alignment coefficient of the neighborhood
mean.  All features are quantized to the float32 grid at creation time so
the 32-bit on-disk format round-trips bit-exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DatasetError, ShapeError, check_number
from .tensor import ROW_BLOCK, _by_rows, _row_blocks, _spmm_rows


def _f32_grid(x: np.ndarray) -> np.ndarray:
    """Snap float64 values to the nearest float32, staying float64."""
    return x.astype(np.float32).astype(np.float64)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D integer array by one sort, in place, and a mask of
    the first of each run (np.unique itself may take a far slower hash path)."""
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _row_mean(fn, rows: np.ndarray) -> float:
    """The mean over ``rows`` of the per-row values that fn gives for each
    runner block of them (tensor._by_rows): bit for bit the mean of one pass
    over all rows, with block-sized temporaries."""
    def fill(out, lo, hi):
        out[:] = fn(rows[lo:hi])

    return float(np.mean(_by_rows((rows.size,), fill)))


def _same(a, b) -> bool:
    """Exact equality of arrays and plain values, recursing into dicts."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class CsrMatrix:
    """Compressed sparse row matrix with an explicit row-normalization flag.

    A 0/1 adjacency (``from_undirected_edges``, behind ``generate`` and
    ``load``) holds no array of ones: its ``values`` is a read-only float64
    view of one 1.0 with stride 0, and its pickle holds that one value.
    Nothing writes into a matrix's values, and a write into a 0/1 adjacency's
    would raise.  Its ``row_normalize()`` copy and any weighted matrix own
    real arrays.

    ``_undirected`` marks a symmetric pattern whose rows each hold one value,
    so that the transpose has the same pattern and row j's value at (i, j):
    ``from_undirected_edges`` sets it, which builds the pattern symmetric,
    ``row_normalize`` passes it on, and pickles keep it.  The backward of
    mean aggregation (tensor._spmm_t) reads it; the constructor never sets
    it, since a stride-0 values array alone may lie on a directed pattern."""

    def __init__(self, num_rows, num_cols, row_offsets, col_indices, values,
                 normalized=False):
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.normalized = bool(normalized)
        self._norm = None
        self._undirected = False
        self._validate()

    def _validate(self):
        ro, ci = self.row_offsets, self.col_indices
        if ro.shape != (self.num_rows + 1,):
            raise ShapeError(f"row_offsets length {ro.shape[0]} != num_rows+1")
        if ro[0] != 0 or np.any(np.diff(ro) < 0) or ro[-1] != ci.shape[0]:
            raise ShapeError("row_offsets must be monotone from 0 to nnz")
        if ci.shape != self.values.shape:
            raise ShapeError("col_indices and values length mismatch")
        if ci.size and (ci.min() < 0 or ci.max() >= self.num_cols):
            raise ShapeError(f"column index out of range [0,{self.num_cols})")
        if self.normalized and ci.size:     # |row sum - 1| in place, before the nnz-long mask
            sums = np.add.reduceat(self.values, ro[:-1][np.diff(ro) > 0])
            if np.abs(np.subtract(sums, 1.0, out=sums), out=sums).max() > 1e-12:
                raise ShapeError("normalized flag set but row sums differ from 1")
        bad = np.zeros(ci.size + 1, dtype=bool)     # bad[k]: entry k not above entry k - 1
        np.less_equal(ci[1:], ci[:-1], out=bad[1:-1])
        bad[ro] = False                             # a row's first entry
        if bad.any():
            r = int(np.searchsorted(ro, np.argmax(bad), side="right")) - 1
            raise ShapeError(f"row {r}: column indices not strictly increasing")

    def _args(self):
        """The constructor arguments: what pickling and equality see, never the caches."""
        return (self.num_rows, self.num_cols, self.row_offsets, self.col_indices,
                self.values, self.normalized)

    def __reduce__(self):
        num_rows, num_cols, row_offsets, col_indices, values, normalized = self._args()
        if self.nnz and values.strides == (0,):     # one value broadcast: pickled once
            values = float(values[0])
        return (_unpickle_csr, (num_rows, num_cols, row_offsets, col_indices, values, normalized,
                                self._undirected))

    @property
    def nnz(self):
        return int(self.col_indices.shape[0])

    @property
    def degrees(self):
        return np.diff(self.row_offsets)

    @classmethod
    def from_undirected_edges(cls, pairs: np.ndarray, num_nodes: int) -> "CsrMatrix":
        """Build a symmetric 0/1 adjacency from unique undirected pairs: the
        sorted keys a*N+b and b*N+a, modulo N, are the column indices, and
        the values are one 1.0 broadcast to nnz (8 bytes, not 8 an entry)."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        keys = np.empty((2, len(pairs)), dtype=np.int64)
        np.multiply(pairs.T, num_nodes, out=keys)          # a*N over b*N
        keys += pairs.T[::-1]                              # + b over + a
        keys = keys.ravel()
        keys.sort()
        np.remainder(keys, num_nodes, out=keys)
        offsets = np.concatenate([[0], np.cumsum(np.bincount(pairs.ravel(), minlength=num_nodes))])
        adj = cls(num_nodes, num_nodes, offsets, keys, np.broadcast_to(1.0, keys.shape))
        adj._undirected = True
        return adj

    def row_normalize(self) -> "CsrMatrix":
        """Cached copy with each nonempty row divided by its sum (mean
        weights); a normalized matrix is its own."""
        if self.normalized:
            return self
        if self._norm is None:
            ro, v = self.row_offsets, self.values
            values = np.empty_like(v)

            def divide(lo, hi):     # rows lo:hi: bincount's sums in entry order, then the division
                ids = np.repeat(np.arange(hi - lo), np.diff(ro[lo:hi + 1]))
                sums = np.bincount(ids, v[ro[lo]:ro[hi]], minlength=hi - lo)
                sums[sums == 0.0] = 1.0
                np.divide(v[ro[lo]:ro[hi]], sums[ids], out=values[ro[lo]:ro[hi]])

            _row_blocks(self.num_rows, divide)
            self._norm = CsrMatrix(self.num_rows, self.num_cols, self.row_offsets,
                                   self.col_indices, values, normalized=True)
            self._norm._undirected = self._undirected      # D^-1 A: each row holds 1/deg
        return self._norm

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.num_rows, self.num_cols))
        dense[np.repeat(np.arange(self.num_rows), self.degrees), self.col_indices] = self.values
        return dense

    def __eq__(self, other):
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return all(map(_same, self._args(), other._args()))


def _unpickle_csr(num_rows, num_cols, row_offsets, col_indices, values, normalized, undirected):
    """Unpickle a CsrMatrix with its undirected mark; a float ``values`` is one
    value broadcast to nnz, a read-only stride-0 view again."""
    if np.ndim(values) == 0:
        values = np.broadcast_to(values, np.shape(col_indices))
    adj = CsrMatrix(num_rows, num_cols, row_offsets, col_indices, values, normalized)
    adj._undirected = undirected
    return adj


@dataclass
class Mag:
    """A multimodal attributed graph, immutable after construction.

    ``signals`` holds the true per-class signal vectors (C x d_m per
    modality) and is only present for synthetic graphs; it never leaves the
    package except through the optional signals sidecar files.
    """

    num_nodes: int
    num_classes: int
    modalities: list            # ordered (name, dim) pairs
    features: dict              # name -> N x d float64 (float32-grid values)
    labels: np.ndarray
    splits: dict                # "train"/"val"/"test" -> sorted index arrays
    adjacency: CsrMatrix
    signals: dict | None = None

    def __post_init__(self):
        n, c = self.num_nodes, self.num_classes
        if c > n:               # a model sizes its heads by num_classes
            raise ShapeError(f"num_classes {c} exceeds num_nodes {n}")
        if self.labels.shape != (n,):
            raise ShapeError(f"labels shape {self.labels.shape} != ({n},)")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= c):
            raise ShapeError(f"label out of range [0,{c})")
        seen = np.concatenate([self.splits[k] for k in ("train", "val", "test")])
        if seen.size != _sorted_unique(seen).size:
            raise ShapeError("splits overlap")
        if seen.size and (seen.min() < 0 or seen.max() >= n):
            raise ShapeError("split index out of range")
        for k in ("train", "val", "test"):
            if len(self.splits[k]) == 0:
                raise ShapeError(f"empty {k} split")
            if np.any(np.diff(self.splits[k]) <= 0):    # the loss reads its rows in order
                raise ShapeError(f"{k} split is not strictly increasing")
        if not self.modalities:
            raise ShapeError("a graph needs at least one modality")
        if len(set(self.modality_names())) != len(self.modalities):
            raise ShapeError(f"repeated modality name in {self.modality_names()}")
        for name, dim in self.modalities:
            f = self.features[name]
            if f.shape != (n, dim):
                raise ShapeError(f"features[{name}] shape {f.shape} != ({n},{dim})")
        if self.adjacency.num_rows != n or self.adjacency.num_cols != n:
            raise ShapeError("adjacency is not N x N")

    def modality_names(self):
        return [name for name, _ in self.modalities]

    def with_features(self, features: dict) -> "Mag":
        return Mag(self.num_nodes, self.num_classes, list(self.modalities),
                   features, self.labels, self.splits, self.adjacency, self.signals)

    def __eq__(self, other):
        if not isinstance(other, Mag):
            return NotImplemented
        return _same(vars(self), vars(other))


@dataclass
class ModalitySpec:
    name: str
    dim: int
    signal_norm: float = 1.0    # ||s|| per class signal
    noise_var: float = 0.1      # expected squared noise norm, total not per-dim


@dataclass
class SyntheticSpec:
    num_nodes: int
    num_classes: int
    modalities: list            # list[ModalitySpec]
    homophily: float = 0.8
    mean_degree: float = 10.0
    split_fracs: tuple = (0.6, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self):
        for name in ("num_nodes", "num_classes", "seed"):
            check_number(name, getattr(self, name), integer=True, low=0 if name == "seed" else 1)
        check_number("homophily", self.homophily)
        if not 0.0 < self.homophily <= 1.0:
            raise ContractError(f"homophily must be in (0,1], got {self.homophily}")
        if self.num_classes > self.num_nodes:   # every class must get a node
            raise ContractError(f"num_classes {self.num_classes} exceeds num_nodes {self.num_nodes}")
        check_number("mean_degree", self.mean_degree, low=1)
        if self.mean_degree > self.num_nodes:   # the edge draw holds mean_degree * N / 2 pairs
            raise ContractError(f"mean_degree {self.mean_degree} exceeds num_nodes {self.num_nodes}")
        for m in self.modalities:
            if not isinstance(m.name, str) or not m.name or "/" in m.name or "\0" in m.name:
                raise ContractError(f"modality name must be a non-empty string without '/' or "
                                    f"NUL (it names feat_<name>.f32), got {m.name!r:.40}")
            check_number(f"modality {m.name}: noise_var", m.noise_var, low=0)
            check_number(f"modality {m.name}: signal_norm", m.signal_norm)
            # one orthogonal class signal per class needs d >= C
            check_number(f"modality {m.name}: dim", m.dim, integer=True, low=self.num_classes)
        if not isinstance(self.split_fracs, (tuple, list)) or len(self.split_fracs) != 3:
            raise ContractError(f"split_fracs must be three numbers, got {self.split_fracs!r:.40}")
        for f in self.split_fracs:
            check_number("split_fracs", f)
        if any(f <= 0 for f in self.split_fracs) or sum(self.split_fracs) > 1.0 + 1e-9:
            raise ContractError(f"split_fracs must be > 0 with sum <= 1, got {self.split_fracs}")


def _orthogonal_signals(rng, dim, num_classes, norm):
    """C mutually orthogonal rows of length dim, each with the given norm."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, num_classes)))
    return _f32_grid(q[:, :num_classes].T * norm)


def _draw_edges(rng, labels, num_classes, num_nodes, mean_degree, homophily):
    """Undirected edge list with mean degree ~= mean_degree, as sorted
    (lo, hi) pairs.

    Both endpoints' initiators are drawn uniformly, so realized degrees are
    Poisson-like around the mean, as in real sparse graphs.
    """
    num_edges = int(round(num_nodes * mean_degree / 2.0))
    init = rng.integers(0, num_nodes, num_edges)
    partners = _draw_partners(rng, labels, num_classes, init, rng.random(num_edges) < homophily)
    keys = np.minimum(init, partners)        # lo*N + hi, in place
    keys *= num_nodes
    np.maximum(init, partners, out=partners)
    keys += partners
    del init, partners
    keys = _sorted_unique(keys)
    pairs = np.empty((keys.size, 2), dtype=np.int64)   # lo < hi: no partner is its initiator
    np.divmod(keys, num_nodes, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def _draw_partners(rng, labels, num_classes, init, same):
    """Each initiator's partner: a node of its own class where ``same``, of
    another class elsewhere, and never the initiator itself."""
    init_cls = labels[init]
    partners = np.empty(init.size, dtype=np.int64)
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        others = np.flatnonzero(labels != c)
        pick = same & (init_cls == c)
        if pick.any():
            if members.size < 2:
                raise ContractError(f"class {c} has < 2 nodes; cannot draw same-class edges")
            r = rng.integers(0, members.size - 1, pick.sum())
            p = members[r]
            clash = p == init[pick]          # swap the initiator for the last member
            p[clash] = members[-1]
            partners[pick] = p
        pick = (~same) & (init_cls == c)
        if pick.any():
            if others.size == 0:
                raise ContractError("single-class graph cannot draw cross-class edges")
            partners[pick] = others[rng.integers(0, others.size, pick.sum())]
    return partners


def generate(spec: SyntheticSpec) -> Mag:
    """Sample a synthetic multimodal graph matching the analysis model:
    features are class signal plus isotropic Gaussian noise, and each edge
    is same-class with probability ``homophily``."""
    rng = np.random.default_rng(spec.seed)
    n, c = spec.num_nodes, spec.num_classes

    labels = rng.integers(0, c, n)
    for cls in range(c):                     # every class must be populated
        if not np.any(labels == cls):
            donor = np.bincount(labels, minlength=c).argmax()
            labels[np.flatnonzero(labels == donor)[0]] = cls

    signals, features, modalities = {}, {}, []
    for m in spec.modalities:
        sig = _orthogonal_signals(rng, m.dim, c, m.signal_norm)
        x = rng.standard_normal((n, m.dim))
        x *= np.sqrt(m.noise_var / m.dim)

        def snap(lo, hi, x=x, sig=sig):     # plus the class signal, on the float32 grid
            b = x[lo:hi]
            b += sig[labels[lo:hi]]
            b[...] = b.astype(np.float32)

        _row_blocks(n, snap)
        signals[m.name] = sig
        features[m.name] = x
        modalities.append((m.name, m.dim))

    adjacency = CsrMatrix.from_undirected_edges(
        _draw_edges(rng, labels, c, n, spec.mean_degree, spec.homophily), n)

    perm = rng.permutation(n)
    n_train = int(round(spec.split_fracs[0] * n))
    n_val = int(round(spec.split_fracs[1] * n))
    n_test = min(int(round(spec.split_fracs[2] * n)), n - n_train - n_val)
    splits = {
        "train": np.sort(perm[:n_train]),
        "val": np.sort(perm[n_train:n_train + n_val]),
        "test": np.sort(perm[n_train + n_val:n_train + n_val + n_test]),
    }
    return Mag(n, c, modalities, features, labels, splits, adjacency, signals)


def calibrate(mag: Mag, modality: str) -> tuple:
    """(beta_hat, sigma_n^2 hat) of one modality from one neighborhood mean
    xbar over the non-isolated nodes.  beta_hat = E[<xbar, s_v>] / ||s_v||^2,
    the alignment with the node's own class signal s_v (the homophily level
    when class signals are orthogonal); sigma_n^2 hat = E||xbar - beta_hat s_v||^2.
    beta_hat is a measurement and may fall slightly outside [0,1].  Needs
    stored class signals, so synthetic graphs only."""
    if mag.signals is None:
        raise ContractError("calibration needs stored class signals (synthetic data)")
    if modality not in mag.features:
        raise ContractError(f"unknown modality {modality!r}")
    active = np.flatnonzero(mag.adjacency.degrees > 0)
    if not active.size:
        raise ContractError("calibration needs at least one non-isolated node")
    a = mag.adjacency.row_normalize()
    x = np.ascontiguousarray(mag.features[modality], dtype=np.float64)
    sig, labels = mag.signals[modality], mag.labels

    def mean(fn):       # of fn(neighborhood means, own class signals) over the active rows
        def block(rows):    # the span of rows, isolated ones too; then rows' values
            lo, hi = rows[0], rows[-1] + 1
            xbar = np.empty((hi - lo, x.shape[1]))
            _spmm_rows(a, x, xbar, lo, hi)
            return fn(xbar, sig[labels[lo:hi]])[rows - lo]
        return _row_mean(block, active)

    def alignment(xbar, s):     # <xbar, s> / ||s||^2, in place on both
        dots = np.sum(np.multiply(xbar, s, out=xbar), axis=1)
        return dots / np.sum(np.square(s, out=s), axis=1)

    beta = mean(alignment)

    def residual(xbar, s):      # ||xbar - beta s||^2, in place on both
        s *= beta
        return np.sum(np.square(np.subtract(xbar, s, out=xbar), out=xbar), axis=1)

    return beta, mean(residual)


def intrinsic_noise(mag: Mag, modality: str) -> float:
    """eps^2 hat = E||x_v - s_v||^2 over all nodes: a modality's encoder noise."""
    x, sig = mag.features[modality], mag.signals[modality]

    def block(rows):        # in place on the gathered rows
        d = x[rows]
        d -= sig[mag.labels[rows]]
        return np.sum(np.square(d, out=d), axis=1)

    return _row_mean(block, np.arange(mag.num_nodes))


def inject_noise(mag: Mag, scale: float, seed: int) -> Mag:
    """Add scale * sigma_feat * standard Gaussian to every modality, where
    sigma_feat is that modality's empirical feature standard deviation."""
    if not (np.isfinite(scale) and scale >= 0):
        raise ContractError(f"noise scale must be finite and >= 0, got {scale}")
    if scale == 0:
        return mag.with_features(dict(mag.features))
    rng = np.random.default_rng(seed)
    features = {}
    for name, _dim in mag.modalities:
        x = mag.features[name]
        sigma = float(x.std())
        features[name] = _f32_grid(x + scale * sigma * rng.standard_normal(x.shape))
    return mag.with_features(features)


def corrupt_modality(mag: Mag, modality: str, seed: int) -> Mag:
    """Replace the named modality's test rows with zero-mean Gaussian rows
    whose per-dimension std matches the original matrix.  Train and val
    rows are untouched."""
    if modality not in mag.features:
        raise ContractError(f"unknown modality {modality!r}")
    rng = np.random.default_rng(seed)
    x = mag.features[modality].copy()
    test = mag.splits["test"]
    std = mag.features[modality].std(axis=0)
    x[test] = _f32_grid(rng.standard_normal((test.size, x.shape[1])) * std)
    return mag.with_features({**mag.features, modality: x})


# ---------------------------------------------------------------------------
# Disk format: meta.json + edges.csv + feat_<name>.f32 (+ optional signals)
# ---------------------------------------------------------------------------

def save(mag: Mag, directory: str):
    """Write the dataset into ``directory``, all or nothing: the files are
    written into a temporary directory inside it and moved into place only
    once every one of them exists, so an error leaves none of them behind."""
    os.makedirs(directory, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".save-", dir=directory)
    moved = []
    try:
        _write_files(mag, staging)
        for name in os.listdir(staging):
            os.replace(os.path.join(staging, name), os.path.join(directory, name))
            moved.append(name)
    except BaseException:
        for name in moved:
            os.remove(os.path.join(directory, name))
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _decimal(block: np.ndarray, seps: tuple) -> bytes:
    """The ASCII decimal text of ``block``, a rows x len(seps) array of
    non-negative integers, row by row, each value followed by its column's
    separator (byte strings of one length).  The digits are filled by
    repeated division by 10 into a uint8 matrix, the separators beside them,
    and one boolean mask drops the leading zeros.  Each step runs on one
    strided column of the matrix: numpy is slow on short inner loops."""
    if block.size and block.min() < 0:
        raise ContractError("cannot write a negative integer as decimal text")
    width = len(str(int(block.max()))) if block.size else 1
    rows, cols = block.shape
    text = np.empty((rows, cols, width + len(seps[0])), dtype=np.uint8)
    for j, sep in enumerate(seps):
        for i, byte in enumerate(sep):
            text[:, j, width + i] = byte
    keep = np.ones(text.shape, dtype=bool)
    rest = block.astype(np.uint64)
    quot, digit = np.empty_like(rest), np.empty_like(rest)
    for k in range(width - 1, -1, -1):      # digit k, from the last
        np.floor_divide(rest, 10, out=quot)
        np.multiply(quot, 10, out=digit)
        np.subtract(rest, digit, out=digit)
        np.add(digit, ord("0"), out=text[:, :, k], casting="unsafe")
        if k:       # digit k - 1 is a leading zero where nothing is left
            np.greater(quot, 0, out=keep[:, :, k - 1])
        rest, quot = quot, rest
    return text[keep].tobytes()


_WRITE_GROUP = 8        # row blocks formatted on the runner before the calling thread writes them
_LIST_ROW = 16          # list values per row of _write_list's blocks


def _write_decimal(fh, n: int, block, seps: tuple):
    """Write to ``fh`` the _decimal text of block(lo, hi) for the rows lo:hi
    of range(n), in row order.  The runner's threads format the row blocks
    of _WRITE_GROUP * ROW_BLOCK rows at a time and the calling thread then
    writes them: at most one group's text is held, and the bytes are those
    of one block of all n rows at any thread count."""
    step = _WRITE_GROUP * ROW_BLOCK
    for start in range(0, n, step):
        texts = {}

        def fmt(lo, hi, start=start):
            texts[lo] = _decimal(block(start + lo, start + hi), seps)

        _row_blocks(min(step, n - start), fmt)
        for lo in sorted(texts):
            fh.write(texts[lo])


def _write_list(fh, values: np.ndarray):
    """json.dumps' text of values.tolist(), a list of non-negative integers.
    A row of the blocks is _LIST_ROW values: a block of single values would
    be too small to pay for a thread."""
    last = values.size - 1

    def rows(lo, hi):       # the values but the last, _LIST_ROW to a row
        return values[lo * _LIST_ROW:min(hi * _LIST_ROW, last), None]

    fh.write(b"[")
    _write_decimal(fh, -(-last // _LIST_ROW), rows, (b", ",))
    fh.write(_decimal(values[last:, None], (b"]",)) if values.size else b"]")


def _write_files(mag: Mag, directory: str):
    head = {"num_nodes": mag.num_nodes, "num_classes": mag.num_classes,
            "modalities": [{"name": name, "dim": dim} for name, dim in mag.modalities]}
    with open(os.path.join(directory, "meta.json"), "wb") as fh:    # the bytes of json.dumps
        fh.write(json.dumps(head)[:-1].encode())
        for key, values in ((', "splits": {"train": ', mag.splits["train"]),
                            (', "val": ', mag.splits["val"]), (', "test": ', mag.splits["test"]),
                            ('}, "labels": ', mag.labels)):
            fh.write(key.encode())
            _write_list(fh, values)
        fh.write(b"}")

    ro, ci = mag.adjacency.row_offsets, mag.adjacency.col_indices

    def edges(lo, hi):      # each undirected edge once, as its upper-triangle entry
        src = np.repeat(np.arange(lo, hi), np.diff(ro[lo:hi + 1]))
        dst = ci[ro[lo]:ro[hi]]
        upper = src < dst
        return np.stack([src[upper], dst[upper]], axis=1)

    with open(os.path.join(directory, "edges.csv"), "wb") as fh:
        _write_decimal(fh, mag.num_nodes, edges, (b",", b"\n"))

    for name, _dim in mag.modalities:
        with open(os.path.join(directory, f"feat_{name}.f32"), "wb") as fh:
            for i in range(0, mag.num_nodes, ROW_BLOCK):
                mag.features[name][i:i + ROW_BLOCK].astype("<f4").tofile(fh)
        if mag.signals is not None and name in mag.signals:
            mag.signals[name].astype("<f4").tofile(os.path.join(directory, f"signals_{name}.f32"))


def _ints(value, ndim: int) -> np.ndarray:
    """A JSON integer (ndim 0) or list of integers (ndim 1) as int64."""
    arr = np.asarray(value)
    if arr.ndim != ndim or (arr.size and arr.dtype.kind not in "iu"):
        raise TypeError(f"expected integer{'s' * ndim}, got {value!r:.40}")
    return arr.astype(np.int64)


def _read_edges(path: str) -> np.ndarray:
    """The E x 2 pairs of edges.csv.  A file numpy's parser rejects is read again
    line by line: that skips whitespace-only lines and names a malformed one."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # an empty file
            rows = np.loadtxt(path, dtype="<i8,<i8", delimiter=",", ndmin=1, comments=None)
        return rows.view(np.int64).reshape(-1, 2)
    except OSError as exc:                  # missing, or a directory
        raise DatasetError(f"cannot read {path!r}: {exc}")
    except ValueError:
        pass
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc})")
    pairs = []
    for ln, line in enumerate(lines, 1):
        if line.strip():
            try:
                a, b = line.split(",")
                pairs.append((int(a), int(b)))
            except ValueError:
                raise DatasetError(f"{path}:{ln}: expected 'src,dst', got {line.strip()!r}")
            if not all(-2 ** 63 <= v < 2 ** 63 for v in pairs[-1]):
                raise DatasetError(f"{path}:{ln}: node index outside int64: {line.strip()!r}")
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _read_f32(path: str, rows: int, cols: int) -> np.ndarray:
    """A rows x cols little-endian float32 file as float64, read into the
    result by row blocks: no whole-file float32 copy beside it.  A NaN or an
    inf is a DatasetError naming its row."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != rows * cols * 4:     # before rows x cols sizes the result
                raise DatasetError(f"{path}: expected {rows * cols} floats ({rows * cols * 4}"
                                   f" bytes), found {size} bytes")
            out = np.empty((rows, cols))
            for i in range(0, rows, ROW_BLOCK):
                block = out[i:i + ROW_BLOCK]
                block.ravel()[:] = np.fromfile(fh, dtype="<f4", count=block.size)
                if not np.isfinite(block).all():
                    row = i + int(np.isfinite(block).all(axis=1).argmin())
                    raise DatasetError(f"{path}: row {row} holds a NaN or an inf")
    except (OSError, ValueError) as exc:     # missing, a directory, or a name no file can have
        raise DatasetError(f"cannot read {path!r}: {exc}")
    return out


def load(directory: str) -> Mag:
    meta_path = os.path.join(directory, "meta.json")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:                  # missing, or a directory
        raise DatasetError(f"cannot read {meta_path!r}: {exc}")
    except ValueError as exc:               # not JSON, or not UTF-8
        raise DatasetError(f"malformed {meta_path}: {exc}")
    try:
        n, c = (int(_ints(meta[k], 0)) for k in ("num_nodes", "num_classes"))
        modalities = [(m["name"], int(_ints(m["dim"], 0))) for m in meta["modalities"]]
        labels = _ints(meta["labels"], 1)
        splits = {k: _ints(meta["splits"][k], 1) for k in ("train", "val", "test")}
        if not all(isinstance(name, str) for name, _ in modalities):
            raise ValueError("a non-string modality name")
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{meta_path}: bad or missing field ({type(exc).__name__}: {exc})")
    del meta                # its lists of Python ints, once they are arrays
    if labels.size != n:        # before num_nodes sizes any array
        raise DatasetError(f"{meta_path}: num_nodes is {n} but there are {labels.size} labels")

    edges_path = os.path.join(directory, "edges.csv")
    pairs = _read_edges(edges_path)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise DatasetError(f"{edges_path}: node index out of range")
    try:
        adjacency = CsrMatrix.from_undirected_edges(pairs, n)
    except ShapeError as exc:               # a row with a repeated column
        raise DatasetError(f"{edges_path}: self-loop or duplicate edge ({exc})")
    del pairs                               # 16 bytes an edge, freed before the features are read

    features, signals = {}, {}
    for name, dim in modalities:
        features[name] = _read_f32(os.path.join(directory, f"feat_{name}.f32"), n, dim)
        sig_path = os.path.join(directory, f"signals_{name}.f32")
        if os.path.exists(sig_path):
            signals[name] = _read_f32(sig_path, c, dim)

    try:
        return Mag(n, c, modalities, features, labels, splits, adjacency,
                   signals or None)
    except ShapeError as exc:
        raise DatasetError(f"{directory}: {exc}")
