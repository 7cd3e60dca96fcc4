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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, DatasetError, ShapeError


def _f32_grid(x: np.ndarray) -> np.ndarray:
    """Snap float64 values to the nearest float32, staying float64."""
    return x.astype(np.float32).astype(np.float64)


class CsrMatrix:
    """Compressed sparse row matrix with an explicit row-normalization flag."""

    def __init__(self, num_rows, num_cols, row_offsets, col_indices, values,
                 normalized=False):
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.normalized = bool(normalized)
        self._sp = self._sp_t = None
        self._mix = {}               # alpha -> (P, P^T), see mix_operator
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
        bad = np.diff(ci) <= 0
        starts = ro[1:-1]
        bad[starts[(starts > 0) & (starts < ci.size)] - 1] = False   # pairs across rows
        if bad.any():
            r = int(np.searchsorted(ro, np.argmax(bad), side="right")) - 1
            raise ShapeError(f"row {r}: column indices not strictly increasing")
        if self.normalized:
            sums = np.add.reduceat(self.values, ro[:-1][np.diff(ro) > 0]) if ci.size else np.array([])
            if sums.size and np.max(np.abs(sums - 1.0)) > 1e-12:
                raise ShapeError("normalized flag set but row sums differ from 1")

    @property
    def nnz(self):
        return int(self.col_indices.shape[0])

    @property
    def degrees(self):
        return np.diff(self.row_offsets)

    @classmethod
    def from_undirected_edges(cls, pairs: np.ndarray, num_nodes: int) -> "CsrMatrix":
        """Build a symmetric 0/1 adjacency from unique undirected pairs."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=num_nodes)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return cls(num_nodes, num_nodes, offsets, dst, np.ones(dst.shape[0]))

    def row_normalize(self) -> "CsrMatrix":
        """Divide each nonempty row by its sum (mean aggregation weights)."""
        deg = self.degrees
        row_ids = np.repeat(np.arange(self.num_rows), deg)
        sums = np.zeros(self.num_rows)
        np.add.at(sums, row_ids, self.values)
        safe = np.where(sums == 0.0, 1.0, sums)
        return CsrMatrix(self.num_rows, self.num_cols, self.row_offsets,
                         self.col_indices, self.values / safe[row_ids],
                         normalized=True)

    def scipy(self) -> sp.csr_matrix:
        if self._sp is None:
            self._sp = sp.csr_matrix(
                (self.values, self.col_indices, self.row_offsets),
                shape=(self.num_rows, self.num_cols))
        return self._sp

    def scipy_t(self) -> sp.csr_matrix:
        """Cached CSR transpose, the backward operator of ``A @ h``."""
        if self._sp_t is None:
            self._sp_t = self.scipy().T.tocsr()
        return self._sp_t

    def mix_operator(self, alpha: float):
        """Cached CSR pair (P, P^T) with P = alpha*I + (1-alpha)*A: one
        mean-mix aggregation step is the single product P @ h."""
        if not self.normalized:
            raise ContractError("mean aggregation needs a row-normalized adjacency")
        if self.num_rows != self.num_cols:
            raise ShapeError(f"mean aggregation needs a square adjacency, "
                             f"got {self.num_rows}x{self.num_cols}")
        if alpha not in self._mix:
            p = (alpha * sp.identity(self.num_rows, format="csr")
                 + (1.0 - alpha) * self.scipy()).tocsr()
            self._mix[alpha] = (p, p.T.tocsr())
        return self._mix[alpha]

    def to_dense(self) -> np.ndarray:
        return self.scipy().toarray()

    def __eq__(self, other):
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (self.num_rows == other.num_rows
                and self.num_cols == other.num_cols
                and self.normalized == other.normalized
                and np.array_equal(self.row_offsets, other.row_offsets)
                and np.array_equal(self.col_indices, other.col_indices)
                and np.array_equal(self.values, other.values))


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
        if self.labels.shape != (n,):
            raise ShapeError(f"labels shape {self.labels.shape} != ({n},)")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= c):
            raise ShapeError(f"label out of range [0,{c})")
        seen = np.concatenate([self.splits[k] for k in ("train", "val", "test")])
        if seen.size != np.unique(seen).size:
            raise ShapeError("splits overlap")
        if seen.size and (seen.min() < 0 or seen.max() >= n):
            raise ShapeError("split index out of range")
        for k in ("train", "val", "test"):
            if len(self.splits[k]) == 0:
                raise ShapeError(f"empty {k} split")
        for name, dim in self.modalities:
            f = self.features[name]
            if f.shape != (n, dim):
                raise ShapeError(f"features[{name}] shape {f.shape} != ({n},{dim})")
        if self.adjacency.num_rows != n or self.adjacency.num_cols != n:
            raise ShapeError("adjacency is not N x N")

    def modality_names(self):
        return [name for name, _ in self.modalities]

    def with_features(self, features: dict, signals=...) -> "Mag":
        return Mag(self.num_nodes, self.num_classes, list(self.modalities),
                   features, self.labels, self.splits, self.adjacency,
                   self.signals if signals is ... else signals)

    def __eq__(self, other):
        if not isinstance(other, Mag):
            return NotImplemented
        same_sig = (self.signals is None) == (other.signals is None)
        if same_sig and self.signals is not None:
            same_sig = (set(self.signals) == set(other.signals)
                        and all(np.array_equal(self.signals[k], other.signals[k])
                                for k in self.signals))
        return (self.num_nodes == other.num_nodes
                and self.num_classes == other.num_classes
                and self.modalities == other.modalities
                and set(self.features) == set(other.features)
                and all(np.array_equal(self.features[k], other.features[k])
                        for k in self.features)
                and np.array_equal(self.labels, other.labels)
                and all(np.array_equal(self.splits[k], other.splits[k])
                        for k in ("train", "val", "test"))
                and self.adjacency == other.adjacency
                and same_sig)


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
        if not 0.0 < self.homophily <= 1.0:
            raise ContractError(f"homophily must be in (0,1], got {self.homophily}")
        if self.mean_degree < 1:
            raise ContractError(f"mean_degree must be >= 1, got {self.mean_degree}")
        for m in self.modalities:
            if m.dim < self.num_classes:
                raise ContractError(
                    f"modality {m.name}: dim {m.dim} < num_classes "
                    f"{self.num_classes} (orthogonal class signals need d >= C)")
        if any(f <= 0 for f in self.split_fracs) or sum(self.split_fracs) > 1.0 + 1e-9:
            raise ContractError(f"bad split fractions {self.split_fracs}")


def _orthogonal_signals(rng, dim, num_classes, norm):
    """C mutually orthogonal rows of length dim, each with the given norm."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, num_classes)))
    return _f32_grid(q[:, :num_classes].T * norm)


def _draw_edges(rng, labels, num_classes, num_nodes, mean_degree, homophily):
    """Undirected edge list with mean degree ~= mean_degree.

    Both endpoints' initiators are drawn uniformly, so realized degrees are
    Poisson-like around the mean, as in real sparse graphs.
    """
    num_edges = int(round(num_nodes * mean_degree / 2.0))
    init = rng.integers(0, num_nodes, num_edges)
    init_cls = labels[init]
    same = rng.random(num_edges) < homophily
    partners = np.empty(num_edges, dtype=np.int64)
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
    lo = np.minimum(init, partners)
    hi = np.maximum(init, partners)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pairs[pairs[:, 0] != pairs[:, 1]]


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
        noise = rng.standard_normal((n, m.dim)) * np.sqrt(m.noise_var / m.dim)
        signals[m.name] = sig
        features[m.name] = _f32_grid(sig[labels] + noise)
        modalities.append((m.name, m.dim))

    pairs = _draw_edges(rng, labels, c, n, spec.mean_degree, spec.homophily)
    adjacency = CsrMatrix.from_undirected_edges(pairs, n)

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


def measure_neighborhood_noise(mag: Mag, modality: str, beta: float) -> float:
    """Mean squared norm of the neighborhood-average residual against
    beta times the node's own class signal.  Needs stored class signals,
    so synthetic graphs only.  Isolated nodes are excluded."""
    if mag.signals is None:
        raise ContractError("neighborhood noise needs stored class signals (synthetic data)")
    if modality not in mag.features:
        raise ContractError(f"unknown modality {modality!r}")
    if not 0.0 <= beta <= 1.0:
        raise ContractError(f"beta must be in [0,1], got {beta}")
    norm_adj = mag.adjacency.row_normalize()
    xbar = norm_adj.scipy() @ mag.features[modality]
    resid = xbar - beta * mag.signals[modality][mag.labels]
    active = mag.adjacency.degrees > 0
    return float(np.mean(np.sum(resid[active] ** 2, axis=1)))


def measure_alignment(mag: Mag, modality: str) -> float:
    """Empirical alignment of the neighborhood mean with the node's own
    class signal: E[<xbar_N, s_v>] / ||s_v||^2.  Equals the homophily level
    when class signals are orthogonal."""
    if mag.signals is None:
        raise ContractError("alignment needs stored class signals (synthetic data)")
    norm_adj = mag.adjacency.row_normalize()
    xbar = norm_adj.scipy() @ mag.features[modality]
    sig = mag.signals[modality][mag.labels]
    active = mag.adjacency.degrees > 0
    num = np.sum(xbar[active] * sig[active], axis=1)
    den = np.sum(sig[active] ** 2, axis=1)
    return float(np.mean(num / den))


def inject_noise(mag: Mag, scale: float, seed: int) -> Mag:
    """Add scale * sigma_feat * standard Gaussian to every modality, where
    sigma_feat is that modality's empirical feature standard deviation."""
    if scale < 0:
        raise ContractError(f"noise scale must be >= 0, got {scale}")
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
    features = dict(mag.features)
    features[modality] = x
    return mag.with_features(features)


# ---------------------------------------------------------------------------
# Disk format: meta.json + edges.csv + feat_<name>.f32 (+ optional signals)
# ---------------------------------------------------------------------------

def save(mag: Mag, directory: str):
    os.makedirs(directory, exist_ok=True)
    meta = {
        "num_nodes": mag.num_nodes,
        "num_classes": mag.num_classes,
        "modalities": [{"name": name, "dim": dim} for name, dim in mag.modalities],
        "splits": {k: [int(i) for i in mag.splits[k]] for k in ("train", "val", "test")},
        "labels": [int(y) for y in mag.labels],
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)

    ro, ci = mag.adjacency.row_offsets, mag.adjacency.col_indices
    lines = []
    for src in range(mag.num_nodes):
        for dst in ci[ro[src]:ro[src + 1]]:
            if src < dst:                    # each undirected edge once
                lines.append(f"{src},{dst}\n")
    with open(os.path.join(directory, "edges.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    for name, _dim in mag.modalities:
        arr = mag.features[name].astype("<f4")
        arr.tofile(os.path.join(directory, f"feat_{name}.f32"))
        if mag.signals is not None and name in mag.signals:
            mag.signals[name].astype("<f4").tofile(
                os.path.join(directory, f"signals_{name}.f32"))


def load(directory: str) -> Mag:
    meta_path = os.path.join(directory, "meta.json")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise DatasetError(f"missing {meta_path}")
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed {meta_path}: {exc}")

    for key in ("num_nodes", "num_classes", "modalities", "splits", "labels"):
        if key not in meta:
            raise DatasetError(f"{meta_path}: missing key {key!r}")
    n = int(meta["num_nodes"])
    modalities = [(m["name"], int(m["dim"])) for m in meta["modalities"]]
    labels = np.asarray(meta["labels"], dtype=np.int64)
    splits = {k: np.asarray(meta["splits"][k], dtype=np.int64)
              for k in ("train", "val", "test")}
    seen = np.concatenate(list(splits.values()))
    if seen.size != np.unique(seen).size:
        raise DatasetError(f"{meta_path}: splits overlap")

    edges_path = os.path.join(directory, "edges.csv")
    pairs = []
    try:
        with open(edges_path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    a, b = line.split(",")
                    pairs.append((int(a), int(b)))
                except ValueError:
                    raise DatasetError(f"{edges_path}:{ln}: expected 'src,dst', got {line!r}")
    except FileNotFoundError:
        raise DatasetError(f"missing {edges_path}")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise DatasetError(f"{edges_path}: node index out of range")
    adjacency = CsrMatrix.from_undirected_edges(pairs, n)

    features, signals = {}, {}
    for name, dim in modalities:
        path = os.path.join(directory, f"feat_{name}.f32")
        try:
            raw = np.fromfile(path, dtype="<f4")
        except FileNotFoundError:
            raise DatasetError(f"missing {path}")
        if raw.size != n * dim:
            raise DatasetError(f"{path}: expected {n * dim} floats, found {raw.size}")
        features[name] = raw.astype(np.float64).reshape(n, dim)
        sig_path = os.path.join(directory, f"signals_{name}.f32")
        if os.path.exists(sig_path):
            sraw = np.fromfile(sig_path, dtype="<f4")
            c = int(meta["num_classes"])
            if sraw.size != c * dim:
                raise DatasetError(f"{sig_path}: expected {c * dim} floats, found {sraw.size}")
            signals[name] = sraw.astype(np.float64).reshape(c, dim)

    try:
        return Mag(n, int(meta["num_classes"]), modalities, features, labels,
                   splits, adjacency, signals or None)
    except ShapeError as exc:
        raise DatasetError(f"{directory}: {exc}")
