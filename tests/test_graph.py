"""Graph data model, synthetic generator calibration, and disk format."""

import dataclasses
import io
import json
import os
import pickle
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scipy_csr, three_node_mag
from magsim import graph, validation
from magsim import tensor as T
from magsim.aggregation import mean_aggregate
from magsim.cli import _print_dataset_stats
from magsim.errors import ContractError, DatasetError, ShapeError
from magsim.graph import (CsrMatrix, Mag, ModalitySpec, SyntheticSpec,
                          _sorted_unique, calibrate, corrupt_modality, generate,
                          inject_noise, intrinsic_noise, load, save)


# ---------------------------------------------------------------------------
# CsrMatrix
# ---------------------------------------------------------------------------

def test_csr_validation_errors():
    with pytest.raises(ShapeError):
        CsrMatrix(2, 2, [0, 1], [0], [1.0])                 # offsets too short
    with pytest.raises(ShapeError):
        CsrMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])      # non-monotone
    with pytest.raises(ShapeError):
        CsrMatrix(2, 2, [0, 1, 2], [0, 5], [1.0, 1.0])      # col out of range
    with pytest.raises(ShapeError):
        CsrMatrix(1, 2, [0, 2], [1, 0], [1.0, 1.0])         # cols not sorted


def test_csr_validation_names_the_disordered_row():
    # row 3 follows an empty row and is out of order; the descent from
    # row 1 into row 3 crosses a row boundary and is allowed
    with pytest.raises(ShapeError, match=r"^row 3: column indices not strictly increasing$"):
        CsrMatrix(5, 5, [0, 2, 3, 3, 5, 6], [1, 3, 4, 2, 0, 4], np.ones(6))
    CsrMatrix(5, 5, [0, 2, 3, 3, 5, 6], [1, 3, 4, 0, 2, 4], np.ones(6))


def _first_disordered_row(num_rows, offsets, cols):
    """Per-row loop reference for the vectorised column-order check."""
    for r in range(num_rows):
        if np.any(np.diff(cols[offsets[r]:offsets[r + 1]]) <= 0):
            return r
    return None


def test_csr_validation_matches_row_loop():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        degrees = rng.integers(0, 4, n)
        offsets = np.concatenate([[0], np.cumsum(degrees)])
        cols = rng.integers(0, 5, int(offsets[-1]))
        expected = _first_disordered_row(n, offsets, cols)
        if expected is None:
            CsrMatrix(n, 5, offsets, cols, np.ones(cols.size))
        else:
            with pytest.raises(ShapeError, match=rf"^row {expected}: "):
                CsrMatrix(n, 5, offsets, cols, np.ones(cols.size))


def test_csr_symmetry_from_undirected_edges():
    pairs = np.array([[0, 1], [1, 2], [0, 3]])
    adj = CsrMatrix.from_undirected_edges(pairs, 4)
    dense = adj.to_dense()
    assert np.array_equal(dense, dense.T)
    assert adj.nnz == 6
    assert np.array_equal(adj.degrees, [2, 2, 1, 1])


def test_csr_row_normalize_sums_to_one():
    adj = CsrMatrix.from_undirected_edges(np.array([[0, 1], [0, 2]]), 4)
    norm = adj.row_normalize()
    sums = norm.to_dense().sum(axis=1)
    assert np.allclose(sums[:3], 1.0)
    assert sums[3] == 0.0                   # isolated row stays empty
    assert norm.normalized
    with pytest.raises(ShapeError):
        # claiming normalization without it being true is rejected
        CsrMatrix(2, 2, adj.row_offsets[:3], adj.col_indices[:2],
                  np.array([2.0, 2.0]), normalized=True)


def test_row_normalize_bits_do_not_depend_on_the_row_blocks():
    # weighted rows over several runner blocks, one of them empty: each row
    # sums its entries in entry order (bincount's), at any thread count
    rng = np.random.default_rng(4)
    n = 3 * T.ROW_BLOCK + 17
    pairs = np.unique(np.sort(rng.integers(1, n, (12 * n, 2)), axis=1), axis=0)
    pattern = CsrMatrix.from_undirected_edges(pairs[pairs[:, 0] != pairs[:, 1]], n)
    weights = rng.random(pattern.nnz) * 3
    row_ids = np.repeat(np.arange(n), pattern.degrees)
    sums = np.bincount(row_ids, weights, minlength=n)
    expected = weights / np.where(sums == 0.0, 1.0, sums)[row_ids]
    assert pattern.degrees[0] == 0
    try:
        for threads in (1, 2):
            T._set_threads(threads)
            adj = CsrMatrix(n, n, pattern.row_offsets, pattern.col_indices, weights)
            assert adj.row_normalize().values.tobytes() == expected.tobytes()
    finally:
        T._set_threads(None)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generate_deterministic():
    spec = SyntheticSpec(300, 3, [ModalitySpec("text", 8)], seed=7)
    assert generate(spec) == generate(spec)


def test_generate_noiseless_pure_homophily():
    spec = SyntheticSpec(500, 3, [ModalitySpec("text", 8, 1.0, 0.0)],
                         homophily=1.0, mean_degree=8, seed=5)
    mag = generate(spec)
    norm = mag.adjacency.row_normalize()
    xbar = scipy_csr(norm) @ mag.features["text"]
    own = mag.signals["text"][mag.labels]
    active = mag.adjacency.degrees > 0
    # every neighbor shares the class, so the mean equals the class signal
    # up to float32 grid rounding of the stored features
    assert np.max(np.abs(xbar[active] - own[active])) < 1e-6


def test_generate_edge_census(census_mag):
    src = np.repeat(np.arange(census_mag.num_nodes),
                    census_mag.adjacency.degrees)
    dst = census_mag.adjacency.col_indices
    same = np.mean(census_mag.labels[src] == census_mag.labels[dst])
    assert 0.67 <= same <= 0.73
    mean_deg = census_mag.adjacency.degrees.mean()
    assert 8.5 <= mean_deg <= 10.5


def test_generate_alignment_matches_homophily(census_mag):
    beta_hat, _ = calibrate(census_mag, "text")
    assert abs(beta_hat - 0.7) <= 0.03


def test_generate_snr_calibration(census_mag):
    sig = census_mag.signals["text"]
    resid = census_mag.features["text"] - sig[census_mag.labels]
    snr_emp = float((sig[0] ** 2).sum()) / float((resid ** 2).sum(axis=1).mean())
    assert abs(snr_emp - 2.0) / 2.0 < 0.05          # spec: ||s||^2=1, eps^2=0.5


def test_generate_orthogonal_signals():
    spec = SyntheticSpec(100, 4, [ModalitySpec("text", 16, 2.0, 0.1)], seed=1)
    sig = generate(spec).signals["text"]
    gram = sig @ sig.T
    assert np.allclose(np.diag(gram), 4.0, atol=1e-5)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-5


def test_generate_every_class_populated():
    spec = SyntheticSpec(30, 6, [ModalitySpec("text", 8)], seed=2)
    mag = generate(spec)
    assert set(np.unique(mag.labels)) == set(range(6))


def test_spec_validation():
    with pytest.raises(ContractError):
        SyntheticSpec(10, 2, [ModalitySpec("t", 4)], homophily=0.0)
    with pytest.raises(ContractError):
        SyntheticSpec(10, 2, [ModalitySpec("t", 4)], mean_degree=0.5)
    with pytest.raises(ContractError):
        SyntheticSpec(10, 4, [ModalitySpec("t", 2)])     # dim < num_classes
    with pytest.raises(ContractError):
        SyntheticSpec(10, 2, [ModalitySpec("t", 4)], split_fracs=(0.9, 0.2, 0.2))


@pytest.mark.parametrize("field,value", [
    ("noise_var", -0.1), ("noise_var", float("nan")), ("noise_var", float("inf")),
    ("signal_norm", float("nan")), ("signal_norm", float("inf")),
], ids=["negative-noise", "nan-noise", "inf-noise", "nan-signal", "inf-signal"])
def test_spec_rejects_bad_modality_numbers(field, value):
    # unchecked, these give NaN features with only a RuntimeWarning
    with pytest.raises(ContractError, match=field):
        SyntheticSpec(10, 2, [ModalitySpec("t", 4, **{field: value})])


def _spec(**fields):
    modality = {k: fields.pop(k) for k in ("name", "dim", "signal_norm", "noise_var")
                if k in fields}
    return SyntheticSpec(**{"num_nodes": 10, "num_classes": 2, **fields,
                            "modalities": [ModalitySpec(**{"name": "t", "dim": 4, **modality})]})


@pytest.mark.parametrize("field,value", [
    ("num_nodes", "10"), ("num_nodes", 10.0), ("num_classes", None), ("num_classes", 0),
    ("homophily", "x"), ("homophily", True), ("mean_degree", None), ("mean_degree", [4]),
    ("split_fracs", (0.6, "0.2", 0.2)), ("split_fracs", (0.6, 0.2)), ("split_fracs", "abc"),
    ("seed", -1), ("seed", "x"), ("seed", 1.5), ("seed", None),
    ("dim", "16"), ("dim", 4.0), ("signal_norm", "x"), ("noise_var", None), ("name", 3),
    ("name", ""), ("name", "te/xt"), ("name", "te\0xt"), ("mean_degree", 11), ("mean_degree", 1e12),
])
def test_spec_rejects_bad_value(field, value):
    _spec()                                         # the base spec is valid
    with pytest.raises(ContractError, match=field):
        _spec(**{field: value})


def test_mag_validation():
    mag = three_node_mag()
    with pytest.raises(ShapeError):
        Mag(3, 2, mag.modalities, mag.features, np.array([0, 1, 5]),
            mag.splits, mag.adjacency)
    with pytest.raises(ShapeError):
        Mag(3, 2, mag.modalities, mag.features, mag.labels,
            {"train": np.array([0, 1]), "val": np.array([1]),
             "test": np.array([2])}, mag.adjacency)
    with pytest.raises(ShapeError, match="train split is not strictly increasing"):
        Mag(4, 2, [("text", 2)], {"text": np.zeros((4, 2))}, np.array([0, 1, 0, 1]),
            {"train": np.array([2, 0]), "val": np.array([1]), "test": np.array([3])},
            CsrMatrix.from_undirected_edges(np.array([(0, 1)]), 4))
    with pytest.raises(ShapeError, match="num_classes 4 exceeds num_nodes 3"):
        Mag(3, 4, mag.modalities, mag.features, mag.labels, mag.splits, mag.adjacency)
    with pytest.raises(ContractError, match="num_classes 12 exceeds num_nodes 10"):
        SyntheticSpec(10, 12, [ModalitySpec("t", 12)], homophily=0.1)


# ---------------------------------------------------------------------------
# measurement ops
# ---------------------------------------------------------------------------

def test_neighborhood_noise_zero_aligned():
    spec = SyntheticSpec(400, 3, [ModalitySpec("text", 8, 1.0, 0.0)],
                         homophily=1.0, seed=4)
    mag = generate(spec)
    _, est = calibrate(mag, "text")
    assert est < 1e-10


def test_neighborhood_noise_averaging_oracle():
    # k neighbors, all same class, unit total noise: residual variance ~ 1/k
    spec = SyntheticSpec(4000, 3, [ModalitySpec("text", 12, 1.0, 1.0)],
                         homophily=1.0, mean_degree=25, seed=9)
    mag = generate(spec)
    _, est = calibrate(mag, "text")
    assert abs(est - 0.04) / 0.04 < 0.10


def _reference_alignment(mag, modality, a_hat=None):
    """Reference operands and beta_hat: the neighborhood means of the
    non-isolated rows, those rows' own class signals, and their alignment.
    ``a_hat`` is SciPy's copy of the row-normalized adjacency, built here if
    not given."""
    active = mag.adjacency.degrees > 0
    a_hat = scipy_csr(mag.adjacency.row_normalize()) if a_hat is None else a_hat
    xbar = (a_hat @ mag.features[modality])[active]
    sig = mag.signals[modality][mag.labels[active]]
    return xbar, sig, float(np.mean(np.sum(xbar * sig, axis=1) / np.sum(sig ** 2, axis=1)))


def _reference_calibration(mag, modality):
    """beta_hat and the mean of ||xbar - beta_hat s||^2 over the non-isolated rows."""
    xbar, sig, beta = _reference_alignment(mag, modality)
    return beta, float(np.mean(np.sum((xbar - beta * sig) ** 2, axis=1)))


def test_neighborhood_noise_beta_zero_second_moment():
    # sigma_n^2 hat is the beta = 0 second moment E||xbar||^2 less the part
    # the alignment explains: - 2 beta_hat E<xbar,s> + beta_hat^2 E||s||^2
    spec = SyntheticSpec(300, 3, [ModalitySpec("text", 8, 1.0, 0.5)],
                         homophily=0.6, seed=6)
    mag = generate(spec)
    xbar, sig, beta = _reference_alignment(mag, "text")
    second_moment = float(np.mean(np.sum(xbar ** 2, axis=1)))
    expected = (second_moment - 2 * beta * float(np.mean(np.sum(xbar * sig, axis=1)))
                + beta ** 2 * float(np.mean(np.sum(sig ** 2, axis=1))))
    assert calibrate(mag, "text")[1] == pytest.approx(expected, rel=1e-12)


def test_calibration_is_one_product_with_both_estimates(census_mag, monkeypatch):
    expected = _reference_calibration(census_mag, "text")
    means = []      # each neighborhood mean fetches the normalized adjacency once
    real = graph.CsrMatrix.row_normalize
    monkeypatch.setattr(graph.CsrMatrix, "row_normalize",
                        lambda self: means.append(1) or real(self))
    assert calibrate(census_mag, "text") == expected                   # bit for bit
    assert len(means) == 1


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_calibration_peak_memory_is_that_of_the_alignment(census_mag):
    # both estimates from one product must not hold more N x d arrays at
    # once than the alignment alone does (an out-of-place residual held one
    # more, +25.6 MB of peak RSS in `magsim gen` at N=200k)
    a_hat = scipy_csr(census_mag.adjacency.row_normalize())     # built outside the measurement
    one_array = census_mag.features["text"].nbytes
    alignment = _peak_bytes(lambda: _reference_alignment(census_mag, "text", a_hat))
    assert _peak_bytes(lambda: calibrate(census_mag, "text")) < alignment + one_array / 2


@pytest.fixture(scope="module")
def blocks_mag():
    """Mean degree 2 leaves about 15% of the nodes isolated; the rest span
    three runner blocks of active rows."""
    mag = generate(SyntheticSpec(7500, 3, [ModalitySpec("text", 8, 1.0, 0.5)],
                                 homophily=0.7, mean_degree=2, seed=21))
    degrees = mag.adjacency.degrees
    assert (degrees == 0).any() and np.count_nonzero(degrees) > 2 * T.ROW_BLOCK
    return mag


def test_calibration_over_several_row_blocks_is_bit_for_bit(blocks_mag):
    assert calibrate(blocks_mag, "text") == _reference_calibration(blocks_mag, "text")


def test_calibration_does_not_depend_on_the_runner_threads(blocks_mag):
    results = []
    try:
        for threads in (1, 2):
            T._set_threads(threads)
            results.append((calibrate(blocks_mag, "text"), intrinsic_noise(blocks_mag, "text")))
    finally:
        T._set_threads(None)
    assert results[0] == results[1]
    x, sig = blocks_mag.features["text"], blocks_mag.signals["text"][blocks_mag.labels]
    assert results[0][1] == float(np.mean(np.sum((x - sig) ** 2, axis=1)))


def test_row_block_mean_equals_the_unblocked_mean():
    x = np.random.default_rng(8).standard_normal((2 * T.ROW_BLOCK + 77, 5))
    rows = np.arange(x.shape[0])
    assert graph._row_mean(lambda r: (x[r] ** 2).sum(axis=1), rows) == \
        (x ** 2).sum(axis=1).mean()
    assert graph._row_mean(lambda r: (x[r] ** 2).sum(axis=1), rows[::3]) == \
        (x[::3] ** 2).sum(axis=1).mean()


@pytest.fixture(scope="module")
def mag_20k():
    """N = 20k, E about 100k, two 16-wide modalities."""
    return generate(SyntheticSpec(20000, 4, [ModalitySpec("text", 16, 1.0, 0.2),
                                             ModalitySpec("visual", 16, 1.0, 0.8)],
                                  seed=3))


def _one_thread_peak_bytes(fn):
    """_peak_bytes with the runner at one thread: no pool threads allocating
    while traced, so the peak does not depend on the CPU count."""
    T._set_threads(1)
    try:
        return _peak_bytes(fn)
    finally:
        T._set_threads(None)


def test_dataset_stats_peak_memory_is_under_two_feature_arrays(mag_20k, capsys):
    # no pass holds an N x d temporary: each runner block forms its own
    # neighborhood means (0.37 arrays; 1.33 when the means were one N x d
    # array, 4.1 when every pass was full-size)
    mag_20k.adjacency.row_normalize()
    one_array = mag_20k.features["text"].nbytes
    assert _one_thread_peak_bytes(lambda: _print_dataset_stats(mag_20k, 0.5)) <= 0.5 * one_array
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_row_normalize_holds_no_temporary_of_its_length(mag_20k):
    # the sums and the division run by row blocks into the result, so the
    # peak is the result plus the constructor's validation passes; the
    # whole-matrix version held 2.7 MB more (row ids and divisors, nnz each)
    adj = CsrMatrix(*mag_20k.adjacency._args())         # same arrays, no caches
    peak = _one_thread_peak_bytes(adj.row_normalize)
    norm = adj.row_normalize()
    validation = _one_thread_peak_bytes(lambda: CsrMatrix(*norm._args()))
    assert peak <= norm.values.nbytes + validation + norm.values.nbytes / 4


def test_edge_draw_peak_memory_is_under_seven_and_a_half_edge_arrays(mag_20k):
    # the keys are built in place and the draws freed before the dedupe
    # (4.3 arrays of E int64; 10.0 when they stayed live)
    edge_array = int(round(20000 * 10.0 / 2)) * 8
    assert _one_thread_peak_bytes(lambda: graph._draw_edges(
        np.random.default_rng(0), mag_20k.labels, 4, 20000, 10.0, 0.8)) <= 7.5 * edge_array


def test_load_peak_memory_holds_no_whole_file_feature_copy(mag_20k, tmp_path):
    # each feature file is read into its float64 array by row blocks (3.33
    # feature arrays, the loaded graph being 2.8 of them; 3.67 when the
    # whole file was read as float32 beside its float64 copy)
    d = str(tmp_path / "ds")
    save(mag_20k, d)
    one_array = mag_20k.features["text"].nbytes
    assert _one_thread_peak_bytes(lambda: load(d)) <= 3.5 * one_array


@pytest.mark.parametrize("homophily,seed,outside", [(1.0, 2, lambda b: b > 1.0),
                                                     (0.02, 4, lambda b: b < 0.0)],
                         ids=["above-one", "below-zero"])
def test_calibrated_beta_is_a_measurement_not_range_checked(homophily, seed, outside):
    # beta_hat estimates the homophily level; near 0 or 1 sampling puts it
    # slightly outside [0,1], and that must not raise
    spec = SyntheticSpec(300, 4, [ModalitySpec("text", 16, 1.0, 2.0)],
                         homophily=homophily, mean_degree=4, seed=seed)
    beta, sigma = calibrate(generate(spec), "text")
    assert outside(beta) and abs(beta - homophily) < 0.05 and sigma > 0


def test_calibration_rejects_a_graph_without_edges(small_mag):
    # with every node isolated there is no neighborhood mean to measure
    empty = CsrMatrix.from_undirected_edges(np.zeros((0, 2), dtype=np.int64),
                                            small_mag.num_nodes)
    mag = Mag(small_mag.num_nodes, small_mag.num_classes, small_mag.modalities,
              small_mag.features, small_mag.labels, small_mag.splits, empty,
              small_mag.signals)
    with pytest.raises(ContractError, match="at least one non-isolated node"):
        calibrate(mag, "text")


def test_measure_errors(tiny_mag):
    with pytest.raises(ContractError):
        calibrate(tiny_mag, "text")                      # no stored signals
    spec = SyntheticSpec(50, 2, [ModalitySpec("text", 4)], seed=0)
    mag = generate(spec)
    with pytest.raises(ContractError):
        calibrate(mag, "nope")


# ---------------------------------------------------------------------------
# noise injection and corruption
# ---------------------------------------------------------------------------

def test_inject_noise_scale_zero_identity(small_mag):
    out = inject_noise(small_mag, 0.0, 1)
    assert out == small_mag
    assert out is not small_mag


def test_inject_noise_variance_addition():
    spec = SyntheticSpec(3000, 3, [ModalitySpec("text", 8, 1.0, 0.5)], seed=12)
    mag = generate(spec)
    noisy = inject_noise(mag, 1.0, 99)
    var0 = mag.features["text"].var()
    var1 = noisy.features["text"].var()
    assert abs(var1 - 2.0 * var0) / (2.0 * var0) < 0.05


def test_inject_noise_deterministic(small_mag):
    a = inject_noise(small_mag, 0.5, 42)
    b = inject_noise(small_mag, 0.5, 42)
    assert a == b


def test_inject_noise_negative_scale(small_mag):
    with pytest.raises(ContractError):
        inject_noise(small_mag, -0.1, 0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_inject_noise_non_finite_scale(small_mag, scale):
    # unchecked, these give NaN features silently
    with pytest.raises(ContractError):
        inject_noise(small_mag, scale, 0)


def test_corrupt_modality_decorrelates():
    spec = SyntheticSpec(5000, 4, [ModalitySpec("text", 16, 1.0, 0.2)], seed=21)
    mag = generate(spec)
    corrupted = corrupt_modality(mag, "text", 77)
    test = mag.splits["test"]
    a = mag.features["text"][test].mean(axis=1)
    b = corrupted.features["text"][test].mean(axis=1)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_corrupt_modality_scope(small_mag):
    corrupted = corrupt_modality(small_mag, "text", 3)
    for split in ("train", "val"):
        idx = small_mag.splits[split]
        assert np.array_equal(corrupted.features["text"][idx],
                              small_mag.features["text"][idx])
    assert np.array_equal(corrupted.features["visual"],
                          small_mag.features["visual"])
    test = small_mag.splits["test"]
    assert not np.array_equal(corrupted.features["text"][test],
                              small_mag.features["text"][test])


def test_corrupt_modality_deterministic(small_mag):
    assert corrupt_modality(small_mag, "text", 5) == corrupt_modality(small_mag, "text", 5)


def test_corrupt_modality_unknown(small_mag):
    with pytest.raises(ContractError):
        corrupt_modality(small_mag, "audio", 0)


# ---------------------------------------------------------------------------
# disk format
# ---------------------------------------------------------------------------

def test_save_load_round_trip(small_mag, tmp_path):
    d = str(tmp_path / "ds")
    save(small_mag, d)
    assert load(d) == small_mag


def test_save_load_round_trip_without_signals(tmp_path):
    mag = three_node_mag()
    d = str(tmp_path / "ds")
    save(mag, d)
    loaded = load(d)
    assert loaded == mag
    assert loaded.signals is None


def test_load_truncated_features_names_file(small_mag, tmp_path):
    d = str(tmp_path / "ds")
    save(small_mag, d)
    path = os.path.join(d, "feat_text.f32")
    with open(path, "r+b") as fh:
        fh.truncate(100)
    with pytest.raises(DatasetError, match="feat_text.f32"):
        load(d)


@pytest.mark.parametrize("inflate", ["file", "dim"])
def test_feature_file_size_is_checked_before_the_array_is_sized(small_mag, tmp_path, inflate):
    d = str(tmp_path / "ds")
    save(small_mag, d)
    if inflate == "file":               # two bytes more than rows x cols floats
        with open(os.path.join(d, "feat_text.f32"), "ab") as fh:
            fh.write(b"xy")
    else:                               # a result no memory could hold
        _edit_meta(d, lambda m: m["modalities"][0].update(dim=10 ** 15))
    with pytest.raises(DatasetError, match=r"feat_text.f32: expected \d+ floats"):
        load(d)


@pytest.fixture(scope="module")
def two_block_dir(tmp_path_factory):
    """A saved dataset whose feature files span two of the reader's row blocks."""
    d = str(tmp_path_factory.mktemp("two_block") / "ds")
    save(generate(SyntheticSpec(T.ROW_BLOCK + 10, 3, [ModalitySpec("text", 4, 1.0, 0.2)],
                                mean_degree=4, seed=5)), d)
    return d


@pytest.mark.parametrize("row", [0, T.ROW_BLOCK + 5])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_a_non_finite_feature_naming_its_row(two_block_dir, tmp_path, value, row):
    """A NaN or inf feature would reach training and end it with a numeric
    error an epoch or two in; load names the file and the first bad row."""
    d = str(tmp_path / "ds")
    shutil.copytree(two_block_dir, d)
    with open(os.path.join(d, "feat_text.f32"), "r+b") as fh:
        fh.seek((row * 4 + 2) * 4)
        fh.write(np.array([value], dtype="<f4").tobytes())
    with pytest.raises(DatasetError, match=rf"feat_text\.f32: row {row} holds a NaN or an inf"):
        load(d)


def test_load_missing_meta(tmp_path):
    with pytest.raises(DatasetError, match="meta.json"):
        load(str(tmp_path))


def test_load_malformed_meta(tmp_path):
    (tmp_path / "meta.json").write_text("{not json")
    with pytest.raises(DatasetError, match="malformed"):
        load(str(tmp_path))


def test_non_utf8_meta_is_dataset_error(tmp_path):
    d = tmp_path / "ds"
    save(three_node_mag(), str(d))
    with open(d / "meta.json", "ab") as fh:
        fh.write(b"\xff")
    with pytest.raises(DatasetError, match="malformed .*meta.json"):
        load(str(d))


def test_load_split_overlap(small_mag, tmp_path):
    import json
    d = str(tmp_path / "ds")
    save(small_mag, d)
    meta_path = os.path.join(d, "meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["splits"]["val"][0] = meta["splits"]["train"][0]
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(DatasetError, match="overlap"):
        load(d)


def test_load_bad_edge_line(small_mag, tmp_path):
    d = str(tmp_path / "ds")
    save(small_mag, d)
    with open(os.path.join(d, "edges.csv"), "a") as fh:
        fh.write("7;9\n")
    with pytest.raises(DatasetError, match="src,dst"):
        load(d)


def test_hand_written_fixture_loads(tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "meta.json").write_text(
        '{"num_nodes": 3, "num_classes": 2,'
        ' "modalities": [{"name": "text", "dim": 2}],'
        ' "splits": {"train": [0], "val": [1], "test": [2]},'
        ' "labels": [0, 1, 0]}')
    (d / "edges.csv").write_text("0,1\n1,2\n")
    np.array([1.0, 0.0, 0.0, 1.0, 0.5, 0.5], dtype="<f4").tofile(
        str(d / "feat_text.f32"))
    mag = load(str(d))
    assert mag.num_nodes == 3 and mag.num_classes == 2
    assert np.array_equal(mag.features["text"],
                          [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    dense = mag.adjacency.to_dense()
    assert np.array_equal(dense, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(mag.labels, [0, 1, 0])


def test_save_is_byte_deterministic(small_mag, tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    save(small_mag, d1)
    save(small_mag, d2)
    for name in sorted(os.listdir(d1)):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


@pytest.mark.parametrize("name", ["x" * 300, "te/xt"], ids=["too-long", "slash"])
def test_save_that_fails_leaves_no_file_of_the_dataset(tmp_path, name):
    mag = three_node_mag()
    mag = Mag(3, 2, [(name, 2)], {name: mag.features["text"]}, mag.labels, mag.splits,
              mag.adjacency)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not part of the dataset")
    with pytest.raises(OSError):
        save(mag, str(out))
    assert os.listdir(out) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "not part of the dataset"


def test_save_that_fails_moving_a_file_into_place_takes_back_the_ones_moved(tmp_path):
    # a directory where feat_text.f32 belongs: meta.json and edges.csv are
    # moved into place before the move of the features fails
    out = tmp_path / "out"
    (out / "feat_text.f32").mkdir(parents=True)
    with pytest.raises(OSError):
        save(three_node_mag(), str(out))
    assert os.listdir(out) == ["feat_text.f32"]


# ---------------------------------------------------------------------------
# vectorised edge writer and parser
# ---------------------------------------------------------------------------

def per_edge_csv(mag):
    """The per-edge serialisation of edges.csv, kept as the writer's oracle."""
    ro, ci = mag.adjacency.row_offsets, mag.adjacency.col_indices
    lines = []
    for src in range(mag.num_nodes):
        for dst in ci[ro[src]:ro[src + 1]]:
            if src < dst:
                lines.append(f"{src},{dst}\n")
    return "".join(lines)


def graph_with_edges(n, pairs, seed=0):
    """An n-node, 2-class graph on the given undirected pairs."""
    rng = np.random.default_rng(seed)
    pairs = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    features = {"text": rng.standard_normal((n, 3)).astype(np.float32).astype(np.float64)}
    splits = {"train": np.arange(0, n - 2), "val": np.array([n - 2]),
              "test": np.array([n - 1])}
    return Mag(n, 2, [("text", 3)], features, rng.integers(0, 2, n), splits,
               CsrMatrix.from_undirected_edges(pairs, n))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(3, 40))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=3 * n))
    if draw(st.booleans()):
        pairs.add((draw(st.integers(0, n - 2)), n - 1))   # an edge to the last node
    return graph_with_edges(n, pairs, draw(st.integers(0, 2 ** 16)))


def _round_trip(mag, d):
    save(mag, d)
    with open(os.path.join(d, "edges.csv"), "rb") as fh:
        assert fh.read() == per_edge_csv(mag).encode()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load(d) == mag


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_edge_writer_and_parser_match_per_edge_format(tmp_path_factory, mag):
    _round_trip(mag, str(tmp_path_factory.mktemp("ds")))


@pytest.mark.parametrize("n,pairs", [
    (5, []),                                   # zero edges
    (6, [(0, 1), (1, 3)]),                     # isolated nodes 2, 4, 5
    (4, [(0, 3), (2, 3)]),                     # edges to node N-1
    (3, [(0, 1), (0, 2), (1, 2)]),
])
def test_edge_round_trip_cases(tmp_path, n, pairs):
    _round_trip(graph_with_edges(n, pairs), str(tmp_path / "ds"))


def test_save_writes_edges_in_bounded_chunks(tmp_path):
    # the writer formats one block of rows at a time: three blocks here, with
    # edges across each boundary between blocks
    n = 2 * T.ROW_BLOCK + 5
    pairs = {(a, b) for a in range(n) for b in range(a + 1, min(n, a + 40))}
    mag = graph_with_edges(n, pairs)
    _round_trip(mag, str(tmp_path / "ds"))


def meta_document(mag):
    """meta.json's document as the writer's oracle: json.dumps of this dict."""
    return {"num_nodes": mag.num_nodes, "num_classes": mag.num_classes,
            "modalities": [{"name": name, "dim": dim} for name, dim in mag.modalities],
            "splits": {k: mag.splits[k].tolist() for k in ("train", "val", "test")},
            "labels": mag.labels.tolist()}


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_meta_json_is_json_dumps_of_the_document(tmp_path_factory, mag):
    d = tmp_path_factory.mktemp("ds")
    save(mag, str(d))
    assert (d / "meta.json").read_bytes() == json.dumps(meta_document(mag)).encode()


@pytest.mark.parametrize("size", [0, 1, 2, graph._LIST_ROW, graph._LIST_ROW + 1,
                                  graph._LIST_ROW * T.ROW_BLOCK + 3])
def test_list_writer_is_json_dumps(size):
    values = np.random.default_rng(size).integers(0, 10 ** 6, size)
    fh = io.BytesIO()
    graph._write_list(fh, values)
    assert fh.getvalue() == json.dumps(values.tolist()).encode()


def test_decimal_matches_str_at_every_digit_boundary():
    values = [0, 2 ** 31 - 1, 2 ** 31, 2 ** 32, 2 ** 63 - 1]
    for k in range(1, 19):
        values += [10 ** k - 1, 10 ** k]
    assert max(values) > 2 ** 31
    col = np.array(values, dtype=np.int64)[:, None]
    assert graph._decimal(col, (b", ",)) == "".join(f"{v}, " for v in values).encode()
    pairs = np.stack([col[:, 0], col[::-1, 0]], axis=1)
    assert graph._decimal(pairs, (b",", b"\n")) == "".join(
        f"{a},{b}\n" for a, b in pairs.tolist()).encode()


def test_decimal_of_an_empty_block_and_of_one_row():
    assert graph._decimal(np.empty((0, 2), dtype=np.int64), (b",", b"\n")) == b""
    assert graph._decimal(np.array([[7, 120]]), (b",", b"\n")) == b"7,120\n"
    assert graph._decimal(np.array([[0]]), (b"]",)) == b"0]"


def test_decimal_refuses_a_negative_value():
    with pytest.raises(ContractError, match="negative"):
        graph._decimal(np.array([[3, -1]]), (b",", b"\n"))


def test_save_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # edges over more than one group of row blocks, and lists over two blocks
    n = 2 * graph._LIST_ROW * T.ROW_BLOCK + 7
    assert n > graph._WRITE_GROUP * T.ROW_BLOCK
    mag = graph_with_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    files = []
    try:
        for threads in (1, 2):
            T._set_threads(threads)
            d = tmp_path / f"threads{threads}"
            save(mag, str(d))
            files.append({f: (d / f).read_bytes() for f in sorted(os.listdir(d))})
        assert T._pool is not None          # the second save used the pool
    finally:
        T._set_threads(None)
    assert files[0] == files[1]
    assert files[0]["meta.json"] == json.dumps(meta_document(mag)).encode()
    assert files[0]["edges.csv"] == per_edge_csv(mag).encode()


@pytest.mark.parametrize("text", [
    "0,1\n\n1,2\n",                       # a blank line
    " 0 , 1 \n\t1,\t2\n",                 # whitespace around fields
    "0,1\n   \n1,2\n\n",                  # a whitespace-only line
    "0,1\r\n1,2\r\n",                      # CRLF line ends
])
def test_edges_parse_blank_lines_and_whitespace(tmp_path, text):
    d = tmp_path / "ds"
    save(three_node_mag(), str(d))
    (d / "edges.csv").write_bytes(text.encode())
    assert np.array_equal(load(str(d)).adjacency.to_dense(),
                          [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


@pytest.mark.parametrize("text,line", [
    ("0,1\n\n7;9\n", 3),
    ("0,1\n1,2,0\n", 2),
    ("1\n", 1),
    ("0,x\n", 1),
    ("0,1.0\n", 1),
])
def test_malformed_edge_line_names_its_number(tmp_path, text, line):
    d = tmp_path / "ds"
    save(three_node_mag(), str(d))
    (d / "edges.csv").write_text(text)
    with pytest.raises(DatasetError, match=rf"edges\.csv:{line}: expected 'src,dst'"):
        load(str(d))


def test_non_utf8_edges_is_dataset_error(tmp_path):
    d = tmp_path / "ds"
    save(three_node_mag(), str(d))
    (d / "edges.csv").write_bytes(b"0,1\n\xff\xfe,2\n")
    with pytest.raises(DatasetError, match=r"edges\.csv: not UTF-8"):
        load(str(d))


@pytest.mark.parametrize("text", ["0,0\n", "0,1\n0,1\n", "0,1\n1,0\n", "1,2\n2,2\n"])
def test_self_loop_or_duplicate_edge_is_dataset_error(tmp_path, text):
    d = tmp_path / "ds"
    save(three_node_mag(), str(d))
    (d / "edges.csv").write_text(text)
    with pytest.raises(DatasetError, match=r"edges\.csv: self-loop or duplicate edge"):
        load(str(d))


def _edit_meta(d, edit):
    path = os.path.join(d, "meta.json")
    with open(path) as fh:
        meta = json.load(fh)
    edit(meta)
    with open(path, "w") as fh:
        json.dump(meta, fh)


@pytest.mark.parametrize("edit", [
    lambda m: m["splits"].pop("val"),
    lambda m: m["modalities"][0].pop("dim"),
    lambda m: m.pop("labels"),
    lambda m: m.update(num_nodes="many"),
    lambda m: m.update(num_nodes=2.5),
    lambda m: m.update(num_nodes=-1),
    lambda m: m.update(modalities=5),
    lambda m: m["modalities"][0].update(name=["text"]),
    lambda m: m["modalities"][0].update(dim=True),
    lambda m: m.update(labels=[0.5] * len(m["labels"])),
    lambda m: m["splits"].update(train=[m["splits"]["train"]]),
    lambda m: m.update(splits=[]),
], ids=["no-val-split", "no-dim", "no-labels", "string-count", "float-count",
        "negative-count", "modalities-not-list", "list-name", "bool-dim",
        "float-labels", "nested-split", "splits-not-object"])
def test_malformed_meta_field_is_dataset_error(small_mag, tmp_path, edit):
    d = str(tmp_path / "ds")
    save(small_mag, d)
    _edit_meta(d, edit)
    with pytest.raises(DatasetError, match="meta.json"):
        load(d)


def test_inflated_num_nodes_fails_before_any_array_is_sized(tmp_path):
    # 10**15 nodes would ask numpy for petabytes; edges.csv is not even read
    d = str(tmp_path / "ds")
    save(three_node_mag(), d)
    _edit_meta(d, lambda m: m.update(num_nodes=10**15))
    os.remove(os.path.join(d, "edges.csv"))
    with pytest.raises(DatasetError, match="num_nodes is 1000000000000000 but there are 3 labels"):
        load(d)


def test_num_classes_above_num_nodes_is_dataset_error(tmp_path):
    # without a signals sidecar nothing else bounds num_classes, and every
    # model sizes its heads by it (10**15 classes asked numpy for petabytes)
    d = str(tmp_path / "ds")
    save(three_node_mag(), d)
    _edit_meta(d, lambda m: m.update(num_classes=10**15))
    with pytest.raises(DatasetError, match="num_classes 1000000000000000 exceeds num_nodes 3"):
        load(d)


@pytest.mark.parametrize("name", ["meta.json", "edges.csv", "signals_text.f32"])
def test_directory_in_place_of_a_dataset_file_is_dataset_error(small_mag, tmp_path, name):
    d = str(tmp_path / "ds")
    save(small_mag, d)
    os.remove(os.path.join(d, name))
    os.mkdir(os.path.join(d, name))
    with pytest.raises(DatasetError, match=f"cannot read .*{name}"):
        load(d)


@pytest.mark.parametrize("text,line", [
    ("0,1\n99999999999999999999,1\n", 2),
    ("0,1\n1,2\n2,-9223372036854775809\n", 3),
])
def test_edge_index_outside_int64_names_its_line(tmp_path, text, line):
    d = tmp_path / "ds"
    save(three_node_mag(), str(d))
    (d / "edges.csv").write_text(text)
    with pytest.raises(DatasetError, match=rf"edges\.csv:{line}: node index outside int64"):
        load(str(d))


def test_repeated_modality_name_is_rejected(tmp_path):
    mag = three_node_mag()
    with pytest.raises(ShapeError, match="repeated modality name"):
        Mag(3, 2, [("text", 2), ("text", 2)], mag.features, mag.labels, mag.splits,
            mag.adjacency)
    d = str(tmp_path / "ds")
    save(mag, d)
    _edit_meta(d, lambda m: m["modalities"].append(m["modalities"][0]))
    with pytest.raises(DatasetError, match="repeated modality name"):
        load(d)


@pytest.mark.parametrize("name", ["text.f32/x", "a\x00b", "\udc00x", "x" * 300],
                         ids=["under-a-file", "nul", "lone-surrogate", "too-long"])
def test_modality_name_no_file_can_have_is_dataset_error(tmp_path, name):
    d = str(tmp_path / "ds")
    save(three_node_mag(), d)
    _edit_meta(d, lambda m: m["modalities"][0].update(name=name))
    with pytest.raises(DatasetError, match="cannot read"):
        load(d)


# ---------------------------------------------------------------------------
# fuzzed datasets: every malformed input ends in DatasetError
# ---------------------------------------------------------------------------

_scalars = st.one_of(st.none(), st.booleans(), st.integers(max_value=-1),
                     st.just(2 ** 63), st.just(10 ** 15), st.floats(),
                     st.text(max_size=12))
_values = st.one_of(_scalars, st.lists(_scalars, max_size=4),
                    st.lists(st.integers(-2, 2 ** 64), min_size=38, max_size=42))
_META_FIELDS = ("num_nodes", "num_classes", "labels", "splits.train", "splits.val",
                "splits.test", "modalities.0.name", "modalities.1.name",
                "modalities.0.dim", "modalities.1.dim")
_edge_lines = st.one_of(st.text(max_size=30),
                        st.from_regex(r"-?[0-9]{1,22} ?, ?-?[0-9]{1,22}", fullmatch=True))
_mutations = st.lists(st.one_of(st.tuples(st.just("meta"), st.sampled_from(_META_FIELDS), _values),
                                st.tuples(st.just("edges"), st.integers(0, 200), _edge_lines)),
                      min_size=1, max_size=3)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fuzz") / "base")
    save(generate(SyntheticSpec(40, 3, [ModalitySpec("text", 5, 1.0, 0.2),
                                        ModalitySpec("visual", 4, 1.0, 0.4)],
                                mean_degree=4, seed=9)), d)
    return d


def _mutate(d, mutations):
    """Apply (kind, where, value) edits: the meta.json field at a dotted path,
    or the edges.csv line at an index taken modulo the line count."""
    with open(os.path.join(d, "meta.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(d, "edges.csv")) as fh:
        lines = fh.read().split("\n")
    for kind, where, value in mutations:
        if kind == "meta":
            *path, last = where.split(".")
            node = meta
            for key in path:
                node = node[int(key)] if key.isdigit() else node[key]
            node[last] = value
        else:
            lines[where % len(lines)] = value
    with open(os.path.join(d, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    with open(os.path.join(d, "edges.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


@given(mutations=_mutations)
@settings(max_examples=150, deadline=None)
def test_fuzzed_dataset_raises_only_dataset_error(fuzz_base, tmp_path_factory, mutations):
    d = str(tmp_path_factory.mktemp("case"))
    shutil.copytree(fuzz_base, d, dirs_exist_ok=True)
    _mutate(d, mutations)
    try:
        load(d)
    except DatasetError:
        pass


# ---------------------------------------------------------------------------
# one-key edge sort and dedupe, cached normalization
# ---------------------------------------------------------------------------

def test_key_dedupe_matches_unique_rows():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        a, b = rng.integers(0, n, (2, int(rng.integers(0, 300))))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = _sorted_unique(lo * n + hi)
        expected = np.unique(np.stack([lo, hi], 1), axis=0).reshape(-1, 2)
        assert np.array_equal(np.stack(np.divmod(keys, n), axis=1), expected)


def test_key_argsort_matches_lexsort():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        a, b = rng.integers(0, n, (2, int(rng.integers(0, 200))))
        keys = _sorted_unique(np.minimum(a, b) * n + np.maximum(a, b))
        pairs = np.stack(np.divmod(keys, n), axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        adj = CsrMatrix.from_undirected_edges(pairs, n)
        assert np.array_equal(adj.col_indices, dst[order])
        assert np.array_equal(adj.row_offsets,
                              np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]))


def _argsort_csr(pairs, n):
    """row_offsets, col_indices and values of the argsort construction that
    the sort-only build replaced."""
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    order = np.argsort(src * n + dst)
    src, dst = src[order], dst[order]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return offsets, dst, np.ones(dst.shape[0])


@pytest.mark.parametrize("order", ["sorted", "shuffled", "flipped", "empty"])
def test_sort_only_csr_build_matches_the_argsort_build(order):
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        a, b = rng.integers(0, n, (2, int(rng.integers(0, 300))))
        keys = _sorted_unique(np.minimum(a, b) * n + np.maximum(a, b))
        pairs = np.stack(np.divmod(keys, n), axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if order == "shuffled":
            pairs = pairs[rng.permutation(pairs.shape[0])]
        elif order == "flipped":                  # some pairs given as (hi, lo)
            flip = rng.random(pairs.shape[0]) < 0.5
            pairs[flip] = pairs[flip, ::-1]
        elif order == "empty":
            pairs = pairs[:0]
        adj = CsrMatrix.from_undirected_edges(pairs, n)
        for got, want in zip((adj.row_offsets, adj.col_indices, adj.values),
                             _argsort_csr(pairs, n)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pairs", [[(0, 1), (2, 2)], [(1, 1)], [(0, 1), (0, 1)],
                                   [(0, 1), (1, 2), (1, 0)]],
                         ids=["self-loop", "only-a-self-loop", "repeated", "reversed"])
def test_sort_only_csr_build_rejects_a_self_loop_or_duplicate(pairs):
    with pytest.raises(ShapeError, match="not strictly increasing"):
        CsrMatrix.from_undirected_edges(np.array(pairs), 3)


def test_csr_build_peak_memory_is_under_one_and_a_half_key_arrays(mag_20k):
    # the 2E keys are sorted in place and become the column indices, and the
    # values hold no array (1.23 arrays of 2E int64; 2.23 with an array of
    # ones, 5.2 for the argsort build)
    adj = mag_20k.adjacency
    src = np.repeat(np.arange(adj.num_rows), adj.degrees)
    upper = src < adj.col_indices
    pairs = np.stack([src[upper], adj.col_indices[upper]], axis=1)
    key_array = 2 * pairs.shape[0] * 8
    assert _peak_bytes(lambda: CsrMatrix.from_undirected_edges(pairs, adj.num_rows)) \
        <= 1.5 * key_array


@pytest.fixture(scope="module")
def adjacencies(small_mag, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("adjacency") / "ds")
    save(small_mag, d)
    return {"generated": small_mag.adjacency, "loaded": load(d).adjacency}


@pytest.mark.parametrize("source", ["generated", "loaded"])
def test_a_0_1_adjacency_holds_no_array_of_ones(adjacencies, source):
    adj = adjacencies[source]
    values = adj.values
    assert values.shape == (adj.nnz,) and values.dtype == np.float64
    assert values.strides == (0,) and not values.flags.writeable and np.all(values == 1.0)
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 2.0
    ones = CsrMatrix(adj.num_rows, adj.num_cols, adj.row_offsets, adj.col_indices,
                     np.ones(adj.nnz))
    assert adj == ones
    for got, want in zip(adj.row_normalize()._args(), ones.row_normalize()._args()):
        assert (got.tobytes() == want.tobytes()) if isinstance(got, np.ndarray) else got == want
    copy = pickle.loads(pickle.dumps(adj))
    assert copy == adj and copy.row_normalize() == adj.row_normalize()
    assert copy.values.strides == (0,) and not copy.values.flags.writeable


def test_a_pickled_graph_carries_one_value_for_its_adjacency():
    mag = generate(SyntheticSpec(2000, 4, [ModalitySpec("text", 16, 1.0, 0.2),
                                           ModalitySpec("visual", 16, 1.0, 0.8)], seed=3))
    adj = mag.adjacency
    with_ones = dataclasses.replace(mag, adjacency=CsrMatrix(*adj._args()[:4], np.ones(adj.nnz)))
    assert with_ones == mag
    saved = len(pickle.dumps(with_ones)) - len(pickle.dumps(mag))
    assert adj.nnz * 8 <= saved <= adj.nnz * 8 + 64        # the ones, less one float
    copy = pickle.loads(pickle.dumps(mag))
    assert copy == mag and copy.adjacency.row_normalize() == adj.row_normalize()
    assert copy.adjacency.values.strides == (0,) and not copy.adjacency.values.flags.writeable


def test_a_weighted_matrix_owns_its_values():
    weights = np.array([0.5, 2.0, 3.0])
    weighted = CsrMatrix(2, 2, [0, 2, 3], [0, 1, 1], weights)
    assert weighted.values is weights
    for adj in (weighted, validation.directed_chain(6)):
        assert adj.values.flags.owndata and adj.values.flags.writeable
        assert adj.values.strides == (8,)


def test_row_normalize_is_cached_once_per_matrix(small_mag):
    adj = small_mag.adjacency
    assert adj.row_normalize() is adj.row_normalize()
    assert inject_noise(small_mag, 0.5, 1).adjacency.row_normalize() is adj.row_normalize()


def test_caches_stay_out_of_pickles():
    mag = generate(SyntheticSpec(300, 3, [ModalitySpec("text", 8)], seed=4))
    size = len(pickle.dumps(mag))
    norm = mag.adjacency.row_normalize()
    for adj in (mag.adjacency, norm):
        adj.row_normalize()
    assert len(pickle.dumps(mag)) == size
    assert len(pickle.dumps(norm)) == len(pickle.dumps(CsrMatrix(*norm._args())))
    copy = pickle.loads(pickle.dumps(mag))
    assert copy == mag
    assert copy.adjacency.row_normalize() == norm


def test_mean_aggregate_holds_one_value_array_for_every_alpha(mag_20k):
    # A_hat serves every alpha, forward and backward (the backward reads its
    # arrays as A_hat^T's CSC arrays), and shares the adjacency's index
    # arrays, so the caches add A_hat's values and nothing per alpha
    adj = CsrMatrix(*mag_20k.adjacency._args())         # same arrays, no caches
    h = np.ones((adj.num_rows, 4))

    def forward_backward(alpha):
        tape = T.Tape()
        tape.backward(T.sum_all(mean_aggregate(T.Tensor(h, tape), adj, alpha)))

    T._set_threads(1)           # no pool threads allocating while traced
    tracemalloc.start()
    try:
        for alpha in (0.0, 0.25, 0.5):
            forward_backward(alpha)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        T._set_threads(None)
    assert held <= adj.nnz * 8 + 16_384
    a_hat = adj.row_normalize()
    assert a_hat.col_indices is adj.col_indices and a_hat.row_offsets is adj.row_offsets


def test_first_backward_allocates_no_nnz_long_array(mag_20k):
    # the backward reads A_hat's own arrays: at one runner thread in SciPy's
    # CSC product, at two by row blocks, each gathering its own values.
    # Transposing A_hat would hold two nnz-long arrays (3.2 MB at this size),
    # gathering all values at once one, besides the op's two N x 4 arrays,
    # the loss gradient and the input gradient
    for threads in (1, 2):
        adj = pickle.loads(pickle.dumps(mag_20k.adjacency))     # marked undirected, no caches
        adj.row_normalize()
        tape = T.Tape()
        x = T.Tensor(np.ones((adj.num_rows, 4)), tape)
        T._set_threads(threads)
        try:
            peak = _peak_bytes(lambda: tape.backward(T.sum_all(mean_aggregate(x, adj, 0.5))))
        finally:
            T._set_threads(None)
        assert peak < 2 * x.data.nbytes + adj.nnz * 8


@pytest.mark.parametrize("source", ["generated", "loaded"])
def test_the_undirected_mark_is_kept_and_never_guessed(adjacencies, source):
    # from_undirected_edges marks the pattern it builds symmetric; A_hat and
    # pickles keep the mark, and the constructor never sets it, not even on
    # the same arrays: a stride-0 values array may lie on a directed pattern
    adj = adjacencies[source]
    copy = pickle.loads(pickle.dumps(adj))
    for marked in (adj, adj.row_normalize(), copy, copy.row_normalize()):
        assert marked._undirected
    assert copy == adj and copy.values.strides == (0,)
    same = CsrMatrix(*adj._args())
    assert same == adj and not same._undirected and not same.row_normalize()._undirected
    assert not pickle.loads(pickle.dumps(same))._undirected
    assert not validation.directed_chain(6)._undirected
