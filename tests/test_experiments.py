"""Training loop, metrics, diagnostic protocols, and result serialization."""

import json
import subprocess
import sys
import types
from dataclasses import asdict

import numpy as np
import pytest

import magsim
from conftest import src_env
from magsim import experiments
from magsim import tensor as T
from magsim.errors import ContractError
from magsim.experiments import (CSV_SCHEMAS, MODEL_KINDS, TrainConfig, _fmt,
                                accuracy, build_model, corruption_probe,
                                derive_seed, macro_f1, predict,
                                sweep_noise, track_gradients, train,
                                write_csv, write_manifest)

FAST_MLP = dict(kind="ef-mlp", hidden=16, lr=0.01, max_epochs=60, patience=20,
                dropout=0.0)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
    vals = {derive_seed(3, "a", 1), derive_seed(3, "a", 2),
            derive_seed(3, "b", 1), derive_seed(4, "a", 1)}
    assert len(vals) == 4
    assert all(0 <= v < 2 ** 64 for v in vals)


def test_derive_seed_no_field_collisions():
    # joining with a separator keeps ("ab", "c") distinct from ("a", "bc")
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_kind():
    with pytest.raises(ContractError):
        TrainConfig(kind="transformer")


def test_config_rejects_bad_patience_and_lr():
    with pytest.raises(ContractError):
        TrainConfig(patience=0)
    with pytest.raises(ContractError):
        TrainConfig(lr=-1e-3)


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", float("nan")), ("weight_decay", float("-inf")),
    ("lambda_aux", float("nan")), ("lambda_aux", float("inf")), ("lambda_aux", -0.5),
    ("dropout", -0.1), ("dropout", 1.0), ("dropout", 1.5), ("dropout", float("nan")),
    ("smoothing", -0.1), ("smoothing", 1.0),
    ("hidden", 0), ("num_layers", 0), ("max_epochs", 0), ("max_epochs", -3),
    ("hidden", 2.5), ("num_layers", True),
    ("alpha", 0.0), ("alpha", 1.0), ("alpha", -0.5), ("alpha", float("nan")),
    ("supra_variant", "dual"),
    ("lr", "x"), ("weight_decay", None), ("lambda_aux", [0.7]), ("alpha", None),
    ("dropout", "0.1"), ("smoothing", True),
    ("seed", "x"), ("seed", 1.5), ("seed", -1), ("seed", None), ("seed", False),
])
def test_config_rejects_bad_value(field, value):
    with pytest.raises(ContractError, match=field):
        TrainConfig(**{field: value})


def test_config_accepts_boundary_values():
    cfg = TrainConfig(dropout=0.0, smoothing=0.0, hidden=1, num_layers=1, max_epochs=1,
                      alpha=1e-9, lr=0.0, weight_decay=0.0, lambda_aux=0.0,
                      patience=np.int64(3))
    assert cfg.max_epochs == 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_accuracy_examples():
    assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert accuracy([0], [1]) == 0.0
    assert accuracy([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5


def test_metrics_reject_empty():
    with pytest.raises(ContractError):
        accuracy([], [])
    with pytest.raises(ContractError):
        macro_f1([], [], 2)


def test_macro_f1_degenerate_predictor():
    # balanced 2-class labels, everything predicted 0: class 0 has
    # F1 = 2/3, class 1 has F1 = 0, macro mean 1/3 (accuracy is 0.5)
    preds = [0, 0, 0, 0]
    labels = [0, 0, 1, 1]
    assert accuracy(preds, labels) == 0.5
    assert macro_f1(preds, labels, 2) == pytest.approx(1.0 / 3.0)


def test_macro_f1_skips_absent_classes():
    # class 2 never appears and is never predicted: excluded from the mean
    assert macro_f1([0, 1], [0, 1], 3) == 1.0


def test_macro_f1_perfect():
    assert macro_f1([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0


def test_harmonic_mean_direction_example():
    f, d = 80.77, 40.26
    h = 2 * f * d / (f + d)
    assert h == pytest.approx(53.74, abs=0.01)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_lr_never_improves(small_mag):
    cfg = TrainConfig(lr=0.0, max_epochs=100, patience=5, **{k: v for k, v
                      in FAST_MLP.items() if k not in ("lr", "max_epochs", "patience")})
    report, model = train(small_mag, cfg, return_model=True)
    # with lr=0 validation accuracy never strictly improves after epoch 1,
    # so early stopping fires at exactly best_epoch + patience
    assert report.best_epoch == 1
    assert len(report.epochs) == 1 + cfg.patience
    accs = [row["val_acc"] for row in report.epochs]
    assert all(a == accs[0] for a in accs)


def test_separable_task_learns(small_mag):
    report = train(small_mag, TrainConfig(seed=0, **FAST_MLP))
    assert report.test_acc >= 0.95


def test_report_deterministic(small_mag):
    cfg = TrainConfig(seed=5, **FAST_MLP)
    a = train(small_mag, cfg).to_json(include_timing=False)
    b = train(small_mag, cfg).to_json(include_timing=False)
    assert a == b


def test_early_stopping_invariant(small_mag):
    cfg = TrainConfig(seed=1, **FAST_MLP)
    report = train(small_mag, cfg)
    assert len(report.epochs) <= cfg.max_epochs
    if len(report.epochs) < cfg.max_epochs:
        assert report.epochs[-1]["epoch"] == report.best_epoch + cfg.patience
    best_val = max(row["val_acc"] for row in report.epochs)
    assert report.epochs[report.best_epoch - 1]["val_acc"] == best_val


def test_report_records_losses_and_grad_norms(small_mag):
    report = train(small_mag, TrainConfig(seed=2, **FAST_MLP))
    for row in report.epochs:
        assert np.isfinite(row["loss_total"])
        assert row["loss_total"] == row["loss_task"]       # no auxiliary term
        assert row["loss_aux"] == 0.0
        assert all(np.isfinite(v) and v >= 0 for v in row["grad_norms"].values())


def test_supra_aux_loss_accounted(small_mag):
    cfg = TrainConfig(kind="supra", lambda_aux=0.7, hidden=8, max_epochs=3,
                      patience=3, dropout=0.0)
    report = train(small_mag, cfg)
    for row in report.epochs:
        assert row["loss_aux"] > 0
        assert row["loss_total"] == pytest.approx(
            row["loss_task"] + 0.7 * row["loss_aux"], rel=1e-12)


def test_every_model_kind_shares_the_loss_path(small_mag):
    train_idx = small_mag.splits["train"]
    for kind in MODEL_KINDS:
        cfg = TrainConfig(kind=kind, hidden=4, smoothing=0.2)
        model = build_model(cfg, small_mag, np.random.default_rng(0))
        assert model.smoothing == 0.2
        out = model.forward(small_mag, T.Tape(), np.random.default_rng(1))
        losses = model.loss(out, small_mag.labels, train_idx)
        assert set(losses) == {"total", "task", "aux"}
        if kind != "supra":
            assert losses["aux"] == {} and losses["total"] is losses["task"]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_eval_forward_keeps_the_training_gradients(small_mag, kind):
    cfg = TrainConfig(kind=kind, hidden=8, lambda_aux=0.5 if kind == "supra" else 0.0)
    model = build_model(cfg, small_mag, np.random.default_rng(0))
    tape = T.Tape()
    out = model.forward(small_mag, tape, np.random.default_rng(1))
    tape.backward(model.loss(out, small_mag.labels, small_mag.splits["train"])["total"])
    grads, norms = model.grads(), model.branch_grad_norms()
    assert grads
    predict(model, small_mag, small_mag.splits["val"])
    after = model.grads()
    assert after.keys() == grads.keys()
    assert all(after[k] is grads[k] for k in grads)
    assert model.branch_grad_norms() == norms


def test_visual_mlp_needs_second_modality(census_mag):
    with pytest.raises(ContractError):
        train(census_mag, TrainConfig(kind="visual-mlp", max_epochs=1))


# ---------------------------------------------------------------------------
# heap policy
# ---------------------------------------------------------------------------

# Trains at N = 1,000, so hidden arrays (1000 x 64 float64, 500 KiB) are
# above glibc's default 128 KiB mmap threshold: once with the policy
# replaced by a no-op, then with it, in one fresh process.
_HEAP_POLICY_CHILD = """
import json
from magsim import experiments
from magsim.experiments import TrainConfig, train
from magsim.graph import ModalitySpec, SyntheticSpec, generate

mag = generate(SyntheticSpec(1000, 4, [ModalitySpec("text", 16, 1.0, 0.2),
                                       ModalitySpec("visual", 16, 1.0, 0.8)],
                             homophily=0.8, mean_degree=10, seed=7))

def reports():
    return [train(mag, TrainConfig(kind=kind, max_epochs=8, patience=8, seed=3,
                                   lambda_aux=0.7 if kind == "supra" else 0.0))
            .to_json(include_timing=False) for kind in ("ef-mlp", "gcn-joint", "supra")]

policy = experiments._keep_freed_memory
experiments._keep_freed_memory = lambda: None
default_heap = reports()
experiments._keep_freed_memory = policy
print(json.dumps({"default": default_heap, "kept": reports()}))
"""


def test_heap_policy_changes_no_bit():
    out = subprocess.run([sys.executable, "-c", _HEAP_POLICY_CHILD],
                         capture_output=True, text=True, env=src_env())
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout)
    assert len(runs["kept"]) == 3
    assert runs["kept"] == runs["default"]


def test_heap_policy_sets_glibc_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(experiments.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    experiments._keep_freed_memory()
    # <malloc.h>: M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1
    assert calls == [(-3, 32 * 2**20), (-1, 256 * 2**20)]


@pytest.mark.parametrize("error", [AttributeError, OSError])
def test_train_runs_without_mallopt(monkeypatch, small_mag, error):
    def libc_without_mallopt(name):
        if error is OSError:
            raise OSError("no C library")
        return object()

    cfg = TrainConfig(seed=5, **{**FAST_MLP, "max_epochs": 3})
    expected = train(small_mag, cfg).to_json(include_timing=False)
    monkeypatch.setattr(experiments.ctypes, "CDLL", libc_without_mallopt)
    report = train(small_mag, cfg)
    assert len(report.epochs) == 3
    assert report.to_json(include_timing=False) == expected


# ---------------------------------------------------------------------------
# noise sweep
# ---------------------------------------------------------------------------

def test_sweep_rejects_empty_grid(small_mag):
    base = TrainConfig(**FAST_MLP)
    with pytest.raises(ContractError):
        sweep_noise(small_mag, [], ["ef-mlp"], [0], base)
    with pytest.raises(ContractError):
        sweep_noise(small_mag, [0.0], [], [0], base)


def test_sweep_row_count_is_cartesian(small_mag):
    base = TrainConfig(hidden=8, max_epochs=3, patience=3, dropout=0.0)
    rows, annotation = sweep_noise(small_mag, [0.0, 1.0], ["ef-mlp", "text-mlp"],
                                   [0, 1, 2], base)
    assert len(rows) == 2 * 2 * 3
    seen = {(r["scale"], r["kind"], r["seed"]) for r in rows}
    assert len(seen) == 12
    assert all(set(r) == set(CSV_SCHEMAS["sweep"]) for r in rows)


def test_sweep_accepts_generators(small_mag):
    base = TrainConfig(hidden=8, max_epochs=2, patience=2, dropout=0.0)
    rows, _ = sweep_noise(small_mag, (s for s in [0.0, 1.0]), (k for k in ["ef-mlp"]),
                          (s for s in [0, 1]), base)
    assert len(rows) == 4


def test_sweep_annotation_reports_threshold(small_mag):
    base = TrainConfig(hidden=8, max_epochs=2, patience=2, dropout=0.0)
    _, annotation = sweep_noise(small_mag, [0.0], ["ef-mlp"], [0], base)
    for name in ("text", "visual"):
        m = annotation["modalities"][name]
        assert 0.0 < m["beta_hat"] <= 1.0
        assert m["sigma_n_sq_hat"] > 0
        assert m["tau"] > 0


def test_noise_hurts_topology_free_model(small_mag):
    # weak monotonicity: across an increasing noise grid the pure MLP's
    # accuracy trend is non-increasing with at most one adjacent violation
    base = TrainConfig(seed=0, **FAST_MLP)
    scales = [0.0, 1.0, 2.0, 4.0]
    rows, _ = sweep_noise(small_mag, scales, ["ef-mlp"], [0, 1], base)
    mean_acc = [float(np.mean([r["acc"] for r in rows if r["scale"] == s]))
                for s in scales]
    violations = sum(1 for a, b in zip(mean_acc, mean_acc[1:]) if b > a + 1e-9)
    assert violations <= 1
    assert mean_acc[-1] < mean_acc[0]


# ---------------------------------------------------------------------------
# gradient tracking
# ---------------------------------------------------------------------------

def test_track_gradients_needs_two_modalities(census_mag):
    with pytest.raises(ContractError):
        track_gradients(census_mag, [("a", {})], 2, TrainConfig())


def test_track_gradients_rows(small_mag):
    base = TrainConfig(kind="supra", hidden=8, dropout=0.0)
    variants = [("base", {"supra_variant": "base"}),
                ("aux", {"supra_variant": "full", "lambda_aux": 0.7})]
    rows = track_gradients(small_mag, variants, 3, base)
    # 2 variants x 3 epochs x 3 branches (two projectors + synergy)
    assert len(rows) == 2 * 3 * 3
    assert all(set(r) == set(CSV_SCHEMAS["grads"]) for r in rows)
    assert all(np.isfinite(r["grad_l2"]) and r["grad_l2"] >= 0 for r in rows)
    branches = {r["branch"] for r in rows}
    assert branches == {"proj_text", "proj_visual", "synergy"}


# ---------------------------------------------------------------------------
# corruption probe
# ---------------------------------------------------------------------------

def test_probe_unknown_modality(small_mag):
    with pytest.raises(ContractError):
        corruption_probe(small_mag, [("m", {})], "audio", [0],
                         TrainConfig(**FAST_MLP))


def test_probe_scores_and_harmonic_identity(small_mag):
    base = TrainConfig(kind="supra", hidden=8, max_epochs=5, patience=5,
                       dropout=0.0)
    kinds = [("supra-base", {"supra_variant": "base"})]
    rows = corruption_probe(small_mag, kinds, "text", [0, 1], base)
    assert len(rows) == 2
    for r in rows:
        assert 0.0 <= r["F"] <= 1.0 and 0.0 <= r["D"] <= 1.0
        expected_h = 0.0 if r["F"] + r["D"] == 0 else \
            2 * r["F"] * r["D"] / (r["F"] + r["D"])
        assert r["H"] == pytest.approx(expected_h, abs=1e-12)


def test_probe_deterministic(small_mag):
    base = TrainConfig(kind="supra", hidden=8, max_epochs=4, patience=4,
                       dropout=0.0)
    kinds = [("supra-base", {"supra_variant": "base"})]
    a = corruption_probe(small_mag, kinds, "text", [0], base)
    b = corruption_probe(small_mag, kinds, "text", [0], base)
    assert a == b


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_float_formatting_round_trips():
    for v in (0.1, 1.0 / 3.0, 1e-17, 123456.789):
        assert float(_fmt(v)) == v
    assert _fmt(3) == "3"
    assert _fmt("supra") == "supra"


def test_write_csv_layout(tmp_path):
    path = str(tmp_path / "probe.csv")
    rows = [{"kind": "supra-base", "seed": 0, "F": 0.5, "D": 0.25, "H": 1.0 / 3.0}]
    write_csv(path, "probe", rows)
    text = open(path, encoding="utf-8").read()
    lines = text.splitlines()
    assert lines[0] == "kind,seed,F,D,H"
    assert lines[1] == f"supra-base,0,0.5,0.25,{1.0 / 3.0!r}"
    assert text.endswith("\n")


def test_write_manifest(tmp_path):
    path = str(tmp_path / "manifest.json")
    cfg = TrainConfig(seed=7)
    write_manifest(path, cfg, extra={"rows": 12})
    doc = json.loads(open(path, encoding="utf-8").read())
    assert doc["seed"] == 7
    assert doc["config"] == asdict(cfg)
    assert doc["rows"] == 12
    assert doc["version"] == magsim.__version__
