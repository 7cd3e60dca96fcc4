"""End-to-end acceptance suite: ten numbered criteria covering the
closed-form results, their Monte Carlo and autodiff validations, the three
qualitative phenomena on calibrated synthetic graphs, structural sizing,
and reproducibility.  Each test prints one PASS/FAIL line (run with -s to
see them on success)."""

import json
import os
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import fd_checks
from magsim.cli import _pool_map, main as cli_main
from magsim.experiments import (TrainConfig, corruption_probe, derive_seed,
                                sweep_noise, track_gradients)
from magsim.graph import (ModalitySpec, SyntheticSpec, generate, inject_noise,
                          load, save)
from magsim.supra import SupraModel
from magsim.validation import (check_dilution, check_iff, check_mc_agreement,
                               check_starvation_bound)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def report(criterion: int, ok: bool, detail: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion-{criterion}: {detail} "
          f"[{elapsed:.1f}s < {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# shared calibrated graphs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def crossover_mag():
    """Low-noise symmetric spec whose noise-scale grid straddles the
    degradation threshold."""
    spec = SyntheticSpec(4000, 4,
                         [ModalitySpec("text", 16, 1.0, 0.02),
                          ModalitySpec("visual", 16, 1.0, 0.02)],
                         homophily=0.8, mean_degree=10,
                         split_fracs=(0.6, 0.2, 0.2), seed=7)
    return generate(spec)


@pytest.fixture(scope="module")
def asymmetric_mag():
    """Strong low-dimensional modality vs weak high-dimensional one,
    intrinsic SNR ratio 25:1."""
    spec = SyntheticSpec(2000, 4,
                         [ModalitySpec("text", 4, 1.0, 0.4),
                          ModalitySpec("visual", 64, 1.0, 10.0)],
                         homophily=0.4, mean_degree=10,
                         split_fracs=(0.6, 0.2, 0.2), seed=11)
    return generate(spec)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_degradation_iff_threshold():
    t0 = time.perf_counter()
    ok, detail = check_iff(num_draws=1000, seed=0)
    report(1, ok, detail, t0, 1.0)


def test_criterion_02_monte_carlo_agreement():
    t0 = time.perf_counter()
    ok, detail = check_mc_agreement(num_sets=20, num_samples=20000, seed=0)
    report(2, ok, detail, t0, 10.0)


def test_criterion_03_snr_crossover(crossover_mag):
    t0 = time.perf_counter()
    mag = crossover_mag
    base = TrainConfig(kind="ef-mlp", alpha=0.25, num_layers=4, max_epochs=150)
    scales = [0.0, 4.0]
    kinds = ["ef-mlp", "gcn-joint", "supra"]
    with _pool_map(2) as pool_map:
        rows, annotation = sweep_noise(mag, scales, kinds, [0, 1, 2], base, pool_map=pool_map)

    # the grid must straddle the measured threshold: effective encoder
    # noise below tau(beta_hat) at the low end, above it at the high end
    for name in ("text", "visual"):
        t = annotation["modalities"][name]["tau"]
        effs = {}
        for scale in scales:
            noisy = inject_noise(mag, scale, derive_seed(base.seed, "noise",
                                                         repr(scale), 0))
            resid = noisy.features[name] - noisy.signals[name][noisy.labels]
            effs[scale] = float((resid ** 2).sum(axis=1).mean())
        assert effs[scales[0]] < t < effs[scales[-1]], \
            f"{name}: grid [{effs[scales[0]]:.3f}, {effs[scales[-1]]:.3f}] " \
            f"does not straddle tau={t:.3f}"

    def stats(kind, scale):
        accs = [r["acc"] for r in rows if r["kind"] == kind and r["scale"] == scale]
        return float(np.mean(accs)), float(np.std(accs))

    lo, hi = scales[0], scales[-1]
    mlp_lo, mlp_lo_sd = stats("ef-mlp", lo)
    gcn_lo, gcn_lo_sd = stats("gcn-joint", lo)
    mlp_hi, mlp_hi_sd = stats("ef-mlp", hi)
    gcn_hi, gcn_hi_sd = stats("gcn-joint", hi)
    supra_lo, _ = stats("supra", lo)
    supra_hi, _ = stats("supra", hi)

    pooled_lo = float(np.sqrt((mlp_lo_sd ** 2 + gcn_lo_sd ** 2) / 2))
    pooled_hi = float(np.sqrt((mlp_hi_sd ** 2 + gcn_hi_sd ** 2) / 2))
    ok = (mlp_lo - gcn_lo > pooled_lo
          and gcn_hi - mlp_hi > pooled_hi
          and supra_lo >= max(mlp_lo, gcn_lo) - 0.01
          and supra_hi >= max(mlp_hi, gcn_hi) - 0.01)
    detail = (f"clean: mlp {mlp_lo:.4f} > gcn {gcn_lo:.4f} (pooled sd "
              f"{pooled_lo:.4f}); noisy: gcn {gcn_hi:.4f} > mlp {mlp_hi:.4f} "
              f"(pooled sd {pooled_hi:.4f}); supra {supra_lo:.4f}/{supra_hi:.4f}")
    report(3, ok, detail, t0, 600.0)


def test_criterion_04_gradient_dilution():
    t0 = time.perf_counter()
    ok, detail = check_dilution(chain_len=50, alphas=(0.3, 0.5, 0.9),
                                num_layers=(1, 2, 3, 4))
    report(4, ok, detail, t0, 5.0)


def _intrinsic_snrs(mag):
    out = {}
    for name in mag.features:
        sig = mag.signals[name]
        resid = mag.features[name] - sig[mag.labels]
        out[name] = float((sig[0] ** 2).sum()) / float((resid ** 2).sum(axis=1).mean())
    return out


def test_criterion_05_gradient_starvation_dynamics(asymmetric_mag):
    t0 = time.perf_counter()
    mag = asymmetric_mag
    snrs = _intrinsic_snrs(mag)
    assert snrs["text"] / snrs["visual"] >= 20.0, snrs

    base = TrainConfig(kind="supra", lr=5e-4, dropout=0.0)
    variants = [("synergy-only", {"supra_variant": "synergy-only"}),
                ("base", {"supra_variant": "base"}),
                ("aux", {"supra_variant": "full", "lambda_aux": 0.7})]
    num_epochs = 100
    with _pool_map(2) as pool_map:
        runs = list(pool_map(partial(track_gradients, mag, variants, num_epochs),
                             [replace(base, seed=seed) for seed in (0, 1, 2)]))
    checks, details = [], []
    for seed, rows in enumerate(runs):

        def weak(variant, epoch):
            return next(r["grad_l2"] for r in rows
                        if r["variant"] == variant and r["epoch"] == epoch
                        and r["branch"] == "proj_visual")

        rel_syn = weak("synergy-only", num_epochs) / weak("synergy-only", 1)
        rel_base = weak("base", num_epochs) / weak("base", 1)
        boost = weak("aux", num_epochs) / weak("base", num_epochs)
        checks.append(rel_syn < 0.10 and rel_base >= 0.10 and boost >= 3.0)
        details.append(f"seed {seed}: synergy-only decay {rel_syn:.3f}<0.10, "
                       f"bypass {rel_base:.3f}>=0.10, aux boost {boost:.1f}x>=3")
    report(5, all(checks), "; ".join(details), t0, 300.0)


def test_criterion_06_corruption_probe(asymmetric_mag):
    t0 = time.perf_counter()
    mag = asymmetric_mag
    base = TrainConfig(kind="supra", max_epochs=100, patience=100)
    kinds = [("supra-base", {"kind": "supra", "supra_variant": "base"}),
             ("supra-aux", {"kind": "supra", "supra_variant": "full",
                            "lambda_aux": 0.7})]
    with _pool_map(2) as pool_map:
        runs = list(pool_map(partial(corruption_probe, mag, kinds, "text", base_cfg=base),
                             [[seed] for seed in (0, 1, 2)]))
    by = {(r["kind"], r["seed"]): r for rows in runs for r in rows}
    checks, details = [], []
    for seed in (0, 1, 2):
        b, a = by[("supra-base", seed)], by[("supra-aux", seed)]
        dd = a["D"] - b["D"]
        dh = a["H"] - b["H"]
        checks.append(dd > 0 and dh > 0)
        details.append(f"seed {seed}: dD={dd:+.4f}, dH={dh:+.4f}")
    report(6, all(checks), "; ".join(details), t0, 300.0)


def test_criterion_07_starvation_bound():
    t0 = time.perf_counter()
    ok, detail = check_starvation_bound(num_instances=100, seed=0)
    report(7, ok, detail, t0, 5.0)


def test_criterion_08_autodiff_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for case in sorted(fd_checks.ALL_CASES):
        for seed in range(20):
            worst = max(worst, fd_checks.max_rel_error(case, seed))
    ok = worst < 1e-4
    report(8, ok, f"{len(fd_checks.ALL_CASES)} ops x 20 instances, "
                  f"worst rel err {worst:.2e} < 1e-4", t0, 30.0)


def test_criterion_09_synergy_width_invariance():
    t0 = time.perf_counter()
    def build(dim_scale):
        spec = SyntheticSpec(50, 3,
                             [ModalitySpec("text", 8 * dim_scale, 1.0, 0.2),
                              ModalitySpec("visual", 12 * dim_scale, 1.0, 0.2)],
                             homophily=0.7, mean_degree=4, seed=31)
        return SupraModel(np.random.default_rng(0), generate(spec), hidden=16,
                          num_layers=2, alpha=0.5, dropout=0.3, smoothing=0.1,
                          lambda_aux=0.0, variant="full")

    small, big = build(1), build(10)
    width = small.params["synergy.w0"].shape[0]
    ok = (width == 16 * 2
          and small.synergy_param_count() == big.synergy_param_count() > 0)
    report(9, ok, f"synergy input width {width} == sum of projection dims; "
                  f"parameter count {small.synergy_param_count()} invariant "
                  f"to 10x raw feature dims", t0, 1.0)


def test_criterion_10_determinism_and_format(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "synthetic": {
            "num_nodes": 120, "num_classes": 3,
            "modalities": [
                {"name": "text", "dim": 6, "signal_norm": 1.0, "noise_var": 0.2},
                {"name": "visual", "dim": 6, "signal_norm": 1.0, "noise_var": 0.6}],
            "homophily": 0.7, "mean_degree": 5, "seed": 42},
        "train": {"kind": "ef-mlp", "hidden": 8, "max_epochs": 5,
                  "patience": 5, "dropout": 0.0, "seed": 42},
        "sweep": {"kinds": ["ef-mlp"], "seeds": [0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    # generation is byte-reproducible
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["gen", "--config", str(cfg_path), "--out", a]) == 0
    assert cli_main(["gen", "--config", str(cfg_path), "--out", b]) == 0
    gen_ok = all(open(os.path.join(a, f), "rb").read() ==
                 open(os.path.join(b, f), "rb").read()
                 for f in sorted(os.listdir(a)))

    # save/load round-trips bit-exact
    mag = load(a)
    resaved = str(tmp_path / "resaved")
    save(mag, resaved)
    save_ok = all(open(os.path.join(a, f), "rb").read() ==
                  open(os.path.join(resaved, f), "rb").read()
                  for f in sorted(os.listdir(a)))

    # sweep output is byte-reproducible and matches the golden file
    s1, s2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    for out in (s1, s2):
        assert cli_main(["sweep-noise", "--config", str(cfg_path), "--data", a,
                         "--out", out, "--scales", "0"]) == 0
    sweep_bytes = open(s1, "rb").read()
    csv_ok = (sweep_bytes == open(s2, "rb").read()
              and sweep_bytes == open(os.path.join(GOLDEN, "sweep.csv"), "rb").read()
              and open(os.path.join(a, "meta.json"), "rb").read()
              == open(os.path.join(GOLDEN, "meta.json"), "rb").read())

    ok = gen_ok and save_ok and csv_ok
    report(10, ok, f"gen byte-stable={gen_ok}, save/load bit-exact={save_ok}, "
                   f"CSV golden match={csv_ok}", t0, 60.0)
