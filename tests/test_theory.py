"""Closed-form SNR quantities, the degradation threshold, Monte Carlo
estimators, and the gradient starvation bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsim.errors import ContractError
from magsim.theory import (SnrParams, crossover, mc_snr_post, snr_int,
                           snr_post, starvation_bound, tau)


def params(signal_sq=1.0, sigma_eps_sq=0.2, sigma_n_sq=0.5, alpha=0.5, beta=0.7):
    return SnrParams(signal_sq, sigma_eps_sq, sigma_n_sq, alpha, beta)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_snr_int_hand_values():
    assert snr_int(params(signal_sq=3.0, sigma_eps_sq=1.0 / 3.0)) == pytest.approx(9.0)
    assert snr_int(params(signal_sq=0.4, sigma_eps_sq=0.4)) == pytest.approx(1.0)
    assert snr_int(params(sigma_eps_sq=0.0)) == math.inf


def test_snr_post_equals_snr_int_at_threshold():
    p = params(alpha=0.5, beta=0.7, sigma_n_sq=0.5)
    p.sigma_eps_sq = tau(p.alpha, p.beta, p.sigma_n_sq)
    assert abs(snr_post(p) - snr_int(p)) < 1e-12


def test_snr_post_all_noise_in_neighbors_zero():
    # with sigma_n = 0 aggregation can only help: the neighbor term is
    # pure signal, so post-aggregation SNR exceeds the intrinsic one
    p = params(sigma_n_sq=0.0, sigma_eps_sq=0.3)
    assert snr_post(p) > snr_int(p)


def test_snr_post_zero_denominator_sentinel():
    assert snr_post(params(sigma_eps_sq=0.0, sigma_n_sq=0.0)) == math.inf


def test_tau_hand_values():
    # alpha=0.5, beta=1, sigma_n^2=1: 0.5 / (1 * (1 + 0.5)) = 1/3
    assert tau(0.5, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert tau(0.5, 1.0, 0.0) == 0.0
    # alpha=0.9, beta=0.5, sigma_n^2=2: 0.1*2 / (0.5*(1.8+0.05))
    assert tau(0.9, 0.5, 2.0) == pytest.approx(0.2 / (0.5 * 1.85))
    assert tau(0.9, 0.5, 2.0) == pytest.approx(0.21622, abs=1e-5)


def test_tau_zero_alignment_is_infinite():
    assert tau(0.5, 0.0, 1.0) == math.inf


def test_tau_negative_measured_alignment_is_infinite():
    # beta_hat = -0.0022 (homophily 0.02): g^2 < alpha^2, so aggregation
    # lowers the SNR at every encoder noise, while the raw formula is negative
    alpha, beta, sigma_n_sq = 0.5, -0.0022, 1.1453
    assert tau(alpha, beta, sigma_n_sq) == math.inf
    for eps_sq in (1e-9, 1.0, 100.0):
        p_post = (alpha + (1 - alpha) * beta) ** 2 / (alpha ** 2 * eps_sq
                                                      + (1 - alpha) ** 2 * sigma_n_sq)
        assert p_post < 1.0 / eps_sq


def test_tau_negative_beta_with_g_above_alpha_is_finite():
    # alpha = 0.1, beta = -0.5: g = -0.35 and g^2 > alpha^2, so aggregation
    # lowers the SNR only below 0.9 n / (-0.5 * -0.25) = 7.2 n
    alpha, beta, sigma_n_sq = 0.1, -0.5, 1.0
    assert tau(alpha, beta, sigma_n_sq) == pytest.approx(7.2)
    for eps_sq, degraded in ((7.0, True), (7.4, False)):
        p_post = (alpha + (1 - alpha) * beta) ** 2 / (alpha ** 2 * eps_sq
                                                      + (1 - alpha) ** 2 * sigma_n_sq)
        assert (p_post < 1.0 / eps_sq) is degraded


def test_tau_validation():
    with pytest.raises(ContractError):
        tau(0.0, 0.5, 1.0)
    with pytest.raises(ContractError):
        tau(1.0, 0.5, 1.0)
    with pytest.raises(ContractError):
        tau(0.5, 0.5, -1.0)


def test_params_validation():
    with pytest.raises(ContractError):
        SnrParams(0.0, 0.1, 0.1, 0.5, 0.5)
    with pytest.raises(ContractError):
        SnrParams(1.0, -0.1, 0.1, 0.5, 0.5)
    with pytest.raises(ContractError):
        SnrParams(1.0, 0.1, 0.1, 1.0, 0.5)
    with pytest.raises(ContractError):
        SnrParams(1.0, 0.1, 0.1, 0.5, 1.5)


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def test_crossover_margin_zero_at_threshold():
    p = params()
    p.sigma_eps_sq = tau(p.alpha, p.beta, p.sigma_n_sq)
    out = crossover(p)
    assert abs(out["margin"]) < 1e-12
    assert not out["degraded"]


def test_crossover_below_threshold_degraded():
    p = params()
    p.sigma_eps_sq = tau(p.alpha, p.beta, p.sigma_n_sq) / 2.0
    out = crossover(p)
    assert out["degraded"]
    assert out["margin"] < 0


def test_crossover_above_threshold_improved():
    p = params()
    p.sigma_eps_sq = tau(p.alpha, p.beta, p.sigma_n_sq) * 2.0
    out = crossover(p)
    assert not out["degraded"]
    assert out["margin"] > 0


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_matches_closed_form():
    p = params()
    est = mc_snr_post(p, num_samples=20000, seed=0)
    assert abs(est - snr_post(p)) / snr_post(p) < 0.05


def test_mc_zero_variances_sentinel():
    assert mc_snr_post(params(sigma_eps_sq=0.0, sigma_n_sq=0.0)) == math.inf


def test_mc_sample_floor():
    with pytest.raises(ContractError):
        mc_snr_post(params(), num_samples=999)


def test_mc_error_shrinks_with_samples():
    p = params()
    truth = snr_post(p)

    def mean_abs_err(n):
        errs = [abs(mc_snr_post(p, num_samples=n, seed=s) - truth)
                for s in range(8)]
        return float(np.mean(errs))

    assert mean_abs_err(32000) < mean_abs_err(1000)


# ---------------------------------------------------------------------------
# starvation bound
# ---------------------------------------------------------------------------

def test_bound_zero_residual_is_zero():
    assert starvation_bound(0.0, 5.0, 2.0, 0.5, 0) == 0.0


def test_bound_gnn_hand_value():
    # alpha=0.5, L=3 gives eta=1/8; |r|=1, ||w||=1, ||dh/df||=2 -> 0.25
    assert starvation_bound(1.0, 1.0, 2.0, 0.5, 3) == pytest.approx(0.25)


def test_bound_bypass_ignores_depth():
    # L = 0 is the bypass: eta = alpha^0 = 1 whatever alpha is
    assert {starvation_bound(0.5, 2.0, 3.0, alpha, 0) for alpha in (0.0, 0.1, 0.9)} == {3.0}


def test_bound_errors():
    with pytest.raises(ContractError):
        starvation_bound(1.0, 1.0, 1.0, 0.5, -1)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

pos = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
unit_open = st.floats(0.01, 0.99, allow_nan=False)
unit = st.floats(0.01, 1.0, allow_nan=False)


@given(pos, pos, pos, unit_open, unit)
@settings(max_examples=200, deadline=None)
def test_degradation_iff_below_threshold(sig, eps, n, alpha, beta):
    p = SnrParams(sig, eps, n, alpha, beta)
    t = tau(alpha, beta, n)
    assert (snr_post(p) < snr_int(p)) == (eps < t)


@given(pos, pos, pos, unit_open, unit, unit)
@settings(max_examples=100, deadline=None)
def test_snr_post_monotone_in_alignment(sig, eps, n, alpha, b1, b2):
    lo, hi = sorted((b1, b2))
    p_lo = SnrParams(sig, eps, n, alpha, lo)
    p_hi = SnrParams(sig, eps, n, alpha, hi)
    assert snr_post(p_hi) >= snr_post(p_lo)


@given(pos, pos, pos, pos, unit_open, unit)
@settings(max_examples=100, deadline=None)
def test_snr_post_monotone_in_signal_and_neighborhood_noise(sig, extra, eps, n,
                                                            alpha, beta):
    base = SnrParams(sig, eps, n, alpha, beta)
    stronger = SnrParams(sig + extra, eps, n, alpha, beta)
    noisier = SnrParams(sig, eps, n + extra, alpha, beta)
    assert snr_post(stronger) >= snr_post(base)
    assert snr_post(noisier) <= snr_post(base)


@given(pos, pos, unit_open, unit)
@settings(max_examples=100, deadline=None)
def test_clean_encoder_limit_always_degrades(sig, n, alpha, beta):
    # as encoder noise vanishes the intrinsic SNR diverges while the
    # post-aggregation SNR stays finite whenever neighborhood noise exists
    p = SnrParams(sig, 0.0, n, alpha, beta)
    assert snr_int(p) == math.inf
    assert math.isfinite(snr_post(p))
