"""Closed-form SNR / threshold / gradient-bound quantities and the Monte
Carlo estimators that validate them from raw samples.

Variance conventions: every sigma^2 here is an expected squared *norm*
(total over dimensions, not per-dimension), matching the way the
synthetic generator is calibrated.  Zero-variance denominators return an
infinity sentinel rather than raising, so sweep grids can include exact
zero-noise points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class SnrParams:
    signal_sq: float        # ||s||^2
    sigma_eps_sq: float     # encoder noise, E||eps||^2
    sigma_n_sq: float       # induced neighborhood noise, E||xi||^2
    alpha: float            # self-retention weight, in (0,1)
    beta: float             # semantic alignment of the neighborhood mean

    def __post_init__(self):
        if self.signal_sq <= 0:
            raise ContractError(f"signal_sq must be > 0, got {self.signal_sq}")
        if self.sigma_eps_sq < 0 or self.sigma_n_sq < 0:
            raise ContractError("variances must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ContractError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ContractError(f"beta must be in [0,1], got {self.beta}")


def snr_int(p: SnrParams) -> float:
    """Intrinsic SNR of a raw feature: ||s||^2 / sigma_eps^2."""
    if p.sigma_eps_sq == 0:
        return math.inf
    return p.signal_sq / p.sigma_eps_sq


def snr_post(p: SnrParams) -> float:
    """SNR after one mean-aggregation step:
    (alpha + (1-alpha) beta)^2 ||s||^2 / (alpha^2 eps^2 + (1-alpha)^2 n^2)."""
    num = (p.alpha + (1.0 - p.alpha) * p.beta) ** 2 * p.signal_sq
    den = p.alpha ** 2 * p.sigma_eps_sq + (1.0 - p.alpha) ** 2 * p.sigma_n_sq
    if den == 0:
        return math.inf
    return num / den


def tau(alpha: float, beta: float, sigma_n_sq: float) -> float:
    """Critical encoder-noise threshold below which aggregation strictly
    lowers the SNR.  When g = alpha + (1-alpha) beta has g^2 <= alpha^2
    (beta = 0, or a measured beta_hat slightly below 0) it returns
    infinity: aggregation then degrades at every noise level."""
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0,1), got {alpha}")
    if sigma_n_sq < 0:
        raise ContractError(f"sigma_n_sq must be >= 0, got {sigma_n_sq}")
    den = beta * (2.0 * alpha + (1.0 - alpha) * beta)     # (g^2 - alpha^2) / (1-alpha)
    if den <= 0:
        return math.inf
    return (1.0 - alpha) * sigma_n_sq / den


def crossover(p: SnrParams) -> dict:
    """Degradation predicate plus the signed margin snr_post - snr_int.

    The margin's sign always matches the sign of sigma_eps_sq - tau; both
    are the same rational expression rearranged.
    """
    t = tau(p.alpha, p.beta, p.sigma_n_sq)
    degraded = p.sigma_eps_sq < t
    margin = snr_post(p) - snr_int(p)
    if math.isinf(margin) or math.isnan(margin):
        margin = 0.0 if snr_post(p) == snr_int(p) else margin
    return {"degraded": degraded, "margin": margin, "tau": t}


def mc_snr_post(p: SnrParams, dim: int = 16, num_samples: int = 20000,
                seed: int = 0) -> float:
    """Monte Carlo estimate of the post-aggregation SNR from raw samples.

    Draws a fixed signal s with ||s||^2 = signal_sq, then independent
    isotropic eps and xi with the given expected squared norms, forms
    h = (alpha + (1-alpha) beta) s + alpha eps + (1-alpha) xi and returns
    signal power over mean residual power.
    """
    if num_samples < 1000:
        raise ContractError(f"need >= 1000 samples, got {num_samples}")
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(dim)
    s *= math.sqrt(p.signal_sq) / np.linalg.norm(s)
    gain = p.alpha + (1.0 - p.alpha) * p.beta
    eps = rng.standard_normal((num_samples, dim)) * math.sqrt(p.sigma_eps_sq / dim)
    xi = rng.standard_normal((num_samples, dim)) * math.sqrt(p.sigma_n_sq / dim)
    resid = p.alpha * eps + (1.0 - p.alpha) * xi
    mean_sq = float(np.mean(np.sum(resid ** 2, axis=1)))
    if mean_sq == 0:
        return math.inf
    return gain ** 2 * p.signal_sq / mean_sq


def starvation_bound(residual: float, w_norm: float, jac_norm: float,
                     alpha: float, num_layers: int) -> float:
    """Upper bound eta * |r| * ||w|| * ||dh/df|| on the gradient norm
    reaching a branch encoder routed through L aggregation layers, with
    eta = alpha^L.  L = 0 is a topology-agnostic bypass: eta = 1 exactly."""
    if num_layers < 0:
        raise ContractError(f"num_layers must be >= 0, got {num_layers}")
    return alpha ** num_layers * abs(residual) * w_norm * jac_norm
