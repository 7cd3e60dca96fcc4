"""Property checks tying the closed-form results to sampled and
autodiff-measured quantities.  Shared by the `theory` CLI subcommand and
the acceptance suite; each check returns (passed, detail string)."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .aggregation import ego_jacobian_diag, mean_aggregate
from .graph import CsrMatrix
from .theory import SnrParams, crossover, mc_snr_post, snr_int, snr_post, \
    starvation_bound, tau


def _random_params(rng) -> SnrParams:
    return SnrParams(
        signal_sq=float(rng.uniform(0.1, 10.0)),
        sigma_eps_sq=float(rng.uniform(0.0, 5.0)),
        sigma_n_sq=float(rng.uniform(1e-3, 5.0)),
        alpha=float(rng.uniform(0.05, 0.95)),
        beta=float(rng.uniform(0.01, 1.0)))


def check_iff(num_draws: int = 1000, seed: int = 0):
    """Degradation predicate and margin sign agree on every draw, and the
    margin vanishes exactly at the threshold."""
    rng = np.random.default_rng(seed)
    for i in range(num_draws):
        p = _random_params(rng)
        res = crossover(p)
        degraded_by_margin = snr_post(p) < snr_int(p)
        if res["degraded"] != degraded_by_margin:
            return False, f"draw {i}: predicate and margin disagree ({p})"
        if res["margin"] != 0.0 and (res["margin"] < 0) != (p.sigma_eps_sq < res["tau"]):
            return False, f"draw {i}: margin sign mismatch ({p})"
        # sit exactly on the threshold: margin must cancel to ~0
        at_tau = SnrParams(p.signal_sq, res["tau"], p.sigma_n_sq, p.alpha, p.beta)
        m = crossover(at_tau)["margin"]
        if abs(m) > 1e-12 * max(1.0, snr_int(at_tau)):
            return False, f"draw {i}: margin {m} at the threshold"
    return True, f"{num_draws} draws, predicate == margin sign, zero margin at tau"


def check_mc_agreement(num_sets: int = 20, num_samples: int = 20000,
                       seed: int = 0, tol: float = 0.05):
    """Closed-form post-aggregation SNR vs its Monte Carlo estimate."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(num_sets):
        p = _random_params(rng)
        if p.sigma_eps_sq < 0.05:       # keep the estimator's target finite-ish
            p.sigma_eps_sq += 0.05
        closed = snr_post(p)
        mc = mc_snr_post(p, num_samples=num_samples, seed=seed + 1000 + i)
        rel = abs(mc - closed) / closed
        worst = max(worst, rel)
        if rel >= tol:
            return False, f"set {i}: rel err {rel:.4f} >= {tol} ({p})"
    return True, f"{num_sets} sets, worst rel err {worst:.4f} < {tol}"


def directed_chain(n: int) -> CsrMatrix:
    """Directed chain i -> i+1 (no return paths)."""
    offsets = np.concatenate([np.arange(n), [n - 1]])
    return CsrMatrix(n, n, offsets, np.arange(1, n), np.ones(n - 1))


def autodiff_ego_gradient(adj: CsrMatrix, alpha: float, num_layers: int,
                          node: int) -> float:
    """d out[node,0] / d h[node,0] through a linear aggregation stack,
    measured by the actual backward pass."""
    tape = T.Tape()
    h = T.Tensor(np.zeros((adj.num_rows, 1)), tape)
    h.data[node, 0] = 1.0
    out = h
    for _ in range(num_layers):
        out = mean_aggregate(out, adj, alpha)
    scalar = T.sum_all(T.row_select(out, [node]))
    tape.backward(scalar)
    return float(h.grad[node, 0])


def check_dilution(chain_len: int = 50, alphas=(0.3, 0.5, 0.9),
                   num_layers=(1, 2, 3, 4), node: int = 0):
    """On a cycle-free graph the structural ego-Jacobian is exactly
    alpha^L, and the autodiff ego-gradient matches it."""
    adj = directed_chain(chain_len)
    worst_struct, worst_ad = 0.0, 0.0
    for alpha in alphas:
        for L in num_layers:
            structural = ego_jacobian_diag(adj, alpha, L, node)
            worst_struct = max(worst_struct, abs(structural - alpha ** L))
            if abs(structural - alpha ** L) > 1e-12:
                return False, f"alpha={alpha} L={L}: {structural} != {alpha**L}"
            measured = autodiff_ego_gradient(adj, alpha, L, node)
            worst_ad = max(worst_ad, abs(measured - structural))
            if abs(measured - structural) > 1e-10:
                return False, f"alpha={alpha} L={L}: autodiff {measured} != {structural}"
    return True, (f"structural err {worst_struct:.2e} <= 1e-12, "
                  f"autodiff err {worst_ad:.2e} <= 1e-10")


def measure_weak_branch_gradient(rng, alpha: float, num_layers: int):
    """One random linear two-branch instance; returns (measured norm, bound).

    The weak branch is a linear map F applied to a single node's feature
    row, optionally routed through L linear aggregation layers on a
    cycle-free graph; the prediction is linear and the loss is squared
    error, so the bound's residual and norms are all explicit.
    """
    n, d, p = 12, int(rng.integers(2, 6)), int(rng.integers(1, 5))
    node = int(rng.integers(0, n - num_layers - 1)) if num_layers else int(rng.integers(0, n))
    x_row = rng.standard_normal(d)
    w = rng.standard_normal(p)
    y = float(rng.standard_normal())

    tape = T.Tape()
    f_weak = T.Tensor(rng.standard_normal((d, p)), tape)
    x = np.zeros((n, d))
    x[node] = x_row                       # only the probed node's ego signal
    h = T.linear(T.Tensor(x, None), f_weak)
    adj = directed_chain(n)
    for _ in range(num_layers):
        h = mean_aggregate(h, adj, alpha)
    pred = T.linear(T.row_select(h, [node]), T.Tensor(w.reshape(p, 1), None))
    resid = T.add(pred, T.Tensor([[-y]], None))
    loss = T.scale(T.mul(resid, resid), 0.5)
    tape.backward(loss)

    measured = float(np.linalg.norm(f_weak.grad))
    r = float(resid.data[0, 0])
    jac = float(np.linalg.norm(x_row)) * np.sqrt(p)   # Frobenius of dh/dF
    return measured, starvation_bound(r, float(np.linalg.norm(w)), jac, alpha, num_layers)


def check_starvation_bound(num_instances: int = 100, seed: int = 0):
    """Measured weak-branch gradient never exceeds eta * |r| * C."""
    rng = np.random.default_rng(seed)
    for i in range(num_instances):
        num_layers = int(rng.integers(0, 4))          # 0 = bypass routing
        alpha = float(rng.uniform(0.1, 0.9))
        measured, bound = measure_weak_branch_gradient(rng, alpha, num_layers)
        if measured > bound * (1.0 + 1e-9):
            return False, f"instance {i}: {measured} > bound {bound}"
    return True, f"{num_instances} instances, zero violations"


ALL_CHECKS = [
    ("theorem-iff", check_iff),
    ("monte-carlo-agreement", check_mc_agreement),
    ("ego-gradient-dilution", check_dilution),
    ("starvation-bound", check_starvation_bound),
]
