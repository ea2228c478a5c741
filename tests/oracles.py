"""Independent oracles the test suite checks the package against.

Everything here is deliberately written from the math, not from the package
internals: finite differences for gradients, all-pairs scans for frontiers,
Monte-Carlo estimates for losses, moments and hypervolumes, a minibatch step
with hidden-unit dropout, and a direct transcription of the per-coordinate
scalar recursion.  Keep these dumb; their value is that they cannot share a
bug with the fast implementations.
"""

from __future__ import annotations

import math

import numpy as np

from stagelab import NetworkState, population_loss
from stagelab.tasks import SpectralBasis, StageDistribution


def finite_difference_gradients(
    state: NetworkState,
    dist: StageDistribution,
    basis: SpectralBasis,
    ridge_lambda: float = 0.0,
    ridge_anchor: np.ndarray | None = None,
    step: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of the (optionally ridge-augmented) population loss."""

    def objective(W1: np.ndarray, W2: np.ndarray) -> float:
        value = population_loss(NetworkState(W1=W1, W2=W2), dist, basis)
        if ridge_lambda > 0:
            diff = W1 @ W2 - ridge_anchor
            value += ridge_lambda * float(np.sum(diff * diff))
        return value

    n = state.n
    W1 = np.array(state.W1, copy=True)
    W2 = np.array(state.W2, copy=True)
    G1 = np.zeros((n, n))
    G2 = np.zeros((n, n))
    for W, G in ((W1, G1), (W2, G2)):
        for i in range(n):
            for j in range(n):
                orig = W[i, j]
                W[i, j] = orig + step
                hi = objective(W1, W2)
                W[i, j] = orig - step
                lo = objective(W1, W2)
                W[i, j] = orig
                G[i, j] = (hi - lo) / (2.0 * step)
    return G1, G2


def worst_gradient_discrepancy(
    exact: np.ndarray,
    approx: np.ndarray,
    rel_tol: float = 1e-5,
    abs_floor: float = 1e-8,
) -> float:
    """Max of |exact - approx| / (abs_floor + rel_tol * |exact|); <= 1 means agreement.

    Entries below abs_floor in magnitude are effectively compared absolutely,
    larger ones relatively, matching the mixed-tolerance convention.
    """
    err = np.abs(np.asarray(exact) - np.asarray(approx))
    scale = abs_floor + rel_tol * np.abs(np.asarray(exact))
    return float(np.max(err / scale))


def pareto_front_quadratic(points) -> list:
    """All-pairs weak-domination filter, O(n^2) on purpose.

    A point is dropped iff some other point is no worse on both axes and
    strictly better on at least one.  Duplicate coordinate pairs keep only the
    smallest run_id.  Returns points sorted by (x, y, run_id).
    """
    kept = []
    for q in points:
        dominated = any(
            p.x <= q.x and p.y <= q.y and (p.x < q.x or p.y < q.y) for p in points
        )
        if not dominated:
            kept.append(q)
    best = {}
    for p in kept:
        key = (p.x, p.y)
        if key not in best or p.run_id < best[key].run_id:
            best[key] = p
    return sorted(best.values(), key=lambda p: (p.x, p.y, p.run_id))


def hypervolume_monte_carlo(
    front, ref: tuple[float, float], samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(estimate, standard error) of the staircase-dominated area by rejection sampling."""
    xs = np.array([p.x for p in front])
    ys = np.array([p.y for p in front])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    rx, ry = float(ref[0]), float(ref[1])
    x0, y0 = float(xs[0]), float(ys.min())
    area = (rx - x0) * (ry - y0)
    if area == 0.0:
        return 0.0, 0.0
    u = rng.uniform(x0, rx, samples)
    w = rng.uniform(y0, ry, samples)
    idx = np.clip(np.searchsorted(xs, u, side="right") - 1, 0, len(xs) - 1)
    hit = w >= ys[idx]
    p = float(hit.mean())
    est = p * area
    se = area * math.sqrt(p * (1.0 - p) / samples)
    return est, se


def population_loss_monte_carlo(
    state: NetworkState,
    dist: StageDistribution,
    basis: SpectralBasis,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """(estimate, standard error) of E ||theta x - A x||^2 over the stage Gaussian."""
    root_v = np.sqrt(dist.input_variances)
    Z = rng.standard_normal((dist.n, samples))
    X = root_v[:, None] * Z if basis.is_identity else basis.V @ (root_v[:, None] * Z)
    A = basis.U @ np.diag(dist.target_spectrum) @ basis.V.T
    R = (state.theta - A) @ X
    per_sample = np.sum(R * R, axis=0)
    est = float(per_sample.mean())
    se = float(per_sample.std(ddof=1) / math.sqrt(samples))
    return est, se


def stochastic_step(
    W1: np.ndarray,
    W2: np.ndarray,
    A: np.ndarray,
    variances: np.ndarray,
    V: np.ndarray,
    eta: float,
    rng: np.random.Generator,
    batch_size: int,
    hidden_dropout: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One minibatch gradient step on (W1, W2), with per-sample masking of hidden units.

    Inputs are x = V (sqrt(variances) * z) with z standard normal, targets A x.
    Each hidden unit of each sample is kept with probability 1 - hidden_dropout
    and a kept unit is rescaled by 1 / (1 - hidden_dropout).  With
    hidden_dropout = 0 the expected update is the population gradient step.
    """
    n = W1.shape[0]
    X = V @ (np.sqrt(variances)[:, None] * rng.standard_normal((n, batch_size)))
    keep = 1.0 - hidden_dropout
    mask = (rng.random((n, batch_size)) < keep) / keep
    H = (W2 @ X) * mask
    E = W1 @ H - A @ X
    G1 = (2.0 / batch_size) * (E @ H.T)
    G2 = (2.0 / batch_size) * (((W1.T @ E) * mask) @ X.T)
    return W1 - eta * G1, W2 - eta * G2


def mixture_moments_monte_carlo(
    d1: StageDistribution,
    d2: StageDistribution,
    basis: SpectralBasis,
    alpha: float,
    samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Empirical aligned input variances and input-target cross-moments of the
    two-component mixture (each sample comes from d2 with probability alpha).

    Returns (variances, variance standard errors, cross-moments, their SEs).
    """
    n = d1.n
    pick_second = rng.random(samples) < alpha
    Xa = np.empty((n, samples))
    Ya = np.empty((n, samples))
    for dist, mask in ((d1, ~pick_second), (d2, pick_second)):
        count = int(mask.sum())
        if count == 0:
            continue
        Z = rng.standard_normal((n, count))
        Xa[:, mask] = np.sqrt(dist.input_variances)[:, None] * Z
        Ya[:, mask] = dist.target_spectrum[:, None] * Xa[:, mask]
    # targets act coordinatewise in the aligned frame, so the basis cancels;
    # moments are estimated directly in aligned coordinates.
    sq = Xa * Xa
    prod = Ya * Xa
    var = sq.mean(axis=1)
    var_se = sq.std(axis=1, ddof=1) / math.sqrt(samples)
    xc = prod.mean(axis=1)
    xc_se = prod.std(axis=1, ddof=1) / math.sqrt(samples)
    return var, var_se, xc, xc_se


def scalar_trajectory(
    sigma0: np.ndarray,
    variances: np.ndarray,
    targets: np.ndarray,
    eta: float,
    steps: int,
    ridge_lambda: float = 0.0,
    anchors: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Direct transcription of the balanced per-coordinate recursion.

    Both factors of a balanced coordinate scale by (1 - eta * g) with
    g = 2 (v (sigma - t) + lambda (sigma - anchor)), so the product follows
    sigma <- sigma (1 - eta g)^2.  Shape (steps + 1, n).
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    out = np.empty((steps + 1, sigma0.size))
    out[0] = sigma0
    sigma = sigma0.copy()
    for t in range(steps):
        g = 2.0 * (variances * (sigma - targets) + ridge_lambda * (sigma - anchors))
        sigma = sigma * (1.0 - eta * g) ** 2
        out[t + 1] = sigma
    return out
