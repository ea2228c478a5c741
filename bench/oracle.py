"""Independent oracle for the stage losses of a pipeline run.

Written from the math, not from the package: it imports nothing from
stagelab.  A balanced aligned state theta = U diag(sigma) V^T stays diagonal
in the task's basis under full-batch gradient descent, so every coordinate
follows the decoupled per-mode recursion of Saxe, McClelland & Ganguli
(arXiv:1312.6120):

    g     = 2 (v (sigma - t) + lambda (sigma - anchor))
    sigma <- sigma (1 - eta g)^2

and the population loss on a stage is sum_i v_i (sigma_i - t_i)^2.  The
identity and the random basis share this recursion, so one oracle covers both.
"""

from __future__ import annotations

import math

import numpy as np

# Relative and absolute tolerance on each loss.  The matrix updates and the
# scalar recursion round differently, by a few ulps per step; over the default
# step budgets the largest difference seen is about 1e-13 relative.
RTOL = 1e-9
ATOL = 1e-12


def stage_spectra(task: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(input variances, targets) per stage for the block layout of the task."""
    n, k = task["n"], task["k"]
    inv, inc, spec = slice(0, n - 2 * k), slice(n - 2 * k, n - k), slice(n - k, n)
    out = {}
    for stage, inconsistent in (
        ("pretrain", task["pre_inconsistent"]),
        ("posttrain", task["post_inconsistent"]),
        ("finetune", task["ft_inconsistent"]),
    ):
        v = np.ones(n)
        t = np.zeros(n)
        t[inv] = task["invariant"]
        t[inc] = inconsistent
        if stage == "posttrain":
            t[spec] = task["specialized_target"]
        else:
            v[spec] = 0.0
        out[stage] = (v, t)
    return out


def mixture(a: tuple, b: tuple, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw from b with probability weight: variances and cross-covariances mix linearly."""
    (va, ta), (vb, tb) = a, b
    v = (1.0 - weight) * va + weight * vb
    xc = (1.0 - weight) * va * ta + weight * vb * tb
    t = np.divide(xc, v, out=np.zeros_like(xc), where=v > 0)
    return v, t


def descend(sigma, dist, eta, steps: int, ridge=0.0, anchor=0.0) -> np.ndarray:
    """Apply the per-mode recursion; eta and ridge broadcast over leading run axes."""
    v, t = dist
    for _ in range(steps):
        g = 2.0 * (v * (sigma - t) + ridge * (sigma - anchor))
        sigma = sigma * (1.0 - eta * g) ** 2
    return sigma


def loss(sigma: np.ndarray, dist) -> np.ndarray:
    v, t = dist
    return np.sum(v * (sigma - t) ** 2, axis=-1)


def grid_losses(task: dict, tau: float, stage1: list, stage2: list, stage3: list) -> dict:
    """Losses of every run in a Cartesian grid, keyed by (plan1, plan2, plan3) index.

    Each plan is a dict with steps and eta, plus mix (stage 1) or replay and
    ridge (stage 2).  Runs in one stage share a step count, so the whole grid
    advances as one array with a leading run axis.
    """
    spectra = stage_spectra(task)
    pre, post, ft = spectra["pretrain"], spectra["posttrain"], spectra["finetune"]
    init = np.full(task["n"], math.exp(-2.0 * tau))
    rows = [(i, j, l) for i in range(len(stage1)) for j in range(len(stage2)) for l in range(len(stage3))]

    def column(plans, key, index):
        return np.array([[plans[r[index]][key]] for r in rows])

    (steps1,) = {p["steps"] for p in stage1}
    (steps2,) = {p["steps"] for p in stage2}
    (steps3,) = {p["steps"] for p in stage3}
    dist1 = [mixture(pre, post, p["mix"]) for p in stage1]
    v1 = np.array([dist1[r[0]][0] for r in rows])
    t1 = np.array([dist1[r[0]][1] for r in rows])
    sigma1 = descend(np.tile(init, (len(rows), 1)), (v1, t1), column(stage1, "eta", 0), steps1)
    dist2 = [mixture(post, pre, p["replay"]) for p in stage2]
    v2 = np.array([dist2[r[1]][0] for r in rows])
    t2 = np.array([dist2[r[1]][1] for r in rows])
    sigma2 = descend(
        sigma1, (v2, t2), column(stage2, "eta", 1), steps2, column(stage2, "ridge", 1), sigma1
    )
    sigma3 = descend(sigma2, ft, column(stage3, "eta", 2), steps3)
    L_im, L_ret = loss(sigma2, post), loss(sigma3, post)
    L_ft, L_pre = loss(sigma3, ft), loss(sigma3, pre)
    return {
        row: {
            "L_im": float(L_im[r]),
            "L_ret": float(L_ret[r]),
            "L_ft": float(L_ft[r]),
            "L_pre": float(L_pre[r]),
            "delta": float(L_ret[r] - L_im[r]),
        }
        for r, row in enumerate(rows)
    }


def mismatches(expected: dict, record: dict) -> list[str]:
    """Names and values of the losses in a run record that disagree with the oracle."""
    out = []
    for key, want in expected.items():
        # delta is a difference of two losses, so its error scales with them
        scale = abs(expected["L_ret"]) + abs(expected["L_im"]) if key == "delta" else abs(want)
        got = record.get(key)
        if got is None or not abs(float(got) - want) <= ATOL + RTOL * scale:
            out.append(f"{key}: record {got!r}, oracle {want!r}")
    return out
