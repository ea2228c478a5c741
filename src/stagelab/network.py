"""Two-layer linear network trained by full-batch gradient descent.

The model is theta = W1 @ W2 with square factors.  The population loss on a
stage distribution is

    L(theta) = sum_i v_i * || (theta - A) V e_i ||^2

where A is the stage teacher matrix and v the per-coordinate input variances
in the shared basis.  Gradients flow through both factors, updates are
simultaneous, and an optional ridge term lambda * ||theta - anchor||_F^2
anchors the product to a reference checkpoint.

Balanced diagonal states (W1 = U sqrt(S), W2 = sqrt(S) V^T) stay balanced and
diagonal under these dynamics, which is what makes the per-coordinate scalar
recursions in derived_diag_step faithful companions of the matrix updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, StagelabError, TrainingDiverged
from .tasks import SpectralBasis, StageDistribution, _freeze, target_matrix


@dataclass(frozen=True)
class NetworkState:
    """Immutable parameter pair; theta is always recomputed, never cached."""

    W1: np.ndarray
    W2: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "W1", _freeze(self.W1))
        object.__setattr__(self, "W2", _freeze(self.W2))
        n = self.W1.shape[0]
        if self.W1.shape != (n, n) or self.W2.shape != (n, n):
            raise ConfigError(
                f"factors must be square and equally sized, got {self.W1.shape} and {self.W2.shape}"
            )

    @property
    def n(self) -> int:
        return self.W1.shape[0]

    @property
    def theta(self) -> np.ndarray:
        return self.W1 @ self.W2


def init_scaled_identity(n: int, tau: float, basis: SpectralBasis | None = None) -> NetworkState:
    """Balanced small init: aligned diagonal starts at exp(-2 tau) on every coordinate."""
    if not math.isfinite(tau):
        raise ConfigError(f"tau = {tau:g} is not finite")
    try:
        scale = math.exp(-tau)
    except OverflowError:
        raise ConfigError(f"tau = {tau:g} overflows the init scale exp(-tau)") from None
    if basis is None:
        basis = SpectralBasis.identity(n)
    return NetworkState(W1=scale * basis.U, W2=scale * basis.V.T)


def init_from_spectrum(basis: SpectralBasis, spectrum: np.ndarray) -> NetworkState:
    """Balanced state whose aligned diagonal equals the given nonnegative spectrum."""
    spectrum = np.asarray(spectrum, dtype=float)
    if np.any(spectrum < 0):
        raise ConfigError("init_from_spectrum needs nonnegative entries")
    root = np.sqrt(spectrum)
    return NetworkState(W1=basis.U * root, W2=root[:, None] * basis.V.T)


def check_step_size(eta: float, ridge_lambda: float = 0.0) -> None:
    """Enforce the step-size budget 4 * eta * (ridge_lambda + 2) * 2 < 1.

    The last factor bounds the squared operator norms involved; this is a
    configuration-time sanity check, actual instability is still caught at
    run time by the divergence guard.
    """
    if eta <= 0:
        raise ConfigError(f"learning rate must be positive, got {eta}")
    if ridge_lambda < 0:
        raise ConfigError(f"ridge_lambda must be nonnegative, got {ridge_lambda}")
    budget = 8.0 * eta * (ridge_lambda + 2.0)
    if not budget < 1.0:
        raise ConfigError(
            f"step-size budget violated: 4 * eta * (ridge_lambda + 2) * 2 = {budget:.6g} >= 1"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one full-batch training run (step size checked by check_step_size)."""

    eta: float
    max_steps: int
    ridge_lambda: float = 0.0
    ridge_anchor: np.ndarray | None = None
    probe_every: int = 50

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be nonnegative, got {self.max_steps}")
        check_step_size(self.eta, self.ridge_lambda)
        if self.ridge_lambda > 0 and self.ridge_anchor is None:
            raise ConfigError("ridge_lambda > 0 requires a ridge_anchor checkpoint")
        if self.probe_every < 1:
            raise ConfigError(f"probe_every must be >= 1, got {self.probe_every}")
        if self.ridge_anchor is not None:
            object.__setattr__(self, "ridge_anchor", _freeze(self.ridge_anchor))


@dataclass(frozen=True)
class Snapshot:
    step: int
    train_loss: float
    aligned_diag: np.ndarray | None
    aligned_offdiag: float | None
    probe_losses: Mapping[str, float]


@dataclass(frozen=True)
class Trajectory:
    """Ordered snapshots from one training run (always includes first and last state)."""

    snapshots: tuple[Snapshot, ...]

    @property
    def steps(self) -> np.ndarray:
        return np.array([s.step for s in self.snapshots], dtype=int)

    @property
    def train_losses(self) -> np.ndarray:
        return np.array([s.train_loss for s in self.snapshots])

    def probe_losses(self, name: str) -> np.ndarray:
        if self.snapshots and name not in self.snapshots[0].probe_losses:
            known = ", ".join(sorted(self.snapshots[0].probe_losses)) or "none"
            raise StagelabError(f"no probe named '{name}' was recorded (have: {known})")
        return np.array([s.probe_losses[name] for s in self.snapshots])

    def diagonals(self) -> np.ndarray:
        """Stacked aligned diagonals, shape (num_snapshots, n)."""
        if self.snapshots and self.snapshots[0].aligned_diag is None:
            raise StagelabError("trajectory was recorded without aligned spectra")
        return np.stack([s.aligned_diag for s in self.snapshots])


def _factor_gradients(
    W1: np.ndarray,
    W2: np.ndarray,
    theta: np.ndarray,
    E: np.ndarray,
    v: np.ndarray,
    V: np.ndarray | None,
    ridge_lambda: float,
    ridge_anchor: np.ndarray | None,
    G: np.ndarray,
    work: np.ndarray,
    out: np.ndarray,
) -> None:
    """(dL/dW1, dL/dW2) at theta = W1 @ W2 with residual E = theta - A: the update kernel.

    Writes the gradient with respect to theta into G and the factor gradients
    into out[0] and out[1], with work as scratch; all three are (n, n) buffers
    the caller owns, and none may alias an input.  The operation order is the
    one the expressions 2.0 * (E * v), (2.0 * ((E @ V) * v)) @ V.T and
    G + (2.0 * lam) * (theta - anchor) evaluate, so results are bitwise those
    of the allocating forms.
    """
    if V is None:
        np.multiply(E, v, out=G)
        np.multiply(2.0, G, out=G)
    else:
        np.matmul(E, V, out=work)
        np.multiply(work, v, out=work)
        np.multiply(2.0, work, out=work)
        np.matmul(work, V.T, out=G)
    if ridge_lambda > 0:
        np.subtract(theta, ridge_anchor, out=work)
        np.multiply(2.0 * ridge_lambda, work, out=work)
        np.add(G, work, out=G)
    # both factor gradients are taken before either factor moves
    np.matmul(G, W2.T, out=out[0])
    np.matmul(W1.T, G, out=out[1])


def _data_loss(E: np.ndarray, v: np.ndarray, V: np.ndarray | None) -> float:
    if V is None:
        return float(np.add.reduce(E * E * v, axis=None))
    EV = E @ V
    return float(np.add.reduce(EV * EV * v, axis=None))


def population_loss(state: NetworkState, dist: StageDistribution, basis: SpectralBasis) -> float:
    """Exact expected squared error of theta on the stage distribution."""
    A = target_matrix(dist, basis)
    V = None if basis.is_identity else basis.V
    return _data_loss(state.theta - A, dist.input_variances, V)


def population_gradient(
    state: NetworkState,
    dist: StageDistribution,
    basis: SpectralBasis,
    ridge_lambda: float = 0.0,
    ridge_anchor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients (dL/dW1, dL/dW2), including the optional ridge term."""
    if ridge_lambda > 0 and ridge_anchor is None:
        raise ConfigError("ridge_lambda > 0 requires a ridge_anchor")
    A = target_matrix(dist, basis)
    V = None if basis.is_identity else basis.V
    theta = state.theta
    n = state.n
    grads = np.empty((2, n, n))
    _factor_gradients(
        state.W1,
        state.W2,
        theta,
        theta - A,
        dist.input_variances,
        V,
        ridge_lambda,
        ridge_anchor,
        np.empty((n, n)),
        np.empty((n, n)),
        grads,
    )
    return grads[0], grads[1]


def _aligned(theta: np.ndarray, basis: SpectralBasis) -> tuple[np.ndarray, float]:
    M = theta if basis.is_identity else basis.U.T @ theta @ basis.V
    diag = M.diagonal().copy()
    # the Frobenius norm of M - diag(diag), by the operations np.linalg.norm runs
    rest = M.ravel().copy()
    rest[:: M.shape[0] + 1] = 0.0
    return diag, math.sqrt(rest.dot(rest))


def aligned_spectrum(state: NetworkState, basis: SpectralBasis) -> tuple[np.ndarray, float]:
    """(diagonal of U^T theta V, Frobenius norm of the off-diagonal remainder)."""
    return _aligned(state.theta, basis)


def train(
    state: NetworkState,
    dist: StageDistribution,
    basis: SpectralBasis,
    config: TrainConfig,
    probes: Mapping[str, StageDistribution] | None = None,
    record_spectrum: bool = True,
) -> tuple[NetworkState, Trajectory]:
    """Run max_steps of full-batch gradient descent, snapshotting every probe_every steps.

    The first and final states are always snapshotted.  The run raises
    TrainingDiverged at the first step whose weights are not finite, or on a
    non-finite training loss at a snapshot (finite weights can still overflow
    the loss).
    """
    probes = dict(probes or {})
    A = target_matrix(dist, basis)
    v = dist.input_variances
    V = None if basis.is_identity else basis.V
    probe_mats = {name: (target_matrix(d, basis), d.input_variances) for name, d in probes.items()}
    lam = config.ridge_lambda
    anchor = config.ridge_anchor
    eta = config.eta

    # both factors live in one buffer, so the update and the finiteness check
    # each cover them in one numpy call
    n = state.n
    W = np.empty((2, n, n))
    W1, W2 = W
    grads = np.empty_like(W)
    theta, E, G, work = np.empty((4, n, n))

    def restart(src: np.ndarray) -> None:
        np.copyto(W, src)
        np.matmul(W1, W2, out=theta)
        np.subtract(theta, A, out=E)

    def advance(count: int) -> None:
        for _ in range(count):
            _factor_gradients(W1, W2, theta, E, v, V, lam, anchor, G, work, grads)
            np.multiply(eta, grads, out=grads)
            np.subtract(W, grads, out=W)
            np.matmul(W1, W2, out=theta)
            np.subtract(theta, A, out=E)

    def first_nonfinite(start: int, stop: int) -> int:
        """The first step in (start, stop] whose weights are not finite, by replay from checked."""
        restart(checked)
        for replayed in range(start + 1, stop):
            advance(1)
            if not np.isfinite(W).all():
                return replayed
        return stop

    snaps: list[Snapshot] = []
    step = checked_step = 0
    # The update has no division, so a weight that turns inf or nan stays
    # non-finite; checking at snapshots and replaying from the last checked
    # state therefore finds the same first non-finite step as a check after
    # every step.  Overflow is caught that way, so numpy's own warning about
    # it is noise on a run that is about to raise anyway.
    with np.errstate(over="ignore", invalid="ignore"):
        restart(np.stack((state.W1, state.W2)))
        checked = W.copy()
        while True:
            if not np.isfinite(W).all():
                raise TrainingDiverged(state.step + first_nonfinite(checked_step, step))
            np.copyto(checked, W)
            checked_step = step
            loss = _data_loss(E, v, V)
            if not math.isfinite(loss):
                raise TrainingDiverged(state.step + step)
            diag, offdiag = _aligned(theta, basis) if record_spectrum else (None, None)
            probe_losses = {
                name: _data_loss(theta - pA, pv, V) for name, (pA, pv) in probe_mats.items()
            }
            snaps.append(
                Snapshot(
                    step=step,
                    train_loss=loss,
                    aligned_diag=diag,
                    aligned_offdiag=offdiag,
                    probe_losses=probe_losses,
                )
            )
            if step == config.max_steps:
                break
            nxt = min(step + config.probe_every, config.max_steps)
            advance(nxt - step)
            step = nxt

    final_state = NetworkState(W1=W1, W2=W2, step=state.step + step)
    return final_state, Trajectory(snapshots=tuple(snaps))


def derived_diag_step(
    sigma: np.ndarray | float,
    variance: np.ndarray | float,
    target: np.ndarray | float,
    eta: float,
    ridge_lambda: float = 0.0,
    anchor: np.ndarray | float = 0.0,
) -> np.ndarray | float:
    """Exact per-coordinate update for balanced diagonal states.

    With g = 2 (variance (sigma - target) + ridge_lambda (sigma - anchor)) both
    factors scale by (1 - eta g), so the product updates as sigma (1 - eta g)^2.
    This matches the matrix dynamics coordinate-by-coordinate.
    """
    g = 2.0 * (variance * (sigma - target) + ridge_lambda * (sigma - anchor))
    return sigma * (1.0 - eta * g) ** 2


def scalar_fixed_point(
    variance: float,
    target: float,
    eta: float,
    ridge_lambda: float = 0.0,
    anchor: float = 0.0,
    init: float = 1.0,
    tol: float = 1e-12,
    max_iter: int = 2_000_000,
) -> float:
    """Iterate derived_diag_step from init until the update falls below tol."""
    sigma = float(init)
    for i in range(max_iter):
        nxt = float(derived_diag_step(sigma, variance, target, eta, ridge_lambda, anchor))
        if not math.isfinite(nxt):
            raise TrainingDiverged(i + 1, f"scalar recursion diverged at iteration {i + 1}")
        if abs(nxt - sigma) <= tol:
            return nxt
        sigma = nxt
    raise StagelabError(f"scalar fixed point did not converge within {max_iter} iterations")
