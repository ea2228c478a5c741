"""Two-layer linear network trained by full-batch gradient descent.

The model is theta = W1 @ W2 with square factors.  The population loss on a
stage distribution is

    L(theta) = sum_i v_i * || (theta - A) V e_i ||^2

where A is the stage teacher matrix and v the per-coordinate input variances
in the shared basis.  Gradients flow through both factors, updates are
simultaneous, and an optional ridge term lambda * ||theta - anchor||_F^2
pulls the product toward an anchor, in train() the product it started from.

Balanced diagonal states (W1 = U sqrt(S), W2 = sqrt(S) V^T) stay balanced and
diagonal under these dynamics, which is what makes the per-coordinate scalar
recursions in derived_diag_step faithful companions of the matrix updates.

train() has two update kernels that give the same bits, and the start state
picks one.  A balanced diagonal start in the identity basis takes
_diagonal_kernel: its factors and the target are +0.0 off the diagonal, and
its two factors are equal bit for bit, as in every identity-basis init and
pipeline checkpoint.  The state stays so, and the kernel steps each
coordinate as one Python float; its Trajectory stores only the products'
diagonals, one row of n per snapshot.  Every other state, unbalanced,
off-diagonal or in a random basis, takes the matrix kernel, _gradient_kernel
stepped in numpy.  Each kernel stops stepping what has stopped moving: a
diagonal coordinate whose step returns the same float is at a fixed point,
and a matrix run whose factors return to the bit patterns of an earlier
step is an exact orbit, whose recorded rows take their phase's product.
Most random-basis trainings end in such orbits, of periods from one step to
a few dozen.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StagelabError, TrainingDiverged
from .tasks import SpectralBasis, StageDistribution, _freeze, target_matrix

FIXED_POINT_TOL = 1e-12  # scalar_fixed_point stops once an update is this small
FIXED_POINT_MAX_ITER = 2_000_000
FINITE_CHECK_EVERY = 4096  # train() checks the weights this often, bounding a diverged run's work
MARK_EVERY = 64  # the matrix kernel marks the factors' bytes this often, to find exact orbits


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
    probe_every: int = 50

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be nonnegative, got {self.max_steps}")
        check_step_size(self.eta, self.ridge_lambda)
        if self.probe_every < 1:
            raise ConfigError(f"probe_every must be >= 1, got {self.probe_every}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The products theta = W1 @ W2 recorded by one training run, with their steps.

    Row s of products is the product after steps[s] steps; the first and last
    states are always recorded.  A run on the diagonal kernel stores only
    the products' diagonals, shape (num_snapshots, n), since every entry off
    them is +0.0; every other run stores the products, shape
    (num_snapshots, n, n).  thetas is the products in the second shape
    either way.  Every other column is derived on access by the operations
    train() used to evaluate at each snapshot, so the values are bitwise
    theirs: losses(dist) on any stage distribution, train_losses on the
    training one, and, when the run recorded its spectrum, the aligned
    diagonals() and offdiags().
    """

    steps: np.ndarray
    products: np.ndarray
    basis: SpectralBasis
    dist: StageDistribution
    spectrum: bool = True

    @property
    def snapshots(self) -> np.ndarray:
        """The recorded steps, the same array as steps.

        It stays only because bench/spans.py reads len(trajectory.snapshots),
        and goes when the tracer reads steps instead (ROADMAP item 8).
        """
        return self.steps

    @property
    def thetas(self) -> np.ndarray:
        """The recorded products, shape (num_snapshots, n, n), read-only.

        A diagonal run's are built on each access, with +0.0 off the diagonal.
        """
        if self.products.ndim == 3:
            return self.products
        rows, n = self.products.shape
        thetas = np.zeros((rows, n, n))
        thetas.reshape(rows, n * n)[:, :: n + 1] = self.products
        thetas.flags.writeable = False
        return thetas

    def losses(self, dist: StageDistribution) -> np.ndarray:
        """Population loss on dist at every recorded step, shape (num_snapshots,)."""
        return np.array(_losses(self.thetas, dist, self.basis))

    @property
    def train_losses(self) -> np.ndarray:
        return self.losses(self.dist)

    def _frames(self) -> np.ndarray:
        """The products in the aligned frame U^T theta V, one row per snapshot.

        A diagonal run's rows are its diagonals, as it is in the identity basis.
        """
        if not self.spectrum:
            raise StagelabError("trajectory was recorded without aligned spectra")
        if self.basis.is_identity:
            return self.products
        U, V = self.basis.U, self.basis.V
        frames = np.empty_like(self.products)
        for theta, M in zip(self.products, frames):
            np.matmul(U.T @ theta, V, out=M)
        return frames

    def diagonals(self) -> np.ndarray:
        """Stacked aligned diagonals, shape (num_snapshots, n).

        A diagonal run's are its stored products, returned read-only.
        """
        frames = self._frames()
        if frames.ndim == 2:
            return frames
        return np.diagonal(frames, axis1=1, axis2=2).copy()

    def offdiags(self) -> np.ndarray:
        """Frobenius norm of each aligned product's off-diagonal part, shape (num_snapshots,)."""
        frames = self._frames()
        if frames.ndim == 2:
            # the norm of +0.0 entries, as _offdiag_norm takes it, is +0.0
            return np.zeros(len(frames))
        return np.array([_offdiag_norm(M) for M in frames])


def _matmul_for(a: np.ndarray) -> Callable[..., np.ndarray]:
    """The call f(b, out) that writes a @ b into out for (n, n) operands, as np.matmul rounds it.

    For n >= 2 it is the bound method a.dot.  ndarray.dot reaches the same
    cblas_dgemm call as np.matmul, transpose flags included: a transposed
    view is passed to BLAS as a transposed operand, not copied.  Bound once
    to a fixed buffer, it also skips the __array_function__ dispatcher that
    the np.dot function goes through on every call.  At n = 1 dot returns
    the plain product, -0.0 for 0.0 * -3.0, where np.matmul's 1x1 path sums
    from +0.0, so there f is np.matmul with a as its first operand.
    """
    return functools.partial(np.matmul, a) if a.shape[0] == 1 else a.dot


def _gradient_kernel(
    W1: np.ndarray,
    W2: np.ndarray,
    theta: np.ndarray,
    E: np.ndarray,
    v: np.ndarray,
    V: np.ndarray | None,
    ridge_lambda: float,
    ridge_anchor: np.ndarray | None,
    out: np.ndarray,
) -> Callable[[], None]:
    """The update kernel: a closure that writes (dL/dW1, dL/dW2) into out[0] and out[1].

    Each call reads the current contents of W1, W2, theta = W1 @ W2 and the
    residual E = theta - A, so a loop that updates those buffers in place
    calls it once per step; out must not alias any of them.  Its results are
    bitwise those of the allocating expressions 2.0 * (E * v),
    2.0 * ((E @ V) * v) @ V.T and G + 2.0 * lam * (theta - anchor), followed
    by G @ W2.T and W1.T @ G, although it issues them through cheaper calls.
    Each rewrite is exact:

    - x + x stands for 2.0 * x.  Both round the same real number 2x, so they
      agree in every range, subnormal and overflow included.  Folding the 2
      into v would not: E * (2.0 * v) rounds differently when E * v is
      subnormal.
    - v broadcast to (n, n) and 2 lam are built once as full-shape operands.
      Every element is multiplied by the same factor as under broadcasting
      or by a Python scalar, and a same-shape ufunc call dispatches faster.
    - W1.T, W2.T and V.T are taken once.  They are views of the same
      buffers, so BLAS sees the transpose flags the expressions' own .T give
      it; a contiguous copy would be a different gemm call.
    - out is passed positionally, which numpy parses faster than out=.
    - Each @ is the bound ndarray.dot method of its left operand for n >= 2,
      bound once to these fixed buffers: the same gemm call as np.matmul
      without numpy's function dispatch.  At n = 1 it stays np.matmul, whose
      1x1 product sums from +0.0 (see _matmul_for).
    """
    n = theta.shape[0]
    G, work = np.empty((2, n, n))
    v = np.broadcast_to(v, (n, n)).copy()
    lam2 = np.full((n, n), 2.0 * ridge_lambda)
    out1, out2 = out
    # a closure finds its own names faster than numpy's attributes
    multiply, add, subtract = np.multiply, np.add, np.subtract
    E_dot, work_dot, G_dot, W1T_dot = (_matmul_for(M) for M in (E, work, G, W1.T))
    VT, W2T = None if V is None else V.T, W2.T

    def gradients() -> None:
        if V is None:
            multiply(E, v, G)
            add(G, G, G)
        else:
            E_dot(V, work)
            multiply(work, v, work)
            add(work, work, work)
            work_dot(VT, G)
        if ridge_lambda > 0:
            subtract(theta, ridge_anchor, work)
            multiply(lam2, work, work)
            add(G, work, G)
        # both factor gradients are taken before either factor moves
        G_dot(W2T, out1)
        W1T_dot(G, out2)

    return gradients


def _data_loss(E: np.ndarray, v: np.ndarray, V: np.ndarray | None) -> float:
    if V is None:
        return float(np.add.reduce(E * E * v, axis=None))
    EV = E @ V
    return float(np.add.reduce(EV * EV * v, axis=None))


def _losses(
    thetas: Sequence[np.ndarray], dist: StageDistribution, basis: SpectralBasis
) -> list[float]:
    """The exact expected squared error of each product in thetas on dist."""
    A = target_matrix(dist, basis)
    v = dist.input_variances
    V = None if basis.is_identity else basis.V
    return [_data_loss(theta - A, v, V) for theta in thetas]


def population_loss(state: NetworkState, dist: StageDistribution, basis: SpectralBasis) -> float:
    """Exact expected squared error of theta on the stage distribution."""
    return _losses([state.theta], dist, basis)[0]


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
    grads = np.empty((2, state.n, state.n))
    v = dist.input_variances
    _gradient_kernel(state.W1, state.W2, theta, theta - A, v, V, ridge_lambda, ridge_anchor, grads)()
    return grads[0], grads[1]


def _offdiag_norm(M: np.ndarray) -> float:
    # the Frobenius norm of M - diag(diag(M)), by the operations np.linalg.norm runs
    rest = M.ravel().copy()
    rest[:: M.shape[0] + 1] = 0.0
    return math.sqrt(rest.dot(rest))


def aligned_spectrum(state: NetworkState, basis: SpectralBasis) -> tuple[np.ndarray, float]:
    """(diagonal of U^T theta V, Frobenius norm of the off-diagonal remainder)."""
    theta = state.theta
    M = theta if basis.is_identity else basis.U.T @ theta @ basis.V
    return M.diagonal().copy(), _offdiag_norm(M)


def _off_diagonals_are_zero(M: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the square matrices in M is +0.0 by bit pattern.

    M is a C-contiguous stack of n x n blocks.  In a row-major block the
    n + 1 entries after each diagonal entry are n off-diagonals and the next
    diagonal entry, so the off-diagonals are the first n of each such run: a
    strided view of M's bits, read without a copy.
    """
    m, n = len(M), M.shape[-1]
    runs = M.view(np.int64).reshape(m, n * n)[:, 1:].reshape(m, n - 1, n + 1)
    return not runs[..., :n].any()


def _diagonal_kernel(
    W: np.ndarray, diagonals: np.ndarray, A: np.ndarray, v: np.ndarray, config: TrainConfig
) -> Callable[[int, int, int], None]:
    """train()'s update for a balanced diagonal state in the identity basis, in Python floats.

    W holds the two factors, equal bit for bit, and A the target, all with
    +0.0 off their diagonals, and v the input variances.  In that frame the
    matrix update decouples into one recursion per coordinate, and this
    kernel runs each one with the operations the matrix kernel applies to
    the diagonal entries, so it is bitwise that kernel:

    - Each elementwise ufunc (subtract, multiply, add) is the IEEE binary64
      operation Python's float operator performs, with the same rounding,
      subnormals, signed zeros, inf and nan.
    - Each matmul entry of two diagonal operands sums one product x * y with
      zero terms, starting from +0.0, so it is x * y + 0.0.  An entry off the
      diagonal sums only zeros and is +0.0, so the factors stay diagonal and
      the products are +0.0 there, which is why only their diagonals are
      recorded.
    - IEEE multiplication is commutative, so g * w2 and w1 * g are one
      operation while w1 and w2 share bits, and both factors take the same
      update.  advance steps each coordinate as one float w, t = w * w and
      u = w - eta * (g * w), and writes w back to both factors.
    - w * w is never -0.0, so its matmul entry is w * w.  A zero g * w from a
      nonzero w gives u = w whichever zero it is, and from a zero w, u == w
      holds whatever the sign of g * w, where the fixed-point exit keeps w,
      the bits the entry's +0.0 gives.

    A coordinate whose step returns w is at a fixed point: given the run's
    constants (target, variance, ridge anchor, eta and 2 lambda) a step is a
    deterministic function of w.  advance stops stepping it, in this call
    and in every later one, and writes its product into each row it still
    records.  Neither nan nor +-inf can be fixed: nan equals nothing, and an
    infinite w makes g infinite or nan, which turns w into nan.  The test
    still checks that the product is finite, which costs nothing once the
    equality holds.

    Returns train()'s advance(count, row, rows), which writes the factors
    back into W and the products' diagonals into the rows of diagonals,
    shape (num_snapshots, n).  The ridge anchors the start product, as in the
    matrix kernel.
    """
    n = W.shape[1]
    factors = memoryview(W.reshape(-1))
    products = memoryview(diagonals.reshape(-1))
    eta = float(config.eta)
    ridge, lam2 = config.ridge_lambda > 0, float(2.0 * config.ridge_lambda)
    repeat, isfinite = itertools.repeat, math.isfinite
    # per coordinate: its target, variance, ridge anchor, index, flat offset
    # in W1, and its product once it is at a fixed point, None until then
    coords = []
    for i, (a, vi) in enumerate(zip(A.diagonal().tolist(), v.tolist())):
        k = i * (n + 1)
        coords.append([a, vi, factors[k] * factors[k], i, k, None])

    def advance(count: int, row: int, rows: int) -> None:
        # coordinate by coordinate, each through all rows; r is the row being
        # finished, and the rows from r on take a fixed coordinate's product
        end = row + rows
        for coord in coords:
            a, vi, anchor, i, k, fixed = coord
            r = row
            if fixed is None:
                w = factors[k]
                while r < end:
                    for _ in repeat(None, count):
                        t = w * w
                        g = (t - a) * vi
                        g = g + g
                        if ridge:
                            g = g + lam2 * (t - anchor)
                        u = w - eta * (g * w)
                        if u == w and isfinite(t):
                            coord[-1] = t
                            break
                        w = u
                    else:
                        if row:
                            products[i + r * n] = w * w
                        r += 1
                        continue
                    break
                factors[k] = factors[k + n * n] = w
            if row and r < end:
                diagonals[r:end, i] = coord[-1]

    return advance


def train(
    state: NetworkState,
    dist: StageDistribution,
    basis: SpectralBasis,
    config: TrainConfig,
    record_spectrum: bool = True,
) -> tuple[NetworkState, Trajectory]:
    """Run max_steps of full-batch gradient descent, recording theta every probe_every steps.

    The first and final products are always recorded, into one preallocated
    array; the Trajectory derives losses and spectra from it on access.
    record_spectrum=False makes its aligned diagonals and off-diagonal norms
    unavailable.  A ridge anchors the start product, the trajectory's first
    row.  The run raises TrainingDiverged at the first step whose weights or
    training loss are not finite (finite weights can still overflow the
    loss).

    The start state picks the kernel by the rule in the module docstring.
    _diagonal_kernel records only the products' diagonals, into a
    (num_snapshots, n) array, and the matrix kernel the products, into a
    (num_snapshots, n, n) array.  Both kernels give the same bits.

    The matrix kernel takes the factors' bytes as a mark every MARK_EVERY
    steps and compares the bytes after each later step with it.  When they
    match and the factors are finite, the run is periodic with the period p
    of steps since the mark: given the run's constants (target, variances,
    basis, eta, 2 lambda and the start product) a step is a deterministic
    function of the factors.  The kernel then steps p more times to collect
    the p phases, which brings the factors back to the same bits, and stops
    stepping: each later recorded row takes its phase's product, and the
    factors are left at their phase's state after every advance call, so
    the weight checks and the replay see what stepping would have left.
    Bit patterns, not values, are compared: -0.0 and +0.0 differ, and a
    non-finite state, which can repeat its bits, is left to the weight
    checks.
    """
    A = target_matrix(dist, basis)
    v = dist.input_variances
    V = None if basis.is_identity else basis.V

    # the start factors and the target in one copy: the kernel is chosen from
    # it, and restart() copies the factors back from it
    n = state.n
    start = np.array((state.W1, state.W2, A))
    balanced = start[0].tobytes() == start[1].tobytes()
    diagonal = V is None and balanced and _off_diagonals_are_zero(start)
    # both factors live in one buffer, so the update and the finiteness check
    # each cover them in one numpy call
    W = np.empty((2, n, n))
    W1, W2 = W[0], W[1]
    theta, E = np.empty((n, n)), np.empty((n, n))
    # a snapshot every probe_every steps and one after the last, each row
    # written by the run; the step numbers are only built for a run that
    # returns
    full, rest = divmod(config.max_steps, config.probe_every)
    num_snapshots = 1 + full + bool(rest)
    products = np.empty((num_snapshots, n) if diagonal else (num_snapshots, n, n))
    multiply, subtract, W1_dot = np.multiply, np.subtract, _matmul_for(W1)

    def restart() -> None:
        np.copyto(W, start[:2])
        W1_dot(W2, theta)
        subtract(theta, A, E)

    def matrix_kernel() -> Callable[[int, int, int], None]:
        # built right after restart(): the ridge anchors the start product
        anchor = theta.copy()
        grads = np.empty_like(W)
        gradients = _gradient_kernel(W1, W2, theta, E, v, V, config.ridge_lambda, anchor, grads)
        # a full-shape eta, for the kernel's reason: the same products, cheaper
        eta = np.full_like(W, config.eta)
        copyto, tobytes = np.copyto, W.tobytes
        # the steps taken since restart, the factors' bytes at the last mark
        # and its step, and once they repeat: the step the orbit was found at
        # with the factors and product of each of its phases
        done, mark, marked = 0, tobytes(), 0
        orbit = None

        def step() -> None:
            gradients()
            multiply(eta, grads, grads)
            subtract(W, grads, W)
            W1_dot(W2, theta)
            subtract(theta, A, E)

        def collect(found: int, period: int) -> tuple[int, np.ndarray, np.ndarray]:
            """Step once around the orbit, collecting each phase's factors and product."""
            factors, thetas = np.empty((period, 2, n, n)), np.empty((period, n, n))
            for phase in range(period):
                factors[phase], thetas[phase] = W, theta
                step()
            return found, factors, thetas

        def advance(count: int, row: int, rows: int) -> None:
            nonlocal done, mark, marked, orbit
            first, r, end = done, row, row + rows
            while orbit is None and r < end:
                for done in range(done + 1, done + count + 1):
                    step()
                    now = tobytes()
                    if now == mark and np.isfinite(W).all():
                        orbit = collect(done, done - marked)
                        break
                    if not done % MARK_EVERY:
                        mark, marked = now, done
                else:
                    if r:
                        copyto(products[r], theta)
                    r += 1
            if orbit is not None:
                # step t of the run is at phase (t - found) % period
                found, factors, thetas = orbit
                period = len(factors)
                if row and r < end:
                    at = first + count * np.arange(r - row + 1, rows + 1)
                    products[r:end] = thetas[(at - found) % period]
                done = first + count * rows
                phase = (done - found) % period
                copyto(W, factors[phase])
                copyto(theta, thetas[phase])
                subtract(theta, A, E)

        return advance

    def finite() -> bool:
        return math.isfinite(_data_loss(E, v, V)) and bool(np.isfinite(W).all())

    def first_nonfinite() -> int:
        """The first step without finite weights and loss, by replay from the start state."""
        restart()
        advance = matrix_kernel()
        for step in range(config.max_steps):
            if not finite():
                return step
            advance(1, 0, 1)
        return config.max_steps

    # The update has no division, so a weight that turns inf or nan stays
    # non-finite, and a loss that overflows from finite weights drives them
    # to overflow too.  A check of the weights every FINITE_CHECK_EVERY steps
    # and of weights and loss after the last step therefore tells whether any
    # step failed, and a replay from the start state finds the first one, the
    # step a check after every step would find.  The diagonal kernel runs
    # coordinate by coordinate within each block, so it stops within a block
    # too.  Overflow is caught that way, so numpy's own warning about it is
    # noise on a run that is about to raise anyway.
    with np.errstate(over="ignore", invalid="ignore"):
        restart()
        products[0] = theta.diagonal() if diagonal else theta
        # advance(count, row, rows) takes count steps rows times, and after
        # each count records the product into the next row from row on; a row
        # of 0 records nothing
        advance = _diagonal_kernel(W, products, A, v, config) if diagonal else matrix_kernel()
        every, last = config.probe_every, config.max_steps
        step, row = 0, 1
        while step < last:
            stop = min(step - step % FINITE_CHECK_EVERY + FINITE_CHECK_EVERY, last)
            while step < stop:
                at = min(row * every, last)  # the step that row records
                if at > stop:
                    advance(stop - step, 0, 1)
                    step = stop
                elif at - step < every:  # a row cut by a weight check, or the short last row
                    advance(at - step, row, 1)
                    step, row = at, row + 1
                else:  # whole rows, as many as end by stop
                    rows = min(full + 1 - row, (stop - step) // every)
                    advance(every, row, rows)
                    step, row = step + rows * every, row + rows
            if step % FINITE_CHECK_EVERY == 0 and not np.isfinite(W).all():
                raise TrainingDiverged(state.step + first_nonfinite())
        # the diagonal kernel moves only W
        W1_dot(W2, theta)
        subtract(theta, A, E)
        if not finite():
            raise TrainingDiverged(state.step + first_nonfinite())

    steps = np.arange(0, num_snapshots * config.probe_every, config.probe_every)
    steps[-1] = config.max_steps
    steps.flags.writeable = products.flags.writeable = False
    final_state = NetworkState(W1=W1, W2=W2, step=state.step + config.max_steps)
    return final_state, Trajectory(steps, products, basis, dist, record_spectrum)


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
) -> float:
    """Iterate derived_diag_step from init until the update falls below FIXED_POINT_TOL."""
    sigma = float(init)
    for i in range(FIXED_POINT_MAX_ITER):
        nxt = float(derived_diag_step(sigma, variance, target, eta, ridge_lambda, anchor))
        if not math.isfinite(nxt):
            raise TrainingDiverged(i + 1, f"scalar recursion diverged at iteration {i + 1}")
        if abs(nxt - sigma) <= FIXED_POINT_TOL:
            return nxt
        sigma = nxt
    raise StagelabError(f"scalar fixed point did not converge within {FIXED_POINT_MAX_ITER} iterations")
