"""Two-layer linear network trained by full-batch gradient descent.

The model is theta = W1 @ W2 with square factors.  The population loss on a
stage distribution is

    L(theta) = sum_i v_i * || (theta - A) V e_i ||^2

where A is the stage distribution's teacher matrix and v its input variances,
both in its basis.  Gradients flow through both factors, updates are
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
off-diagonal or in a random basis, takes the matrix kernel, _matrix_kernel,
which steps _gradient_kernel in numpy.  Each kernel stops stepping what has stopped moving: a
diagonal coordinate whose step returns the same float is at a fixed point,
and a matrix run whose factors return to the bit patterns of an earlier
step is an exact orbit, whose recorded rows take their phase's product.
Most random-basis trainings end in such orbits, of periods from one step to
a few dozen.

_train is the one training shell: it steps one run, or runs that share a
basis as one stack on _matrix_kernel, each run's arithmetic the one it does
alone.  A stack's factors are laid out (2, B, n, n), so W1 and W2 and both
gradient slots are contiguous (B, n, n) stacks, and each run brings its own
teacher, stacked to (B, n, n), and variances, (B, 1, n), so the runs of a
stack may train on different distributions of the basis.  train_lockstep
stacks every start the matrix kernel takes and stores the results in a
memo, from which train() serves them.  A step costs numpy dispatch far more
than arithmetic at these sizes, so B runs stepped as one stack cost little
more than one.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StagelabError, TrainingDiverged
from .tasks import SpectralBasis, StageDistribution, _freeze

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
    diagonals() and offdiags(), in the training distribution's basis.
    """

    steps: np.ndarray
    products: np.ndarray
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
        return np.array(_losses(self.thetas, dist))

    @property
    def train_losses(self) -> np.ndarray:
        return self.losses(self.dist)

    def _frames(self) -> np.ndarray:
        """The products in the aligned frame U^T theta V, one row per snapshot.

        A diagonal run's rows are its diagonals, as it is in the identity basis.
        """
        if not self.spectrum:
            raise StagelabError("trajectory was recorded without aligned spectra")
        if self.dist.basis.is_identity:
            return self.products
        U, V = self.dist.basis.U, self.dist.basis.V
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
    """The call f(b, out) that writes a @ b into out, as np.matmul rounds it.

    For one (n, n) matrix with n >= 2 it is the bound method a.dot.
    ndarray.dot reaches the same cblas_dgemm call as np.matmul, transpose
    flags included: a transposed view is passed to BLAS as a transposed
    operand, not copied.  Bound once to a fixed buffer, it also skips the
    __array_function__ dispatcher that the np.dot function goes through on
    every call.  At n = 1 dot returns the plain product, -0.0 for
    0.0 * -3.0, where np.matmul's 1x1 path sums from +0.0, so there f is
    np.matmul with a as its first operand.  So it is for a stack of
    matrices, shape (B, n, n), whose np.matmul makes one such call per matrix.
    """
    return a.dot if a.ndim == 2 and a.shape[0] > 1 else functools.partial(np.matmul, a)


def _gradient_kernel(
    W1: np.ndarray,
    W2: np.ndarray,
    theta: np.ndarray,
    E: np.ndarray,
    v: np.ndarray,
    V: np.ndarray | None,
    ridge_lambda: float | np.ndarray,
    ridge_anchor: np.ndarray | None,
    out: np.ndarray,
) -> Callable[[], None]:
    """The update kernel: a closure that writes (dL/dW1, dL/dW2) into out's two factor slots.

    It serves one run, with (n, n) matrices, v of shape (n,) and out of
    shape (2, n, n), or B runs in lock step, with C-contiguous (B, n, n)
    stacks, each run's variances in v, shape (B, 1, n), its ridge_lambda in
    an array of shape (B, 1, 1) and out of shape (2, B, n, n), whose two
    slots are contiguous stacks.  The runs of a stack share V, and every
    run's ridge_lambda is positive or none is.  Each call reads the current
    contents of W1, W2, theta = W1 @ W2 and the residual E = theta - A, so a
    loop that updates those buffers in place calls it once per step; out
    must not alias any of them.  Its results are bitwise those of the
    allocating expressions 2.0 * (E * v), 2.0 * ((E @ V) * v) @ V.T and
    G + 2.0 * lam * (theta - anchor), followed by G @ W2.T and W1.T @ G, run
    by run, although it issues them through cheaper calls.  Each rewrite is
    exact:

    - x + x stands for 2.0 * x.  Both round the same real number 2x, so they
      agree in every range, subnormal and overflow included.  Folding the 2
      into v would not: E * (2.0 * v) rounds differently when E * v is
      subnormal.
    - v and 2 lam are broadcast once to full-shape operands.  Every element
      is multiplied by the same factor as under broadcasting or by a Python
      scalar, and a same-shape ufunc call dispatches faster.
    - The transposes of W1, W2 and V are taken once, as views of the same
      buffers, so BLAS sees the transpose flags the expressions' own .T give
      it; a contiguous copy would be a different gemm call.
    - out is passed positionally, which numpy parses faster than out=.
    - Each @ is _matmul_for of its left operand, bound once to these fixed
      buffers: the bound ndarray.dot for one matrix with n >= 2, the same
      gemm call as np.matmul without numpy's function dispatch, and
      np.matmul otherwise, which makes that call once per matrix of a stack
      (and whose 1x1 product sums from +0.0).
    - A stack's E @ V and work @ V.T, whose right operand every run shares,
      are each one gemm of the (B n, n) matrix the C-contiguous stack is,
      by the bound dot of that view, for n >= 2.  Each row of a product is
      that row of the left operand times the right one, and the gemm sums
      each entry's n terms in one order however many rows surround it, so
      each run's rows round as its own product's.  test_network's
      test_a_flattened_gemm_is_bitwise_per_matrix_matmul holds this gemm
      to np.matmul of each matrix, with signed zeros, subnormals and
      magnitudes near 1e+-150.  At n = 1 np.matmul stays, for its +0.0.
    """
    shape, n = theta.shape, theta.shape[-1]
    G, work = np.empty((2, *shape))
    v = np.broadcast_to(v, shape).copy()
    lam2 = np.broadcast_to(2.0 * ridge_lambda, shape).copy()
    ridge = bool(np.all(lam2 > 0))
    out1, out2 = out
    # a closure finds its own names faster than numpy's attributes
    multiply, add, subtract = np.multiply, np.add, np.subtract
    # a view of rows for the gemm calls whose right operand is V or V.T
    E_rows, work_rows, G_rows = (M.reshape(-1, n) if n > 1 else M for M in (E, work, G))
    E_dot, work_dot, G_dot, W1T_dot = (_matmul_for(M) for M in (E_rows, work_rows, G, W1.swapaxes(-1, -2)))
    VT, W2T = None if V is None else V.T, W2.swapaxes(-1, -2)

    def gradients() -> None:
        if V is None:
            multiply(E, v, G)
            add(G, G, G)
        else:
            E_dot(V, work_rows)
            multiply(work, v, work)
            add(work, work, work)
            work_dot(VT, G_rows)
        if ridge:
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


def _losses(thetas: Sequence[np.ndarray], dist: StageDistribution) -> list[float]:
    """The exact expected squared error of each product in thetas on dist."""
    A, v = dist.teacher, dist.input_variances
    V = None if dist.basis.is_identity else dist.basis.V
    return [_data_loss(theta - A, v, V) for theta in thetas]


def population_loss(state: NetworkState, dist: StageDistribution) -> float:
    """Exact expected squared error of theta on the stage distribution."""
    return _losses([state.theta], dist)[0]


def population_gradient(
    state: NetworkState,
    dist: StageDistribution,
    ridge_lambda: float = 0.0,
    ridge_anchor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients (dL/dW1, dL/dW2), including the optional ridge term."""
    if ridge_lambda > 0 and ridge_anchor is None:
        raise ConfigError("ridge_lambda > 0 requires a ridge_anchor")
    A, v = dist.teacher, dist.input_variances
    V = None if dist.basis.is_identity else dist.basis.V
    theta = state.theta
    grads = np.empty((2, state.n, state.n))
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

    M is a C-contiguous stack of n x n blocks, read as int64 words without a
    copy: its off-diagonal words are all zero when it holds no more nonzero
    words than its diagonals do.
    """
    words = M.view(np.int64).reshape(len(M), -1)
    return np.count_nonzero(words) == np.count_nonzero(words[:, :: M.shape[-1] + 1])


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


def _memo_key(
    state: NetworkState, dist: StageDistribution, config: TrainConfig, record_spectrum: bool
) -> tuple:
    """Everything a train() result depends on, the arrays by their bytes."""
    U, V = dist.basis.U, dist.basis.V
    arrays = (dist.input_variances, dist.cross_covariance, U, V, state.W1, state.W2)
    return (*(a.tobytes() for a in arrays), state.step, config, record_spectrum)


def _matrix_kernel(
    W: np.ndarray,
    theta: np.ndarray,
    E: np.ndarray,
    products: np.ndarray,
    A: np.ndarray,
    v: np.ndarray,
    V: np.ndarray | None,
    eta: float | np.ndarray,
    ridge_lambda: float | np.ndarray,
) -> Callable[[int, int, int], None]:
    """The update of every state the diagonal kernel does not take, for one run or a stack in lock step.

    W holds the factors, shape (2, n, n) for one run or (2, B, n, n) for B
    runs, so W1 = W[0] and W2 = W[1] are contiguous stacks; theta = W1 @ W2
    and E = theta - A are their current products and residuals, and
    products holds one row per snapshot, each of theta's shape.  The runs
    of a stack share V, and each has its own teacher in A, shape (B, n, n),
    variances in v, shape (B, 1, n), eta, shape (1, B, 1, 1), and
    ridge_lambda, shape (B, 1, 1), as _gradient_kernel takes them.  The
    ridge anchors the current products.

    The kernel takes the factors' bytes as a mark every MARK_EVERY steps
    and compares the bytes after each later step with it.  When they match
    and the factors are finite, the run is periodic with the period p of
    steps since the mark: given the run's constants (target, variances,
    basis, eta, 2 lambda and the start product) a step is a deterministic
    function of the factors.  The kernel then steps p more times to collect
    the p phases, which brings the factors back to the same bits, and stops
    stepping: each later recorded row takes its phase's product, and the
    factors are left at their phase's state after every advance call, so
    the weight checks and the replay see what stepping would have left.
    Bit patterns, not values, are compared: -0.0 and +0.0 differ, and a
    non-finite state, which can repeat its bits, is left to the weight
    checks.  A stack's bytes are all its runs' factors, so it stops once
    every run is in an orbit and the stack's period, the least common
    multiple of theirs, is at most MARK_EVERY.

    Returns advance(count, row, rows), which takes count steps rows times,
    and after each count records the product into the next row of products
    from row on; a row of 0 records nothing.
    """
    W1, W2 = W
    W1_dot = _matmul_for(W1)
    multiply, subtract, copyto, tobytes = np.multiply, np.subtract, np.copyto, W.tobytes
    grads = np.empty_like(W)
    gradients = _gradient_kernel(W1, W2, theta, E, v, V, ridge_lambda, theta.copy(), grads)
    # a full-shape eta, for the gradient kernel's reason: the same products, cheaper
    eta = np.broadcast_to(eta, W.shape).copy()
    # the steps taken so far, the factors' bytes at the last mark and its
    # step, and once they repeat: the step the orbit was found at with the
    # factors and product of each of its phases
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
        factors, thetas = np.empty((period, *W.shape)), np.empty((period, *theta.shape))
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


def _snapshot_steps(config: TrainConfig) -> np.ndarray:
    """The steps a run records, read-only: one every probe_every steps and the last."""
    full, rest = divmod(config.max_steps, config.probe_every)
    steps = np.arange(0, (1 + full + bool(rest)) * config.probe_every, config.probe_every)
    steps[-1] = config.max_steps
    steps.flags.writeable = False
    return steps


def _schedule(
    advance: Callable[[int, int, int], None], config: TrainConfig, check: Callable[[], None] | None
) -> None:
    """Take config.max_steps steps through a kernel's advance, recording the rows _snapshot_steps names.

    check, if given, runs after every FINITE_CHECK_EVERY-th step.
    """
    every, last = config.probe_every, config.max_steps
    full = last // every
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
        if check is not None and step % FINITE_CHECK_EVERY == 0:
            check()


def _takes_diagonal_kernel(state: NetworkState, dist: StageDistribution) -> bool:
    """Whether _train steps state on dist with _diagonal_kernel, by the rule in the module docstring."""
    # factors equal bit for bit share their off-diagonals
    balanced = dist.basis.is_identity and state.W1.tobytes() == state.W2.tobytes()
    return balanced and _off_diagonals_are_zero(np.array((state.W1, dist.teacher)))


def train(
    state: NetworkState,
    dist: StageDistribution,
    config: TrainConfig,
    record_spectrum: bool = True,
    memo: dict | None = None,
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
    (num_snapshots, n) array, and _matrix_kernel the products, into a
    (num_snapshots, n, n) array.  Both kernels give the same bits, and each
    stops stepping once the run is at a fixed point or in an exact orbit.

    memo, a caller-owned dict, serves a repeat of an earlier successful call
    (equal distribution, start factors and step, config and record_spectrum,
    arrays compared by their bytes) without stepping: the final state and
    products that call computed, or that train_lockstep stored for it, in a
    Trajectory over this call's distribution.  A diverged run is not stored;
    a repeat raises again.
    """
    if memo is None:
        return _train((state,), (dist,), (config,), record_spectrum)[0]
    key = _memo_key(state, dist, config, record_spectrum)
    if key not in memo:
        memo[key] = result = _train((state,), (dist,), (config,), record_spectrum)[0]
        return result
    final_state, trajectory = memo[key]
    return final_state, Trajectory(trajectory.steps, trajectory.products, dist, record_spectrum)


def _train(
    states: Sequence[NetworkState],
    dists: Sequence[StageDistribution],
    configs: Sequence[TrainConfig],
    record_spectrum: bool,
) -> list[tuple[NetworkState, Trajectory] | None]:
    """Train each state under its config on its distribution, the runs sharing a basis and a schedule.

    A schedule is max_steps, probe_every and whether there is a ridge.  One
    run is train() without a memo: (2, n, n) factors on the kernel its
    start picks, a weight check every FINITE_CHECK_EVERY steps, and
    TrainingDiverged at its first non-finite step.  Several step on
    _matrix_kernel as one stack: factors of shape (2, B, n, n), the
    teachers stacked to shape (B, n, n) and the variances to (B, 1, n),
    each run with its own start, distribution, eta, ridge_lambda and anchor,
    each run's arithmetic the one it does alone; a member whose final
    weights or loss are not finite gives None.
    """
    dist, config, one = dists[0], configs[0], len(states) == 1
    V = None if dist.basis.is_identity else dist.basis.V
    diagonal = one and _takes_diagonal_kernel(states[0], dist)

    # the start factors, which restart() copies back, and W, which holds all
    # of them, so the update and the finiteness check each cover them in
    # one numpy call
    if one:
        start = np.array((states[0].W1, states[0].W2))
        A, v = dist.teacher, dist.input_variances
        eta, ridge_lambda = config.eta, config.ridge_lambda
    else:
        start = np.array(([state.W1 for state in states], [state.W2 for state in states]))
        A = np.array([d.teacher for d in dists])
        v = np.array([d.input_variances for d in dists])[:, None, :]
        eta = np.array([c.eta for c in configs]).reshape(1, -1, 1, 1)
        ridge_lambda = np.array([c.ridge_lambda for c in configs]).reshape(-1, 1, 1)
    W = np.empty_like(start)
    W1, W2 = W
    theta, E = np.empty(W1.shape), np.empty(W1.shape)
    # a snapshot every probe_every steps and one after the last, each row
    # written by the run
    steps = _snapshot_steps(config)
    products = np.empty((len(steps), start.shape[-1]) if diagonal else (len(steps), *theta.shape))
    subtract, W1_dot = np.subtract, _matmul_for(W1)

    def restart() -> None:
        np.copyto(W, start)
        W1_dot(W2, theta)
        subtract(theta, A, E)

    def matrix_kernel() -> Callable[[int, int, int], None]:
        # built right after restart(): the ridge anchors the start products
        return _matrix_kernel(W, theta, E, products, A, v, V, eta, ridge_lambda)

    def finite(W: np.ndarray, E: np.ndarray, v: np.ndarray) -> bool:
        return math.isfinite(_data_loss(E, v, V)) and bool(np.isfinite(W).all())

    def first_nonfinite() -> int:
        """The first step without finite weights and loss, by replay from the start state."""
        restart()
        advance = matrix_kernel()
        for step in range(config.max_steps):
            if not finite(W, E, v):
                return step
            advance(1, 0, 1)
        return config.max_steps

    def check() -> None:
        if not np.isfinite(W).all():
            raise TrainingDiverged(states[0].step + first_nonfinite())

    def result(
        state: NetworkState, dist: StageDistribution, W: np.ndarray, rows: np.ndarray
    ) -> tuple[NetworkState, Trajectory]:
        rows.flags.writeable = False
        final_state = NetworkState(W1=W[0], W2=W[1], step=state.step + config.max_steps)
        return final_state, Trajectory(steps, rows, dist, record_spectrum)

    # The update has no division, so a weight that turns inf or nan stays
    # non-finite, and a loss that overflows from finite weights drives them
    # to overflow too.  A check of the weights every FINITE_CHECK_EVERY steps
    # and of weights and loss after the last step therefore tells whether any
    # step failed, and a replay from the start state finds the first one, the
    # step a check after every step would find.  The diagonal kernel runs
    # coordinate by coordinate within each block, so it stops within a block
    # too.  Overflow is caught that way, so numpy's own warning about it is
    # noise on a run that is about to raise anyway.  A stack is not checked:
    # its other members step on.
    with np.errstate(over="ignore", invalid="ignore"):
        restart()
        products[0] = theta.diagonal() if diagonal else theta
        advance = _diagonal_kernel(W, products, A, v, config) if diagonal else matrix_kernel()
        _schedule(advance, config, check if one else None)
        # the diagonal kernel moves only W
        W1_dot(W2, theta)
        subtract(theta, A, E)
        if not one:
            return [
                result(state, dists[b], W[:, b], products[:, b].copy()) if finite(W[:, b], E[b], v[b])
                else None
                for b, state in enumerate(states)
            ]
        if not finite(W, E, v):
            raise TrainingDiverged(states[0].step + first_nonfinite())
    return [result(states[0], dist, W, products)]


def train_lockstep(
    runs: Iterable[tuple[NetworkState, StageDistribution, TrainConfig]],
    memo: dict,
    record_spectrum: bool = True,
) -> None:
    """Train runs in lock step, storing in memo what train() returns for each.

    Runs that share a basis (U and V by their bytes), max_steps, probe_every
    and ridge-or-not form a group, whatever their distributions, and a
    group of two or more steps as one _train stack.  Each finite result is
    stored under _memo_key, where train(state, dist, config,
    record_spectrum, memo) serves it without stepping; a run that ends
    non-finite is not, so its own train() call steps and raises
    TrainingDiverged at its own step.  Nothing steps for a run already in
    memo, a group of one, which train() steps as fast, or a start that
    train() puts on its faster diagonal kernel.
    """
    groups: dict[tuple, dict] = {}
    for state, dist, config in runs:
        if _takes_diagonal_kernel(state, dist):
            continue
        key = _memo_key(state, dist, config, record_spectrum)
        if key not in memo:
            # the key's third and fourth entries are the basis's bytes
            shared = (*key[2:4], config.max_steps, config.probe_every, config.ridge_lambda > 0)
            groups.setdefault(shared, {})[key] = state, dist, config
    for group in groups.values():
        if len(group) > 1:
            for key, result in zip(group, _train(*zip(*group.values()), record_spectrum)):
                if result is not None:
                    memo[key] = result


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
    factors scale by d = 1 - eta g, so the product updates as sigma (d d).
    This matches the matrix dynamics coordinate-by-coordinate.  The square is
    one IEEE multiplication, as numpy squares an array, so Python floats and
    arrays get the same bits, and an overflow gives inf.
    """
    g = 2.0 * (variance * (sigma - target) + ridge_lambda * (sigma - anchor))
    d = 1.0 - eta * g
    return sigma * (d * d)


def scalar_fixed_point(
    variance: float,
    target: float,
    eta: float,
    ridge_lambda: float = 0.0,
    anchor: float = 0.0,
    init: float = 1.0,
) -> float:
    """Iterate derived_diag_step from init until the update falls below FIXED_POINT_TOL.

    The loop inlines derived_diag_step's operations, in its order, on Python
    floats, so each iterate has the bits that function returns for it; it
    squares by multiplication too.  An iterate that is not finite raises
    TrainingDiverged with its iteration.
    """
    sigma = float(init)
    variance, target, eta = float(variance), float(target), float(eta)
    ridge_lambda, anchor = float(ridge_lambda), float(anchor)
    isfinite = math.isfinite
    for i in range(FIXED_POINT_MAX_ITER):
        g = 2.0 * (variance * (sigma - target) + ridge_lambda * (sigma - anchor))
        d = 1.0 - eta * g
        nxt = sigma * (d * d)
        if not isfinite(nxt):
            raise TrainingDiverged(i + 1, f"scalar recursion diverged at iteration {i + 1}")
        if abs(nxt - sigma) <= FIXED_POINT_TOL:
            return nxt
        sigma = nxt
    raise StagelabError(f"scalar fixed point did not converge within {FIXED_POINT_MAX_ITER} iterations")
