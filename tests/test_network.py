"""Network state, losses, gradients, training loop, and the scalar recursions."""

import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    finite_difference_gradients,
    population_loss_monte_carlo,
    scalar_trajectory,
    stochastic_step,
    worst_gradient_discrepancy,
)
from stagelab import (
    ConfigError,
    NetworkState,
    SpectralBasis,
    StageDistribution,
    StagelabError,
    TrainConfig,
    TrainingDiverged,
    aligned_spectrum,
    derived_diag_step,
    init_from_spectrum,
    init_scaled_identity,
    make_reference_family,
    mix_distributions,
    population_gradient,
    population_loss,
    scalar_fixed_point,
    train,
)
from stagelab import network
from stagelab.tasks import target_matrix


def scalar_problem(target: float = 2.0):
    basis = SpectralBasis.identity(1)
    dist = StageDistribution(
        label="scalar",
        input_variances=np.array([1.0]),
        target_spectrum=np.array([target]),
        cross_covariance=np.array([target]),
    )
    return basis, dist


# ---------------------------------------------------------------- state / init


def test_network_state_is_immutable_and_theta_is_the_product():
    rng = np.random.default_rng(0)
    W1 = rng.standard_normal((4, 4))
    W2 = rng.standard_normal((4, 4))
    state = NetworkState(W1=W1, W2=W2)
    np.testing.assert_array_equal(state.theta, state.W1 @ state.W2)
    with pytest.raises(ValueError):
        state.W1[0, 0] = 99.0
    W1[0, 0] = 99.0  # the constructor copied, so this must not leak in
    assert state.W1[0, 0] != 99.0


def test_init_scaled_identity_values():
    state = init_scaled_identity(2, math.log(2.0))
    np.testing.assert_array_equal(state.W1, 0.5 * np.eye(2))
    np.testing.assert_array_equal(state.W2, 0.5 * np.eye(2))
    np.testing.assert_array_equal(state.theta, 0.25 * np.eye(2))

    deep = init_scaled_identity(6, 12.0)
    assert deep.W1[0, 0] == math.exp(-12.0)
    assert deep.W1[0, 0] == pytest.approx(6.14e-6, rel=1e-3)
    assert np.all(deep.W1[~np.eye(6, dtype=bool)] == 0.0)
    assert deep.step == 0


def test_init_from_spectrum_reproduces_the_diagonal():
    family = make_reference_family()
    spectrum = np.array([5.0, 4.0, 0.0, 0.0, 0.45, 0.45])
    state = init_from_spectrum(family.basis, spectrum)
    diag, offdiag = aligned_spectrum(state, family.basis)
    # sqrt(s)**2 can be one ulp off the requested value, so 1e-12 not bitwise
    np.testing.assert_allclose(diag, spectrum, atol=1e-12)
    assert offdiag == 0.0

    rot = SpectralBasis.random(6, seed=9)
    state_r = init_from_spectrum(rot, spectrum)
    diag_r, offdiag_r = aligned_spectrum(state_r, rot)
    np.testing.assert_allclose(diag_r, spectrum, atol=1e-12)
    assert offdiag_r <= 1e-12
    theta_want = (rot.U * spectrum) @ rot.V.T
    np.testing.assert_allclose(state_r.theta, theta_want, atol=1e-12)


def test_init_from_spectrum_rejects_negative_entries():
    family = make_reference_family()
    with pytest.raises(ConfigError, match="negative"):
        init_from_spectrum(family.basis, np.array([1.0, -0.5, 0, 0, 0, 0]))


# ------------------------------------------------------------------------ loss


def test_population_loss_reference_values():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    zero = NetworkState(W1=np.zeros((6, 6)), W2=np.zeros((6, 6)))
    assert population_loss(zero, pre, family.basis) == 42.64

    a_post = init_from_spectrum(family.basis, family.distribution("posttrain").target_spectrum)
    assert population_loss(a_post, pre, family.basis) == 12.5

    # a bitwise copy of the teacher (sqrt round trips can be one ulp off)
    a_pre = NetworkState(W1=target_matrix(pre, family.basis), W2=np.eye(6))
    assert population_loss(a_pre, pre, family.basis) == 0.0


def test_population_loss_matches_monte_carlo():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    zero = NetworkState(W1=np.zeros((6, 6)), W2=np.zeros((6, 6)))
    rng = np.random.default_rng(7)
    est, se = population_loss_monte_carlo(zero, pre, family.basis, 10**6, rng)
    assert abs(est - 42.64) <= 3 * se


def test_population_loss_ignores_zero_variance_coordinates():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    base = init_from_spectrum(family.basis, pre.target_spectrum)
    spiked = init_from_spectrum(
        family.basis, pre.target_spectrum + np.array([0, 0, 0, 0, 7.0, 7.0])
    )
    # a spike on dead coordinates changes theta but not the loss
    assert population_loss(spiked, pre, family.basis) == population_loss(
        base, pre, family.basis
    )


# ------------------------------------------------------------------- gradients


def test_gradients_match_finite_differences_in_every_configuration():
    family = make_reference_family()
    rot = make_reference_family(basis_mode="random", basis_seed=4)
    rng = np.random.default_rng(11)
    cases = []
    for fam in (family, rot):
        for stage in ("pretrain", "posttrain", "finetune"):
            cases.append((fam.basis, fam.distribution(stage)))
    mixed = mix_distributions(
        family.distribution("pretrain"), family.distribution("posttrain"), 0.5
    )
    cases.append((family.basis, mixed))

    for basis, dist in cases:
        state = NetworkState(W1=rng.standard_normal((6, 6)), W2=rng.standard_normal((6, 6)))
        G1, G2 = population_gradient(state, dist, basis)
        F1, F2 = finite_difference_gradients(state, dist, basis)
        assert worst_gradient_discrepancy(G1, F1) <= 1.0
        assert worst_gradient_discrepancy(G2, F2) <= 1.0


def test_ridge_gradient_matches_finite_differences():
    family = make_reference_family()
    post = family.distribution("posttrain")
    rng = np.random.default_rng(13)
    state = NetworkState(W1=rng.standard_normal((6, 6)), W2=rng.standard_normal((6, 6)))
    anchor = rng.standard_normal((6, 6))
    G1, G2 = population_gradient(state, post, family.basis, ridge_lambda=0.3, ridge_anchor=anchor)
    F1, F2 = finite_difference_gradients(state, post, family.basis, ridge_lambda=0.3, ridge_anchor=anchor)
    assert worst_gradient_discrepancy(G1, F1) <= 1.0
    assert worst_gradient_discrepancy(G2, F2) <= 1.0


def test_gradient_vanishes_at_the_teacher_and_at_the_origin():
    family = make_reference_family()
    post = family.distribution("posttrain")
    # a bitwise teacher: theta equals the target matrix exactly
    teacher = NetworkState(W1=target_matrix(post, family.basis), W2=np.eye(6))
    G1, G2 = population_gradient(teacher, post, family.basis)
    np.testing.assert_array_equal(G1, np.zeros((6, 6)))
    np.testing.assert_array_equal(G2, np.zeros((6, 6)))

    zero = NetworkState(W1=np.zeros((6, 6)), W2=np.zeros((6, 6)))
    G1, G2 = population_gradient(zero, post, family.basis)
    np.testing.assert_array_equal(G1, np.zeros((6, 6)))
    np.testing.assert_array_equal(G2, np.zeros((6, 6)))


def test_ridge_requires_an_anchor():
    family = make_reference_family()
    state = init_scaled_identity(6, 5.0)
    with pytest.raises(ConfigError, match="anchor"):
        population_gradient(state, family.distribution("posttrain"), family.basis, ridge_lambda=0.1)


def test_zero_variance_coordinates_receive_no_gradient():
    family = make_reference_family()
    ft = family.distribution("finetune")
    rng = np.random.default_rng(21)
    state = NetworkState(W1=rng.standard_normal((6, 6)), W2=rng.standard_normal((6, 6)))
    _, G2 = population_gradient(state, ft, family.basis)
    # input-side gradient columns on dead coordinates are identically zero
    np.testing.assert_array_equal(G2[:, 4:], np.zeros((6, 2)))


# ------------------------------------------------------------------ steps


def test_gradient_step_scalar_arithmetic():
    basis, dist = scalar_problem(target=2.0)
    state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
    nxt, _ = train(state, dist, basis, TrainConfig(eta=0.01, max_steps=1))
    assert nxt.W1[0, 0] == 1.02
    assert nxt.W2[0, 0] == 1.02
    assert nxt.step == 1


def test_gradient_step_matches_derived_not_idealized_scalar_rule():
    # the product after one matrix step follows sigma (1 - eta g)^2, not the
    # cubic rule; both share fixed points but differ at finite step size
    basis, dist = scalar_problem(target=2.0)
    state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
    nxt, _ = train(state, dist, basis, TrainConfig(eta=0.01, max_steps=1))
    derived = derived_diag_step(1.0, 1.0, 2.0, 0.01)
    # the textbook cubic rule sigma - 2 eta sigma (sigma^2 - target^2)
    cubic = 1.0 - 2.0 * 0.01 * 1.0 * (1.0**2 - 2.0**2)
    assert nxt.theta[0, 0] == pytest.approx(derived, abs=1e-15)
    assert cubic == pytest.approx(1.06, abs=1e-12)
    assert abs(nxt.theta[0, 0] - cubic) > 1e-3


@pytest.mark.parametrize("basis_mode", ["identity", "random"])
@pytest.mark.parametrize("ridge_lambda", [0.0, 0.3])
def test_one_train_step_is_the_tested_gradient_bitwise(basis_mode, ridge_lambda):
    # train() and population_gradient share one update kernel, so the
    # finite-difference check of the gradient covers the step that trains.
    # The ridge anchors the start product, so its term is 2 lambda * 0 on
    # the first step and live on the second.
    family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
    rng = np.random.default_rng(11)
    state = NetworkState(W1=rng.normal(0, 0.5, (6, 6)), W2=rng.normal(0, 0.5, (6, 6)))
    anchor = state.theta if ridge_lambda > 0 else None
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    prev = state
    for steps in (1, 2):
        config = TrainConfig(eta=0.02, max_steps=steps, ridge_lambda=ridge_lambda)
        nxt, _ = train(state, dist, family.basis, config)
        G1, G2 = population_gradient(prev, dist, family.basis, ridge_lambda, anchor)
        np.testing.assert_array_equal(nxt.W1, prev.W1 - 0.02 * G1)
        np.testing.assert_array_equal(nxt.W2, prev.W2 - 0.02 * G2)
        assert nxt.step == steps
        prev = nxt


def allocating_gradients(state, dist, basis, ridge_lambda, anchor):
    """(dL/dW1, dL/dW2) by the allocating expressions of reference_train's update."""
    theta = state.W1 @ state.W2
    E = theta - target_matrix(dist, basis)
    v = dist.input_variances
    G = 2.0 * (E * v) if basis.is_identity else 2.0 * ((E @ basis.V) * v) @ basis.V.T
    if ridge_lambda > 0:
        G = G + 2.0 * ridge_lambda * (theta - anchor)
    return G @ state.W2.T, state.W1.T @ G


def assert_same_bits(got, want):
    # signed zeros included, which assert_array_equal would let pass
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@given(
    basis_mode=st.sampled_from(["identity", "random"]),
    ridge_lambda=st.sampled_from([0.0, 0.3]),
    stage=st.sampled_from(["pretrain", "posttrain", "finetune", "mixed"]),
    scale=st.sampled_from([1e-150, 0.5, 2.0, 1e100]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_population_gradient_is_bitwise_the_allocating_expressions(
    basis_mode, ridge_lambda, stage, scale, seed
):
    family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
    if stage == "mixed":
        dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    else:
        dist = family.distribution(stage)
    rng = np.random.default_rng(seed)
    W1, W2 = rng.normal(0, scale, (2, 6, 6))
    W1[rng.random((6, 6)) < 0.2] = 0.0
    state = NetworkState(W1=W1, W2=W2)
    anchor = rng.normal(0, 1.0, (6, 6)) if ridge_lambda > 0 else None
    with np.errstate(over="ignore", invalid="ignore"):
        want = allocating_gradients(state, dist, family.basis, ridge_lambda, anchor)
        got = population_gradient(state, dist, family.basis, ridge_lambda, anchor)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


def test_population_gradient_keeps_the_reference_rounding_in_the_subnormal_range():
    # the state of test_train_keeps_the_reference_rounding_in_the_subnormal_range
    basis = SpectralBasis.identity(1)
    dist = StageDistribution(
        label="faint",
        input_variances=np.array([1e-20]),
        target_spectrum=np.array([0.0]),
        cross_covariance=np.array([0.0]),
    )
    state = NetworkState(W1=np.array([[3.3e-300]]), W2=np.array([[1e10]]))
    for ridge_lambda, anchor in ((0.0, None), (0.3, np.array([[1e-300]]))):
        want = allocating_gradients(state, dist, basis, ridge_lambda, anchor)
        got = population_gradient(state, dist, basis, ridge_lambda, anchor)
        assert want[0][0, 0] != 0.0
        for g, w in zip(got, want):
            assert_same_bits(g, w)


def reference_train(state, dist, basis, config, probes, record_spectrum, factors=None):
    """train() as allocating numpy expressions, checking weights and loss after every step.

    A ridge anchors the start product.

    Each snapshot holds the step, the training loss, the aligned diagonal and
    off-diagonal norm (None without record_spectrum) and the loss on each
    distribution in probes, by name.  Returns the final factors, the
    snapshots and the stacked products at the snapshot steps.  A list passed
    as factors receives the bytes of the stacked factors at every step, the
    start state included.
    """
    A = target_matrix(dist, basis)
    v = dist.input_variances
    V = None if basis.is_identity else basis.V
    probe_mats = {name: (target_matrix(d, basis), d.input_variances) for name, d in probes.items()}

    def data_loss(E, weights):
        EV = E if V is None else E @ V
        return float(np.sum(EV * EV * weights))

    W1, W2 = state.W1.copy(), state.W2.copy()
    anchor = W1 @ W2
    snaps, products = [], []
    for step in range(config.max_steps + 1):
        if factors is not None:
            factors.append(np.stack((W1, W2)).tobytes())
        theta = W1 @ W2
        E = theta - A
        loss = data_loss(E, v)
        if not (math.isfinite(loss) and np.isfinite(W1).all() and np.isfinite(W2).all()):
            raise TrainingDiverged(state.step + step)
        if step % config.probe_every == 0 or step == config.max_steps:
            diag = offdiag = None
            if record_spectrum:
                M = theta if V is None else basis.U.T @ theta @ V
                diag = np.diag(M).copy()
                offdiag = float(np.linalg.norm(M - np.diag(diag)))
            losses = {name: data_loss(theta - pA, pv) for name, (pA, pv) in probe_mats.items()}
            snaps.append((step, loss, diag, offdiag, losses))
            products.append(theta)
        if step == config.max_steps:
            break
        G = 2.0 * (E * v) if V is None else 2.0 * ((E @ V) * v) @ V.T
        if config.ridge_lambda > 0:
            G = G + 2.0 * config.ridge_lambda * (theta - anchor)
        W1, W2 = W1 - config.eta * (G @ W2.T), W2 - config.eta * (W1.T @ G)
    return W1, W2, snaps, np.stack(products)


@given(
    basis_mode=st.sampled_from(["identity", "random"]),
    ridge_lambda=st.sampled_from([0.0, 0.3]),
    with_probe=st.booleans(),
    probe_every=st.sampled_from([1, 7, 50]),
    record_spectrum=st.booleans(),
    scale=st.sampled_from([0.5, 2.0]),
    max_steps=st.integers(0, 120),
    start=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_train_is_bitwise_the_allocating_reference_loop(
    basis_mode, ridge_lambda, with_probe, probe_every, record_spectrum, scale, max_steps, start, seed
):
    # scale 2.0 with the larger step sizes diverges, which covers the replay
    family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
    rng = np.random.default_rng(seed)
    state = NetworkState(
        W1=rng.normal(0, scale, (6, 6)), W2=rng.normal(0, scale, (6, 6)), step=start
    )
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    config = TrainConfig(
        eta=float(rng.uniform(0.005, 0.1 / (ridge_lambda + 2.0))),
        max_steps=max_steps,
        ridge_lambda=ridge_lambda,
        probe_every=probe_every,
    )
    probes = {"finetune": family.distribution("finetune")} if with_probe else {}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_train(state, dist, family.basis, config, probes, record_spectrum)
    except TrainingDiverged as exc:
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, family.basis, config, record_spectrum)
        assert err.value.step == exc.step
        return
    final, traj = train(state, dist, family.basis, config, record_spectrum)
    assert_same_bits(final.W1, want[0])
    assert_same_bits(final.W2, want[1])
    assert_same_bits(traj.thetas, want[3])
    assert final.step == start + max_steps
    assert len(traj.snapshots) == len(want[2])
    assert traj.steps.tolist() == [step for step, *_ in want[2]]
    assert traj.train_losses.tolist() == [loss for _, loss, *_ in want[2]]
    for name, probe in probes.items():
        assert traj.losses(probe).tolist() == [losses[name] for *_, losses in want[2]]
    if record_spectrum:
        np.testing.assert_array_equal(traj.diagonals(), np.stack([d for _, _, d, _, _ in want[2]]))
        assert traj.offdiags().tolist() == [offdiag for _, _, _, offdiag, _ in want[2]]
    else:
        for column in (traj.diagonals, traj.offdiags):
            with pytest.raises(StagelabError, match="without aligned spectra"):
                column()


def test_train_keeps_the_reference_rounding_in_the_subnormal_range():
    # E * v is subnormal here, where 2.0 * (E * v) and E * (2.0 * v) round
    # differently; the factor w2 = 1e10 carries the difference into W1
    basis = SpectralBasis.identity(1)
    dist = StageDistribution(
        label="faint",
        input_variances=np.array([1e-20]),
        target_spectrum=np.array([0.0]),
        cross_covariance=np.array([0.0]),
    )
    state = NetworkState(W1=np.array([[3.3e-300]]), W2=np.array([[1e10]]))
    E, v = state.theta, dist.input_variances
    assert (2.0 * (E * v))[0, 0] != (E * (2.0 * v))[0, 0]
    config = TrainConfig(eta=0.01, max_steps=1)
    want_W1, want_W2, *_ = reference_train(state, dist, basis, config, {}, False)
    final, _ = train(state, dist, basis, config, record_spectrum=False)
    assert_same_bits(final.W1, want_W1)
    assert_same_bits(final.W2, want_W2)


def assert_train_is_the_reference_bitwise(state, dist, basis, config):
    """train() against reference_train: final factors, every recorded product, or the divergence step."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want_W1, want_W2, _, want_thetas = reference_train(state, dist, basis, config, {}, False)
    except TrainingDiverged as exc:
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, basis, config)
        assert err.value.step == exc.step
        return
    final, traj = train(state, dist, basis, config)
    assert_same_bits(final.W1, want_W1)
    assert_same_bits(final.W2, want_W2)
    assert_same_bits(traj.thetas, want_thetas)


def diagonal_problem(d1, d2, variances, targets):
    """An identity-basis problem whose start factors are diag(d1) and diag(d2)."""
    n = len(d1)
    dist = StageDistribution(
        label="diagonal",
        input_variances=np.array(variances),
        target_spectrum=np.array(targets),
        cross_covariance=np.array(variances) * np.array(targets),
    )
    return NetworkState(W1=np.diag(d1), W2=np.diag(d2)), dist, SpectralBasis.identity(n)


# factor entries: signed zeros, subnormals, ordinary values of both signs,
# products that underflow, magnitudes that diverge, and non-finite starts
diagonal_entries = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, -2e-310, 1e-200, -1e-200, 1e150, -1e200, math.nan, math.inf, -math.inf]
    ),
    st.floats(min_value=-4.0, max_value=4.0),
)


@st.composite
def diagonal_problems(draw):
    n = draw(st.integers(1, 7))
    d1, d2 = (draw(st.lists(diagonal_entries, min_size=n, max_size=n)) for _ in range(2))
    # a drawn subset of coordinates starts balanced, the same float in both
    # factors; when that is every coordinate, the state takes the diagonal kernel
    for i in draw(st.sets(st.integers(0, n - 1))):
        d2[i] = d1[i]
    variances = draw(
        st.lists(st.one_of(st.sampled_from([-0.0, 5e-324]), st.floats(0.0, 1.0)), min_size=n, max_size=n)
    )
    targets = draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n))
    return diagonal_problem(d1, d2, variances, targets)


@given(
    problem=diagonal_problems(),
    ridge_lambda=st.sampled_from([0.0, 0.3]),
    probe_every=st.sampled_from([1, 7, 50]),
    max_steps=st.integers(0, 120),
    eta=st.floats(1e-3, 0.05),
)
@settings(max_examples=200, deadline=None)
def test_diagonal_identity_basis_states_train_bitwise_as_the_reference_loop(
    problem, ridge_lambda, probe_every, max_steps, eta
):
    # a state whose factors hold the same bits takes the per-coordinate
    # kernel, and every other state the matrix kernel
    state, dist, basis = problem
    config = TrainConfig(eta=eta, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
    with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
        assert_train_is_the_reference_bitwise(state, dist, basis, config)
    assert built.called == (state.W1.tobytes() == state.W2.tobytes())


@pytest.mark.parametrize("ridge_lambda", [0.0, 0.3])
def test_a_zero_factor_times_a_negative_one_is_a_plus_zero_product(ridge_lambda):
    # 0.0 * -3.0 is -0.0, but the matmul entry adds +0.0 terms and is +0.0;
    # with a zero target the sign reaches the gradients and the factors too
    assert math.copysign(1.0, 0.0 * -3.0) == -1.0
    for n in (1, 2, 5):
        for i in range(n):
            d1, d2 = [0.5] * n, [0.7] * n
            d1[i], d2[i] = 0.0, -3.0
            targets = [1.0] * n
            targets[i] = 0.0
            state, dist, basis = diagonal_problem(d1, d2, [1.0] * n, targets)
            config = TrainConfig(eta=0.02, max_steps=5, ridge_lambda=ridge_lambda, probe_every=1)
            assert_train_is_the_reference_bitwise(state, dist, basis, config)
            _, traj = train(state, dist, basis, config)
            assert not np.signbit(traj.thetas).any()
            for W1 in (np.diag(d1), -np.diag(d1)):  # +0.0 and -0.0 on the diagonal
                assert_train_is_the_reference_bitwise(NetworkState(W1=W1, W2=state.W2), dist, basis, config)


def test_an_unbalanced_diagonal_state_trains_bitwise_as_the_reference_loop_on_the_matrix_kernel():
    # -1e-200 * 1e-200 rounds to -0.0; matmul's entry is -0.0 or +0.0
    # depending on where the BLAS kernel adds it, and the matrix kernel,
    # which unequal factors take, has the reference loop's bits
    for n in (1, 2, 6):
        for i in (0, n - 1):
            d1, d2 = [0.5] * n, [0.5] * n
            d1[i], d2[i] = -1e-200, 1e-200
            state, dist, basis = diagonal_problem(d1, d2, [1.0] * n, [0.0] * n)
            config = TrainConfig(eta=0.02, max_steps=3, probe_every=1)
            with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
                assert_train_is_the_reference_bitwise(state, dist, basis, config)
            assert not built.called


@pytest.mark.parametrize(
    "where, value", [(("W1", 0, 1), -0.0), (("W2", 2, 1), 1e-3), (("W1", 3, 0), -5e-324)]
)
def test_an_identity_basis_state_with_an_off_diagonal_entry_takes_the_matrix_kernel(where, value):
    family = make_reference_family()
    factors = {"W1": np.diag([0.5, -0.25, 1.0, 0.0]), "W2": np.diag([0.5, 2.0, -0.0, 0.75])}
    name, row, col = where
    factors[name][row, col] = value
    state = NetworkState(**factors)
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    dist = StageDistribution(
        label="head",
        input_variances=dist.input_variances[:4],
        target_spectrum=dist.target_spectrum[:4],
        cross_covariance=dist.cross_covariance[:4],
    )
    for ridge_lambda in (0.0, 0.3):
        config = TrainConfig(eta=0.02, max_steps=60, ridge_lambda=ridge_lambda, probe_every=7)
        with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
            assert_train_is_the_reference_bitwise(state, dist, SpectralBasis.identity(4), config)
        assert not built.called


def copied_off_diagonals_are_zero(M):
    """The reference for network._off_diagonals_are_zero: zero a copy's diagonals, then read its bits."""
    n = M.shape[-1]
    rest = M.copy()
    rest[..., range(n), range(n)] = 0.0
    return not rest.view(np.int64).any()


bit_entries = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])


@st.composite
def diagonal_stacks(draw):
    """1-3 square blocks of size 1-7, diagonal but for up to three entries drawn anywhere."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    M = np.zeros((m, n, n))
    for block in M:
        block[range(n), range(n)] = draw(st.lists(bit_entries, min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        M[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(bit_entries)
    return M


@given(diagonal_stacks())
@settings(max_examples=500, deadline=None)
def test_the_off_diagonal_view_reads_the_bits_a_copy_does(M):
    # n = 1 has no off-diagonals; -0.0 and 5e-324 off the diagonal are not +0.0
    assert network._off_diagonals_are_zero(M) == copied_off_diagonals_are_zero(M)


def test_a_1x1_product_in_another_basis_sums_from_plus_zero():
    # the matrix kernel's 1x1 products are np.matmul's, +0.0 for 0.0 * -3.0,
    # where np.dot would give the plain product -0.0
    basis = SpectralBasis(U=np.array([[-1.0]]), V=np.array([[-1.0]]))
    assert not basis.is_identity
    assert math.copysign(1.0, np.dot(np.array([[0.0]]), np.array([[-3.0]]))[0, 0]) == -1.0
    for target in (0.0, 2.0):
        _, dist = scalar_problem(target)
        for ridge_lambda in (0.0, 0.3):
            state = NetworkState(W1=np.array([[0.0]]), W2=np.array([[-3.0]]))
            config = TrainConfig(eta=0.02, max_steps=4, ridge_lambda=ridge_lambda, probe_every=1)
            assert_train_is_the_reference_bitwise(state, dist, basis, config)
            _, traj = train(state, dist, basis, config)
            assert not np.signbit(traj.thetas[0]).any()


@pytest.mark.parametrize("basis_mode", ["identity", "random"])
def test_weight_checks_of_any_block_size_leave_every_bit(basis_mode, monkeypatch):
    # blocks of 1, 5 and 16 steps cut the snapshot rows at every offset; the
    # hot state diverges at step 7, which a block check or the last check
    # must still report as the reference loop does
    family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    calm = init_scaled_identity(6, 1.0, family.basis)
    hot = init_from_spectrum(family.basis, np.full(6, 25.0))
    with pytest.raises(TrainingDiverged) as err, np.errstate(over="ignore", invalid="ignore"):
        reference_train(hot, dist, family.basis, TrainConfig(eta=0.05, max_steps=50), {}, False)
    assert err.value.step == 7
    for block in (1, 5, 16):
        monkeypatch.setattr(network, "FINITE_CHECK_EVERY", block)
        for state, eta in ((calm, 0.02), (hot, 0.05)):
            for probe_every, max_steps in itertools.product((1, 3, 16, 50), (0, 1, 5, 16, 53)):
                config = TrainConfig(eta=eta, max_steps=max_steps, ridge_lambda=0.3, probe_every=probe_every)
                assert_train_is_the_reference_bitwise(state, dist, family.basis, config)


def test_a_fixed_point_is_a_bit_pattern_not_a_value():
    # from W1 = -0.0, W2 = 5e-324 the step gives w1 = -0.0 - eta * g1 with
    # eta * g1 = -0.0, that is +0.0, which == takes for -0.0; stopping there
    # would leave the final W1 at -0.0, where every later step keeps +0.0.
    # The factors differ, so the run takes the matrix kernel.
    assert math.copysign(1.0, -0.0 - 0.02 * (-2.0 * 5e-324)) == 1.0
    for n, i in ((1, 0), (3, 1)):
        d1, d2 = [0.5] * n, [0.7] * n
        d1[i], d2[i] = -0.0, 5e-324
        state, dist, basis = diagonal_problem(d1, d2, [1.0] * n, [1.0] * n)
        for max_steps, probe_every in ((1, 1), (3, 1), (40, 7)):
            config = TrainConfig(eta=0.02, max_steps=max_steps, probe_every=probe_every)
            with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
                assert_train_is_the_reference_bitwise(state, dist, basis, config)
            assert not built.called
            final, _ = train(state, dist, basis, config)
            assert not np.signbit(final.W1[i, i])


@pytest.mark.parametrize("ridge_lambda", [0.0, 0.3])
def test_a_balanced_start_trained_past_its_fixed_points_keeps_equal_factors(ridge_lambda):
    # every coordinate starts with the same float in both factors, signed
    # zeros included, and the one-float loop writes one float back to both;
    # -0.0 at target 0 has g = +0.0, where g * w is -0.0 and the matmul entry +0.0
    d = [0.5, -0.25, 1.0, -0.0, 0.0, 1.7]
    targets = [2.0, 0.3, 1.0, 0.0, 1.0, 2.9]
    state, dist, basis = diagonal_problem(d, d, [1.0, 0.5, 1.0, 1.0, 1.0, 0.25], targets)
    config = TrainConfig(eta=0.05, max_steps=20_000, ridge_lambda=ridge_lambda, probe_every=1_000)
    with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
        assert_train_is_the_reference_bitwise(state, dist, basis, config)
    assert built.call_count == 1
    final, traj = train(state, dist, basis, config)
    assert traj.products.ndim == 2  # the run took the diagonal kernel
    assert final.W1.tobytes() == final.W2.tobytes()
    if not ridge_lambda:  # with a ridge, a new start product would move the anchor
        again, _ = train(final, dist, basis, TrainConfig(eta=0.05, max_steps=1))
        assert again.W1.tobytes() == again.W2.tobytes() == final.W1.tobytes()


@pytest.mark.parametrize("ridge_lambda", [0.0, 0.3])
def test_balanced_coordinates_whose_products_underflow_stay_on_the_diagonal_kernel(ridge_lambda):
    # w * w is never -0.0, so a square that underflows is +0.0 in the matmul
    # entry too; g * w underflows in the last coordinate, where any signed
    # zero leaves u = w - eta * g1 at w.
    d = [1e-200, -1e-200, 5e-324, -5e-324, 0.5, 0.01]
    state, dist, basis = diagonal_problem(d, d, [1.0] * 5 + [5e-324], [1.0, 0.0, 2.0, 1.0, 1.0, 4.0])
    assert 0.01 * (2.0 * ((0.01 * 0.01 - 4.0) * 5e-324)) == 0.0
    for max_steps, probe_every in ((1, 1), (3, 1), (40, 7), (2_000, 50)):
        config = TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
        assert_train_is_the_reference_bitwise(state, dist, basis, config)
        final, traj = train(state, dist, basis, config)
        assert traj.products.ndim == 2
        assert final.W1.tobytes() == final.W2.tobytes()


@pytest.mark.parametrize(
    "w1, w2",
    [
        (0.7, math.nextafter(0.7, math.inf)),
        (-1e-3, math.nextafter(-1e-3, -math.inf)),
        (1e-150, math.nextafter(1e-150, math.inf)),
        (0.0, -0.0),
        (-0.0, 0.0),
    ],
)
@pytest.mark.parametrize("ridge_lambda", [0.0, 0.3])
def test_a_coordinate_one_ulp_from_balanced_trains_as_the_reference_loop(w1, w2, ridge_lambda):
    # equal values of opposite sign, or factors one ulp apart, in one
    # coordinate beside balanced ones send the whole run to the matrix kernel
    n = 4
    for i in (0, n - 1):
        d1, d2 = [0.5, -1.5, 0.25, 1.0], [0.5, -1.5, 0.25, 1.0]
        d1[i], d2[i] = w1, w2
        state, dist, basis = diagonal_problem(d1, d2, [1.0, 0.5, 1.0, 0.25], [1.0, 2.0, 0.0, 3.0])
        config = TrainConfig(eta=0.02, max_steps=3_000, ridge_lambda=ridge_lambda, probe_every=7)
        with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
            assert_train_is_the_reference_bitwise(state, dist, basis, config)
        assert not built.called


@st.composite
def converging_diagonal_problems(draw):
    """Diagonal problems whose coordinates reach a bitwise fixed point within a few thousand steps.

    Each coordinate starts near its target, balanced or not, at the zero
    saddle, or with a zero variance, which leaves it fixed from the start.
    """
    n = draw(st.integers(1, 4))
    d1, d2, variances, targets = [], [], [], []
    for _ in range(n):
        target = draw(st.floats(0.25, 4.0))
        variance = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.25, 1.0)))
        start = draw(st.sampled_from(["balanced", "unbalanced", "saddle"]))
        root = math.sqrt(target)
        if start == "saddle":
            w1 = w2 = 0.0
        else:
            w1 = root * (1.0 + draw(st.floats(-0.2, 0.2)))
            w2 = w1 if start == "balanced" else target / w1 * (1.0 + draw(st.floats(-0.05, 0.05)))
        d1.append(w1)
        d2.append(w2)
        variances.append(variance)
        targets.append(target)
    return diagonal_problem(d1, d2, variances, targets)


@given(
    problem=converging_diagonal_problems(),
    ridge_lambda=st.sampled_from([0.0, 0.3]),
    probe_every=st.sampled_from([1, 7, 50, 333]),
    block=st.sampled_from([5, 64, 4096]),
    max_steps=st.integers(0, 3000),
    eta=st.floats(0.005, 0.05),
)
@settings(max_examples=60, deadline=None)
def test_coordinates_at_a_fixed_point_fill_their_rows_bitwise_as_the_reference_loop(
    problem, ridge_lambda, probe_every, block, max_steps, eta
):
    # coordinates reach their fixed points mid-row and mid-block, and later
    # calls of the kernel only fill their rows
    state, dist, basis = problem
    config = TrainConfig(eta=eta, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
    with mock.patch.object(network, "FINITE_CHECK_EVERY", block):
        assert_train_is_the_reference_bitwise(state, dist, basis, config)


def first_orbit(factors):
    """(step, period) of the first step whose factors repeat an earlier step's bytes, or None."""
    seen = {}
    for step, key in enumerate(factors):
        if key in seen:
            return step, step - seen[key]
        seen[key] = step
    return None


def counting_steps(calls):
    """A stand-in for network._gradient_kernel whose closures append to calls when they step."""
    build = network._gradient_kernel

    def counting(*args):
        gradients = build(*args)

        def counted():
            calls.append(None)
            gradients()

        return counted

    return counting


def test_dense_orbits_fill_their_rows_bitwise_as_the_reference_loop():
    # random-basis trainings from the small init end in exact orbits, and
    # their periods depend on the last bits of the CPU's arithmetic, so the
    # cases are found from the reference loop's factors, not pinned by seed.
    # Orbits are entered mid-row and mid-block, and each row after that is
    # filled from its phase.
    max_steps = 1_500
    periods = []
    for seed, stage, ridge_lambda in itertools.product(range(4), ("pretrain", "posttrain"), (0.0, 0.1)):
        family = make_reference_family(basis_mode="random", basis_seed=seed)
        state, dist = init_scaled_identity(6, 12.0, family.basis), family.distribution(stage)
        config = TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=1)
        factors = []
        want_W1, want_W2, _, want_thetas = reference_train(state, dist, family.basis, config, {}, False, factors)
        orbit = first_orbit(factors)
        if orbit is None:
            continue
        for probe_every, block in itertools.product((1, 7, 50), (5, 64, 4096)):
            config = TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
            calls = []
            with mock.patch.object(network, "FINITE_CHECK_EVERY", block), \
                    mock.patch.object(network, "_gradient_kernel", counting_steps(calls)):
                final, traj = train(state, dist, family.basis, config)
            assert_same_bits(final.W1, want_W1)
            assert_same_bits(final.W2, want_W2)
            assert_same_bits(traj.thetas, want_thetas[traj.steps])
        periods.append((orbit[1], len(calls)))
    # the orbits of period > 1 are the ones whose rows take more than one product
    assert any(period > 1 and stepped < max_steps for period, stepped in periods), periods


def test_a_diverging_dense_run_whose_nan_state_repeats_raises_at_the_reference_step():
    # the hot state of test_weight_checks_of_any_block_size_leave_every_bit
    # turns non-finite at step 7, and from step 9 every step returns the same
    # nan bits; a repeated mark that is not finite is no orbit, and the run
    # still raises at the step the reference loop names
    family = make_reference_family(basis_mode="random", basis_seed=3)
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    hot = init_from_spectrum(family.basis, np.full(6, 25.0))
    with pytest.raises(TrainingDiverged) as err, np.errstate(over="ignore", invalid="ignore"):
        reference_train(hot, dist, family.basis, TrainConfig(eta=0.05, max_steps=50), {}, False)
    assert err.value.step == 7
    state, nan_bits = hot, []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(12):
            G1, G2 = population_gradient(state, dist, family.basis)
            state = NetworkState(W1=state.W1 - 0.05 * G1, W2=state.W2 - 0.05 * G2)
            nan_bits.append(np.stack((state.W1, state.W2)).tobytes())
    assert np.isnan(state.W1).all() and nan_bits[-1] == nan_bits[-2] == nan_bits[-3]
    for probe_every, block in itertools.product((1, 7, 50), (5, 64, 4096)):
        config = TrainConfig(eta=0.05, max_steps=10_000, probe_every=probe_every)
        with mock.patch.object(network, "FINITE_CHECK_EVERY", block), pytest.raises(TrainingDiverged) as err:
            train(hot, dist, family.basis, config)
        assert err.value.step == 7


def test_the_reference_init_takes_the_diagonal_kernel():
    family = make_reference_family()
    config = TrainConfig(eta=0.02, max_steps=300, ridge_lambda=0.1, probe_every=50)
    with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
        assert_train_is_the_reference_bitwise(
            init_scaled_identity(6, 12.0), family.distribution("pretrain"), family.basis, config
        )
    assert built.call_count == 1


def assert_columns_are_the_reference_bitwise(traj, want_snaps, want_thetas, probes):
    """A trajectory's products, losses and spectra against reference_train's, by bit pattern."""
    assert_same_bits(traj.thetas, want_thetas)
    assert_same_bits(traj.train_losses, np.array([loss for _, loss, *_ in want_snaps]))
    for name, probe in probes.items():
        assert_same_bits(traj.losses(probe), np.array([losses[name] for *_, losses in want_snaps]))
    assert_same_bits(traj.diagonals(), np.stack([diag for _, _, diag, _, _ in want_snaps]))
    assert_same_bits(traj.offdiags(), np.array([offdiag for _, _, _, offdiag, _ in want_snaps]))


@pytest.mark.parametrize("ridge_lambda", [0.0, 0.1])
def test_a_diagonal_trajectory_derives_every_column_bitwise_as_the_reference_loop(ridge_lambda):
    # the reference init stores its products as diagonals, and thetas, the
    # losses on all three stage distributions and the spectra match the
    # reference loop's products, +0.0 off the diagonal, bit for bit
    family = make_reference_family()
    probes = {stage: family.distribution(stage) for stage in ("pretrain", "posttrain", "finetune")}
    for stage, probe_every, max_steps in (("pretrain", 1, 300), ("posttrain", 7, 1000), ("finetune", 50, 123)):
        config = TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
        state, dist = init_scaled_identity(6, 12.0), probes[stage]
        _, _, want_snaps, want_thetas = reference_train(state, dist, family.basis, config, probes, True)
        _, traj = train(state, dist, family.basis, config)
        assert traj.products.shape == (len(want_snaps), 6)
        assert not traj.thetas.flags.writeable and not traj.diagonals().flags.writeable
        assert_columns_are_the_reference_bitwise(traj, want_snaps, want_thetas, probes)
        _, blind = train(state, dist, family.basis, config, record_spectrum=False)
        assert_same_bits(blind.products, traj.products)
        for column in (blind.diagonals, blind.offdiags):
            with pytest.raises(StagelabError, match="without aligned spectra"):
                column()


def test_an_unbalanced_diagonal_run_records_the_whole_products():
    # unequal factors take the matrix kernel, which stores (num_snapshots, n, n)
    # products, and its columns are those of the reference loop
    for n, probe_every in ((1, 1), (2, 2), (6, 1)):
        d1, d2 = [0.5] * n, [0.5] * n
        d1[-1], d2[-1] = -1e-200, 1e-200
        state, dist, basis = diagonal_problem(d1, d2, [1.0] * n, [0.0] * n)
        config = TrainConfig(eta=0.02, max_steps=5, probe_every=probe_every)
        _, _, want_snaps, want_thetas = reference_train(state, dist, basis, config, {"dist": dist}, True)
        with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
            _, traj = train(state, dist, basis, config)
        assert not built.called
        assert traj.products.shape == (len(want_snaps), n, n)
        assert_columns_are_the_reference_bitwise(traj, want_snaps, want_thetas, {"dist": dist})


def test_a_diverging_diagonal_run_replays_to_the_reference_step_with_its_ridge():
    # the replay runs the matrix kernel, whose ridge anchors the start
    # product, not the first row of a diagonal run's products
    family = make_reference_family()
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    hot = init_from_spectrum(family.basis, np.full(6, 25.0))
    config = TrainConfig(eta=0.05, max_steps=50, ridge_lambda=0.3, probe_every=1)
    with pytest.raises(TrainingDiverged) as err, np.errstate(over="ignore", invalid="ignore"):
        reference_train(hot, dist, family.basis, config, {}, False)
    assert err.value.step == 7
    for block in (1, 5, 16, 4096):
        with mock.patch.object(network, "FINITE_CHECK_EVERY", block), \
                mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built, \
                pytest.raises(TrainingDiverged) as err:
            train(hot, dist, family.basis, config)
        assert built.called
        assert err.value.step == 7


def test_scalar_rules_share_fixed_points():
    assert derived_diag_step(2.0, 1.0, 2.0, 0.01) == 2.0
    assert derived_diag_step(0.0, 1.0, 2.0, 0.01) == 0.0


def test_scalar_fixed_point_limits():
    assert scalar_fixed_point(variance=1.0, target=2.0, eta=0.01, init=1.0) == pytest.approx(
        2.0, abs=1e-10
    )
    assert scalar_fixed_point(variance=1.0, target=2.0, eta=0.01, init=0.0) == 0.0
    # ridge pulls the limit toward the anchor: (v t + lambda a) / (v + lambda)
    got = scalar_fixed_point(
        variance=1.0, target=2.0, eta=0.01, ridge_lambda=0.5, anchor=1.0, init=1.0
    )
    assert got == pytest.approx((1.0 * 2.0 + 0.5 * 1.0) / 1.5, abs=1e-10)


def test_saddle_persistence_is_bitwise():
    family = make_reference_family()
    post = family.distribution("posttrain")
    # specialized coordinates start at exactly zero in both factors
    state = init_from_spectrum(family.basis, np.array([5.0, 4.0, 1.0, 0.8, 0.0, 0.0]))
    config = TrainConfig(eta=0.02, max_steps=1)
    for _ in range(200):
        state, _ = train(state, post, family.basis, config, record_spectrum=False)
    assert np.all(state.W1[:, 4:] == 0.0)
    assert np.all(state.W1[4:, :] == 0.0)
    assert np.all(state.W2[:, 4:] == 0.0)
    assert np.all(state.W2[4:, :] == 0.0)
    assert np.all(state.theta[4:, 4:] == 0.0)


def test_frozen_coordinates_stay_bitwise_constant_under_finetuning():
    family = make_reference_family()
    ft = family.distribution("finetune")
    state = init_from_spectrum(family.basis, np.array([5.0, 4.0, 3.5, 3.3, 0.9, 0.9]))
    before, _ = aligned_spectrum(state, family.basis)
    frozen_w1 = state.W1[4:, 4:].copy()
    config = TrainConfig(eta=0.02, max_steps=1)
    for _ in range(500):
        state, _ = train(state, ft, family.basis, config, record_spectrum=False)
    diag, _ = aligned_spectrum(state, family.basis)
    assert diag[4] == before[4] and diag[5] == before[5]
    assert diag[4] == pytest.approx(0.9, abs=1e-12)
    np.testing.assert_array_equal(state.W1[4:, 4:], frozen_w1)


def test_stochastic_large_batch_approaches_the_population_gradient():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    state = init_scaled_identity(6, 5.0)
    exact1, exact2 = population_gradient(state, pre, family.basis)
    A = target_matrix(pre, family.basis)

    replicas1, replicas2 = [], []
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        W1, W2 = stochastic_step(
            state.W1, state.W2, A, pre.input_variances, family.basis.V, 0.01, rng, 100_000
        )
        replicas1.append((state.W1 - W1) / 0.01)
        replicas2.append((state.W2 - W2) / 0.01)
    for exact, replicas in ((exact1, replicas1), (exact2, replicas2)):
        stack = np.stack(replicas)
        se = stack.std(axis=0, ddof=1) / math.sqrt(len(replicas))
        dev = np.abs(stack.mean(axis=0) - exact)
        assert np.all(dev <= 5 * np.maximum(se, 1e-12))


def test_stochastic_step_is_deterministic_in_the_seed():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    state = init_scaled_identity(6, 5.0)
    A = target_matrix(pre, family.basis)
    args = (state.W1, state.W2, A, pre.input_variances, family.basis.V, 0.01)
    a = stochastic_step(*args, np.random.default_rng(5), 1)
    b = stochastic_step(*args, np.random.default_rng(5), 1)
    np.testing.assert_array_equal(a, b)
    c = stochastic_step(*args, np.random.default_rng(6), 1)
    assert np.any(a[0] != c[0])


def test_stochastic_step_leaves_the_zero_saddle_in_place():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    zero = np.zeros((6, 6))
    W1, W2 = stochastic_step(
        zero,
        zero,
        target_matrix(pre, family.basis),
        pre.input_variances,
        family.basis.V,
        0.01,
        np.random.default_rng(0),
        32,
        hidden_dropout=0.5,
    )
    np.testing.assert_array_equal(W1, zero)
    np.testing.assert_array_equal(W2, zero)


# --------------------------------------------------------------------- train


def test_train_zero_steps_returns_only_the_initial_snapshot():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    final, traj = train(
        init, family.distribution("pretrain"), family.basis, TrainConfig(eta=0.02, max_steps=0)
    )
    assert final.step == 0
    assert list(traj.steps) == [0]
    np.testing.assert_array_equal(final.W1, init.W1)


def test_unmixed_pretraining_reaches_the_pretrain_targets():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    init = init_scaled_identity(6, 12.0)
    config = TrainConfig(eta=0.05, max_steps=40_000, probe_every=40_000)
    final, _ = train(init, pre, family.basis, config)
    assert population_loss(final, pre, family.basis) <= 1e-4
    diag, _ = aligned_spectrum(final, family.basis)
    assert np.max(np.abs(diag[4:])) <= 1e-5


def test_trajectory_stays_diagonal_in_the_aligned_frame():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    config = TrainConfig(eta=0.02, max_steps=3000, probe_every=50)
    _, traj = train(init, family.distribution("pretrain"), family.basis, config, record_spectrum=True)
    assert np.max(traj.offdiags()) <= 1e-8


def test_matrix_dynamics_match_the_derived_scalar_recursion():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    init = init_from_spectrum(family.basis, np.full(6, math.exp(-10.0)))
    config = TrainConfig(eta=0.02, max_steps=2000, probe_every=1)
    _, traj = train(init, pre, family.basis, config, record_spectrum=True)
    oracle = scalar_trajectory(
        np.full(6, math.exp(-10.0)), pre.input_variances, pre.target_spectrum, 0.02, 2000
    )
    assert np.max(np.abs(traj.diagonals() - oracle)) <= 1e-8


def test_monotone_descent_without_ridge():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    for dist, eta in (
        (family.distribution("pretrain"), 0.02),
        (family.distribution("posttrain"), 0.02),
        (mix_distributions(family.distribution("pretrain"), family.distribution("posttrain"), 0.5), 0.05),
    ):
        _, traj = train(init, dist, family.basis, TrainConfig(eta=eta, max_steps=3000, probe_every=10))
        losses = traj.train_losses
        assert np.all(np.diff(losses) <= 1e-12 * np.maximum(losses[:-1], 1.0))


def test_snapshot_cadence_includes_first_and_final_step():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    _, traj = train(
        init, family.distribution("pretrain"), family.basis,
        TrainConfig(eta=0.02, max_steps=123, probe_every=50),
    )
    assert list(traj.steps) == [0, 50, 100, 123]


def test_probe_losses_are_recorded_per_distribution():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    pre, ft = family.distribution("pretrain"), family.distribution("finetune")
    final, traj = train(init, pre, family.basis, TrainConfig(eta=0.02, max_steps=100, probe_every=50))
    pre_losses = traj.losses(pre)
    assert pre_losses.shape == (3,)
    assert pre_losses[-1] == population_loss(final, pre, family.basis)
    np.testing.assert_array_equal(pre_losses, traj.train_losses)
    ft_losses = traj.losses(ft)
    assert ft_losses.shape == (3,)
    assert ft_losses[-1] == population_loss(final, ft, family.basis)
    assert ft_losses[0] != pre_losses[0]


def test_a_trajectory_holds_one_array_of_products():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    config = TrainConfig(eta=0.05, max_steps=40_000, probe_every=1)
    tracemalloc.start()
    try:
        _, traj = train(init, family.distribution("pretrain"), family.basis, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a diagonal run stores only the products' diagonals, 40,001 * 6 doubles
    # = 1.9 MB, where the whole products would be 11.5 MB
    assert traj.products.shape == (40_001, 6)
    assert traj.thetas.shape == (40_001, 6, 6)
    assert peak <= 2.5e6
    diags = traj.diagonals()
    for i in range(6):
        np.testing.assert_array_equal(diags[:, i], traj.thetas[:, i, i])
    assert len(traj.snapshots) == 40_001
    assert traj.steps[-1] == 40_000


def scalar_divergence_step(target: float, eta: float) -> int:
    """train()'s stop rule for scalar_problem in Python floats, which are the same doubles.

    The run stops at the first step whose weights or loss are not finite.
    """
    w1 = w2 = 1.0
    step = 0
    while True:
        e = w1 * w2 - target
        if not (math.isfinite(w1) and math.isfinite(w2) and math.isfinite(e * e)):
            return step
        g = 2.0 * e
        w1, w2 = w1 - eta * (g * w2), w2 - eta * (w1 * g)
        step += 1


def test_divergence_raises_with_the_offending_step():
    basis, dist = scalar_problem(target=50.0)
    # budget check passes with its fixed norm bound, but the actual teacher value
    # is far above it, so the iteration blows up.  The loss overflows at step 7
    # and the weights at step 9; the step reported is the first, whatever the
    # snapshot cadence.
    assert scalar_divergence_step(50.0, 0.06) == 7
    for probe_every in (1, 5, 50):
        config = TrainConfig(eta=0.06, max_steps=1000, probe_every=probe_every)
        for start in (0, 5):
            state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]), step=start)
            with pytest.raises(TrainingDiverged) as err:
                train(state, dist, basis, config)
            assert err.value.step == start + 7


def test_divergence_is_found_by_the_end_of_run_check():
    # the run stops at the first check that finds non-finite weights, here
    # the one after FINITE_CHECK_EVERY steps, then replays from the start
    # state to name the first non-finite step; a run shorter than a block
    # is caught by the check after its last step, as in the test above
    basis, dist = scalar_problem(target=50.0)
    for probe_every in (1, 100_000):
        config = TrainConfig(eta=0.06, max_steps=100_000, probe_every=probe_every)
        state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, basis, config)
        assert err.value.step == 7


def test_a_diverging_run_stops_within_a_block_of_steps():
    # without the block check this run trains all 10,000,000 steps (about
    # 150 s on a 2-core x86_64 machine) before its replay finds step 7
    basis, dist = scalar_problem(target=50.0)
    assert network.FINITE_CHECK_EVERY < 10_000_000
    for probe_every in (1, 10_000_000):
        config = TrainConfig(eta=0.06, max_steps=10_000_000, probe_every=probe_every)
        state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
        began = time.perf_counter()
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, basis, config)
        assert time.perf_counter() - began < 1.0
        assert err.value.step == 7


def test_a_converged_run_stops_stepping_its_coordinates():
    # every coordinate of the reference pretraining is at a bitwise fixed
    # point after 40,000 steps, so 10,000,000 more leave every bit and cost
    # only the weight checks; stepping them all takes about 16 s on a 2-core
    # x86_64 machine
    family = make_reference_family()
    dist = family.distribution("pretrain")
    converged, _ = train(
        init_scaled_identity(6, 12.0), dist, family.basis, TrainConfig(eta=0.02, max_steps=40_000)
    )
    for probe_every in (1_000, 10_000_000):
        config = TrainConfig(eta=0.02, max_steps=10_000_000, probe_every=probe_every)
        began = time.perf_counter()
        final, traj = train(converged, dist, family.basis, config)
        assert time.perf_counter() - began < 1.0
        assert_same_bits(final.W1, converged.W1)
        assert_same_bits(final.W2, converged.W2)
        assert_same_bits(traj.thetas, np.broadcast_to(converged.theta, traj.thetas.shape))


def test_a_dense_run_in_an_exact_orbit_stops_stepping():
    # zero factors are a fixed point of the step in any basis: each factor
    # gradient is a product with the other, zero, factor, and 0.0 - eta * g
    # is +0.0 for g = +-0.0; stepping 10,000,000 times takes about 90 s on a
    # 2-core x86_64 machine
    family = make_reference_family(basis_mode="random", basis_seed=3)
    zero = NetworkState(W1=np.zeros((6, 6)), W2=np.zeros((6, 6)))
    for probe_every in (1_000, 10_000_000):
        config = TrainConfig(eta=0.02, max_steps=10_000_000, probe_every=probe_every)
        began = time.perf_counter()
        final, traj = train(zero, family.distribution("pretrain"), family.basis, config)
        assert time.perf_counter() - began < 1.0
        assert_same_bits(final.W1, zero.W1)
        assert_same_bits(final.W2, zero.W2)
        assert_same_bits(traj.thetas, np.zeros(traj.thetas.shape))


def test_a_non_finite_start_state_diverges_at_step_0():
    # a ridge anchors the non-finite start product, and no warning escapes
    # while train() computes it (pytest turns warnings into errors)
    family = make_reference_family()
    W1 = np.eye(6)
    W1[2, 3] = math.inf
    for max_steps, ridge_lambda in itertools.product((0, 50), (0.0, 0.3)):
        with pytest.raises(TrainingDiverged) as err:
            train(
                NetworkState(W1=W1, W2=np.eye(6)),
                family.distribution("pretrain"),
                family.basis,
                TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=1),
            )
        assert err.value.step == 0


def test_an_infinite_loss_from_finite_weights_counts_as_divergence():
    basis, dist = scalar_problem(target=1.0)
    big = math.exp(180.0)  # finite factors whose squared residual overflows
    state = NetworkState(W1=np.array([[big]]), W2=np.array([[big]]), step=7)
    with pytest.raises(TrainingDiverged) as err:
        train(state, dist, basis, TrainConfig(eta=0.01, max_steps=0))
    assert err.value.step == 7


def test_train_config_validation_messages():
    with pytest.raises(ConfigError, match="learning rate"):
        TrainConfig(eta=0.0, max_steps=10)
    with pytest.raises(ConfigError, match="max_steps"):
        TrainConfig(eta=0.01, max_steps=-1)
    with pytest.raises(ConfigError, match="probe_every"):
        TrainConfig(eta=0.01, max_steps=10, probe_every=0)
    with pytest.raises(ConfigError, match="budget"):
        TrainConfig(eta=0.2, max_steps=10)


@given(
    sigma=st.floats(min_value=0.0, max_value=4.0),
    target=st.floats(min_value=0.0, max_value=4.0),
    eta=st.floats(min_value=1e-4, max_value=0.05),
)
@settings(max_examples=200, deadline=None)
def test_derived_step_agrees_with_a_balanced_matrix_step(sigma, target, eta):
    basis, dist = scalar_problem(target=target)
    root = math.sqrt(sigma)
    state = NetworkState(W1=np.array([[root]]), W2=np.array([[root]]))
    nxt, _ = train(state, dist, basis, TrainConfig(eta=eta, max_steps=1))
    want = derived_diag_step(state.theta[0, 0], 1.0, target, eta)
    assert nxt.theta[0, 0] == pytest.approx(want, rel=1e-12, abs=1e-15)
