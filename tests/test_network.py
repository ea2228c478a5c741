"""Network state, losses, gradients, training loop, and the scalar recursions."""

import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def scalar_problem(target: float = 2.0, basis: SpectralBasis | None = None):
    return StageDistribution(
        label="scalar",
        basis=SpectralBasis.identity(1) if basis is None else basis,
        input_variances=np.array([1.0]),
        cross_covariance=np.array([target]),
    )


def reference_teacher(dist):
    """U diag(target_spectrum) V^T, built here from the distribution's basis and spectrum."""
    return (dist.basis.U * dist.target_spectrum) @ dist.basis.V.T


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
    assert population_loss(zero, pre) == 42.64

    a_post = init_from_spectrum(family.basis, family.distribution("posttrain").target_spectrum)
    assert population_loss(a_post, pre) == 12.5

    # a bitwise copy of the teacher (sqrt round trips can be one ulp off)
    a_pre = NetworkState(W1=reference_teacher(pre), W2=np.eye(6))
    assert population_loss(a_pre, pre) == 0.0


def test_population_loss_matches_monte_carlo():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    zero = NetworkState(W1=np.zeros((6, 6)), W2=np.zeros((6, 6)))
    rng = np.random.default_rng(7)
    est, se = population_loss_monte_carlo(zero, pre, 10**6, rng)
    assert abs(est - 42.64) <= 3 * se


def test_population_loss_ignores_zero_variance_coordinates():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    base = init_from_spectrum(family.basis, pre.target_spectrum)
    spiked = init_from_spectrum(
        family.basis, pre.target_spectrum + np.array([0, 0, 0, 0, 7.0, 7.0])
    )
    # a spike on dead coordinates changes theta but not the loss
    assert population_loss(spiked, pre) == population_loss(base, pre)


# ------------------------------------------------------------------- gradients


def test_gradients_match_finite_differences_in_every_configuration():
    family = make_reference_family()
    rot = make_reference_family(basis_mode="random", basis_seed=4)
    rng = np.random.default_rng(11)
    cases = []
    for fam in (family, rot):
        for stage in ("pretrain", "posttrain", "finetune"):
            cases.append(fam.distribution(stage))
    mixed = mix_distributions(
        family.distribution("pretrain"), family.distribution("posttrain"), 0.5
    )
    cases.append(mixed)

    for dist in cases:
        state = NetworkState(W1=rng.standard_normal((6, 6)), W2=rng.standard_normal((6, 6)))
        G1, G2 = population_gradient(state, dist)
        F1, F2 = finite_difference_gradients(state, dist)
        assert worst_gradient_discrepancy(G1, F1) <= 1.0
        assert worst_gradient_discrepancy(G2, F2) <= 1.0


def test_ridge_gradient_matches_finite_differences():
    family = make_reference_family()
    post = family.distribution("posttrain")
    rng = np.random.default_rng(13)
    state = NetworkState(W1=rng.standard_normal((6, 6)), W2=rng.standard_normal((6, 6)))
    anchor = rng.standard_normal((6, 6))
    G1, G2 = population_gradient(state, post, ridge_lambda=0.3, ridge_anchor=anchor)
    F1, F2 = finite_difference_gradients(state, post, ridge_lambda=0.3, ridge_anchor=anchor)
    assert worst_gradient_discrepancy(G1, F1) <= 1.0
    assert worst_gradient_discrepancy(G2, F2) <= 1.0


def test_gradient_vanishes_at_the_teacher_and_at_the_origin():
    family = make_reference_family()
    post = family.distribution("posttrain")
    # a bitwise teacher: theta equals the target matrix exactly
    teacher = NetworkState(W1=reference_teacher(post), W2=np.eye(6))
    G1, G2 = population_gradient(teacher, post)
    np.testing.assert_array_equal(G1, np.zeros((6, 6)))
    np.testing.assert_array_equal(G2, np.zeros((6, 6)))

    zero = NetworkState(W1=np.zeros((6, 6)), W2=np.zeros((6, 6)))
    G1, G2 = population_gradient(zero, post)
    np.testing.assert_array_equal(G1, np.zeros((6, 6)))
    np.testing.assert_array_equal(G2, np.zeros((6, 6)))


def test_ridge_requires_an_anchor():
    family = make_reference_family()
    state = init_scaled_identity(6, 5.0)
    with pytest.raises(ConfigError, match="anchor"):
        population_gradient(state, family.distribution("posttrain"), ridge_lambda=0.1)


def test_zero_variance_coordinates_receive_no_gradient():
    family = make_reference_family()
    ft = family.distribution("finetune")
    rng = np.random.default_rng(21)
    state = NetworkState(W1=rng.standard_normal((6, 6)), W2=rng.standard_normal((6, 6)))
    _, G2 = population_gradient(state, ft)
    # input-side gradient columns on dead coordinates are identically zero
    np.testing.assert_array_equal(G2[:, 4:], np.zeros((6, 2)))


# ------------------------------------------------------------------ steps


def test_gradient_step_scalar_arithmetic():
    dist = scalar_problem(target=2.0)
    state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
    nxt, _ = train(state, dist, TrainConfig(eta=0.01, max_steps=1))
    assert nxt.W1[0, 0] == 1.02
    assert nxt.W2[0, 0] == 1.02
    assert nxt.step == 1


def test_gradient_step_matches_derived_not_idealized_scalar_rule():
    # the product after one matrix step follows sigma (1 - eta g)^2, not the
    # cubic rule; both share fixed points but differ at finite step size
    dist = scalar_problem(target=2.0)
    state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
    nxt, _ = train(state, dist, TrainConfig(eta=0.01, max_steps=1))
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
        nxt, _ = train(state, dist, config)
        G1, G2 = population_gradient(prev, dist, ridge_lambda, anchor)
        np.testing.assert_array_equal(nxt.W1, prev.W1 - 0.02 * G1)
        np.testing.assert_array_equal(nxt.W2, prev.W2 - 0.02 * G2)
        assert nxt.step == steps
        prev = nxt


def allocating_gradients(state, dist, ridge_lambda, anchor):
    """(dL/dW1, dL/dW2) by the allocating expressions of reference_train's update."""
    theta = state.W1 @ state.W2
    E = theta - reference_teacher(dist)
    v, basis = dist.input_variances, dist.basis
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
        want = allocating_gradients(state, dist, ridge_lambda, anchor)
        got = population_gradient(state, dist, ridge_lambda, anchor)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


def test_population_gradient_keeps_the_reference_rounding_in_the_subnormal_range():
    # the state of test_train_keeps_the_reference_rounding_in_the_subnormal_range
    dist = StageDistribution(
        label="faint",
        basis=SpectralBasis.identity(1),
        input_variances=np.array([1e-20]),
        cross_covariance=np.array([0.0]),
    )
    state = NetworkState(W1=np.array([[3.3e-300]]), W2=np.array([[1e10]]))
    for ridge_lambda, anchor in ((0.0, None), (0.3, np.array([[1e-300]]))):
        want = allocating_gradients(state, dist, ridge_lambda, anchor)
        got = population_gradient(state, dist, ridge_lambda, anchor)
        assert want[0][0, 0] != 0.0
        for g, w in zip(got, want):
            assert_same_bits(g, w)


def reference_train(state, dist, config, probes, record_spectrum, factors=None):
    """train() as allocating numpy expressions, checking weights and loss after every step.

    A ridge anchors the start product.

    Each snapshot holds the step, the training loss, the aligned diagonal and
    off-diagonal norm (None without record_spectrum) and the loss on each
    distribution in probes, by name.  Returns the final factors, the
    snapshots and the stacked products at the snapshot steps.  A list passed
    as factors receives the bytes of the stacked factors at every step, the
    start state included.
    """
    A, v, basis = reference_teacher(dist), dist.input_variances, dist.basis
    V = None if basis.is_identity else basis.V
    probe_mats = {name: (reference_teacher(d), d.input_variances) for name, d in probes.items()}

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
            want = reference_train(state, dist, config, probes, record_spectrum)
    except TrainingDiverged as exc:
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, config, record_spectrum)
        assert err.value.step == exc.step
        return
    final, traj = train(state, dist, config, record_spectrum)
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
    dist = StageDistribution(
        label="faint",
        basis=SpectralBasis.identity(1),
        input_variances=np.array([1e-20]),
        cross_covariance=np.array([0.0]),
    )
    state = NetworkState(W1=np.array([[3.3e-300]]), W2=np.array([[1e10]]))
    E, v = state.theta, dist.input_variances
    assert (2.0 * (E * v))[0, 0] != (E * (2.0 * v))[0, 0]
    config = TrainConfig(eta=0.01, max_steps=1)
    want_W1, want_W2, *_ = reference_train(state, dist, config, {}, False)
    final, _ = train(state, dist, config, record_spectrum=False)
    assert_same_bits(final.W1, want_W1)
    assert_same_bits(final.W2, want_W2)


def assert_train_is_the_reference_bitwise(state, dist, config):
    """train() against reference_train: final factors, every recorded product, or the divergence step."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want_W1, want_W2, _, want_thetas = reference_train(state, dist, config, {}, False)
    except TrainingDiverged as exc:
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, config)
        assert err.value.step == exc.step
        return
    final, traj = train(state, dist, config)
    assert_same_bits(final.W1, want_W1)
    assert_same_bits(final.W2, want_W2)
    assert_same_bits(traj.thetas, want_thetas)


def diagonal_problem(d1, d2, variances, targets):
    """An identity-basis problem whose start factors are diag(d1) and diag(d2)."""
    dist = StageDistribution(
        label="diagonal",
        basis=SpectralBasis.identity(len(d1)),
        input_variances=np.array(variances),
        cross_covariance=np.array(variances) * np.array(targets),
    )
    return NetworkState(W1=np.diag(d1), W2=np.diag(d2)), dist


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
    state, dist = problem
    config = TrainConfig(eta=eta, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
    with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
        assert_train_is_the_reference_bitwise(state, dist, config)
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
            state, dist = diagonal_problem(d1, d2, [1.0] * n, targets)
            config = TrainConfig(eta=0.02, max_steps=5, ridge_lambda=ridge_lambda, probe_every=1)
            assert_train_is_the_reference_bitwise(state, dist, config)
            _, traj = train(state, dist, config)
            assert not np.signbit(traj.thetas).any()
            for W1 in (np.diag(d1), -np.diag(d1)):  # +0.0 and -0.0 on the diagonal
                assert_train_is_the_reference_bitwise(NetworkState(W1=W1, W2=state.W2), dist, config)


def test_an_unbalanced_diagonal_state_trains_bitwise_as_the_reference_loop_on_the_matrix_kernel():
    # -1e-200 * 1e-200 rounds to -0.0; matmul's entry is -0.0 or +0.0
    # depending on where the BLAS kernel adds it, and the matrix kernel,
    # which unequal factors take, has the reference loop's bits
    for n in (1, 2, 6):
        for i in (0, n - 1):
            d1, d2 = [0.5] * n, [0.5] * n
            d1[i], d2[i] = -1e-200, 1e-200
            state, dist = diagonal_problem(d1, d2, [1.0] * n, [0.0] * n)
            config = TrainConfig(eta=0.02, max_steps=3, probe_every=1)
            with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
                assert_train_is_the_reference_bitwise(state, dist, config)
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
        basis=SpectralBasis.identity(4),
        input_variances=dist.input_variances[:4],
        cross_covariance=dist.cross_covariance[:4],
    )
    for ridge_lambda in (0.0, 0.3):
        config = TrainConfig(eta=0.02, max_steps=60, ridge_lambda=ridge_lambda, probe_every=7)
        with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
            assert_train_is_the_reference_bitwise(state, dist, config)
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
        dist = scalar_problem(target, basis)
        for ridge_lambda in (0.0, 0.3):
            state = NetworkState(W1=np.array([[0.0]]), W2=np.array([[-3.0]]))
            config = TrainConfig(eta=0.02, max_steps=4, ridge_lambda=ridge_lambda, probe_every=1)
            assert_train_is_the_reference_bitwise(state, dist, config)
            _, traj = train(state, dist, config)
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
        reference_train(hot, dist, TrainConfig(eta=0.05, max_steps=50), {}, False)
    assert err.value.step == 7
    for block in (1, 5, 16):
        monkeypatch.setattr(network, "FINITE_CHECK_EVERY", block)
        for state, eta in ((calm, 0.02), (hot, 0.05)):
            for probe_every, max_steps in itertools.product((1, 3, 16, 50), (0, 1, 5, 16, 53)):
                config = TrainConfig(eta=eta, max_steps=max_steps, ridge_lambda=0.3, probe_every=probe_every)
                assert_train_is_the_reference_bitwise(state, dist, config)


def test_a_fixed_point_is_a_bit_pattern_not_a_value():
    # from W1 = -0.0, W2 = 5e-324 the step gives w1 = -0.0 - eta * g1 with
    # eta * g1 = -0.0, that is +0.0, which == takes for -0.0; stopping there
    # would leave the final W1 at -0.0, where every later step keeps +0.0.
    # The factors differ, so the run takes the matrix kernel.
    assert math.copysign(1.0, -0.0 - 0.02 * (-2.0 * 5e-324)) == 1.0
    for n, i in ((1, 0), (3, 1)):
        d1, d2 = [0.5] * n, [0.7] * n
        d1[i], d2[i] = -0.0, 5e-324
        state, dist = diagonal_problem(d1, d2, [1.0] * n, [1.0] * n)
        for max_steps, probe_every in ((1, 1), (3, 1), (40, 7)):
            config = TrainConfig(eta=0.02, max_steps=max_steps, probe_every=probe_every)
            with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
                assert_train_is_the_reference_bitwise(state, dist, config)
            assert not built.called
            final, _ = train(state, dist, config)
            assert not np.signbit(final.W1[i, i])


@pytest.mark.parametrize("ridge_lambda", [0.0, 0.3])
def test_a_balanced_start_trained_past_its_fixed_points_keeps_equal_factors(ridge_lambda):
    # every coordinate starts with the same float in both factors, signed
    # zeros included, and the one-float loop writes one float back to both;
    # -0.0 at target 0 has g = +0.0, where g * w is -0.0 and the matmul entry +0.0
    d = [0.5, -0.25, 1.0, -0.0, 0.0, 1.7]
    targets = [2.0, 0.3, 1.0, 0.0, 1.0, 2.9]
    state, dist = diagonal_problem(d, d, [1.0, 0.5, 1.0, 1.0, 1.0, 0.25], targets)
    config = TrainConfig(eta=0.05, max_steps=20_000, ridge_lambda=ridge_lambda, probe_every=1_000)
    with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
        assert_train_is_the_reference_bitwise(state, dist, config)
    assert built.call_count == 1
    final, traj = train(state, dist, config)
    assert traj.products.ndim == 2  # the run took the diagonal kernel
    assert final.W1.tobytes() == final.W2.tobytes()
    if not ridge_lambda:  # with a ridge, a new start product would move the anchor
        again, _ = train(final, dist, TrainConfig(eta=0.05, max_steps=1))
        assert again.W1.tobytes() == again.W2.tobytes() == final.W1.tobytes()


@pytest.mark.parametrize("ridge_lambda", [0.0, 0.3])
def test_balanced_coordinates_whose_products_underflow_stay_on_the_diagonal_kernel(ridge_lambda):
    # w * w is never -0.0, so a square that underflows is +0.0 in the matmul
    # entry too; g * w underflows in the last coordinate, where any signed
    # zero leaves u = w - eta * g1 at w.
    d = [1e-200, -1e-200, 5e-324, -5e-324, 0.5, 0.01]
    state, dist = diagonal_problem(d, d, [1.0] * 5 + [5e-324], [1.0, 0.0, 2.0, 1.0, 1.0, 4.0])
    assert 0.01 * (2.0 * ((0.01 * 0.01 - 4.0) * 5e-324)) == 0.0
    for max_steps, probe_every in ((1, 1), (3, 1), (40, 7), (2_000, 50)):
        config = TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
        assert_train_is_the_reference_bitwise(state, dist, config)
        final, traj = train(state, dist, config)
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
        state, dist = diagonal_problem(d1, d2, [1.0, 0.5, 1.0, 0.25], [1.0, 2.0, 0.0, 3.0])
        config = TrainConfig(eta=0.02, max_steps=3_000, ridge_lambda=ridge_lambda, probe_every=7)
        with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
            assert_train_is_the_reference_bitwise(state, dist, config)
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
    state, dist = problem
    config = TrainConfig(eta=eta, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
    with mock.patch.object(network, "FINITE_CHECK_EVERY", block):
        assert_train_is_the_reference_bitwise(state, dist, config)


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
        want_W1, want_W2, _, want_thetas = reference_train(state, dist, config, {}, False, factors)
        orbit = first_orbit(factors)
        if orbit is None:
            continue
        for probe_every, block in itertools.product((1, 7, 50), (5, 64, 4096)):
            config = TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=probe_every)
            calls = []
            with mock.patch.object(network, "FINITE_CHECK_EVERY", block), \
                    mock.patch.object(network, "_gradient_kernel", counting_steps(calls)):
                final, traj = train(state, dist, config)
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
        reference_train(hot, dist, TrainConfig(eta=0.05, max_steps=50), {}, False)
    assert err.value.step == 7
    state, nan_bits = hot, []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(12):
            G1, G2 = population_gradient(state, dist)
            state = NetworkState(W1=state.W1 - 0.05 * G1, W2=state.W2 - 0.05 * G2)
            nan_bits.append(np.stack((state.W1, state.W2)).tobytes())
    assert np.isnan(state.W1).all() and nan_bits[-1] == nan_bits[-2] == nan_bits[-3]
    for probe_every, block in itertools.product((1, 7, 50), (5, 64, 4096)):
        config = TrainConfig(eta=0.05, max_steps=10_000, probe_every=probe_every)
        with mock.patch.object(network, "FINITE_CHECK_EVERY", block), pytest.raises(TrainingDiverged) as err:
            train(hot, dist, config)
        assert err.value.step == 7


def test_the_reference_init_takes_the_diagonal_kernel():
    family = make_reference_family()
    config = TrainConfig(eta=0.02, max_steps=300, ridge_lambda=0.1, probe_every=50)
    with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
        assert_train_is_the_reference_bitwise(
            init_scaled_identity(6, 12.0), family.distribution("pretrain"), config
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
        _, _, want_snaps, want_thetas = reference_train(state, dist, config, probes, True)
        _, traj = train(state, dist, config)
        assert traj.products.shape == (len(want_snaps), 6)
        assert not traj.thetas.flags.writeable and not traj.diagonals().flags.writeable
        assert_columns_are_the_reference_bitwise(traj, want_snaps, want_thetas, probes)
        _, blind = train(state, dist, config, record_spectrum=False)
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
        state, dist = diagonal_problem(d1, d2, [1.0] * n, [0.0] * n)
        config = TrainConfig(eta=0.02, max_steps=5, probe_every=probe_every)
        _, _, want_snaps, want_thetas = reference_train(state, dist, config, {"dist": dist}, True)
        with mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built:
            _, traj = train(state, dist, config)
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
        reference_train(hot, dist, config, {}, False)
    assert err.value.step == 7
    for block in (1, 5, 16, 4096):
        with mock.patch.object(network, "FINITE_CHECK_EVERY", block), \
                mock.patch.object(network, "_diagonal_kernel", wraps=network._diagonal_kernel) as built, \
                pytest.raises(TrainingDiverged) as err:
            train(hot, dist, config)
        assert built.called
        assert err.value.step == 7


def test_scalar_rules_share_fixed_points():
    assert derived_diag_step(2.0, 1.0, 2.0, 0.01) == 2.0
    assert derived_diag_step(0.0, 1.0, 2.0, 0.01) == 0.0


@given(
    sigma=st.floats(-1e3, 1e3),
    variance=st.floats(0.0, 10.0),
    target=st.floats(-10.0, 10.0),
    eta=st.floats(1e-4, 0.6),
    ridge_lambda=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
    anchor=st.floats(-1e3, 1e3),
)
# Python's float power overflows with OverflowError where a multiplication
# gives inf, and rounds the second square differently from a multiplication
@example(1e200, 1.0, 2.0, 0.06, 0.0, 0.0)
@example(1.664407174993337, 0.101366400028582, 4.367364614409305, 0.022683536254972478, 0.0, 0.0)
@settings(max_examples=300, deadline=None)
def test_derived_step_has_the_same_bits_for_floats_and_arrays(
    sigma, variance, target, eta, ridge_lambda, anchor
):
    scalar = derived_diag_step(sigma, variance, target, eta, ridge_lambda, anchor)
    with np.errstate(over="ignore", invalid="ignore"):
        array = derived_diag_step(
            np.array([sigma]), np.array([variance]), np.array([target]), eta, ridge_lambda,
            np.array([anchor]),
        )
    assert type(scalar) is float
    assert scalar.hex() == float(array[0]).hex()


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


def _fixed_point_by_derived_steps(variance, target, eta, ridge_lambda, anchor, init):
    """The reference loop: derived_diag_step from init until an update is within tolerance."""
    sigma = float(init)
    for i in range(network.FIXED_POINT_MAX_ITER):
        nxt = float(derived_diag_step(sigma, variance, target, eta, ridge_lambda, anchor))
        if not math.isfinite(nxt):
            return "diverged", i + 1
        if abs(nxt - sigma) <= network.FIXED_POINT_TOL:
            return "limit", nxt.hex()
        sigma = nxt
    return "no limit", None


def _fixed_point_outcome(**kwargs):
    try:
        return "limit", scalar_fixed_point(**kwargs).hex()
    except TrainingDiverged as err:
        return "diverged", err.step
    except StagelabError:
        return "no limit", None


signed_floats = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, math.nan])


@given(
    variance=st.floats(0.0, 1.0),
    target=st.floats(0.0, 10.0),
    eta=st.floats(1e-4, 0.6),
    ridge_lambda=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
    anchor=signed_floats,
    init=signed_floats,
)
@settings(max_examples=300, deadline=None)
def test_scalar_fixed_point_is_the_derived_step_loop_bit_for_bit(
    variance, target, eta, ridge_lambda, anchor, init
):
    # the limit's bits, or the iteration that diverged, or the cap reached
    kwargs = dict(
        variance=variance, target=target, eta=eta, ridge_lambda=ridge_lambda, anchor=anchor, init=init
    )
    with mock.patch.object(network, "FIXED_POINT_MAX_ITER", 3000):
        assert _fixed_point_outcome(**kwargs) == _fixed_point_by_derived_steps(**kwargs)


def test_scalar_fixed_point_names_the_iteration_that_diverged():
    # 50 * (1 - 0.06 * 2 * (50 - 2))^2 is 23 times 50, and each later iterate grows faster
    kwargs = dict(variance=1.0, target=2.0, eta=0.06, ridge_lambda=0.0, anchor=0.0, init=50.0)
    outcome = _fixed_point_by_derived_steps(**kwargs)
    assert outcome[0] == "diverged" and outcome[1] > 2
    with pytest.raises(TrainingDiverged, match=f"at iteration {outcome[1]}$") as err:
        scalar_fixed_point(**kwargs)
    assert err.value.step == outcome[1]


def test_saddle_persistence_is_bitwise():
    family = make_reference_family()
    post = family.distribution("posttrain")
    # specialized coordinates start at exactly zero in both factors
    state = init_from_spectrum(family.basis, np.array([5.0, 4.0, 1.0, 0.8, 0.0, 0.0]))
    config = TrainConfig(eta=0.02, max_steps=1)
    for _ in range(200):
        state, _ = train(state, post, config, record_spectrum=False)
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
        state, _ = train(state, ft, config, record_spectrum=False)
    diag, _ = aligned_spectrum(state, family.basis)
    assert diag[4] == before[4] and diag[5] == before[5]
    assert diag[4] == pytest.approx(0.9, abs=1e-12)
    np.testing.assert_array_equal(state.W1[4:, 4:], frozen_w1)


def test_stochastic_large_batch_approaches_the_population_gradient():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    state = init_scaled_identity(6, 5.0)
    exact1, exact2 = population_gradient(state, pre)
    A = reference_teacher(pre)

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
    A = reference_teacher(pre)
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
        reference_teacher(pre),
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
        init, family.distribution("pretrain"), TrainConfig(eta=0.02, max_steps=0)
    )
    assert final.step == 0
    assert list(traj.steps) == [0]
    np.testing.assert_array_equal(final.W1, init.W1)


def test_unmixed_pretraining_reaches_the_pretrain_targets():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    init = init_scaled_identity(6, 12.0)
    config = TrainConfig(eta=0.05, max_steps=40_000, probe_every=40_000)
    final, _ = train(init, pre, config)
    assert population_loss(final, pre) <= 1e-4
    diag, _ = aligned_spectrum(final, family.basis)
    assert np.max(np.abs(diag[4:])) <= 1e-5


def test_trajectory_stays_diagonal_in_the_aligned_frame():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    config = TrainConfig(eta=0.02, max_steps=3000, probe_every=50)
    _, traj = train(init, family.distribution("pretrain"), config, record_spectrum=True)
    assert np.max(traj.offdiags()) <= 1e-8


def test_matrix_dynamics_match_the_derived_scalar_recursion():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    init = init_from_spectrum(family.basis, np.full(6, math.exp(-10.0)))
    config = TrainConfig(eta=0.02, max_steps=2000, probe_every=1)
    _, traj = train(init, pre, config, record_spectrum=True)
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
        _, traj = train(init, dist, TrainConfig(eta=eta, max_steps=3000, probe_every=10))
        losses = traj.train_losses
        assert np.all(np.diff(losses) <= 1e-12 * np.maximum(losses[:-1], 1.0))


def test_snapshot_cadence_includes_first_and_final_step():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    _, traj = train(
        init, family.distribution("pretrain"),
        TrainConfig(eta=0.02, max_steps=123, probe_every=50),
    )
    assert list(traj.steps) == [0, 50, 100, 123]


def test_probe_losses_are_recorded_per_distribution():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    pre, ft = family.distribution("pretrain"), family.distribution("finetune")
    final, traj = train(init, pre, TrainConfig(eta=0.02, max_steps=100, probe_every=50))
    pre_losses = traj.losses(pre)
    assert pre_losses.shape == (3,)
    assert pre_losses[-1] == population_loss(final, pre)
    np.testing.assert_array_equal(pre_losses, traj.train_losses)
    ft_losses = traj.losses(ft)
    assert ft_losses.shape == (3,)
    assert ft_losses[-1] == population_loss(final, ft)
    assert ft_losses[0] != pre_losses[0]


def test_a_trajectory_holds_one_array_of_products():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    config = TrainConfig(eta=0.05, max_steps=40_000, probe_every=1)
    tracemalloc.start()
    try:
        _, traj = train(init, family.distribution("pretrain"), config)
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
    dist = scalar_problem(target=50.0)
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
                train(state, dist, config)
            assert err.value.step == start + 7


def test_divergence_is_found_by_the_end_of_run_check():
    # the run stops at the first check that finds non-finite weights, here
    # the one after FINITE_CHECK_EVERY steps, then replays from the start
    # state to name the first non-finite step; a run shorter than a block
    # is caught by the check after its last step, as in the test above
    dist = scalar_problem(target=50.0)
    for probe_every in (1, 100_000):
        config = TrainConfig(eta=0.06, max_steps=100_000, probe_every=probe_every)
        state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, config)
        assert err.value.step == 7


def test_a_diverging_run_stops_within_a_block_of_steps():
    # without the block check this run trains all 10,000,000 steps (about
    # 150 s on a 2-core x86_64 machine) before its replay finds step 7
    dist = scalar_problem(target=50.0)
    assert network.FINITE_CHECK_EVERY < 10_000_000
    for probe_every in (1, 10_000_000):
        config = TrainConfig(eta=0.06, max_steps=10_000_000, probe_every=probe_every)
        state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]))
        began = time.perf_counter()
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, config)
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
        init_scaled_identity(6, 12.0), dist, TrainConfig(eta=0.02, max_steps=40_000)
    )
    for probe_every in (1_000, 10_000_000):
        config = TrainConfig(eta=0.02, max_steps=10_000_000, probe_every=probe_every)
        began = time.perf_counter()
        final, traj = train(converged, dist, config)
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
        final, traj = train(zero, family.distribution("pretrain"), config)
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
                TrainConfig(eta=0.02, max_steps=max_steps, ridge_lambda=ridge_lambda, probe_every=1),
            )
        assert err.value.step == 0


def test_an_infinite_loss_from_finite_weights_counts_as_divergence():
    dist = scalar_problem(target=1.0)
    big = math.exp(180.0)  # finite factors whose squared residual overflows
    state = NetworkState(W1=np.array([[big]]), W2=np.array([[big]]), step=7)
    with pytest.raises(TrainingDiverged) as err:
        train(state, dist, TrainConfig(eta=0.01, max_steps=0))
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
    dist = scalar_problem(target=target)
    root = math.sqrt(sigma)
    state = NetworkState(W1=np.array([[root]]), W2=np.array([[root]]))
    nxt, _ = train(state, dist, TrainConfig(eta=eta, max_steps=1))
    want = derived_diag_step(state.theta[0, 0], 1.0, target, eta)
    assert nxt.theta[0, 0] == pytest.approx(want, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------- memo


def counting_trainings():
    """A patch of network._train, the uncached body of train(), that counts its calls."""
    return mock.patch.object(network, "_train", wraps=network._train)


def assert_same_training(got, want):
    (got_state, got_traj), (want_state, want_traj) = got, want
    assert_same_bits(got_state.W1, want_state.W1)
    assert_same_bits(got_state.W2, want_state.W2)
    assert got_state.step == want_state.step
    assert_same_bits(got_traj.steps, want_traj.steps)
    assert_same_bits(got_traj.products, want_traj.products)
    assert got_traj.spectrum == want_traj.spectrum


@pytest.mark.parametrize("basis_mode", ["identity", "random"])
@pytest.mark.parametrize("ridge_lambda", [0.0, 0.1])
def test_a_memo_hit_is_bitwise_an_uncached_call(basis_mode, ridge_lambda):
    # a replay mixture is a new distribution on every build, so the second
    # call hits on content, and its trajectory is over its own distribution
    family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
    post, pre = family.distribution("posttrain"), family.distribution("pretrain")
    start = init_scaled_identity(6, 12.0, family.basis)
    start = NetworkState(W1=start.W1, W2=start.W2, step=7)
    config = TrainConfig(eta=0.02, max_steps=300, ridge_lambda=ridge_lambda, probe_every=7)
    for build in (lambda: post, lambda: mix_distributions(post, pre, 0.01)):
        first, again = build(), build()
        memo = {}
        with counting_trainings() as trained:
            stored = train(start, first, config, memo=memo)
            served = train(start, again, config, memo=memo)
        assert trained.call_count == 1 and len(memo) == 1
        want = train(start, again, config)
        assert_same_training(stored, want)
        assert_same_training(served, want)
        assert served[0].step == 307
        assert served[1].dist is again
        assert_same_bits(served[1].diagonals(), want[1].diagonals())


def test_a_memo_misses_when_any_input_differs():
    family = make_reference_family()
    dist = family.distribution("posttrain")
    start = init_scaled_identity(6, 12.0)
    config = TrainConfig(eta=0.02, max_steps=50, probe_every=10)
    signed = start.W1.copy()
    signed[0, 1] = -0.0  # one off-diagonal entry differs from +0.0 only in its sign bit
    xc = dist.cross_covariance.copy()
    xc[0] = np.nextafter(xc[0], 0.0)
    variants = {
        "signed zero": (NetworkState(W1=signed, W2=start.W2), dist, config, True),
        "start step": (NetworkState(W1=start.W1, W2=start.W2, step=1), dist, config, True),
        "eta": (start, dist, TrainConfig(eta=0.01, max_steps=50, probe_every=10), True),
        "steps": (start, dist, TrainConfig(eta=0.02, max_steps=51, probe_every=10), True),
        "ridge": (start, dist, TrainConfig(eta=0.02, max_steps=50, ridge_lambda=0.1, probe_every=10), True),
        "probe_every": (start, dist, TrainConfig(eta=0.02, max_steps=50, probe_every=7), True),
        "record_spectrum": (start, dist, config, False),
        "cross_covariance": (
            start,
            StageDistribution("posttrain", dist.basis, dist.input_variances, xc),
            config,
            True,
        ),
        "basis": (
            start,
            StageDistribution("posttrain", SpectralBasis.random(6, 3), dist.input_variances, dist.cross_covariance),
            config,
            True,
        ),
    }
    for name, args in variants.items():
        memo = {}
        train(start, dist, config, memo=memo)
        with counting_trainings() as trained:
            got = train(*args, memo=memo)
        assert trained.call_count == 1 and len(memo) == 2, name
        assert_same_training(got, train(*args))


def test_a_diverging_call_is_not_stored_and_a_repeat_raises_at_the_same_step():
    family = make_reference_family(basis_mode="random", basis_seed=3)
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    hot = init_from_spectrum(family.basis, np.full(6, 25.0))
    config = TrainConfig(eta=0.05, max_steps=50)
    memo = {}
    with counting_trainings() as trained:
        for _ in range(2):
            with pytest.raises(TrainingDiverged) as err:
                train(hot, dist, config, memo=memo)
            assert err.value.step == 7 and memo == {}
    assert trained.call_count == 2


def test_train_without_a_memo_builds_no_key(monkeypatch):
    def refuse(*args):
        raise AssertionError("a key was built")

    monkeypatch.setattr(network, "_memo_key", refuse)
    dist = make_reference_family().distribution("pretrain")
    config = TrainConfig(eta=0.02, max_steps=20)
    train(init_scaled_identity(6, 12.0), dist, config)
    with pytest.raises(AssertionError, match="a key was built"):
        train(init_scaled_identity(6, 12.0), dist, config, memo={})


# ---------------------------------------------------------------- lock step


def assert_lockstep_serves_uncached_train(runs, record_spectrum=True):
    """train_lockstep stores every run from one stack, and train() then serves each bitwise its uncached call."""
    memo = {}
    with counting_trainings() as trained:
        network.train_lockstep(runs, memo, record_spectrum)
    assert trained.call_count == 1 and len(memo) == len(runs)
    with counting_trainings() as trained:
        served = [train(*run, record_spectrum, memo) for run in runs]
    assert trained.call_count == 0
    for run, got in zip(runs, served, strict=True):
        assert_same_training(got, train(*run, record_spectrum))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ridge_lambda", [0.0, 0.1])
def test_a_lockstep_batch_is_bitwise_uncached_train(seed, ridge_lambda):
    # one batch of different start states (steps 0, 0 and 7) and etas, with
    # rows recorded off the orbit-exit mark's cadence
    family = make_reference_family(basis_mode="random", basis_seed=seed)
    init = init_scaled_identity(6, 12.0, family.basis)
    pretrained, _ = train(init, family.distribution("pretrain"), TrainConfig(eta=0.02, max_steps=400))
    later = NetworkState(W1=pretrained.W1, W2=pretrained.W2, step=7)
    dist = family.distribution("posttrain")
    runs = [
        (state, dist, TrainConfig(eta=eta, max_steps=300, ridge_lambda=ridge_lambda, probe_every=7))
        for state, eta in ((init, 0.02), (pretrained, 0.008), (pretrained, 0.02), (later, 0.012))
    ]
    assert_lockstep_serves_uncached_train(runs)
    assert_lockstep_serves_uncached_train(runs[:2], record_spectrum=False)
    # identity-basis starts that train() steps on the matrix kernel: one off
    # the diagonal, and one whose factors differ (a power-of-two rescaling
    # of a diagonal checkpoint, which keeps its product)
    identity = make_reference_family()
    start = init_scaled_identity(6, 12.0)
    diagonal, _ = train(start, identity.distribution("pretrain"), TrainConfig(eta=0.02, max_steps=400))
    unbalanced = NetworkState(W1=2.0 * diagonal.W1, W2=0.5 * diagonal.W2)
    dist = identity.distribution("posttrain")
    runs = [
        (state, dist, TrainConfig(eta=eta, max_steps=300, ridge_lambda=ridge_lambda, probe_every=7))
        for state, eta in ((init, 0.02), (unbalanced, 0.012))
    ]
    assert train(start, *runs[0][1:])[1].products.ndim == 2
    assert all(train(*run)[1].products.ndim == 3 for run in runs)
    assert_lockstep_serves_uncached_train(runs)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ridge_lambda", [0.0, 0.1])
def test_a_stack_of_runs_on_different_distributions_is_bitwise_uncached_train(seed, ridge_lambda):
    # one stack of pretraining mixes and replay mixtures of one basis, each
    # run with its own teacher and variances, from two starts
    family = make_reference_family(basis_mode="random", basis_seed=seed)
    pre, post = family.distribution("pretrain"), family.distribution("posttrain")
    init = init_scaled_identity(6, 12.0, family.basis)
    pretrained, _ = train(init, pre, TrainConfig(eta=0.02, max_steps=400))
    dists = [mix_distributions(pre, post, mix) for mix in (0.0, 0.25, 0.5)]
    dists += [mix_distributions(post, pre, replay) for replay in (0.01, 0.05)]
    runs = [
        (state, dist, TrainConfig(eta=eta, max_steps=300, ridge_lambda=ridge_lambda, probe_every=7))
        for state, (dist, eta) in itertools.product((init, pretrained), zip(dists, (0.02, 0.008, 0.02, 0.012, 0.02)))
    ]
    assert_lockstep_serves_uncached_train(runs)
    # identity-basis starts that train() steps on the matrix kernel, one off
    # the diagonal and one unbalanced, on the three stage distributions
    identity = make_reference_family()
    diagonal, _ = train(init_scaled_identity(6, 12.0), identity.distribution("pretrain"),
                        TrainConfig(eta=0.02, max_steps=400))
    unbalanced = NetworkState(W1=2.0 * diagonal.W1, W2=0.5 * diagonal.W2)
    runs = [
        (state, identity.distribution(stage), TrainConfig(eta=0.02, max_steps=300, ridge_lambda=ridge_lambda,
                                                          probe_every=7))
        for state, stage in itertools.product((init, unbalanced), ("pretrain", "posttrain", "finetune"))
    ]
    assert all(train(*run)[1].products.ndim == 3 for run in runs)
    assert_lockstep_serves_uncached_train(runs)
    # n = 1, one target per run
    basis = SpectralBasis(U=np.array([[-1.0]]), V=np.array([[-1.0]]))
    runs = [
        (NetworkState(W1=np.array([[w1]]), W2=np.array([[w2]])), scalar_problem(target, basis),
         TrainConfig(eta=0.02, max_steps=4, ridge_lambda=ridge_lambda, probe_every=1))
        for (w1, w2), target in itertools.product(((0.0, -3.0), (-0.0, 0.5), (0.7, 0.7)), (0.0, 2.0))
    ]
    assert_lockstep_serves_uncached_train(runs)


def test_runs_in_different_bases_never_share_a_stack():
    # two runs in each of three bases, one of them the identity, otherwise alike
    families = [make_reference_family(basis_mode="random", basis_seed=seed) for seed in (3, 4)]
    families.append(make_reference_family())
    init, config = init_scaled_identity(6, 12.0, families[0].basis), TrainConfig(eta=0.02, max_steps=50)
    runs = [(init, family.distribution(stage), config) for family in families for stage in ("pretrain", "posttrain")]
    memo = {}
    with counting_trainings() as trained:
        network.train_lockstep(runs, memo)
    assert trained.call_count == 3 and len(memo) == 6
    for call in trained.call_args_list:
        states, dists, *_ = call.args
        assert len(states) == 2
        assert len({(d.basis.U.tobytes(), d.basis.V.tobytes()) for d in dists}) == 1
    with counting_trainings() as trained:
        for run in runs:
            assert_same_training(train(*run, memo=memo), train(*run))
    assert trained.call_count == len(runs)  # the uncached references only


# magnitudes from subnormal through about 1e+-150 (whose products and sums
# of seven stay finite), with both zeros
GEMM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308, 1e-150, -1e150]),
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(min_value=-9.99, max_value=9.99),
        st.sampled_from([-155, -150, -148, -3, -1, 0, 1, 3, 145, 148, 150]),
    ),
)


@given(data=st.data(), n=st.integers(2, 7), B=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_a_flattened_gemm_is_bitwise_per_matrix_matmul(data, n, B):
    # the stacked gradient kernel's E @ V and work @ V.T: one (B n, n) gemm
    # through the bound dot of the stack's row view, against np.matmul of
    # each matrix of the stack
    E = np.array(data.draw(st.lists(GEMM_ENTRIES, min_size=B * n * n, max_size=B * n * n))).reshape(B, n, n)
    V = np.array(data.draw(st.lists(GEMM_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    for right in (V, V.T):
        got = np.empty((B, n, n))
        network._matmul_for(E.reshape(-1, n))(right, got.reshape(-1, n))
        for b in range(B):
            assert_same_bits(got[b], np.matmul(E[b], right))


def test_a_lockstep_batch_of_1x1_products_sums_each_from_plus_zero():
    # the 1x1 case of test_a_1x1_product_in_another_basis_sums_from_plus_zero,
    # in a batch whose np.matmul takes the 1x1 path once per run
    basis = SpectralBasis(U=np.array([[-1.0]]), V=np.array([[-1.0]]))
    for target, ridge_lambda in itertools.product((0.0, 2.0), (0.0, 0.3)):
        dist = scalar_problem(target, basis)
        runs = [
            (NetworkState(W1=np.array([[w1]]), W2=np.array([[w2]])), dist,
             TrainConfig(eta=eta, max_steps=4, ridge_lambda=ridge_lambda, probe_every=1))
            for w1, w2, eta in ((0.0, -3.0, 0.02), (-0.0, 0.5, 0.01), (0.7, 0.7, 0.02))
        ]
        assert_lockstep_serves_uncached_train(runs)


def test_a_diverging_member_is_not_stored_and_its_call_raises_at_the_uncached_step():
    # the hot state of test_weight_checks_of_any_block_size_leave_every_bit
    # turns non-finite at step 7 while its batch mates train on
    family = make_reference_family(basis_mode="random", basis_seed=3)
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    hot = init_from_spectrum(family.basis, np.full(6, 25.0))
    calm = init_scaled_identity(6, 1.0, family.basis)
    runs = [(calm, dist, TrainConfig(eta=0.02, max_steps=50)), (hot, dist, TrainConfig(eta=0.05, max_steps=50)),
            (calm, dist, TrainConfig(eta=0.01, max_steps=50))]
    memo = {}
    network.train_lockstep(runs, memo)
    assert len(memo) == 2 and network._memo_key(*runs[1], True) not in memo
    with counting_trainings() as trained:
        for run in (runs[0], runs[2]):
            assert_same_training(train(*run, memo=memo), train(*run))
        assert trained.call_count == 2  # the two uncached references
        with pytest.raises(TrainingDiverged) as err:
            train(*runs[1], memo=memo)
    assert err.value.step == 7 and trained.call_count == 3 and len(memo) == 2


def test_lockstep_leaves_the_memo_alone_where_train_steps_as_fast():
    family = make_reference_family()
    dist = family.distribution("posttrain")
    init = init_scaled_identity(6, 12.0)
    configs = [TrainConfig(eta=eta, max_steps=50) for eta in (0.01, 0.02)]
    memo = {}
    # identity-basis diagonal starts, which take the diagonal kernel
    network.train_lockstep([(init, dist, config) for config in configs], memo)
    assert memo == {}
    # a single run, and runs that share no basis, step count, probe_every
    # or ridge with another
    rotated = make_reference_family(basis_mode="random", basis_seed=3)
    dist = rotated.distribution("posttrain")
    init = init_scaled_identity(6, 12.0, rotated.basis)
    network.train_lockstep([(init, dist, configs[0])], memo)
    apart = [
        (init, dist, configs[0]),
        (init, make_reference_family(basis_mode="random", basis_seed=4).distribution("posttrain"), configs[1]),
        (init, dist, TrainConfig(eta=0.02, max_steps=51)),
        (init, dist, TrainConfig(eta=0.02, max_steps=50, probe_every=7)),
        (init, dist, TrainConfig(eta=0.02, max_steps=50, ridge_lambda=0.1)),
    ]
    network.train_lockstep(apart, memo)
    assert memo == {}
    # a run already stored is not stepped again, and leaves its mate alone
    network.train_lockstep(apart[:1] * 2, memo)
    assert memo == {}
    train(*apart[0], memo=memo)
    stored = dict(memo)
    network.train_lockstep([apart[0], (init, dist, configs[1])], memo)
    assert memo == stored
