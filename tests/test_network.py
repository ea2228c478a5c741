"""Network state, losses, gradients, training loop, and the scalar recursions."""

import math

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
    # finite-difference check of the gradient covers the step that trains
    family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
    rng = np.random.default_rng(11)
    state = NetworkState(W1=rng.normal(0, 0.5, (6, 6)), W2=rng.normal(0, 0.5, (6, 6)))
    anchor = rng.normal(0, 1.0, (6, 6)) if ridge_lambda > 0 else None
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    config = TrainConfig(eta=0.02, max_steps=1, ridge_lambda=ridge_lambda, ridge_anchor=anchor)
    nxt, _ = train(state, dist, family.basis, config)
    G1, G2 = population_gradient(state, dist, family.basis, ridge_lambda, anchor)
    np.testing.assert_array_equal(nxt.W1, state.W1 - 0.02 * G1)
    np.testing.assert_array_equal(nxt.W2, state.W2 - 0.02 * G2)
    assert nxt.step == 1


def reference_train(state, dist, basis, config, probes, record_spectrum):
    """train() as allocating numpy expressions, checking the weights after every step."""
    A = target_matrix(dist, basis)
    v = dist.input_variances
    V = None if basis.is_identity else basis.V
    probe_mats = {name: (target_matrix(d, basis), d.input_variances) for name, d in probes.items()}

    def data_loss(E, weights):
        EV = E if V is None else E @ V
        return float(np.sum(EV * EV * weights))

    W1, W2 = state.W1.copy(), state.W2.copy()
    snaps = []
    for step in range(config.max_steps + 1):
        theta = W1 @ W2
        E = theta - A
        if step % config.probe_every == 0 or step == config.max_steps:
            loss = data_loss(E, v)
            if not math.isfinite(loss):
                raise TrainingDiverged(state.step + step)
            diag = offdiag = None
            if record_spectrum:
                M = theta if V is None else basis.U.T @ theta @ V
                diag = np.diag(M).copy()
                offdiag = float(np.linalg.norm(M - np.diag(diag)))
            losses = {name: data_loss(theta - pA, pv) for name, (pA, pv) in probe_mats.items()}
            snaps.append((step, loss, diag, offdiag, losses))
        if step == config.max_steps:
            break
        G = 2.0 * (E * v) if V is None else 2.0 * ((E @ V) * v) @ V.T
        if config.ridge_lambda > 0:
            G = G + 2.0 * config.ridge_lambda * (theta - config.ridge_anchor)
        W1, W2 = W1 - config.eta * (G @ W2.T), W2 - config.eta * (W1.T @ G)
        if not (np.isfinite(W1).all() and np.isfinite(W2).all()):
            raise TrainingDiverged(state.step + step + 1)
    return W1, W2, snaps


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
    anchor = rng.normal(0, 1.0, (6, 6)) if ridge_lambda > 0 else None
    dist = mix_distributions(family.distribution("posttrain"), family.distribution("pretrain"), 0.3)
    config = TrainConfig(
        eta=float(rng.uniform(0.005, 0.1 / (ridge_lambda + 2.0))),
        max_steps=max_steps,
        ridge_lambda=ridge_lambda,
        ridge_anchor=anchor,
        probe_every=probe_every,
    )
    probes = {"finetune": family.distribution("finetune")} if with_probe else {}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_train(state, dist, family.basis, config, probes, record_spectrum)
    except TrainingDiverged as exc:
        with pytest.raises(TrainingDiverged) as err:
            train(state, dist, family.basis, config, probes, record_spectrum)
        assert err.value.step == exc.step
        return
    final, traj = train(state, dist, family.basis, config, probes, record_spectrum)
    np.testing.assert_array_equal(final.W1, want[0])
    np.testing.assert_array_equal(final.W2, want[1])
    assert final.step == start + max_steps
    assert len(traj.snapshots) == len(want[2])
    for snap, (step, loss, diag, offdiag, losses) in zip(traj.snapshots, want[2]):
        assert snap.step == step and snap.train_loss == loss
        assert snap.aligned_offdiag == offdiag and dict(snap.probe_losses) == losses
        if diag is None:
            assert snap.aligned_diag is None
        else:
            np.testing.assert_array_equal(snap.aligned_diag, diag)


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
    want_W1, want_W2, _ = reference_train(state, dist, basis, config, {}, False)
    final, _ = train(state, dist, basis, config, record_spectrum=False)
    np.testing.assert_array_equal(final.W1, want_W1)
    np.testing.assert_array_equal(final.W2, want_W2)


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
    offdiags = np.array([s.aligned_offdiag for s in traj.snapshots])
    assert np.max(offdiags) <= 1e-8


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
    probes = {"pretrain": family.distribution("pretrain"), "finetune": family.distribution("finetune")}
    final, traj = train(
        init, family.distribution("pretrain"), family.basis,
        TrainConfig(eta=0.02, max_steps=100, probe_every=50), probes=probes,
    )
    pre_losses = traj.probe_losses("pretrain")
    assert pre_losses.shape == (3,)
    assert pre_losses[-1] == population_loss(final, probes["pretrain"], family.basis)
    with pytest.raises(StagelabError, match="probe"):
        traj.probe_losses("posttrain")


def scalar_divergence_step(target: float, eta: float, probe_every: int) -> int:
    """train()'s stop rule for scalar_problem in Python floats, which are the same doubles.

    The run stops at the first step whose weights are not finite, or at an
    earlier snapshot whose loss is not.
    """
    w1 = w2 = 1.0
    step = 0
    while True:
        e = w1 * w2 - target
        if step % probe_every == 0 and not math.isfinite(e * e):
            return step
        g = 2.0 * e
        w1, w2 = w1 - eta * (g * w2), w2 - eta * (w1 * g)
        step += 1
        if not (math.isfinite(w1) and math.isfinite(w2)):
            return step


def test_divergence_raises_with_the_offending_step():
    basis, dist = scalar_problem(target=50.0)
    # budget check passes with its fixed norm bound, but the actual teacher value
    # is far above it, so the iteration blows up.  The loss overflows at step 7
    # and the weights at step 9: every snapshot sees the first, and at cadences
    # 5 and 50 the weights go non-finite between two snapshots.
    for probe_every, expected in ((1, 7), (5, 9), (50, 9)):
        assert scalar_divergence_step(50.0, 0.06, probe_every) == expected
        config = TrainConfig(eta=0.06, max_steps=1000, probe_every=probe_every)
        for start in (0, 5):
            state = NetworkState(W1=np.array([[1.0]]), W2=np.array([[1.0]]), step=start)
            with pytest.raises(TrainingDiverged) as err:
                train(state, dist, basis, config)
            assert err.value.step == start + expected


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
    with pytest.raises(ConfigError, match="anchor"):
        TrainConfig(eta=0.01, max_steps=10, ridge_lambda=0.1)
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
