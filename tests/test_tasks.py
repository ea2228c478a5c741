"""Task family construction, mixing arithmetic, and structural validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mixture_moments_monte_carlo
from stagelab import (
    ConfigError,
    FeaturePartition,
    SpectralBasis,
    StageDistribution,
    TaskSpectra,
    TaskValidationError,
    build_task_family,
    check_assumptions,
    make_reference_family,
    mix_distributions,
)
from stagelab.tasks import target_matrix


def reference_spectra(**overrides) -> TaskSpectra:
    fields = dict(
        invariant=np.array([5.0, 4.0]),
        pre_inconsistent=np.array([1.0, 0.8]),
        post_inconsistent=np.array([3.5, 3.3]),
        ft_inconsistent=np.array([0.5, 0.3]),
        specialized_target=0.9,
        mismatch_gap=2.0,
    )
    fields.update(overrides)
    return TaskSpectra(**fields)


def test_reference_family_stage_vectors():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    post = family.distribution("posttrain")
    ft = family.distribution("finetune")

    np.testing.assert_array_equal(pre.input_variances, [1, 1, 1, 1, 0, 0])
    np.testing.assert_array_equal(post.input_variances, [1, 1, 1, 1, 1, 1])
    np.testing.assert_array_equal(ft.input_variances, [1, 1, 1, 1, 0, 0])

    np.testing.assert_array_equal(pre.target_spectrum, [5, 4, 1.0, 0.8, 0, 0])
    np.testing.assert_array_equal(post.target_spectrum, [5, 4, 3.5, 3.3, 0.9, 0.9])
    np.testing.assert_array_equal(ft.target_spectrum, [5, 4, 0.5, 0.3, 0, 0])

    np.testing.assert_array_equal(pre.cross_covariance, pre.input_variances * pre.target_spectrum)
    np.testing.assert_array_equal(post.cross_covariance, post.target_spectrum)


def test_partition_blocks():
    part = FeaturePartition(n=6, k=2)
    assert part.d_invariant == 2
    assert part.invariant == slice(0, 2)
    assert part.inconsistent == slice(2, 4)
    assert part.specialized == slice(4, 6)


def test_partition_rejects_degenerate_shapes():
    with pytest.raises(ConfigError, match="k >= 1"):
        FeaturePartition(n=6, k=0)
    with pytest.raises(ConfigError, match="n - 2k >= 1"):
        FeaturePartition(n=4, k=2)


def test_mixing_half_produces_expected_moments():
    family = make_reference_family()
    mixed = mix_distributions(
        family.distribution("pretrain"), family.distribution("posttrain"), 0.5
    )
    np.testing.assert_array_equal(mixed.input_variances, [1, 1, 1, 1, 0.5, 0.5])
    np.testing.assert_array_equal(mixed.cross_covariance, [5, 4, 2.25, 2.05, 0.45, 0.45])
    # effective target on the specialized block: 0.45 / 0.5 recovers the full value
    np.testing.assert_allclose(mixed.target_spectrum, [5, 4, 2.25, 2.05, 0.9, 0.9], rtol=0, atol=0)


def test_mixing_endpoints_return_the_pure_inputs():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    post = family.distribution("posttrain")
    assert mix_distributions(pre, post, 0.0) is pre
    assert mix_distributions(pre, post, 1.0) is post


def test_mixing_rejects_bad_weight_and_dimension():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    post = family.distribution("posttrain")
    with pytest.raises(ConfigError, match="mixing weight"):
        mix_distributions(pre, post, 1.5)
    other = StageDistribution(
        label="small",
        input_variances=np.ones(2),
        target_spectrum=np.ones(2),
        cross_covariance=np.ones(2),
    )
    with pytest.raises(ConfigError, match="different dimension"):
        mix_distributions(pre, other, 0.5)


@given(alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_mixing_is_linear_in_the_moments(alpha):
    family = make_reference_family()
    pre = family.distribution("pretrain")
    post = family.distribution("posttrain")
    mixed = mix_distributions(pre, post, alpha)
    want_v = (1 - alpha) * pre.input_variances + alpha * post.input_variances
    want_xc = (1 - alpha) * pre.cross_covariance + alpha * post.cross_covariance
    np.testing.assert_array_equal(mixed.input_variances, want_v)
    np.testing.assert_array_equal(mixed.cross_covariance, want_xc)
    # effective target is consistent with the moments wherever inputs have mass
    live = mixed.input_variances > 0
    np.testing.assert_allclose(
        mixed.target_spectrum[live] * mixed.input_variances[live],
        mixed.cross_covariance[live],
        rtol=1e-15,
        atol=0,
    )
    assert np.all(mixed.target_spectrum[~live] == 0.0)


def test_mixture_moments_match_monte_carlo():
    family = make_reference_family()
    pre = family.distribution("pretrain")
    post = family.distribution("posttrain")
    mixed = mix_distributions(pre, post, 0.5)
    rng = np.random.default_rng(3)
    var, var_se, xc, xc_se = mixture_moments_monte_carlo(
        pre, post, family.basis, 0.5, 10**6, rng
    )
    assert np.all(np.abs(var - mixed.input_variances) <= 5 * np.maximum(var_se, 1e-12))
    assert np.all(np.abs(xc - mixed.cross_covariance) <= 5 * np.maximum(xc_se, 1e-12))


def test_random_basis_is_orthonormal_and_seeded():
    basis = SpectralBasis.random(6, seed=42)
    eye = np.eye(6)
    assert np.max(np.abs(basis.U.T @ basis.U - eye)) < 1e-12
    assert np.max(np.abs(basis.V.T @ basis.V - eye)) < 1e-12
    again = SpectralBasis.random(6, seed=42)
    np.testing.assert_array_equal(basis.U, again.U)
    np.testing.assert_array_equal(basis.V, again.V)
    other = SpectralBasis.random(6, seed=43)
    assert np.max(np.abs(basis.U - other.U)) > 1e-3


def test_basis_rejects_non_orthonormal_matrices():
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ConfigError, match="not orthonormal"):
        SpectralBasis(U=bad, V=np.eye(4))


def test_basis_derives_is_identity_from_its_matrices():
    assert SpectralBasis.identity(4).is_identity
    assert SpectralBasis(U=np.eye(4), V=np.eye(4)).is_identity
    assert not SpectralBasis(U=np.eye(4)[::-1], V=np.eye(4)).is_identity
    assert not SpectralBasis.random(4, seed=0).is_identity
    assert [f.name for f in dataclasses.fields(SpectralBasis)] == ["U", "V"]


def test_target_and_covariance_matrices_in_both_bases():
    family = make_reference_family()
    post = family.distribution("posttrain")
    np.testing.assert_array_equal(target_matrix(post, family.basis), np.diag(post.target_spectrum))

    rot = make_reference_family(basis_mode="random", basis_seed=5)
    post_r = rot.distribution("posttrain")
    A = target_matrix(post_r, rot.basis)
    np.testing.assert_allclose(
        rot.basis.U.T @ A @ rot.basis.V, np.diag(post_r.target_spectrum), atol=1e-12
    )


def test_distribution_rejects_bad_vectors():
    with pytest.raises(ConfigError, match=r"input variances must lie in \[0, 1\]"):
        StageDistribution(
            label="bad",
            input_variances=np.array([1.5]),
            target_spectrum=np.array([1.0]),
            cross_covariance=np.array([1.5]),
        )
    with pytest.raises(ConfigError, match="nonnegative"):
        StageDistribution(
            label="bad",
            input_variances=np.array([1.0]),
            target_spectrum=np.array([-1.0]),
            cross_covariance=np.array([-1.0]),
        )
    with pytest.raises(ConfigError, match="share one length"):
        StageDistribution(
            label="bad",
            input_variances=np.array([1.0, 1.0]),
            target_spectrum=np.array([1.0]),
            cross_covariance=np.array([1.0]),
        )


def test_validator_names_the_violated_inequality():
    part = FeaturePartition(n=6, k=2)

    with pytest.raises(TaskValidationError, match="inconsistent_post_pre_gap"):
        reference_spectra(post_inconsistent=np.array([2.9, 3.3])).validate(part)
    with pytest.raises(TaskValidationError, match="specialized_magnitude"):
        reference_spectra(specialized_target=1.0).validate(part)
    with pytest.raises(TaskValidationError, match="specialized_magnitude"):
        build_task_family(part, reference_spectra(specialized_target=9.0))
    with pytest.raises(TaskValidationError, match="invariant_dominance"):
        reference_spectra(invariant=np.array([5.0, 3.4])).validate(part)
    with pytest.raises(TaskValidationError, match="invariant spectrum has length 1"):
        reference_spectra(invariant=np.array([5.0])).validate(part)
    with pytest.raises(TaskValidationError, match="mismatch_gap must be positive"):
        reference_spectra(mismatch_gap=0.0).validate(part)
    with pytest.raises(TaskValidationError, match="must be nonnegative"):
        reference_spectra(pre_inconsistent=np.array([-0.1, 0.8])).validate(part)


def test_assumption_margins_for_the_reference_family():
    report = check_assumptions(make_reference_family(), alpha=0.5)
    measured = report.measured
    assert measured["shared_spectral_basis"] == "structural"
    assert measured["inconsistent_post_pre_gap"] == pytest.approx(0.5)
    assert measured["inconsistent_post_ft_gap"] == pytest.approx(1.0)
    assert measured["specialized_magnitude"] == pytest.approx(0.1)
    assert measured["invariant_dominance"] == pytest.approx(0.5)

    assert measured["specialized_mixing_salience"] == pytest.approx(0.45 - 2.25)
    assert report.notes == (
        "specialized_mixing_salience (diagnostic): alpha * specialized_target must exceed "
        "the mixed inconsistent value; fails for every alpha in a 101-point grid",
    )


@given(alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_salience_never_holds_when_magnitudes_are_valid(alpha):
    # alpha * specialized_target < mismatch_gap / 2 <= mixed inconsistent value,
    # so the salience premise is unsatisfiable for any mixing weight.
    report = check_assumptions(make_reference_family(), alpha)
    assert report.passed
    assert not report.measured["specialized_mixing_salience"] > 0


def test_family_distribution_unknown_stage():
    family = make_reference_family()
    with pytest.raises(ConfigError, match="unknown stage"):
        family.distribution("deploy")
