"""Task family construction, mixing arithmetic, and structural validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        basis=SpectralBasis.identity(2),
        input_variances=np.ones(2),
        cross_covariance=np.ones(2),
    )
    with pytest.raises(ConfigError, match="different bases"):
        mix_distributions(pre, other, 0.5)
    # a basis of the same size but other matrices is another frame, at any weight
    rotated = make_reference_family(basis_mode="random", basis_seed=5).distribution("posttrain")
    for alpha in (0.0, 0.5, 1.0):
        with pytest.raises(ConfigError, match="different bases"):
            mix_distributions(pre, rotated, alpha)
    # equal matrices are one basis, whichever object holds them
    again = make_reference_family().distribution("posttrain")
    assert again.basis is not pre.basis
    mixed = mix_distributions(pre, again, 0.5)
    assert mixed.basis is pre.basis
    assert mixed.target_spectrum.tobytes() == mix_distributions(pre, post, 0.5).target_spectrum.tobytes()


def test_distributions_and_bases_compare_and_hash_by_identity():
    # by identity: a dataclass == over the array fields would raise, and so would hash()
    one, two = make_reference_family(), make_reference_family()
    for a, b in ((one.distribution("pretrain"), two.distribution("pretrain")), (one.basis, two.basis)):
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
    # equal content is still one basis to mix_distributions, which compares the arrays
    mixed = mix_distributions(one.distribution("pretrain"), two.distribution("posttrain"), 0.5)
    assert mixed.basis is one.basis


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
        pre, post, 0.5, 10**6, rng
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
    np.testing.assert_array_equal(post.teacher, np.diag(post.target_spectrum))

    rot = make_reference_family(basis_mode="random", basis_seed=5)
    post_r = rot.distribution("posttrain")
    A = post_r.teacher
    np.testing.assert_allclose(
        rot.basis.U.T @ A @ rot.basis.V, np.diag(post_r.target_spectrum), atol=1e-12
    )


def stored_targets(family, alpha):
    """Each stage's and mixture's target vector as the distribution stored it before deriving it.

    A family distribution stored the vector it was built from, and a mixture
    np.where(v > 0, xc / np.where(v > 0, v, 1.0), 0.0) of its mixed moments.
    """
    part, spectra = family.partition, family.spectra
    built = {}
    for stage, inconsistent in (
        ("pretrain", spectra.pre_inconsistent),
        ("posttrain", spectra.post_inconsistent),
        ("finetune", spectra.ft_inconsistent),
    ):
        t = np.zeros(part.n)
        t[part.invariant] = spectra.invariant
        t[part.inconsistent] = inconsistent
        if stage == "posttrain":
            t[part.specialized] = spectra.specialized_target
        built[stage] = t
    pre, post = family.distribution("pretrain"), family.distribution("posttrain")
    for name, d1, d2 in (("mix", pre, post), ("replay", post, pre)):
        v = (1.0 - alpha) * d1.input_variances + alpha * d2.input_variances
        xc = (1.0 - alpha) * d1.cross_covariance + alpha * d2.cross_covariance
        built[name] = np.where(v > 0, xc / np.where(v > 0, v, 1.0), 0.0)
    return built


@pytest.mark.parametrize("basis_mode", ["identity", "random"])
@pytest.mark.parametrize("alpha", [0.01, 0.123, 0.25, 0.3, 0.5])
def test_derived_targets_and_teachers_keep_the_stored_bits(basis_mode, alpha):
    family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
    pre, post = family.distribution("pretrain"), family.distribution("posttrain")
    dists = {stage: family.distribution(stage) for stage in ("pretrain", "posttrain", "finetune")}
    dists["mix"] = mix_distributions(pre, post, alpha)
    dists["replay"] = mix_distributions(post, pre, alpha)
    U, V = family.basis.U, family.basis.V
    for name, want in stored_targets(family, alpha).items():
        dist = dists[name]
        assert dist.basis is family.basis
        assert dist.target_spectrum.tobytes() == want.tobytes(), name
        # the teacher is (U * t) @ V.T, built once and read-only
        assert dist.teacher.tobytes() == ((U * want) @ V.T).tobytes(), name
        assert dist.teacher is dist.teacher
        assert not dist.teacher.flags.writeable and not dist.target_spectrum.flags.writeable


def test_distribution_rejects_bad_vectors():
    one, two = SpectralBasis.identity(1), SpectralBasis.identity(2)
    for variance in (1.5, -0.5, np.nan):
        with pytest.raises(ConfigError, match=r"input variances must lie in \[0, 1\]"):
            StageDistribution(
                label="bad", basis=one, input_variances=np.array([variance]), cross_covariance=np.array([0.0])
            )
    for xc in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            StageDistribution(
                label="bad", basis=one, input_variances=np.array([1.0]), cross_covariance=np.array([xc])
            )
    with pytest.raises(ConfigError, match="share one length"):
        StageDistribution(
            label="bad", basis=two, input_variances=np.array([1.0, 1.0]), cross_covariance=np.array([1.0])
        )
    with pytest.raises(ConfigError, match="vectors and basis must share one length"):
        StageDistribution(
            label="bad", basis=two, input_variances=np.array([1.0]), cross_covariance=np.array([1.0])
        )
    # an unobserved coordinate carries no cross-covariance, so no target
    with pytest.raises(ConfigError, match="zero where the input variance is"):
        StageDistribution(
            label="bad", basis=two, input_variances=np.array([1.0, 0.0]), cross_covariance=np.array([1.0, 3.0])
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


@pytest.mark.parametrize(
    "name, value",
    [
        # every margin stays positive with an infinite invariant value
        ("invariant", np.array([np.inf, 4.0])),
        ("pre_inconsistent", np.array([-np.inf, 0.8])),
        ("post_inconsistent", np.array([3.5, np.nan])),
        ("ft_inconsistent", np.array([np.inf, 0.3])),
        ("specialized_target", np.nan),
        ("mismatch_gap", np.inf),
    ],
)
def test_validator_names_a_non_finite_field(name, value):
    with pytest.raises(TaskValidationError, match=f"^{name} must be finite, got "):
        reference_spectra(**{name: value}).validate(FeaturePartition(n=6, k=2))


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


def _salience_by_scalar_calls(spectra: TaskSpectra, alpha: float) -> tuple[float, str]:
    """The measured margin at alpha and the note's scan, one scalar margin per grid point."""

    def margin(a: float) -> float:
        rhs = (1.0 - a) * spectra.pre_inconsistent + a * spectra.post_inconsistent
        return float(np.min(a * spectra.specialized_target - rhs))

    holding = [float(a) for a in np.linspace(0.0, 1.0, 101) if margin(float(a)) > 0]
    if holding:
        scan = f"holds for {len(holding)}/101 grid points (first at alpha={holding[0]:g})"
    else:
        scan = "fails for every alpha in a 101-point grid"
    return margin(alpha), scan


@st.composite
def salience_spectra(draw):
    k = draw(st.integers(1, 3))
    values = st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k)
    return reference_spectra(
        pre_inconsistent=np.array(draw(values)),
        post_inconsistent=np.array(draw(values)),
        ft_inconsistent=np.array(draw(values)),
        specialized_target=draw(st.floats(0.01, 10.0)),
    )


@given(spectra=salience_spectra(), alpha=st.floats(0.0, 1.0))
@example(  # holds from alpha = 0.2, where the margin is a rounding error
    spectra=reference_spectra(
        pre_inconsistent=np.array([0.5, 0.2]),
        post_inconsistent=np.array([1.0, 1.5]),
        specialized_target=3.0,
    ),
    alpha=0.5,
)
@settings(max_examples=200, deadline=None)
def test_the_salience_scan_matches_one_scalar_margin_per_grid_point(spectra, alpha):
    # spectra the validator refuses, so the scan can also hold: the family is
    # built around them, as check_assumptions reads only its spectra
    family = dataclasses.replace(make_reference_family(), spectra=spectra)
    report = check_assumptions(family, alpha)
    margin, scan = _salience_by_scalar_calls(spectra, alpha)
    assert report.measured["specialized_mixing_salience"] == margin
    assert report.notes[0].endswith(f"; {scan}")


def test_family_distribution_unknown_stage():
    family = make_reference_family()
    with pytest.raises(ConfigError, match="unknown stage"):
        family.distribution("deploy")
