"""Tests for the verification checks and their failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagelab.checks
from stagelab.checks import _idealized_spectrum
from stagelab import (
    CheckReport,
    PreconditionError,
    StageDistribution,
    StagelabError,
    TrainConfig,
    aligned_spectrum,
    check_assumptions,
    check_forgetting_gap,
    check_frozen_directions,
    check_posttrain_routing,
    check_sequential_order,
    check_specialized_acquisition,
    forgetting_lower_bound,
    init_from_spectrum,
    make_reference_family,
    mix_distributions,
    run_all_checks,
    train,
)

# --------------------------------------------------------------- checkpoints


def test_idealized_checkpoints_have_the_advertised_spectra(family):
    mixed = init_from_spectrum(family.basis, _idealized_spectrum(family, "mixed", alpha=0.5))
    diag, offdiag = aligned_spectrum(mixed, family.basis)
    np.testing.assert_allclose(diag, [5, 4, 0, 0, 0.45, 0.45], atol=1e-12)
    assert offdiag == 0.0

    unmixed = init_from_spectrum(family.basis, _idealized_spectrum(family, "unmixed"))
    diag, _ = aligned_spectrum(unmixed, family.basis)
    np.testing.assert_allclose(diag, [5, 4, 1, 0.8, 0, 0], atol=1e-12)

    literal = init_from_spectrum(
        family.basis, _idealized_spectrum(family, "unmixed", literal_inconsistent=True)
    )
    diag, _ = aligned_spectrum(literal, family.basis)
    np.testing.assert_allclose(diag, [5, 4, 3.5, 3.3, 0, 0], atol=1e-12)

    with pytest.raises(StagelabError, match="checkpoint kind"):
        init_from_spectrum(family.basis, _idealized_spectrum(family, "warmstart"))


# --------------------------------------------------------------- acquisition


def test_acquisition_check_passes_with_mixing(family):
    report = check_specialized_acquisition(family, steps=2000)
    assert report.passed
    assert report.measured["worst_ratio"] >= 0.9
    assert report.measured["worst_unmixed"] <= 1e-3
    assert report.measured["least_mixed"] > 1e-3
    spec = np.asarray(report.measured["mixed_specialized"])
    np.testing.assert_allclose(spec, 0.9, atol=1e-6)


def test_acquisition_check_fails_without_any_mixing(family):
    # alpha=0 degenerates the scalar oracle to the init scale, so the ratio
    # alone would pass vacuously; the acquisition floor has to catch it
    report = check_specialized_acquisition(family, alpha=0.0, steps=500)
    assert not report.passed
    assert report.measured["least_mixed"] <= 1e-3


# ----------------------------------------------------------- crossing order


def test_sequential_order_follows_the_cross_covariance(family):
    report = check_sequential_order(family, steps=2000)
    assert report.passed
    crossings = report.measured["crossings"]
    active = [crossings[str(i)] for i in range(4)]
    assert all(c is not None for c in active)
    assert active == sorted(active)
    assert crossings["4"] is None and crossings["5"] is None


def test_sequential_order_with_boosted_specialization_reorders_crossings(family):
    # a tenfold specialized target would fail family validation, so build the
    # boosted posttrain vectors directly; the mixed curriculum then carries
    # cross-covariances (5, 4, 2.25, 2.05, 4.5, 4.5)
    post = family.distribution("posttrain")
    target = post.target_spectrum.copy()
    target[family.partition.specialized] = 9.0
    boosted = StageDistribution(
        label="posttrain",
        input_variances=post.input_variances,
        target_spectrum=target,
        cross_covariance=post.input_variances * target,
    )
    mixed = mix_distributions(family.distribution("pretrain"), boosted, 0.5)
    report = check_sequential_order(family, dist=mixed, steps=2000)
    assert report.passed
    c = {i: report.measured["crossings"][str(i)] for i in range(6)}
    assert c[0] < min(c[4], c[5])
    assert max(c[4], c[5]) < c[1] < c[2] < c[3]


def test_sequential_order_is_invariant_to_halving_the_learning_rate(family):
    fast = check_sequential_order(family, eta=0.05, steps=1500)
    slow = check_sequential_order(family, eta=0.025, steps=3000)
    assert fast.passed and slow.passed

    def order(report):
        return sorted(range(4), key=lambda i: report.measured["crossings"][str(i)])

    assert order(fast) == order(slow) == [0, 1, 2, 3]


# ---------------------------------------------------------- frozen directions


def test_frozen_directions_vacuous_without_dead_coordinates(family):
    post = family.distribution("posttrain")
    init = init_from_spectrum(family.basis, _idealized_spectrum(family, "unmixed"))
    _, traj = train(init, post, family.basis, TrainConfig(eta=0.02, max_steps=10, probe_every=1))
    report = check_frozen_directions(traj, post, family)
    assert report.passed
    assert any("vacuously" in note for note in report.notes)


def test_frozen_directions_hold_for_a_hand_built_distribution(family):
    dist = StageDistribution(
        label="first_coordinate_dead",
        input_variances=np.array([0.0, 1, 1, 1, 1, 1]),
        target_spectrum=np.array([3.0, 2, 2, 2, 2, 2]),
        cross_covariance=np.array([0.0, 2, 2, 2, 2, 2]),
    )
    init = init_from_spectrum(family.basis, np.array([1.7, 0.3, 0.3, 0.3, 0.3, 0.3]))
    _, traj = train(
        init, dist, family.basis, TrainConfig(eta=0.02, max_steps=10_000, probe_every=1)
    )
    report = check_frozen_directions(traj, dist, family)
    assert report.passed
    assert report.measured["frozen_coordinates"] == [0]
    assert report.measured["max_drift"] == 0.0
    assert report.measured["snapshots"] == 10_001


def test_frozen_directions_failure_names_the_drift(family):
    # coordinate 0 is dead in the checked distribution but trained on pretraining data
    dist = StageDistribution(
        label="first_coordinate_dead",
        input_variances=np.array([0.0, 1, 1, 1, 1, 1]),
        target_spectrum=np.array([3.0, 2, 2, 2, 2, 2]),
        cross_covariance=np.array([0.0, 2, 2, 2, 2, 2]),
    )
    init = init_from_spectrum(family.basis, np.array([1.7, 0.3, 0.3, 0.3, 0.3, 0.3]))
    pre = family.distribution("pretrain")
    _, traj = train(init, pre, family.basis, TrainConfig(eta=0.02, max_steps=10, probe_every=1))
    report = check_frozen_directions(traj, dist, family)
    assert not report.passed
    assert report.notes == (
        f"frozen coordinates [0] moved: max_drift {report.measured['max_drift']:.3g} > 0",
    )


# --------------------------------------------------------------- routing


def test_routing_check_passes_and_returns_the_posttrained_states(routing_outcome):
    report, states = routing_outcome
    assert report.passed
    assert set(states) == {"mixed", "unmixed"}
    for kind in ("mixed", "unmixed"):
        block = report.measured[kind]
        assert block["worst_abs_error"] <= 0.1
        assert block["offdiag_max"] <= 1e-6
        assert block["pinned_exactly_zero"] is True
        assert block["oracle_error"] <= 1e-6


def test_routing_check_fails_with_no_posttraining_budget(family):
    report, _ = check_posttrain_routing(family, steps=0)
    assert not report.passed
    # the specialized block is still at alpha * target instead of the target
    assert report.measured["mixed"]["worst_abs_error"] == pytest.approx(0.45, abs=1e-12)


def test_routing_rejects_an_epsilon_beyond_the_ceiling(family):
    with pytest.raises(PreconditionError, match="requires epsilon") as err:
        check_posttrain_routing(family, epsilon=5.1)
    assert "got epsilon = 5.1" in str(err.value)
    with pytest.raises(PreconditionError, match="requires epsilon"):
        check_posttrain_routing(family, epsilon=0.0)


def test_routing_rejects_a_ridge_that_drags_fixed_points(family):
    # the unmixed arm's ridge pulls its inconsistent limit 0.049 off the
    # target, more than epsilon / 2 = 0.025
    with pytest.raises(PreconditionError, match="exceeds epsilon / 2"):
        check_posttrain_routing(family, epsilon=0.05)


@pytest.mark.parametrize("epsilon, match", [(5.1, "requires epsilon"), (0.05, "exceeds epsilon / 2")])
def test_routing_preconditions_fail_before_any_training(family, monkeypatch, epsilon, match):
    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr(stagelab.checks, "train", counting_train)
    with pytest.raises(PreconditionError, match=match):
        check_posttrain_routing(family, epsilon=epsilon)
    assert calls == []


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_routing_preconditions_hold_in_a_random_basis(seed):
    # rounding leaves about 1e-16 on the zero coordinates of a random-basis
    # checkpoint; those coordinates are still pinned, not moving
    family = make_reference_family(basis_mode="random", basis_seed=seed)
    _, states = check_posttrain_routing(family, steps=100)
    assert set(states) == {"mixed", "unmixed"}


# --------------------------------------------------------------- forgetting


def test_forgetting_gap_check_passes_from_routing_states(family, routing_outcome):
    _, states = routing_outcome
    report = check_forgetting_gap(family, posttrain_states=states)
    assert report.passed
    assert report.measured["delta_mixed"] == 0.0
    assert report.measured["delta_unmixed"] >= 6.48
    assert report.measured["lower_bound"] == pytest.approx(6.48, rel=1e-12)


def test_forgetting_gap_fails_without_finetuning(family, routing_outcome):
    _, states = routing_outcome
    report = check_forgetting_gap(family, ft_steps=0, posttrain_states=states)
    assert not report.passed
    assert report.measured["delta_unmixed"] == 0.0
    assert any(note.startswith("delta_unmixed 0 < lower_bound") for note in report.notes)


def test_lower_bound_can_go_negative_inside_the_routing_ceiling():
    # the routing precondition alone admits epsilon = 4 for gap 2, beta 0.9
    # (ceiling 5), yet the bound is negative there; positivity needs eps <= gap/4
    assert forgetting_lower_bound(1, 2.0, 0.9, 4.0) < 0
    assert forgetting_lower_bound(2, 2.0, 0.9, 0.1) == pytest.approx(6.48, rel=1e-12)


def test_lower_bound_overflows_to_inf():
    assert forgetting_lower_bound(2, 1e200, 0.9, 0.1) == math.inf


@given(
    k=st.integers(min_value=1, max_value=5),
    gap=st.floats(min_value=0.1, max_value=10.0),
    beta_frac=st.floats(min_value=0.0, max_value=0.49),
    eps_frac=st.floats(min_value=1e-3, max_value=0.24),
)
@settings(max_examples=200, deadline=None)
def test_lower_bound_is_positive_up_to_a_quarter_of_the_gap(k, gap, beta_frac, eps_frac):
    bound = forgetting_lower_bound(k, gap, beta_frac * gap, eps_frac * gap)
    assert bound > 0.0


# --------------------------------------------------------- composite runs


def test_literal_reading_runs_side_by_side(family):
    reports = run_all_checks(
        family, literal_inconsistent=True, acquisition_steps=2000, routing_steps=2000
    )
    assert [r.name for r in reports] == [
        "structural_assumptions",
        "specialized_acquisition",
        "sequential_order",
        "posttrain_routing",
        "frozen_directions",
        "forgetting_gap",
        "posttrain_routing_literal",
        "forgetting_gap_literal",
    ]
    assert all(r.passed for r in reports)
    literal = reports[-1]
    # the literal checkpoint starts at the posttrain values, so finetuning to
    # (0.5, 0.3) costs (3)^2 + (3)^2 on the posttrain loss: exactly 18
    assert literal.measured["delta_unmixed"] == pytest.approx(18.0, rel=1e-9)


def test_assumptions_check_reports_structural_margins(family):
    report = check_assumptions(family)
    assert report.passed
    assert len(report.measured) == 6
    assert any("diagnostic" in note for note in report.notes)


def test_check_report_details_render_full_precision():
    report = CheckReport(
        name="demo",
        passed=True,
        measured={"x": 0.1, "flag": True, "values": [1.5, 2.0]},
        thresholds={"tol": 1e-6},
    )
    text = report.details()
    assert text.splitlines()[0] == "[PASS] demo"
    assert "x = 0.10000000000000001" in text
    assert "flag = True" in text
    assert "values = [1.5, 2.0]" in text
    assert report.summary() == "[PASS] demo"


def test_reports_are_reproducible(family):
    first, _ = check_posttrain_routing(family, steps=300)
    second, _ = check_posttrain_routing(family, steps=300)
    assert first.details() == second.details()
