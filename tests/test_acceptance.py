"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints one [PASS] line with its headline numbers (visible under
pytest -s; under plain pytest the test names themselves give the per-criterion
verdicts).  Expected values marked "frozen" were computed once from
independent oracles and pinned; loosening them is not allowed.
"""

import time

import numpy as np
import pytest

from oracles import (
    finite_difference_gradients,
    hypervolume_monte_carlo,
    pareto_front_quadratic,
    scalar_trajectory,
    worst_gradient_discrepancy,
)
from stagelab import (
    NetworkState,
    StagePlan,
    TrainConfig,
    check_forgetting_gap,
    check_frozen_directions,
    check_sequential_order,
    check_specialized_acquisition,
    compute_matched_plans,
    continue_from_pretrained,
    dominates,
    init_from_spectrum,
    init_scaled_identity,
    pareto_front,
    points_from_records,
    population_gradient,
    population_loss,
    run_pipeline,
    train,
)
from stagelab.cli import main
from stagelab.frontier import FrontierPoint, hypervolume


def test_c01_gradients_match_finite_differences(family):
    """Exact gradients agree with central differences on random dense states."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    dists = [family.distribution(s) for s in ("pretrain", "posttrain", "finetune")]
    worst = 0.0
    for _ in range(20):
        state = NetworkState(W1=rng.standard_normal((6, 6)), W2=rng.standard_normal((6, 6)))
        for dist in dists:
            G1, G2 = population_gradient(state, dist)
            F1, F2 = finite_difference_gradients(state, dist)
            worst = max(
                worst, worst_gradient_discrepancy(G1, F1), worst_gradient_discrepancy(G2, F2)
            )
    dt = time.perf_counter() - t0
    assert worst <= 1.0  # |err| <= 1e-8 + 1e-5 * |exact| everywhere
    assert dt < 5.0
    print(f"[PASS] C1 gradient agreement: worst mixed-tolerance ratio {worst:.3f} <= 1 ({dt:.2f}s)")


def test_c02_specialized_directions_freeze_under_finetuning(family):
    """Aligned specialized entries stay bitwise constant over 1e4 stage-3 steps."""
    t0 = time.perf_counter()
    start = init_from_spectrum(family.basis, np.array([5.0, 4.0, 0.0, 0.0, 0.9, 0.9]))
    ft = family.distribution("finetune")
    _, traj = train(
        start, ft, TrainConfig(eta=0.02, max_steps=10_000, probe_every=1)
    )
    diags = traj.diagonals()
    spec = diags[:, family.partition.specialized]
    assert diags.shape[0] == 10_001
    assert np.all(spec == spec[0])  # zero tolerance
    report = check_frozen_directions(traj, ft)
    assert report.passed
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"[PASS] C2 frozen specialization: {spec.shape[0]} snapshots bitwise constant ({dt:.2f}s)")


def test_c03_matrix_dynamics_match_the_scalar_recursion(family, tau12_init):
    """Aligned diagonal of full matrix descent equals the per-coordinate recursion."""
    t0 = time.perf_counter()
    pre = family.distribution("pretrain")
    _, traj = train(
        tau12_init, pre, TrainConfig(eta=0.02, max_steps=10_000, probe_every=1)
    )
    expected = scalar_trajectory(
        np.diag(tau12_init.theta), pre.input_variances, pre.target_spectrum, 0.02, 10_000
    )
    drift = float(np.max(np.abs(traj.diagonals() - expected)))
    dt = time.perf_counter() - t0
    assert drift <= 1e-8
    assert dt < 10.0
    print(f"[PASS] C3 diagonal equivalence: max drift {drift:.3e} <= 1e-8 over 1e4 steps ({dt:.2f}s)")


def test_c04_crossing_order_follows_the_input_target_alignment(family):
    """Unmixed pretraining learns coordinates in descending cross-covariance order."""
    t0 = time.perf_counter()
    report = check_sequential_order(family)
    assert report.passed
    crossings = report.measured["crossings"]
    active = [crossings[str(i)] for i in range(4)]
    assert all(c is not None for c in active)
    assert active == sorted(active) and len(set(active)) == 4
    assert crossings["4"] is None and crossings["5"] is None  # never activate in 4e4 steps
    dt = time.perf_counter() - t0
    assert dt < 15.0
    print(f"[PASS] C4 sequential order: crossings {active}, dead directions never cross ({dt:.2f}s)")


def test_c05_mixing_acquires_the_specialized_skill(family):
    """Mixed pretraining reaches >= 0.9x its scalar-limit on specialized coordinates."""
    t0 = time.perf_counter()
    report = check_specialized_acquisition(family)
    assert report.passed
    assert report.measured["worst_ratio"] >= 0.9
    assert report.measured["worst_unmixed"] <= 1e-3
    dt = time.perf_counter() - t0
    assert dt < 15.0
    print(
        "[PASS] C5 specialized acquisition: mixed ratio "
        f"{report.measured['worst_ratio']:.6f} >= 0.9, unmixed "
        f"{report.measured['worst_unmixed']:.2e} <= 1e-3 ({dt:.2f}s)"
    )


def test_c06_posttraining_routes_by_pretraining_history(routing_outcome):
    """Posttraining lands within 0.1 of stage targets; saddle blocks stay exactly zero."""
    report, _ = routing_outcome
    assert report.passed
    for kind in ("mixed", "unmixed"):
        arm = report.measured[kind]
        assert arm["worst_abs_error"] <= 0.1
        assert arm["offdiag_max"] <= 1e-6
        assert arm["pinned_exactly_zero"] is True
        assert arm["oracle_error"] <= 1e-6
    mixed_final = np.asarray(report.measured["mixed"]["final_diag"])
    assert np.all(mixed_final[2:4] == 0.0)  # mixed arm's inconsistent block: exactly zero
    print(
        "[PASS] C6 routing: worst errors "
        f"mixed {report.measured['mixed']['worst_abs_error']:.2e}, "
        f"unmixed {report.measured['unmixed']['worst_abs_error']:.2e} <= 0.1; "
        "pinned blocks exactly zero"
    )


def test_c07_forgetting_gap_between_the_two_arms(family, routing_outcome):
    """Finetune leaves the mixed arm intact and costs the unmixed arm >= the bound."""
    _, states = routing_outcome
    report = check_forgetting_gap(family, posttrain_states=states)
    assert report.passed
    assert abs(report.measured["delta_mixed"]) <= 1e-8
    assert report.measured["delta_unmixed"] >= 6.48
    print(
        f"[PASS] C7 forgetting gap: mixed delta {report.measured['delta_mixed']:.1e} <= 1e-8, "
        f"unmixed delta {report.measured['delta_unmixed']:.4f} >= 6.48"
    )


def test_c08_mixed_frontier_dominates_the_unmixed_frontier(frontier_sweep):
    """Retention/adaptation frontier of mixed runs weakly dominates the unmixed one."""
    runs = frontier_sweep
    assert len(runs) == 30 and all(r.succeeded for r in runs)
    records = []
    for r in runs:
        rec = {"run_id": r.run_id, "mix_fraction": r.plans[0].mix_fraction}
        rec.update(r.metrics)
        records.append(rec)
    mixed_pts = points_from_records([r for r in records if r["mix_fraction"] > 0])
    unmixed_pts = points_from_records([r for r in records if r["mix_fraction"] == 0])
    front_mixed = pareto_front(mixed_pts)
    front_unmixed = pareto_front(unmixed_pts)
    report = dominates(front_mixed, front_unmixed, tol=1e-6)
    assert report.fraction_weak == 1.0
    assert report.strict_count >= 1
    separation = min(p.x for p in unmixed_pts) - min(p.x for p in mixed_pts)
    assert separation >= 1.0
    assert separation == pytest.approx(1.6135164, abs=1e-5)  # frozen
    print(
        f"[PASS] C8 frontier dominance: weak fraction 1.0, strict {report.strict_count}, "
        f"best-retention separation {separation:.4f} >= 1.0"
    )


def test_c09_budget_reallocation_trades_immediacy_for_retention(family, base_pretrained):
    """Shifting a fixed step budget from stage 2 to mixed stage 1 raises the immediate
    posttrain loss monotonically while lowering the post-finetune retention loss."""
    t0 = time.perf_counter()
    template1 = StagePlan("pretrain", 1, 0.018, mix_fraction=0.5)
    template2 = StagePlan("posttrain", 1, 0.00065)
    ft = StagePlan("finetune", 1500, 0.02)
    allocs = (0.0, 0.25, 0.5, 0.75, 1.0)
    l_im, l_ret, splits = [], [], []
    for alloc in allocs:
        plan1, plan2 = compute_matched_plans(800, alloc, template1, template2)
        run = run_pipeline(family, (plan1, plan2, ft), base_pretrained, run_id=f"alloc{alloc:g}")
        assert run.succeeded
        splits.append((plan1.steps, plan2.steps))
        l_im.append(run.metrics["L_im"])
        l_ret.append(run.metrics["L_ret"])
    assert splits == [(0, 800), (200, 600), (400, 400), (600, 200), (800, 0)]
    slack = 1e-3
    assert all(b >= a - slack for a, b in zip(l_im, l_im[1:]))
    assert all(b <= a + slack for a, b in zip(l_ret, l_ret[1:]))
    assert l_im[-1] > l_im[0] and l_ret[-1] < l_ret[0]  # strict at the endpoints
    # frozen trajectories of both losses across the allocation grid
    np.testing.assert_allclose(
        l_im, [1.6201452056, 1.6201954988, 1.6263057585, 1.7577179530, 3.1540937076], atol=1e-8
    )
    np.testing.assert_allclose(
        l_ret, [19.6199999991, 19.6199996578, 19.6198673147, 19.5697369288, 18.0290937076],
        atol=1e-8,
    )
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(
        f"[PASS] C9 compute-matched: L_im {l_im[0]:.4f}->{l_im[-1]:.4f} nondecreasing, "
        f"L_ret {l_ret[0]:.4f}->{l_ret[-1]:.4f} nonincreasing ({dt:.2f}s)"
    )


def test_c10_replay_preserves_pretraining_performance(family, base_pretrained):
    """A small replay fraction in stage 2 strictly lowers the pretraining-data loss."""
    t0 = time.perf_counter()
    losses = {}
    d_pre = family.distribution("pretrain")
    for rho in (0.0, 0.1):
        plans = (
            StagePlan("pretrain", 3000, 0.02),
            StagePlan("posttrain", 2000, 0.02, replay_fraction=rho),
            StagePlan("finetune", 0, 0.02),
        )
        run = continue_from_pretrained(family, base_pretrained, plans, run_id=f"rho{rho:g}")
        assert run.succeeded
        losses[rho] = population_loss(run.posttrained, d_pre)
    margin = losses[0.0] - losses[0.1]
    assert margin >= 1e-3
    assert losses[0.0] == pytest.approx(12.5, abs=1e-9)  # frozen
    assert losses[0.1] == pytest.approx(10.125, abs=1e-9)  # frozen
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(
        f"[PASS] C10 replay retention: {losses[0.0]:.4f} (none) vs {losses[0.1]:.4f} (10%), "
        f"margin {margin:.4f} >= 1e-3 ({dt:.2f}s)"
    )


def test_c11_frontier_code_matches_independent_oracles():
    """Fast frontier extraction equals the all-pairs scan; hypervolume matches MC."""
    t0 = time.perf_counter()
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        m = int(rng.integers(1, 201))
        pts = [
            FrontierPoint(
                float(rng.integers(0, 30)) / 3.0,
                float(rng.integers(0, 30)) / 3.0,
                f"run{i:03d}",
            )
            for i in range(m)
        ]
        assert list(pareto_front(pts)) == pareto_front_quadratic(pts)

    rng = np.random.default_rng(20260825)
    worst_z = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 40))
        pts = [
            FrontierPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), f"r{i}")
            for i in range(m)
        ]
        front = pareto_front(pts)
        exact = hypervolume(front, (1.1, 1.1))
        est, se = hypervolume_monte_carlo(front, (1.1, 1.1), 10**6, rng)
        if se == 0.0:
            assert est == exact
            continue
        worst_z = max(worst_z, abs(est - exact) / se)
    dt = time.perf_counter() - t0
    assert worst_z < 3.0
    assert dt < 20.0
    print(
        f"[PASS] C11 frontier oracles: 100 exact matches, Monte-Carlo worst |z| "
        f"{worst_z:.3f} < 3 over 50 fronts ({dt:.2f}s)"
    )


def test_c12_cli_reruns_are_byte_identical(tmp_path):
    """simulate and sweep with the same config and seed write identical bytes."""
    t0 = time.perf_counter()
    sim_cfg = tmp_path / "sim.ini"
    sim_cfg.write_text(
        "[pretrain]\nsteps = 300\nmix_fraction = 0.5\n[posttrain]\nsteps = 200\n"
        "[finetune]\nsteps = 200\n"
    )
    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text(
        "[pretrain]\nsteps = 300\n[sweep]\nmix_fractions = 0.0, 0.5\neta2 = 0.02\n"
        "eta3 = 0.05\nsteps2 = 100\nsteps3 = 100\n"
    )
    pairs = []
    for name, cfg, files in (
        ("simulate", sim_cfg, ["runs.jsonl"]),
        ("sweep", sweep_cfg, ["runs.jsonl", "sweep.csv"]),
    ):
        outs = (tmp_path / f"{name}_a", tmp_path / f"{name}_b")
        for out in outs:
            assert main(["--config", str(cfg), "--out", str(out), "--seed", "7", name]) == 0
        for fname in files:
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b and len(a) > 0
            pairs.append(f"{name}/{fname}")
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"[PASS] C12 deterministic records: {', '.join(pairs)} byte-identical ({dt:.2f}s)")
