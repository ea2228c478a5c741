"""Pipeline staging, compute-matched splits, sweeps, and metric bookkeeping."""

import csv
import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagelab import (
    ConfigError,
    FeaturePartition,
    StageDistribution,
    StagePlan,
    TaskSpectra,
    aligned_spectrum,
    build_task_family,
    compute_matched_plans,
    init_scaled_identity,
    loads_config,
    make_reference_family,
    make_run_id,
    pipeline_run_record,
    population_loss,
    run_pipeline,
    run_sweep,
    stage_training_distribution,
    sweep_to_csv,
)
from stagelab import network, pipeline
from stagelab.cli import main
from stagelab.records import CSV_COLUMNS


def small_plans(mix: float = 0.5):
    return (
        StagePlan("pretrain", 300, 0.02, mix_fraction=mix),
        StagePlan("posttrain", 300, 0.02),
        StagePlan("finetune", 300, 0.02),
    )


def hot_family():
    """Valid family whose teacher values blow up a eta=0.06 run."""
    spectra = TaskSpectra(
        invariant=np.array([50.0, 40.0]),
        pre_inconsistent=np.array([1.0, 0.8]),
        post_inconsistent=np.array([3.5, 3.3]),
        ft_inconsistent=np.array([0.5, 0.3]),
        specialized_target=0.9,
        mismatch_gap=2.0,
    )
    return build_task_family(FeaturePartition(n=6, k=2), spectra)


# ------------------------------------------------------------------ StagePlan


def test_stage_plan_rejects_misplaced_knobs():
    with pytest.raises(ConfigError, match="mix_fraction applies to the pretrain stage"):
        StagePlan(stage="posttrain", steps=10, eta=0.01, mix_fraction=0.5)
    with pytest.raises(ConfigError, match="replay_fraction applies to the posttrain stage"):
        StagePlan(stage="pretrain", steps=10, eta=0.01, replay_fraction=0.5)
    with pytest.raises(ConfigError, match="always unregularized"):
        StagePlan(stage="finetune", steps=10, eta=0.01, ridge_lambda=0.1)
    with pytest.raises(ConfigError, match="unknown stage"):
        StagePlan(stage="deploy", steps=10, eta=0.01)
    with pytest.raises(ConfigError, match="steps must be nonnegative"):
        StagePlan("finetune", -1, 0.01)
    with pytest.raises(ConfigError, match=r"mix_fraction must lie in \[0, 1\]"):
        StagePlan("pretrain", 10, 0.01, mix_fraction=1.5)


def test_stage_plan_budget_accounts_for_the_ridge():
    # eta alone is fine, but the ridge term pushes the stability budget over 1
    StagePlan("posttrain", 10, 0.03)
    with pytest.raises(ConfigError, match="budget"):
        StagePlan("posttrain", 10, 0.03, ridge_lambda=2.5)


def test_stage_training_distributions_mix_as_documented():
    family = make_reference_family()
    mixed = stage_training_distribution(family, StagePlan("pretrain", 10, 0.02, mix_fraction=0.5))
    np.testing.assert_array_equal(mixed.input_variances, [1, 1, 1, 1, 0.5, 0.5])
    np.testing.assert_array_equal(mixed.cross_covariance, [5, 4, 2.25, 2.05, 0.45, 0.45])

    replayed = stage_training_distribution(
        family, StagePlan("posttrain", 10, 0.02, replay_fraction=0.1)
    )
    np.testing.assert_allclose(replayed.input_variances, [1, 1, 1, 1, 0.9, 0.9])
    np.testing.assert_allclose(replayed.cross_covariance, [5, 4, 3.25, 3.05, 0.81, 0.81])

    ft = stage_training_distribution(family, StagePlan("finetune", 10, 0.02))
    assert ft is family.distribution("finetune")


# --------------------------------------------------------- compute matching


def test_compute_matched_split_example():
    t1 = StagePlan("pretrain", 1, 0.018, mix_fraction=0.5)
    t2 = StagePlan("posttrain", 1, 0.001)
    p1, p2 = compute_matched_plans(1000, 0.25, t1, t2)
    assert (p1.steps, p2.steps) == (250, 750)
    assert p1.mix_fraction == 0.5 and p1.eta == 0.018
    assert p2.eta == 0.001 and p2.stage == "posttrain"


def test_compute_matched_grid_is_exactly_conserved():
    t1 = StagePlan("pretrain", 1, 0.02, mix_fraction=0.5)
    t2 = StagePlan("posttrain", 1, 0.02)
    splits = [compute_matched_plans(800, a, t1, t2) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert [(p1.steps, p2.steps) for p1, p2 in splits] == [
        (0, 800), (200, 600), (400, 400), (600, 200), (800, 0),
    ]


@given(
    total=st.integers(min_value=0, max_value=5000),
    alloc=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_compute_matched_budget_conservation(total, alloc):
    t1 = StagePlan("pretrain", 1, 0.02, mix_fraction=0.5)
    t2 = StagePlan("posttrain", 1, 0.02)
    p1, p2 = compute_matched_plans(total, alloc, t1, t2)
    assert p1.steps + p2.steps == total
    assert p1.steps >= 0 and p2.steps >= 0


def test_compute_matched_rejects_bad_arguments():
    t1 = StagePlan("pretrain", 1, 0.02)
    t2 = StagePlan("posttrain", 1, 0.02)
    with pytest.raises(ConfigError, match="total_budget"):
        compute_matched_plans(-1, 0.5, t1, t2)
    with pytest.raises(ConfigError, match="alloc_fraction"):
        compute_matched_plans(100, 1.5, t1, t2)


# -------------------------------------------------------------- run_pipeline


def test_run_pipeline_requires_ordered_stage_plans():
    family = make_reference_family()
    init = init_scaled_identity(6, 12.0)
    p1, p2, p3 = small_plans()
    with pytest.raises(ConfigError, match="expected plans for stages"):
        run_pipeline(family, (p2, p1, p3), init)


def test_zero_finetune_steps_means_zero_forgetting(family, tau12_init):
    p1, p2, _ = small_plans()
    run = run_pipeline(family, (p1, p2, StagePlan("finetune", 0, 0.02)), tau12_init)
    assert run.succeeded
    np.testing.assert_array_equal(run.finetuned.W1, run.posttrained.W1)
    np.testing.assert_array_equal(run.finetuned.W2, run.posttrained.W2)
    assert run.metrics["delta"] == 0.0


def test_metrics_are_recomputable_from_the_checkpoints():
    # each metric is exactly population_loss on its checkpoint and distribution
    for basis_mode in ("identity", "random"):
        family = make_reference_family(basis_mode=basis_mode, basis_seed=3)
        run = run_pipeline(family, small_plans(), init_scaled_identity(family.n, 12.0, family.basis))

        def loss(state, stage):
            return population_loss(state, family.distribution(stage))

        m = run.metrics
        assert list(m) == ["L_im", "L_ret", "L_ft", "L_pre", "delta"]
        assert m["L_im"] == loss(run.posttrained, "posttrain")
        assert m["L_ret"] == loss(run.finetuned, "posttrain")
        assert m["L_ft"] == loss(run.finetuned, "finetune")
        assert m["L_pre"] == loss(run.finetuned, "pretrain")
        assert m["delta"] == m["L_ret"] - m["L_im"]


def test_specialized_coordinates_survive_finetuning_bitwise(family, tau12_init):
    run = run_pipeline(family, small_plans(mix=0.5), tau12_init)
    post_diag, _ = aligned_spectrum(run.posttrained, family.basis)
    ft_diag, _ = aligned_spectrum(run.finetuned, family.basis)
    spec = family.partition.specialized
    np.testing.assert_array_equal(ft_diag[spec], post_diag[spec])
    assert post_diag[spec][0] > 0.5  # the mixed arm actually acquired them


def test_ridge_anchor_is_the_stage1_checkpoint(family, base_pretrained):
    # with a strong ridge the inconsistent block settles at the convex blend
    # (v * post_target + lambda * pretrain_value) / (v + lambda)
    plans = (
        StagePlan("pretrain", 3000, 0.02),
        StagePlan("posttrain", 4000, 0.02, ridge_lambda=0.5),
        StagePlan("finetune", 0, 0.02),
    )
    run = run_pipeline(family, plans, init_scaled_identity(6, 12.0, family.basis))
    diag, _ = aligned_spectrum(run.posttrained, family.basis)
    pre_diag, _ = aligned_spectrum(base_pretrained, family.basis)
    want = (np.array([3.5, 3.3]) + 0.5 * pre_diag[2:4]) / 1.5
    np.testing.assert_allclose(diag[2:4], want, atol=1e-6)


def test_pipeline_reports_the_diverging_stage():
    family = hot_family()
    init = init_scaled_identity(6, 12.0)
    plans = (
        StagePlan("pretrain", 1000, 0.06),
        StagePlan("posttrain", 100, 0.02),
        StagePlan("finetune", 100, 0.02),
    )
    run = run_pipeline(family, plans, init)
    assert not run.succeeded
    assert run.failed_stage == "pretrain"
    assert run.metrics is None and run.pretrained is None


# -------------------------------------------------------------------- sweeps


def test_sweep_singleton_matches_run_pipeline(family, tau12_init):
    plans = small_plans()
    runs = list(run_sweep(family, tau12_init, [plans]))
    assert len(runs) == 1
    single = run_pipeline(family, plans, tau12_init, run_id=runs[0].run_id)
    assert runs[0].run_id == single.run_id
    assert runs[0].metrics == single.metrics
    np.testing.assert_array_equal(runs[0].finetuned.W1, single.finetuned.W1)


def test_sweep_trains_each_stage1_plan_once(family, tau12_init):
    p1, p2, p3 = small_plans()
    p2b = StagePlan("posttrain", 150, 0.02)
    p3b = StagePlan("finetune", 150, 0.02)
    runs = list(run_sweep(family, tau12_init, itertools.product([p1], [p2, p2b], [p3, p3b])))
    assert len(runs) == 4
    assert all(run.pretrained is runs[0].pretrained for run in runs)
    assert len({run.run_id for run in runs}) == 4


def test_sweep_keeps_diverged_runs_and_csv_omits_them(tmp_path):
    family = hot_family()
    init = init_scaled_identity(6, 12.0)
    good = StagePlan("pretrain", 200, 0.002)
    bad = StagePlan("pretrain", 1000, 0.06)
    p2 = StagePlan("posttrain", 50, 0.002)
    p3 = StagePlan("finetune", 50, 0.002)
    runs = list(run_sweep(family, init, [(good, p2, p3), (bad, p2, p3)]))
    assert len(runs) == 2
    assert runs[0].succeeded and not runs[1].succeeded
    assert runs[1].failed_stage == "pretrain"

    path = tmp_path / "sweep.csv"
    sweep_to_csv([pipeline_run_record(r, seed=0, config_hash="") for r in runs], str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2  # header plus the one completed run
    assert rows[1][0] == runs[0].run_id
    assert float(rows[1][CSV_COLUMNS.index("L_im")]) == runs[0].metrics["L_im"]


def test_run_id_encodes_the_swept_hyperparameters():
    p1 = StagePlan("pretrain", 3000, 0.02, mix_fraction=0.5)
    p2 = StagePlan("posttrain", 250, 0.02)
    p3 = StagePlan("finetune", 300, 0.05)
    assert make_run_id(p1, p2, p3) == "m0.5-s1_3000-r0-l0-e2_0.02-s2_250-e3_0.05-s3_300"


def test_a_signed_zero_is_one_plan_with_one_run_id_and_record():
    p2, p3 = StagePlan("posttrain", 250, 0.02), StagePlan("finetune", 300, 0.05)
    plus = (StagePlan("pretrain", 3000, 0.02, mix_fraction=0.0), p2, p3)
    minus = (StagePlan("pretrain", 3000, 0.02, mix_fraction=-0.0), p2, p3)
    assert make_run_id(*minus) == make_run_id(*plus) == "m0-s1_3000-r0-l0-e2_0.02-s2_250-e3_0.05-s3_300"
    assert not np.signbit(minus[0].mix_fraction)
    for name in ("replay_fraction", "ridge_lambda"):
        signed = StagePlan("posttrain", 250, 0.02, **{name: -0.0})
        assert not np.signbit(getattr(signed, name))
        assert make_run_id(plus[0], signed, p3) == make_run_id(*plus)


def test_a_default_sweep_builds_one_teacher_per_distribution(monkeypatch):
    # 30 runs train on 4 distributions (the three stages and the one
    # mixture), and each builds its teacher once, on first use
    cfg = loads_config("[pretrain]\nsteps = 30\n[sweep]\nsteps2 = 20\nsteps3 = 20\n")
    family = cfg.task_family()
    built = []
    teacher = StageDistribution.__dict__["teacher"]

    def counted(dist):
        built.append(dist)
        return teacher.func(dist)

    counting = functools.cached_property(counted)
    counting.__set_name__(StageDistribution, "teacher")
    monkeypatch.setattr(StageDistribution, "teacher", counting)
    runs = list(run_sweep(family, cfg.init_state(family), itertools.product(*cfg.sweep_plans())))
    assert len(runs) == 30 and all(run.succeeded for run in runs)
    assert len(built) == len({id(dist) for dist in built}) == 4
    labels = ["finetune", "mix(pretrain, posttrain, 0.5)", "posttrain", "pretrain"]
    assert sorted(dist.label for dist in built) == labels


def test_two_sweeps_each_train_their_own_stage2(family, tau12_init):
    # 1 stage-1, 2 stage-2 and 2 stage-3 plans: the 4 runs call train() 1 + 4 * 2
    # times, and each sweep trains each stage-2 plan once, with a memo of its own
    p1, p2, p3 = small_plans()
    posttrains, finetunes = [p2, StagePlan("posttrain", 150, 0.02)], [p3, StagePlan("finetune", 150, 0.02)]
    tasks = list(itertools.product([p1], posttrains, finetunes))
    with mock.patch.object(pipeline, "train", wraps=pipeline.train) as called, \
            mock.patch.object(network, "_train", wraps=network._train) as trained:
        first = list(run_sweep(family, tau12_init, tasks))
        assert (called.call_count, trained.call_count) == (9, 1 + 2 + 4)
        second = list(run_sweep(family, tau12_init, tasks))
        assert (called.call_count, trained.call_count) == (18, 14)
    # only stage 2 gets a memo, one dict per sweep
    memos = [(call.args[1].label, call.kwargs["memo"]) for call in called.call_args_list]
    assert {label for label, memo in memos if memo is not None} == {"posttrain"}
    assert len({id(memo) for _, memo in memos if memo is not None}) == 2
    for a, b in zip(first, second, strict=True):
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.finetuned.W1, b.finetuned.W1)


@pytest.mark.parametrize("basis", ["identity", "random"])
def test_a_default_sweep_writes_the_bytes_it_writes_without_the_memo(basis, tmp_path, monkeypatch):
    ini = tmp_path / "grid.ini"
    ini.write_text(f"[task]\nbasis = {basis}\nbasis_seed = 4\n")

    def trainings(out):
        with mock.patch.object(network, "_train", wraps=network._train) as trained:
            assert main(["--config", str(ini), "--out", str(out), "sweep"]) == 0
        return trained.call_count

    # 2 stage-1, 6 stage-2 and 30 stage-3 trainings, against 30 stage-2 ones.
    # In the random basis the lock-step groups step stages 2 and 3, and only
    # the 2 stage-1 trainings reach train()'s uncached body
    assert trainings(tmp_path / "memo") == {"identity": 38, "random": 2}[basis]
    monkeypatch.setattr(pipeline, "train_lockstep", lambda *args, **kwargs: None)
    assert trainings(tmp_path / "serial") == 38
    original = pipeline.train
    monkeypatch.setattr(pipeline, "train", lambda *args, memo=None, **kwargs: original(*args, **kwargs))
    assert trainings(tmp_path / "plain") == 62
    for file in ("runs.jsonl", "sweep.csv"):
        plain = (tmp_path / "plain" / file).read_bytes()
        assert (tmp_path / "memo" / file).read_bytes() == plain
        assert (tmp_path / "serial" / file).read_bytes() == plain


@pytest.mark.parametrize("seed", range(6))
def test_a_lockstep_sweep_writes_the_bytes_of_a_serial_one(seed, tmp_path):
    # the default grid, and one with a ridge and a replay mixture, which is a
    # new distribution on every build, so its groups are found by content
    grids = {
        "default": "",
        "ridge": "[pretrain]\nsteps = 400\n[sweep]\nmix_fractions = 0.0, 0.3\neta2 = 0.01, 0.02\n"
                 "eta3 = 0.001, 0.01, 0.05\nsteps2 = 120\nsteps3 = 90\nridge_lambda = 0.1\nreplay_fraction = 0.05\n",
    }
    for name, grid in grids.items():
        ini = tmp_path / f"{name}.ini"
        ini.write_text(f"[task]\nbasis = random\nbasis_seed = {seed}\n{grid}")
        with mock.patch.object(pipeline, "train_lockstep", wraps=pipeline.train_lockstep) as batched, \
                mock.patch.object(network, "_train", wraps=network._train) as trained:
            assert main(["--config", str(ini), "--out", str(tmp_path / name / "lockstep"), "sweep"]) == 0
        # one stage-2 group per stage-1 plan and one stage-3 group per
        # (stage-1, stage-2) pair; only stage 1 steps in train()
        assert (batched.call_count, trained.call_count) == {"default": (8, 2), "ridge": (6, 2)}[name]
        with mock.patch.object(pipeline, "train_lockstep", lambda *args, **kwargs: None):
            assert main(["--config", str(ini), "--out", str(tmp_path / name / "serial"), "sweep"]) == 0
        for file in ("runs.jsonl", "sweep.csv"):
            serial = (tmp_path / name / "serial" / file).read_bytes()
            assert (tmp_path / name / "lockstep" / file).read_bytes() == serial, (name, file)


def test_mixed_pretraining_retains_the_specialized_skill(frontier_sweep):
    # matched hyperparameters, only the stage-1 mixing differs: the unmixed
    # arm pays the full specialized penalty k * specialized_target^2 = 1.62
    by_id = {run.run_id: run for run in frontier_sweep}
    mixed = by_id["m0.5-s1_3000-r0-l0-e2_0.008-s2_250-e3_0.05-s3_300"]
    unmixed = by_id["m0-s1_3000-r0-l0-e2_0.008-s2_250-e3_0.05-s3_300"]
    gap = unmixed.metrics["L_ret"] - mixed.metrics["L_ret"]
    assert gap >= 1.0
    assert gap == pytest.approx(1.62, abs=0.01)


def test_random_basis_sweep_is_the_identity_sweep_up_to_rounding():
    # A random basis conjugates every teacher, covariance and the init by the
    # orthogonal pair (U, V), so in exact arithmetic each run's losses are its
    # identity twin's; only rounding may tell them apart.
    def default_sweep(text):
        cfg = loads_config(text)
        family = cfg.task_family()
        tasks = itertools.product(*cfg.sweep_plans())
        return [run.metrics for run in run_sweep(family, cfg.init_state(family), tasks)]

    identity = default_sweep("")
    assert len(identity) == 30
    for seed in range(6):
        rotated = default_sweep(f"[task]\nbasis = random\nbasis_seed = {seed}\n")
        for want, got in zip(identity, rotated, strict=True):
            assert list(got) == list(want)
            for key, value in want.items():
                if abs(value) > 1e-12:
                    assert abs(got[key] - value) <= 1e-12 * abs(value), (seed, key)
                else:
                    assert abs(got[key] - value) <= 1e-20, (seed, key)
