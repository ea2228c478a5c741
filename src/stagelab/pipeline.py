"""Three-stage training pipeline: pretrain, posttrain, finetune.

Stage 1 trains on the pretraining distribution, optionally mixed with a
fraction of posttraining data (mix_fraction).  Stage 2 trains on the
posttraining distribution, optionally replaying a fraction of pretraining data
(replay_fraction) and optionally ridge-anchored to the stage-1 checkpoint.
Stage 3 finetunes on the finetuning distribution and is always unregularized.

The metrics recorded per run:

* L_im:  posttrain loss at the stage-2 checkpoint (immediately after stage 2),
* L_ret: posttrain loss at the stage-3 checkpoint (what survived finetuning),
* L_ft:  finetune loss at the stage-3 checkpoint,
* L_pre: pretrain loss at the stage-3 checkpoint (what mixing/replay preserved),
* delta: L_ret - L_im, the forgetting induced by stage 3.

run_sweep trains each stage-1 plan and each (stage-1, stage-2) pair of a
grid once, and steps together every group of runs whose starts take the
matrix kernel (network.train_lockstep): that rule alone decides what batches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .network import NetworkState, TrainConfig, _losses, _memo_key, check_step_size, train, train_lockstep
from .tasks import STAGES, StageDistribution, TaskFamily, mix_distributions


@dataclass(frozen=True)
class StagePlan:
    """Scalar hyperparameters for one stage."""

    stage: str
    steps: int
    eta: float
    mix_fraction: float = 0.0
    replay_fraction: float = 0.0
    ridge_lambda: float = 0.0

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}, expected one of {STAGES}")
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")
        for name in ("mix_fraction", "replay_fraction", "ridge_lambda"):
            # -0.0 equals 0.0, so the two are one plan: + 0.0 gives it one run id and record
            object.__setattr__(self, name, getattr(self, name) + 0.0)
        for name in ("mix_fraction", "replay_fraction"):
            frac = getattr(self, name)
            if not 0.0 <= frac <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {frac}")
        if self.mix_fraction != 0.0 and self.stage != "pretrain":
            raise ConfigError(f"mix_fraction applies to the pretrain stage, not {self.stage!r}")
        if self.replay_fraction != 0.0 and self.stage != "posttrain":
            raise ConfigError(f"replay_fraction applies to the posttrain stage, not {self.stage!r}")
        if self.ridge_lambda != 0.0 and self.stage != "posttrain":
            raise ConfigError(
                f"ridge_lambda applies to the posttrain stage, not {self.stage!r}; "
                "finetuning is always unregularized"
            )
        check_step_size(self.eta, self.ridge_lambda)

    def train_config(self) -> TrainConfig:
        """The TrainConfig that trains this stage."""
        return TrainConfig(eta=self.eta, max_steps=self.steps, ridge_lambda=self.ridge_lambda)


def stage_training_distribution(family: TaskFamily, plan: StagePlan) -> StageDistribution:
    """The distribution a plan actually trains on, after mixing or replay."""
    if plan.stage == "pretrain":
        return mix_distributions(
            family.distribution("pretrain"), family.distribution("posttrain"), plan.mix_fraction
        )
    if plan.stage == "posttrain":
        return mix_distributions(
            family.distribution("posttrain"), family.distribution("pretrain"), plan.replay_fraction
        )
    return family.distribution("finetune")


@dataclass(frozen=True)
class PipelineRun:
    """Checkpoints, metrics and provenance for one pretrain/posttrain/finetune run."""

    run_id: str
    plans: tuple[StagePlan, StagePlan, StagePlan]
    pretrained: NetworkState | None
    posttrained: NetworkState | None
    finetuned: NetworkState | None
    metrics: dict[str, float] | None  # the record's L_im, L_ret, L_ft, L_pre, delta
    failed_stage: str | None = None
    failure: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.failed_stage is None


def _check_plans(plans: Sequence[StagePlan]) -> tuple[StagePlan, StagePlan, StagePlan]:
    if len(plans) != 3 or tuple(p.stage for p in plans) != STAGES:
        raise ConfigError(
            f"expected plans for stages {STAGES} in order, got {[p.stage for p in plans]}"
        )
    return plans[0], plans[1], plans[2]


def _stage_run(
    family: TaskFamily, plan: StagePlan, state: NetworkState
) -> tuple[NetworkState, StageDistribution, TrainConfig]:
    """The (state, distribution, config) that train() takes to train one stage; a ridge anchors state."""
    return state, stage_training_distribution(family, plan), plan.train_config()


def _pretrain(
    family: TaskFamily, plan: StagePlan, init_state: NetworkState
) -> NetworkState | TrainingDiverged:
    """The stage-1 checkpoint, or the divergence that prevented it."""
    try:
        return train(*_stage_run(family, plan, init_state), record_spectrum=False)[0]
    except TrainingDiverged as exc:
        return exc


def run_pipeline(
    family: TaskFamily,
    plans: Sequence[StagePlan],
    init_state: NetworkState,
    run_id: str = "run",
) -> PipelineRun:
    """Execute the three stages in order.

    A divergence in any stage stops the run there; checkpoints from completed
    stages are preserved and the failed stage is named on the result.
    """
    plans = _check_plans(plans)
    return continue_from_pretrained(family, _pretrain(family, plans[0], init_state), plans, run_id)


def continue_from_pretrained(
    family: TaskFamily,
    pretrained: NetworkState | TrainingDiverged,
    plans: Sequence[StagePlan],
    run_id: str,
    memo: dict | None = None,
) -> PipelineRun:
    """Stages 2 and 3 from a stage-1 checkpoint, then the metrics.

    Given the divergence that ended stage 1 instead, it returns that failed run.
    memo, if given, is both stages' train() calls' (see train and run_sweep).
    """
    plans = _check_plans(plans)
    states: dict[str, NetworkState] = {}
    failure = pretrained if isinstance(pretrained, TrainingDiverged) else None
    if failure is None:
        state = states["pretrain"] = pretrained
        for plan in plans[1:]:
            try:
                state, _ = train(*_stage_run(family, plan, state), record_spectrum=False, memo=memo)
            except TrainingDiverged as exc:
                failure = exc
                break
            states[plan.stage] = state
    metrics = None
    failed_stage = None if failure is None else STAGES[len(states)]
    if failure is None:
        # each checkpoint's product once; the losses are population_loss's
        # bits.  They are losses on distributions no stage may have trained
        # on, so finite weights can still overflow them
        posttrained, finetuned = states["posttrain"].theta, states["finetune"].theta
        with np.errstate(over="ignore", invalid="ignore"):
            L_im, L_ret = _losses((posttrained, finetuned), family.distribution("posttrain"))
            (L_ft,) = _losses((finetuned,), family.distribution("finetune"))
            (L_pre,) = _losses((finetuned,), family.distribution("pretrain"))
            metrics = {"L_im": L_im, "L_ret": L_ret, "L_ft": L_ft, "L_pre": L_pre, "delta": L_ret - L_im}
        bad = [name for name, value in metrics.items() if not math.isfinite(value)]
        if bad:
            # the stage whose checkpoint gave the first non-finite metric
            failed_stage = "posttrain" if "L_im" in bad else "finetune"
            failure = f"{', '.join(bad)} not finite at the {failed_stage} checkpoint"
            metrics = None
    return PipelineRun(
        run_id=run_id,
        plans=plans,
        pretrained=states.get("pretrain"),
        posttrained=states.get("posttrain"),
        finetuned=states.get("finetune"),
        metrics=metrics,
        failed_stage=failed_stage,
        failure=None if failure is None else str(failure),
    )


def compute_matched_plans(
    total_budget: int,
    alloc_fraction: float,
    stage1_template: StagePlan,
    stage2_template: StagePlan,
) -> tuple[StagePlan, StagePlan]:
    """Split one step budget between stages 1 and 2.

    Stage 1 receives round(alloc_fraction * total_budget) steps, stage 2 the
    remainder, so the two always sum to total_budget exactly.  Other
    hyperparameters are taken from the templates unchanged.
    """
    if total_budget < 0:
        raise ConfigError(f"total_budget must be nonnegative, got {total_budget}")
    if not 0.0 <= alloc_fraction <= 1.0:
        raise ConfigError(f"alloc_fraction must lie in [0, 1], got {alloc_fraction}")
    steps1 = round(alloc_fraction * total_budget)
    steps2 = total_budget - steps1
    return replace(stage1_template, steps=steps1), replace(stage2_template, steps=steps2)


def _id_float(x: float) -> str:
    """The short :g form when it parses back to x, else repr, so distinct values never collide."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def make_run_id(plan1: StagePlan, plan2: StagePlan, plan3: StagePlan) -> str:
    """Deterministic identifier encoding the swept hyperparameters."""
    return (
        f"m{_id_float(plan1.mix_fraction)}-s1_{plan1.steps}"
        f"-r{_id_float(plan2.replay_fraction)}-l{_id_float(plan2.ridge_lambda)}"
        f"-e2_{_id_float(plan2.eta)}-s2_{plan2.steps}"
        f"-e3_{_id_float(plan3.eta)}-s3_{plan3.steps}"
    )


def run_sweep(
    family: TaskFamily,
    init_state: NetworkState,
    tasks: Iterable[Sequence[StagePlan]],
) -> Iterator[PipelineRun]:
    """Run each (stage-1, stage-2, stage-3) plan triple, yielding the runs in task order.

    Every task's plans are checked before any training.  Stage 1 depends
    only on the stage-1 plan, so its checkpoint is trained when a task first
    needs it and shared by every later task with that plan.  The stage-2 and
    stage-3 train() calls share one memo per sweep, so stage 2 trains once
    per (stage-1, stage-2) pair and later runs get its checkpoint bitwise.
    train_lockstep fills the memo ahead of those calls from two kinds of
    group, stepping the runs that take the matrix kernel: the stage-2 plans
    of a stage-1 checkpoint when it is first trained, and the stage-3 plans
    of each run of consecutive tasks that share a (stage-1, stage-2) pair,
    from the stage-2 checkpoint if the memo holds it.  Each run is yielded
    as soon as it completes, so a caller can record it before the next run
    or group steps; once a group's last run is yielded, its stage-3
    results, each read once, leave the memo.  Diverged runs are yielded
    with their failure marked; the sweep itself never aborts.
    """
    tasks = [_check_plans(plans) for plans in tasks]
    pretrained: dict[StagePlan, NetworkState | TrainingDiverged] = {}
    memo: dict = {}

    def step_together(start: NetworkState | TrainingDiverged | None, plans: Iterable[StagePlan]) -> None:
        if isinstance(start, NetworkState):
            train_lockstep([_stage_run(family, plan, start) for plan in plans], memo, record_spectrum=False)

    for (plan1, plan2), group in itertools.groupby(tasks, key=lambda task: task[:2]):
        finetunes = [task[2] for task in group]
        if plan1 not in pretrained:
            pretrained[plan1] = _pretrain(family, plan1, init_state)
            step_together(pretrained[plan1], dict.fromkeys(task[1] for task in tasks if task[0] == plan1))
        start, checkpoint, known = pretrained[plan1], None, len(memo)
        if isinstance(start, NetworkState):
            checkpoint = _memo_key(*_stage_run(family, plan2, start), False)
            step_together(memo.get(checkpoint, (None,))[0], finetunes)
        for plan3 in finetunes:
            plans = plan1, plan2, plan3
            yield continue_from_pretrained(family, start, plans, make_run_id(*plans), memo)
        # a dict keeps insertion order, so the entries after the first known
        # ones are this group's: its stage-3 results, each read once, and
        # perhaps its stage-2 checkpoint, which later groups may read
        for key in list(memo)[known:]:
            if key != checkpoint:
                del memo[key]
