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

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .network import (
    NetworkState,
    TrainConfig,
    _losses,
    _memo_key,
    _takes_diagonal_kernel,
    check_step_size,
    train,
    train_lockstep,
)
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


def _stage_runs(family: TaskFamily) -> Callable[[StagePlan], tuple[StageDistribution, TrainConfig]]:
    """resolve(plan): the distribution and TrainConfig that train() takes for a plan, each built once.

    A ridge anchors the state it starts from.  A plan resolved again gets
    the same objects, so a mixture is built once and its teacher with it.
    """

    @functools.cache
    def resolve(plan: StagePlan) -> tuple[StageDistribution, TrainConfig]:
        return stage_training_distribution(family, plan), plan.train_config()

    return resolve


def _checkpoint(
    state: NetworkState, dist: StageDistribution, config: TrainConfig, memo: dict | None = None
) -> NetworkState | TrainingDiverged:
    """The state a stage's training ends at, or the divergence that prevented it."""
    try:
        return train(state, dist, config, record_spectrum=False, memo=memo)[0]
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
    resolve = _stage_runs(family)
    pretrained = _checkpoint(init_state, *resolve(plans[0]))
    return continue_from_pretrained(family, pretrained, plans, run_id, resolve=resolve)


def continue_from_pretrained(
    family: TaskFamily,
    pretrained: NetworkState | TrainingDiverged,
    plans: Sequence[StagePlan],
    run_id: str,
    memo: dict | None = None,
    resolve: Callable[[StagePlan], tuple[StageDistribution, TrainConfig]] | None = None,
) -> PipelineRun:
    """Stages 2 and 3 from a stage-1 checkpoint, then the metrics.

    Given the divergence that ended stage 1 instead, it returns that failed run.
    memo, if given, is both stages' train() calls' (see train and run_sweep),
    and resolve, if given, the _stage_runs function that gives each stage's
    distribution and TrainConfig.
    """
    plans = _check_plans(plans)
    resolve = _stage_runs(family) if resolve is None else resolve
    states: dict[str, NetworkState] = {}
    failure = pretrained if isinstance(pretrained, TrainingDiverged) else None
    if failure is None:
        state = states["pretrain"] = pretrained
        for plan in plans[1:]:
            try:
                state, _ = train(state, *resolve(plan), record_spectrum=False, memo=memo)
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

    Every task's plans are checked before any training, and each distinct
    plan's distribution and TrainConfig are resolved once.  Stage 1 depends
    only on the stage-1 plan, so its checkpoint is trained once and shared
    by every task with that plan.  The stage-2 and stage-3 train() calls
    share one memo per sweep, so stage 2 trains once per (stage-1, stage-2)
    pair and later runs get its checkpoint bitwise.  train_lockstep steps
    the runs that take the matrix kernel as one stack per group it is
    offered, and fills the memo ahead of the train() calls:

    - before the first task, every stage-1 plan;
    - then every (stage-1, stage-2) pair whose stage-1 checkpoint that
      stack stored; a stage-1 plan it did not store, as on the diagonal
      kernel, trains when a task first needs it, and its stage-2 plans
      are offered then;
    - for each run of consecutive tasks that share a (stage-1, stage-2)
      pair, its stage-3 plans, from the stage-2 checkpoint, which the sweep
      trains into the memo first if it is not there yet.

    Each run is yielded as soon as it completes, so a caller can record it
    before the next run or group steps; the stage-1 and stage-2 stacks
    yield nothing, and a crash loses at most one stage-3 group.  Once a
    group's last run is yielded, its stage-3 results, each read once, leave
    the memo.  Diverged runs are yielded with their failure marked; the
    sweep itself never aborts.
    """
    tasks = [_check_plans(plans) for plans in tasks]
    resolve = _stage_runs(family)
    pairs = dict.fromkeys(task[:2] for task in tasks)
    stage1 = {plan1: (init_state, *resolve(plan1)) for plan1, _ in pairs}
    memo: dict = {}

    def step_together(runs: list[tuple[NetworkState, StagePlan]]) -> None:
        if runs:
            train_lockstep([(state, *resolve(plan)) for state, plan in runs], memo, record_spectrum=False)

    def offer_stage2(starts: dict[StagePlan, NetworkState]) -> None:
        step_together([(starts[plan1], plan2) for plan1, plan2 in pairs if plan1 in starts])

    # every stage-1 plan as one stack, then every (stage-1, stage-2) pair
    # whose stage-1 checkpoint that stack stored
    step_together([(init_state, plan1) for plan1 in stage1])
    stacked = {plan1: key for plan1, run in stage1.items() if (key := _memo_key(*run, False)) in memo}
    offer_stage2({plan1: memo[key][0] for plan1, key in stacked.items()})
    pretrained: dict[StagePlan, NetworkState | TrainingDiverged] = {}
    for (plan1, plan2), group in itertools.groupby(tasks, key=lambda task: task[:2]):
        if plan1 not in pretrained:
            # train() serves a stacked plan from the memo, where it is read once
            key = stacked.get(plan1)
            pretrained[plan1] = start = _checkpoint(*stage1[plan1], memo if key else None)
            if key:
                del memo[key]
            elif isinstance(start, NetworkState):
                offer_stage2({plan1: start})
        start, checkpoint = pretrained[plan1], None
        if isinstance(start, NetworkState):
            dist2, config2 = resolve(plan2)
            checkpoint = _memo_key(start, dist2, config2, False)
            if checkpoint not in memo and not _takes_diagonal_kernel(start, dist2):
                # a stage-2 plan no stack took: its checkpoint, stored now,
                # starts its finetunes' stack, unless it diverges
                _checkpoint(start, dist2, config2, memo)
        known = len(memo)
        finetunes = [task[2] for task in group]
        if checkpoint in memo:
            step_together([(memo[checkpoint][0], plan3) for plan3 in finetunes])
        for plan3 in finetunes:
            plans = plan1, plan2, plan3
            yield continue_from_pretrained(family, start, plans, make_run_id(*plans), memo, resolve)
        # a dict keeps insertion order, so the entries after the first known
        # ones are this group's: its stage-3 results, each read once, and
        # perhaps its stage-2 checkpoint, which later groups may read
        for stored in list(memo)[known:]:
            if stored != checkpoint:
                del memo[stored]
