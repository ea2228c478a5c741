"""Shared fixtures.

The expensive artifacts (long training runs, the 30-run frontier sweep, the
routing checkpoints) are session-scoped so the acceptance gate and the module
tests reuse one computation.  Everything here is deterministic: fixed seeds,
fixed step counts, no wall-clock dependence.
"""

from __future__ import annotations

import itertools

import pytest

from stagelab import (
    StagePlan,
    init_scaled_identity,
    make_reference_family,
    run_sweep,
    train,
)
from stagelab.checks import check_posttrain_routing
from stagelab.pipeline import stage_training_distribution


@pytest.fixture(scope="session")
def family():
    return make_reference_family()


@pytest.fixture(scope="session")
def tau12_init(family):
    return init_scaled_identity(family.n, 12.0, family.basis)


@pytest.fixture(scope="session")
def base_pretrained(family, tau12_init):
    """Unmixed stage-1 checkpoint (3000 steps at eta 0.02 from the tau=12 init)."""
    plan = StagePlan("pretrain", 3000, 0.02)
    state, _ = train(
        tau12_init,
        stage_training_distribution(family, plan),
        plan.train_config(),
        record_spectrum=False,
    )
    return state


@pytest.fixture(scope="session")
def frontier_sweep(family, tau12_init):
    """Mixed-vs-unmixed sweep: 2 mix fractions x 3 posttrain etas x 5 finetune etas."""
    stage1 = [StagePlan("pretrain", 3000, 0.02, mix_fraction=m) for m in (0.5, 0.0)]
    stage2 = [
        StagePlan("posttrain", 250, eta)
        for eta in (0.008, 0.012, 0.02)
    ]
    stage3 = [StagePlan("finetune", 300, eta) for eta in (0.0003, 0.001, 0.003, 0.01, 0.05)]
    return list(run_sweep(family, tau12_init, itertools.product(stage1, stage2, stage3)))


@pytest.fixture(scope="session")
def routing_outcome(family):
    """(report, posttrained states) from the routing check at its defaults."""
    return check_posttrain_routing(family)
