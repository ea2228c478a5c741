"""stagelab: a desk-scale laboratory for staged training of two-layer linear networks.

Build a spectral task family (tasks), train exact two-layer linear dynamics on
it (network), chain pretrain/posttrain/finetune stages (pipeline), verify the
claimed behaviors against independent scalar oracles (checks), and compare
methods on Pareto frontiers (frontier).  The cli module exposes all of it as
the `stagelab` command.
"""

from .checks import (
    CheckReport,
    check_assumptions,
    check_forgetting_gap,
    check_frozen_directions,
    check_posttrain_routing,
    check_sequential_order,
    check_specialized_acquisition,
    forgetting_lower_bound,
    run_all_checks,
)
from .config import (
    DEFAULTS,
    ExperimentConfig,
    load_config,
    loads_config,
    make_reference_family,
)
from .errors import (
    ConfigError,
    PreconditionError,
    StagelabError,
    TaskValidationError,
    TrainingDiverged,
)
from .frontier import (
    DominanceReport,
    FrontierPoint,
    ParetoFrontier,
    dominates,
    hypervolume,
    pareto_front,
    points_from_records,
)
from .network import (
    NetworkState,
    TrainConfig,
    Trajectory,
    aligned_spectrum,
    derived_diag_step,
    init_from_spectrum,
    init_scaled_identity,
    population_gradient,
    population_loss,
    scalar_fixed_point,
    train,
)
from .pipeline import (
    PipelineRun,
    StagePlan,
    compute_matched_plans,
    continue_from_pretrained,
    make_run_id,
    run_pipeline,
    run_sweep,
    stage_training_distribution,
)
from .records import (
    dumps_record,
    format_float,
    pipeline_run_record,
    read_records,
    stable_hash,
    sweep_to_csv,
    write_records,
)
from .svgplot import render_frontier_svg
from .tasks import (
    FeaturePartition,
    SpectralBasis,
    StageDistribution,
    TaskFamily,
    TaskSpectra,
    build_task_family,
    mix_distributions,
)

__version__ = "0.1.0"
