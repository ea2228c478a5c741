"""End-to-end behavioral checks for the staged-training claims.

Each check trains real networks (no shortcuts through the scalar model except
as independent oracles), measures the claimed effect, and returns a
CheckReport with the raw numbers so failures are diagnosable.  The three core
checks:

* check_specialized_acquisition: mixing posttraining data into pretraining is
  what lets specialized coordinates leave their saddle; unmixed pretraining
  leaves them numerically dead.
* check_posttrain_routing: posttraining from an idealized checkpoint routes
  learning into whichever coordinates were already active; saddle-pinned
  coordinates stay at exactly zero.
* check_forgetting_gap: finetuning after unmixed pretraining forgets the
  posttrained inconsistent values by at least a computable margin, while the
  mixed arm forgets nothing at all.

check_sequential_order verifies that coordinates activate in the order of
their input-target cross-covariances during pretraining, and
check_frozen_directions that coordinates a distribution never excites keep
bitwise-identical aligned entries over arbitrarily long training runs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, PreconditionError, StagelabError
from .network import (
    NetworkState,
    TrainConfig,
    Trajectory,
    aligned_spectrum,
    init_from_spectrum,
    init_scaled_identity,
    population_loss,
    scalar_fixed_point,
    train,
)
from .records import format_float
from .tasks import StageDistribution, TaskFamily, inequality_margins, mix_distributions

# Reference settings and tolerances shared by every check; verify.txt prints
# them, the first four are also the [verify] defaults and TAU the [init] one.
ALPHA = 0.5  # fraction of posttraining data mixed into the mixed arm
EPSILON = 0.1  # routing tolerance on the posttrained spectrum
ACQUISITION_STEPS = 40_000
ROUTING_STEPS = 10_000
TAU = 12.0  # init scale exp(-2 tau) on every aligned coordinate
ACQUISITION_ETA = 0.05
ROUTING_ETA = 0.02
ROUTING_RIDGE = 0.02  # posttrain ridge toward the idealized checkpoint
FT_ETA = 0.02
FT_STEPS = 10_000
MIN_LEARNED_RATIO = 0.9
UNLEARNED_TOL = 1e-3
OFFDIAG_TOL = ORACLE_TOL = 1e-6
MIXED_TOL = 0.0


def _render_value(value: object) -> str:
    """Render a measured value with floats at full 17-digit precision."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k}: {_render_value(v)}" for k, v in value.items()) + "}"
    return str(value)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    measured: Mapping[str, object]
    thresholds: Mapping[str, float]
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"

    def details(self) -> str:
        """Structured text with every measured value at 17 significant digits."""
        lines = [self.summary()]
        for key, value in self.measured.items():
            lines.append(f"  {key} = {_render_value(value)}")
        if self.thresholds:
            lines.append(f"  thresholds = {_render_value(dict(self.thresholds))}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _idealized_spectrum(
    family: TaskFamily, kind: str, alpha: float = ALPHA, literal_inconsistent: bool = False
) -> np.ndarray:
    """Aligned diagonal of the idealized end-of-pretraining checkpoint.

    kind="mixed" is pretraining with a fraction alpha of posttraining data:
    invariant values learned, inconsistent at zero (their mixed optimum sits
    below the saddle-escape scale), specialized at alpha * target.

    kind="unmixed" is pure pretraining: invariant and inconsistent learned,
    specialized at zero.  The inconsistent block carries the pretrain values;
    literal_inconsistent=True substitutes the posttrain values instead, for
    side-by-side comparison with the stricter reading of the claim.
    """
    part = family.partition
    spectra = family.spectra
    diag = np.zeros(part.n)
    diag[part.invariant] = spectra.invariant
    if kind == "mixed":
        diag[part.specialized] = alpha * spectra.specialized_target
    elif kind == "unmixed":
        diag[part.inconsistent] = (
            spectra.post_inconsistent if literal_inconsistent else spectra.pre_inconsistent
        )
    else:
        raise StagelabError(f"unknown checkpoint kind {kind!r}")
    return diag


def _oracle_fixed_points(
    dist: StageDistribution,
    eta: float,
    init_diag: np.ndarray,
    ridge_lambda: float = 0.0,
) -> np.ndarray:
    """Independent per-coordinate limits from the derived scalar recursion.

    Coordinates whose variance, target and start have the same bits, such as
    the k specialized ones, share one recursion.
    """
    rows = np.stack([dist.input_variances, dist.target_spectrum, init_diag], axis=1)
    limits: dict[bytes, float] = {}
    fps = np.empty(dist.n)
    for i, row in enumerate(rows):
        key = row.tobytes()
        if key not in limits:
            variance, target, start = row.tolist()
            limits[key] = scalar_fixed_point(
                variance=variance,
                target=target,
                eta=eta,
                ridge_lambda=ridge_lambda,
                anchor=start,
                init=start,
            )
        fps[i] = limits[key]
    return fps


def check_specialized_acquisition(
    family: TaskFamily, alpha: float = ALPHA, steps: int = ACQUISITION_STEPS
) -> CheckReport:
    """Specialized coordinates are acquired iff posttraining data is mixed in."""
    part = family.partition
    pre = family.distribution("pretrain")
    post = family.distribution("posttrain")
    mixed = mix_distributions(pre, post, alpha)
    init = init_scaled_identity(part.n, TAU, family.basis)
    config = TrainConfig(eta=ACQUISITION_ETA, max_steps=steps, probe_every=max(1, steps // 10))

    state_mixed, _ = train(init, mixed, family.basis, config, record_spectrum=False)
    state_unmixed, _ = train(init, pre, family.basis, config, record_spectrum=False)

    diag_mixed, _ = aligned_spectrum(state_mixed, family.basis)
    diag_unmixed, _ = aligned_spectrum(state_unmixed, family.basis)
    oracle = _oracle_fixed_points(mixed, ACQUISITION_ETA, np.full(part.n, math.exp(-2.0 * TAU)))

    spec = part.specialized
    ratios = diag_mixed[spec] / oracle[spec]
    worst_ratio = float(np.min(ratios))
    worst_unmixed = float(np.max(np.abs(diag_unmixed[spec])))
    # matching a degenerate oracle is not acquisition: with alpha = 0 the
    # scalar limit collapses to the init scale, so demand real escape too
    least_mixed = float(np.min(diag_mixed[spec]))
    settings = f"alpha={alpha:g} eta={ACQUISITION_ETA:g} steps={steps} tau={TAU:g}"
    failures: list[str] = []
    if not worst_ratio >= MIN_LEARNED_RATIO:
        failures.append(f"worst_ratio {worst_ratio:.3g} < min_learned_ratio {MIN_LEARNED_RATIO:g}")
    if not least_mixed > UNLEARNED_TOL:
        failures.append(f"least_mixed {least_mixed:.3g} <= unlearned_tol {UNLEARNED_TOL:g}")
    if not worst_unmixed <= UNLEARNED_TOL:
        failures.append(f"worst_unmixed {worst_unmixed:.3g} > unlearned_tol {UNLEARNED_TOL:g}")
    return CheckReport(
        name="specialized_acquisition",
        passed=not failures,
        measured={
            "mixed_specialized": diag_mixed[spec].tolist(),
            "unmixed_specialized": diag_unmixed[spec].tolist(),
            "oracle_specialized": oracle[spec].tolist(),
            "worst_ratio": worst_ratio,
            "least_mixed": least_mixed,
            "worst_unmixed": worst_unmixed,
            "mixed_diag": diag_mixed.tolist(),
            "unmixed_diag": diag_unmixed.tolist(),
        },
        thresholds={"min_learned_ratio": MIN_LEARNED_RATIO, "unlearned_tol": UNLEARNED_TOL},
        notes=tuple(failures) or (settings,),
    )


def _first_above(column: np.ndarray, level: float) -> int | None:
    """The index of column's first entry above level, or None if there is none.

    Scans blocks that double in length from 256 entries, so a crossing in the
    first few hundred rows of a long trajectory costs one short scan.
    """
    start, size = 0, 256
    while start < len(column):
        block = column[start : start + size]
        first = int(np.argmax(block > level))
        if block[first] > level:
            return start + first
        start, size = start + size, 2 * size
    return None


def check_sequential_order(
    family: TaskFamily,
    dist: StageDistribution | None = None,
    eta: float = ACQUISITION_ETA,
    steps: int = ACQUISITION_STEPS,
) -> CheckReport:
    """Coordinates cross half their limit value in descending cross-covariance order.

    Coordinates with exactly equal cross-covariance are order-exempt among
    themselves; coordinates with zero cross-covariance must never activate.
    """
    if dist is None:
        dist = family.distribution("pretrain")
    part = family.partition
    init = init_scaled_identity(part.n, TAU, family.basis)
    config = TrainConfig(eta=eta, max_steps=steps, probe_every=1)
    _, traj = train(init, dist, family.basis, config)

    diags = traj.diagonals()
    steps_axis = traj.steps
    oracle = _oracle_fixed_points(dist, eta, np.full(part.n, math.exp(-2.0 * TAU)))
    xc = dist.cross_covariance
    crossings: dict[int, int | None] = {}
    violations: list[str] = []
    for i in range(part.n):
        if xc[i] > 0:
            fp = oracle[i]
            row = _first_above(diags[:, i], fp / 2.0)
            if row is None:
                crossings[i] = None
                violations.append(f"coordinate {i} never crossed half its limit {fp / 2:.4g}")
            else:
                crossings[i] = int(steps_axis[row])
        else:
            crossings[i] = None
            peak = float(np.max(np.abs(diags[:, i])))
            if peak > UNLEARNED_TOL:
                violations.append(f"inactive coordinate {i} reached {peak:.3g}")

    # Group active coordinates by exact cross-covariance value, then require
    # strictly earlier crossings for strictly larger cross-covariance.
    active = [i for i in range(part.n) if xc[i] > 0]
    groups: dict[float, list[int]] = {}
    for i in active:
        groups.setdefault(float(xc[i]), []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: -kv[0])
    for (hi_xc, hi_group), (lo_xc, lo_group) in zip(ordered, ordered[1:]):
        hi_cross = [crossings[i] for i in hi_group]
        lo_cross = [crossings[i] for i in lo_group]
        if any(c is None for c in hi_cross + lo_cross):
            continue  # already reported as a violation above
        if not max(hi_cross) < min(lo_cross):
            violations.append(
                f"cross-covariance {hi_xc:g} crossed at {hi_cross} but {lo_xc:g} at {lo_cross}"
            )

    return CheckReport(
        name="sequential_order",
        passed=not violations,
        measured={
            "crossings": {str(i): crossings[i] for i in range(part.n)},
            "cross_covariance": xc.tolist(),
        },
        thresholds={"unlearned_tol": UNLEARNED_TOL},
        notes=tuple(violations) if violations else (f"eta={eta:g} steps={steps}",),
    )


def check_frozen_directions(
    trajectory: Trajectory,
    dist: StageDistribution,
    family: TaskFamily,
) -> CheckReport:
    """Coordinates the distribution never excites must not move at all.

    Passes iff every aligned entry on a zero-input-variance coordinate is
    bitwise constant across the recorded trajectory.  Vacuously true when the
    distribution has no zero-variance coordinates.  The bitwise guarantee
    holds for diagonal states in the identity basis; the check itself just
    measures whatever trajectory it is given.
    """
    frozen = np.flatnonzero(dist.input_variances == 0.0)
    diags = trajectory.diagonals()
    if frozen.size == 0:
        return CheckReport(
            name="frozen_directions",
            passed=True,
            measured={"frozen_coordinates": []},
            thresholds={"max_drift": 0.0},
            notes=("no zero-variance coordinates; vacuously true",),
        )
    block = diags[:, frozen]
    drift = float(np.max(np.abs(block - block[0])))
    constant = bool(np.all(block == block[0]))
    note = f"identity_basis={family.basis.is_identity}"
    if not constant:
        note = f"frozen coordinates {frozen.tolist()} moved: max_drift {drift:.3g} > 0"
    return CheckReport(
        name="frozen_directions",
        passed=constant,
        measured={
            "frozen_coordinates": frozen.tolist(),
            "frozen_values": block[0].tolist(),
            "max_drift": drift,
            "snapshots": diags.shape[0],
        },
        thresholds={"max_drift": 0.0},
        notes=(note,),
    )


def check_posttrain_routing(
    family: TaskFamily,
    alpha: float = ALPHA,
    epsilon: float = EPSILON,
    steps: int = ROUTING_STEPS,
    literal_inconsistent: bool = False,
) -> tuple[CheckReport, dict[str, NetworkState]]:
    """Posttraining moves active coordinates to the posttrain spectrum, within epsilon.

    Both idealized checkpoints (mixed and unmixed pretraining) are posttrained
    on the pure posttraining distribution with a ridge anchored at the
    checkpoint.  Saddle-pinned coordinates must remain at exactly zero at every
    snapshot; all other coordinates must land within epsilon of their stage
    targets and within ORACLE_TOL of independent scalar-recursion limits.
    """
    part = family.partition
    post = family.distribution("posttrain")
    basis = family.basis
    target = post.target_spectrum

    arms = {}
    worst_shift = 0.0
    for kind, pinned, opts in (
        ("mixed", part.inconsistent, {"alpha": alpha}),
        ("unmixed", part.specialized, {"literal_inconsistent": literal_inconsistent}),
    ):
        spectrum = _idealized_spectrum(family, kind, **opts)
        init = init_from_spectrum(basis, spectrum)
        anchor = aligned_spectrum(init, basis)[0]
        oracle = _oracle_fixed_points(post, ROUTING_ETA, anchor, ridge_lambda=ROUTING_RIDGE)
        # the moving set comes from the built spectrum, not from the rounded
        # product, which carries noise on zero coordinates in a random basis
        moving = spectrum > 0
        expected = target.copy()
        expected[pinned] = 0.0
        arms[kind] = (init, oracle, moving, pinned, expected)
        # saddle-pinned coordinates are covered by the routing claim itself
        if moving.any():
            worst_shift = max(worst_shift, float(np.max(np.abs(oracle[moving] - target[moving]))))

    gap = family.spectra.mismatch_gap
    ceiling = gap / (2.0 * gap - 4.0 * family.spectra.specialized_target)
    if not 0.0 < epsilon < ceiling:
        raise PreconditionError(
            "posttrain routing requires epsilon < mismatch_gap / (2 * mismatch_gap - "
            f"4 * specialized_target) = {ceiling:.6g}, got epsilon = {epsilon:g}"
        )
    if worst_shift > epsilon / 2.0:
        raise PreconditionError(
            f"ridge_lambda = {ROUTING_RIDGE:g} shifts a fixed point by {worst_shift:.6g}, "
            f"which exceeds epsilon / 2 = {epsilon / 2:.6g}"
        )

    states: dict[str, NetworkState] = {}
    measured: dict[str, object] = {"epsilon": epsilon}
    failures: list[str] = []
    for kind, (init, oracle, moving, pinned, expected) in arms.items():
        config = TrainConfig(eta=ROUTING_ETA, max_steps=steps, ridge_lambda=ROUTING_RIDGE)
        state, traj = train(init, post, basis, config)
        states[kind] = state

        diags = traj.diagonals()
        final = diags[-1]
        offdiag_max = float(np.max(traj.offdiags()))
        pinned_exact = bool(np.all(diags[:, pinned] == 0.0))
        worst_err = float(np.max(np.abs(final - expected)))
        oracle_err = float(np.max(np.abs(final[moving] - oracle[moving]))) if moving.any() else 0.0

        measured[kind] = {
            "final_diag": final.tolist(),
            "expected_diag": expected.tolist(),
            "worst_abs_error": worst_err,
            "offdiag_max": offdiag_max,
            "pinned_exactly_zero": pinned_exact,
            "oracle_error": oracle_err,
        }
        if worst_err > epsilon:
            failures.append(f"{kind}: spectrum error {worst_err:.3g} > epsilon {epsilon:g}")
        if offdiag_max > OFFDIAG_TOL:
            failures.append(f"{kind}: off-diagonal reached {offdiag_max:.3g}")
        if not pinned_exact:
            failures.append(f"{kind}: saddle-pinned coordinates moved off zero")
        if oracle_err > ORACLE_TOL:
            failures.append(f"{kind}: disagrees with scalar oracle by {oracle_err:.3g}")

    notes = [f"alpha={alpha:g} eta={ROUTING_ETA:g} steps={steps} ridge_lambda={ROUTING_RIDGE:g}"]
    if literal_inconsistent:
        notes.append("unmixed checkpoint used the literal posttrain inconsistent values")
    report = CheckReport(
        name="posttrain_routing_literal" if literal_inconsistent else "posttrain_routing",
        passed=not failures,
        measured=measured,
        thresholds={"epsilon": epsilon, "offdiag_tol": OFFDIAG_TOL, "oracle_tol": ORACLE_TOL},
        notes=tuple(failures) if failures else tuple(notes),
    )
    return report, states


def forgetting_lower_bound(k: int, mismatch_gap: float, specialized_target: float, epsilon: float) -> float:
    """Guaranteed posttrain-loss increase from finetuning the unmixed arm.

    k * (gap^2 - 4 * specialized_target * epsilon - 2 * gap * epsilon).  Note
    the routing epsilon precondition alone does not make this positive; it is
    provably positive whenever epsilon <= gap / 4 (given specialized_target <
    gap / 2, which the family validator enforces).
    """
    return k * (
        mismatch_gap * mismatch_gap - 4.0 * specialized_target * epsilon - 2.0 * mismatch_gap * epsilon
    )


def check_forgetting_gap(
    family: TaskFamily,
    posttrain_states: dict[str, NetworkState],
    epsilon: float = EPSILON,
    ft_steps: int = FT_STEPS,
) -> CheckReport:
    """Finetuning forgets the posttrained skills only on the unmixed arm.

    posttrain_states are the "mixed" and "unmixed" checkpoints returned by
    check_posttrain_routing.  delta = posttrain loss after finetuning minus
    posttrain loss before it.  The mixed arm's checkpoints are parameter-frozen
    under finetuning (saddle plus zero-variance coordinates), so its delta is
    exactly zero; the unmixed arm's delta must be at least
    forgetting_lower_bound.
    """
    post = family.distribution("posttrain")
    ft = family.distribution("finetune")
    basis = family.basis
    config = TrainConfig(eta=FT_ETA, max_steps=ft_steps)

    deltas: dict[str, float] = {}
    for kind, state in posttrain_states.items():
        before = population_loss(state, post, basis)
        final, _ = train(state, ft, basis, config, record_spectrum=False)
        after = population_loss(final, post, basis)
        deltas[kind] = after - before

    bound = forgetting_lower_bound(
        family.partition.k,
        family.spectra.mismatch_gap,
        family.spectra.specialized_target,
        epsilon,
    )
    failures: list[str] = []
    if not abs(deltas["mixed"]) <= MIXED_TOL:
        failures.append(f"|delta_mixed| {abs(deltas['mixed']):.3g} > mixed_tol {MIXED_TOL:g}")
    if not deltas["unmixed"] >= bound:
        failures.append(f"delta_unmixed {deltas['unmixed']:.3g} < lower_bound {bound:.3g}")
    return CheckReport(
        name="forgetting_gap",
        passed=not failures,
        measured={
            "delta_mixed": deltas["mixed"],
            "delta_unmixed": deltas["unmixed"],
            "lower_bound": bound,
        },
        thresholds={"mixed_tol": MIXED_TOL, "unmixed_min": bound},
        notes=tuple(failures) or (f"epsilon={epsilon:g} ft_eta={FT_ETA:g} ft_steps={ft_steps}",),
    )


def check_assumptions(family: TaskFamily, alpha: float = ALPHA) -> CheckReport:
    """Which structural premises hold for the family's spectra at mixing weight alpha.

    The shared basis holds by construction, and the magnitude inequalities
    are the margins TaskSpectra.validate reads.  specialized_mixing_salience
    is diagnostic only: it is unsatisfiable for any spectra the family
    validator accepts, so it never gates the result, and its note reports a
    scan over a 101-point alpha grid.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"mixing weight must lie in [0, 1], got {alpha}")
    spectra = family.spectra
    margins = inequality_margins(spectra)

    def salience_margin(a: float | np.ndarray) -> float | np.ndarray:
        # one alpha, or a column of them: each margin takes the same IEEE operations
        rhs = (1.0 - a) * spectra.pre_inconsistent + a * spectra.post_inconsistent
        return np.min(a * spectra.specialized_target - rhs, axis=-1)

    grid = np.linspace(0.0, 1.0, 101)
    holding = grid[salience_margin(grid[:, None]) > 0]
    if holding.size:
        scan = f"holds for {holding.size}/101 grid points (first at alpha={holding[0]:g})"
    else:
        scan = "fails for every alpha in a 101-point grid"
    return CheckReport(
        name="structural_assumptions",
        passed=all(margin > 0 for _, margin, _ in margins),
        measured={
            "shared_spectral_basis": "structural",
            **{name: margin for name, margin, _ in margins},
            "specialized_mixing_salience": float(salience_margin(alpha)),
        },
        thresholds={},
        notes=(
            "specialized_mixing_salience (diagnostic): alpha * specialized_target must "
            f"exceed the mixed inconsistent value; {scan}",
        ),
    )


def run_all_checks(
    family: TaskFamily,
    alpha: float = ALPHA,
    epsilon: float = EPSILON,
    literal_inconsistent: bool = False,
    acquisition_steps: int = ACQUISITION_STEPS,
    routing_steps: int = ROUTING_STEPS,
) -> list[CheckReport]:
    """Every check at its reference budget, in a stable order.

    literal_inconsistent=True does not replace the default reading of the
    unmixed checkpoint; after the default reports it adds a second
    routing/forgetting pair computed from the literal posttrain inconsistent
    values, so the two readings can be compared side by side.  The
    frozen-direction run trains in the default reading only.
    """
    reports = [check_assumptions(family, alpha=alpha)]
    reports.append(check_specialized_acquisition(family, alpha=alpha, steps=acquisition_steps))
    reports.append(check_sequential_order(family, steps=acquisition_steps))
    for literal in (False, True) if literal_inconsistent else (False,):
        routing_report, states = check_posttrain_routing(
            family, alpha=alpha, epsilon=epsilon, steps=routing_steps, literal_inconsistent=literal
        )
        reports.append(routing_report)
        if not literal:
            ft = family.distribution("finetune")
            frozen_config = TrainConfig(eta=FT_ETA, max_steps=FT_STEPS, probe_every=1)
            _, ft_traj = train(states["mixed"], ft, family.basis, frozen_config)
            reports.append(check_frozen_directions(ft_traj, ft, family))
        gap = check_forgetting_gap(family, states, epsilon=epsilon)
        reports.append(replace(gap, name="forgetting_gap_literal") if literal else gap)
    return reports
