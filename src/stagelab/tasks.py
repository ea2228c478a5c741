"""Spectral task families for staged training experiments.

A task family describes three stages of supervised data (pretrain, posttrain,
finetune) that share one pair of orthonormal bases (U, V).  Each stage is a
Gaussian input distribution plus a linear teacher: inputs have covariance
V diag(variances) V^T and targets come from a teacher matrix
U diag(target_spectrum) V^T.  The n feature coordinates are split into three
contiguous blocks:

* invariant     [0, n-2k):   same teacher singular value in every stage,
* inconsistent  [n-2k, n-k): teacher value changes across stages,
* specialized   [n-k, n):    only observed during posttraining (zero input
                             variance elsewhere).

Mixing two stage distributions mixes input variances and cross-covariances
linearly; the effective per-coordinate target is cross-covariance / variance,
which is what a quadratic learner actually regresses toward.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ConfigError, TaskValidationError

STAGES = ("pretrain", "posttrain", "finetune")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FeaturePartition:
    """Split of n feature coordinates into invariant/inconsistent/specialized blocks."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"partition needs k >= 1, got k={self.k}")
        if self.n - 2 * self.k < 1:
            raise ConfigError(
                f"partition needs n - 2k >= 1 invariant coordinates, got n={self.n}, k={self.k}"
            )

    @property
    def d_invariant(self) -> int:
        return self.n - 2 * self.k

    @property
    def invariant(self) -> slice:
        return slice(0, self.n - 2 * self.k)

    @property
    def inconsistent(self) -> slice:
        return slice(self.n - 2 * self.k, self.n - self.k)

    @property
    def specialized(self) -> slice:
        return slice(self.n - self.k, self.n)


@dataclass(frozen=True)
class TaskSpectra:
    """Teacher singular values per block, plus the two scalars that shape them.

    specialized_target is the posttraining teacher value on specialized
    coordinates; mismatch_gap is the minimum separation the inconsistent block
    must keep between its posttrain value and its pretrain/finetune values.
    """

    invariant: np.ndarray
    pre_inconsistent: np.ndarray
    post_inconsistent: np.ndarray
    ft_inconsistent: np.ndarray
    specialized_target: float
    mismatch_gap: float

    def __post_init__(self) -> None:
        for name in ("invariant", "pre_inconsistent", "post_inconsistent", "ft_inconsistent"):
            object.__setattr__(self, name, _freeze(np.atleast_1d(getattr(self, name))))
        for name in ("specialized_target", "mismatch_gap"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def validate(self, partition: FeaturePartition) -> None:
        """Raise TaskValidationError naming the first violated inequality."""
        if self.invariant.shape != (partition.d_invariant,):
            raise TaskValidationError(
                f"invariant spectrum has length {self.invariant.size}, partition wants {partition.d_invariant}"
            )
        for name in ("pre_inconsistent", "post_inconsistent", "ft_inconsistent"):
            vec = getattr(self, name)
            if vec.shape != (partition.k,):
                raise TaskValidationError(
                    f"{name} spectrum has length {vec.size}, partition wants k={partition.k}"
                )
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value).all():
                # margins on an infinite spectrum can all stay positive
                raise TaskValidationError(f"{f.name} must be finite, got {np.asarray(value).tolist()}")
        if self.mismatch_gap <= 0:
            raise TaskValidationError(f"mismatch_gap must be positive, got {self.mismatch_gap}")
        if self.specialized_target <= 0:
            raise TaskValidationError(
                f"specialized_target must be positive, got {self.specialized_target}"
            )
        if np.any(self.pre_inconsistent < 0) or np.any(self.ft_inconsistent < 0):
            raise TaskValidationError("inconsistent spectra must be nonnegative")

        for name, margin, condition in inequality_margins(self):
            if not margin > 0:
                raise TaskValidationError(f"{name} violated: {condition} (margin {margin:+.6g})")


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Orthonormal output/input basis pair shared by every stage of a family.

    is_identity is set once, from the matrices: both are exactly the identity.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "U", _freeze(self.U))
        object.__setattr__(self, "V", _freeze(self.V))
        n = self.U.shape[0]
        if self.U.shape != (n, n) or self.V.shape != (n, n):
            raise ConfigError("basis matrices must be square and equally sized")
        eye = np.eye(n)
        for name, mat in (("U", self.U), ("V", self.V)):
            err = float(np.max(np.abs(mat.T @ mat - eye)))
            if err > 1e-10:
                raise ConfigError(f"basis {name} is not orthonormal (max |{name}^T {name} - I| = {err:.3e})")
        object.__setattr__(
            self, "is_identity", bool(np.array_equal(self.U, eye) and np.array_equal(self.V, eye))
        )

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SpectralBasis":
        eye = np.eye(n)
        return cls(U=eye, V=eye)

    @classmethod
    def random(cls, n: int, seed: int) -> "SpectralBasis":
        """Haar-ish random orthonormal pair, deterministic in the seed."""
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(2):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q = q * np.sign(np.diag(r))  # fix the gauge so the draw is unique
            mats.append(q)
        return cls(U=mats[0], V=mats[1])

    @classmethod
    def from_mode(cls, mode: str, n: int, seed: int | None = None) -> "SpectralBasis":
        """The basis a config names: identity, or random from a seed."""
        if mode == "identity":
            return cls.identity(n)
        if mode != "random":
            raise ConfigError(f"basis must be 'identity' or 'random', got {mode!r}")
        if seed is None or seed < 0:
            raise ConfigError(f"basis_seed must be a nonnegative integer, got {seed!r}")
        return cls.random(n, seed)


@dataclass(frozen=True, eq=False)
class StageDistribution:
    """One stage's data distribution in its family's basis.

    input_variances and cross_covariance are the primitive quantities (they mix
    linearly).  Derived from them once, on first access: target_spectrum, as
    cross_covariance / variance with a zero placeholder on unobserved
    coordinates, and the teacher matrix U diag(target_spectrum) V^T.
    """

    label: str
    basis: SpectralBasis
    input_variances: np.ndarray
    cross_covariance: np.ndarray

    def __post_init__(self) -> None:
        for name in ("input_variances", "cross_covariance"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        v, xc = self.input_variances, self.cross_covariance
        if not ((v >= 0) & (v <= 1)).all():
            raise ConfigError(f"input variances must lie in [0, 1], got {v}")
        if xc.shape != v.shape or self.basis.n != v.size:
            raise ConfigError("distribution vectors and basis must share one length")
        if not (np.isfinite(xc) & (xc >= 0)).all():
            raise ConfigError(f"cross-covariance entries must be finite and nonnegative, got {xc}")
        if (xc[v == 0] != 0).any():
            raise ConfigError(f"cross-covariance must be zero where the input variance is, got {xc}")

    @property
    def n(self) -> int:
        return self.input_variances.size

    @cached_property
    def target_spectrum(self) -> np.ndarray:
        v = self.input_variances
        return _freeze(np.where(v > 0, self.cross_covariance / np.where(v > 0, v, 1.0), 0.0))

    @cached_property
    def teacher(self) -> np.ndarray:
        """The teacher matrix U diag(target_spectrum) V^T."""
        return _freeze((self.basis.U * self.target_spectrum) @ self.basis.V.T)


def mix_distributions(d1: StageDistribution, d2: StageDistribution, alpha: float) -> StageDistribution:
    """Convex mixture: draw from d2 with probability alpha, else from d1.

    Variances and cross-covariances mix linearly; the mixture derives its
    effective targets from them.  Both must be in one basis.  alpha = 0 or 1
    returns the pure input unchanged, including bitwise-identical arrays.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"mixing weight must lie in [0, 1], got {alpha}")
    b1, b2 = d1.basis, d2.basis
    if b1 is not b2 and not (np.array_equal(b1.U, b2.U) and np.array_equal(b1.V, b2.V)):
        raise ConfigError("cannot mix distributions in different bases")
    if alpha == 0.0:
        return d1
    if alpha == 1.0:
        return d2
    return StageDistribution(
        label=f"mix({d1.label}, {d2.label}, {alpha:g})",
        basis=b1,
        input_variances=(1.0 - alpha) * d1.input_variances + alpha * d2.input_variances,
        cross_covariance=(1.0 - alpha) * d1.cross_covariance + alpha * d2.cross_covariance,
    )


@dataclass(frozen=True)
class TaskFamily:
    """A partition + spectra + basis bundle with one distribution per stage."""

    partition: FeaturePartition
    spectra: TaskSpectra
    basis: SpectralBasis
    distributions: Mapping[str, StageDistribution] = field(repr=False)

    @property
    def n(self) -> int:
        return self.partition.n

    def distribution(self, stage: str) -> StageDistribution:
        if stage not in self.distributions:
            raise ConfigError(f"unknown stage {stage!r}, expected one of {STAGES}")
        return self.distributions[stage]


def _stage_distribution(
    partition: FeaturePartition, spectra: TaskSpectra, basis: SpectralBasis, stage: str
) -> StageDistribution:
    n = partition.n
    v = np.ones(n)
    t = np.zeros(n)
    t[partition.invariant] = spectra.invariant
    if stage == "pretrain":
        v[partition.specialized] = 0.0
        t[partition.inconsistent] = spectra.pre_inconsistent
    elif stage == "posttrain":
        t[partition.inconsistent] = spectra.post_inconsistent
        t[partition.specialized] = spectra.specialized_target
    else:  # finetune
        v[partition.specialized] = 0.0
        t[partition.inconsistent] = spectra.ft_inconsistent
    return StageDistribution(label=stage, basis=basis, input_variances=v, cross_covariance=v * t)


def build_task_family(
    partition: FeaturePartition,
    spectra: TaskSpectra,
    basis_mode: str = "identity",
    basis_seed: int | None = None,
) -> TaskFamily:
    """Assemble a TaskFamily in the named basis (SpectralBasis.from_mode).

    The spectra are checked first, before the n x n basis, whose arrays a
    partition the spectra do not fit could make huge.
    """
    spectra.validate(partition)
    basis = SpectralBasis.from_mode(basis_mode, partition.n, basis_seed)
    dists = {stage: _stage_distribution(partition, spectra, basis, stage) for stage in STAGES}
    return TaskFamily(partition=partition, spectra=spectra, basis=basis, distributions=dists)


def inequality_margins(spectra: TaskSpectra) -> tuple[tuple[str, float, str], ...]:
    """The four magnitude inequalities a valid family must satisfy, as (name, margin, condition).

    Each holds when its signed margin is positive.
    """
    post, gap = spectra.post_inconsistent, spectra.mismatch_gap
    ceiling = max(float(np.max(spectra.pre_inconsistent)), float(np.max(post)), spectra.specialized_target)
    return (
        (
            "inconsistent_post_pre_gap",
            float(np.min(post - spectra.pre_inconsistent)) - gap,
            "min(post - pre) must exceed mismatch_gap on the inconsistent block",
        ),
        (
            "inconsistent_post_ft_gap",
            float(np.min(post - spectra.ft_inconsistent)) - gap,
            "min(post - ft) must exceed mismatch_gap on the inconsistent block",
        ),
        (
            "specialized_magnitude",
            gap / 2 - spectra.specialized_target,
            "specialized_target must stay below mismatch_gap / 2",
        ),
        (
            "invariant_dominance",
            float(np.min(spectra.invariant)) - ceiling,
            "invariant teacher values must dominate inconsistent and specialized ones",
        ),
    )
