"""Pareto frontiers over run metrics, with both axes minimized.

A point weakly dominates another if it is no worse on both axes and strictly
better on at least one.  Frontiers keep exactly the non-weakly-dominated
points, sorted by ascending x, which makes y strictly descending; duplicate
coordinates collapse to the lexicographically smallest run_id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .records import record_number

PROJECTIONS: dict[str, tuple[str, str]] = {
    "ret_ft": ("L_ret", "L_ft"),
    "pre_ret": ("L_pre", "L_ret"),
}


@dataclass(frozen=True)
class FrontierPoint:
    x: float
    y: float
    run_id: str = ""


@dataclass(frozen=True)
class ParetoFrontier:
    """Non-dominated points, ascending in x and strictly descending in y."""

    points: tuple[FrontierPoint, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.points, self.points[1:]):
            if not (a.x < b.x and a.y > b.y):
                raise ConfigError(
                    f"frontier points must strictly ascend in x and descend in y, got "
                    f"({a.x}, {a.y}) before ({b.x}, {b.y})"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _check_point(p: FrontierPoint) -> None:
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise ConfigError(f"non-finite coordinates ({p.x}, {p.y}) for run {p.run_id!r}")
    if p.x < 0 or p.y < 0:
        raise ConfigError(f"loss coordinates must be nonnegative, got ({p.x}, {p.y}) for run {p.run_id!r}")


def pareto_front(points: Sequence[FrontierPoint]) -> ParetoFrontier:
    """Extract the weak-dominance frontier from a batch of points."""
    if len(points) == 0:
        raise ConfigError("cannot build a frontier from zero points")
    for p in points:
        _check_point(p)
    ordered = sorted(points, key=lambda p: (p.x, p.y, p.run_id))
    kept: list[FrontierPoint] = []
    best_y = math.inf
    for p in ordered:
        if p.y < best_y:
            kept.append(p)
            best_y = p.y
    return ParetoFrontier(points=tuple(kept))


@dataclass(frozen=True)
class DominanceReport:
    """How thoroughly frontier A covers frontier B (per point of B)."""

    fraction_weak: float
    strict_count: int
    per_point: tuple[str, ...]  # "strict", "weak", or "none" for each point of B

    @property
    def all_dominated(self) -> bool:
        return self.fraction_weak == 1.0


def dominates(front_a: ParetoFrontier, front_b: ParetoFrontier, tol: float = 0.0) -> DominanceReport:
    """For each point of B, does some point of A weakly dominate it at tolerance tol?

    A point counts as strictly dominated when it is weakly dominated and some
    dominating point beats it by more than tol on at least one axis.
    """
    if tol < 0:
        raise ConfigError(f"tolerance must be nonnegative, got {tol}")
    statuses: list[str] = []
    for b in front_b:
        weak = False
        strict = False
        for a in front_a:
            if a.x <= b.x + tol and a.y <= b.y + tol:
                weak = True
                if a.x < b.x - tol or a.y < b.y - tol:
                    strict = True
                    break
        statuses.append("strict" if strict else ("weak" if weak else "none"))
    dominated = sum(s != "none" for s in statuses)
    return DominanceReport(
        fraction_weak=dominated / len(statuses),
        strict_count=sum(s == "strict" for s in statuses),
        per_point=tuple(statuses),
    )


def hypervolume(front: ParetoFrontier, ref: tuple[float, float]) -> float:
    """Area weakly dominated by the frontier inside the reference box.

    Computed as the exact staircase sum; every frontier point must lie inside
    the box spanned by the reference point.
    """
    rx, ry = float(ref[0]), float(ref[1])
    if not (math.isfinite(rx) and math.isfinite(ry)):
        raise ConfigError(f"reference point must be finite, got {ref}")
    for p in front:
        if p.x > rx or p.y > ry:
            raise ConfigError(
                f"point ({p.x}, {p.y}) of run {p.run_id!r} lies outside the reference box {ref}"
            )
    total = 0.0
    pts = front.points
    for i, p in enumerate(pts):
        next_x = pts[i + 1].x if i + 1 < len(pts) else rx
        total += (next_x - p.x) * (ry - p.y)
    return total


def points_from_records(
    records: Iterable[Mapping[str, object]],
    projection: str = "ret_ft",
) -> list[FrontierPoint]:
    """Project run records onto a metric pair; records without metrics are skipped."""
    if projection not in PROJECTIONS:
        raise ConfigError(f"unknown projection {projection!r}, expected one of {sorted(PROJECTIONS)}")
    kx, ky = PROJECTIONS[projection]
    points = []
    for rec in records:
        if rec.get(kx) is None or rec.get(ky) is None:
            continue
        x, y = record_number(rec, kx), record_number(rec, ky)
        points.append(FrontierPoint(x=x, y=y, run_id=str(rec.get("run_id", ""))))
    return points
