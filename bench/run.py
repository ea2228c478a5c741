"""Layered benchmark for stagelab.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop with one client: each op calls the CLI
in-process through stagelab.cli.main, writing to a fresh output directory,
and starts only after the previous op has finished and been checked.  An op
fails on a non-zero exit, a FAIL check, a byte mismatch or an oracle
mismatch.  With --trace 0 the last line of stdout is a JSON object holding
the end-to-end metrics, with op times in reference seconds (see Clock); with
--trace 1 the ops alternate between untraced and traced, after one traced
pass of every command on the default config, and the JSON holds the
per-module metrics.  Workloads, metrics and known defects are described in
bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "sweep-dense", "verify", "report")

# The reference experiment, written out in full so that the oracle and the
# configs the benchmark hands to the CLI share one source.
TASK = {
    "n": 6,
    "k": 2,
    "invariant": (5.0, 4.0),
    "pre_inconsistent": (1.0, 0.8),
    "post_inconsistent": (3.5, 3.3),
    "ft_inconsistent": (0.5, 0.3),
    "specialized_target": 0.9,
    "mismatch_gap": 2.0,
}
TAU = 12.0
PRETRAIN_ETA = 0.02
SIMULATE_PLANS = (
    {"steps": 3000, "eta": PRETRAIN_ETA, "mix": 0.0},
    {"steps": 2000, "eta": 0.02, "replay": 0.01, "ridge": 0.1},
    {"steps": 2000, "eta": 0.02},
)
SWEEP_STEPS2, SWEEP_STEPS3 = 250, 300  # the [sweep] defaults
VERIFY_CHECKS = 6
# run_all_checks at the reference budgets: acquisition trains two arms and the
# order check one run for acquisition_steps each, routing two arms for
# routing_steps, the frozen-direction run 10,000 steps and the forgetting gap
# two arms of 10,000 steps.
VERIFY_STEPS = 3 * 40_000 + 2 * 10_000 + 10_000 + 2 * 10_000

SETUP_SAMPLES = 12
# Reference seconds are seconds on a machine where calibrate() takes this long.
CALIBRATION_S = 0.017
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import stagelab
from stagelab.config import load_config
cfg = load_config(sys.argv[2] or None)
cfg.task_family()
cfg.init_state()
print(time.perf_counter() - start)
"""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def four_digits(x: float) -> float:
    return float(f"{x:.4g}")


def distinct(draw, count: int) -> list[float]:
    values: list[float] = []
    while len(values) < count:
        x = four_digits(draw())
        if x not in values:
            values.append(x)
    return values


def ini_text(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, (tuple, list)):
                value = ", ".join(repr(float(v)) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def seeded_grid(rng: random.Random, n_eta3: int) -> dict:
    """Default grid shape with values drawn from the default ranges.

    One mix value stays 0 so both frontier methods exist; every eta keeps
    4 * eta * (ridge + 2) * gamma_bound < 1 with ridge 0 and gamma_bound 2.
    """
    mix = (0.0, four_digits(0.5 * (1.0 - rng.random())))
    eta2 = sorted(distinct(lambda: rng.uniform(0.008, 0.02), 3))
    eta3 = sorted(distinct(lambda: math.exp(rng.uniform(math.log(3e-4), math.log(0.05))), n_eta3))
    return {"mix_fractions": mix, "eta2": eta2, "eta3": eta3}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with 10 samples beyond.

    The tail never drops below p75: a run with fewer than 40 ops keeps a
    quarter of its samples beyond it instead of 10.
    """
    xs = sorted(latencies)
    beyond = min(10, len(xs) // 4)
    index = len(xs) - 1 - beyond
    return xs[index], 100.0 * (index + 1) / len(xs), beyond


def provenance() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Bench:
    """Shared state of one benchmark run: work directory, tracer, golden hashes."""

    def __init__(self, work: Path, tracer) -> None:
        self.work = work
        self.tracer = tracer
        self.tracing = False
        self.golden = json.loads((BENCH / "golden.json").read_text())

    def cli(self, command: str, out: Path, config: Path | None = None, threads: int = 1, span=None):
        from stagelab.cli import main

        argv = ["--config", str(config)] if config else []
        argv += ["--out", str(out), "--threads", str(threads), command]
        buf = io.StringIO()
        spanning = self.tracer.span(span or f"cli.{command}") if self.tracing else contextlib.nullcontext()
        with spanning, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = main(argv)
        return rc, buf.getvalue()

    def config(self, name: str, sections: dict) -> Path:
        path = self.work / name
        path.write_text(ini_text(sections))
        return path

    def golden_pass(self, out: Path) -> list[str]:
        """simulate, sweep, plot and frontier on the default config; compare pinned hashes."""
        errors = []
        for command in ("simulate", "sweep", "plot", "frontier"):
            rc, text = self.cli(command, out)
            if rc != 0:
                errors.append(f"golden {command} exited {rc}: {text.strip()}")
        for name, want in self.golden["default"].items():
            got = sha256(out / name) if (out / name).exists() else None
            if got != want:
                errors.append(f"golden {name}: sha256 {got}, pinned {want}")
        return errors


class SweepWorkload:
    """simulate, then sweep at --threads 1, in a fresh directory."""

    files = ("runs.jsonl", "sweep.csv")

    def __init__(self, bench: Bench, seed: int, dense: bool) -> None:
        self.bench = bench
        rng = random.Random(seed)
        self.grid = seeded_grid(rng, 5)
        self.task = dict(TASK, basis="random" if dense else "identity", basis_seed=seed)
        sections = {
            "task": self.task,
            "init": {"tau": TAU},
            "pretrain": {"steps": SIMULATE_PLANS[0]["steps"], "eta": PRETRAIN_ETA, "mix_fraction": 0.0},
            "posttrain": {
                "steps": SIMULATE_PLANS[1]["steps"],
                "eta": SIMULATE_PLANS[1]["eta"],
                "ridge_lambda": SIMULATE_PLANS[1]["ridge"],
                "replay_fraction": SIMULATE_PLANS[1]["replay"],
            },
            "finetune": {"steps": SIMULATE_PLANS[2]["steps"], "eta": SIMULATE_PLANS[2]["eta"]},
            "sweep": dict(
                self.grid, steps2=SWEEP_STEPS2, steps3=SWEEP_STEPS3, ridge_lambda=0.0, replay_fraction=0.0
            ),
        }
        self.ini = bench.config("workload.ini", sections)
        steps1 = SIMULATE_PLANS[0]["steps"]
        self.stage1 = [{"steps": steps1, "eta": PRETRAIN_ETA, "mix": m} for m in self.grid["mix_fractions"]]
        self.stage2 = [{"steps": SWEEP_STEPS2, "eta": e, "replay": 0.0, "ridge": 0.0} for e in self.grid["eta2"]]
        self.stage3 = [{"steps": SWEEP_STEPS3, "eta": e} for e in self.grid["eta3"]]
        self.grid_runs = len(self.stage1) * len(self.stage2) * len(self.stage3)
        self.runs_per_op = 1 + self.grid_runs
        self.steps_per_op = (
            sum(p["steps"] for p in SIMULATE_PLANS)
            + steps1 * len(self.stage1)
            + self.grid_runs * (SWEEP_STEPS2 + SWEEP_STEPS3)
        )
        self.first: dict | None = None

    def prepare(self) -> list[str]:
        return []

    def op(self, out: Path) -> list[tuple[str, int, str]]:
        return [
            ("simulate", *self.bench.cli("simulate", out, self.ini)),
            ("sweep", *self.bench.cli("sweep", out, self.ini, threads=1)),
        ]

    def check(self, out: Path, results) -> list[str]:
        errors = [f"{cmd} exited {rc}: {text.strip()}" for cmd, rc, text in results if rc != 0]
        if errors:
            return errors
        hashes = {name: sha256(out / name) for name in self.files}
        if self.first is not None:
            return [f"rerun {n} differs from the first op" for n in self.files if hashes[n] != self.first[n]]
        self.first = hashes
        return self.check_oracle(out, results)

    def check_oracle(self, out: Path, results) -> list[str]:
        import oracle

        expected_line = f"sweep: {self.grid_runs} new runs, 0 already recorded"
        errors = [] if expected_line in results[1][2] else [f"sweep printed {results[1][2]!r}"]
        records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        if len(records) != self.runs_per_op:
            return errors + [f"runs.jsonl holds {len(records)} records, expected {self.runs_per_op}"]
        simulated = oracle.grid_losses(self.task, TAU, *([p] for p in SIMULATE_PLANS))
        swept = oracle.grid_losses(self.task, TAU, self.stage1, self.stage2, self.stage3)
        for record, ((i, j, l), want) in zip(records, [*simulated.items(), *swept.items()]):
            if record.get("status") != "ok":
                errors.append(f"{record.get('run_id')}: status {record.get('status')}")
                continue
            plans = ((SIMULATE_PLANS[0], SIMULATE_PLANS[1], SIMULATE_PLANS[2]) if record is records[0]
                     else (self.stage1[i], self.stage2[j], self.stage3[l]))
            got = (record["mix_fraction"], record["eta2"], record["eta3"])
            if got != (plans[0]["mix"], plans[1]["eta"], plans[2]["eta"]):
                errors.append(f"{record['run_id']}: record is for plans {got}")
                continue
            errors += [f"{record['run_id']}: {m}" for m in oracle.mismatches(want, record)]
        rows = (out / "sweep.csv").read_text().splitlines()
        if len(rows) != 1 + self.grid_runs:
            errors.append(f"sweep.csv holds {len(rows) - 1} rows, expected {self.grid_runs}")
        return errors


class VerifyWorkload:
    """stagelab verify on the reference config; the seed is unused."""

    runs_per_op = VERIFY_CHECKS
    steps_per_op = VERIFY_STEPS

    def __init__(self, bench: Bench, seed: int) -> None:
        self.bench = bench
        self.ini = None

    def prepare(self) -> list[str]:
        return []

    def op(self, out: Path):
        return [("verify", *self.bench.cli("verify", out))]

    def check(self, out: Path, results) -> list[str]:
        (_, rc, text), = results
        lines = text.splitlines()
        errors = [] if rc == 0 else [f"verify exited {rc}: {text.strip()}"]
        if len(lines) != VERIFY_CHECKS or not all(line.startswith("[PASS] ") for line in lines):
            errors.append(f"verify reported {text!r}")
        got = sha256(out / "verify.txt") if (out / "verify.txt").exists() else None
        if got != self.bench.golden["verify.txt"]:
            errors.append(f"verify.txt sha256 {got}, pinned {self.bench.golden['verify.txt']}")
        return errors


class ReportWorkload:
    """Copy a directory of recorded runs, resume a sweep that adds a few runs, plot, frontier."""

    files = ("runs.jsonl", "sweep.csv", "frontier.svg", "frontier.csv")
    STEPS1, STEPS2, STEPS3, N_ETA2, N_ETA3 = 300, 50, 50, 4, 60

    def __init__(self, bench: Bench, seed: int) -> None:
        self.bench = bench
        rng = random.Random(seed)
        grid = seeded_grid(rng, self.N_ETA3 + 1)
        grid["eta2"] = sorted(distinct(lambda: rng.uniform(0.008, 0.02), self.N_ETA2))
        extra = grid["eta3"].pop(rng.randrange(len(grid["eta3"])))
        sweep = {"steps2": self.STEPS2, "steps3": self.STEPS3, "ridge_lambda": 0.0, "replay_fraction": 0.0}
        pretrain = {"steps": self.STEPS1, "eta": PRETRAIN_ETA}
        self.base_ini = bench.config("base.ini", {"pretrain": pretrain, "sweep": dict(grid, **sweep)})
        position = rng.randrange(len(grid["eta3"]) + 1)
        grid["eta3"] = grid["eta3"][:position] + [extra] + grid["eta3"][position:]
        self.ini = bench.config("workload.ini", {"pretrain": pretrain, "sweep": dict(grid, **sweep)})
        mixes = len(grid["mix_fractions"])
        self.runs_per_op = mixes * self.N_ETA2
        self.existing = mixes * self.N_ETA2 * self.N_ETA3
        self.steps_per_op = mixes * self.STEPS1 + self.runs_per_op * (self.STEPS2 + self.STEPS3)
        self.base = bench.work / "base"
        self.first: dict | None = None

    def prepare(self) -> list[str]:
        errors = []
        for ini, out in ((self.base_ini, self.base), (self.ini, self.bench.work / "scratch-sweep")):
            rc, text = self.bench.cli("sweep", out, ini)
            if rc != 0:
                errors.append(f"setup sweep exited {rc}: {text.strip()}")
        scratch = self.bench.work / "scratch-sweep" / "sweep.csv"
        self.from_scratch = scratch.read_bytes() if scratch.exists() else None
        return errors

    def op(self, out: Path):
        shutil.copytree(self.base, out)
        return [(cmd, *self.bench.cli(cmd, out, self.ini)) for cmd in ("sweep", "plot", "frontier")]

    def check(self, out: Path, results) -> list[str]:
        errors = [f"{cmd} exited {rc}: {text.strip()}" for cmd, rc, text in results if rc != 0]
        if errors:
            return errors
        line = f"sweep: {self.runs_per_op} new runs, {self.existing} already recorded"
        if line not in results[0][2]:
            errors.append(f"sweep printed {results[0][2]!r}")
        if (out / "sweep.csv").read_bytes() != self.from_scratch:
            errors.append("resumed sweep.csv differs from a from-scratch sweep of the same grid")
        hashes = {name: sha256(out / name) for name in self.files}
        if self.first is None:
            self.first = hashes
        errors += [f"rerun {n} differs from the first op" for n in self.files if hashes[n] != self.first[n]]
        return errors


def guarded(fn) -> list[str]:
    """Errors from a check op; an exception is one more error, not the end of the run."""
    try:
        return fn()
    except Exception as exc:
        return [f"{type(exc).__name__}: {exc}"]


def make_workload(name: str, bench: Bench, seed: int):
    if name in ("sweep", "sweep-dense"):
        return SweepWorkload(bench, seed, dense=name == "sweep-dense")
    if name == "verify":
        return VerifyWorkload(bench, seed)
    return ReportWorkload(bench, seed)


def setup_time(config: Path | None) -> float:
    """Seconds a fresh interpreter takes to import stagelab and build config, family and init."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config or "")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup interpreter failed: {done.stderr.strip()}")
    return float(done.stdout)


def calibrate() -> float:
    """Seconds the calibration kernel takes.

    Like train() recording snapshots, it makes 3,000 small numpy updates and
    keeps a copy of the diagonal after each; it uses nothing from stagelab.
    The collector is off while it runs, so the benchmark's own heap cannot
    slow it.
    """
    import gc

    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        w = np.diag(np.arange(1.0, 7.0))
        rows = []
        for _ in range(3000):
            w = w * 0.999 + 0.001
            rows.append(np.diag(w).copy())
        float(np.sum(np.stack(rows)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times work in reference seconds: wall time scaled by CALIBRATION_S / calibration time.

    The calibration kernel runs before the first piece of work and after each
    one; a piece of work is scaled by the mean of the two calibrations around
    it.  This takes out the speed of the shared machine, which drifts by
    +-20% within minutes, and keeps what the program itself costs.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.calibrations = [self.last]

    def time(self, fn):
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            before, self.last = self.last, calibrate()
            self.calibrations.append(self.last)
            self.scaled = wall * 2.0 * CALIBRATION_S / (before + self.last)
            self.wall = wall
        return result


@dataclass
class Op:
    wall: float
    scaled: float
    traced: bool
    first: int  # the op's spans are tracer.spans[first:last]
    last: int
    errors: list


def run_ops(bench: Bench, workload, seconds: float, traced_every: int, setups: list | None = None):
    """Closed loop until the deadline; every traced_every-th op is traced (0: none).

    With a setups list, a fresh-interpreter set-up is timed between ops at
    SETUP_SAMPLES even intervals, so that the samples span the whole run
    rather than one stretch of it.
    """
    ops: list[Op] = []
    clock = Clock()
    begin = time.perf_counter()
    deadline = begin + seconds
    while time.perf_counter() < deadline or len(ops) < max(1, traced_every):
        out = bench.work / f"op{len(ops)}"
        traced = traced_every > 0 and len(ops) % traced_every == traced_every - 1
        first = len(bench.tracer.spans)
        with (bench.tracer if traced else contextlib.nullcontext()):
            bench.tracing = traced
            def attempt():
                with (bench.tracer.span("op") if traced else contextlib.nullcontext()):
                    return workload.op(out)

            try:
                results = clock.time(attempt)
                errors = workload.check(out, results)
            except Exception as exc:  # an op that raises is a failed op; the loop goes on
                errors = [f"{type(exc).__name__}: {exc}"]
            bench.tracing = False
        ops.append(Op(clock.wall, clock.scaled, traced, first, len(bench.tracer.spans), errors))
        shutil.rmtree(out, ignore_errors=True)
        if setups is not None and time.perf_counter() - begin >= len(setups) * seconds / SETUP_SAMPLES:
            clock.time(lambda: setup_time(workload.ini))
            setups.append(clock.scaled)
    print(
        f"calibration: {len(clock.calibrations)} runs, median "
        f"{1e3 * statistics.median(clock.calibrations):.4g} ms, reference {1e3 * CALIBRATION_S:g} ms"
    )
    return ops


def end_to_end(workload, ops: list[Op], setups: list[float]) -> dict:
    for kind in ("wall", "scaled"):
        latencies = [getattr(op, kind) for op in ops]
        q1, q2, q3 = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies * 3
        print(
            f"op latency ({kind}): {len(latencies)} ops, min {min(latencies):.4g} s, quartiles "
            f"{q1:.4g} / {q2:.4g} / {q3:.4g} s, max {max(latencies):.4g} s"
        )
    latencies = [op.scaled for op in ops]
    p50 = statistics.median(latencies)
    tail_value, percentile, beyond = tail(latencies)
    print(f"op_tail_s is p{percentile:.1f} of {len(latencies)} ops, with {beyond} samples beyond it")
    # Throughput at the median op: with about 8 verify ops in a run, one slow
    # op moves a sum of latencies by several percent.
    return {
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_value, "s"),
        "runs_per_s": (workload.runs_per_op / p50, "1/s"),
        "steps_per_s": (workload.steps_per_op / p50, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def op_counts(all_spans, first: int, last: int) -> dict:
    """Exact counts from the spans of one traced op, all_spans[first:last]."""
    def under(index: int, prefix: str) -> bool:
        while index is not None:
            if all_spans[index].name.startswith(prefix):
                return True
            index = all_spans[index].parent
        return False

    spans = all_spans[first:last]
    trains = [s for s in spans if s.name == "network.train"]
    in_sweep = [s for i, s in enumerate(spans, first) if under(i, "cli.sweep")]
    stage1 = sum(
        1 for s in in_sweep
        if s.name == "network.train" and s.attrs.get("label", "").startswith(("pretrain", "mix(pretrain"))
    )
    swept = sum(s.attrs.get("records") or 0 for s in in_sweep if s.name == "records.write")
    return {
        "network.train_calls": len(trains),
        "network.train_steps": sum(s.attrs.get("steps", 0) for s in trains),
        "network.snapshots": sum(s.attrs.get("snapshots", 0) for s in trains),
        "pipeline.stage1_trainings": stage1,
        "pipeline.stage1_reuse_ratio": swept / stage1 if stage1 else 0.0,
        "records.read_calls": sum(1 for s in spans if s.name == "records.read"),
        "records.bytes_read": sum(s.attrs.get("bytes", 0) for s in spans if s.name == "records.read"),
        "records.bytes_written": sum(s.attrs.get("bytes", 0) for s in spans if s.name == "records.write"),
    }


COUNT_UNITS = {
    "network.train_calls": "count",
    "network.train_steps": "count",
    "network.snapshots": "count",
    "pipeline.stage1_trainings": "count",
    "pipeline.stage1_reuse_ratio": "ratio",
    "records.read_calls": "count",
    "records.bytes_read": "B",
    "records.bytes_written": "B",
}
SELF_TIMES = {
    "cli.simulate_s": "cli.simulate",
    "cli.sweep_s": "cli.sweep",
    "cli.verify_s": "cli.verify",
    "cli.plot_s": "cli.plot",
    "cli.frontier_s": "cli.frontier",
    "cli.sweep_threads_nproc_s": "cli.sweep_threads_nproc",
    "config.load_s": "config.load",
    "config.task_family_s": "config.task_family",
    "checks.structural_assumptions_s": "checks.structural_assumptions",
    "checks.specialized_acquisition_s": "checks.specialized_acquisition",
    "checks.sequential_order_s": "checks.sequential_order",
    "checks.posttrain_routing_s": "checks.posttrain_routing",
    "checks.frozen_directions_s": "checks.frozen_directions",
    "checks.forgetting_gap_s": "checks.forgetting_gap",
    "records.read_s": "records.read",
    "records.write_s": "records.write",
    "frontier.pareto_front_s": "frontier.pareto_front",
    "svgplot.render_s": "svgplot.render",
}


def per_layer(bench: Bench, workload, ops) -> tuple[dict, list[str]]:
    spans = bench.tracer.spans
    self_times = bench.tracer.self_times()
    metrics: dict = {}
    for metric, name in SELF_TIMES.items():
        metrics[metric] = (_median(t for s, t in zip(spans, self_times) if s.name == name), "s")
    trains = [s for s in spans if s.name == "network.train"]
    for kind, keep in (
        ("sparse", lambda s: s.attrs.get("probe_every", 0) >= 50 and not s.attrs.get("spectrum")),
        ("recorded", lambda s: s.attrs.get("probe_every") == 1 and s.attrs.get("spectrum")),
    ):
        chosen = [s for s in trains if keep(s)]
        steps = sum(s.attrs["steps"] for s in chosen)
        metrics[f"network.train_us_per_step.{kind}"] = (
            1e6 * sum(s.duration for s in chosen) / steps if steps else 0.0, "us/step"
        )
    for metric, name in (
        ("pipeline.run_pipeline_ms", "pipeline.run_pipeline"),
        ("pipeline.continue_from_pretrained_ms", "pipeline.continue_from_pretrained"),
    ):
        metrics[metric] = (1e3 * _median(s.duration for s in spans if s.name == name), "ms")

    errors = []
    traced = [op for op in ops if op.traced]
    counts = [op_counts(spans, op.first, op.last) for op in traced]
    if counts:
        for metric, unit in COUNT_UNITS.items():
            metrics[metric] = (counts[0][metric], unit)
        if any(c != counts[0] for c in counts):
            errors.append(f"per-op counts differ between traced ops: {counts}")
        if counts[0]["network.train_steps"] != workload.steps_per_op:
            errors.append(
                f"traced ops trained {counts[0]['network.train_steps']} steps, "
                f"the plans give {workload.steps_per_op}"
            )
    else:
        errors.append("no traced op completed")
    untraced = [op.scaled for op in ops if not op.traced]
    traced_latency = [op.scaled for op in traced]
    metrics["trace.overhead_ratio"] = (
        _median(traced_latency) / _median(untraced) if untraced and traced_latency else 0.0, "ratio"
    )
    module_time = sum(
        t for op in traced for s, t in zip(spans[op.first:op.last], self_times[op.first:op.last])
        if s.name != "op"
    )
    op_time = sum(spans[op.first].duration for op in traced)
    metrics["trace.accounted_ratio"] = (module_time / op_time if traced else 0.0, "ratio")
    return metrics, errors


def tour(bench: Bench) -> list[str]:
    """One traced pass of every command on the default config, with the golden-bytes checks."""
    single, threaded = bench.work / "tour-threads-1", bench.work / "tour-threads-n"
    nproc = os.cpu_count() or 1
    with bench.tracer:
        bench.tracing = True
        try:
            errors = bench.golden_pass(single)
            rc, text = bench.cli("verify", single)
            for cmd in ("simulate", "sweep"):
                span = "cli.sweep_threads_nproc" if cmd == "sweep" else None
                cmd_rc, cmd_text = bench.cli(cmd, threaded, threads=nproc, span=span)
                if cmd_rc != 0:
                    errors.append(f"{cmd} at --threads {nproc} exited {cmd_rc}: {cmd_text.strip()}")
        finally:
            bench.tracing = False
    if rc != 0:
        errors.append(f"verify exited {rc}: {text.strip()}")
    got = sha256(single / "verify.txt") if (single / "verify.txt").exists() else None
    if got != bench.golden["verify.txt"]:
        errors.append(f"verify.txt sha256 {got}, pinned {bench.golden['verify.txt']}")
    for name in ("runs.jsonl", "sweep.csv"):
        if not (threaded / name).exists() or sha256(threaded / name) != sha256(single / name):
            errors.append(f"{name} at --threads {nproc} differs from --threads 1")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "stagelab" / "__init__.py").is_file():
        print(f"error: no stagelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import spans
    import stagelab
    import stagelab.cli  # the tracer patches only modules that are already loaded

    if Path(stagelab.__file__).resolve().parent != SRC / "stagelab":
        print(f"error: imported stagelab from {stagelab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(work, spans.Tracer())
        workload = make_workload(args.workload, bench, args.seed)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if args.workload == "verify":
            print("note: verify has fixed inputs; the seed is unused")
        print("provenance " + json.dumps(provenance(), sort_keys=True))
        checks = []  # untimed check ops: golden bytes in set-up, or the traced tour
        if args.trace:
            start = time.perf_counter()
            checks.append(guarded(lambda: tour(bench)) + guarded(workload.prepare))
            ops = run_ops(bench, workload, args.seconds - (time.perf_counter() - start), 2)
            metrics, errors = per_layer(bench, workload, ops)
            checks.append(errors)
        else:
            setup_time(workload.ini)  # compiles bytecode and warms the file cache
            # verify compares every op's verify.txt with its pin instead
            golden = [] if args.workload == "verify" else guarded(lambda: bench.golden_pass(work / "golden"))
            checks.append(golden + guarded(workload.prepare))
            setups: list[float] = []
            ops = run_ops(bench, workload, args.seconds, 0, setups)
            metrics = end_to_end(workload, ops, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failures = [errors for errors in checks if errors] + [op.errors for op in ops if op.errors]
    for errors in failures[:5]:
        print("FAILED: " + "; ".join(errors[:5]), file=sys.stderr)
    attempted = len(ops) + len(checks)
    print(f"failed_ops_ratio = {len(failures)}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
