"""Command-line interface.

Commands: simulate (one pipeline run), sweep (grid of runs with resume),
verify (behavioral checks), plot (frontier SVG), frontier (frontier CSV).
The options may come before or after the command.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure
(divergence or a failed check).  The output directory defaults to the
STAGELAB_OUT environment variable, then ./stagelab-out.

Sweeps run serially.  --threads is still parsed and must be at least 1, but
it changes nothing and is left out of --help: the benchmark passes it on
every command.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Iterable

from .checks import run_all_checks
from .config import ExperimentConfig, load_config
from .errors import ConfigError, StagelabError
from .frontier import pareto_front, points_from_records
from .pipeline import make_run_id, run_pipeline, run_sweep
from .records import (
    _write_csv,
    format_float,
    pipeline_run_record,
    plan_fields,
    read_records,
    record_number,
    stable_hash,
    sweep_to_csv,
    write_records,
)
from .svgplot import render_frontier_svg
from .tasks import TaskFamily

RUNS_FILE = "runs.jsonl"
SWEEP_CSV = "sweep.csv"
FRONTIER_SVG = "frontier.svg"
FRONTIER_CSV = "frontier.csv"
FAMILY_JSON = "family.json"
# the settings a run record does not carry, which family.json pins for an --out
FAMILY_SECTIONS = ("init", "task")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # one flat parser: no command takes options of its own, and a subparser
    # per command costs about as much to build as the main parser.  It is
    # built once per process: parse_args leaves it as it was, and building
    # it costs several times what a parse does
    commands = "\n".join(f"  {name:<10}{line}" for name, (_, line) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="stagelab",
        description="Staged-training laboratory for two-layer linear networks.",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run; see the list below")
    parser.add_argument("--config", metavar="PATH", default=None, help="INI config file")
    parser.add_argument("--out", metavar="DIR", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in run provenance")
    parser.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    return parser


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out if args.out is not None else os.environ.get("STAGELAB_OUT", "stagelab-out")
    os.makedirs(out, exist_ok=True)
    return out


def _method_of(record: dict) -> str:
    mixed = "mix_fraction" in record and record_number(record, "mix_fraction") > 0
    return "mixed" if mixed else "unmixed"


def _recorded_runs(runs_path: str, tasks: Iterable[tuple[str, tuple]]) -> dict[str, dict]:
    """The records on file by run id, refusing one whose plans differ from its (run id, plans) task."""
    records = read_records(runs_path) if os.path.exists(runs_path) else []
    by_id = {rec["run_id"]: rec for rec in records if "run_id" in rec}
    for run_id, plans in tasks:
        record = by_id.get(run_id)
        if record is None:
            continue
        for name, value in plan_fields(plans).items():
            if record.get(name) != value:
                raise ConfigError(
                    f"run {run_id} is recorded in {runs_path} with {name} = "
                    f"{record.get(name)!r}, but the config gives {value!r}; use a fresh --out"
                )
    return by_id


def _family_settings(lines: list) -> dict[str, str]:
    """Each section.key=value line of family.json as '[section] key' -> value."""
    settings = {}
    for line in lines:
        if not isinstance(line, str):
            raise ValueError(line)
        name, value = line.split("=", 1)
        section, key = name.split(".", 1)
        settings[f"[{section}] {key}"] = value
    return settings


def _claim_family(out: str, cfg: ExperimentConfig) -> TaskFamily:
    """The config's task family, once the --out is known to hold no runs of another.

    Refuses an --out whose family.json holds other [task] or [init] settings.
    A directory without the file, whatever records it holds, is taken to
    belong to the current config; the file is written only once the family
    has built, so a refused family claims nothing.
    """
    path = os.path.join(out, FAMILY_JSON)
    lines = cfg.canonical_lines(FAMILY_SECTIONS)
    if not os.path.exists(path):
        family = cfg.task_family()
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(lines, indent=1) + "\n")
        os.replace(path + ".tmp", path)  # a cut write leaves no damaged file behind
        return family
    try:
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
        recorded = _family_settings(recorded if isinstance(recorded, list) else [None])
    except ValueError:
        raise ConfigError(f"{path} is not a list of config lines; use a fresh --out") from None
    given = _family_settings(lines)
    for key in sorted(given.keys() | recorded.keys()):
        if given.get(key) != recorded.get(key):
            raise ConfigError(
                f"{out} holds runs of {key} = {recorded.get(key, '(unset)')}, "
                f"but the config gives {given.get(key, '(unset)')}; use a fresh --out"
            )
    return cfg.task_family()


def cmd_simulate(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    out = _out_dir(args)
    plans = cfg.stage_plans()
    run_id = make_run_id(*plans)
    runs_path = os.path.join(out, RUNS_FILE)
    recorded = _recorded_runs(runs_path, [(run_id, plans)])
    family = _claim_family(out, cfg)
    run = run_pipeline(family, plans, cfg.init_state(family), run_id=run_id)
    # the sweep's resume rule: a run id already on record is not written twice
    if run.run_id not in recorded:
        record = pipeline_run_record(run, seed=args.seed, config_hash=stable_hash(cfg.canonical()))
        write_records(runs_path, [record], append=True)
    if run.metrics is None:
        print(f"run {run.run_id}: diverged during {run.failed_stage}", file=sys.stderr)
        return 3
    print(f"run {run.run_id}")
    for key, value in run.metrics.items():
        print(f"  {key} = {format_float(value)}")
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    tasks = list(itertools.product(*cfg.sweep_plans()))
    if not tasks:
        raise ConfigError("sweep grid is empty; every [sweep] list needs at least one value")
    run_ids = [make_run_id(*plans) for plans in tasks]
    seen: set[str] = set()
    for run_id in run_ids:
        if run_id in seen:
            raise ConfigError(f"the [sweep] grid lists run {run_id} twice")
        seen.add(run_id)
    out = _out_dir(args)
    runs_path = os.path.join(out, RUNS_FILE)
    by_id = _recorded_runs(runs_path, zip(run_ids, tasks))
    family = _claim_family(out, cfg)
    todo = [plans for plans, run_id in zip(tasks, run_ids) if run_id not in by_id]
    config_hash = stable_hash(cfg.canonical())
    new_records = []
    for run in run_sweep(family, cfg.init_state(family), todo):
        record = pipeline_run_record(run, seed=args.seed, config_hash=config_hash)
        # one append per run, so an interrupted sweep keeps every finished run
        write_records(runs_path, [record], append=True)
        new_records.append(record)
        by_id[run.run_id] = record

    # Regenerate the CSV from all records, in the sweep's enumeration order.
    sweep_to_csv((by_id[i] for i in run_ids if i in by_id), os.path.join(out, SWEEP_CSV))
    completed = len(tasks) - len(todo)
    print(f"sweep: {len(new_records)} new runs, {completed} already recorded, out={out}")
    for rec in new_records:
        if rec["failed_stage"] is not None:
            print(f"  diverged: {rec['run_id']} at stage {rec['failed_stage']}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    out = _out_dir(args)
    family = cfg.task_family()
    reports = run_all_checks(family, **cfg.verify_kwargs())
    table = []
    for report in reports:
        table.append(report.summary())
        if not report.passed:
            table.extend(f"    {note}" for note in report.notes)
    sys.stdout.write("\n".join(table) + "\n")
    with open(os.path.join(out, "verify.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(report.details() for report in reports) + "\n")
    return 0 if all(r.passed for r in reports) else 3


def _load_points(out: str, projection: str):
    runs_path = os.path.join(out, RUNS_FILE)
    if not os.path.exists(runs_path):
        raise ConfigError(f"no run records at {runs_path}; run 'sweep' or 'simulate' first")
    records = read_records(runs_path)
    by_method: dict[str, list] = {}
    for rec in records:
        pts = points_from_records([rec], projection)
        if pts:
            by_method.setdefault(_method_of(rec), []).extend(pts)
    if not by_method:
        raise ConfigError(f"no completed runs in {runs_path}")
    return by_method


def cmd_plot(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    out = _out_dir(args)
    projection = cfg.projection()
    by_method = _load_points(out, projection)
    svg = render_frontier_svg(by_method, projection=projection)
    path = os.path.join(out, FRONTIER_SVG)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {path}")
    return 0


def cmd_frontier(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    out = _out_dir(args)
    projection = cfg.projection()
    by_method = _load_points(out, projection)
    rows = []
    for method in sorted(by_method):
        points = sorted(by_method[method], key=lambda p: (p.x, p.y, p.run_id))
        on_front = set(pareto_front(points))
        rows.extend([projection, p.run_id, p.x, p.y, p in on_front, method] for p in points)
    path = os.path.join(out, FRONTIER_CSV)
    _write_csv(path, ["projection", "run_id", "x", "y", "on_front", "method"], rows)
    print(f"wrote {path}")
    return 0


# each command's function and its line in --help
_COMMANDS = {
    "simulate": (cmd_simulate, "run one pretrain/posttrain/finetune pipeline"),
    "sweep": (cmd_sweep, "run the configured hyperparameter grid (resumable)"),
    "verify": (cmd_verify, "run the behavioral checks and print a pass/fail table"),
    "plot": (cmd_plot, "render the frontier SVG from recorded runs"),
    "frontier": (cmd_frontier, "export the per-method frontier as CSV"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = load_config(args.config)
        command, _ = _COMMANDS[args.command]
        return command(args, cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StagelabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
