"""Spans around calls into stagelab's public functions, recorded from outside.

Several modules bind a function by name (``from .network import train``), so
a function is wrapped at every module attribute that holds it, not only in
the module that defines it.  Spans nest per thread; a span opened on a worker
thread with nothing open on that thread is a child of the innermost span open
on the thread that installed the tracer.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function, span name): every public function the benchmark times.
FUNCTIONS = (
    ("stagelab.config", "load_config", "config.load"),
    ("stagelab.network", "train", "network.train"),
    ("stagelab.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("stagelab.pipeline", "continue_from_pretrained", "pipeline.continue_from_pretrained"),
    ("stagelab.checks", "run_all_checks", "checks.run_all"),
    ("stagelab.checks", "check_assumptions", "checks.structural_assumptions"),
    ("stagelab.checks", "check_specialized_acquisition", "checks.specialized_acquisition"),
    ("stagelab.checks", "check_sequential_order", "checks.sequential_order"),
    ("stagelab.checks", "check_posttrain_routing", "checks.posttrain_routing"),
    ("stagelab.checks", "check_frozen_directions", "checks.frozen_directions"),
    ("stagelab.checks", "check_forgetting_gap", "checks.forgetting_gap"),
    ("stagelab.records", "read_records", "records.read"),
    ("stagelab.records", "write_records", "records.write"),
    ("stagelab.records", "existing_run_ids", "records.existing_run_ids"),
    ("stagelab.records", "pipeline_run_record", "records.pipeline_run_record"),
    ("stagelab.frontier", "pareto_front", "frontier.pareto_front"),
    ("stagelab.frontier", "points_from_records", "frontier.points_from_records"),
    ("stagelab.svgplot", "render_frontier_svg", "svgplot.render"),
)
# (module, class, method, span name)
METHODS = (("stagelab.config", "ExperimentConfig", "task_family", "config.task_family"),)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _train_attrs(args: dict, result) -> dict:
    state, trajectory = result
    return {
        "label": args["dist"].label,
        "probe_every": args["config"].probe_every,
        "spectrum": bool(args["record_spectrum"]),
        "steps": state.step - args["state"].step,
        "snapshots": len(trajectory.snapshots),
    }


def _write_attrs(args: dict, size_before: int) -> dict:
    records = args["records"]
    return {
        "bytes": _size(args["path"]) - (size_before if args["append"] else 0),
        "records": len(records) if hasattr(records, "__len__") else None,
    }


class Tracer:
    """Installs wrappers on enter, removes them on exit; spans accumulate across uses."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else None)
        record = Span(name=name, start=0.0, parent=parent)
        self.spans.append(record)
        index = len(self.spans) - 1
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _wrap(self, original, name: str):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            if name == "records.read":
                attrs = {"bytes": _size(arguments["path"])}
            elif name == "records.write":
                before = _size(arguments["path"])
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if name == "network.train":
                record.attrs.update(_train_attrs(arguments, result))
            elif name == "records.read":
                record.attrs.update(attrs)
            elif name == "records.write":
                record.attrs.update(_write_attrs(arguments, before))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        self._owner = threading.current_thread()
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "stagelab"]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Self time of each span, in the order of self.spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.duration - covered)
        return out
