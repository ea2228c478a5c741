"""Append-only JSONL run records, and the CSV tables made from them, with
deterministic byte-level layout.

Floats are written with 17 significant digits so every value survives a
write/read round trip exactly; stdlib json is only used for parsing and for
string escaping, because its writer does not let us pin the float format.
Records are flat dicts written in insertion order, one per line, so a rerun
of the same experiment produces byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from .errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import PipelineRun, StagePlan

RECORD_SCHEMA_VERSION = 1

# sweep.csv's columns, in order: the swept settings, then the metrics
CSV_COLUMNS = (
    "run_id",
    "mix_fraction",
    "replay_fraction",
    "eta2",
    "lambda_ridge",
    "eta3",
    "steps3",
    "L_im",
    "L_ret",
    "L_ft",
    "L_pre",
    "delta",
)


def format_float(x: float) -> str:
    """17-significant-digit decimal form; always parses back to the same float."""
    s = "%.17g" % x
    if "." in s or "e" in s:
        return s
    # %g writes inf and nan without a point or an exponent
    if not math.isfinite(x):
        raise ValueError(f"records only hold finite floats, got {x}")
    return s + ".0"  # keep the value a float on the JSON side


def _json_value(v: Any) -> str:
    if isinstance(v, float):
        return format_float(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(item) for item in v) + "]"
    raise TypeError(f"record values must be scalars or flat lists, got {type(v).__name__}")


@functools.lru_cache(maxsize=256)
def _json_key(key: str) -> str:
    """json.dumps(key), cached: every line of a records file repeats one small set of keys."""
    return json.dumps(key)


def dumps_record(record: Mapping[str, Any]) -> str:
    """One canonical JSON line, keys in insertion order."""
    body = ", ".join(f"{_json_key(k)}: {_json_value(v)}" for k, v in record.items())
    return "{" + body + "}"


def _parses(text: bytes | str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def write_records(path: str | os.PathLike, records: Iterable[Mapping[str, Any]], append: bool = False) -> int:
    """Write records one per line; returns the number written.

    An append first mends the end of the file through the handle it writes
    with: an unterminated last line that does not parse is a write that was
    cut short and is cut, one that parses is terminated, so a record never
    lands on such a line.  Writes are binary; the UTF-8 bytes are those a
    text-mode write gives, and every line is ASCII, as json.dumps escapes.
    """
    count = 0
    with open(path, "a+b" if append else "wb") as fh:
        # writes in append mode go to the end, wherever reads left the handle
        if append and fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.seek(0)
                data = fh.read()
                start = data.rfind(b"\n") + 1
                if _parses(data[start:]):
                    fh.write(b"\n")
                else:
                    fh.truncate(start)
        for record in records:
            fh.write(f"{dumps_record(record)}\n".encode())
            count += 1
    return count


def read_records(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Every record in the file, without an unterminated last line that does not parse.

    Such a line is a write that was cut short; the run it held is not on
    record.  Any other line that does not parse, or that is not an object
    whose run_id (if any) is a string, raises ConfigError, and so does a
    line that is not UTF-8, the last one included: every record is ASCII,
    so no write cut short leaves such a line.
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path} line {lineno} is not a JSON record: {exc}") from None
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except ValueError as exc:
                if line.endswith("\n"):
                    raise ConfigError(f"{path} line {lineno} is not a JSON record: {exc}") from None
                continue
            if not isinstance(record, dict) or not isinstance(record.get("run_id", ""), str):
                raise ConfigError(
                    f"{path} line {lineno} is not a JSON record: "
                    "expected an object whose run_id is a string"
                )
            out.append(record)
    return out


def record_number(record: Mapping[str, Any], key: str, kind: type = float) -> Any:
    """kind(record[key]); a value that is missing or not a finite number raises ConfigError."""
    value = record.get(key)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"run {record.get('run_id')!r} has {key} = {value!r}, not a finite number")
    return number


def existing_run_ids(path: str | os.PathLike) -> set[str]:
    """run_id values already present in a records file (empty set if absent)."""
    if not os.path.exists(path):
        return set()
    return {rec["run_id"] for rec in read_records(path) if "run_id" in rec}


def stable_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def plan_fields(plans: Sequence["StagePlan"]) -> dict[str, Any]:
    """The plan settings a run record carries, by record key."""
    plan1, plan2, plan3 = plans
    return {
        "mix_fraction": plan1.mix_fraction, "steps1": plan1.steps, "eta1": plan1.eta,
        "replay_fraction": plan2.replay_fraction, "lambda_ridge": plan2.ridge_lambda,
        "steps2": plan2.steps, "eta2": plan2.eta,
        "steps3": plan3.steps, "eta3": plan3.eta,
    }


def pipeline_run_record(run: "PipelineRun", seed: int, config_hash: str) -> dict[str, Any]:
    """Flatten a pipeline run into a record row (metrics null on failure)."""
    record: dict[str, Any] = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "kind": "pipeline_run",
        "run_id": run.run_id,
        "seed": seed,
        "config_hash": config_hash,
        "status": "ok" if run.succeeded else "diverged",
        "failed_stage": run.failed_stage,
        **plan_fields(run.plans),
    }
    if run.metrics is None:
        record.update({"L_im": None, "L_ret": None, "L_ft": None, "L_pre": None, "delta": None})
    else:
        record.update(run.metrics)
    return record


def _write_csv(path: str | os.PathLike, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header and rows; strings go in verbatim, other values as in records."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _json_value(v) for v in row])


def sweep_to_csv(records: Iterable[Mapping[str, Any]], path: str | os.PathLike) -> None:
    """Write run records in CSV_COLUMNS order, each cell as _write_csv would.

    Failed runs carry no metrics and are omitted; they live in the JSONL
    records with their failure status instead.
    """
    rows = (
        [rec["run_id"]]
        + [
            str(record_number(rec, c, int)) if c == "steps3" else format_float(record_number(rec, c))
            for c in CSV_COLUMNS[1:]
        ]
        for rec in records
        if rec.get("L_im") is not None
    )
    _write_csv(path, CSV_COLUMNS, rows)
