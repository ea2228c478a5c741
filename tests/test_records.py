"""Tests for the deterministic JSONL record layer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagelab import (
    ConfigError,
    StagePlan,
    init_scaled_identity,
    run_pipeline,
)
from stagelab.records import (
    dumps_record,
    existing_run_ids,
    format_float,
    pipeline_run_record,
    read_records,
    stable_hash,
    write_records,
)


def test_format_float_keeps_values_exactly():
    cases = [0.1, 1.5, 2.0, -0.0, 6.48, 1e-300, 3.0, 12345.0, math.pi, 5e-324]
    for x in cases:
        assert float(format_float(x)) == x


def test_format_float_marks_integral_values_as_floats():
    assert format_float(3.0) == "3.0"
    assert format_float(-7.0) == "-7.0"
    assert format_float(0.1) == "0.10000000000000001"


def test_format_float_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            format_float(bad)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=500, deadline=None)
def test_format_float_round_trips_any_finite_float(x):
    assert float(format_float(x)) == x


def test_dumps_record_preserves_insertion_order_and_types():
    line = dumps_record(
        {"b": 1, "a": 2.0, "flag": True, "none": None, "name": "x y", "seq": [1.5, 2]}
    )
    assert line == '{"b": 1, "a": 2.0, "flag": true, "none": null, "name": "x y", "seq": [1.5, 2]}'
    parsed = json.loads(line)
    assert list(parsed) == ["b", "a", "flag", "none", "name", "seq"]
    assert parsed["a"] == 2.0 and isinstance(parsed["a"], float)
    assert parsed["b"] == 1 and isinstance(parsed["b"], int)


def test_dumps_record_rejects_nested_structures():
    with pytest.raises(TypeError, match="scalars or flat lists"):
        dumps_record({"nested": {"x": 1}})


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "runs.jsonl"
    records = [
        {"run_id": "a", "value": 0.1, "n": 3},
        {"run_id": "b", "value": None, "n": 4},
    ]
    assert write_records(path, records) == 2
    assert read_records(path) == records


def test_append_mode_extends_the_file(tmp_path):
    path = tmp_path / "runs.jsonl"
    write_records(path, [{"run_id": "a"}])
    write_records(path, [{"run_id": "b"}], append=True)
    assert [r["run_id"] for r in read_records(path)] == ["a", "b"]
    # rewriting without append truncates
    write_records(path, [{"run_id": "c"}])
    assert [r["run_id"] for r in read_records(path)] == ["c"]


def test_only_an_unparsable_unterminated_last_line_is_dropped(tmp_path):
    path = tmp_path / "runs.jsonl"
    # a write cut short: dropped on read, cut before the next append
    path.write_text('{"a": 1}\n{"b": ')
    assert read_records(path) == [{"a": 1}]
    write_records(path, [{"c": 3}], append=True)
    assert path.read_text() == '{"a": 1}\n{"c": 3}\n'
    # a complete record that only lacks its newline is kept and terminated
    path.write_text('{"a": 1}')
    assert read_records(path) == [{"a": 1}]
    write_records(path, [{"c": 3}], append=True)
    assert path.read_text() == '{"a": 1}\n{"c": 3}\n'
    # a damaged line that is not the last still fails the read, by name
    path.write_text('{"a": 1}\n{"b": \n{"c": 3}\n')
    with pytest.raises(ConfigError, match=r"runs\.jsonl line 2 is not a JSON record"):
        read_records(path)


def test_existing_run_ids(tmp_path):
    path = tmp_path / "runs.jsonl"
    assert existing_run_ids(path) == set()
    write_records(path, [{"run_id": "a"}, {"kind": "other"}, {"run_id": "b"}])
    assert existing_run_ids(path) == {"a", "b"}


def test_stable_hash_is_short_and_deterministic():
    h = stable_hash("config text")
    assert len(h) == 12
    assert all(c in "0123456789abcdef" for c in h)
    assert h == stable_hash("config text")
    assert h != stable_hash("config text!")


def test_pipeline_run_record_for_a_successful_run(family, tau12_init):
    plans = (
        StagePlan("pretrain", 200, 0.02, mix_fraction=0.5),
        StagePlan("posttrain", 100, 0.02),
        StagePlan("finetune", 100, 0.02),
    )
    run = run_pipeline(family, plans, tau12_init, run_id="demo")
    record = pipeline_run_record(run, seed=0, config_hash="abc123def456")
    assert record["kind"] == "pipeline_run"
    assert record["run_id"] == "demo"
    assert record["status"] == "ok"
    assert record["failed_stage"] is None
    assert record["mix_fraction"] == 0.5
    assert (record["steps1"], record["steps2"], record["steps3"]) == (200, 100, 100)
    assert record["L_im"] == run.metrics["L_im"]
    assert record["delta"] == run.metrics["delta"]
    line = dumps_record(record)
    assert json.loads(line)["config_hash"] == "abc123def456"


def test_pipeline_run_record_for_a_diverged_run(family):
    # a start far above the step-size stability range diverges in stage 1
    hot = init_scaled_identity(6, -2.0, family.basis)
    plans = (
        StagePlan("pretrain", 200, 0.05),
        StagePlan("posttrain", 50, 0.02),
        StagePlan("finetune", 50, 0.02),
    )
    run = run_pipeline(family, plans, hot, run_id="boom")
    assert not run.succeeded
    record = pipeline_run_record(run, seed=3, config_hash="ffff00001111")
    assert record["status"] == "diverged"
    assert record["failed_stage"] == "pretrain"
    assert record["L_im"] is None and record["delta"] is None
    # null metrics still serialize deterministically
    assert dumps_record(record) == dumps_record(record)
