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
    sweep_to_csv,
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


def generator_scan_format_float(x):
    """The reference form of format_float: check finiteness, then scan the text for any of ".eE"."""
    if not math.isfinite(x):
        raise ValueError(f"records only hold finite floats, got {x}")
    s = "%.17g" % x
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


@given(
    st.one_of(
        st.floats(),
        st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
        st.floats(min_value=1e16, max_value=1e18),
        st.floats(min_value=-1e18, max_value=-1e16),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e17, math.inf, -math.inf, math.nan]),
    )
)
@settings(max_examples=500, deadline=None)
def test_format_float_writes_the_bytes_of_the_generator_scan(x):
    # signed zeros, subnormals, integral values around 1e16 where %g switches
    # to an exponent, and inf and nan, which both forms refuse
    try:
        want = generator_scan_format_float(x)
    except ValueError:
        with pytest.raises(ValueError, match="finite"):
            format_float(x)
        return
    assert format_float(x) == want


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


@pytest.mark.parametrize(
    "data", [b'{"a": 1}\n\xff\n{"c": 3}\n', b'{"a": 1}\n{"b": "\xff\xfe"}', b'{"a": 1}\n\xff']
)
def test_a_line_that_is_not_utf8_fails_the_read_by_name(tmp_path, data):
    # records are ASCII, so such a line is damage, not a write cut short,
    # also when it is the unterminated last line
    path = tmp_path / "runs.jsonl"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=r"runs\.jsonl line 2 is not a JSON record: 'utf-8' codec"):
        read_records(path)


@pytest.mark.parametrize("data", [b'{"a": 1}\n\xff', b'{"a": 1}\n{"b": "\xff\xfe"}', b"\xff"])
def test_an_append_refuses_an_unterminated_last_line_that_is_not_utf8(tmp_path, data):
    # the append raises the read's error, by line, and cuts nothing
    path = tmp_path / "runs.jsonl"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as read:
        read_records(path)
    with pytest.raises(ConfigError) as append:
        write_records(path, [{"b": 2}], append=True)
    assert str(append.value) == str(read.value)
    assert path.read_bytes() == data


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
    # an append to a missing file creates it
    missing = tmp_path / "new.jsonl"
    assert write_records(missing, [{"c": 3}], append=True) == 1
    assert missing.read_text() == '{"c": 3}\n'
    # every record of one append lands after the cut line, in order
    path.write_text('{"a": 1}\n{"b": ')
    assert write_records(path, [{"c": 3}, {"d": 4}, {"e": 5}], append=True) == 3
    assert path.read_text() == '{"a": 1}\n{"c": 3}\n{"d": 4}\n{"e": 5}\n'
    # keys are encoded as json.dumps encodes them, escapes and all, on every line
    keys = ['a"b', "caf\u00e9", "\u2603\n"]
    path.unlink()
    for value in (1, 2):
        write_records(path, [{key: value for key in keys}], append=True)
    lines = [", ".join(f"{json.dumps(key)}: {value}" for key in keys) for value in (1, 2)]
    assert path.read_bytes() == "".join(f"{{{line}}}\n" for line in lines).encode("ascii")
    assert read_records(path) == [{key: value for key in keys} for value in (1, 2)]


def test_existing_run_ids(tmp_path):
    path = tmp_path / "runs.jsonl"
    assert existing_run_ids(path) == set()
    write_records(path, [{"run_id": "a"}, {"kind": "other"}, {"run_id": "b"}])
    assert existing_run_ids(path) == {"a", "b"}


def test_a_metric_that_is_not_a_finite_number_is_refused_by_run_and_key(family, tau12_init, tmp_path):
    plans = (
        StagePlan("pretrain", 20, 0.02),
        StagePlan("posttrain", 20, 0.02),
        StagePlan("finetune", 20, 0.02),
    )
    good = pipeline_run_record(run_pipeline(family, plans, tau12_init, run_id="r"), 0, "h")
    for bad in ("abc", [1.0], math.inf):
        with pytest.raises(ConfigError, match=r"^run 'r' has L_ret = .*, not a finite number$"):
            sweep_to_csv([{**good, "L_ret": bad}], tmp_path / "sweep.csv")


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
