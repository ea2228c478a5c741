"""End-to-end tests of the command-line interface via main(argv)."""

import csv
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stagelab.checks
import stagelab.cli
import stagelab.pipeline
import stagelab.records
from stagelab.cli import main
from stagelab.records import read_records

SIMULATE_INI = """\
[pretrain]
steps = 300
mix_fraction = 0.5
[posttrain]
steps = 200
[finetune]
steps = 200
"""

SWEEP_INI = """\
[pretrain]
steps = 300
[sweep]
mix_fractions = 0.0, 0.5
eta2 = 0.02
eta3 = 0.01, 0.05
steps2 = 100
steps3 = 100
"""

DIVERGENT_INI = """\
[init]
tau = -2.0
[pretrain]
steps = 200
eta = 0.05
"""


def write_ini(tmp_path, text, name="lab.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    """A completed small sweep to feed the read-only commands."""
    base = tmp_path_factory.mktemp("sweep")
    cfg = write_ini(base, SWEEP_INI)
    out = str(base / "out")
    assert main(["--config", cfg, "--out", out, "sweep"]) == 0
    return cfg, out


# ----------------------------------------------------------------- simulate


def test_simulate_prints_metrics_and_writes_a_record(tmp_path, capsys):
    cfg = write_ini(tmp_path, SIMULATE_INI)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("run m0.5-")
    for key in ("L_im", "L_ret", "L_ft", "L_pre", "delta"):
        assert f"  {key} = " in stdout
    records = read_records(out / "runs.jsonl")
    assert len(records) == 1
    assert records[0]["status"] == "ok"
    assert records[0]["mix_fraction"] == 0.5


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = write_ini(tmp_path, SIMULATE_INI)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["--config", cfg, "--out", str(out1), "simulate"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "simulate"]) == 0
    first = (out1 / "runs.jsonl").read_bytes()
    assert first == (out2 / "runs.jsonl").read_bytes()
    # a third rerun into an existing directory overwrites with the same bytes
    assert main(["--config", cfg, "--out", str(out1), "simulate"]) == 0
    assert (out1 / "runs.jsonl").read_bytes() == first


def test_simulate_reports_divergence_with_exit_3(tmp_path, capsys):
    cfg = write_ini(tmp_path, DIVERGENT_INI)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == 3
    assert "diverged during pretrain" in capsys.readouterr().err
    records = read_records(out / "runs.jsonl")
    assert records[0]["status"] == "diverged"
    assert records[0]["L_im"] is None


def test_simulate_after_a_sweep_appends_without_destroying_records(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "sweep"]) == 0
    swept = (out / "runs.jsonl").read_bytes()
    assert swept.count(b"\n") == 30
    assert main(["--out", str(out), "simulate"]) == 0
    after = (out / "runs.jsonl").read_bytes()
    assert after.startswith(swept)
    assert after[len(swept):].count(b"\n") == 1
    assert read_records(out / "runs.jsonl")[-1]["steps2"] == 2000
    capsys.readouterr()


def test_simulate_with_an_infinite_loss_reports_divergence(tmp_path, capsys):
    # finite weights of size exp(180) whose loss overflows before any step
    cfg = write_ini(
        tmp_path,
        "[init]\ntau = -180\n[pretrain]\nsteps = 0\n[posttrain]\nsteps = 0\n"
        "[finetune]\nsteps = 0\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == 3
    err = capsys.readouterr().err
    assert "diverged during pretrain" in err and "Traceback" not in err
    records = read_records(out / "runs.jsonl")
    assert len(records) == 1
    assert records[0]["status"] == "diverged"


@pytest.mark.parametrize("tau, code", [("-176.998", 3), ("-176.996", 0)])
def test_a_non_finite_metric_counts_as_divergence(tmp_path, capsys, tau, code):
    # every training loss is finite at these scales, but at -176.998 the
    # metrics on distributions no stage trained on overflow
    cfg = write_ini(
        tmp_path,
        f"[init]\ntau = {tau}\n[pretrain]\nsteps = 0\n[posttrain]\nsteps = 0\n"
        "[finetune]\nsteps = 0\n",
    )
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", cfg, "--out", str(out), "simulate"]) == code
    assert caught == []
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    records = read_records(out / "runs.jsonl")
    assert len(records) == 1
    if code:
        assert "diverged during posttrain" in err
        assert records[0]["status"] == "diverged"
        assert records[0]["failed_stage"] == "posttrain"
    else:
        assert records[0]["status"] == "ok"


@pytest.mark.parametrize(
    "ini, names",
    [
        ("[task]\nbasis = random\nbasis_seed = -1\n", "basis_seed"),
        ("[init]\ntau = -800\n", "tau"),
        ("[init]\ntau = -inf\n", "tau"),
        ("[init]\ntau = nan\n", "tau"),
    ],
)
def test_bad_basis_seed_and_overflowing_tau_exit_2(tmp_path, capsys, ini, names):
    cfg = write_ini(tmp_path, ini)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_out_directory_falls_back_to_the_environment(tmp_path, monkeypatch, capsys):
    cfg = write_ini(tmp_path, SIMULATE_INI)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("STAGELAB_OUT", str(env_out))
    assert main(["--config", cfg, "simulate"]) == 0
    capsys.readouterr()
    assert (env_out / "runs.jsonl").exists()


# -------------------------------------------------------------------- sweep


def test_sweep_runs_the_grid_and_resumes(sweep_out, capsys):
    cfg, out = sweep_out
    runs_path = os.path.join(out, "runs.jsonl")
    csv_path = os.path.join(out, "sweep.csv")
    records = read_records(runs_path)
    assert len(records) == 4
    assert all(r["status"] == "ok" for r in records)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "run_id" and len(rows) == 5

    before_runs = Path(runs_path).read_bytes()
    before_csv = Path(csv_path).read_bytes()
    assert main(["--config", cfg, "--out", out, "sweep"]) == 0
    assert "sweep: 0 new runs, 4 already recorded" in capsys.readouterr().out
    assert Path(runs_path).read_bytes() == before_runs
    assert Path(csv_path).read_bytes() == before_csv


def test_interrupted_sweep_converges_to_the_uninterrupted_result(tmp_path, monkeypatch):
    partial_cfg = write_ini(tmp_path, SWEEP_INI.replace("eta3 = 0.01, 0.05", "eta3 = 0.05"), "p.ini")
    full_cfg = write_ini(tmp_path, SWEEP_INI, "f.ini")
    resumed = str(tmp_path / "resumed")
    straight = str(tmp_path / "straight")
    assert main(["--config", partial_cfg, "--out", resumed, "sweep"]) == 0
    # the resumed sweep reads runs.jsonl once, for both the resume and the CSV
    reads = []
    original = stagelab.records.read_records

    def counting(path):
        reads.append(path)
        return original(path)

    for module in (stagelab.records, stagelab.cli):
        monkeypatch.setattr(module, "read_records", counting)
    assert main(["--config", full_cfg, "--out", resumed, "sweep"]) == 0
    assert len(reads) == 1
    monkeypatch.undo()
    assert main(["--config", full_cfg, "--out", straight, "sweep"]) == 0
    # the CSV is regenerated in grid order, so it converges byte for byte;
    # the JSONL keeps arrival order, so compare it as a set of rows with the
    # config-dependent provenance fields stripped
    with open(os.path.join(resumed, "sweep.csv"), "rb") as fh:
        resumed_csv = fh.read()
    with open(os.path.join(straight, "sweep.csv"), "rb") as fh:
        assert resumed_csv == fh.read()

    def row_set(out):
        rows = read_records(os.path.join(out, "runs.jsonl"))
        return {json.dumps({k: v for k, v in r.items() if k != "config_hash"}, sort_keys=True) for r in rows}

    assert row_set(resumed) == row_set(straight)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_sweep_killed_mid_grid_keeps_its_finished_runs(tmp_path, monkeypatch, threads):
    cfg = write_ini(tmp_path, SWEEP_INI)
    straight, killed = tmp_path / "straight", tmp_path / "killed"
    assert main(["--config", cfg, "--out", str(straight), "sweep"]) == 0
    original = stagelab.pipeline.continue_from_pretrained
    calls = []

    def dies_on_the_fourth_run(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("killed")
        return original(*args, **kwargs)

    monkeypatch.setattr(stagelab.pipeline, "continue_from_pretrained", dies_on_the_fourth_run)
    with pytest.raises(RuntimeError, match="killed"):
        main(["--config", cfg, "--out", str(killed), "--threads", threads, "sweep"])
    monkeypatch.undo()
    assert len(read_records(killed / "runs.jsonl")) == 3
    assert main(["--config", cfg, "--out", str(killed), "sweep"]) == 0
    for name in ("runs.jsonl", "sweep.csv"):
        assert (killed / name).read_bytes() == (straight / name).read_bytes()


def test_a_torn_last_record_is_dropped_and_the_resume_converges(tmp_path, capsys):
    cfg = write_ini(tmp_path, SWEEP_INI)
    straight, torn = tmp_path / "straight", tmp_path / "torn"
    assert main(["--config", cfg, "--out", str(straight), "sweep"]) == 0
    full = (straight / "runs.jsonl").read_bytes()
    last = full.rindex(b"\n", 0, len(full) - 1) + 1
    torn.mkdir()
    (torn / "runs.jsonl").write_bytes(full[: (last + len(full)) // 2])
    assert len(read_records(torn / "runs.jsonl")) == 3
    assert main(["--config", cfg, "--out", str(torn), "sweep"]) == 0
    assert "sweep: 1 new runs, 3 already recorded" in capsys.readouterr().out
    for name in ("runs.jsonl", "sweep.csv"):
        assert (torn / name).read_bytes() == (straight / name).read_bytes()


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_a_resume_refuses_records_of_other_plan_settings(tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "out"
    assert main(["--out", str(out), command]) == 0
    stale = {name: (out / name).read_bytes() for name in os.listdir(out)}
    run_id = read_records(out / "runs.jsonl")[0]["run_id"]
    capsys.readouterr()
    # eta1 is the one plan setting the run id leaves out
    cfg = write_ini(tmp_path, "[pretrain]\neta = 0.03\n")

    def no_training(*args, **kwargs):
        raise AssertionError("trained before refusing")

    monkeypatch.setattr(stagelab.pipeline, "train", no_training)
    assert main(["--config", cfg, "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: run {run_id} is recorded in ")
    assert "with eta1 = 0.02, but the config gives 0.03; use a fresh --out" in err
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == stale
    monkeypatch.undo()
    # what the refusal prevents: the same grid at eta1 = 0.03 gives other numbers
    fresh = tmp_path / "fresh"
    assert main(["--config", cfg, "--out", str(fresh), command]) == 0
    assert (fresh / "runs.jsonl").read_bytes() != stale["runs.jsonl"]


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_a_resume_refuses_an_out_of_other_task_or_init_settings(tmp_path, monkeypatch, capsys, command):
    # a run record carries no [task] or [init] setting, so without family.json
    # this resume printed "0 new runs, 30 already recorded" and kept the
    # numbers of tau = 12
    out = tmp_path / "out"
    assert main(["--out", str(out), command]) == 0
    stale = {name: (out / name).read_bytes() for name in os.listdir(out)}
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("trained before refusing")

    monkeypatch.setattr(stagelab.pipeline, "train", no_training)
    for ini, message in (
        ("[init]\ntau = 10\n", "holds runs of [init] tau = 12.0, but the config gives 10.0"),
        ("[task]\nmismatch_gap = 1.5\n", "holds runs of [task] mismatch_gap = 2.0, but the config gives 1.5"),
    ):
        cfg = write_ini(tmp_path, ini)
        assert main(["--config", cfg, "--out", str(out), command]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out} {message}; use a fresh --out\n"
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == stale
    assert json.loads(stale["family.json"])[0] == "init.tau=12.0"


def test_an_out_with_records_but_no_family_file_is_claimed_by_the_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "sweep"]) == 0
    sidecar = (out / "family.json").read_bytes()
    (out / "family.json").unlink()
    assert main(["--out", str(out), "sweep"]) == 0
    assert "sweep: 0 new runs, 30 already recorded" in capsys.readouterr().out
    assert (out / "family.json").read_bytes() == sidecar
    # a directory written before family.json existed is trusted as it is
    (out / "family.json").unlink()
    cfg = write_ini(tmp_path, "[init]\ntau = 10\n")
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == 0
    assert main(["--out", str(out), "sweep"]) == 2
    assert "holds runs of [init] tau = 10.0, but the config gives 12.0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1", "{}", "[3]", '["init_tau=12.0"]', '["init.tau"]'])
def test_a_damaged_family_file_exits_2(tmp_path, capsys, text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "family.json").write_text(text)
    for command in ("simulate", "sweep"):
        assert main(["--out", str(out), command]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out / 'family.json'} is not a list of config lines; use a fresh --out\n"
    assert os.listdir(out) == ["family.json"]


def test_sweep_with_threads_matches_the_serial_records(tmp_path):
    cfg = write_ini(tmp_path, SWEEP_INI)
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(["--config", cfg, "--out", str(serial), "sweep"]) == 0
    assert main(["--config", cfg, "--out", str(threaded), "--threads", "4", "sweep"]) == 0
    for name in ("runs.jsonl", "sweep.csv"):
        assert (serial / name).read_bytes() == (threaded / name).read_bytes()


def test_sweep_run_ids_keep_close_values_apart(tmp_path, capsys):
    # both values print as 0.01 at six significant digits
    cfg = write_ini(
        tmp_path, SWEEP_INI.replace("eta3 = 0.01, 0.05", "eta3 = 0.0100001, 0.01000012")
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
    assert "sweep: 4 new runs" in capsys.readouterr().out
    ids = [r["run_id"] for r in read_records(out / "runs.jsonl")]
    assert len(set(ids)) == 4
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len({tuple(row) for row in rows}) == 4
    assert {row[0] for row in rows} == set(ids)


def test_sweep_rejects_an_empty_grid(tmp_path, capsys):
    cfg = write_ini(tmp_path, "[sweep]\neta2 =\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "sweep"]) == 2
    assert "sweep grid is empty" in capsys.readouterr().err


def test_a_grid_that_lists_a_run_twice_exits_2(tmp_path, monkeypatch, capsys):
    cfg = write_ini(
        tmp_path,
        "[pretrain]\nsteps = 10\n[sweep]\nmix_fractions = 0.0\neta2 = 0.02\n"
        "eta3 = 0.01, 0.01\nsteps2 = 10\nsteps3 = 10\n",
    )

    def no_training(*args, **kwargs):
        raise AssertionError("trained before refusing")

    monkeypatch.setattr(stagelab.pipeline, "train", no_training)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == 2
    assert capsys.readouterr().err == (
        "error: the [sweep] grid lists run m0-s1_10-r0-l0-e2_0.02-s2_10-e3_0.01-s3_10 twice\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify", "plot", "frontier"])
def test_an_out_path_that_is_a_file_exits_2(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--threads", threads, "sweep"]) == 2
    assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "plot", "frontier"])
def test_an_unparsable_record_line_exits_2(sweep_out, tmp_path, capsys, command):
    cfg, done = sweep_out
    out = tmp_path / "out"
    out.mkdir()
    lines = Path(done, "runs.jsonl").read_text().splitlines(keepends=True)
    # damage the second record; the last line stays whole, so this is no torn tail
    corrupt = lines[0] + lines[1][: len(lines[1]) // 2] + "\n" + "".join(lines[2:])
    (out / "runs.jsonl").write_text(corrupt)
    assert main(["--config", cfg, "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'runs.jsonl'} line 2 is not a JSON record: ")
    assert err.count("\n") == 1
    assert (out / "runs.jsonl").read_text() == corrupt


@pytest.mark.parametrize(
    "line, refused_on_read",
    [
        ("[1, 2]", True),
        ('{"run_id": ["a"], "L_ret": 1.0, "L_ft": 2.0}', True),
        ('{"run_id": "x", "L_ret": 1.0, "L_ft": 2.0, "mix_fraction": null}', False),
        ('{"run_id": "y", "L_ret": "abc", "L_ft": 2.0}', False),
    ],
)
def test_a_line_that_parses_but_is_no_record_exits_2(sweep_out, tmp_path, capsys, line, refused_on_read):
    cfg, _ = sweep_out
    for command in ("sweep", "plot", "frontier"):
        out = tmp_path / command
        out.mkdir()
        (out / "runs.jsonl").write_text(line + "\n")
        code = main(["--config", cfg, "--out", str(out), command])
        err = capsys.readouterr().err
        if command == "sweep" and not refused_on_read:
            # a run id outside the grid is never read past its id
            assert code == 0 and err == "", command
            continue
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (command, err)
        if refused_on_read:
            assert f"{out / 'runs.jsonl'} line 1 is not a JSON record" in err
        else:
            assert "run 'x' has mix_fraction = None" in err or "run 'y' has L_ret = 'abc'" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_ini(tmp_path, "[posttrain]\nlerning_rate = 0.1\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "simulate"]) == 2
    assert "unknown key 'lerning_rate'" in capsys.readouterr().err


# ------------------------------------------------------------------- verify


def test_verify_prints_a_table_and_writes_details(tmp_path, capsys):
    cfg = write_ini(tmp_path, "[verify]\nacquisition_steps = 2000\nrouting_steps = 1000\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "verify"]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("[PASS]") for line in lines)
    details = (out / "verify.txt").read_text()
    assert "[PASS] specialized_acquisition" in details
    assert "worst_ratio = " in details
    assert "\n\n" in details


def test_verify_literal_flag_adds_the_side_by_side_reports(tmp_path, capsys):
    cfg = write_ini(
        tmp_path,
        "[verify]\nacquisition_steps = 2000\nrouting_steps = 1000\nliteral_inconsistent = true\n",
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "verify"]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] posttrain_routing_literal" in stdout
    assert "[PASS] forgetting_gap_literal" in stdout


def test_verify_failures_exit_3_and_show_notes(tmp_path, capsys):
    cfg = write_ini(
        tmp_path, "[verify]\nalpha = 0.0\nacquisition_steps = 2000\nrouting_steps = 1000\n"
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "verify"]) == 3
    lines = capsys.readouterr().out.splitlines()
    # failure notes are indented under the table line and name the violated condition
    row = lines.index("[FAIL] specialized_acquisition")
    assert lines[row + 1].startswith("    least_mixed ")
    assert "<= unlearned_tol 0.001" in lines[row + 1]


@pytest.mark.parametrize("alpha", ["1.5", "nan"])
def test_verify_refuses_a_mixing_weight_outside_the_unit_interval_before_training(
    tmp_path, capsys, monkeypatch, alpha
):
    def refuse(*args, **kwargs):
        raise AssertionError("verify trained before checking alpha")

    monkeypatch.setattr(stagelab.checks, "train", refuse)
    cfg = write_ini(tmp_path, f"[verify]\nalpha = {alpha}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: mixing weight must lie in [0, 1], got {float(alpha)}\n"


# -------------------------------------------------------------- plot/frontier


def test_plot_writes_a_stable_svg(sweep_out, capsys):
    cfg, out = sweep_out
    assert main(["--config", cfg, "--out", out, "plot"]) == 0
    assert f"wrote {os.path.join(out, 'frontier.svg')}" in capsys.readouterr().out
    svg = Path(out, "frontier.svg").read_bytes()
    text = svg.decode()
    assert text.startswith("<svg ")
    assert text.count("<path d=") == 2  # one staircase per method
    assert ">mixed</text>" in text and ">unmixed</text>" in text
    assert main(["--config", cfg, "--out", out, "plot"]) == 0
    capsys.readouterr()
    assert Path(out, "frontier.svg").read_bytes() == svg


def test_plot_of_runs_that_share_a_large_coordinate(tmp_path, capsys):
    # no stage moves the specialized block, so every run ends at L_ret = L_ft = 3.7e171
    cfg = write_ini(
        tmp_path,
        "[init]\ntau = -5\n[pretrain]\nsteps = 0\n"
        "[sweep]\nsteps2 = 0\nsteps3 = 3\neta3 = 0.03\n",
    )
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "sweep"]) == 0
    assert len({(r["L_ret"], r["L_ft"]) for r in read_records(os.path.join(out, "runs.jsonl"))}) == 1
    assert main(["--config", cfg, "--out", out, "plot"]) == 0
    capsys.readouterr()
    svg = Path(out, "frontier.svg").read_text()
    assert "nan" not in svg and "inf" not in svg


def test_plot_without_records_exits_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "empty"), "plot"]) == 2
    assert "no run records" in capsys.readouterr().err


def test_plot_with_only_diverged_records_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "runs.jsonl").write_text(
        '{"run_id": "x", "mix_fraction": 0.0, "L_ret": null, "L_ft": null}\n'
    )
    assert main(["--out", str(out), "plot"]) == 2
    assert "no completed runs" in capsys.readouterr().err


def test_frontier_csv_flags_front_membership(sweep_out, capsys):
    cfg, out = sweep_out
    assert main(["--config", cfg, "--out", out, "frontier"]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "frontier.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["projection", "run_id", "x", "y", "on_front", "method"]
    body = rows[1:]
    assert len(body) == 4
    methods = [r[5] for r in body]
    assert methods == sorted(methods)
    assert set(methods) == {"mixed", "unmixed"}
    assert all(r[0] == "ret_ft" for r in body)
    assert all(r[4] in ("true", "false") for r in body)
    for method in ("mixed", "unmixed"):
        flags = [r[4] for r in body if r[5] == method]
        assert "true" in flags
    # x/y columns round-trip as floats
    assert all(float(r[2]) >= 0 and float(r[3]) >= 0 for r in body)


def test_frontier_with_unknown_projection_exits_2(sweep_out, tmp_path, capsys):
    _, out = sweep_out
    cfg = write_ini(tmp_path, "[report]\nprojection = upside_down\n")
    assert main(["--config", cfg, "--out", out, "frontier"]) == 2
    assert "unknown projection" in capsys.readouterr().err


# ---------------------------------------------------------------- exit codes

ETA_BUDGET = 1.0 / 16.0  # 8 * eta * (ridge_lambda + 2) reaches 1 here without a ridge
FUZZ_INI = """\
[task]
basis = {basis}
[init]
tau = {tau!r}
[pretrain]
steps = {steps1}
eta = {eta1!r}
mix_fraction = {mix!r}
[posttrain]
steps = {steps2}
eta = {eta2!r}
[finetune]
steps = {steps3}
eta = {eta3!r}
[sweep]
eta2 = {eta2!r}
eta3 = {eta3!r}
steps2 = {steps2}
steps3 = {steps3}
"""
STEPS = st.integers(min_value=0, max_value=30)
ETAS = st.floats(min_value=0.5, max_value=1.05).map(lambda f: f * ETA_BUDGET)
SMALL_RUN = dict(
    basis="identity", steps1=30, eta1=0.02, mix=0.0, steps2=30, eta2=0.02, steps3=30, eta3=0.02
)


@given(
    basis=st.sampled_from(["identity", "random"]),
    tau=st.one_of(
        st.sampled_from([math.inf, -math.inf, math.nan, -800.0, -180.0]),
        st.floats(min_value=-10.0, max_value=20.0),
    ),
    steps1=STEPS,
    eta1=ETAS,
    mix=st.sampled_from([0.0, 0.5]),
    steps2=STEPS,
    eta2=ETAS,
    steps3=STEPS,
    eta3=ETAS,
)
@example(**dict(SMALL_RUN, tau=-math.inf))
@example(**dict(SMALL_RUN, basis="random", tau=math.nan))
# every run ends at the same (L_ret, L_ft), far from the origin
@example(**dict(SMALL_RUN, tau=-5.0, steps1=0, mix=0.5, steps2=0, steps3=3, eta3=0.03))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_command_exits_0_2_or_3_without_a_traceback(capsys, **values):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = write_ini(Path(tmp), FUZZ_INI.format(**values))
        for command in ("simulate", "sweep", "plot", "frontier"):
            assert main(["--config", cfg, "--out", os.path.join(tmp, "out"), command]) in (0, 2, 3)
            err = capsys.readouterr().err
            assert "Traceback" not in err and "Warning" not in err
