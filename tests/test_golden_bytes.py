"""The default config's outputs match the SHA-256s pinned in bench/golden.json.

Every command runs on the default config in one fresh output directory, as
the benchmark's golden pass does; the pinned file is only read.  The same
pass counts the steps train() takes, which the benchmark's traced run pins
too.  The literal-mode verify.txt, which no benchmark run writes, is pinned
here.
"""

import hashlib
import json
from pathlib import Path

from stagelab import checks, config, network, pipeline
from stagelab.cli import main
from stagelab.records import read_records

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"
# verify.txt with [verify] literal_inconsistent = true, which adds the
# posttrain_routing_literal / forgetting_gap_literal pair to the default checks
LITERAL_VERIFY_SHA256 = "423e94d605442d08ae1a50ce3b52a6a01f44a30ddeae5b48f50dd5b8289a665a"


def test_default_outputs_match_the_pinned_hashes(tmp_path, capsys, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    pinned = {**golden["default"], "verify.txt": golden["verify.txt"]}
    assert len(pinned) == 5

    steps = []
    original = network.train

    def counting(state, *args, **kwargs):
        result = original(state, *args, **kwargs)
        steps.append(result[0].step - state.step)
        return result

    # every module attribute that binds train, as the benchmark's tracer wraps it
    for module in (network, pipeline, checks):
        monkeypatch.setattr(module, "train", counting)
    # and train()'s uncached body, which steps: a call that train() serves
    # from a memo never reaches it
    trainings = []
    uncached = network._train

    def training(*args):
        trainings.append(None)
        return uncached(*args)

    monkeypatch.setattr(network, "_train", training)

    out = tmp_path / "out"
    trained, calls, stepped = {}, {}, {}
    for command in ("simulate", "sweep", "plot", "frontier", "verify"):
        before = sum(steps), len(steps), len(trainings)
        assert main(["--out", str(out), command]) == 0, command
        trained[command] = sum(steps) - before[0]
        calls[command], stepped[command] = len(steps) - before[1], len(trainings) - before[2]
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert got == pinned
    # bench/run.py --trace 1 fails an op whose train() calls take other step
    # counts, so removing train() calls or their steps (batching outside
    # train()) needs a benchmark change first.  A repeat that train() serves
    # from a sweep's memo still counts its steps, as the steps skipped by
    # the orbit and fixed-point exits do
    assert trained["simulate"] + trained["sweep"] == 29_500
    assert trained["verify"] == 170_000
    assert trained["plot"] == trained["frontier"] == 0
    # the sweep trains stage 2 once per (stage-1, stage-2) plan pair: 6 for
    # its 30 runs, so simulate and sweep step in 41 of their 65 train() calls
    assert calls["simulate"] + calls["sweep"] == 65
    assert stepped["simulate"] + stepped["sweep"] == 41
    assert stepped["verify"] == calls["verify"] == 8


def test_literal_mode_verify_matches_its_pinned_hash(tmp_path, capsys):
    cfg = tmp_path / "literal.ini"
    cfg.write_text("[verify]\nliteral_inconsistent = true\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / "verify.txt").read_bytes()).hexdigest() == LITERAL_VERIFY_SHA256


def test_a_key_added_at_its_default_keeps_every_hash_and_family_file(tmp_path, capsys, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    pinned = {**golden["default"], "verify.txt": golden["verify.txt"]}
    plain = tmp_path / "plain"
    assert main(["--out", str(plain), "simulate"]) == 0

    monkeypatch.setitem(config.DEFAULTS["task"], "coupling", ("float", 0.0))
    out = tmp_path / "out"
    for command in ("simulate", "sweep", "plot", "frontier", "verify"):
        assert main(["--out", str(out), command]) == 0, command
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert got == pinned
    assert (out / "family.json").read_bytes() == (plain / "family.json").read_bytes()

    # off its default, the key enters config_hash and family.json
    cfg = tmp_path / "coupled.ini"
    cfg.write_text("[task]\ncoupling = 0.5\n")
    coupled = tmp_path / "coupled"
    assert main(["--config", str(cfg), "--out", str(coupled), "simulate"]) == 0
    capsys.readouterr()
    hashes = [read_records(d / "runs.jsonl")[0]["config_hash"] for d in (plain, coupled)]
    assert hashes[0] != hashes[1]
    assert "task.coupling=0.5" in json.loads((coupled / "family.json").read_text())
