"""The default config's outputs match the SHA-256s pinned in bench/golden.json.

Every command runs on the default config in one fresh output directory, as
the benchmark's golden pass does; the pinned file is only read.
"""

import hashlib
import json
from pathlib import Path

from stagelab.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def test_default_outputs_match_the_pinned_hashes(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    pinned = {**golden["default"], "verify.txt": golden["verify.txt"]}
    assert len(pinned) == 5
    out = tmp_path / "out"
    for command in ("simulate", "sweep", "plot", "frontier", "verify"):
        assert main(["--out", str(out), command]) == 0, command
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert got == pinned
