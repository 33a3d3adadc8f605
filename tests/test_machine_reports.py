"""The shipped configs' machine reports match the digests the benchmark recorded.

``envalg --format machine run-all`` runs in a fresh interpreter, as the
installed console script runs it: on the default su2 config at seeds 0, 1
and 2, and on gaussian.  The sha256 of each report must equal the one in
``perfbench/reference.json["full"]["shipped-cli"]``.  The test only reads
``perfbench/``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import envalg

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(envalg.__file__).resolve().parents[1]
# the installed console script runs exactly this
CLI = "import sys; from envalg.cli import main_entry; sys.exit(main_entry())"


@pytest.mark.parametrize("config, seed", [("su2", 0), ("su2", 1), ("su2", 2), ("gaussian", 0)])
def test_machine_report_matches_reference(config, seed):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    want = reference["full"]["shipped-cli"][f"report-{config}"]
    if isinstance(want, list):
        want = want[seed]
    argv = ["--format", "machine", "--seed", str(seed)]
    if config != "su2":     # su2 is the default config
        argv += ["--config", str(SRC / "envalg" / "data" / f"{config}.json")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CLI] + argv + ["run-all"],
                          capture_output=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == want
