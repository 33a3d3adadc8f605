"""The six demos print exactly what they printed when their outputs were recorded.

Each demo runs in a fresh interpreter with the package's source directory on
``PYTHONPATH``; the sha256 of its stdout is compared with the recorded one.
A digest changes only with a deliberate change to what a demo prints.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import envalg

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "bch_series": "0de5868ad25c38f395f75ddec6e0f224078636e288cb282a9c1c13aa04d9fa59",
    "extension_roundtrip": "4babc26c5b45fc3b8372c58b6a403ef384ec267ee0653a2e2210e9839648f0d6",
    "gns_models": "414a08b78bdebf8276554c46984c86e433c66c6da0a1056a081c2cc2b06e4885",
    "group_side": "14f0f4f3bcc429ded61d870ee242e719660f3686e315442aed40254fbf228928",
    "pbw_normal_forms": "4836f0e44e25085b86eafd3861eecbc07ec4c47bbc1c61b279bb7a8a658f15cb",
    "seminorm_recursion": "f2148ee1f7ae5b8cc2b87036f496f7fb0a3b77d9470e9f7c65585e35af246f05",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_matches_recorded_digest(name):
    env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
