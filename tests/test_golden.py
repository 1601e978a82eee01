"""Golden digests: two CLI outputs pinned byte for byte.

Performance work on the ball, word and walls layers must leave the canonical
outputs unchanged.  Each digest is the SHA-256 of the command's standard
output, and must not depend on the interpreter's hash seed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PRESENTATIONS = ROOT / "perfbench" / "presentations"

GOLDEN = {
    "ball_r3_c6_mixed": (
        ["ball", "--radius", "3", "--subdivide", "--format", "json",
         "--presentation", str(PRESENTATIONS / "c6_mixed.json")],
        "e078dd7c35b061038a033af65129a4133f15e75eaa48ead75de2d8e96d665e99"),
    "verify_all_c5_mixed": (
        ["verify", "--suite", "all", "--radius", "2", "--depth", "3",
         "--seed", "0", "--presentation", str(PRESENTATIONS / "c5_mixed.json")],
        "1164c0bd477d3daf9e664c13ee002d6d1d372f86ac2c4605b64d820e00ba9e08"),
}


@pytest.mark.parametrize("hash_seed", ["0", "7", "123"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(name, hash_seed):
    argv, digest = GOLDEN[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=hash_seed)
    run = subprocess.run([sys.executable, "-m", "cyclewall.cli", *argv],
                         env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == digest
