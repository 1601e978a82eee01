"""Golden digests: CLI outputs pinned byte for byte.

Performance work on the ball, word and walls layers must leave the canonical
outputs unchanged.  Each digest is the SHA-256 of the command's standard
output, and must not depend on the interpreter's hash seed.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cyclewall import davis
from cyclewall.cli import load_presentation, main

ROOT = Path(__file__).resolve().parent.parent
PRESENTATIONS = ROOT / "perfbench" / "presentations"


def random_words(presentation: Path, count: int) -> list[str]:
    """``count`` raw words of 8 to 48 syllables, as ``reduce`` arguments."""
    syllables = list(load_presentation(str(presentation)).syllables())
    rng = random.Random(0)
    return [" ".join(f"v{s.vertex}:{s.value}"
                     for s in (rng.choice(syllables) for _ in range(8 + k % 41)))
            for k in range(count)]


GOLDEN = {
    "ball_r3_c6_mixed": (
        ["ball", "--radius", "3", "--subdivide", "--format", "json",
         "--presentation", str(PRESENTATIONS / "c6_mixed.json")],
        "e078dd7c35b061038a033af65129a4133f15e75eaa48ead75de2d8e96d665e99"),
    "ball_r3_c5_z3": (
        ["ball", "--radius", "3", "--format", "json",
         "--presentation", str(PRESENTATIONS / "c5_z3.json")],
        "6086558f477971b26c8179e1d47831f05f2326097a6afc55da6aff0e1bc8211f"),
    "verify_all_c5_mixed": (
        ["verify", "--suite", "all", "--radius", "2", "--depth", "3",
         "--seed", "0", "--presentation", str(PRESENTATIONS / "c5_mixed.json")],
        "1164c0bd477d3daf9e664c13ee002d6d1d372f86ac2c4605b64d820e00ba9e08"),
    "reduce_300_c6_mixed": (
        ["reduce", "--presentation", str(PRESENTATIONS / "c6_mixed.json"),
         *random_words(PRESENTATIONS / "c6_mixed.json", 300)],
        "71393e5e937d2eacc41c4196e5d6f64882b6fd70262253127aa8c41dec1b8879"),
    "ball_dot_r2_c5_s3": (
        ["ball", "--radius", "2", "--subdivide", "--format", "dot",
         "--presentation", str(PRESENTATIONS / "c5_s3.json")],
        "482fcb6590bb0690aec2fd947de7ae39fb60880b8771800084985149b035c5d8"),
    "verify_davis_r3_c5_z2": (
        ["verify", "--suite", "davis", "--radius", "3",
         "--presentation", str(PRESENTATIONS / "c5_z2.json")],
        "3260aaa9f3f0ba0412891a141083eb0fd010c78801316531664a276d2b013b78"),
    "verify_walls_c6_mixed": (
        ["verify", "--suite", "walls", "--radius", "2", "--depth", "3",
         "--seed", "0", "--presentation", str(PRESENTATIONS / "c6_mixed.json")],
        "2302b94b530bd77e66070f16fae65a95786bf2bb37c9256239177113786593df"),
}
GOLDEN.update(
    (f"verify_all_{name}",
     (["verify", "--suite", "all", "--radius", "2", "--depth", "3", "--seed",
       "0", "--presentation", str(PRESENTATIONS / f"{name}.json")], digest))
    for name, digest in [
        ("c5_z2", "ea8427bbf3dc6a363f14bcd1a6096b5e4b9c71dcc2b9c0ff986515d10e307f35"),
        ("c5_z3", "69e8adf7114d602a5c5a50a07241c959e600658e12080c26ce0c46fd78e6703c"),
        ("c5_s3", "b06ce02e45ac3c71f808d12d1cf7e172c10449fc3aa4bda893e06e5b2a387988"),
        ("c6_z2", "b52a56c2a7d7529e0feccea5a52fbc992f6623f9292f4684ef48d593448c2242"),
        ("c6_mixed",
         "1bd0228bbc6af8f0847e185686e15ad41af187a85bed3e763f0d75dc720c2a5a"),
    ])


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


@pytest.mark.parametrize("name", ["ball_r3_c6_mixed", "ball_dot_r2_c5_s3"])
def test_square_json_export_builds_no_square_ball(monkeypatch, capsys, name):
    """``ball --subdivide``, as JSON and as dot, writes X' from the
    polygonal ball's table, so it runs, with the golden bytes, when
    building the subdivision's square index fails."""
    def refuse(b):
        raise AssertionError("the export built the square index")

    monkeypatch.setattr(davis, "_subdivision", refuse)
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
