"""A fixed-seed run writes the same bytes under every supported CPython.

Each ``python3.10`` .. ``python3.13`` found on PATH that starts, other than
the running interpreter's version, runs the CLI with the repository's
``src`` on PYTHONPATH; its ``trace.json`` and ``trained.json`` must equal
the running interpreter's byte for byte.  Skipped when no other
interpreter starts.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GEN = ["gen", "--features", "10", "--classes", "5", "--objects", "100",
       "--irrelevant", "3", "--noise", "0.2", "--seed", "42", "--out", "gen"]
TRAIN = ["train", "--rules", "gen/rules.json", "--data", "gen/train.jsonl", "--out", "run",
         "--seed", "42", "--max-iters", "4", "--multi-start", "2", "--holdout", "0.2"]
OUTPUTS = ("trace.json", "trained.json")


def other_interpreters() -> list[str]:
    running = f"python{sys.version_info[0]}.{sys.version_info[1]}"
    found = []
    for name in (f"python3.{minor}" for minor in range(10, 14)):
        path = shutil.which(name)
        if name == running or path is None:
            continue
        try:
            probe = subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0:
            found.append(path)
    return found


def outputs(python: str, workdir: Path) -> dict[str, bytes]:
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (GEN, TRAIN):
        subprocess.run([python, "-m", "cf_forge", *argv], cwd=workdir, env=env,
                       capture_output=True, check=True, timeout=300)
    return {name: (workdir / "run" / name).read_bytes() for name in OUTPUTS}


def test_fixed_seed_outputs_are_the_same_bytes_on_every_python(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython 3.10-3.13 starts here")
    expected = outputs(sys.executable, tmp_path / "running")
    for i, python in enumerate(others):
        got = outputs(python, tmp_path / f"other{i}")
        for name in OUTPUTS:
            assert got[name] == expected[name], f"{name} differs under {python}"
