"""Smoke runs of every demo: each must exit 0 in a fresh directory, with
warnings turned into errors as they are in the rest of the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(tmp_path, name):
    result = run_demo(name, tmp_path)
    assert result.returncode == 0, result.stderr
    if name.startswith("05"):
        for csv_name in ("entropy.csv", "logits.csv", "pca.csv"):
            assert (tmp_path / "demo_out" / csv_name).stat().st_size > 0
