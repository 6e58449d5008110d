"""Every demo script runs to completion from a clean working directory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # TMPDIR: demo 05 makes its scratch directory there, and removes it.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    # A text file or pipe opened without an encoding fails the demo, as
    # it fails a test under CI's -X warn_default_encoding.
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONWARNDEFAULTENCODING="1",
               PYTHONWARNINGS="error::EncodingWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert list(tmpdir.iterdir()) == []
