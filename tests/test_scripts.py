"""Smoke test for the identity sweep script, which runs the identity registry."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_identity_suite_sweep_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_identity_suite.py"), "--n-max", "4", "--skip-enumeration"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failure(s)" in result.stdout
    assert "[ -- ] fibonacci  (skipped)" in result.stdout
