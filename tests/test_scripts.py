"""Smoke tests for the identity sweep script, which runs the identity registry."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_sweep(**env_extra):
    env = dict(os.environ)
    env.pop("UMBRALDOB_SUM_CAP", None)
    env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_identity_suite.py"), "--n-max", "4", "--skip-enumeration"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_identity_suite_sweep_exits_zero():
    result = run_sweep()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failure(s)" in result.stdout
    assert "[ -- ] fibonacci  (skipped)" in result.stdout


def test_bad_cap_is_a_usage_error():
    # exit 1 means a failed verdict; an unusable setting is exit 2 with a message
    result = run_sweep(UMBRALDOB_SUM_CAP="abc")
    assert result.returncode == 2, result.stdout + result.stderr
    assert "UMBRALDOB_SUM_CAP must be a positive integer" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
