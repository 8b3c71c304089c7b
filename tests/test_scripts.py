"""Smoke tests for the identity sweep script, which runs the identity registry."""

import os
import subprocess
import sys
from pathlib import Path

from umbraldob.cigl import PARTITION_CAP

ROOT = Path(__file__).resolve().parents[1]


def run_sweep(*flags, **env_extra):
    env = dict(os.environ)
    env.pop("UMBRALDOB_SUM_CAP", None)
    env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_identity_suite.py"), "--n-max", "4", *flags],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_identity_suite_sweep_exits_zero():
    result = run_sweep("--skip-enumeration")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failure(s)" in result.stdout
    assert "[ -- ] fibonacci  (skipped)" in result.stdout


def test_bad_cap_is_a_usage_error():
    # exit 1 means a failed verdict; an unusable setting is exit 2 with a message
    result = run_sweep("--skip-enumeration", UMBRALDOB_SUM_CAP="abc")
    assert result.returncode == 2, result.stdout + result.stderr
    assert "UMBRALDOB_SUM_CAP must be a positive integer" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_enumeration_line_agrees():
    result = run_sweep()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "enumeration: brute-force count vs exact routes (n <= 4)" in result.stdout
    assert "  [ok ] restricted growth strings\n" in result.stdout


def test_help_names_the_enumeration_cap():
    result = run_sweep("--help")
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"min(n-max, {PARTITION_CAP})" in " ".join(result.stdout.split())


def test_tiny_sum_cap_is_exit_two():
    result = run_sweep("--n-max", "3", UMBRALDOB_SUM_CAP="3")
    assert result.returncode == 2, result.stdout + result.stderr
    assert "error: no certified truncation point within hard cap 3" in result.stderr
    assert "Traceback" not in result.stderr


def test_depth_past_partition_cap_runs_every_suite():
    result = run_sweep("--n-max", "14")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failure(s)" in result.stdout
    for header in ("cigl-dobinski (n <= 13)", "conjugation (n <= 14)", "pmf-gf (n <= 14)", "q1-reduction (n <= 14)"):
        assert header + "\n  [ok ] " in result.stdout
    assert "enumeration: brute-force count vs exact routes (n <= 13)" in result.stdout
    assert "  [ok ] restricted growth strings\n" in result.stdout
