"""Smoke tests for the identity sweep script, which runs the identity registry."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

from umbraldob import exact_core
from umbraldob.cigl import PARTITION_CAP

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = str(ROOT / "scripts" / "run_identity_suite.py")


def run_sweep(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, SCRIPT, "--n-max", "4", *flags],
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


def test_negative_depth_is_a_usage_error():
    result = run_sweep("--n-max", "-1")
    assert result.returncode == 2, result.stdout + result.stderr
    assert "--n-max" in result.stderr
    assert "Traceback" not in result.stderr


def test_enumeration_line_agrees():
    result = run_sweep()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "enumeration: brute-force count vs exact routes (n <= 4)" in result.stdout
    assert "  [ok ] restricted growth strings\n" in result.stdout


def test_help_names_the_enumeration_cap():
    result = run_sweep("--help")
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"min(n-max, {PARTITION_CAP})" in " ".join(result.stdout.split())


def test_tiny_sum_cap_is_exit_two(monkeypatch, capsys):
    monkeypatch.setattr(exact_core, "SUM_CAP", 3)
    monkeypatch.setattr(sys, "argv", [SCRIPT, "--n-max", "3"])
    assert runpy.run_path(SCRIPT)["main"]() == 2
    assert "error: no certified truncation point within hard cap 3" in capsys.readouterr().err


def test_depth_past_partition_cap_runs_every_suite():
    result = run_sweep("--n-max", "14")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failure(s)" in result.stdout
    for header in ("cigl-dobinski (n <= 13)", "conjugation (n <= 14)", "pmf-gf (n <= 14)", "q1-reduction (n <= 14)"):
        assert header + "\n  [ok ] " in result.stdout
    assert "enumeration: brute-force count vs exact routes (n <= 13)" in result.stdout
    assert "  [ok ] restricted growth strings\n" in result.stdout
