"""Smoke tests for the identity sweep script, which runs the identity registry, and the mutation survey."""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

from helpers import mutated_definition, patch_everywhere
from umbraldob import exact_core, identities
from umbraldob.cigl import PARTITION_CAP
from umbraldob.errors import UnsupportedSequenceError
from umbraldob.identities import Case

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = str(ROOT / "scripts" / "run_identity_suite.py")
SURVEY = str(ROOT / "scripts" / "mutation_survey.py")


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


def gauss_only_failing_runner(seq, n_max):
    """A per-sequence runner that no list names: it needs a Gauss sequence and fails every case."""
    if seq.kind != "gauss-q":
        raise UnsupportedSequenceError("needs q=<rational>")
    return [Case({"seq": seq.label, "n": n}, False) for n in range(n_max + 1)]


def test_per_sequence_runner_is_known_by_its_cases(monkeypatch, capsys):
    monkeypatch.setitem(identities.RUNNERS, "gauss-only", gauss_only_failing_runner)
    monkeypatch.setattr(sys, "argv", [SCRIPT, "--n-max", "3"])
    assert runpy.run_path(SCRIPT)["main"]() == 1
    out = capsys.readouterr().out
    lines = out.split("gauss-only (n <= 3)\n")[1].split("enumeration:")[0].splitlines()
    assert lines == [
        "  [ -- ] classical  (skipped)",
        "  [FAIL] q=1/4",
        "  [FAIL] q=1/2",
        "  [FAIL] q=3/2",
        "  [ -- ] fibonacci  (skipped)",
    ]
    assert "\n3 failure(s) in " in out


def test_depth_past_partition_cap_runs_every_suite():
    result = run_sweep("--n-max", "14")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failure(s)" in result.stdout
    for header in ("cigl-dobinski (n <= 14)", "conjugation (n <= 14)", "pmf-gf (n <= 14)", "q1-reduction (n <= 14)"):
        assert header + "\n  [ok ] " in result.stdout
    assert "enumeration: brute-force count vs exact routes (n <= 13)" in result.stdout
    assert "  [ok ] restricted growth strings\n" in result.stdout


def test_survey_help_exits_zero():
    result = subprocess.run([sys.executable, SURVEY, "--help"], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr


def test_survey_mutants_and_reviewed_list():
    survey = runpy.run_path(SURVEY)
    keys = {m.key: m for module in survey["MODULES"] for m in survey["mutants"](module)}
    assert set(survey["EQUIVALENT"]) <= set(keys)  # every reviewed entry still names a mutant
    eq = keys["exact_core.Poly.__eq__: self.coeffs == other.coeffs -> self.coeffs != other.coeffs"]
    assert "self.coeffs != other.coeffs" in survey["mutated_source"](eq)
    assert not any(".__hash__" in key for key in keys)  # a Poly hashes its tuple: no literal, no operator
    assert "exact_core.Poly.__mul__: i + j -> i - j #2" in keys  # the second identical change in one function
    assert survey["classify"](eq) == ("verdict", [])


# Kernels in which the survey finds no survivor: each of their mutants must fail a verdict or raise.
SURVEY_KERNELS = {
    "umbral_engine": ("recurrence_table", "carlitz_q_stirling"),
    "cigl": ("cigl_q_stirling_table", "cigl_q_powers", "partition_counts", "_levels"),
    "operator_calc": ("apply_number_operator",),
    "dobinski": ("jackson_derivative",),
}


def test_no_kernel_mutant_survives_in_process(monkeypatch):
    # in this process, each mutated kernel replaces the real one wherever a module holds it
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    survey = runpy.run_path(SURVEY)
    assert survey["run_verdicts"]() == (True, [])
    modules = [importlib.import_module(f"umbraldob.{name}") for name in survey["MODULES"]]
    survivors, count = [], 0
    for module_name, functions in SURVEY_KERNELS.items():
        module = importlib.import_module(f"umbraldob.{module_name}")
        for mutant in (m for m in survey["mutants"](module_name) if m.function in functions):
            with monkeypatch.context() as patch:
                real = getattr(module, mutant.function)
                patch_everywhere(patch, modules, real, mutated_definition(survey, mutant, module))
                if survey["run_verdicts"]() == (True, []):
                    survivors.append(mutant.key)
            count += 1
    assert count > 0 and survivors == []
