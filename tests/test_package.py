"""The package's lazy exports: every public name, loaded from its module on first access."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import umbraldob

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [
    "CapExceededError", "CertifiedValue", "GeneratingFunctionCheck", "NegativeTermError", "NonConvergentError",
    "PARTITION_CAP", "Poly", "PsiPoissonDistribution", "PsiSequence", "SUM_CAP", "StirlingTable", "UmbralDobError",
    "apply_number_operator", "bell_via_sum", "carlitz_q_stirling", "certified_sum", "cigl_q_bell",
    "cigl_q_dobinski_exact", "cigl_q_power", "cigl_q_stirling_table", "classical_stirling_table",
    "default_ratio_threshold", "dobinski_bell", "dobinski_specialization", "enumerate_partitions",
    "exponential_polynomial", "generating_function_checks", "jackson_derivative", "partition_counts",
    "poisson_moment_exact", "psi_exp", "psi_stirling_diagnostic", "q_number_symbolic", "recurrence_table",
    "rota_bell_exact", "stirling2", "verify_conjugation", "verify_falling_moment",
    "verify_pmf_via_generating_function",
]


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)


def test_export_list():
    assert sorted(umbraldob.__all__) == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_its_module_attribute(name):
    module = importlib.import_module(f"umbraldob.{umbraldob._EXPORTS[name]}")
    value = getattr(umbraldob, name)
    assert value is getattr(module, name)
    assert getattr(value, "__module__", module.__name__) == module.__name__  # the defining module


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(umbraldob, "nope")
    with pytest.raises(ImportError):
        exec("from umbraldob import nope", {})


def test_import_loads_no_submodule():
    result = run_python(
        "import sys; before = set(sys.modules); import umbraldob; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['umbraldob']"


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "from umbraldob import (" in sketch
    result = run_python(sketch)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module", ["exact_core", "umbral_engine", "dobinski", "cigl", "identities", "operator_calc"])
def test_no_environment_below_the_cli(module):
    # a verdict depends only on its arguments; only the CLI may read settings
    nodes = list(ast.walk(ast.parse((ROOT / "src" / "umbraldob" / f"{module}.py").read_text(encoding="utf-8"))))
    imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module}
    calls = [node.func for node in nodes if isinstance(node, ast.Call)]
    called = {getattr(func, "attr", getattr(func, "id", None)) for func in calls}
    assert not {name for name in imported if name.split(".")[0] == "os"}
    assert "getenv" not in called


def test_only_umbral_engine_names_a_sequence_kind():
    # every other module asks PsiSequence.bracket_q for the q of psi(k) = [k]_q, and never reads the kind
    naming = []
    for path in sorted((ROOT / "src" / "umbraldob").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
        attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if names & {"CLASSICAL", "GAUSS_Q", "FIBONACCI"} or "kind" in attributes:
            naming.append(path.name)
    assert naming == ["umbral_engine.py"]


def test_one_domain_error_handler_in_the_cli():
    # the command group catches every command's UmbralDobError; no command has its own handler
    tree = ast.parse((ROOT / "src" / "umbraldob" / "cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(node.type) for node in handlers].count("UmbralDobError") == 1


def test_only_main_prints_or_exits():
    # one exit path: the commands return their rows and verdict, and cli.main alone prints and exits
    found = []
    for path in sorted((ROOT / "src" / "umbraldob").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mains = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
        inside = {id(node) for main in mains for node in ast.walk(main)} if path.name == "cli.py" else set()
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("print", "sys.exit") and id(node) not in inside
        ]
    assert found == []


@pytest.mark.parametrize(
    "path", sorted([*(ROOT / "src" / "umbraldob").glob("*.py"), *(ROOT / "scripts").glob("*.py")]), ids=lambda p: p.name
)
def test_parses_with_python_3_10_grammar(path):
    """pyproject.toml promises Python >= 3.10.7: every source file parses with the 3.10 grammar.

    This catches syntax only (say, except* or a 3.11-only form); a stdlib API missing from 3.10 passes.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
