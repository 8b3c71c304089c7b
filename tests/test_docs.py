"""Every command that README.md and the module docstrings show runs and exits 0, and every --seq syntax parses."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import invoke

from umbraldob import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SCRIPT = "scripts/run_identity_suite.py"
SCRIPT_DOC = ast.get_docstring(ast.parse((ROOT / SCRIPT).read_text(encoding="utf-8")))
README_CLI_BLOCK = re.search(r"## CLI\n.*?```sh\n(.*?)```", README, re.S).group(1)
README_SEQ_TABLE = re.search(r"Sequence grammar for `--seq`:\n\n(.*?)\n\n", README, re.S).group(1)


def commands(text: str, prefix: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if line.strip().startswith(prefix + " ")]


CLI_COMMANDS = {
    "README": commands(README_CLI_BLOCK, "umbraldob"),
    "cli docstring": commands(cli.__doc__, "umbraldob"),
}
SCRIPT_COMMANDS = {
    "README": commands(README, f"python3 {SCRIPT}"),
    "script docstring": commands(SCRIPT_DOC, f"python3 {SCRIPT}"),
}


@pytest.mark.parametrize("found", [CLI_COMMANDS, SCRIPT_COMMANDS], ids=["cli", "script"])
def test_every_source_shows_a_command(found):
    assert all(found.values()), found


@pytest.mark.parametrize("command", sorted({c for cs in CLI_COMMANDS.values() for c in cs}))
def test_cli_command_runs(command):
    result = invoke(*shlex.split(command)[1:])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command", sorted({c for cs in SCRIPT_COMMANDS.values() for c in cs}))
def test_script_command_runs(command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *shlex.split(command)[1:]], cwd=ROOT, capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_sequence_grammar_parses():
    # the placeholder stands for the rational that the row's own example uses
    syntaxes = re.findall(r"^\| `(.+?)` \|", README_SEQ_TABLE, re.M)
    assert syntaxes
    for syntax in syntaxes:
        cli.parse_sequence(syntax.replace("<rational>", "1/2"))
