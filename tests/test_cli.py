"""End-to-end command line checks, run in process through helpers.invoke."""

import ast
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from pathlib import Path

import pytest
from helpers import invoke, tower_definition_failures

from umbraldob import cigl
from umbraldob import cli as cli_module
from umbraldob import dobinski
from umbraldob import exact_core
from umbraldob import identities
from umbraldob.errors import NonConvergentError
from umbraldob.exact_core import CertifiedValue
from umbraldob.identities import Case

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# Runs the CLI as `python -m umbraldob.cli ARGS` does, then prints the modules it loaded.
LOADED_BY = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["umbraldob", *sys.argv[1:]]
try:
    runpy.run_module("umbraldob.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(sorted(set(sys.modules) - before), file=sys.stderr)
"""


def records_of(result):
    data = json.loads(result.output)
    assert isinstance(data, list)
    return data


class TestTable:
    def test_bell_csv(self):
        result = invoke("table", "--kind", "bell", "--n", "5", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,value"
        assert lines[-1] == "5,52"
        assert len(lines) == 7

    def test_stirling_csv(self):
        result = invoke("table", "--kind", "stirling", "--n", "4", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,k,value"
        assert "4,2,7" in lines

    def test_q_bell_csv_joins_coefficients(self):
        result = invoke("table", "--kind", "q-bell", "--n", "3", "--format", "csv")
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "3,1/1;2/1;1/1;1/1"

    def test_cigl_q_bell_json(self):
        result = invoke("table", "--kind", "cigl-q-bell", "--n", "3", "--format", "json")
        assert result.exit_code == 0
        recs = records_of(result)
        assert recs[-1] == {
            "kind": "cigl-q-bell",
            "parameters": {"n": 3},
            "value": ["2/1", "1/1", "1/1", "1/1"],
        }

    def test_q_stirling_json_entry(self):
        result = invoke("table", "--kind", "q-stirling", "--n", "3", "--format", "json")
        assert result.exit_code == 0
        recs = records_of(result)
        entry = next(r for r in recs if r["parameters"] == {"n": 3, "k": 2})
        assert entry["value"] == ["0/1", "2/1", "1/1"]

    def test_classical_kinds_print_plain_integers(self):
        # References independent of the Stirling recurrence: the explicit
        # inclusion-exclusion sum for S(n, k) and Aitken's array for B(n).
        def explicit(n, k):
            return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)

        bells, row = [1], [1]
        for _ in range(25):
            row = list(accumulate(row, initial=row[-1]))
            bells.append(row[0])
        result = invoke("table", "--kind", "bell", "--n", "25", "--format", "csv")
        assert result.exit_code == 0
        assert result.output.splitlines()[1:] == [f"{n},{b}" for n, b in enumerate(bells)]
        result = invoke("table", "--kind", "stirling", "--n", "20", "--format", "json")
        assert result.exit_code == 0
        recs = records_of(result)
        assert len(recs) == 21 * 22 // 2
        for rec in recs:
            n, k = rec["parameters"]["n"], rec["parameters"]["k"]
            assert rec["value"] == str(explicit(n, k))

    def test_pretty_default(self):
        result = invoke("table", "--kind", "bell", "--n", "5")
        assert result.exit_code == 0
        assert "bell n=5: 52" in result.output

    def test_cigl_cap_reported_upfront(self):
        result = invoke("table", "--kind", "cigl-q-bell", "--n", "20")
        assert result.exit_code == 2
        assert "capped" in result.stderr

    @pytest.mark.parametrize("kind", ["stirling", "q-stirling", "cigl-q-stirling"])
    def test_every_row_meets_its_defining_expansion(self, kind):
        result = invoke("table", "--kind", kind, "--n", "13", "--format", "json")
        assert result.exit_code == 0
        rows = [[] for _ in range(14)]
        for rec in records_of(result):  # row by row, k ascending
            value = rec["value"]
            rows[rec["parameters"]["n"]].append(
                [int(Fraction(c)) for c in value] if isinstance(value, list) else int(value)
            )
        assert tower_definition_failures(kind, rows) == []

    def test_closed_stdout_exits_two_without_a_traceback(self):
        # the triangle's csv is megabytes, far past a pipe's buffer, so writing it meets the closed end
        with subprocess.Popen(
            [sys.executable, "-m", "umbraldob.cli", "table", "--kind", "stirling", "--n", "200", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV,
        ) as proc:
            assert proc.stdout.readline() == "n,k,value\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
        assert stderr == "error: stdout was closed before the output was written\n"

    def test_help_to_a_closed_stdout_exits_two(self):
        # the pipe's read end is closed before the process starts, so even a short output meets it
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "umbraldob.cli", "table", "--help"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=ENV, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, "error: stdout was closed before the output was written\n")


class TestVerifySuites:
    @pytest.mark.parametrize(
        "args",
        [
            ("--identity", "falling-moment", "--n-max", "4"),
            ("--identity", "falling-moment", "--seq", "fibonacci", "--n-max", "4"),
            ("--identity", "falling-moment", "--seq", "q=3/2", "--n-max", "4"),
            ("--identity", "dobinski", "--n-max", "4"),
            ("--identity", "dobinski", "--seq", "q=1/2", "--n-max", "4"),
            ("--identity", "cigl-dobinski", "--n-max", "5"),
            ("--identity", "conjugation", "--n-max", "10"),
            ("--identity", "pmf-gf", "--seq", "q=1/2", "--n-max", "3"),
            ("--identity", "q1-reduction", "--n-max", "6"),
        ],
    )
    def test_pass_suites_exit_zero(self, args):
        result = invoke("verify", *args)
        assert result.exit_code == 0, result.output + result.stderr
        assert "pass" in result.output
        assert "fail" not in result.output

    def test_dobinski_reference_at_q_is_fast(self):
        # the reference is the Carlitz recurrence run at q = 1/2, not a tower of polynomials in q
        start = time.perf_counter()
        result = invoke("verify", "--identity", "dobinski", "--seq", "q=1/2", "--n-max", "60", "--format", "csv")
        assert time.perf_counter() - start < 2
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1:] == [f"dobinski,q=1/2,{n},pass" for n in range(61)]

    def test_cigl_dobinski_runs_past_the_partition_cap(self):
        # the cap bounds enumeration and the printed cigl-* tables, not this verdict
        result = invoke("verify", "--identity", "cigl-dobinski", "--n-max", "20")
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [f"cigl-dobinski n={n}: pass" for n in range(21)]

    def test_csv_shape(self):
        result = invoke(
            "verify", "--identity", "falling-moment", "--n-max", "2", "--format", "csv"
        )
        lines = result.output.splitlines()
        assert lines[0] == "identity,seq,n,verdict"
        assert lines[1] == "falling-moment,classical,0,pass"

    def test_failing_verdict_exits_one(self, monkeypatch):
        def broken(seq, n_max):
            return [Case({"max_degree": n_max}, False)]

        monkeypatch.setitem(identities.RUNNERS, "conjugation", broken)
        result = invoke("verify", "--identity", "conjugation", "--n-max", "3")
        assert result.exit_code == 1
        assert "fail" in result.output

    def test_custom_sequence_rejected(self):
        # a finite table has no values past its end, so no series over it has a tail bound
        table = "custom:" + ",".join(str(k) for k in range(26))
        result = invoke("verify", "--identity", "falling-moment", "--seq", table, "--n-max", "2")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: unrecognized sequence '{table}'\n"


def test_identity_choices_match_registry():
    # The order is part of the output: a usage error lists the choices.
    assert cli_module.IDENTITIES == tuple(identities.RUNNERS)


class TestDist:
    def test_csv_rows(self):
        result = invoke(
            "dist", "--seq", "q=1/2", "--lambda", "1", "--k-max", "4", "--format", "csv"
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "k,lo,hi"
        assert lines[-1].startswith("normalizer,")
        assert len(lines) == 7

    def test_partial_mass_stays_below_one(self):
        result = invoke(
            "dist", "--seq", "fibonacci", "--lambda", "1", "--k-max", "12", "--format", "csv"
        )
        assert result.exit_code == 0
        lows = [
            Fraction(line.split(",")[1])
            for line in result.output.splitlines()[1:]
            if not line.startswith("normalizer")
        ]
        assert 0 < sum(lows) < 1

    def test_exact_values_of_any_size_print(self):
        # The largest numerators here pass Python's default 4300-digit limit
        # on int/str conversion; the CLI lifts it for its process, and
        # parsing the rows back needs it lifted as well.
        limit = sys.get_int_max_str_digits()
        try:
            result = invoke(
                "dist", "--seq", "q=9/10", "--lambda", "9", "--k-max", "100", "--format", "csv"
            )
            assert result.exit_code == 0, result.stderr
            rows = [line.split(",") for line in result.output.splitlines()[1:]]
            assert [k for k, _, _ in rows] == [str(k) for k in range(101)] + ["normalizer"]
            assert all(0 < Fraction(lo) <= Fraction(hi) for _, lo, hi in rows)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_json_has_normalizer_record(self):
        result = invoke("dist", "--lambda", "2", "--k-max", "3", "--format", "json")
        recs = records_of(result)
        assert recs[-1]["kind"] == "normalizer"
        assert recs[0]["parameters"]["lambda"] == "2/1"


class TestOracle:
    def test_csv_row(self):
        result = invoke("oracle", "--n", "5", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,enumeration,rota_bell,operator_bell,dobinski_lo,dobinski_hi,verdict"
        last = lines[-1].split(",")
        assert last[:4] == ["5", "52", "52", "52"]
        assert last[-1] == "pass"
        assert Fraction(last[4]) <= 52 <= Fraction(last[5])

    def test_disagreement_exits_one(self, monkeypatch):
        monkeypatch.setattr(identities, "bell_via_sum", lambda table, m: -1)
        result = invoke("oracle", "--n", "2")
        assert result.exit_code == 1
        assert "fail" in result.output

    def test_enumeration_disagreement_exits_one(self, monkeypatch):
        walk = cigl.partition_counts

        def one_off(n):
            counts = walk(n)
            counts[2] += 1
            return counts

        monkeypatch.setattr(cigl, "partition_counts", one_off)
        result = invoke("oracle", "--n", "3", "--format", "csv")
        assert result.exit_code == 1
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert [row[1] for row in rows] == ["1", "1", "3", "5"]
        assert [row[-1] for row in rows] == ["pass", "pass", "fail", "pass"]

    def test_series_disagreement_exits_one(self, monkeypatch):
        sweep = dobinski.moments

        def shifted(seq, n_max, power):
            # each interval moved wholly above its Bell number
            return [CertifiedValue(iv.hi + 1, iv.hi + 2) for iv in sweep(seq, n_max, power)]

        monkeypatch.setattr(dobinski, "moments", shifted)
        result = invoke("oracle", "--n", "3", "--format", "csv")
        assert result.exit_code == 1
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert [row[1:4] for row in rows] == [["1"] * 3, ["1"] * 3, ["2"] * 3, ["5"] * 3]
        assert [row[-1] for row in rows] == ["fail"] * 4

    def test_cap(self):
        result = invoke("oracle", "--n", "14")
        assert result.exit_code == 2


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "args",
        [
            ("table", "--kind", "q-bell", "--n", "4", "--format", "json"),
            ("table", "--kind", "cigl-q-stirling", "--n", "4", "--format", "json"),
            ("verify", "--identity", "q1-reduction", "--n-max", "3", "--format", "json"),
            ("dist", "--seq", "q=1/2", "--lambda", "1/3", "--k-max", "3", "--format", "json"),
            ("oracle", "--n", "4", "--format", "json"),
        ],
    )
    def test_reserialization_is_byte_identical(self, args):
        result = invoke(*args)
        assert result.exit_code == 0
        parsed = json.loads(result.output)
        again = json.dumps(parsed, indent=2, sort_keys=False, ensure_ascii=False) + "\n"
        assert again == result.output


class TestBadInput:
    @pytest.mark.parametrize(
        "args",
        [
            ("table", "--kind", "nope", "--n", "3"),
            ("table", "--kind", "bell"),
            ("table", "--kind", "bell", "--n", "-1"),
            ("table", "--kind", "bell", "--n", "3", "--format", "yaml"),
            ("verify", "--identity", "dobinski", "--seq", "fibonacci"),
            ("verify", "--identity", "pmf-gf", "--seq", "custom:0,1,2"),
            ("verify", "--identity", "falling-moment", "--seq", "q=0"),
            ("verify", "--identity", "falling-moment", "--seq", "q=1/0"),
            ("verify", "--identity", "falling-moment", "--seq", "custom:1,2"),
            ("verify", "--identity", "falling-moment", "--seq", "bogus"),
            ("verify", "--identity", "unknown"),
            ("dist", "--lambda", "0"),
            ("dist", "--lambda", "abc"),
            ("dist", "--seq", "q=1/2", "--lambda", "2"),
            ("dist", "--seq", "custom:0,1,2", "--k-max", "9"),
            ("dist", "--seq", "custom:0,1/0"),
            ("oracle", "--n", "14"),
            ("table", "--kind", "cigl-q-stirling", "--n", "14"),
        ],
    )
    def test_exit_code_two(self, args):
        result = invoke(*args)
        assert result.exit_code == 2, result.output + result.stderr

    def test_divergent_sequence_message(self):
        result = invoke("dist", "--seq", "q=1/2", "--lambda", "2")
        assert "diverges" in result.stderr

    def test_zero_denominator_names_the_descriptor(self):
        result = invoke("dist", "--seq", "q=1/0")
        assert result.exit_code == 2
        assert result.stderr == "error: zero denominator in sequence 'q=1/0'\n"


class TestUsage:
    @pytest.mark.parametrize(
        "args, error",
        [
            (("table", "--n", "3"), "Missing option '--kind'."),
            (
                ("verify", "--identity", "nope"),
                "Invalid value for '--identity': 'nope' is not one of 'falling-moment', 'dobinski', "
                "'cigl-dobinski', 'conjugation', 'pmf-gf', 'q1-reduction'.",
            ),
            (("table", "--kind", "bell", "--n", "x"), "Invalid value for '--n': 'x' is not a valid integer range."),
            (("dist", "--k-max=-2"), "Invalid value for '--k-max': -2 is not in the range x>=0."),
            (("oracle", "--n", "3", "--bogus", "1"), "No such option '--bogus'."),
            (("verify", "--identity"), "Option '--identity' requires an argument."),
            (("table", "--kind", "bell", "--n", "1", "extra"), "Got unexpected extra argument (extra)"),
            (("tabel", "--kind", "bell"), "No such command 'tabel'."),
            ((), "Missing command."),
        ],
        ids=["missing", "choice", "not-int", "negative", "unknown-option", "no-value", "extra", "command", "none"],
    )
    def test_usage_error_exits_two(self, args, error):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("Usage: main ")
        assert result.stderr.endswith(f"\nError: {error}\n")

    @pytest.mark.parametrize(
        "args, names",
        [(("--help",), ["table", "verify", "dist", "oracle"]), (("table", "--help"), ["--kind", "--n", "--format"])],
    )
    def test_help_names_everything(self, args, names):
        result = invoke(*args)
        assert result.exit_code == 0
        assert result.stderr == ""
        assert all(name in result.stdout for name in names)

    @pytest.mark.parametrize(
        "joined, spaced",
        [
            (("--kind=bell", "--n=2"), ("--kind", "bell", "--n", "2")),
            (("--kind=q-bell", "--n=3", "--format=csv"), ("--kind", "q-bell", "--n", "3", "--format", "csv")),
        ],
    )
    def test_option_equals_value(self, joined, spaced):
        result = invoke("table", *joined)
        assert result.exit_code == 0
        assert result.stdout == invoke("table", *spaced).stdout

    def test_value_may_contain_equals(self):
        result = invoke("verify", "--identity=pmf-gf", "--seq=q=1/2", "--n-max=2", "--format=csv")
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1:] == ["pmf-gf,q=1/2,0,pass", "pmf-gf,q=1/2,1,pass", "pmf-gf,q=1/2,2,pass"]

    def test_module_run_names_itself(self):
        result = subprocess.run(
            [sys.executable, "-m", "umbraldob.cli", "table", "--kind", "bell"],
            capture_output=True, text=True, env=ENV, timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "Usage: python -m umbraldob.cli table [OPTIONS]\n"
            "Try 'python -m umbraldob.cli table --help' for help.\n\n"
            "Error: Missing option '--n'.\n"
        )


class TestSummationCapPlumbing:
    @pytest.mark.parametrize(
        "args",
        [("verify", "--identity", "dobinski", "--n-max", "6"), ("dist", "--k-max", "2"), ("oracle", "--n", "3")],
        ids=" ".join,
    )
    def test_small_cap_turns_into_exit_two(self, monkeypatch, args):
        # dist's series truncates at K = 1 after reading index 2, so only a cap below 2 stops it
        monkeypatch.setattr(exact_core, "SUM_CAP", 1)
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: no certified truncation point within hard cap 1\n"

    def test_generous_cap_unchanged(self, monkeypatch):
        monkeypatch.setattr(exact_core, "SUM_CAP", 500)
        result = invoke("verify", "--identity", "dobinski", "--n-max", "6")
        assert result.exit_code == 0

    def test_lambda_past_the_cap_fails_before_summing(self, monkeypatch):
        # exp_psi(lam) truncates only where psi(k)/2 >= lam for some k <= SUM_CAP: k = 100 reaches 50
        calls, real = [], dobinski.certified_sum

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(exact_core, "SUM_CAP", 100)
        monkeypatch.setattr(dobinski, "certified_sum", counting)
        result = invoke("dist", "--lambda", "101/2", "--k-max", "0")
        assert (result.exit_code, result.stdout, calls) == (2, "", [])
        assert result.stderr == "error: no certified truncation point within hard cap 100\n"
        assert invoke("dist", "--lambda", "50", "--k-max", "0").exit_code == 0

    def test_large_lambda_fails_fast(self):
        start = time.perf_counter()
        result = invoke("dist", "--lambda", "6000", "--k-max", "0")
        assert time.perf_counter() - start < 2
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: no certified truncation point within hard cap 10000\n"


def boom(*args):
    raise NonConvergentError("boom")


class TestDomainErrorBoundary:
    @pytest.mark.parametrize(
        "args, owner, name",
        [
            (("table", "--kind", "q-bell", "--n", "3"), cli_module, "carlitz_q_stirling"),
            (("verify", "--identity", "conjugation"), identities.RUNNERS, "conjugation"),
            (("dist", "--k-max", "2"), dobinski, "psi_exp"),
            (("oracle", "--n", "3"), identities, "bell_oracle"),
        ],
        ids=["table", "verify", "dist", "oracle"],
    )
    def test_route_error_exits_two_with_no_output(self, monkeypatch, args, owner, name):
        # the command group turns a domain error from any command's route into exit 2
        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, boom)
        else:
            monkeypatch.setattr(owner, name, boom)
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: boom\n"


def loaded_modules(*args) -> set[str]:
    """The modules a fresh interpreter loads to run the CLI with args."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED_BY, *args], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stderr.splitlines()[-1]))


class TestStartup:
    def test_noop_table_loads_only_its_modules(self):
        loaded = loaded_modules("table", "--kind", "bell", "--n", "0")
        assert {name for name in loaded if name.startswith("umbraldob")} == {
            "umbraldob",
            "umbraldob.errors",
            "umbraldob.exact_core",
            "umbraldob.umbral_engine",
        }
        assert "dataclasses" not in loaded
        assert "json" not in loaded
        assert "click" not in loaded

    def test_verify_loads_no_parser_package(self):
        assert "click" not in loaded_modules("verify", "--identity", "q1-reduction", "--n-max", "3")

    def test_verify_loads_only_the_runner_it_runs(self):
        loaded = loaded_modules("verify", "--identity", "q1-reduction", "--n-max", "3")
        assert {"umbraldob.identities", "umbraldob.operator_calc"} <= loaded
        assert not {"umbraldob.cigl", "umbraldob.dobinski"} & loaded

    def test_cigl_dobinski_loads_no_series_code(self):
        loaded = loaded_modules("verify", "--identity", "cigl-dobinski", "--n-max", "3")
        assert {"umbraldob.identities", "umbraldob.cigl"} <= loaded
        assert not {"umbraldob.dobinski", "umbraldob.operator_calc"} & loaded

    def test_cigl_table_loads_no_series_or_identity_code(self):
        loaded = loaded_modules("table", "--kind", "cigl-q-bell", "--n", "3")
        assert "umbraldob.cigl" in loaded
        assert not {"umbraldob.dobinski", "umbraldob.identities", "umbraldob.operator_calc"} & loaded
