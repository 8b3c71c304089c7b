"""End-to-end command line checks through click's test runner."""

import json
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from umbraldob import cli as cli_module
from umbraldob.cli import main
from umbraldob.identities import Case

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


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

    def test_pretty_default(self):
        result = invoke("table", "--kind", "bell", "--n", "5")
        assert result.exit_code == 0
        assert "bell n=5: 52" in result.output

    def test_cigl_cap_reported_upfront(self):
        result = invoke("table", "--kind", "cigl-q-bell", "--n", "20")
        assert result.exit_code == 2
        assert "capped" in result.stderr


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

    def test_csv_shape(self):
        result = invoke(
            "verify", "--identity", "falling-moment", "--n-max", "2", "--format", "csv"
        )
        lines = result.output.splitlines()
        assert lines[0] == "identity,seq,n,verdict"
        assert lines[1] == "falling-moment,classical,0,pass"

    def test_failing_verdict_exits_one(self, monkeypatch):
        def broken(seq, n_max):
            return [Case({"identity": "conjugation", "max_degree": n_max}, False)]

        monkeypatch.setitem(cli_module._IDENTITY_RUNNERS, "conjugation", broken)
        result = invoke("verify", "--identity", "conjugation", "--n-max", "3")
        assert result.exit_code == 1
        assert "fail" in result.output

    def test_custom_sequence_accepted(self):
        result = invoke(
            "verify",
            "--identity",
            "falling-moment",
            "--seq",
            "custom:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25",
            "--n-max",
            "2",
        )
        assert result.exit_code == 0, result.stderr


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
        monkeypatch.setattr(cli_module, "rota_bell_exact", lambda m: -1)
        result = invoke("oracle", "--n", "2")
        assert result.exit_code == 1
        assert "fail" in result.output

    def test_enumeration_disagreement_exits_one(self, monkeypatch):
        walk = cli_module.partition_counts

        def one_off(n):
            counts = walk(n)
            counts[2] += 1
            return counts

        monkeypatch.setattr(cli_module, "partition_counts", one_off)
        result = invoke("oracle", "--n", "3", "--format", "csv")
        assert result.exit_code == 1
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert [row[1] for row in rows] == ["1", "1", "3", "5"]
        assert [row[-1] for row in rows] == ["pass", "pass", "fail", "pass"]

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
            ("oracle", "--n", "14"),
        ],
    )
    def test_exit_code_two(self, args):
        result = invoke(*args)
        assert result.exit_code == 2, result.output + result.stderr

    def test_divergent_sequence_message(self):
        result = invoke("dist", "--seq", "q=1/2", "--lambda", "2")
        assert "diverges" in result.stderr


class TestSummationCapPlumbing:
    def test_small_cap_turns_into_exit_two(self, monkeypatch):
        monkeypatch.setenv("UMBRALDOB_SUM_CAP", "3")
        result = invoke("verify", "--identity", "dobinski", "--n-max", "6")
        assert result.exit_code == 2
        assert "cap" in result.stderr

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_cap_exits_two(self, monkeypatch, raw):
        monkeypatch.setenv("UMBRALDOB_SUM_CAP", raw)
        result = invoke("verify", "--identity", "dobinski", "--n-max", "2")
        assert result.exit_code == 2
        assert "UMBRALDOB_SUM_CAP" in result.stderr

    def test_generous_cap_unchanged(self, monkeypatch):
        monkeypatch.setenv("UMBRALDOB_SUM_CAP", "500")
        result = invoke("verify", "--identity", "dobinski", "--n-max", "6")
        assert result.exit_code == 0
