"""Golden corpus: byte-identical stdout, stderr and exit code for CLI commands.

``golden/corpus.json`` holds the recorded output of every command in CASES.
Each test runs one command in-process and compares all three streams byte
for byte, so a refactor that changes any visible output fails here.  To
record the corpus again after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``golden/corpus.json`` before committing it.  The same
command records ``golden/sweeps.json``: the interval endpoints of the
falling-moment and power-moment sweeps, which the CLI prints only as verdicts.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from umbraldob.cli import main, parse_sequence
from umbraldob.dobinski import dobinski_bells, falling_moments

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
SWEEPS = Path(__file__).parent / "golden" / "sweeps.json"

CUSTOM_26 = "custom:" + ",".join(str(k) for k in range(26))
CUSTOM_4 = "custom:0,1,3/2,2"
FORMATS = ("pretty", "csv", "json")

TABLE_SIZES = {
    "stirling": 5,
    "bell": 7,
    "q-stirling": 4,
    "q-bell": 6,
    "cigl-q-stirling": 4,
    "cigl-q-bell": 5,
}

VERIFY_RUNS = [
    ("falling-moment", "classical", 5),
    ("dobinski", "q=1/2", 5),
    ("cigl-dobinski", "classical", 5),
    ("conjugation", "classical", 7),
    ("pmf-gf", "q=1/4", 4),
    ("q1-reduction", "classical", 5),
]

# (env, args): every subcommand in every format, every table kind, every
# identity, every --seq kind, and the exit-2 paths.
CASES = (
    [({}, ("table", "--kind", kind, "--n", str(n), "--format", fmt))
     for kind, n in TABLE_SIZES.items() for fmt in FORMATS]
    + [({}, ("table", "--kind", kind, "--n", "0")) for kind in TABLE_SIZES]
    + [({}, ("verify", "--identity", ident, "--seq", seq, "--n-max", str(n), "--format", fmt))
       for ident, seq, n in VERIFY_RUNS for fmt in FORMATS]
    + [({}, ("verify", "--identity", "falling-moment", "--seq", seq, "--n-max", "4"))
       for seq in ("q=1/4", "q=3/2", "fibonacci", CUSTOM_26, " classical ")]
    + [({}, ("verify", "--identity", "dobinski", "--seq", seq, "--n-max", "6"))
       for seq in ("classical", "q=1/4", "q=3/2")]
    + [({}, ("verify", "--identity", "pmf-gf", "--seq", seq, "--n-max", "4"))
       for seq in ("classical", "q=1/2", "q=3/2")]
    + [({}, ("verify", "--identity", ident, "--n-max", "0"))
       for ident in ("falling-moment", "dobinski", "cigl-dobinski", "conjugation", "pmf-gf", "q1-reduction")]
    + [({}, ("dist", "--seq", seq, "--lambda", lam, "--k-max", "6", "--format", fmt))
       for seq, lam in (("classical", "1"), ("q=1/2", "1/3"), ("fibonacci", "2")) for fmt in FORMATS]
    + [({}, ("dist", "--seq", seq, "--lambda", lam, "--k-max", "5"))
       for seq, lam in (("q=3/2", "3"), ("q=1/4", "1"), (CUSTOM_26, "1"))]
    + [({}, ("dist", "--k-max", "0"))]
    + [({}, ("oracle", "--n", str(n), "--format", fmt)) for n in (0, 5, 7) for fmt in FORMATS]
    + [
        # exit 2: no reference value, short custom tables, bad input, divergence, caps
        ({}, ("verify", "--identity", "dobinski", "--seq", "fibonacci")),
        ({}, ("verify", "--identity", "pmf-gf", "--seq", "fibonacci")),
        ({}, ("verify", "--identity", "dobinski", "--seq", CUSTOM_4)),
        ({}, ("verify", "--identity", "pmf-gf", "--seq", CUSTOM_4)),
        ({}, ("verify", "--identity", "falling-moment", "--seq", CUSTOM_4, "--n-max", "2")),
        ({}, ("dist", "--seq", CUSTOM_4, "--k-max", "3")),
        ({}, ("verify", "--identity", "falling-moment", "--seq", "q=0")),
        ({}, ("verify", "--identity", "falling-moment", "--seq", "q=1/0")),
        ({}, ("verify", "--identity", "falling-moment", "--seq", "custom:1,2")),
        ({}, ("verify", "--identity", "falling-moment", "--seq", "custom:")),
        ({}, ("verify", "--identity", "falling-moment", "--seq", "bogus")),
        ({}, ("verify", "--identity", "unknown")),
        ({}, ("table", "--kind", "bell", "--n", "-1")),
        ({}, ("dist", "--lambda", "0")),
        ({}, ("dist", "--lambda", "-1/2")),
        ({}, ("dist", "--lambda", "abc")),
        ({}, ("dist", "--seq", "q=1/2", "--lambda", "2")),
        ({}, ("dist", "--seq", "q=3/4", "--lambda", "4")),
        ({}, ("table", "--kind", "cigl-q-bell", "--n", "14")),
        ({}, ("table", "--kind", "cigl-q-stirling", "--n", "20")),
        ({}, ("oracle", "--n", "14")),
        ({"UMBRALDOB_SUM_CAP": "3"}, ("verify", "--identity", "dobinski", "--n-max", "6")),
        ({"UMBRALDOB_SUM_CAP": "3"}, ("dist", "--k-max", "2")),
        ({"UMBRALDOB_SUM_CAP": "3"}, ("oracle", "--n", "3")),
        ({"UMBRALDOB_SUM_CAP": "500"}, ("verify", "--identity", "dobinski", "--n-max", "6")),
    ]
    + [({}, ("oracle", "--n", "10", "--format", "csv"))]
)

SWEEP_SEQS = ("classical", "fibonacci", "q=1/4", "q=17/16", CUSTOM_26)
SWEEP_N_MAX = 12


def run_case(env, args) -> dict:
    result = CliRunner().invoke(main, list(args), env=env)
    return {
        "env": env,
        "args": list(args),
        "stdout": result.stdout,
        "stderr": result.stderr,
        "exit_code": result.exit_code,
    }


def sweep_intervals(descriptor: str) -> dict:
    seq, ns = parse_sequence(descriptor), range(SWEEP_N_MAX + 1)
    return {
        name: [[str(v.lo), str(v.hi)] for v in sweep(seq, ns)]
        for name, sweep in (("falling", falling_moments), ("power", dobinski_bells))
    }


@pytest.fixture(scope="module")
def corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_matches_cases(corpus):
    recorded = [(c["env"], c["args"]) for c in corpus]
    assert recorded == [(env, list(args)) for env, args in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(args) for _, args in CASES])
def test_output_is_byte_identical(corpus, index):
    env, args = CASES[index]
    expected = corpus[index]
    got = run_case(env, args)
    assert got["exit_code"] == expected["exit_code"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]


@pytest.mark.parametrize("descriptor", SWEEP_SEQS, ids=lambda d: d[:9])
def test_sweep_intervals_are_identical(descriptor):
    recorded = json.loads(SWEEPS.read_text(encoding="utf-8"))
    assert sweep_intervals(descriptor) == recorded[descriptor]


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    records = [run_case(env, args) for env, args in CASES]
    CORPUS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} commands in {CORPUS}")
    sweeps = {descriptor: sweep_intervals(descriptor) for descriptor in SWEEP_SEQS}
    SWEEPS.write_text(json.dumps(sweeps, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"recorded {len(sweeps)} sequences in {SWEEPS}")
