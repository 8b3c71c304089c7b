#!/usr/bin/env python3
"""Time-to-verdict benchmark for the umbraldob command line.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload {q-tower,series,partitions} \
        --seed N --seconds S --trace {0,1}

Each workload is a fixed list of CLI commands whose rationals (q, lambda)
are drawn from ``--seed``; sizes do not depend on the seed.  Every command
runs as ``python -m umbraldob.cli ...`` in a fresh process, with the tree's
``src`` first on PYTHONPATH, one at a time: a closed loop with one client.
The list is run again and again while another pass fits in ``--seconds``,
and every output is checked against references computed in ``checks.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median start of
a no-op command, the starts spread over the run), ``wall_s`` and ``cpu_s``
(one pass over the list, the mean over the passes)
and ``peak_rss_mb`` (the largest child).
``--trace 1`` alternates an untraced pass with a pass under
``trace_cli.py`` and prints the per-layer split; see README.md.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A command fails on a non-zero exit, a traceback on stderr, or an
output that fails its check; failures are listed with their stderr tail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from checks import CheckError, check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
COMMAND_TIMEOUT_S = 60
SETUP_STARTS = 5  # no-op starts before the first pass; one more follows each pass
MIN_PASSES = 3
NOOP = ["table", "--kind", "bell", "--n", "0"]


def _q(rng: random.Random, lo: int, hi: int, den: int) -> str:
    """An odd numerator in [lo, hi] over den, so every draw has the same bit size."""
    return str(Fraction(rng.randrange(lo | 1, hi + 1, 2), den))


def probe(rng: random.Random) -> list[list[str]]:
    """One small command per route, appended to every workload.

    They keep every layer's per-layer figures measured on every workload:
    where a workload's purpose bypasses a layer, its share stays small and
    is that layer's no-change baseline.  Together about 0.5 s, mostly
    interpreter start.
    """
    return [
        ["table", "--kind", "q-bell", "--n", "4", "--format", "csv"],
        ["verify", "--identity", "pmf-gf", "--seq", f"q={_q(rng, 9, 31, 16)}", "--n-max", "3"],
        ["oracle", "--n", "5", "--format", "csv"],
        ["table", "--kind", "cigl-q-bell", "--n", "5", "--format", "csv"],
    ]


def q_tower(rng: random.Random) -> list[list[str]]:
    q = _q(rng, 9, 31, 16)  # in (1/2, 2): the symbolic tower does not depend on it
    return [
        ["table", "--kind", "q-bell", "--n", "15"],
        ["table", "--kind", "q-stirling", "--n", "13", "--format", "json"],
        ["verify", "--identity", "dobinski", "--seq", f"q={q}", "--n-max", "15", "--format", "json"],
        ["verify", "--identity", "q1-reduction", "--n-max", "13"],
    ]


def series(rng: random.Random) -> list[list[str]]:
    # One q < 1 and one q > 1 over 16, so the size of the exact terms, and
    # with it the cost, varies little with the seed.  dist prints exact pmf
    # bounds whose denominators grow like den**(k*k/2); den = 8 keeps them
    # below Python's int-to-str digit limit at k = 80.
    q_lo, q_hi = _q(rng, 9, 13, 16), _q(rng, 17, 23, 16)
    q_dist, lam = _q(rng, 5, 7, 8), _q(rng, 5, 9, 4)  # lambda*(1-q) < 1: inside the radius
    fm = ["verify", "--identity", "falling-moment", "--n-max", "80", "--format", "csv", "--seq"]
    return [
        fm + ["classical"],
        fm + ["fibonacci"],
        fm + [f"q={q_lo}"],
        fm + [f"q={q_hi}"],
        ["verify", "--identity", "dobinski", "--seq", "classical", "--n-max", "120"],
        ["verify", "--identity", "pmf-gf", "--seq", f"q={q_lo}", "--n-max", "44", "--format", "json"],
        ["dist", "--seq", f"q={q_dist}", "--lambda", lam, "--k-max", "80", "--format", "csv"],
    ]


def partitions(rng: random.Random) -> list[list[str]]:
    return [
        ["oracle", "--n", "12"],
        ["table", "--kind", "cigl-q-stirling", "--n", "13", "--format", "json"],
        ["table", "--kind", "cigl-q-bell", "--n", "13"],
        ["verify", "--identity", "cigl-dobinski", "--n-max", "13"],
        ["verify", "--identity", "conjugation", "--n-max", "300"],
    ]


WORKLOADS = {"q-tower": q_tower, "series": series, "partitions": partitions}


def workload_commands(name: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng) + probe(rng)


class Runner:
    """Runs CLI commands one at a time and keeps the failure record."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env.pop("UMBRALDOB_SUM_CAP", None)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failures: list[str] = []
        self.counts_repeat = True  # per-layer counts equal on every traced pass
        self.checked: dict[tuple[str, ...], tuple[bytes, int]] = {}  # argv -> (stdout, records)

    def run(self, argv: list[str], traced: bool = False) -> dict:
        """Run one command; return its wall and cpu time, max RSS, stdout size, records and trace stats."""
        self.attempted += 1
        stats_path = WORK / "stats.json"
        stats_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(stats_path), *argv]
        else:
            cmd = [sys.executable, "-m", "umbraldob.cli", *argv]
        with open(WORK / "out", "w+b") as out, open(WORK / "err", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0), err.seek(0)
            stdout, stderr = out.read(), err.read().decode(errors="replace")
        if wall >= COMMAND_TIMEOUT_S:
            problem = f"killed after {COMMAND_TIMEOUT_S} s"
        elif proc.returncode != 0:
            problem = f"exit {proc.returncode}"
        elif "Traceback" in stderr:
            problem = "traceback on stderr"
        else:
            problem = self.check(argv, stdout)
        if problem:
            tail = "\n    ".join(stderr.strip().splitlines()[-4:])
            self.failures.append(f"umbraldob {' '.join(argv)}: {problem}\n    {tail}")
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "bytes": len(stdout),
            "records": self.checked.get(tuple(argv), (b"", 0))[1],
            "stats": json.loads(stats_path.read_text()) if traced and stats_path.exists() else None,
        }

    def check(self, argv: list[str], stdout: bytes) -> str | None:
        """Check an output once; a later run of the same command must print the same bytes."""
        key = tuple(argv)
        if key in self.checked:
            return None if self.checked[key][0] == stdout else "output differs from the first run"
        try:
            count = check(argv, stdout.decode())
        except (CheckError, UnicodeDecodeError) as exc:
            return f"wrong output: {exc}"
        self.checked[key] = (stdout, count)
        return None


def run_pass(runner: Runner, commands: list[list[str]], traced: bool = False) -> list[dict]:
    return [runner.run(argv, traced) for argv in commands]


def time_left(t0: float, seconds: float, pass_walls: list[float]) -> bool:
    """Whether another pass, as long as the median one so far, ends within ``seconds`` of ``t0``."""
    return time.perf_counter() - t0 + statistics.median(pass_walls) <= seconds


def end_to_end(runner: Runner, commands: list[list[str]], seconds: float) -> dict:
    """Passes over the list until the next one would overrun ``seconds``.

    The host's speed drifts by tens of percent over tens of seconds.  A pass
    is timed as the mean over the run's passes: across runs that mean spread
    less than the median or the minimum of the same passes, which jump
    between the host's levels.  The no-op starts behind ``setup_s`` are spread
    over the run (a few first, then one per pass) and their median is taken.
    """
    t0 = time.perf_counter()
    runner.run(NOOP)  # warm-up: writes the bytecode cache on a fresh tree
    starts = [runner.run(NOOP)["wall"] for _ in range(SETUP_STARTS)]
    passes: list[list[dict]] = []
    while len(passes) < MIN_PASSES or time_left(t0, seconds, [sum(r["wall"] for r in p) for p in passes]):
        passes.append(run_pass(runner, commands))
        starts.append(runner.run(NOOP)["wall"])
    per_command = list(zip(*passes))
    for argv, runs in zip(commands, per_command):
        print(f"  {statistics.mean(r['wall'] for r in runs):8.3f} s  umbraldob {' '.join(argv)}")
    print(f"  {len(passes)} passes: " + " ".join(f"{sum(r['wall'] for r in p):.3f}" for p in passes) + " s")
    return {
        "setup_s": (statistics.median(starts), "s"),
        "wall_s": (statistics.mean(sum(r["wall"] for r in p) for p in passes), "s"),
        "cpu_s": (statistics.mean(sum(r["cpu"] for r in p) for p in passes), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for p in passes for r in p) / 1024, "MB"),
    }


MODULES = ("cli", "exact_core", "umbral_engine", "dobinski", "cigl", "operator_calc")
LAYER_METRICS = {
    "exact_core.poly_mul": ("calls", "self_s", "coeff_products"),
    "exact_core.exact_div": ("calls", "self_s"),
    "exact_core.certified_sum": ("calls", "self_s", "incl_s", "terms", "max_bits"),
    "umbral_engine.psi": ("calls", "self_s"),
    "umbral_engine.carlitz_q_stirling": ("calls", "self_s", "incl_s"),
    "dobinski.jackson_derivative": ("calls", "self_s"),
    "cigl.enumerate_partitions": ("strings", "self_s"),
    "cigl.weighted_count": ("calls", "self_s"),
}


def layer_split(results: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Sum one traced pass into ({time metric: s}, {count metric: n})."""
    times = dict.fromkeys([f"{m}.self_s" for m in MODULES] + ["trace.total_s"], 0.0)
    counts = {"cli.records": 0, "cli.output_bytes": 0, "umbral_engine.cache_entries": 0, "cigl.weighted_count.cache_entries": 0}
    for r in results:
        stats = r["stats"]
        if stats is None:  # the command died before its stats were written
            continue
        times["trace.total_s"] += stats["total_s"]
        times["cli.self_s"] += stats["cli_self_s"]
        counts["cli.records"] += r["records"]
        counts["cli.output_bytes"] += r["bytes"]
        for name, value in stats["caches"].items():
            counts[name] = max(counts[name], value)
        for layer, st in stats["layers"].items():
            times[layer.split(".")[0] + ".self_s"] += st["self_s"]
            for key in LAYER_METRICS.get(layer, ()):
                bucket = times if key.endswith("_s") else counts
                name = f"{layer}.{key}"
                if key == "max_bits":
                    bucket[name] = max(bucket.get(name, 0), st[key])
                else:
                    bucket[name] = bucket.get(name, 0) + st[key]
    for layer, keys in LAYER_METRICS.items():  # layers this tree no longer has read 0
        for key in keys:
            (times if key.endswith("_s") else counts).setdefault(f"{layer}.{key}", 0)
    return times, counts


def per_layer(runner: Runner, commands: list[list[str]], seconds: float) -> dict:
    plain, traced, t0 = [], [], time.perf_counter()
    # two traced passes at least, to see that counts repeat
    while len(traced) < 2 or time_left(t0, seconds, [p + t[0] for p, t in zip(plain, traced)]):
        a, b = run_pass(runner, commands), run_pass(runner, commands, traced=True)
        plain.append(sum(r["wall"] for r in a))
        traced.append((sum(r["wall"] for r in b), *layer_split(b)))
    counts = traced[0][2]
    runner.counts_repeat = all(t[2] == counts for t in traced)
    metrics = {name: (statistics.median(t[1][name] for t in traced), "s") for name in traced[0][1]}
    metrics["trace.overhead_s"] = (statistics.median(t[0] for t in traced) - statistics.median(plain), "s")
    units = {"cli.output_bytes": "bytes", "exact_core.certified_sum.max_bits": "bits"}
    metrics.update({name: (n, units.get(name, "count")) for name, n in counts.items()})
    total = metrics["trace.total_s"][0]
    print(f"  {len(traced)} traced passes; share of trace.total_s = {total:.3f} s:")
    for name, (value, unit) in metrics.items():
        if unit == "s" and name != "trace.total_s":
            print(f"  {value / total:7.1%}  {name}")
    return metrics


def environment() -> str:
    commit = ""
    if (ROOT / ".git").exists():  # not a parent directory's repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, commit {commit or 'unknown'}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "umbraldob" / "cli.py").is_file():
        print(f"error: no umbraldob source tree at {ROOT}/src; run from the root of a checkout", file=sys.stderr)
        return 2

    commands = workload_commands(args.workload, args.seed)
    print(f"# {args.workload} seed {args.seed}: {environment()}")
    WORK.mkdir(exist_ok=True)
    runner = Runner()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, commands, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    if not runner.counts_repeat:
        print("  FAILED per-layer counts differ between traced passes")
    print(f"  fail_ratio {failed}/{runner.attempted}")
    result = {
        "correct": failed == 0 and runner.counts_repeat,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
