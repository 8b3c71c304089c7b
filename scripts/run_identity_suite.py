#!/usr/bin/env python3
"""Sweep every identity across the built-in sequences and print a report.

This is the long-form companion to `umbraldob verify`: it runs every suite
in the identity registry in one go, the sequence-dependent ones once per
built-in sequence, and prints one verdict line per suite and sequence, with
the widest certified interval where the suite reads its verdicts from
intervals.  A sequence the suite has no reference route for is reported as
skipped.  cigl-dobinski, and the Bell oracle of `umbraldob oracle` that
follows the suites, stop at min(n_max, PARTITION_CAP).  The oracle's one
brute-force walk counts the restricted growth strings of every length, and
each count must equal the Stirling row sum and the umbral operator value
and lie in the Dobinski interval.  Exits 1 if a verdict failed, and 2 with
a message on stderr if a cap or convergence limit stopped the sweep.

    python3 scripts/run_identity_suite.py --n-max 8
    python3 scripts/run_identity_suite.py --n-max 10
"""

import argparse
import sys
import time
from fractions import Fraction

from umbraldob.cigl import PARTITION_CAP
from umbraldob.errors import UmbralDobError, UnsupportedSequenceError
from umbraldob.exact_core import summation_cap
from umbraldob.identities import PER_SEQUENCE, RUNNERS, bell_oracle
from umbraldob.umbral_engine import PsiSequence

SEQUENCES = [
    PsiSequence.classical(),
    PsiSequence.gauss_q(Fraction(1, 4)),
    PsiSequence.gauss_q(Fraction(1, 2)),
    PsiSequence.gauss_q(Fraction(3, 2)),
    PsiSequence.fibonacci(),
]


def run(n_max: int) -> int:
    verdicts = []
    t0 = time.perf_counter()

    def report(label: str, ok: bool, detail: str = "") -> None:
        verdicts.append(ok)
        print(f"  [{'ok ' if ok else 'FAIL'}] {label}" + (f"  ({detail})" if detail else ""))

    for name, runner in RUNNERS.items():
        depth = min(n_max, PARTITION_CAP) if name == "cigl-dobinski" else n_max
        print(f"{name} (n <= {depth})")
        per_sequence = name in PER_SEQUENCE
        for seq in SEQUENCES if per_sequence else SEQUENCES[:1]:
            label = seq.label if per_sequence else "any sequence"
            try:
                cases = runner(seq, depth)
            except UnsupportedSequenceError:
                print(f"  [ -- ] {label}  (skipped)")
                continue
            widths = [case.interval.width for case in cases if case.interval is not None]
            report(label, all(case.ok for case in cases), f"max width {max(widths)}" if widths else "")

    top = min(n_max, PARTITION_CAP)
    print(f"enumeration: brute-force count vs exact routes (n <= {top})")
    report("restricted growth strings", all(row.ok for row in bell_oracle(top)))

    failures = verdicts.count(False)
    print(f"\n{failures} failure(s) in {time.perf_counter() - t0:.2f}s")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    depth_help = f"sweep depth (default 8); cigl-dobinski and the partition count stop at min(n-max, {PARTITION_CAP})"
    parser.add_argument("--n-max", type=int, default=8, help=depth_help)
    args = parser.parse_args()
    if args.n_max < 0:
        parser.error("--n-max must be non-negative")
    try:
        summation_cap()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return run(args.n_max)
    except UmbralDobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
