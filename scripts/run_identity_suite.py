#!/usr/bin/env python3
"""Sweep every identity across the built-in sequences and print a report.

This is the long-form companion to `umbraldob verify`: it runs every suite
in the identity registry in one go, the sequence-dependent ones once per
built-in sequence, and prints one verdict line per suite and sequence, with
the widest certified interval where the suite reads its verdicts from
intervals.  A sequence the suite has no reference route for is reported as
skipped.  Unless --skip-enumeration is given, it then counts the restricted
growth strings of every length up to min(n_max, PARTITION_CAP) in one
brute-force walk and checks each count against the exact Bell routes.
Exits nonzero if anything failed.

    python3 scripts/run_identity_suite.py --n-max 8
    python3 scripts/run_identity_suite.py --n-max 10 --skip-enumeration
"""

import argparse
import sys
import time
from fractions import Fraction

from umbraldob.cigl import PARTITION_CAP, partition_counts
from umbraldob.dobinski import rota_bell_exact
from umbraldob.errors import UnsupportedSequenceError
from umbraldob.exact_core import summation_cap
from umbraldob.identities import PER_SEQUENCE, RUNNERS
from umbraldob.operator_calc import dobinski_specialization
from umbraldob.umbral_engine import PsiSequence

SEQUENCES = [
    PsiSequence.classical(),
    PsiSequence.gauss_q(Fraction(1, 4)),
    PsiSequence.gauss_q(Fraction(1, 2)),
    PsiSequence.gauss_q(Fraction(3, 2)),
    PsiSequence.fibonacci(),
]


def run(n_max: int, skip_enumeration: bool) -> int:
    verdicts = []
    t0 = time.perf_counter()

    def report(label: str, ok: bool, detail: str = "") -> None:
        verdicts.append(ok)
        print(f"  [{'ok ' if ok else 'FAIL'}] {label}" + (f"  ({detail})" if detail else ""))

    for name, runner in RUNNERS.items():
        print(f"{name} (n <= {n_max})")
        per_sequence = name in PER_SEQUENCE
        for seq in SEQUENCES if per_sequence else SEQUENCES[:1]:
            label = seq.label if per_sequence else "any sequence"
            try:
                cases = runner(seq, n_max)
            except UnsupportedSequenceError:
                print(f"  [ -- ] {label}  (skipped)")
                continue
            widths = [case.interval.width for case in cases if case.interval is not None]
            report(label, all(case.ok for case in cases), f"max width {max(widths)}" if widths else "")

    if not skip_enumeration:
        top = min(n_max, PARTITION_CAP)
        print(f"enumeration: brute-force count vs exact routes (n <= {top})")
        counts = partition_counts(top)
        report(
            "restricted growth strings",
            all(counts[n] == rota_bell_exact(n) == dobinski_specialization(n) for n in range(top + 1)),
        )

    failures = verdicts.count(False)
    print(f"\n{failures} failure(s) in {time.perf_counter() - t0:.2f}s")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=8, help="sweep depth (default 8)")
    parser.add_argument(
        "--skip-enumeration",
        action="store_true",
        help="skip the brute-force partition count (one walk over every length up to min(n-max, 12))",
    )
    args = parser.parse_args()
    if args.n_max < 0:
        parser.error("--n-max must be non-negative")
    try:
        summation_cap()
    except ValueError as exc:
        parser.error(str(exc))
    return run(args.n_max, args.skip_enumeration)


if __name__ == "__main__":
    sys.exit(main())
