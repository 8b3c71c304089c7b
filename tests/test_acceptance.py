"""Acceptance gate: one check per contract criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; each test also asserts, so the suite stays red until every
criterion holds within its runtime budget.
"""

import json
import time
from fractions import Fraction

from helpers import invoke

from umbraldob.cigl import cigl_q_bell, cigl_q_dobinski_exact, enumerate_partitions
from umbraldob.dobinski import (
    PsiPoissonDistribution,
    dobinski_bell,
    rota_bell_exact,
    verify_falling_moment,
    verify_pmf_via_generating_function,
)
from umbraldob.exact_core import Poly
from umbraldob.operator_calc import (
    dobinski_specialization,
    exponential_polynomial,
    verify_conjugation,
)
from umbraldob.umbral_engine import (
    PsiSequence,
    bell_via_sum,
    carlitz_q_stirling,
    psi_stirling_diagnostic,
    q_number_symbolic,
    stirling2,
)

CLASSICAL = PsiSequence.classical()
FIB = PsiSequence.fibonacci()
GAUSS_SEQS = [PsiSequence.gauss_q(q) for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 2))]
ALL_SEQS = [CLASSICAL, *GAUSS_SEQS, FIB]


def _gate(index: int, label: str, budget, body) -> None:
    t0 = time.perf_counter()
    try:
        ok = bool(body())
        err = None
    except Exception as exc:  # count a crash as a failed criterion, then surface it
        ok, err = False, exc
    elapsed = time.perf_counter() - t0
    within = budget is None or elapsed <= budget
    verdict = "PASS" if ok and within else "FAIL"
    print(f"ACCEPTANCE {index} {label}: {verdict} ({elapsed:.2f}s)", flush=True)
    if err is not None:
        raise AssertionError(f"criterion {index} raised: {err!r}") from err
    assert ok, f"criterion {index} ({label}) failed"
    assert within, f"criterion {index} ({label}) took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_four_route_bell_agreement():
    def body():
        for n in range(13):
            count = sum(1 for _ in enumerate_partitions(n))
            rota = rota_bell_exact(n)
            if count != rota or dobinski_specialization(n) != rota:
                return False
            if not dobinski_bell(CLASSICAL, n).contains(rota):
                return False
        return rota_bell_exact(12) == 4213597

    _gate(1, "four-route Bell agreement n<=12", 60, body)


def test_criterion_2_carlitz_recursion_and_reduction():
    def body():
        table = carlitz_q_stirling(11)
        for n in range(11):
            for k in range(1, n + 2):
                left = table.entry(n, k - 1) if k - 1 <= n else Poly(())
                right = table.entry(n, k) if k <= n else Poly(())
                want = Poly.monomial(1, k - 1) * left + q_number_symbolic(k) * right
                if table.entry(n + 1, k) != want:
                    return False
        return all(
            table.entry(n, k).evaluate(Fraction(1)) == stirling2(n, k)
            for n in range(11)
            for k in range(n + 1)
        )

    _gate(2, "Carlitz recursion + q=1 reduction n<=10", 5, body)


def test_criterion_3_falling_moment_and_q_dobinski():
    def body():
        for seq in ALL_SEQS:
            for n in range(11):
                if not verify_falling_moment(seq, n).contains(1):
                    return False
        table = carlitz_q_stirling(8)
        for seq in GAUSS_SEQS:
            for n in range(9):
                expected = bell_via_sum(table, n).evaluate(seq.q)
                if not dobinski_bell(seq, n).contains(expected):
                    return False
        return True

    _gate(3, "falling moments contain 1 + q-Dobinski vs Carlitz", 30, body)


def test_criterion_4_cigl_dobinski():
    def body():
        for n in range(13):
            if cigl_q_dobinski_exact(n) != cigl_q_bell(n):
                return False
        for n in range(1, 13):
            b = cigl_q_bell(n)
            top = n * (n - 1) // 2
            if b.degree != top or b.coefficient(top) != 1:
                return False
        return True

    _gate(4, "cigl q-Dobinski exact polynomial identity n<=12", 120, body)


def test_criterion_5_distribution_checks():
    def body():
        for seq in ALL_SEQS:
            dist = PsiPoissonDistribution.create(seq, 1)
            bounds = [dist.pmf(k) for k in range(31)]
            lo = sum(b[0] for b in bounds)
            hi = sum(b[1] for b in bounds)
            if not lo <= 1 <= hi:
                return False
        for seq in (CLASSICAL, PsiSequence.gauss_q(Fraction(1, 2))):
            for n in range(7):
                check = verify_pmf_via_generating_function(seq, 1, n, order=n + 6)
                if not (check.coefficient_ok and check.mean_ok):
                    return False
        return True

    _gate(5, "pmf mass brackets 1 + generating-function verdicts", 10, body)


def test_criterion_6_operator_route():
    def body():
        for n in range(16):
            p = exponential_polynomial(n)
            if any(p.coefficient(k) != stirling2(n, k) for k in range(n + 1)):
                return False
        return verify_conjugation(20)

    _gate(6, "operator coefficients are Stirling numbers + conjugation", 1, body)


def test_criterion_7_diagnostic_honesty():
    def body():
        for seq in (CLASSICAL, *GAUSS_SEQS):
            for n in range(9):
                _, residuals = psi_stirling_diagnostic(seq, n, 16)
                if any(r != 0 for r in residuals):
                    return False
        _, residuals = psi_stirling_diagnostic(FIB, 2, 3)
        return residuals == [2]

    _gate(7, "expansion diagnostic: zero residuals vs Fibonacci witness", 1, body)


def test_criterion_8_cli_contract():
    def round_trips(args) -> bool:
        result = invoke(*args)
        if result.exit_code != 0:
            return False
        again = json.dumps(json.loads(result.output), indent=2, sort_keys=False, ensure_ascii=False)
        return again + "\n" == result.output

    MALFORMED = [
        ["table", "--kind", "nope", "--n", "3"],
        ["table", "--kind", "bell", "--n", "-1"],
        ["table", "--kind", "cigl-q-bell", "--n", "20"],
        ["verify", "--identity", "dobinski", "--seq", "fibonacci"],
        ["verify", "--identity", "falling-moment", "--seq", "q=0"],
        ["verify", "--identity", "falling-moment", "--seq", "bogus"],
        ["dist", "--lambda", "0"],
        ["dist", "--seq", "q=1/2", "--lambda", "2"],
        ["oracle", "--n", "14"],
    ]

    def body():
        ok = all(
            round_trips(args)
            for args in (
                ["table", "--kind", "q-bell", "--n", "4", "--format", "json"],
                ["verify", "--identity", "q1-reduction", "--n-max", "3", "--format", "json"],
                ["dist", "--seq", "q=1/2", "--lambda", "1", "--k-max", "4", "--format", "json"],
                ["oracle", "--n", "4", "--format", "json"],
            )
        )
        ok = ok and all(invoke(*args).exit_code == 2 for args in MALFORMED)
        passing = invoke("verify", "--identity", "conjugation", "--n-max", "5")
        return ok and passing.exit_code == 0

    _gate(8, "CLI round-trip + exit statuses", None, body)
