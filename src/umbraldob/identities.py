"""Registry of the identity suites behind ``umbraldob verify`` and the sweep script.

Each runner takes a psi-sequence and a depth n_max and returns one Case per
checked instance; its RUNNERS key names the identity.  A runner whose verdicts
depend on the sequence puts its label under "seq" in every case, and one whose
identity has no reference route for the sequence kind raises
UnsupportedSequenceError before running any route.
bell_oracle compares the Bell numbers along every independent route for
``umbraldob oracle`` and the sweep script's enumeration line.
"""

from fractions import Fraction
from typing import Callable, NamedTuple

# Each runner imports the cigl, dobinski or operator_calc routes it runs in its body, so verify loads only those.
from .errors import NonConvergentError, UnsupportedSequenceError
from .exact_core import CertifiedValue
from .umbral_engine import (
    PsiSequence,
    bell_via_sum,
    carlitz_q_stirling,
    classical_stirling_table,
    psi_stirling_diagnostic,
    q_poisson_moments,
)


class Case(NamedTuple):
    """One verdict: record parameters, pass or fail, and its certified interval if any."""

    params: dict
    ok: bool
    interval: CertifiedValue | None = None


def _series_cases(seq: PsiSequence, intervals: list[CertifiedValue], expected) -> list[Case]:
    return [
        Case({"seq": seq.label, "n": n}, interval.contains(expected[n]), interval)
        for n, interval in enumerate(intervals)
    ]


def falling_moment(seq: PsiSequence, n_max: int) -> list[Case]:
    from .dobinski import falling_moments
    return _series_cases(seq, falling_moments(seq, range(n_max + 1)), [1] * (n_max + 1))


def dobinski(seq: PsiSequence, n_max: int) -> list[Case]:
    from .dobinski import dobinski_bells
    q = seq.bracket_q
    if q is None:
        _, (residual,) = psi_stirling_diagnostic(seq, 2, 3)
        raise UnsupportedSequenceError(
            "identity dobinski needs an exact reference value: use classical or q=<rational>"
            f" ({seq.label} has no constant-coefficient psi-Stirling expansion: fitted at n = 2,"
            f" it leaves residual {residual} at psi index 3)"
        )
    table = classical_stirling_table(n_max) if q == 1 else carlitz_q_stirling(n_max, q)  # ints at q = 1
    expected = [bell_via_sum(table, n) for n in range(n_max + 1)]
    cases = _series_cases(seq, dobinski_bells(seq, range(n_max + 1)), expected)
    moments = q_poisson_moments(q, 1, n_max)
    return [case._replace(ok=case.ok and row_sum == moment) for case, row_sum, moment in zip(cases, expected, moments)]


def cigl_dobinski(seq: PsiSequence, n_max: int) -> list[Case]:
    from .cigl import cigl_q_dobinski_exact, cigl_q_stirling_table
    table = cigl_q_stirling_table(n_max)
    return [Case({"n": n}, cigl_q_dobinski_exact(n) == bell_via_sum(table, n)) for n in range(n_max + 1)]


def conjugation(seq: PsiSequence, n_max: int) -> list[Case]:
    from .operator_calc import verify_conjugation
    return [Case({"max_degree": n_max}, verify_conjugation(n_max))]


def pmf_gf(seq: PsiSequence, n_max: int) -> list[Case]:
    from .dobinski import generating_function_checks
    if seq.bracket_q is None:
        raise UnsupportedSequenceError("identity pmf-gf needs a classical or q=<rational> sequence")
    # At lam = 1 every q-difference of e_q(t) is e_q(t) again, so a chain read after the wrong
    # number of steps would still pass; the chain is checked at lam = 2, the mean at lam = 1.
    # The ratio lemma gives every supported sequence a truncation point at lam = 1, so a mean that
    # finds none has met a kernel fault: a failed verdict, not unusable input.
    try:
        mean_ok = generating_function_checks(seq, 1, 0)[0].mean_ok
    except NonConvergentError:
        mean_ok = False
    return [
        Case({"seq": seq.label, "n": n}, check.coefficient_ok and mean_ok)
        for n, check in enumerate(generating_function_checks(seq, 2, n_max))
    ]


def q1_reduction(seq: PsiSequence, n_max: int) -> list[Case]:
    carlitz, classical = carlitz_q_stirling(n_max), classical_stirling_table(n_max)
    return [
        Case({"n": n}, [entry.evaluate(Fraction(1)) for entry in carlitz.rows[n]] == list(classical.rows[n]))
        for n in range(n_max + 1)
    ]


RUNNERS: dict[str, Callable[[PsiSequence, int], list[Case]]] = {
    "falling-moment": falling_moment,
    "dobinski": dobinski,
    "cigl-dobinski": cigl_dobinski,
    "conjugation": conjugation,
    "pmf-gf": pmf_gf,
    "q1-reduction": q1_reduction,
}


class BellRoutes(NamedTuple):
    """B(n) along each route, and whether they all agree."""

    n: int
    enumeration: int
    rota: int
    operator: Fraction
    series: CertifiedValue
    ok: bool


def bell_oracle(n_max: int) -> list[BellRoutes]:
    """B(0..n_max) by partition enumeration, Stirling row sum, umbral operator and Dobinski series.

    A row passes when the count and the operator value equal the row sum and
    the series interval contains it.  The counts, the table and the series are
    built once for all n; the operator runs afresh from the constant 1 for each n.
    """
    from .cigl import partition_counts
    from .dobinski import dobinski_bells
    from .operator_calc import dobinski_specialization
    counts, table = partition_counts(n_max), classical_stirling_table(n_max)
    intervals = dobinski_bells(PsiSequence.classical(), range(n_max + 1))
    rows = []
    for n, (count, series) in enumerate(zip(counts, intervals)):
        rota, operator = bell_via_sum(table, n), dobinski_specialization(n)
        rows.append(BellRoutes(n, count, rota, operator, series, count == rota == operator and series.contains(rota)))
    return rows
