"""Registry of the identity suites behind ``umbraldob verify`` and the sweep script.

Each runner takes a psi-sequence and a depth n_max and returns one Case per
checked instance; its RUNNERS key names the identity.  RUNNERS requires the
cases of each runner but conjugation, whose one case reaches degree n_max, to
carry n = 0..n_max in order: a case out of place fails, and each n left out is
a failed case.  A runner whose verdicts
depend on the sequence puts its label under "seq" in every case, and one whose
identity has no reference route for the sequence kind raises
UnsupportedSequenceError before running any route.
bell_oracle compares the Bell numbers along every independent route for
``umbraldob oracle`` and the sweep script's enumeration line.
"""

from fractions import Fraction
from itertools import zip_longest
from typing import Callable, NamedTuple

# Each runner imports the cigl, dobinski or operator_calc routes it runs in its body, so verify loads only those.
from .errors import NonConvergentError, UnsupportedSequenceError
from .exact_core import CertifiedValue, Poly
from .umbral_engine import (
    PsiSequence,
    bell_via_sum,
    carlitz_q_stirling,
    poisson_moment_exact,
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
    from .dobinski import moments
    return _series_cases(seq, moments(seq, n_max, power=False), [1] * (n_max + 1))


def dobinski(seq: PsiSequence, n_max: int) -> list[Case]:
    from .dobinski import moments
    q = seq.bracket_q
    if q is None:
        _, (residual,) = psi_stirling_diagnostic(seq, 2, 3)
        raise UnsupportedSequenceError(
            "identity dobinski needs an exact reference value: use classical or q=<rational>"
            f" ({seq.label} has no constant-coefficient psi-Stirling expansion: fitted at n = 2,"
            f" it leaves residual {residual} at psi index 3)"
        )
    table = carlitz_q_stirling(n_max, q)  # ints for classical, whose q is the int 1
    expected = [bell_via_sum(table, n) for n in range(n_max + 1)]
    cases = _series_cases(seq, moments(seq, n_max, power=True), expected)
    recurrence = q_poisson_moments(q, 1, n_max)
    return [case._replace(ok=case.ok and row_sum == m) for case, row_sum, m in zip(cases, expected, recurrence)]


def cigl_dobinski(seq: PsiSequence, n_max: int) -> list[Case]:
    from .cigl import cigl_q_powers, cigl_q_stirling_table
    table = cigl_q_stirling_table(n_max)
    products = zip(range(n_max + 1), cigl_q_powers())  # range first, so the walk takes n_max steps
    return [Case({"n": n}, poisson_moment_exact(product) == bell_via_sum(table, n)) for n, product in products]


def conjugation(seq: PsiSequence, n_max: int) -> list[Case]:
    from .operator_calc import verify_conjugation
    return [Case({"max_degree": n_max}, verify_conjugation(n_max))]


def pmf_gf(seq: PsiSequence, n_max: int) -> list[Case]:
    from .dobinski import generating_function_checks, generating_function_mean_ok
    if seq.bracket_q is None:
        raise UnsupportedSequenceError("identity pmf-gf needs a classical or q=<rational> sequence")
    # At lam = 1 every q-difference of e_q(t) is e_q(t) again, so a chain read after the wrong
    # number of steps would still pass; the chain is checked at lam = 2, the mean at lam = 1.
    # The ratio lemma gives every supported sequence a truncation point at lam = 1, so a mean that
    # finds none has met a kernel fault: a failed verdict, not unusable input.
    try:
        mean_ok = generating_function_mean_ok(seq)
    except NonConvergentError:
        mean_ok = False
    return [
        Case({"seq": seq.label, "n": n}, coefficient_ok and mean_ok)
        for n, coefficient_ok in enumerate(generating_function_checks(seq, 2, n_max))
    ]


def q1_reduction(seq: PsiSequence, n_max: int) -> list[Case]:
    from .operator_calc import apply_number_operator
    operator, cases = Poly((1,)), []
    for n, row in enumerate(carlitz_q_stirling(n_max).rows):
        cases.append(Case({"n": n}, [entry.evaluate(Fraction(1)) for entry in row] == list(operator.coeffs)))
        operator = apply_number_operator(operator)
    return cases


Runner = Callable[[PsiSequence, int], list[Case]]


def _one_case_per_n(runner: Runner) -> Runner:
    """runner, whose cases must carry n = 0..n_max in order: a case out of place fails, and so does each n left out."""

    def checked(seq: PsiSequence, n_max: int) -> list[Case]:
        cases = runner(seq, n_max)
        label = {"seq": seq.label} if any("seq" in case.params for case in cases) else {}
        return [  # n is None for a case past n_max, and case None for an n past the last case
            Case({**label, "n": n}, False) if case is None
            else case._replace(ok=case.ok and n is not None and case.params.get("n") == n)
            for n, case in zip_longest(range(n_max + 1), cases)
        ]

    return checked


RUNNERS: dict[str, Runner] = {
    "falling-moment": _one_case_per_n(falling_moment),
    "dobinski": _one_case_per_n(dobinski),
    "cigl-dobinski": _one_case_per_n(cigl_dobinski),
    "conjugation": conjugation,
    "pmf-gf": _one_case_per_n(pmf_gf),
    "q1-reduction": _one_case_per_n(q1_reduction),
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
    the series interval contains it.  The counts, the table and the series (one
    moment sweep to n_max) are built once for all n; the operator runs afresh for each n.
    Like a runner's cases, the rows must carry n = 0..n_max: a count list or sweep
    of any other length cannot be matched to its n, and every row fails.
    """
    from .cigl import partition_counts
    from .dobinski import moments
    from .operator_calc import dobinski_specialization
    counts, table = partition_counts(n_max), carlitz_q_stirling(n_max, 1)
    intervals = moments(PsiSequence.classical(), n_max, power=True)
    complete, rows = len(counts) == len(intervals) == n_max + 1, []
    for n, (count, series) in enumerate(zip(counts, intervals)):
        rota, operator = bell_via_sum(table, n), dobinski_specialization(n)
        ok = complete and count == rota == operator and series.contains(rota)
        rows.append(BellRoutes(n, count, rota, operator, series, ok))
    return rows
