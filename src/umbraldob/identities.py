"""Registry of the identity suites behind ``umbraldob verify`` and the sweep script.

Each runner takes a psi-sequence and a depth n_max and returns one Case per
checked instance.  A runner whose identity has no reference route for the
sequence kind raises UnsupportedSequenceError before computing anything.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .cigl import cigl_q_bell, cigl_q_dobinski_exact
from .dobinski import dobinski_bell, rota_bell_exact, verify_falling_moment, verify_pmf_via_generating_function
from .errors import UnsupportedSequenceError
from .exact_core import CertifiedValue
from .operator_calc import verify_conjugation
from .umbral_engine import CLASSICAL, GAUSS_Q, PsiSequence, bell_via_sum, carlitz_q_stirling, stirling2


class Case(NamedTuple):
    """One verdict: record parameters, pass or fail, and its certified interval if any."""

    params: dict
    ok: bool
    interval: CertifiedValue | None = None


def _series_case(identity: str, seq: PsiSequence, n: int, interval: CertifiedValue, expected) -> Case:
    return Case({"identity": identity, "seq": seq.label, "n": n}, interval.contains(expected), interval)


def falling_moment(seq: PsiSequence, n_max: int) -> list[Case]:
    return [
        _series_case("falling-moment", seq, n, verify_falling_moment(seq, n), 1)
        for n in range(n_max + 1)
    ]


def dobinski(seq: PsiSequence, n_max: int) -> list[Case]:
    if seq.kind == GAUSS_Q:
        table = carlitz_q_stirling(n_max)
        expected = [bell_via_sum(table, n).evaluate(seq.q) for n in range(n_max + 1)]
    elif seq.kind == CLASSICAL:
        expected = [Fraction(rota_bell_exact(n)) for n in range(n_max + 1)]
    else:
        raise UnsupportedSequenceError(
            "identity dobinski needs an exact reference value: use classical or q=<rational>"
        )
    return [
        _series_case("dobinski", seq, n, dobinski_bell(seq, n), expected[n])
        for n in range(n_max + 1)
    ]


def cigl_dobinski(seq: PsiSequence, n_max: int) -> list[Case]:
    return [
        Case({"identity": "cigl-dobinski", "n": n}, cigl_q_dobinski_exact(n) == cigl_q_bell(n))
        for n in range(n_max + 1)
    ]


def conjugation(seq: PsiSequence, n_max: int) -> list[Case]:
    return [Case({"identity": "conjugation", "max_degree": n_max}, verify_conjugation(n_max))]


def pmf_gf(seq: PsiSequence, n_max: int) -> list[Case]:
    if seq.kind not in (CLASSICAL, GAUSS_Q):
        raise UnsupportedSequenceError("identity pmf-gf needs a classical or q=<rational> sequence")
    return [
        Case(
            {"identity": "pmf-gf", "seq": seq.label, "n": n},
            verify_pmf_via_generating_function(seq, 1, n, order=n_max + 4).passed,
        )
        for n in range(n_max + 1)
    ]


def q1_reduction(seq: PsiSequence, n_max: int) -> list[Case]:
    table = carlitz_q_stirling(n_max)
    return [
        Case(
            {"identity": "q1-reduction", "n": n},
            all(table.entry(n, k).evaluate(Fraction(1)) == stirling2(n, k) for k in range(n + 1)),
        )
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

# The identities whose verdicts depend on the sequence; the others ignore it.
PER_SEQUENCE = ("falling-moment", "dobinski", "pmf-gf")
