"""Mutants of the kernels: each is a named monkeypatch, and the verdicts that claim to cover it must fail.

A mutant is either an Edit, text edits of the live definition it replaces, compiled when its test
runs, or a wrapper that calls the real function and changes what goes in or comes out.  Each
caught mutant carries a floor: the number of its verdicts that failed when the floor was set.
A change that raises a count raises the floor; one that lowers it fails here.  A mutant that no
verdict sees yet is a strict xfail with floor 1.
"""

import sys
from fractions import Fraction

import pytest
from helpers import edited_definition, tower_definition_failures

from umbraldob import cigl, dobinski, identities, operator_calc, umbral_engine
from umbraldob.exact_core import CertifiedValue, Poly
from umbraldob.identities import RUNNERS, bell_oracle
from umbraldob.umbral_engine import GAUSS_Q, PsiSequence, StirlingTable, recurrence_table

CLASSICAL = PsiSequence.classical()
REAL_VALUE = PsiSequence.value
REAL_CERTIFIED_SUM = dobinski.certified_sum
REAL_PSI_EXP = dobinski.psi_exp
REAL_COUNTS = cigl.partition_counts
REAL_MOMENTS = dobinski.moments
REAL_CARLITZ = identities.carlitz_q_stirling
REAL_BELL = identities.bell_via_sum
REAL_RECURRENCE = recurrence_table


class Edit(tuple):
    """(before, after) text edits of the definition that a patch replaces."""

    def __new__(cls, *edits):
        return super().__new__(cls, edits)


def apply(monkeypatch, patches):
    """Set each mutant in place of holder.name; an Edit is compiled here from the live definition it replaces."""
    for holder, name, mutant in patches:
        if isinstance(mutant, Edit):
            real = vars(holder)[name]
            real = getattr(real, "__func__", real)  # a classmethod's function
            mutant = edited_definition(sys.modules[real.__module__], real.__qualname__, *mutant)
        monkeypatch.setattr(holder, name, mutant)


def psi_exp_scaled(factor):
    """exp_psi(lam) with both ends of its interval multiplied by factor."""

    def mutant(seq, lam):
        exp = REAL_PSI_EXP(seq, lam)
        return CertifiedValue(exp.lo * factor, exp.hi * factor)

    return mutant


def counts_plus_one(n):
    """Every partition count one too many."""
    return [count + 1 for count in REAL_COUNTS(n)]


def moments_falling_at_n_plus_one(seq, n_max, power):
    """The moment sweep with falling row n read at n+1."""
    return REAL_MOMENTS(seq, n_max + (not power), power)[not power:]


def moments_drop_last_row(seq, n_max, power):
    """The moment sweep with its last row left out, so a runner returns one case fewer."""
    return REAL_MOMENTS(seq, n_max, power)[:-1]


def carlitz_row_6_swapped(n_max, q=None):
    """The Carlitz tower with entries 2 and 3 of row 6 swapped."""
    rows = REAL_CARLITZ(n_max, q).rows
    if n_max >= 6:
        rows = (*rows[:6], (*rows[6][:2], rows[6][3], rows[6][2], *rows[6][4:]), *rows[7:])
    return StirlingTable(rows)


def bell_reference_scaled(factor):
    """The Dobinski runner's reference row sums multiplied by factor."""

    def mutant(table, n):
        return REAL_BELL(table, n) * factor

    return mutant


def certified_sum_upper_at_quarter(term, ratio_threshold):
    """certified_sum with its upper end moved to lo + width/4."""
    sum_ = REAL_CERTIFIED_SUM(term, ratio_threshold)
    return CertifiedValue(sum_.lo, sum_.lo + sum_.width / 4)


def recurrence_right_at_k_plus_one(n_max, left, right, seed):
    """The three-term recurrence with the right weight read at k+1 for k <= n, so T(n+1, 0) = right(n, 1) * T(n, 0)."""
    return REAL_RECURRENCE(n_max, left, lambda n, k: right(n, k + (k <= n)), seed)


def gauss_psi_5_nudged(self, n):
    """psi(5) + 2**-20 for a Gauss sequence."""
    return REAL_VALUE(self, n) + (Fraction(1, 2**20) if self.kind == GAUSS_Q and n == 5 else 0)


def factorial_n_squared_plus_7_thirds(self, n):
    """The psi-factorial read as (n**2 + 7)/3."""
    return Fraction(n * n + 7, 3)


def series_seqs():
    """Fresh sequences, so that a patched psi is read from an empty prefix."""
    return [PsiSequence.classical(), *(PsiSequence.gauss_q(Fraction(q)) for q in ("1/4", "1/2", "3/2"))]


def series_verdicts():
    return [
        case.ok for name in ("falling-moment", "dobinski") for seq in series_seqs() for case in RUNNERS[name](seq, 12)
    ]


def pmf_gf_verdicts():
    return [case.ok for seq in series_seqs() for case in RUNNERS["pmf-gf"](seq, 12)]


def oracle():
    return [row.ok for row in bell_oracle(8)]


def conjugation_and_oracle():
    return [case.ok for case in RUNNERS["conjugation"](CLASSICAL, 20)] + oracle()


def polynomial_towers():
    return [case.ok for name in ("q1-reduction", "cigl-dobinski") for case in RUNNERS[name](CLASSICAL, 10)]


def series_and_oracle():
    return series_verdicts() + oracle()


def every_verdict():
    return series_verdicts() + pmf_gf_verdicts() + conjugation_and_oracle() + polynomial_towers()


CIGL_RIGHT_Q_N_PLUS_ONE = (cigl, "cigl_q_stirling_table", Edit(("monomial(1, n)", "monomial(1, n + 1)")))
# right at q = 1
CIGL_RIGHT_Q_N_MINUS_ONE = (cigl, "cigl_q_stirling_table", Edit(("monomial(1, n)", "monomial(1, max(n - 1, 0))")))
CARLITZ_LEFT_Q_K = (identities, "carlitz_q_stirling", Edit(("powers[k - 1]", "powers[k]")))
CARLITZ_ROW_6_SWAPPED = (identities, "carlitz_q_stirling", carlitz_row_6_swapped)
# the Carlitz tower at the int 1, the classical triangle, with right weight k+1 in place of k at (n, k) = (4, 2)
CLASSICAL_RIGHT_K_PLUS_ONE_AT_4_2 = (
    identities,
    "carlitz_q_stirling",
    Edit(("brackets[k],", "brackets[k] + (type(q) is int and (n, k) == (4, 2)),")),
)
# Poly times Poly without the product of the two leading coefficients
MUL_DROPS_LAST_CROSS_PRODUCT = Edit(("+ a * b", "+ a * b * ((i, j) != (len(self.coeffs) - 1, len(other.coeffs) - 1))"))

MUTANTS = [
    pytest.param(
        [(operator_calc, "apply_number_operator", Edit(("(m + 1) * c[m + 1]", "m * c[m + 1]")))],
        conjugation_and_oracle,
        8,
        id="operator-weight-m",
    ),
    pytest.param(
        [(Poly, "__mul__", MUL_DROPS_LAST_CROSS_PRODUCT), (Poly, "__rmul__", MUL_DROPS_LAST_CROSS_PRODUCT)],
        polynomial_towers,
        19,
        id="poly-mul-drops-last-cross-product",
    ),
    pytest.param(
        [(Poly, "monomial", Edit(("cls((0,) * k + (c,))", "cls((c,) * (k + 1))")))],  # c * [k+1]_q
        polynomial_towers,
        9,
        id="monomial-q^k-as-bracket",
    ),
    *(
        pytest.param(
            [(dobinski, "psi_exp", psi_exp_scaled(1 + sign * Fraction(1, 2**40)))],
            series_verdicts,
            1,
            id=f"psi-exp-times-1{'+-'[sign < 0]}2^-40",
            marks=pytest.mark.xfail(
                strict=True, reason="the intervals are too wide to see it: killed by ROADMAP items 1 and 6"
            ),
        )
        for sign in (1, -1)
    ),
    pytest.param(  # entry (n, n-1) reads psi(0) = 0
        [(dobinski, "moments", Edit(("k - n + 1", "max(k - n, 0)")))], series_verdicts, 24, id="falling-step-psi-k-n"
    ),
    pytest.param(
        [(dobinski, "moments", moments_falling_at_n_plus_one)],
        series_verdicts,
        1,
        id="falling-row-read-at-n+1",
        marks=pytest.mark.xfail(strict=True, reason="every falling moment is 1 at lam = 1: killed by ROADMAP item 2"),
    ),
    pytest.param([(dobinski, "moments", moments_drop_last_row)], series_verdicts, 8, id="moment-sweep-drops-last-row"),
    pytest.param([CARLITZ_LEFT_Q_K], series_verdicts, 36, id="carlitz-left-q^k"),
    pytest.param([CARLITZ_ROW_6_SWAPPED], polynomial_towers, 1, id="carlitz-row-6-swapped"),
    pytest.param([CIGL_RIGHT_Q_N_PLUS_ONE], polynomial_towers, 10, id="cigl-right-q^(n+1)"),
    pytest.param([CIGL_RIGHT_Q_N_MINUS_ONE], polynomial_towers, 9, id="cigl-right-q^(n-1)"),
    *(
        pytest.param(
            [(identities, "bell_via_sum", bell_reference_scaled(1 + sign * Fraction(1, 2**40)))],
            series_verdicts,
            52,
            id=f"dobinski-reference-times-1{'+-'[sign < 0]}2^-40",
        )
        for sign in (1, -1)
    ),
    pytest.param(  # right at q = 1
        [(identities, "q_poisson_moments", Edit(("q**n * moments[n]", "q ** (n + 1) * moments[n]")))],
        series_verdicts,
        36,
        id="recurrence-q^(j+1)",
    ),
    pytest.param([(cigl, "partition_counts", counts_plus_one)], oracle, 9, id="partition-counts-plus-one"),
    pytest.param(  # a t-block string's t + 1 children hold t + 1 blocks t times and t once
        [(cigl, "_levels", Edit(("bytes([t]) * t + bytes([t + 1])", "bytes([t + 1]) * t + bytes([t])")))],
        oracle,
        7,
        id="walk-last-not-top",
    ),
    pytest.param(  # [n]_q carried as q*[n-1]_q + q in place of 1 + q*[n-1]_q for n >= 2
        [(
            dobinski,
            "jackson_derivative",
            Edit(("bracket = 1 + q * bracket", "bracket = q * bracket + q if bracket else Fraction(1)")),
        )],
        pmf_gf_verdicts,
        33,
        id="jackson-bracket-q+q",
    ),
    pytest.param(  # factors x + q**(i+1) - 1 in place of x + q**i - 1
        [(cigl, "cigl_q_powers", Edit(("(0,) * i", "(0,) * (i + 1)")))], polynomial_towers, 10, id="cigl-power-q^(i+1)"
    ),
    pytest.param(  # the exact moment functional reads the Bell number B(4) for x**3
        [(
            identities,
            "poisson_moment_exact",
            Edit(
                ("max(len(coeffs) - 1, 0)", "max(len(coeffs) - 1, 4)"),
                ("zip(coeffs, bell)", "zip(coeffs, bell[:3] + bell[4:5] + bell[4:])"),
            ),
        )],
        polynomial_towers,
        8,
        id="moment-b4-for-x^3",
    ),
    pytest.param(
        [(dobinski, "certified_sum", certified_sum_upper_at_quarter)],
        series_and_oracle,
        20,
        id="sum-upper-at-quarter",
    ),
    pytest.param([CLASSICAL_RIGHT_K_PLUS_ONE_AT_4_2], series_and_oracle, 12, id="classical-right-k+1-at-4-2"),
    pytest.param(
        [(umbral_engine, "recurrence_table", recurrence_right_at_k_plus_one),
         (cigl, "recurrence_table", recurrence_right_at_k_plus_one)],
        polynomial_towers,
        20,
        id="recurrence-right-at-k+1",
    ),
    pytest.param([(PsiSequence, "value", gauss_psi_5_nudged)], every_verdict, 24, id="gauss-psi-5-plus-2^-20"),
    pytest.param(
        [(PsiSequence, "factorial", factorial_n_squared_plus_7_thirds)],
        pmf_gf_verdicts,
        52,
        id="psi-factorial-(n^2+7)/3",
    ),
]


@pytest.mark.parametrize("patches, verdicts, floor", MUTANTS)
def test_mutant_fails_a_verdict(monkeypatch, patches, verdicts, floor):
    assert all(verdicts())  # every verdict passes on the real kernel
    apply(monkeypatch, patches)
    assert verdicts().count(False) >= floor


TOWERS = {  # each kind's tower at n_max = 10, read from the holder that a patch replaces
    "cigl-q-stirling": lambda: cigl.cigl_q_stirling_table(10),
    "q-stirling": lambda: identities.carlitz_q_stirling(10),
    "stirling": lambda: identities.carlitz_q_stirling(10, 1),
}


@pytest.mark.parametrize(
    "kind, patch, failing_rows",
    [
        pytest.param("cigl-q-stirling", CIGL_RIGHT_Q_N_PLUS_ONE, list(range(1, 11)), id="cigl-right-q^(n+1)"),
        pytest.param("cigl-q-stirling", CIGL_RIGHT_Q_N_MINUS_ONE, list(range(2, 11)), id="cigl-right-q^(n-1)"),
        pytest.param("q-stirling", CARLITZ_LEFT_Q_K, list(range(1, 11)), id="carlitz-left-q^k"),
        pytest.param("q-stirling", CARLITZ_ROW_6_SWAPPED, [6], id="carlitz-row-6-swapped"),
        pytest.param(
            "stirling", CLASSICAL_RIGHT_K_PLUS_ONE_AT_4_2, list(range(5, 11)), id="classical-right-k+1-at-4-2"
        ),
    ],
)
def test_mutant_tower_fails_its_defining_expansion(monkeypatch, kind, patch, failing_rows):
    apply(monkeypatch, [patch])
    rows = [[list(entry.coeffs) if isinstance(entry, Poly) else entry for entry in row] for row in TOWERS[kind]().rows]
    assert tower_definition_failures(kind, rows) == failing_rows


@pytest.mark.parametrize("before, places", [("c[m - 1]", 0), ("p.coeffs", 2)])
def test_an_edit_must_match_its_definition_once(before, places):
    with pytest.raises(ValueError) as refused:
        edited_definition(operator_calc, "apply_number_operator", (before, "c"))
    assert str(refused.value) == f"apply_number_operator: {before!r} occurs {places} times, not once"
