"""Mutants of the kernels: each is a named monkeypatch, and the verdicts that claim to cover it must fail.

Each caught mutant carries a floor: the number of its verdicts that failed when the floor was set.
A change that raises a count raises the floor; one that lowers it fails here.  A mutant that no
verdict sees yet is a strict xfail with floor 1.
"""

from fractions import Fraction
from itertools import count
from math import comb

import pytest
from helpers import tower_definition_failures

from umbraldob import cigl, dobinski, identities, operator_calc, umbral_engine
from umbraldob.exact_core import CertifiedValue, Poly
from umbraldob.identities import RUNNERS, bell_oracle
from umbraldob.umbral_engine import (
    GAUSS_Q,
    PsiSequence,
    StirlingTable,
    q_poisson_moments,
    recurrence_table,
)

CLASSICAL = PsiSequence.classical()
REAL_MUL = Poly.__mul__
REAL_VALUE = PsiSequence.value
REAL_CERTIFIED_SUM = dobinski.certified_sum
REAL_PSI_EXP = dobinski.psi_exp
REAL_COUNTS = cigl.partition_counts
REAL_MOMENTS = dobinski.moments
REAL_CARLITZ = identities.carlitz_q_stirling
REAL_BELL = identities.bell_via_sum
REAL_RECURRENCE = recurrence_table


def operator_weight_m(p):
    """The number operator with weight m in place of m+1: coefficient m+1 is c[m] + m*c[m+1]."""
    c = p.coeffs + (0,)
    return Poly((0,) + tuple(c[m] + m * c[m + 1] for m in range(len(p.coeffs))))


def mul_drops_last_cross_product(self, other):
    """Poly times Poly without the product of the two leading coefficients."""
    if not isinstance(other, Poly) or not self.coeffs or not other.coeffs:
        return REAL_MUL(self, other)
    a, b = self.coeffs, other.coeffs
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if (i, j) != (len(a) - 1, len(b) - 1):
                out[i + j] = out[i + j] + x * y
    return Poly(out)


def psi_exp_scaled(factor):
    """exp_psi(lam) with both ends of its interval multiplied by factor."""

    def mutant(seq, lam):
        exp = REAL_PSI_EXP(seq, lam)
        return CertifiedValue(exp.lo * factor, exp.hi * factor)

    return mutant


def counts_plus_one(n):
    """Every partition count one too many."""
    return [count + 1 for count in REAL_COUNTS(n)]


def levels_open_block_off_top(n):
    """The walk's levels with a t-block string's t + 1 children holding t + 1 blocks t times and t once."""
    table = [bytes([t + 1]) * t + bytes([t]) for t in range(n)]
    level = bytes(1)
    for m in range(n):
        if m:
            level = b"".join(b"".join(map(table.__getitem__, level[i:i + 128])) for i in range(0, len(level), 128))
        yield level


def moments_falling_step_k_minus_n(seq, n_max, power):
    """The moment sweep with the falling step psi(k-n) in place of psi(k-n+1); entry (n, n-1) stays 0."""
    thr, normalizer = dobinski.default_ratio_threshold(seq, 1), dobinski.psi_exp(seq, 1)
    sums, row = [], []
    for n in range(n_max + 1):
        above, row = row, []

        def entry(k):
            if k < len(above):
                v = above[k] and above[k] * (seq.value(k) if power else k >= n and seq.value(k - n))
            else:
                v = (seq.value(k) ** n if power else seq.falling(k, n)) / seq.factorial(k)
            row.append(v)
            return v

        sums.append(dobinski.certified_sum(entry, thr).div_by_positive(normalizer))
    return sums


def moments_falling_at_n_plus_one(seq, n_max, power):
    """The moment sweep with falling row n read at n+1."""
    return REAL_MOMENTS(seq, n_max + (not power), power)[not power:]


def moments_drop_last_row(seq, n_max, power):
    """The moment sweep with its last row left out, so a runner returns one case fewer."""
    return REAL_MOMENTS(seq, n_max, power)[:-1]


def carlitz_left_weight_q_k(n_max, q=None):
    """The Carlitz tower with left weight q**k in place of q**(k-1), from the same running products in the ring of q."""
    x = Poly((0, 1)) if q is None else q
    powers, brackets = [x * 0 + 1], [x * 0]
    for _ in range(n_max):
        powers.append(powers[-1] * x)
        brackets.append(brackets[-1] + powers[-2])
    return recurrence_table(n_max, lambda n, k: powers[k], lambda n, k: brackets[k], powers[0])


def carlitz_row_6_swapped(n_max, q=None):
    """The Carlitz tower with entries 2 and 3 of row 6 swapped."""
    rows = REAL_CARLITZ(n_max, q).rows
    if n_max >= 6:
        rows = (*rows[:6], (*rows[6][:2], rows[6][3], rows[6][2], *rows[6][4:]), *rows[7:])
    return StirlingTable(rows)


def cigl_right_weight_q_n_plus_one(n_max):
    """The zero-block tower with right weight q**(n+1) + k - 1 in place of q**n + k - 1."""
    return recurrence_table(n_max, lambda n, k: 1, lambda n, k: Poly.monomial(1, n + 1) + (k - 1), Poly((1,)))


def cigl_right_weight_q_n_minus_one(n_max):
    """The zero-block tower with right weight q**max(n-1, 0) + k - 1 in place of q**n + k - 1: right at q = 1."""
    return recurrence_table(n_max, lambda n, k: 1, lambda n, k: Poly.monomial(1, max(n - 1, 0)) + (k - 1), Poly((1,)))


def bell_reference_scaled(factor):
    """The Dobinski runner's reference row sums multiplied by factor."""

    def mutant(table, n):
        return REAL_BELL(table, n) * factor

    return mutant


def q_poisson_moments_q_j_plus_one(q, lam, n_max):
    """The q-Poisson moment recurrence with q**(j+1) in place of q**j: right at q = 1."""
    moments = [1]
    for n in range(n_max):
        moments.append(lam * sum(comb(n, j) * q ** (j + 1) * moments[j] for j in range(n + 1)))
    return moments


def jackson_bracket_q_plus_q(coefficients, q):
    """The q-difference with [n]_q carried as q*[n-1]_q + q in place of 1 + q*[n-1]_q for n >= 2."""
    q = Fraction(q)
    coeffs, bracket = [], Fraction(0)
    for c in coefficients[1:]:
        bracket = q * bracket + q if bracket else Fraction(1)
        coeffs.append(c * bracket)
    return tuple(coeffs)


def cigl_powers_shift_q_i_plus_one():
    """The walk of shifted q-power products with factors x + q**(i+1) - 1 in place of x + q**i - 1: a shift by i + 1."""
    out = (Poly((1,)),)
    for i in count():
        yield out
        out = tuple(a + Poly((0,) * (i + 1) + b.coeffs) - b for a, b in zip((Poly(), *out), (*out, Poly())))


def moment_reads_b4_for_x3(coeffs):
    """The exact moment functional with the Bell number B(4) substituted for x**3."""
    bell, acc = q_poisson_moments(1, 1, max(len(coeffs) - 1, 4)), Fraction(0)
    for m, c in enumerate(coeffs):
        acc = acc + c * bell[4 if m == 3 else m]
    return acc


def monomial_as_bracket(cls, c, k):
    """Poly.monomial reading q**k as the bracket [k+1]_q = 1 + q + ... + q**k, times c."""
    return cls((c,) * (k + 1))


def certified_sum_upper_at_quarter(term, ratio_threshold):
    """certified_sum with its upper end moved to lo + width/4."""
    sum_ = REAL_CERTIFIED_SUM(term, ratio_threshold)
    return CertifiedValue(sum_.lo, sum_.lo + sum_.width / 4)


def classical_right_weight_k_plus_one_at_4_2(n_max, q=None):
    """The Carlitz tower at the int 1, the classical triangle, with right weight k+1 in place of k at (n, k) = (4, 2)."""
    if type(q) is not int:
        return REAL_CARLITZ(n_max, q)
    return recurrence_table(n_max, lambda n, k: 1, lambda n, k: k + ((n, k) == (4, 2)), 1)


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


MUTANTS = [
    pytest.param(
        [(operator_calc, "apply_number_operator", operator_weight_m)],
        conjugation_and_oracle,
        8,
        id="operator-weight-m",
    ),
    pytest.param(
        [(Poly, "__mul__", mul_drops_last_cross_product), (Poly, "__rmul__", mul_drops_last_cross_product)],
        polynomial_towers,
        19,
        id="poly-mul-drops-last-cross-product",
    ),
    pytest.param(
        [(Poly, "monomial", classmethod(monomial_as_bracket))],
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
    pytest.param(
        [(dobinski, "moments", moments_falling_step_k_minus_n)], series_verdicts, 24, id="falling-step-psi-k-n"
    ),
    pytest.param(
        [(dobinski, "moments", moments_falling_at_n_plus_one)],
        series_verdicts,
        1,
        id="falling-row-read-at-n+1",
        marks=pytest.mark.xfail(strict=True, reason="every falling moment is 1 at lam = 1: killed by ROADMAP item 2"),
    ),
    pytest.param(
        [(dobinski, "moments", moments_drop_last_row)],
        series_verdicts,
        1,
        id="moment-sweep-drops-last-row",
        marks=pytest.mark.xfail(
            strict=True, reason="no verdict checks one case per n: killed by the case-count check of ROADMAP item 20"
        ),
    ),
    pytest.param(
        [(identities, "carlitz_q_stirling", carlitz_left_weight_q_k)], series_verdicts, 36, id="carlitz-left-q^k"
    ),
    pytest.param(
        [(identities, "carlitz_q_stirling", carlitz_row_6_swapped)], polynomial_towers, 1, id="carlitz-row-6-swapped"
    ),
    pytest.param(
        [(cigl, "cigl_q_stirling_table", cigl_right_weight_q_n_plus_one)],
        polynomial_towers,
        10,
        id="cigl-right-q^(n+1)",
    ),
    pytest.param(
        [(cigl, "cigl_q_stirling_table", cigl_right_weight_q_n_minus_one)],
        polynomial_towers,
        9,
        id="cigl-right-q^(n-1)",
    ),
    *(
        pytest.param(
            [(identities, "bell_via_sum", bell_reference_scaled(1 + sign * Fraction(1, 2**40)))],
            series_verdicts,
            52,
            id=f"dobinski-reference-times-1{'+-'[sign < 0]}2^-40",
        )
        for sign in (1, -1)
    ),
    pytest.param(
        [(identities, "q_poisson_moments", q_poisson_moments_q_j_plus_one)],
        series_verdicts,
        36,
        id="recurrence-q^(j+1)",
    ),
    pytest.param([(cigl, "partition_counts", counts_plus_one)], oracle, 9, id="partition-counts-plus-one"),
    pytest.param([(cigl, "_levels", levels_open_block_off_top)], oracle, 7, id="walk-last-not-top"),
    pytest.param(
        [(dobinski, "jackson_derivative", jackson_bracket_q_plus_q)], pmf_gf_verdicts, 33, id="jackson-bracket-q+q"
    ),
    pytest.param(
        [(cigl, "cigl_q_powers", cigl_powers_shift_q_i_plus_one)], polynomial_towers, 10, id="cigl-power-q^(i+1)"
    ),
    pytest.param(
        [(identities, "poisson_moment_exact", moment_reads_b4_for_x3)], polynomial_towers, 8, id="moment-b4-for-x^3"
    ),
    pytest.param(
        [(dobinski, "certified_sum", certified_sum_upper_at_quarter)],
        series_and_oracle,
        20,
        id="sum-upper-at-quarter",
    ),
    pytest.param(
        [(identities, "carlitz_q_stirling", classical_right_weight_k_plus_one_at_4_2)],
        series_and_oracle,
        12,
        id="classical-right-k+1-at-4-2",
    ),
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
    for owner, name, mutant in patches:
        monkeypatch.setattr(owner, name, mutant)
    assert verdicts().count(False) >= floor


@pytest.mark.parametrize(
    "kind, tower, failing_rows",
    [
        pytest.param("cigl-q-stirling", cigl_right_weight_q_n_plus_one, list(range(1, 11)), id="cigl-right-q^(n+1)"),
        pytest.param("cigl-q-stirling", cigl_right_weight_q_n_minus_one, list(range(2, 11)), id="cigl-right-q^(n-1)"),
        pytest.param("q-stirling", carlitz_left_weight_q_k, list(range(1, 11)), id="carlitz-left-q^k"),
        pytest.param("q-stirling", carlitz_row_6_swapped, [6], id="carlitz-row-6-swapped"),
        pytest.param(
            "stirling",
            lambda n_max: classical_right_weight_k_plus_one_at_4_2(n_max, 1),
            list(range(5, 11)),
            id="classical-right-k+1-at-4-2",
        ),
    ],
)
def test_mutant_tower_fails_its_defining_expansion(kind, tower, failing_rows):
    rows = [[list(entry.coeffs) if isinstance(entry, Poly) else entry for entry in row] for row in tower(10).rows]
    assert tower_definition_failures(kind, rows) == failing_rows
