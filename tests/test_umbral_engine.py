"""Psi-sequences, the Stirling towers, and the expansion diagnostic."""

import pickle
import sys
import threading
from math import gcd, prod
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_bell, naive_stirling2, tower_definition_failures
from umbraldob.dobinski import dobinski_bell, rota_bell_exact
from umbraldob.exact_core import CertifiedValue, Poly
from umbraldob.umbral_engine import (
    PsiSequence,
    StirlingTable,
    bell_via_sum,
    carlitz_q_stirling,
    classical_stirling_table,
    psi_stirling_diagnostic,
    q_number_symbolic,
    q_poisson_moments,
    recurrence_table,
    stirling2,
)

CLASSICAL = PsiSequence.classical()
FIB = PsiSequence.fibonacci()
HALF = PsiSequence.gauss_q(Fraction(1, 2))

BUILTIN_SEQS = [
    CLASSICAL,
    FIB,
    HALF,
    PsiSequence.gauss_q(Fraction(1, 4)),
    PsiSequence.gauss_q(Fraction(3, 2)),
]


class TestPsiSequence:
    def test_values(self):
        assert CLASSICAL.value(5) == 5
        assert HALF.value(3) == Fraction(7, 4)
        assert FIB.value(6) == 8
        assert all(s.value(0) == 0 for s in BUILTIN_SEQS)

    def test_factorials(self):
        assert CLASSICAL.factorial(4) == 24
        assert FIB.factorial(5) == 30
        assert HALF.factorial(0) == 1
        assert HALF.factorial(2) == Fraction(3, 2)

    def test_falling(self):
        assert CLASSICAL.falling(5, 2) == 20
        assert FIB.falling(4, 2) == 6
        assert CLASSICAL.falling(2, 5) == 0

    @pytest.mark.parametrize("seq", BUILTIN_SEQS)
    def test_falling_zero_iff_overshoot(self, seq):
        for x in range(8):
            for k in range(10):
                val = seq.falling(x, k)
                assert (val == 0) == (k > x)

    def test_falling_agrees_with_factorial_ratio(self):
        for seq in BUILTIN_SEQS:
            for x in range(2, 9):
                for k in range(x + 1):
                    assert seq.falling(x, k) == seq.factorial(x) / seq.factorial(x - k)

    @pytest.mark.parametrize(
        "seq",
        BUILTIN_SEQS
        + [
            PsiSequence.gauss_q(Fraction(11, 16)),
            PsiSequence.gauss_q(Fraction(17, 16)),
        ],
        ids=lambda seq: seq.label,
    )
    def test_falling_is_the_reduced_product(self, seq):
        for x in range(41):
            for k in range(x + 2):
                naive = Fraction(1)
                for arg in range(x, x - k, -1):
                    naive *= seq.value(arg)
                got = seq.falling(x, k)
                assert got == naive
                assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1
                assert (got == 0) == (k == x + 1)

    @pytest.mark.parametrize(
        "seq",
        [
            CLASSICAL,
            FIB,
            *(PsiSequence.gauss_q(Fraction(q)) for q in ("1/16", "1/4", "1/2", "11/16", "1", "17/16", "3/2")),
        ],
        ids=lambda seq: seq.label,
    )
    def test_never_decreases(self, seq):
        # default_ratio_threshold's fail-fast scan rests on this: the ratios lam / psi(k) never rise
        values = [seq.value(k) for k in range(302)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "seq",
        [
            CLASSICAL,
            FIB,
            *(
                PsiSequence.gauss_q(Fraction(q))
                for q in ("1/16", "1/4", "1/2", "11/16", "15/16", "1", "17/16", "3/2", "3")
            ),
        ],
        ids=lambda seq: seq.label,
    )
    def test_log_concavity_defect(self, seq):
        # default_ratio_threshold's tail lemma: classical and Gauss psi are log-concave, Fibonacci by Cassini nearly
        for k in range(1, 301):
            defect = (-1) ** (k - 1) if seq == FIB else (seq.q or 1) ** (k - 1)
            assert seq.value(k) ** 2 - seq.value(k - 1) * seq.value(k + 1) == defect, k

    def test_admissibility_rejected(self):
        with pytest.raises(ValueError):
            PsiSequence.gauss_q(0)
        with pytest.raises(ValueError):
            PsiSequence.gauss_q(Fraction(-1, 2))

    def test_unknown_kind_rejected(self):
        for kind in ("lucas", "custom"):
            with pytest.raises(ValueError, match=f"unknown sequence kind '{kind}'"):
                PsiSequence(kind)

    @pytest.mark.parametrize(
        "kind, arguments",
        [
            ("classical", {"q": 2}),
            ("fibonacci", {"q": Fraction(1, 2)}),
        ],
    )
    def test_argument_its_kind_never_reads_rejected(self, kind, arguments):
        with pytest.raises(ValueError, match="only gauss-q sequences take q"):
            PsiSequence(kind, **arguments)

    def test_equal_and_hashed_by_kind_q_values(self):
        half = PsiSequence.gauss_q(Fraction(2, 4))
        half.factorial(12)  # the grown prefixes are not part of the value
        assert half == HALF and hash(half) == hash(HALF)
        assert half.q == Fraction(1, 2) and half.label == "q=1/2"
        assert repr(half) == "PsiSequence(kind='gauss-q', q=Fraction(1, 2))" and FIB.label == "fibonacci"
        for seq in (half, CLASSICAL, FIB):
            assert pickle.loads(pickle.dumps(seq)) == seq
        assert PsiSequence.gauss_q(1) != CLASSICAL  # same values, different kind
        assert len({CLASSICAL, PsiSequence.classical(), FIB, HALF, half}) == 3

    def test_immutable(self):
        seq = PsiSequence.gauss_q(Fraction(1, 3))
        for name, value in (("kind", "classical"), ("q", Fraction(1, 2)), ("label", "x")):
            with pytest.raises(AttributeError):
                setattr(seq, name, value)
        assert (seq.kind, seq.q, seq.label) == ("gauss-q", Fraction(1, 3), "q=1/3")

    def test_bracket_q(self):
        assert CLASSICAL.bracket_q == 1 and type(CLASSICAL.bracket_q) is int
        assert PsiSequence.gauss_q(Fraction(3, 2)).bracket_q == Fraction(3, 2)
        one = PsiSequence.gauss_q(1).bracket_q
        assert one == 1 and type(one) is Fraction
        assert FIB.bracket_q is None

    def test_gauss_q_one_matches_classical(self):
        one = PsiSequence.gauss_q(1)
        assert [one.value(n) for n in range(10)] == [CLASSICAL.value(n) for n in range(10)]

    def test_numeric_helpers(self):
        assert q_number_symbolic(3).evaluate(Fraction(1, 2)) == Fraction(7, 4)
        assert q_number_symbolic(0).evaluate(Fraction(2)) == 0


class TestQBracketSymbolic:
    def test_examples(self):
        assert q_number_symbolic(3) == Poly((1, 1, 1))
        assert q_number_symbolic(0) == Poly(())
        assert q_number_symbolic(1) == Poly((1,))

    @given(st.integers(min_value=0, max_value=30), st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8))
    @settings(max_examples=60)
    def test_matches_numeric(self, n, q):
        # the closed form (1 - q**n) / (1 - q), or n at q = 1, is a reference that shares no code
        assert q_number_symbolic(n).evaluate(q) == (n if q == 1 else (1 - q**n) / (1 - q))


class TestStirling2:
    def test_examples(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1
        assert stirling2(5, 9) == 0

    def test_against_enumeration_oracle(self):
        for n in range(9):
            for k in range(n + 2):
                assert stirling2(n, k) == naive_stirling2(n, k)


class TestIntegerTower:
    """The classical triangle stays on ints; the q-towers stay on polynomials."""

    @pytest.mark.parametrize("n_max", [0, 1, 7, 40])
    def test_entries_and_row_sums_are_ints(self, n_max):
        t = classical_stirling_table(n_max)
        for n in range(n_max + 1):
            assert all(type(t.entry(n, k)) is int for k in range(n + 1))
            assert type(bell_via_sum(t, n)) is int
            assert type(stirling2(n, n)) is int
            assert type(rota_bell_exact(n)) is int

    def test_q_tower_row_sum_at_zero_is_a_polynomial(self):
        total = bell_via_sum(carlitz_q_stirling(0), 0)
        assert type(total) is Poly and total.coeffs == (1,)


class TestCarlitzTable:
    def test_frozen_entries(self):
        t = carlitz_q_stirling(6)
        assert t.entry(2, 2) == Poly((0, 1))
        assert t.entry(3, 2) == Poly((0, 2, 1))
        for n in range(1, 7):
            assert t.entry(n, 1) == Poly((1,))
            assert t.entry(n, 0) == Poly(())
        assert t.entry(0, 0) == Poly((1,))

    def test_entries_have_nonnegative_integer_coefficients(self):
        t = carlitz_q_stirling(9)
        for n in range(10):
            for k in range(n + 1):
                for c in t.entry(n, k).coeffs:
                    f = Fraction(c)
                    assert f.denominator == 1 and f >= 0

    def test_recursion(self):
        # entry(n+1, k) = q**(k-1) * entry(n, k-1) + [k]_q * entry(n, k)
        t = carlitz_q_stirling(11)
        for n in range(11):
            for k in range(1, n + 2):
                prev_left = t.entry(n, k - 1) if k - 1 <= n else Poly(())
                prev_right = t.entry(n, k) if k <= n else Poly(())
                expected = Poly.monomial(1, k - 1) * prev_left + q_number_symbolic(k) * prev_right
                assert t.entry(n + 1, k) == expected

    def test_q1_reduction(self):
        t = carlitz_q_stirling(12)
        for n in range(13):
            for k in range(n + 1):
                assert t.entry(n, k).evaluate(Fraction(1)) == stirling2(n, k)

    def test_tower_at_q_is_the_polynomial_tower_evaluated_at_q(self):
        symbolic = carlitz_q_stirling(30)
        for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), Fraction(17, 16)):
            numeric = carlitz_q_stirling(30, q)
            assert all(type(entry) is Fraction for row in numeric.rows for entry in row), f"q = {q}"
            expected = tuple(tuple(entry.evaluate(q) for entry in row) for row in symbolic.rows)
            assert numeric.rows == expected, f"q = {q}"

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_tower_at_any_q_is_the_polynomial_tower_evaluated_there(self, a, b, n):
        q = Fraction(a, b)
        expected = tuple(tuple(entry.evaluate(q) for entry in row) for row in carlitz_q_stirling(n).rows)
        assert carlitz_q_stirling(n, q).rows == expected, f"q = {q}, n = {n}"

    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 2)], ids=str)
    def test_tower_at_q_meets_the_defining_expansion(self, q):
        assert tower_definition_failures("q-stirling", carlitz_q_stirling(20, q).rows, q) == []

    def test_row_out_of_range(self):
        t = carlitz_q_stirling(3)
        with pytest.raises(ValueError):
            t.entry(4, 0)
        with pytest.raises(ValueError):
            t.entry(2, 3)


class TestStirlingTable:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            StirlingTable(2, ((1,), (0, 1)))  # one row short
        with pytest.raises(ValueError):
            StirlingTable(0, ((1,), (0, 1)))  # one row too many
        with pytest.raises(ValueError):
            StirlingTable(1, ((1,), (0,)))  # a short row

    def test_value_type(self):
        t = StirlingTable(1, ((1,), (0, 1)))
        assert t == classical_stirling_table(1) and hash(t) == hash(classical_stirling_table(1))
        assert t != classical_stirling_table(2)
        with pytest.raises(AttributeError):
            t.n_max = 2
        assert pickle.loads(pickle.dumps(t)) == t


class TestBellViaSum:
    def test_classical(self):
        t = classical_stirling_table(6)
        assert bell_via_sum(t, 5) == naive_bell(5) == 52
        assert bell_via_sum(t, 0) == 1

    def test_row_out_of_range(self):
        t = classical_stirling_table(3)
        for n in (-1, 4):
            with pytest.raises(ValueError):
                bell_via_sum(t, n)

    def test_carlitz(self):
        t = carlitz_q_stirling(4)
        assert bell_via_sum(t, 3) == Poly((1, 2, 1, 1))

    def test_carlitz_reduces_to_bell_at_one(self):
        t = carlitz_q_stirling(9)
        for n in range(10):
            assert bell_via_sum(t, n).evaluate(Fraction(1)) == naive_bell(n)


class TestQPoissonMoments:
    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), 1], ids=str)
    @pytest.mark.parametrize("lam", [1, 2, Fraction(1, 3)], ids=str)
    def test_recurrence_is_the_touchard_polynomial_of_the_tower(self, q, lam):
        # M_n(lam) = sum_k S_q(n, k) * lam**k, read from the Carlitz tower at q and, at q = 1, the int triangle
        towers = [carlitz_q_stirling(20, q)] + ([classical_stirling_table(20)] if q == 1 else [])
        moments = q_poisson_moments(q, lam, 20)
        assert len(moments) == 21
        for tower in towers:
            assert [sum(entry * lam**k for k, entry in enumerate(row)) for row in tower.rows] == moments

    def test_classical_bell_numbers_are_ints(self):
        moments = q_poisson_moments(1, 1, 12)
        assert moments == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]  # OEIS A000110
        assert all(type(m) is int for m in moments)
        assert q_poisson_moments(Fraction(1, 2), 1, 0) == [1]


class TestDiagnostic:
    def test_classical_expansion_extends(self):
        coeffs, residuals = psi_stirling_diagnostic(CLASSICAL, 4, 12)
        assert residuals == [0] * 8
        assert coeffs == [Fraction(stirling2(4, k)) for k in range(5)]

    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), Fraction(2)])
    def test_gauss_expansion_extends(self, q):
        # The numeric solve of the defining expansion is an oracle independent
        # of the recurrence: its coefficients are the Carlitz entries at q.
        seq = PsiSequence.gauss_q(q)
        t = carlitz_q_stirling(10)
        for n in range(11):
            coeffs, residuals = psi_stirling_diagnostic(seq, n, n + 1)
            assert all(r == 0 for r in residuals)
            assert coeffs == [t.entry(n, k).evaluate(q) for k in range(n + 1)]

    def test_fibonacci_witness(self):
        coeffs, residuals = psi_stirling_diagnostic(FIB, 2, 3)
        assert coeffs == [0, 1, 0]
        assert residuals == [2]

    def test_probe_limit_validated(self):
        with pytest.raises(ValueError):
            psi_stirling_diagnostic(CLASSICAL, 3, 3)


def race(fn, workers=4):
    """Start fn in `workers` threads at once under a 1 us switch interval; return the results."""
    results = [None] * workers
    barrier = threading.Barrier(workers, timeout=30)

    def work(i):
        barrier.wait()
        results[i] = fn()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


class TestThreadSafety:
    def test_fresh_sequence_factorial(self):
        for trial in range(10):
            # a q no other test uses, so every trial starts from empty prefixes
            q = Fraction(1000 + trial, 997)
            values = [q_number_symbolic(k).evaluate(q) for k in range(41)]
            seq = PsiSequence.gauss_q(q)
            assert race(lambda: seq.factorial(40)) == [prod(values[1:])] * 4

    def test_stirling_rows(self):
        # No table is shared between calls, so racing threads each build their own tower.
        expected = stirling2(60, 30)
        for _ in range(10):
            assert race(lambda: stirling2(60, 30)) == [expected] * 4


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CLASSICAL.value(-1), "sequence index must be non-negative"),
        (lambda: CLASSICAL.factorial(-1), "factorial index must be non-negative"),
        (lambda: CLASSICAL.falling(-1, 0), "falling factorial needs non-negative arguments"),
        (lambda: q_number_symbolic(-1), "q-bracket index must be non-negative"),
        (lambda: recurrence_table(-1, lambda n, k: 1, lambda n, k: k, 1), "n_max must be non-negative"),
        (lambda: stirling2(-1, 0), "stirling2 arguments must be non-negative"),
        (lambda: psi_stirling_diagnostic(CLASSICAL, -1, 3), "degree must be non-negative"),
        (lambda: dobinski_bell(CLASSICAL, -1), "n must be non-negative"),
        (
            lambda: CertifiedValue(1, 2).div_by_positive(CertifiedValue(0, 1)),
            "divisor interval must be strictly positive",
        ),
    ],
    ids=[
        "value", "factorial", "falling", "q_number_symbolic", "recurrence_table", "stirling2",
        "psi_stirling_diagnostic", "dobinski_bell", "div_by_positive",
    ],
)
def test_argument_check(call, message):
    with pytest.raises(ValueError, match=message):
        call()
