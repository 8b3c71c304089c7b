"""Psi-sequences, the Stirling towers, and the expansion diagnostic."""

import pickle
import sys
import threading
from math import gcd, prod
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_bell, naive_stirling2
from umbraldob.dobinski import rota_bell_exact
from umbraldob.errors import OutOfRangeError
from umbraldob.exact_core import Poly
from umbraldob.umbral_engine import (
    PsiSequence,
    StirlingTable,
    bell_via_sum,
    carlitz_q_stirling,
    classical_stirling_table,
    gauss_number,
    psi_stirling_diagnostic,
    q_number_symbolic,
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
            PsiSequence.custom([0] + [Fraction(3 * j + 1, j % 7 + 2) for j in range(1, 41)]),
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

    def test_custom_sequence(self):
        seq = PsiSequence.custom([0, 1, Fraction(3, 2), 2])
        assert seq.value(2) == Fraction(3, 2)
        assert seq.factorial(3) == 3
        with pytest.raises(OutOfRangeError):
            seq.value(4)
        with pytest.raises(OutOfRangeError):
            seq.falling(5, 7)  # past the table even where the product would be 0
        with pytest.raises(OutOfRangeError) as exc:
            seq.factorial(4)
        assert str(exc.value) == "custom sequence has 4 values, index 4 requested"
        assert seq.value(3) == 2  # a failed read leaves the table as it was

    def test_admissibility_rejected(self):
        with pytest.raises(ValueError):
            PsiSequence.custom([1, 2])
        with pytest.raises(ValueError):
            PsiSequence.custom([0, 0, 1])
        with pytest.raises(ValueError):
            PsiSequence.custom([])
        with pytest.raises(ValueError):
            PsiSequence.gauss_q(0)
        with pytest.raises(ValueError):
            PsiSequence.gauss_q(Fraction(-1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PsiSequence("lucas")

    def test_equal_and_hashed_by_kind_q_values_label(self):
        half = PsiSequence.gauss_q(Fraction(2, 4))
        half.factorial(12)  # the grown prefixes are not part of the value
        assert half == HALF and hash(half) == hash(HALF)
        assert half.q == Fraction(1, 2) and half.label == "q=1/2"
        assert PsiSequence("gauss-q", q=Fraction(1, 2), label="half") != HALF
        assert PsiSequence.gauss_q(1) != CLASSICAL  # same values, different kind
        assert PsiSequence.custom([0, 1, 2]) == PsiSequence.custom([0, Fraction(1), 2])
        assert PsiSequence.custom([0, 1, 2]) != PsiSequence.custom([0, 1, 3])
        assert PsiSequence.custom([0, 1, 2], label="t") != PsiSequence.custom([0, 1, 2])
        assert len({CLASSICAL, PsiSequence.classical(), FIB, HALF, half}) == 3

    def test_immutable(self):
        seq = PsiSequence.gauss_q(Fraction(1, 3))
        for name, value in (("kind", "classical"), ("q", Fraction(1, 2)), ("values", (0, 1)), ("label", "x")):
            with pytest.raises(AttributeError):
                setattr(seq, name, value)
        assert (seq.kind, seq.q, seq.values, seq.label) == ("gauss-q", Fraction(1, 3), None, "q=1/3")

    def test_gauss_q_one_matches_classical(self):
        one = PsiSequence.gauss_q(1)
        assert [one.value(n) for n in range(10)] == [CLASSICAL.value(n) for n in range(10)]

    def test_numeric_helpers(self):
        assert gauss_number(3, Fraction(1, 2)) == Fraction(7, 4)
        assert gauss_number(0, Fraction(2)) == 0


class TestQBracketSymbolic:
    def test_examples(self):
        assert q_number_symbolic(3) == Poly((1, 1, 1))
        assert q_number_symbolic(0) == Poly(())
        assert q_number_symbolic(1) == Poly((1,))

    @given(st.integers(min_value=0, max_value=30), st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8))
    @settings(max_examples=60)
    def test_matches_numeric(self, n, q):
        assert q_number_symbolic(n).evaluate(q) == gauss_number(n, q)


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
            # a q no other test uses, so every trial starts from empty prefixes; the custom
            # table of the same 41 values starts with every value and no factorial past 0
            q = Fraction(1000 + trial, 997)
            values = [gauss_number(k, q) for k in range(41)]
            for seq in (PsiSequence.gauss_q(q), PsiSequence.custom(values)):
                assert race(lambda: seq.factorial(40)) == [prod(values[1:])] * 4

    def test_stirling_rows(self):
        # No table is shared between calls, so racing threads each build their own tower.
        expected = stirling2(60, 30)
        for _ in range(10):
            assert race(lambda: stirling2(60, 30)) == [expected] * 4
