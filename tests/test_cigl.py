"""Partition enumeration, the zero-block statistic, and the cigl q-tower."""

from fractions import Fraction

import pytest

from helpers import naive_bell, naive_partitions, naive_stirling2, tower_definition_failures, zero_block_sum
from umbraldob.cigl import (
    PARTITION_CAP,
    _levels,
    cigl_q_bell,
    cigl_q_dobinski_exact,
    cigl_q_power,
    cigl_q_stirling_table,
    enumerate_partitions,
    partition_counts,
)
from umbraldob.errors import CapExceededError
from umbraldob.exact_core import Poly


@pytest.fixture(scope="module")
def counts_by_length():
    """Per-length string counts up to 10 from the recursive helper and from the tuple API."""
    naive = [sum(1 for _ in naive_partitions(m)) for m in range(11)]
    tuples = [sum(1 for _ in enumerate_partitions(m)) for m in range(11)]
    return naive, tuples


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_partitions(0))) == 1
        assert len(list(enumerate_partitions(1))) == 1
        assert len(list(enumerate_partitions(3))) == 5
        assert len(list(enumerate_partitions(5))) == 52

    @pytest.mark.parametrize("n", range(9))
    def test_matches_recursive_oracle(self, n):
        got = list(enumerate_partitions(n))
        assert got == sorted(got)
        assert len(got) == len(set(got))
        assert set(got) == set(naive_partitions(n))

    def test_every_string_is_restricted_growth(self):
        for rgs in enumerate_partitions(6):
            top = 0
            for b in rgs:
                assert 0 <= b <= top
                top = max(top, b + 1)

    @pytest.mark.parametrize("n", range(11))
    def test_walk_counts_every_length(self, n, counts_by_length):
        naive, tuples = counts_by_length
        assert partition_counts(n) == naive[: n + 1] == tuples[: n + 1]

    def test_walk_at_the_oracle_sizes(self):
        # B(0..12), OEIS A000110
        assert partition_counts(12) == [
            1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597,
        ]
        assert partition_counts(13)[13] == 27644437

    @pytest.mark.parametrize("n", range(10))
    def test_walk_keeps_one_byte_per_string_in_order(self, n):
        # Level m is every string of length m, in lexicographic order, as its
        # block count: a walk that merges strings with equal block counts, or
        # builds the strings of length n, fails this.
        levels = list(_levels(n))
        assert len(levels) == n
        for m, level in enumerate(levels):
            assert level == bytes(max(s, default=-1) + 1 for s in enumerate_partitions(m))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_partitions(PARTITION_CAP + 1))
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))
        with pytest.raises(CapExceededError):
            partition_counts(PARTITION_CAP + 1)
        with pytest.raises(ValueError):
            partition_counts(-1)


class TestWeightedCount:
    def test_frozen_polynomials(self):
        assert cigl_q_bell(0) == Poly((1,))
        assert cigl_q_bell(1) == Poly((1,))
        assert cigl_q_bell(2) == Poly((1, 1))
        assert cigl_q_bell(3) == Poly((2, 1, 1, 1))
        assert cigl_q_stirling_table(3).entry(3, 2) == Poly((1, 1, 1))
        assert cigl_q_stirling_table(3).entry(3, 1) == Poly((0, 0, 0, 1))

    @pytest.mark.parametrize("n", range(9))
    def test_counting_matches_enumeration(self, n):
        by_blocks = [dict() for _ in range(n + 1)]
        for rgs in enumerate_partitions(n):
            k = (max(rgs) + 1) if rgs else 0
            s = zero_block_sum(rgs)
            by_blocks[k][s] = by_blocks[k].get(s, 0) + 1
        table = cigl_q_stirling_table(n)
        for k in range(n + 1):
            want = Poly(
                tuple(
                    by_blocks[k].get(s, 0)
                    for s in range(max(by_blocks[k], default=-1) + 1)
                )
            )
            assert table.entry(n, k) == want

    @pytest.mark.parametrize("n", range(9))
    def test_statistic_oracle_is_consistent(self, n):
        # the recursive helper and the statistic alone, with no package enumeration
        weights = {}
        for rgs in naive_partitions(n):
            s = zero_block_sum(rgs)
            weights[s] = weights.get(s, 0) + 1
        assert cigl_q_bell(n) == Poly(tuple(weights.get(s, 0) for s in range(max(weights) + 1)))

    def test_block_polynomials_sum_to_total(self):
        for n in range(10):
            acc, table = Poly(()), cigl_q_stirling_table(n)
            for k in range(n + 1):
                acc = acc + table.entry(n, k)
            assert acc == cigl_q_bell(n)

    @pytest.mark.parametrize("n", range(11))
    def test_reduces_to_classical_at_one(self, n):
        assert cigl_q_bell(n).evaluate(Fraction(1)) == naive_bell(n)
        table = cigl_q_stirling_table(n)
        for k in range(n + 1):
            assert table.entry(n, k).evaluate(Fraction(1)) == naive_stirling2(n, k)

    def test_leading_term(self):
        # the statistic is maximal when everything joins the block of 0
        for n in range(1, 11):
            top = n * (n - 1) // 2
            b = cigl_q_bell(n)
            assert b.degree == top
            assert b.coefficient(top) == 1

    def test_runs_past_the_partition_cap(self):
        # the tower is a recurrence, so the enumeration cap does not bound it
        n = PARTITION_CAP + 1
        b = cigl_q_bell(n)
        assert b.degree == n * (n - 1) // 2 == 91
        assert b.coefficient(91) == 1

    def test_rows_past_the_cap_meet_the_defining_expansion(self):
        rows = [[list(entry.coeffs) for entry in row] for row in cigl_q_stirling_table(20).rows]
        assert tower_definition_failures("cigl-q-stirling", rows) == []

    @pytest.mark.parametrize("k", [0, 3, PARTITION_CAP + 2, PARTITION_CAP + 10])
    def test_entry_checks_n_before_k(self, k):
        # an empty column (k > n) must not hide an invalid row or one outside the table
        with pytest.raises(ValueError):
            cigl_q_stirling_table(PARTITION_CAP).entry(PARTITION_CAP + 1, k)
        with pytest.raises(ValueError):
            cigl_q_stirling_table(-1).entry(-1, k)


class TestQPowerProduct:
    def test_small_products(self):
        one = Poly((1,))
        assert cigl_q_power(0) == (one,)
        assert cigl_q_power(1) == (Poly(()), one)
        # x * (x + q - 1) = (q - 1) x + x**2
        assert cigl_q_power(2) == (Poly(()), Poly((-1, 1)), one)
        # x * (x + q - 1) * (x + q**2 - 1) = (q - 1)(q**2 - 1) x + (q**2 + q - 2) x**2 + x**3
        assert cigl_q_power(3) == (Poly(()), Poly((1, -1, -1, 1)), Poly((-2, 1, 1)), one)

    def test_builds_without_polynomial_products(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cigl_q_power multiplied polynomials")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__rmul__", refuse)
        monkeypatch.setattr(Poly, "monomial", classmethod(refuse))
        assert [len(cigl_q_power(n)) for n in range(8)] == list(range(1, 9))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cigl_q_power(-1)

    def test_evaluation_matches_factored_form(self):
        q = Fraction(2, 3)
        x = Fraction(5)
        for n in range(7):
            prod = Fraction(1)
            for i in range(n):
                prod *= x + q**i - 1
            assert sum(c.evaluate(q) * x**k for k, c in enumerate(cigl_q_power(n))) == prod


class TestCiglDobinski:
    @pytest.mark.parametrize("n", range(11))
    def test_identity(self, n):
        assert cigl_q_dobinski_exact(n) == cigl_q_bell(n)

    def test_zero_case_is_constant_one(self):
        assert cigl_q_dobinski_exact(0) == Poly((1,))
