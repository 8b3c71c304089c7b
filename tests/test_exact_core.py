"""Polynomial ring laws, interval plumbing, and the certified summation kernel."""

import copy
import pickle
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import division_certified_sum, partial_sum
from umbraldob import exact_core
from umbraldob.errors import NegativeTermError, NonConvergentError
from umbraldob.exact_core import CertifiedValue, Poly, certified_sum

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=12)
polys = st.lists(fractions_st, max_size=13).map(Poly)


class TestPoly:
    def test_mul(self):
        assert Poly((1, 1)) * Poly((1, 1)) == Poly((1, 2, 1))

    def test_evaluate(self):
        assert Poly((1, 1, 1)).evaluate(Fraction(1)) == 3

    def test_sub_to_zero(self):
        p = Poly((Fraction(1, 3), 2, 5))
        assert p - p == Poly(())
        assert not (p - p)

    def test_trailing_zeros_trimmed(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0)).coeffs == ()

    def test_degree_and_coefficient(self):
        p = Poly((3, 0, 1))
        assert p.degree == 2
        assert p.coefficient(1) == 0
        assert p.coefficient(7) == 0
        assert Poly(()).degree == -1

    def test_equals_only_a_poly(self):
        # a constant is not its scalar: equality and hash read the coefficient tuple only
        assert Poly((5,)) != 5 and 5 != Poly((5,))
        assert Poly(()) != 0
        assert Poly((Poly((1,)), 2)) != Poly((1, 2))  # a Poly coefficient is not a scalar either
        assert Poly((5,)) == Poly((Fraction(5),))

    def test_zero_coefficients_are_canonical(self):
        # a zero coefficient is stored as the int 0 whichever ring it came from, so equal values compare equal
        x = Poly((0, 1))
        assert Poly((Poly(()), x)) == Poly((0, x)) and hash(Poly((Poly(()), x))) == hash(Poly((0, x)))
        assert Poly((Fraction(0), 1)).coeffs == (0, 1) and Poly((Poly(()),)) == Poly(())
        one = Poly((1,))
        # (1 + x)(1 - x): the products into x cancel to Poly(()), which is stored as the int 0 too
        assert (Poly((one, one)) * Poly((one, -one))).coeffs == (one, 0, -one)

    def test_hash_is_the_coefficient_tuple(self):
        assert len({5, Poly((5,))}) == 2 and len({Poly((5,)), Poly((Fraction(5),))}) == 1
        assert hash(Poly((5,))) == hash((5,)) and hash(Poly(())) == hash(())

    @given(polys, polys, polys)
    @settings(max_examples=120)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys, polys, fractions_st)
    @settings(max_examples=120)
    def test_evaluate_is_ring_homomorphism(self, a, b, r):
        assert (a + b).evaluate(r) == a.evaluate(r) + b.evaluate(r)
        assert (a * b).evaluate(r) == a.evaluate(r) * b.evaluate(r)

    def test_nested_coefficients(self):
        inner = Poly((0, 1))  # q
        outer = Poly((inner, Poly((1,))))  # q + x
        sq = outer * outer
        assert sq.coeffs[0] == Poly((0, 0, 1))
        assert sq.coeffs[1] == Poly((0, 2))
        assert sq.coeffs[2] == Poly((1,))


class TestCertifiedValue:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            CertifiedValue(Fraction(2), Fraction(1))

    def test_coerces_endpoints_to_fractions(self):
        cv = CertifiedValue(1, Fraction(3, 2))
        assert type(cv.lo) is Fraction and type(cv.hi) is Fraction
        assert cv.lo == 1

    def test_immutable(self):
        cv = CertifiedValue(0, 1)
        with pytest.raises(AttributeError):
            cv.lo = Fraction(1, 2)
        with pytest.raises(AttributeError):
            cv.hi = Fraction(2)
        assert (cv.lo, cv.hi) == (0, 1)

    def test_equal_and_hashed_by_value(self):
        a, b = CertifiedValue(1, Fraction(3, 2)), CertifiedValue(Fraction(2, 2), Fraction(6, 4))
        assert a == b and hash(a) == hash(b)
        assert a != CertifiedValue(1, 2)
        assert len({a, b, CertifiedValue(1, 2)}) == 2

    def test_copies_and_pickles(self):
        cv = CertifiedValue(Fraction(1, 3), 2)
        for copied in (copy.copy(cv), copy.deepcopy(cv), pickle.loads(pickle.dumps(cv))):
            assert copied == cv and type(copied.lo) is Fraction

    def test_contains_and_width(self):
        cv = CertifiedValue(Fraction(1, 3), Fraction(1, 2))
        assert cv.contains(Fraction(2, 5))
        assert not cv.contains(Fraction(2))
        assert cv.width == Fraction(1, 6)

    def test_interval_arithmetic(self):
        a = CertifiedValue(1, 2)
        b = CertifiedValue(Fraction(1, 2), 1)
        assert a.div_by_positive(b) == CertifiedValue(1, 4)

    def test_div_with_negative_numerator(self):
        # every dividend is a sum of non-negative terms, so lo / other.hi is a sound lower end
        with pytest.raises(ValueError):
            CertifiedValue(-2, 3).div_by_positive(CertifiedValue(Fraction(1, 2), 2))


class TestCertifiedSum:
    def test_exponential_series(self):
        got = certified_sum(lambda k: Fraction(1, factorial(k)), Fraction(1, 2))
        assert got.contains(partial_sum(lambda k: Fraction(1, factorial(k)), 51))

    def test_tail_bound_is_geometric_at_every_threshold(self):
        # 1/k! first has term(K+1)/term(K) <= 1/4 at K = 3, and the tail past K is at most term(4)/(1 - 1/4)
        term = lambda k: Fraction(1, factorial(k))
        lo = partial_sum(term, 4)
        assert certified_sum(term, Fraction(1, 4)) == CertifiedValue(lo, lo + Fraction(4, 3) * term(4))

    def test_zero_series(self):
        # terms that vanish up to SUM_CAP prove nothing about the terms past it
        with pytest.raises(NonConvergentError, match="no certified truncation point within hard cap"):
            certified_sum(lambda k: Fraction(0), Fraction(1, 2))

    def test_square_weighted_series(self):
        term = lambda k: Fraction(k * k, factorial(k))
        got = certified_sum(term, Fraction(1, 2))
        assert got.contains(partial_sum(term, 51))

    def test_leading_zeros_do_not_truncate_early(self):
        # the first 12 terms vanish; the certified interval must still
        # bracket the full series, not collapse onto [0, 0]
        term = lambda k: Fraction(1, factorial(k - 12)) if k >= 12 else Fraction(0)
        got = certified_sum(term, Fraction(1, 2))
        assert got.lo > 1
        assert got.contains(partial_sum(term, 60))

    def test_terms_are_asked_for_in_turn(self):
        # a moment sweep keeps the terms of one row, in the order asked for, to build the next;
        # the ratios 1, 1/2 after five zeros truncate at K = 6, and no term past K + 1 is read
        asked = []

        def term(k):
            asked.append(k)
            return Fraction(1, factorial(k - 5)) if k >= 5 else Fraction(0)

        got = certified_sum(term, Fraction(1, 2))
        assert got == CertifiedValue(2, 3)
        assert asked == list(range(6 + 2))

    def test_negative_term_rejected(self):
        with pytest.raises(NegativeTermError):
            certified_sum(lambda k: Fraction(-1) if k == 2 else Fraction(1, factorial(k)), Fraction(1, 2))

    def test_divergent_series_hits_cap(self, monkeypatch):
        monkeypatch.setattr(exact_core, "SUM_CAP", 200)
        with pytest.raises(NonConvergentError):
            certified_sum(lambda k: Fraction(1), Fraction(1, 2))

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            certified_sum(lambda k: Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            certified_sum(lambda k: Fraction(0), Fraction(0))

    def test_no_term_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(exact_core, "SUM_CAP", 3)
        asked = []

        def term(k):
            asked.append(k)
            return Fraction(1)

        with pytest.raises(NonConvergentError, match="within hard cap 3$"):
            certified_sum(term, Fraction(1, 2))
        assert max(asked) <= 3

    def test_cap_is_the_last_index_read(self, monkeypatch):
        # 1/k! at threshold 1/2 truncates at K = 1 once it has read index K + 1 = 2
        def series(k):
            return Fraction(1, factorial(k))

        monkeypatch.setattr(exact_core, "SUM_CAP", 2)
        assert certified_sum(series, Fraction(1, 2)) == CertifiedValue(Fraction(2), Fraction(3))
        monkeypatch.setattr(exact_core, "SUM_CAP", 1)
        with pytest.raises(NonConvergentError, match="within hard cap 1$"):
            certified_sum(series, Fraction(1, 2))

    @pytest.mark.parametrize(
        "term",
        [
            lambda k: Fraction(1, factorial(k)),
            lambda k: Fraction(k**3, factorial(k)),
            lambda k: Fraction(2) ** k / factorial(k),
            lambda k: Fraction(1, factorial(k - 5)) if k >= 5 else Fraction(0),
            lambda k: comb(12, k),
        ],
    )
    def test_ten_times_more_terms_stay_inside(self, term):
        got = certified_sum(term, Fraction(1, 2))
        # an int term has the numerator and denominator that the ratio test reads, so it sums as its Fraction
        assert got == certified_sum(lambda k: Fraction(term(k)), Fraction(1, 2))
        # recover the truncation index from the exact lower endpoint
        acc, k = Fraction(0), 0
        while acc != got.lo:
            acc += term(k)
            k += 1
            assert k < 1000
        assert got.contains(partial_sum(term, 10 * k + 1))

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.one_of(
                    st.just(0),
                    st.integers(0, 40),
                    st.fractions(min_value=0, max_value=40, max_denominator=30),
                ),
                st.integers(1, 4),
            ),
            max_size=12,
        ),
        decay=st.fractions(min_value=0, max_value=2, max_denominator=8),
        thr=st.fractions(min_value=0, max_value=1, max_denominator=32).filter(lambda x: 0 < x < 1),
        zero_tail=st.booleans(),
    )
    def test_integer_decisions_match_division(self, runs, decay, thr, zero_tail):
        # runs of equal values, zeros included (0/0 and x/0), then a geometric stretch
        head = [v for v, length in runs for _ in range(length)]
        terms = head + [Fraction(1, 3) * decay**j for j in range(12)]

        def term(k):
            if k >= len(terms) and not zero_tail:
                raise IndexError(k)
            return terms[k] if k < len(terms) else 0

        outcomes = []
        for route in (certified_sum, lambda *args: CertifiedValue(*division_certified_sum(*args))):
            try:
                outcomes.append(route(term, thr))
            except Exception as exc:  # the type is the outcome
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    def test_tighter_threshold_narrows_interval(self):
        term = lambda k: Fraction(1, factorial(k))
        wide = certified_sum(term, Fraction(1, 2))
        tight = certified_sum(term, Fraction(1, 8))
        assert tight.width < wide.width
        assert wide.lo <= tight.lo and tight.hi <= wide.hi
