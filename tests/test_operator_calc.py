"""The conjugated number operator and the exponential polynomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_bell
from umbraldob.exact_core import Poly
from umbraldob.operator_calc import (
    apply_number_operator,
    dobinski_specialization,
    exponential_polynomial,
    verify_conjugation,
)
from umbraldob.umbral_engine import stirling2


def _truncated_product(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _conjugated_action(p: Poly, order: int) -> list[Fraction]:
    # Work out e**(-x) * (x d/dx) * (e**x * p) on truncated coefficient
    # lists.  Every step is lower triangular in degree, so the prefix up to
    # `order` is exact and gives an oracle independent of Poly arithmetic.
    exp = [Fraction(1, math.factorial(k)) for k in range(order + 1)]
    exp_neg = [c if k % 2 == 0 else -c for k, c in enumerate(exp)]
    lifted = _truncated_product(list(p.coeffs), exp, order)
    theta = [k * c for k, c in enumerate(lifted)]
    return _truncated_product(theta, exp_neg, order)


class TestNumberOperator:
    def test_small_cases(self):
        assert apply_number_operator(Poly((1,))) == Poly((0, 1))
        assert apply_number_operator(Poly((0, 1))) == Poly((0, 1, 1))
        assert apply_number_operator(Poly(())) == Poly(())

    def test_is_linear(self):
        p = Poly((1, 2, 3))
        q = Poly((0, 0, 1, 4))
        lhs = apply_number_operator(p + q)
        assert lhs == apply_number_operator(p) + apply_number_operator(q)

    @given(st.lists(st.integers(min_value=-6, max_value=6), max_size=6))
    @settings(max_examples=60)
    def test_matches_conjugation_oracle(self, coeffs):
        p = Poly(coeffs)
        order = len(coeffs) + 2
        want = _conjugated_action(p, order)
        got = apply_number_operator(p)
        for k in range(order + 1):
            assert got.coefficient(k) == want[k]


class TestExponentialPolynomials:
    def test_first_few(self):
        assert exponential_polynomial(0) == Poly((1,))
        assert exponential_polynomial(1) == Poly((0, 1))
        assert exponential_polynomial(2) == Poly((0, 1, 1))
        assert exponential_polynomial(3) == Poly((0, 1, 3, 1))

    def test_coefficients_are_stirling_numbers(self):
        for n in range(16):
            p = exponential_polynomial(n)
            for k in range(n + 1):
                assert p.coefficient(k) == stirling2(n, k)
            assert p.degree == n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exponential_polynomial(-1)


class TestConjugationCheck:
    @pytest.mark.parametrize("deg", [0, 1, 5, 20])
    def test_holds(self, deg):
        assert verify_conjugation(deg) is True


class TestSpecialization:
    def test_frozen_values(self):
        assert dobinski_specialization(0) == 1
        assert dobinski_specialization(2) == 2
        assert dobinski_specialization(5) == 52

    @pytest.mark.parametrize("n", range(11))
    def test_matches_partition_count(self, n):
        assert dobinski_specialization(n) == naive_bell(n)


class TestIndependence:
    def test_shares_no_poly_arithmetic(self, monkeypatch):
        # The route computes on coefficient tuples, so a broken Poly ring cannot reach it.
        want = [stirling2(12, k) for k in range(13)]

        def refuse(*args):
            raise AssertionError("the operator route used Poly arithmetic")

        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(Poly, name, refuse)
        p = exponential_polynomial(12)
        assert [p.coefficient(k) for k in range(13)] == want
        assert verify_conjugation(20) is True
        assert dobinski_specialization(8) == 4140
