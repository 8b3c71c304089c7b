"""Mutants of the kernels: each is a named monkeypatch, and a verdict that claims to cover it must fail."""

import pytest

from umbraldob import operator_calc
from umbraldob.exact_core import Poly
from umbraldob.identities import RUNNERS, bell_oracle
from umbraldob.umbral_engine import PsiSequence

CLASSICAL = PsiSequence.classical()
REAL_MUL = Poly.__mul__


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


def conjugation_and_oracle():
    return [case.ok for case in RUNNERS["conjugation"](CLASSICAL, 20)] + [row.ok for row in bell_oracle(8)]


def polynomial_towers():
    return [case.ok for name in ("q1-reduction", "cigl-dobinski") for case in RUNNERS[name](CLASSICAL, 10)]


MUTANTS = [
    pytest.param(
        [(operator_calc, "apply_number_operator", operator_weight_m)],
        conjugation_and_oracle,
        id="operator-weight-m",
    ),
    pytest.param(
        [(Poly, "__mul__", mul_drops_last_cross_product), (Poly, "__rmul__", mul_drops_last_cross_product)],
        polynomial_towers,
        id="poly-mul-drops-last-cross-product",
    ),
]


@pytest.mark.parametrize("patches, verdicts", MUTANTS)
def test_mutant_fails_a_verdict(monkeypatch, patches, verdicts):
    assert all(verdicts())  # every verdict passes on the real kernel
    for owner, name, mutant in patches:
        monkeypatch.setattr(owner, name, mutant)
    assert not all(verdicts())
