"""Operator route to the Bell numbers via exponential polynomials.

Conjugating the operator x*d/dx by multiplication with the exponential
series turns it into p |-> x*(p' + p) on the polynomial prefactor, which
this module computes on coefficient tuples.  Iterating that action on the
constant 1 produces the exponential polynomials, whose coefficients are the
second-kind Stirling numbers and whose value at 1 is the Bell number: a
third, fully exact route to the same tower.
"""

from fractions import Fraction

from .exact_core import Poly


def apply_number_operator(p: Poly) -> Poly:
    """The conjugated number operator x * (p' + p), on p's coefficients c: coefficient m+1 is c[m] + (m+1)*c[m+1]."""
    c = p.coeffs + (0,)
    return Poly((0,) + tuple(c[m] + (m + 1) * c[m + 1] for m in range(len(p.coeffs))))


def exponential_polynomial(n: int) -> Poly:
    """n-fold application of the number operator to the constant 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    p = Poly((1,))
    for _ in range(n):
        p = apply_number_operator(p)
    return p


def verify_conjugation(max_degree: int) -> bool:
    """Check the operator action on every monomial up to max_degree.

    Applying x*(d/dx + 1) to x**m gives m*x**m + x**(m+1) in closed form; the
    general pipeline must reproduce that exactly for each m.
    """
    for m in range(max_degree + 1):
        direct = Poly((0,) * m + (m, 1))
        routed = apply_number_operator(Poly((0,) * m + (1,)))
        if routed != direct:
            return False
    return True


def dobinski_specialization(n: int) -> Fraction:
    """Value of the n-th exponential polynomial at 1 (coefficient sum)."""
    return exponential_polynomial(n).evaluate(Fraction(1))
