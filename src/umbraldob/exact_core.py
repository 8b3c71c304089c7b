"""Exact scalars, dense polynomial arithmetic, and certified series summation.

Everything in this package is exact: scalars are ``fractions.Fraction``
(always reduced, denominator positive), polynomials store dense coefficient
tuples, and infinite series are reported as rational intervals that bracket
the true sum.  No floating point appears anywhere, so every comparison made
by the verification routines is decidable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from .errors import NegativeTermError, NonConvergentError

Scalar = Union[int, Fraction]

DEFAULT_SUM_CAP = 10_000
SUM_CAP_ENV = "UMBRALDOB_SUM_CAP"
MONOTONE_WINDOW = 8


def summation_cap() -> int:
    """Hard cap on series truncation indices; UMBRALDOB_SUM_CAP overrides it."""
    raw = os.environ.get(SUM_CAP_ENV)
    if raw is None:
        return DEFAULT_SUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{SUM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


class Poly:
    """Immutable dense polynomial; coefficient ``i`` multiplies ``var**i``.

    Coefficients are exact scalars (int or Fraction) or, for nested use such
    as powers of x with q-polynomial coefficients, Poly values themselves.
    The zero polynomial stores an empty coefficient tuple; trailing zero
    coefficients are stripped on construction.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "q"):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def constant(cls, c, var: str = "q") -> "Poly":
        return cls((c,), var)

    @classmethod
    def monomial(cls, c, k: int, var: str = "q") -> "Poly":
        return cls((0,) * k + (c,), var)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check_var(self, other: "Poly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.var == other.var and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, self.var)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs), self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_var(other)
        if not self.coeffs or not other.coeffs:
            return Poly((), self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.var)

    __rmul__ = __mul__

    def evaluate(self, value):
        """Substitute ``value`` for the variable (Horner); a ring homomorphism."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * self.coeffs[i] for i in range(1, len(self.coeffs))], self.var)

    def shift(self, k: int) -> "Poly":
        """Multiply by var**k."""
        if not self.coeffs:
            return self
        return Poly((0,) * k + self.coeffs, self.var)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r}, var={self.var!r})"


@dataclass(frozen=True)
class CertifiedValue:
    """A closed rational interval [lo, hi] guaranteed to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: "CertifiedValue") -> "CertifiedValue":
        return CertifiedValue(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "CertifiedValue") -> "CertifiedValue":
        return CertifiedValue(self.lo - other.hi, self.hi - other.lo)

    def div_by_positive(self, other: "CertifiedValue") -> "CertifiedValue":
        """Divide by an interval with other.lo > 0."""
        if other.lo <= 0:
            raise ValueError("divisor interval must be strictly positive")
        lo = self.lo / (other.hi if self.lo >= 0 else other.lo)
        hi = self.hi / (other.lo if self.hi >= 0 else other.hi)
        return CertifiedValue(lo, hi)


def certified_sum(term: Callable[[int], Scalar], ratio_threshold: Scalar) -> CertifiedValue:
    """Bracket the sum of a non-negative series between exact rationals.

    The series is truncated at the first index K (past any leading zero
    terms) where term(K+1)/term(K) <= ratio_threshold and the term ratios
    stay non-increasing over the next MONOTONE_WINDOW (8) steps.  The tail
    beyond K is then bounded by the geometric series at the threshold ratio,
    giving [S_K, S_K + 2*term(K+1)] for thresholds up to 1/2 and
    [S_K, S_K + term(K+1)/(1-threshold)] above that.  The threshold is the
    caller's: every series of the package takes it from
    dobinski.default_ratio_threshold.  term is called for k = 0, 1, 2, ...
    in turn, once each, so a caller may keep the terms it was asked for.
    No rationals are divided: the ratio tests cross-multiply integers,
    reading 0/0 as 0 and x/0 (x > 0) as infinite.

    The window check is a monotonicity heuristic: a series whose ratios
    resume growing beyond the window defeats it.  The factorial-type series
    this package sums all have eventually decreasing ratios, and the test
    suite cross-checks every interval against independent routes.

    Raises NegativeTermError on a negative term and NonConvergentError when
    no truncation point qualifies below summation_cap() (default 10000,
    overridable via UMBRALDOB_SUM_CAP).
    """
    thr = Fraction(ratio_threshold)
    if not 0 < thr < 1:
        raise ValueError("ratio_threshold must lie strictly between 0 and 1")
    cap = summation_cap()

    terms: list[Fraction] = []

    def t(k: int) -> Fraction:
        while len(terms) <= k:
            v = term(len(terms))
            v = v if isinstance(v, Fraction) else Fraction(v)
            if v.numerator < 0:
                raise NegativeTermError(f"term({len(terms)}) = {v} is negative")
            terms.append(v)
        return terms[k]

    support = next((k for k in range(cap + 1) if t(k).numerator), None)
    if support is None:
        # Identically zero as far as the cap allows us to look.
        return CertifiedValue(Fraction(0), Fraction(0))

    def above_threshold(j: int) -> bool:  # term(j+1)/term(j) > thr
        a, b = t(j), t(j + 1)
        return b.numerator * a.denominator * thr.denominator > thr.numerator * a.numerator * b.denominator

    def ratio_rises(j: int) -> bool:  # term(j+2)/term(j+1) > term(j+1)/term(j)
        a, b, c = terms[j : j + 3]
        if not b:  # the left ratio is 0, the right one 0 or infinite
            return c > 0
        # c*a > b*b; at a = 0 the left ratio is infinite and this is false
        return c.numerator * a.numerator * b.denominator**2 > b.numerator**2 * c.denominator * a.denominator

    tail_factor = Fraction(2) if thr <= Fraction(1, 2) else 1 / (1 - thr)
    for k in range(support, cap + 1):
        if above_threshold(k):
            continue
        t(k + 1 + MONOTONE_WINDOW)  # the window reads this far before it decides
        if not any(ratio_rises(j) for j in range(k, k + MONOTONE_WINDOW)):
            partial = sum(terms[: k + 1], Fraction(0))
            return CertifiedValue(partial, partial + tail_factor * t(k + 1))
    raise NonConvergentError(f"no certified truncation point within hard cap {cap}")
