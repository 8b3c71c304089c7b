"""Exact scalars, dense polynomial arithmetic, and certified series summation.

Everything in this package is exact: scalars are ``fractions.Fraction``
(always reduced, denominator positive), polynomials store dense coefficient
tuples, and infinite series are reported as rational intervals that bracket
the true sum.  No floating point appears anywhere, so every comparison made
by the verification routines is decidable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Union

from .errors import NegativeTermError, NonConvergentError

Scalar = Union[int, Fraction]

SUM_CAP = 10_000  # no series term past this index is ever read
MONOTONE_WINDOW = 8


class Poly:
    """Immutable dense polynomial in one variable; coefficient ``i`` multiplies its i-th power.

    Coefficients are exact scalars (int or Fraction) or Poly values, as in
    cigl_q_power's powers of x with q-polynomial coefficients; no variable is named.
    The zero polynomial stores an empty coefficient tuple; trailing zero
    coefficients are stripped on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def evaluate(self, value):
        """Substitute ``value`` for the variable (Horner); a ring homomorphism."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


class Record:
    """Base of the immutable value types, whose fields a subclass names in __slots__.

    __init__ takes the public fields in order and sets each once, with _init.  Equality,
    hash, repr, copy and pickle read them, and not the working state named _like_this.
    """

    __slots__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _items(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in self.__slots__ if name[0] != "_")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self._items() == other._items() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._items())

    def __reduce__(self):
        return type(self), tuple(value for _, value in self._items())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in self._items())})"


class CertifiedValue(Record):
    """A closed rational interval [lo, hi] guaranteed to contain a real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: {lo} > {hi}")
        self._init(lo=lo, hi=hi)

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
    no truncation point qualifies without reading a term past index SUM_CAP,
    the window included.
    """
    thr = Fraction(ratio_threshold)
    if not 0 < thr < 1:
        raise ValueError("ratio_threshold must lie strictly between 0 and 1")
    cap = SUM_CAP

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
    for k in range(support, cap - MONOTONE_WINDOW):
        if above_threshold(k):
            continue
        t(k + 1 + MONOTONE_WINDOW)  # the window reads this far before it decides, at most index cap
        if not any(ratio_rises(j) for j in range(k, k + MONOTONE_WINDOW)):
            partial = sum(terms[: k + 1], Fraction(0))
            return CertifiedValue(partial, partial + tail_factor * t(k + 1))
    raise NonConvergentError(f"no certified truncation point within hard cap {cap}")
