"""Exact scalars, dense polynomial arithmetic, and certified series summation.

Everything in this package is exact: scalars are ``fractions.Fraction``
(always reduced, denominator positive), polynomials store dense coefficient
tuples, and infinite series are reported as rational intervals that bracket
the true sum.  No floating point appears anywhere, so every comparison made
by the verification routines is decidable.
"""

from fractions import Fraction
from typing import Callable, Iterable

from .errors import NegativeTermError, NonConvergentError

Scalar = int | Fraction

SUM_CAP = 10_000  # no series term past this index is ever read


class Poly:
    """Immutable dense polynomial in one variable; coefficient ``i`` multiplies its i-th power.

    Coefficients are exact scalars (int or Fraction); no variable is named.  Trailing
    zeros are stripped, so the zero polynomial stores an empty tuple.  A Poly equals only
    a Poly with the same coefficients, never a scalar, and hashes as its coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
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
        return self.coeffs == other.coeffs if isinstance(other, Poly) else NotImplemented

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

    def div_by_positive(self, other: "CertifiedValue") -> "CertifiedValue":
        """Divide a non-negative interval by one with other.lo > 0."""
        if other.lo <= 0:
            raise ValueError("divisor interval must be strictly positive")
        if self.lo < 0:
            raise ValueError("dividend interval must be non-negative")
        return CertifiedValue(self.lo / other.hi, self.hi / other.lo)


def certified_sum(term: Callable[[int], Scalar], ratio_threshold: Scalar) -> CertifiedValue:
    """Bracket the sum of a non-negative series between exact rationals.

    The series is truncated at the first index K with term(K) > 0 (so past
    any leading zero terms) and term(K+1)/term(K) <= ratio_threshold.  The
    tail beyond K is then bounded by the geometric series at the threshold
    ratio, giving [S_K, S_K + term(K+1)/(1-threshold)].  The bound is a proof
    only if no term ratio past K rises above term(K+1)/term(K); the caller
    owns that premise, and no term past K + 1 is read.  Every series of the
    package takes its threshold from dobinski.default_ratio_threshold,
    which states why the premise holds for each of them.  term is called
    for k = 0, 1, 2, ... in turn, once each, so a caller may keep the terms
    it was asked for.  No rationals are divided: the ratio test
    cross-multiplies integers.

    Raises NegativeTermError on a negative term and NonConvergentError when
    no truncation point qualifies without reading a term past index SUM_CAP,
    also when every term up to SUM_CAP vanishes: the positive terms, if any,
    lie past the cap, so no interval read up to it is a proof.
    """
    thr = Fraction(ratio_threshold)
    if not 0 < thr < 1:
        raise ValueError("ratio_threshold must lie strictly between 0 and 1")
    cap = SUM_CAP
    tail_factor = 1 / (1 - thr)
    partial = last = Fraction(0)
    for k in range(cap + 1):
        v = term(k)
        if v.numerator < 0:
            raise NegativeTermError(f"term({k}) = {v} is negative")
        # K = k - 1 once term(k)/term(k-1) <= thr, with term(k-1) > 0
        if last and v.numerator * last.denominator * thr.denominator <= thr.numerator * last.numerator * v.denominator:
            return CertifiedValue(partial, partial + tail_factor * v)
        partial, last = partial + v, v
    raise NonConvergentError(f"no certified truncation point within hard cap {cap}")
