"""Generalized exponentials, Poisson-type distributions, and moment identities.

The central objects are certified rational intervals for series of the form
sum_k p(psi(k)) * lam**k / psi-factorial(k), normalized by the generalized
exponential exp_psi(lam) = sum_k lam**k / psi-factorial(k).  At lam = 1 the
normalized falling-factorial moments are exactly 1 and the power moments
recover the Bell tower, which is what the verify_* routines check.  A fully
exact route (no intervals) is available through the classical Stirling
recursion: rota_bell_exact and poisson_moment_exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonConvergentError
from .exact_core import CertifiedValue, Poly, certified_sum
from .umbral_engine import (
    CLASSICAL,
    GAUSS_Q,
    PsiSequence,
    gauss_factorial,
    gauss_number,
    stirling2,
)


def default_ratio_threshold(seq: PsiSequence, lam) -> Fraction:
    """A truncation threshold safely above the asymptotic term ratio.

    For a Gauss sequence with q < 1 the brackets tend to 1/(1-q), so the
    term ratios of the exponential-type series tend to lam*(1-q), which can
    exceed 1/2 (for example q=1/4 at lam=1 gives 3/4).  Splitting the gap
    toward 1 keeps the threshold reachable while the geometric tail bound
    stays finite.  Every other built-in kind has ratios that tend to 0.
    """
    lam = Fraction(lam)
    if seq.kind == GAUSS_Q and seq.q < 1:
        rho = lam * (1 - seq.q)
        if rho < 1:
            return max(Fraction(1, 2), (1 + rho) / 2)
    return Fraction(1, 2)


def _admissible(seq: PsiSequence, lam, ratio_threshold) -> tuple[Fraction, Fraction]:
    """Validate lam for exp_psi and resolve the default truncation threshold."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    # exp_psi(lam) for a Gauss sequence with q < 1 has radius 1/(1-q); at or
    # beyond it the terms do not even tend to zero, so fail fast instead of
    # grinding toward the summation cap on ever-larger exact rationals.
    if seq.kind == GAUSS_Q and seq.q < 1 and lam * (1 - seq.q) >= 1:
        raise NonConvergentError(
            f"exp_psi diverges for {seq.label} at lam={lam}: need lam < {1 / (1 - seq.q)}"
        )
    if ratio_threshold is None:
        ratio_threshold = default_ratio_threshold(seq, lam)
    return lam, ratio_threshold


def psi_exp(seq: PsiSequence, lam, ratio_threshold=None) -> CertifiedValue:
    """Certified interval for exp_psi(lam) = sum_k lam**k / factorial(k)."""
    lam, thr = _admissible(seq, lam, ratio_threshold)
    return certified_sum(lambda k: lam**k / seq.factorial(k), thr)


def _normalized_sum(
    seq: PsiSequence, lam, pos, neg=None, ratio_threshold=None, normalizer=None
) -> CertifiedValue:
    """Certified exp_psi(lam)**-1 * sum_k (pos(k) - neg(k)) * lam**k / factorial(k).

    pos and neg (None for zero) are non-negative weights, each summed as its
    own non-negative series as certified_sum requires.
    """
    lam, thr = _admissible(seq, lam, ratio_threshold)
    if normalizer is None:
        normalizer = psi_exp(seq, lam, thr)

    def series(weight) -> CertifiedValue:
        if weight is None:
            return CertifiedValue(Fraction(0), Fraction(0))
        return certified_sum(lambda k: weight(k) * lam**k / seq.factorial(k), thr)

    return (series(pos) - series(neg)).div_by_positive(normalizer)


@dataclass(frozen=True)
class PsiPoissonDistribution:
    """Poisson-type distribution p_k = lam**k / (factorial(k) * exp_psi(lam)).

    The normalizer interval is computed once at construction and reused by
    every pmf query, so the bounds for different k share the same certified
    denominator.
    """

    seq: PsiSequence
    lam: Fraction
    normalizer: CertifiedValue

    @classmethod
    def create(cls, seq: PsiSequence, lam, ratio_threshold=None) -> "PsiPoissonDistribution":
        return cls(seq, Fraction(lam), psi_exp(seq, lam, ratio_threshold=ratio_threshold))

    def pmf(self, k: int) -> tuple[Fraction, Fraction]:
        """Exact bounds (lower, upper) for the probability of k."""
        if k < 0:
            raise ValueError("k must be non-negative")
        numer = self.lam**k / self.seq.factorial(k)
        return numer / self.normalizer.hi, numer / self.normalizer.lo


def moment_functional(
    seq: PsiSequence,
    lam,
    p: Poly,
    ratio_threshold=None,
    normalizer: CertifiedValue | None = None,
) -> CertifiedValue:
    """Certified interval for the normalized moment of a polynomial.

    Computes exp_psi(lam)**-1 * sum_k p(psi(k)) * lam**k / factorial(k).
    Mixed-sign polynomials are split by monomial sign into two non-negative
    series whose intervals are subtracted.
    """

    def weight(sign: int):
        part = Poly(tuple(max(sign * c, 0) for c in p.coeffs), p.var)
        return (lambda k: part.evaluate(seq.value(k))) if part else None

    return _normalized_sum(seq, lam, weight(1), weight(-1), ratio_threshold, normalizer)


def verify_falling_moment(seq: PsiSequence, n: int, ratio_threshold=None) -> CertifiedValue:
    """Interval for the normalized n-th falling-factorial moment at lam = 1.

    The true value is exactly 1 for every admissible sequence: the first n
    terms vanish and the rest shift down to exp_psi(1) again.  The returned
    interval must therefore contain 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _normalized_sum(seq, 1, lambda k: seq.falling(k, n), ratio_threshold=ratio_threshold)


def dobinski_bell(seq: PsiSequence, n: int, ratio_threshold=None) -> CertifiedValue:
    """Interval for the normalized n-th power moment at lam = 1.

    For the classical sequence this brackets the n-th Bell number; for a
    Gauss sequence it brackets the Carlitz q-Bell polynomial evaluated at q.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _normalized_sum(seq, 1, lambda k: seq.value(k) ** n, ratio_threshold=ratio_threshold)


def rota_bell_exact(n: int) -> int:
    """The n-th Bell number as the row sum of the second-kind triangle."""
    return sum(stirling2(n, k) for k in range(n + 1))


def poisson_moment_exact(p: Poly):
    """Apply the exact moment functional: substitute the m-th power by the m-th Bell number.

    For scalar coefficients the result is a Fraction; polynomial coefficients
    (powers of x weighted by q-polynomials) pass through coefficient-wise and
    yield a polynomial.
    """
    acc = Fraction(0)
    for m, c in enumerate(p.coeffs):
        acc = acc + c * rota_bell_exact(m)
    return acc


@dataclass(frozen=True)
class TruncatedSeries:
    """Power-series prefix: coefficients 0..truncation_order, all exact."""

    coefficients: tuple[Fraction, ...]
    truncation_order: int

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )
        if len(self.coefficients) != self.truncation_order + 1:
            raise ValueError("coefficient count must equal truncation_order + 1")

    @classmethod
    def of(cls, coefficients) -> "TruncatedSeries":
        cs = tuple(coefficients)
        return cls(cs, len(cs) - 1)


def jackson_derivative(s: TruncatedSeries, q) -> TruncatedSeries:
    """q-difference operator on a truncated series: a_n -> [n]_q * a_n at degree n-1.

    At q = 1 this is the ordinary formal derivative.  The derivative of a
    constant (or empty) prefix truncates to the empty series.
    """
    q = Fraction(q)
    coeffs = tuple(
        s.coefficients[n] * gauss_number(n, q) for n in range(1, s.truncation_order + 1)
    )
    return TruncatedSeries(coeffs, len(coeffs) - 1)


@dataclass(frozen=True)
class GeneratingFunctionCheck:
    """Verdicts of the generating-function route; mean_ok is None when skipped."""

    coefficient_ok: bool
    mean_ok: bool | None

    @property
    def passed(self) -> bool:
        return self.coefficient_ok and self.mean_ok is not False


def verify_pmf_via_generating_function(
    seq: PsiSequence,
    lam,
    n: int,
    order: int,
    ratio_threshold=None,
) -> GeneratingFunctionCheck:
    """Check the pmf against its generating function G(t) = sum_k p_k t**k.

    Verdict 1: the n-th q-difference of the truncated series at t = 0,
    divided by the numeric q-factorial of n, must reproduce the k = n series
    coefficient exactly.  The common normalizer of the pmf cancels on both
    sides, so this is an exact equality of rationals and stays meaningful
    even at lam where the normalizer itself diverges.

    Verdict 2 (only at lam = 1, where the mean identity holds): a certified
    interval for the normalized value of the q-difference of G at t = 1 must
    contain 1.  At other lam the verdict is reported as skipped (None).

    Only classical and gauss-q sequences carry the numeric q needed by the
    q-difference operator.
    """
    if seq.kind not in (CLASSICAL, GAUSS_Q):
        raise ValueError("generating-function check needs a classical or gauss-q sequence")
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if order < n:
        raise ValueError("order must be at least n")
    qv = Fraction(1) if seq.kind == CLASSICAL else seq.q

    coeffs = [lam**k / seq.factorial(k) for k in range(order + 1)]
    series = TruncatedSeries.of(coeffs)
    for _ in range(n):
        series = jackson_derivative(series, qv)
    at_zero = series.coefficients[0] if series.coefficients else Fraction(0)
    coefficient_ok = at_zero / gauss_factorial(n, qv) == coeffs[n]

    mean_ok = None
    if lam == 1:
        mean = _normalized_sum(seq, lam, lambda k: gauss_number(k, qv), ratio_threshold=ratio_threshold)
        mean_ok = mean.contains(1)
    return GeneratingFunctionCheck(coefficient_ok, mean_ok)
