"""Generalized exponentials, Poisson-type distributions, and moment identities.

The central objects are certified rational intervals for series of the form
sum_k p(psi(k)) * lam**k / psi-factorial(k), normalized by the generalized
exponential exp_psi(lam) = sum_k lam**k / psi-factorial(k).  At lam = 1 the
normalized falling-factorial moments are exactly 1 and the power moments
recover the Bell tower, which is what the verify_* routines check;
rota_bell_exact gives the Bell number with no interval, as a row sum of the
classical Stirling triangle.  A sweep over n sums the normalizer exp_psi(1)
once and builds the terms of row n from those of row n-1, one psi factor each
(entry (n, k) is falling(k, n) / psi!(k) or psi(k)**n / psi!(k), never the
shifted 1 / psi!(k-n)); the generating-function route runs one q-difference
chain and one mean sum per sweep.

Every series is truncated by one rule: certified_sum with the threshold
default_ratio_threshold(seq, lam), which also rejects lam outside the domain
of exp_psi.  No function here takes a per-call summation setting.
"""

from fractions import Fraction
from typing import Iterable, NamedTuple

from . import exact_core
from .errors import NonConvergentError
from .exact_core import CertifiedValue, certified_sum
from .umbral_engine import PsiSequence, bell_via_sum, classical_stirling_table, q_number_symbolic


def default_ratio_threshold(seq: PsiSequence, lam) -> Fraction:
    """The truncation threshold of every certified series of exp_psi type at lam.

    This is the one place where the summation rule meets the sequence: it
    rejects lam <= 0 (ValueError) and lam outside the radius of exp_psi
    (NonConvergentError), and otherwise returns a threshold safely above the
    asymptotic term ratio: 1/2, or (1 + rho)/2 for a Gauss sequence with q < 1.
    There the brackets tend to 1/(1-q), so the term ratios tend to
    rho = lam*(1-q) > 0; at rho >= 1 the terms do not even tend to zero, so this
    fails fast instead of grinding toward the summation cap on ever-larger exact
    rationals.  Below that, rho can exceed 1/2 (q=1/4 at lam=1 gives 3/4), and
    the midpoint (1 + rho)/2, always above 1/2, keeps the threshold reachable
    while the geometric tail bound stays finite.  At q >= 1 (classical is q = 1)
    and for Fibonacci the ratios tend to 0.

    It is also the one place that proves certified_sum's tail bound: past
    the truncation point K, no term ratio of a series the package sums rises,
    so its tail is at most term(K+1)/(1 - threshold) at any threshold.
    - Ratio c / psi(j), which never rises because psi never decreases
      ([k+1]_q = [k]_q + q**k): lam / psi(k+1) for exp_psi, 1 / psi(k-n+1)
      for falling row n, and 1 / psi(k) for the pmf-gf mean.
    - Power row n, (psi(k+1)/psi(k))**n / psi(k+1).  Classical and Gauss psi
      are log-concave: psi(k)**2 - psi(k-1)*psi(k+1) is 1 or q**(k-1).  For
      Fibonacci, Cassini's identity bounds psi(k+2)*psi(k)/psi(k+1)**2 by
      1 + 1/psi(k+1)**2, and psi(k+2)/psi(k+1) >= 3/2 for k >= 1, so the
      ratio can rise only while psi(k+1)**2 < n/ln(3/2); a truncation point
      K at threshold 1/2 and lam = 1 has psi(K+1) >= 2*(3/2)**n, past that.
    Each ratio is at least lam / psi(k+1) (the rows are summed at lam = 1),
    so where no psi(k) * threshold reaches lam for k <= SUM_CAP, this raises
    certified_sum's NonConvergentError at once instead of after summing.
    """
    lam, thr = Fraction(lam), Fraction(1, 2)
    if lam <= 0:
        raise ValueError("lam must be positive")
    q = seq.bracket_q
    if q is not None and q < 1:
        rho = lam * (1 - q)
        if rho >= 1:
            raise NonConvergentError(f"exp_psi diverges for {seq.label} at lam={lam}: need lam < {1 / (1 - q)}")
        thr = (1 + rho) / 2
    cap = exact_core.SUM_CAP
    if not any(seq.value(k) * thr >= lam for k in range(1, cap + 1)):
        raise NonConvergentError(f"no certified truncation point within hard cap {cap}")
    return thr


def psi_exp(seq: PsiSequence, lam) -> CertifiedValue:
    """Certified interval for exp_psi(lam) = sum_k lam**k / factorial(k)."""
    thr, lam = default_ratio_threshold(seq, lam), Fraction(lam)
    return certified_sum(lambda k: lam**k / seq.factorial(k), thr)


class PsiPoissonDistribution(NamedTuple):
    """Poisson-type distribution p_k = lam**k / (factorial(k) * exp_psi(lam)).

    The normalizer interval is computed once at construction and reused by
    every pmf query, so the bounds for different k share the same certified
    denominator.
    """

    seq: PsiSequence
    lam: Fraction
    normalizer: CertifiedValue

    @classmethod
    def create(cls, seq: PsiSequence, lam) -> "PsiPoissonDistribution":
        return cls(seq, Fraction(lam), psi_exp(seq, lam))

    def pmf(self, k: int) -> tuple[Fraction, Fraction]:
        """Exact bounds (lower, upper) for the probability of k."""
        if k < 0:
            raise ValueError("k must be non-negative")
        numer = self.lam**k / self.seq.factorial(k)
        return numer / self.normalizer.hi, numer / self.normalizer.lo


def _moments(seq: PsiSequence, ns: Iterable[int], power: bool) -> list[CertifiedValue]:
    """Certified exp_psi(1)**-1 * sum_k w(k, n) / factorial(k) for each n in ns in turn, at lam = 1.

    w(k, n) is psi(k)**n if power, else falling(k, n); exp_psi(1) is summed once
    for all.  Where row n-1 was summed just before and reached k, entry (n, k)
    is entry (n-1, k) times one factor, psi(k) or psi(k-n+1), and a zero entry
    stays zero; any other entry is computed from w.
    """
    thr, normalizer = default_ratio_threshold(seq, 1), psi_exp(seq, 1)
    sums, row, last = [], [], None
    for n in ns:
        above, row, last = row if last == n - 1 else [], [], n

        def entry(k: int) -> Fraction:
            if k < len(above):
                v = above[k] and above[k] * seq.value(k if power else k - n + 1)
            else:
                v = (seq.value(k) ** n if power else seq.falling(k, n)) / seq.factorial(k)
            if k == len(row):
                row.append(v)
            return v

        sums.append(certified_sum(entry, thr).div_by_positive(normalizer))
    return sums


def falling_moments(seq: PsiSequence, ns: Iterable[int]) -> list[CertifiedValue]:
    """verify_falling_moment for each n in ns, against one sum of exp_psi(1)."""
    return _moments(seq, ns, power=False)


def verify_falling_moment(seq: PsiSequence, n: int) -> CertifiedValue:
    """Interval for the normalized n-th falling-factorial moment at lam = 1.

    The true value is exactly 1 for every admissible sequence: the first n
    terms vanish and the rest shift down to exp_psi(1) again.  The returned
    interval must therefore contain 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return falling_moments(seq, [n])[0]


def dobinski_bells(seq: PsiSequence, ns: Iterable[int]) -> list[CertifiedValue]:
    """dobinski_bell for each n in ns, against one sum of exp_psi(1)."""
    return _moments(seq, ns, power=True)


def dobinski_bell(seq: PsiSequence, n: int) -> CertifiedValue:
    """Interval for the normalized n-th power moment at lam = 1.

    For the classical sequence this brackets the n-th Bell number; for a
    Gauss sequence it brackets the Carlitz q-Bell polynomial evaluated at q.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return dobinski_bells(seq, [n])[0]


def rota_bell_exact(n: int) -> int:
    """The n-th Bell number as the row sum of the second-kind triangle."""
    return bell_via_sum(classical_stirling_table(n), n)


def jackson_derivative(coefficients: tuple, q) -> tuple:
    """q-difference operator on a series prefix: a_n -> [n]_q * a_n at degree n-1.

    The bracket is carried along the loop as [n]_q = 1 + q*[n-1]_q.  At q = 1
    this is the formal derivative; a constant (or empty) prefix gives the empty series.
    """
    q = Fraction(q)
    coeffs, bracket = [], Fraction(0)
    for c in coefficients[1:]:
        bracket = 1 + q * bracket
        coeffs.append(c * bracket)
    return tuple(coeffs)


class GeneratingFunctionCheck(NamedTuple):
    """Verdicts of the generating-function route; mean_ok is None when skipped."""

    coefficient_ok: bool
    mean_ok: bool | None


def generating_function_checks(seq: PsiSequence, lam, n_max: int) -> list[GeneratingFunctionCheck]:
    """Check the pmf against its generating function G(t) = sum_k p_k t**k, for n = 0..n_max.

    Verdict 1: the n-th q-difference of the series cut after degree n_max, at t = 0,
    must be lam**n, since D_q e_q(lam*t) = lam * e_q(lam*t); divided by the
    q-factorial of n built from q_number_symbolic, it must also reproduce the
    k = n series coefficient exactly.  The first equality reads psi, which the
    second cancels; the second checks the bracket of jackson_derivative
    against q_number_symbolic.  The common normalizer of the pmf cancels on
    both sides, so both are exact equalities of rationals and stay meaningful
    even at lam where the normalizer itself diverges.

    Verdict 2 (only at lam = 1, where the mean identity holds): a certified
    interval for the normalized value of the q-difference of G at t = 1 must
    contain 1.  At other lam the verdict is reported as skipped (None).

    Neither verdict needs a new chain per n: check n reads one shared chain
    of q-differences after n steps, and the mean does not depend on n.
    The q-difference operator reads the sequence's bracket_q, which only the
    Gauss brackets carry (classical at q = 1).
    """
    qv = seq.bracket_q
    if qv is None:
        raise ValueError("generating-function check needs a classical or gauss-q sequence")
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n_max < 0:
        raise ValueError("n must be non-negative")

    coeffs = [lam**k / seq.factorial(k) for k in range(n_max + 1)]
    mean_ok = None
    if lam == 1:
        thr, normalizer = default_ratio_threshold(seq, 1), psi_exp(seq, 1)
        mean = certified_sum(lambda k: q_number_symbolic(k).evaluate(qv) / seq.factorial(k), thr)
        mean_ok = mean.div_by_positive(normalizer).contains(1)
    series, q_factorial, checks = tuple(coeffs), Fraction(1), []
    for n in range(n_max + 1):
        if n:
            series = jackson_derivative(series, qv)
            q_factorial *= q_number_symbolic(n).evaluate(qv)
        checks.append(GeneratingFunctionCheck(series[0] == lam**n and series[0] / q_factorial == coeffs[n], mean_ok))
    return checks


def verify_pmf_via_generating_function(seq: PsiSequence, lam, n: int, order: int) -> GeneratingFunctionCheck:
    """The verdicts of generating_function_checks for one n; order >= n, but no coefficient past n is read."""
    if order < n:
        raise ValueError("order must be at least n")
    return generating_function_checks(seq, lam, n)[n]
