"""Brute-force oracles and an in-process CLI runner for the test-suite.

The oracles are written directly from definitions (recursive block
assignment, exact partial sums) and deliberately avoid the package's own
algorithms, so a test comparing the two routes is a real cross-check.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial, inf
from types import SimpleNamespace

from umbraldob.cli import main
from umbraldob.errors import NegativeTermError, NonConvergentError


class _Capture(io.StringIO):
    """One captured stream that also copies each write, in order, to a log shared with the other stream."""

    def __init__(self, log: io.StringIO):
        super().__init__()
        self.log = log

    def write(self, text: str) -> int:
        self.log.write(text)
        return super().write(text)


def invoke(*args: str):
    """Run the CLI in this process on args; return exit_code, stdout, stderr and output.

    ``output`` is both streams in write order.  The program name is "main",
    so usage errors read "Usage: main table [OPTIONS]".  Any exception other
    than SystemExit propagates.
    """
    log = io.StringIO()
    out, err = _Capture(log), _Capture(log)
    exit_code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args), prog_name="main")
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
    return SimpleNamespace(exit_code=exit_code, stdout=out.getvalue(), stderr=err.getvalue(), output=log.getvalue())


def naive_partitions(n):
    """All restricted growth strings of length n by direct recursive assignment."""
    if n == 0:
        yield ()
        return
    out = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(out)
            return
        for v in range(used + 1):
            out[i] = v
            yield from rec(i + 1, used + 1 if v == used else used)

    yield from rec(1, 1)


def block_count(rgs):
    return max(rgs) + 1 if rgs else 0


def zero_block_sum(rgs):
    return sum(i for i, b in enumerate(rgs) if b == 0)


def naive_bell(n):
    return sum(1 for _ in naive_partitions(n))


def naive_stirling2(n, k):
    return sum(1 for p in naive_partitions(n) if block_count(p) == k)


def partial_sum(term, n_terms):
    """Exact sum of term(0) + ... + term(n_terms - 1)."""
    return sum((Fraction(term(k)) for k in range(n_terms)), Fraction(0))


def exp_partial(n_terms=51):
    """Partial sum of 1/k!, the classical-series reference point."""
    return partial_sum(lambda k: Fraction(1, factorial(k)), n_terms)


def naive_q_difference(coefficients, q, n):
    """The n-th Jackson q-difference of a truncated series, straight from the definition.

    One step moves the coefficient of t**m to t**(m-1), times the power sum
    1 + q + ... + q**(m-1).
    """
    q = Fraction(q)
    cs = [Fraction(c) for c in coefficients]
    for _ in range(n):
        cs = [cs[m] * sum(q**j for j in range(m)) for m in range(1, len(cs))]
    return cs


def naive_gf_coefficient_verdict(coefficients, q, n, lam):
    """Is the n-th q-difference at t = 0 lam**n, and over the power-sum q-factorial of n, coefficient n?"""
    q_factorial = Fraction(1)
    for m in range(1, n + 1):
        q_factorial *= sum(Fraction(q) ** j for j in range(m))
    head = naive_q_difference(coefficients, q, n)[0]
    return head == Fraction(lam) ** n and head / q_factorial == coefficients[n]


def division_certified_sum(term, ratio_threshold, cap=10_000):
    """The truncation of exact_core.certified_sum, written with rational division.

    The ratio term(j+1)/term(j) is a Fraction, with 0/0 read as 0 and x/0 as
    infinite, and K is the first index past the leading zeros whose ratio is
    at most the threshold.  No term past index cap is read, so the last K
    tried is cap - 1.  Returns the interval as a (lo, hi) pair.
    """
    thr = Fraction(ratio_threshold)
    terms = []

    def t(k):
        while len(terms) <= k:
            v = Fraction(term(len(terms)))
            if v < 0:
                raise NegativeTermError(f"term({len(terms)}) = {v} is negative")
            terms.append(v)
        return terms[k]

    support = next((k for k in range(cap + 1) if t(k) > 0), None)
    if support is None:
        return Fraction(0), Fraction(0)

    def ratio(j):
        a, b = t(j), t(j + 1)
        if a == 0:
            return Fraction(0) if b == 0 else inf
        return b / a

    tail_factor = 1 / (1 - thr)
    for k in range(support, cap):
        if ratio(k) <= thr:
            partial = sum(terms[: k + 1], Fraction(0))
            return partial, partial + tail_factor * t(k + 1)
    raise NonConvergentError(f"no certified truncation point within hard cap {cap}")
