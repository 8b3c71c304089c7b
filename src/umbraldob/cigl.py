"""Set partitions, the zero-block element-sum statistic, and its q-tower.

Partitions of {0, ..., n-1} are handled as restricted growth strings: entry
i is the index of the block containing i, blocks numbered by first
appearance, so rgs[0] = 0 and rgs[i] <= 1 + max(rgs[:i]).  The statistic
attached to a partition is the sum of the elements in the block containing
0.  Counting partitions weighted by q**statistic gives q-analogues of the
Stirling and Bell numbers that are genuinely different from the Carlitz
ones, yet satisfy their own exact Dobinski-type identity, checked here by a
product of shifted powers, walked by shift and subtract, against Bell numbers.  The
weighted counts T(n,k) over k-block partitions obey the recurrence
T(n+1,k) = T(n,k-1) + (q**n + k - 1)*T(n,k) from T(0,0) = 1, and the tower
is built from it; enumeration stays the independent check.  The oracle's
counts walk the strings level by level and keep one byte per string, its
block count, never the string itself.
"""

from itertools import count, islice
from typing import Iterator

from .errors import CapExceededError
from .exact_core import Poly
from .umbral_engine import StirlingTable, bell_via_sum, poisson_moment_exact, recurrence_table

# The longest strings enumerate_partitions and partition_counts walk (n = 13 is
# 27.6 million partitions).  The cigl tower is a recurrence and runs at any n;
# the CLI caps its printed cigl-* tables here, so enumeration can check them.
PARTITION_CAP = 13


def _check_cap(n: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > PARTITION_CAP:
        raise CapExceededError(
            f"partition enumeration is capped at n={PARTITION_CAP}, got n={n}"
        )


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every restricted growth string of length n in lexicographic order.

    This is the tuple API, and the tests' reference for every count and
    statistic; the CLI oracle counts with partition_counts, which builds no
    tuples.
    """
    _check_cap(n)
    if n == 0:
        yield ()
        return
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]); position i may hold values 0..b[i]
    yield tuple(a)
    while True:
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        nb = b[i] + 1 if a[i] == b[i] else b[i]
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = nb
        yield tuple(a)


def _levels(n: int) -> Iterator[bytes]:
    """Levels 0..n-1 of the restricted growth string tree, one byte per string: its block count.

    A string with t blocks has t + 1 extensions: the last entries 0..t-1
    keep t blocks and the entry t opens block t + 1.  So level m + 1 is each
    string of level m replaced by its row of an extension table, in
    lexicographic order.  No block count exceeds PARTITION_CAP, so each fits
    in a byte.  Rows are joined 128 at a time: bytes.join holds an 80-byte buffer per part.
    """
    table = [bytes([t]) * t + bytes([t + 1]) for t in range(n)]
    level = bytes(1)  # the empty string, with no blocks
    for m in range(n):
        if m:
            level = b"".join(b"".join(map(table.__getitem__, level[i:i + 128])) for i in range(0, len(level), 128))
        yield level


def partition_counts(n: int) -> list[int]:
    """Number of restricted growth strings of each length 0..n, from one level-by-level walk.

    Every string of length <= n - 1 is built once, as one byte of _levels(n),
    and counts[m + 1] is the sum of t + 1 over level m, so a string of length
    n is counted as an extension and never built.  No count comes from a
    formula over more than one level, and nothing is memoized: counts[m] is
    the Bell number B(m) by brute force, sharing no code with the recurrences
    or the series.
    """
    _check_cap(n)
    return [1] + [sum(level) + len(level) for level in _levels(n)]


def cigl_q_stirling_table(n_max: int) -> StirlingTable:
    """Rows 0..n_max of the zero-block tower: T(n+1,k) = T(n,k-1) + (q**n + k - 1)*T(n,k).

    Element n opens a new block, joins the block of 0 (adding n to the
    statistic), or joins one of the other k - 1 blocks.
    """
    return recurrence_table(n_max, lambda n, k: 1, lambda n, k: Poly.monomial(1, n) + (k - 1), Poly((1,)))


def cigl_q_bell(n: int) -> Poly:
    """Sum of q**statistic over all partitions of an n-set."""
    return bell_via_sum(cigl_q_stirling_table(n), n)


def cigl_q_powers() -> Iterator[tuple[Poly, ...]]:
    """The products x * (x + q - 1) * ... * (x + q**(n-1) - 1) for n = 0, 1, 2, ..., from one walk.

    Product n is the tuple of the q-polynomial coefficients of x**0..x**n, and product 0 is (1,).
    Times x + q**i - 1, coefficient k becomes out[k-1] + q**i*out[k] - out[k]; q**i*out[k] is
    out[k] shifted up i places, so no polynomial multiplies another.  The walk is unbounded.
    """
    out = (Poly((1,)),)
    for i in count():  # a, b = out[k-1], out[k] for k = 0..i+1, with out[-1] = out[i+1] = 0
        yield out
        out = tuple(a + Poly((0,) * i + b.coeffs) - b for a, b in zip((Poly(), *out), (*out, Poly())))


def cigl_q_dobinski_exact(n: int) -> Poly:
    """Exact moment evaluation of the shifted q-power product n.

    Substitutes each power x**k of product n of cigl_q_powers, read with islice, by the Bell
    number B(k), so the result is a sum of q-polynomials times integers.  It must coincide with
    cigl_q_bell(n) as an exact polynomial.  A negative n is islice's ValueError.
    """
    return poisson_moment_exact(next(islice(cigl_q_powers(), n, None)))
