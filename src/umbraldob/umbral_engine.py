"""Admissible psi-sequences and the classical / Carlitz q-Stirling towers.

A psi-sequence assigns an exact rational to every non-negative index, with
value 0 at index 0 and positive values afterwards.  The kinds are the
Gauss q-brackets [k]_q = 1 + q*[k-1]_q for a positive rational q, the
classical integers, which are the brackets at q = 1 (bracket_q names the
q), and the Fibonacci numbers; each is defined at every index and never
decreases, so every series that reads one has a tail.  From such a
sequence we get generalized factorials and falling factorials.  Every
Stirling tower comes from one three-term recurrence builder,
T(n+1,k) = left(n,k)*T(n,k-1) + right(n,k)*T(n,k) from a seed T(0,0) that
fixes the ring: after Carlitz (Duke Math. J. 15, 1948), left q**(k-1) and
right [k]_q from 1 in the ring of q give the Carlitz q-analogue, and at the
int 1 that is the classical int triangle.  No table is cached: each caller
builds the tower it reads and holds it.  poisson_moment_exact, the exact
moment functional, weights coefficient m of a coefficient sequence by B(m).
"""

import threading
from fractions import Fraction
from math import comb

from .exact_core import Poly, Record

CLASSICAL = "classical"
GAUSS_Q = "gauss-q"
FIBONACCI = "fibonacci"


class PsiSequence(Record):
    """An admissible sequence of exact rationals: psi(0)=0, psi(n)>0 for n>=1.

    Its value is (kind, q); q is None unless the kind is gauss-q.  The classical
    integers are the Gauss brackets at q = 1: bracket_q is 1 for them, q for
    gauss-q and None for Fibonacci.  Every psi(n) is read from one prefix grown
    from psi(0) = 0.  The prefixes of values and factorials grow under its lock,
    so threads sharing a sequence get single-thread results.
    """

    __slots__ = ("kind", "q", "_prefix", "_factorials", "_lock")

    def __init__(self, kind: str, q=None):
        if kind == GAUSS_Q:
            q = Fraction(q)
            if q <= 0:
                raise ValueError("gauss-q sequences need q > 0")
        elif kind not in (CLASSICAL, FIBONACCI):
            raise ValueError(f"unknown sequence kind {kind!r}")
        elif q is not None:
            raise ValueError("only gauss-q sequences take q")
        self._init(kind=kind, q=q, _prefix=[Fraction(0)], _factorials=[Fraction(1)], _lock=threading.RLock())

    @classmethod
    def classical(cls) -> "PsiSequence":
        return cls(CLASSICAL)

    @classmethod
    def gauss_q(cls, q) -> "PsiSequence":
        return cls(GAUSS_Q, q=q)

    @classmethod
    def fibonacci(cls) -> "PsiSequence":
        return cls(FIBONACCI)

    @property
    def label(self) -> str:
        """The name a record prints: q=<q> for a Gauss sequence, else the kind."""
        return f"q={self.q}" if self.kind == GAUSS_Q else self.kind

    @property
    def bracket_q(self) -> int | Fraction | None:
        """The q with psi(k) = [k]_q: 1 for classical, q for gauss-q, None for Fibonacci."""
        return 1 if self.kind == CLASSICAL else self.q  # q is None unless the kind is gauss-q

    def value(self, n: int) -> Fraction:
        """psi(n), grown from the prefix by the kind's recurrence."""
        if n < 0:
            raise ValueError("sequence index must be non-negative")
        vals = self._prefix
        with self._lock:
            while len(vals) <= n:
                k = len(vals)
                if self.kind == FIBONACCI:
                    vals.append(Fraction(1) if k == 1 else vals[k - 1] + vals[k - 2])
                else:  # [k]_q = 1 + q*[k-1]_q
                    vals.append(1 + self.bracket_q * vals[k - 1])
        return vals[n]

    def factorial(self, n: int) -> Fraction:
        """psi(n)*psi(n-1)*...*psi(1); the empty product 1 at n=0."""
        if n < 0:
            raise ValueError("factorial index must be non-negative")
        fac = self._factorials
        with self._lock:
            while len(fac) <= n:
                fac.append(fac[-1] * self.value(len(fac)))
        return fac[n]

    def falling(self, x: int, k: int) -> Fraction:
        """psi(x)*psi(x-1)*...*psi(x-k+1); zero as soon as the index-0 value enters."""
        if x < 0 or k < 0:
            raise ValueError("falling factorial needs non-negative arguments")
        self.value(x)  # grows the prefix through x
        if k > x:
            return Fraction(0)
        num = den = 1  # one reduction at the end instead of one per factor
        for v in self._prefix[x - k + 1 : x + 1]:
            num, den = num * v.numerator, den * v.denominator
        return Fraction(num, den)


def q_number_symbolic(n: int) -> Poly:
    """The q-bracket 1 + q + ... + q**(n-1) as a polynomial; zero for n=0."""
    if n < 0:
        raise ValueError("q-bracket index must be non-negative")
    return Poly((1,) * n)


class StirlingTable(Record):
    """Triangular array of Stirling entries: row n holds n + 1, and n_max is the last row's n.

    The entries are ints for the classical triangle, and polynomials for the q-towers or
    Fractions for a Carlitz tower at a rational q; every entry of one table lies in one ring.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int | Fraction | Poly, ...], ...]):
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")
        self._init(rows=rows)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> int | Fraction | Poly:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} outside table (n_max={self.n_max})")
        if not 0 <= k <= n:
            raise ValueError(f"column {k} outside row {n}")
        return self.rows[n][k]


def recurrence_table(n_max: int, left, right, seed: int | Fraction | Poly) -> StirlingTable:
    """Rows 0..n_max of T(n+1,k) = left(n,k)*T(n,k-1) + right(n,k)*T(n,k), T(0,0) = seed.

    The seed fixes the ring of the entries (1 for ints, Poly((1,)) for
    polynomials); the weights may be ints or polynomials, and entries outside
    0 <= k <= n are the ring's zero.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    zero = seed * 0
    rows = [(seed,)]
    for n in range(n_max):
        prev = rows[-1] + (zero,)
        rows.append(
            tuple(
                (left(n, k) * prev[k - 1] if k else zero) + right(n, k) * prev[k]
                for k in range(n + 2)
            )
        )
    return StirlingTable(tuple(rows))


def carlitz_q_stirling(n_max: int, q=None) -> StirlingTable:
    """Carlitz q-Stirling triangle: S(n+1,k) = q**(k-1)*S(n,k-1) + [k]_q*S(n,k).

    This is the recurrence of Carlitz (Duke Math. J. 15, 1948).  Its rows are the coefficients
    of the defining expansion [j]_q**n = sum_k entry(n,k) * [j]_q*[j-1]_q*...*[j-k+1]_q, which
    psi_stirling_diagnostic solves independently at a rational q.  The weights q**k and [k]_q
    are built once in the ring of q: polynomials when q is None, else q's own ring (ints at the
    int 1, Fractions at a Fraction q), which gives the polynomial tower evaluated at q, since
    evaluation is a ring map; at the int 1 that is the classical int triangle.
    """
    x = Poly((0, 1)) if q is None else q
    powers, brackets = [x * 0 + 1], [x * 0]  # q**0 and [0]_q in the ring of x
    for _ in range(n_max):
        powers.append(powers[-1] * x)
        brackets.append(brackets[-1] + powers[-2])
    return recurrence_table(n_max, lambda n, k: powers[k - 1], lambda n, k: brackets[k], powers[0])


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks: the Carlitz tower at the int 1."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    if k > n:
        return 0
    return carlitz_q_stirling(n, 1).entry(n, k)


def bell_via_sum(table: StirlingTable, n: int) -> int | Fraction | Poly:
    """Row sum of a Stirling table in its own ring: the Bell number or polynomial."""
    first = table.entry(n, 0)  # checks n before the row is read
    return sum(table.rows[n][1:], first)


def q_poisson_moments(q, lam, n_max: int) -> list:
    """M_0..M_n_max, where M_n is E[[X]_q**n] under the q-Poisson law p_k ~ lam**k / [k]_q!.

    For a psi-Poisson law E[psi(X)*f(X)] = lam*E[f(X+1)], since psi(k)/psi!(k) = 1/psi!(k-1)
    (the Stein-Chen identity: Chen, Ann. Probab. 3, 1975).  With f = [X]_q**n and
    [k+1]_q = 1 + q*[k]_q it gives M_{n+1} = lam * sum_j C(n,j) * q**j * M_j from M_0 = 1,
    the Bell-Touchard recurrence at q = 1.  It reads q, lam and binomials only: no sequence,
    tower or series, so at lam = 1 it is an independent reference for every q-Bell number.
    """
    moments, weighted = [1], []  # weighted[j] = q**j * M_j
    for n in range(n_max):
        weighted.append(q**n * moments[n])
        moments.append(lam * sum(comb(n, j) * weighted[j] for j in range(n + 1)))
    return moments


def poisson_moment_exact(coeffs):
    """The exact moment functional: sum of coeffs[m] * B(m), the m-th power read as the m-th Bell number.

    B(m) is q_poisson_moments at q = lam = 1, the Bell-Touchard recurrence, so no Stirling tower is read.
    Scalar coefficients give a Fraction, and q-polynomial ones, as in a product of cigl_q_powers, a Poly.
    """
    bell, acc = q_poisson_moments(1, 1, max(len(coeffs) - 1, 0)), Fraction(0)
    for c, b in zip(coeffs, bell):
        acc = acc + c * b
    return acc


def psi_stirling_diagnostic(
    seq: PsiSequence, n: int, probe_limit: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Fit a constant-coefficient falling-factorial expansion, then probe it.

    Solves value(j)**n = sum_k c_k * falling(j, k) at the points j = 0..n
    (lower triangular, pivot factorial(j) > 0) and returns the coefficients
    c_0..c_n together with the residuals of the same expansion at the probe
    points k = n+1..probe_limit.  All-zero residuals certify that the
    sequence admits a constant-coefficient Stirling expansion at this degree;
    a nonzero residual is an exact witness that it does not.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if probe_limit <= n:
        raise ValueError("probe_limit must exceed the degree")
    coeffs: list[Fraction] = []
    for j in range(n + 1):
        acc = seq.value(j) ** n
        for k in range(j):
            acc -= coeffs[k] * seq.falling(j, k)
        coeffs.append(acc / seq.factorial(j))
    residuals = []
    for k in range(n + 1, probe_limit + 1):
        fit = sum((coeffs[j] * seq.falling(k, j) for j in range(n + 1)), Fraction(0))
        residuals.append(seq.value(k) ** n - fit)
    return coeffs, residuals
