"""Admissible psi-sequences and the classical / Carlitz q-Stirling towers.

A psi-sequence assigns an exact rational to every non-negative index, with
value 0 at index 0 and positive values afterwards.  The built-in kinds are
the classical integers, the Gauss q-brackets for a positive rational q, the
Fibonacci numbers, and user-supplied finite tables.  From such a sequence we
get generalized factorials and falling factorials, and from the symbolic
q-bracket we build the Carlitz q-Stirling triangle by a triangular solve.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InconsistentSystemError, OutOfRangeError
from .exact_core import Poly

CLASSICAL = "classical"
GAUSS_Q = "gauss-q"
FIBONACCI = "fibonacci"
CUSTOM = "custom"


@dataclass(frozen=True)
class PsiSequence:
    """An admissible sequence of exact rationals: psi(0)=0, psi(n)>0 for n>=1.

    Prefixes of values and factorials belong to the instance and grow under
    its lock, so threads sharing a sequence get single-thread results.
    """

    kind: str
    q: Fraction | None = None
    values: tuple[Fraction, ...] | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_prefix", [Fraction(0)])
        object.__setattr__(self, "_factorials", [Fraction(1)])
        object.__setattr__(self, "_lock", threading.RLock())
        if self.kind == GAUSS_Q:
            q = Fraction(self.q)
            if q <= 0:
                raise ValueError("gauss-q sequences need q > 0")
            object.__setattr__(self, "q", q)
            if not self.label:
                object.__setattr__(self, "label", f"q={q}")
        elif self.kind == CUSTOM:
            vals = tuple(Fraction(v) for v in self.values or ())
            if not vals or vals[0] != 0 or any(v <= 0 for v in vals[1:]):
                raise ValueError(
                    "custom sequences must start at 0 and stay positive afterwards"
                )
            object.__setattr__(self, "values", vals)
            if not self.label:
                object.__setattr__(self, "label", "custom")
        elif self.kind in (CLASSICAL, FIBONACCI):
            if not self.label:
                object.__setattr__(self, "label", self.kind)
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    @classmethod
    def classical(cls) -> "PsiSequence":
        return cls(CLASSICAL)

    @classmethod
    def gauss_q(cls, q) -> "PsiSequence":
        return cls(GAUSS_Q, q=Fraction(q))

    @classmethod
    def fibonacci(cls) -> "PsiSequence":
        return cls(FIBONACCI)

    @classmethod
    def custom(cls, values: Iterable, label: str = "") -> "PsiSequence":
        return cls(CUSTOM, values=tuple(Fraction(v) for v in values), label=label)

    def value(self, n: int) -> Fraction:
        """psi(n); OutOfRangeError past the end of a custom table."""
        if n < 0:
            raise ValueError("sequence index must be non-negative")
        if self.kind == CUSTOM:
            if n >= len(self.values):
                raise OutOfRangeError(
                    f"custom sequence has {len(self.values)} values, index {n} requested"
                )
            return self.values[n]
        vals = self._prefix
        with self._lock:
            while len(vals) <= n:
                k = len(vals)
                if self.kind == CLASSICAL:
                    vals.append(Fraction(k))
                elif self.kind == FIBONACCI:
                    vals.append(Fraction(1) if k == 1 else vals[k - 1] + vals[k - 2])
                else:  # GAUSS_Q: [k]_q = 1 + q*[k-1]_q
                    vals.append(1 + self.q * vals[k - 1])
        return vals[n]

    def factorial(self, n: int) -> Fraction:
        """psi(n)*psi(n-1)*...*psi(1); the empty product 1 at n=0."""
        if n < 0:
            raise ValueError("factorial index must be non-negative")
        fac = self._factorials
        with self._lock:
            while len(fac) <= n:
                # through value(), which also reads custom tables
                fac.append(fac[-1] * self.value(len(fac)))
        return fac[n]

    def falling(self, x: int, k: int) -> Fraction:
        """psi(x)*psi(x-1)*...*psi(x-k+1); zero as soon as the index-0 value enters."""
        if x < 0 or k < 0:
            raise ValueError("falling factorial needs non-negative arguments")
        out = Fraction(1)
        for j in range(k):
            arg = x - j
            if arg == 0:
                return Fraction(0)
            out *= self.value(arg)
        return out


def q_number_symbolic(n: int) -> Poly:
    """The q-bracket 1 + q + ... + q**(n-1) as a polynomial; zero for n=0."""
    if n < 0:
        raise ValueError("q-bracket index must be non-negative")
    return Poly((1,) * n)


def gauss_number(n: int, q) -> Fraction:
    """Numeric q-bracket at a rational q."""
    q = Fraction(q)
    acc, p = Fraction(0), Fraction(1)
    for _ in range(n):
        acc += p
        p *= q
    return acc


def gauss_factorial(n: int, q) -> Fraction:
    """Numeric q-factorial at a rational q."""
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= gauss_number(k, q)
    return out


# Rows 0..m of the second-kind triangle, appended only under the lock.
_STIRLING_ROWS: list[list[int]] = [[1]]
_STIRLING_LOCK = threading.Lock()


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    if k > n:
        return 0
    with _STIRLING_LOCK:
        while len(_STIRLING_ROWS) <= n:
            m = len(_STIRLING_ROWS)
            prev = _STIRLING_ROWS[m - 1]
            row = [0] * (m + 1)
            for j in range(1, m + 1):
                row[j] = (prev[j - 1] if j - 1 < len(prev) else 0) + j * (
                    prev[j] if j < len(prev) else 0
                )
            _STIRLING_ROWS.append(row)
    return _STIRLING_ROWS[n][k]


@dataclass(frozen=True)
class StirlingTable:
    """Triangular array of polynomial Stirling entries, rows 0..n_max."""

    n_max: int
    rows: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.n_max + 1:
            raise ValueError("row count must be n_max + 1")
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries")

    def entry(self, n: int, k: int) -> Poly:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} outside table (n_max={self.n_max})")
        if not 0 <= k <= n:
            raise ValueError(f"column {k} outside row {n}")
        return self.rows[n][k]


def classical_stirling_table(n_max: int) -> StirlingTable:
    """The second-kind triangle as degree-0 polynomial entries."""
    rows = tuple(
        tuple(Poly((stirling2(n, k),)) for k in range(n + 1)) for n in range(n_max + 1)
    )
    return StirlingTable(n_max, rows)


def carlitz_q_stirling(n_max: int) -> StirlingTable:
    """Carlitz q-Stirling triangle from the defining q-power expansion.

    Row n is pinned down by requiring that the n-th power of the q-bracket
    expands over falling q-bracket products at the integer points j = 0..n:

        [j]_q**n = sum_k entry(n,k) * [j]_q*[j-1]_q*...*[j-k+1]_q

    The falling products vanish for k > j, so the system is lower triangular
    with pivot [j]_q! and every division is exact in Q[q].  Entries must come
    out with non-negative integer coefficients; anything else raises
    InconsistentSystemError (which would mean the solve itself is broken).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    qn = [q_number_symbolic(j) for j in range(n_max + 1)]
    falling: list[list[Poly]] = []
    for j in range(n_max + 1):
        row = [Poly((1,))]
        for k in range(1, j + 1):
            row.append(row[k - 1] * qn[j - k + 1])
        falling.append(row)
    rows = []
    for n in range(n_max + 1):
        entries: list[Poly] = []
        for j in range(n + 1):
            acc = qn[j] ** n
            for k in range(j):
                acc = acc - entries[k] * falling[j][k]
            try:
                e = acc.exact_div(falling[j][j])
            except ValueError as exc:
                raise InconsistentSystemError(
                    f"row {n}, column {j}: pivot division left a remainder"
                ) from exc
            for c in e.coeffs:
                c = Fraction(c)
                if c.denominator != 1 or c < 0:
                    raise InconsistentSystemError(
                        f"row {n}, column {j}: coefficient {c} is not a non-negative integer"
                    )
            entries.append(e)
        rows.append(tuple(entries))
    return StirlingTable(n_max, tuple(rows))


def bell_via_sum(table: StirlingTable, n: int) -> Poly:
    """Row sum of a Stirling table: the matching Bell number or polynomial."""
    acc = Poly(())
    for k in range(n + 1):
        acc = acc + table.entry(n, k)
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
