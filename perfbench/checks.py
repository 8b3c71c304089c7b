"""Output checks for the benchmark, from references computed here.

Nothing in this file imports umbraldob: every expected value comes from
its own definition (the Bell triangle, the Stirling and Carlitz
recurrences on int lists, exact partial sums with a tail bound), so a check
can never pass because the program agrees with itself.

``check(argv, text)`` parses the stdout of one CLI command and returns the
number of records it held; it raises ``CheckError`` on the first wrong or
missing record.  Intervals (``oracle`` series, ``dist`` bounds) are checked
by containing the exact value, or by being consistent with exact lower and
upper bounds on it, never by their bytes, so a tighter interval still
passes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache


class CheckError(Exception):
    """An output record is missing, malformed or wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ----------------------------------------------------------------- references


@lru_cache(maxsize=None)
def bell_numbers(n: int) -> tuple[int, ...]:
    """B_0..B_n from the Bell triangle: each row starts with the last entry of the previous one."""
    bells, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[0])
    return tuple(bells)


@lru_cache(maxsize=None)
def stirling_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """S(m, k) for m <= n from S(m+1, k) = S(m, k-1) + k*S(m, k)."""
    rows = [(1,)]
    for m in range(n):
        prev = rows[-1] + (0,)
        rows.append(tuple((prev[k - 1] if k else 0) + k * prev[k] for k in range(m + 2)))
    return tuple(rows)


def _strip(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@lru_cache(maxsize=None)
def carlitz_rows(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Carlitz q-Stirling coefficient lists (lowest degree first) for rows 0..n.

    S(m+1, k) = q**(k-1) * S(m, k-1) + [k]_q * S(m, k), with [k]_q = 1 + q + ... + q**(k-1).
    """
    rows = [((1,),)]
    for m in range(n):
        prev = rows[-1] + ((),)
        row = []
        for k in range(m + 2):
            acc = [0] * (max(len(prev[k - 1]) if k else 0, len(prev[k])) + k)
            if k:
                for i, c in enumerate(prev[k - 1]):
                    acc[i + k - 1] += c
                for i, c in enumerate(prev[k]):
                    for j in range(k):
                        acc[i + j] += c
            row.append(_strip(acc))
        rows.append(tuple(row))
    return tuple(rows)


def carlitz_bell(n: int) -> tuple[int, ...]:
    acc = [0] * (n * n + 1)
    for cs in carlitz_rows(n)[n]:
        for i, c in enumerate(cs):
            acc[i] += c
    return _strip(acc)


@lru_cache(maxsize=None)
def exp_q_bounds(q: Fraction, lam: Fraction, k_max: int) -> tuple[tuple[Fraction, ...], Fraction, Fraction]:
    """Terms t_k = lam**k/[k]_q! for k <= k_max, and bounds lower <= exp_q(lam) <= upper.

    The lower bound is the partial sum of t_0..t_{K-1}.  The tail from K on
    is at most t_K / (1 - lam/[K+1]_q), since the term ratios lam/[j+1]_q
    fall as j grows for q > 0; K is taken far enough out that this ratio is
    below 1.
    """
    terms, fac, bracket, power, k = [Fraction(1)], Fraction(1), Fraction(0), Fraction(1), 0
    while True:
        k += 1
        bracket, power = bracket + power, power * q  # [k]_q and q**k
        fac *= bracket
        terms.append(lam**k / fac)
        ratio = lam / (bracket + power)
        if k > k_max + 40 and ratio < 1:
            break
    lower = sum(terms[:-1], Fraction(0))
    return tuple(terms[: k_max + 1]), lower, lower + terms[-1] / (1 - ratio)


# -------------------------------------------------------------------- parsing

_PRETTY_TABLE = re.compile(r"(?P<kind>[\w-]+) n=(?P<n>\d+)(?: k=(?P<k>\d+))?: (?P<cell>.*)")
_PRETTY_VERIFY = re.compile(r"(?P<identity>[\w-]+) (?:.*?)(?:n|max_degree)=(?P<n>\d+): (?P<verdict>\w+)")
_PRETTY_ORACLE = re.compile(
    r"n=(\d+): enumeration=(\S+) rota=(\S+) operator=(\S+) series=\[(\S+), (\S+)\] -> (\w+)"
)


def options(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _lines(text: str) -> list[str]:
    return text.splitlines()


def _match(pattern: re.Pattern, line: str) -> re.Match:
    m = pattern.fullmatch(line)
    expect(m is not None, f"unparsable line {line[:120]!r}")
    return m


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"not a rational: {text[:80]!r}") from None


def _cells(text: str) -> list[Fraction]:
    return [_frac(c) for c in text.split(";")] if text else []


def _table(fmt: str, text: str) -> dict[tuple[int, int | None], object]:
    """{(n, k or None): value} where value is a str or a list of coefficient strings."""
    out = {}
    if fmt == "json":
        for r in json.loads(text):
            p = r["parameters"]
            out[p["n"], p.get("k")] = r["value"]
    elif fmt == "csv":
        head, *rows = _lines(text)
        with_k = head == "n,k,value"
        for row in rows:
            parts = row.split(",")
            key = (int(parts[0]), int(parts[1]) if with_k else None)
            out[key] = parts[-1]
    else:
        for line in _lines(text):
            m = _match(_PRETTY_TABLE, line)
            out[int(m["n"]), int(m["k"]) if m["k"] else None] = m["cell"]
    return out


def _verdicts(fmt: str, text: str) -> list[tuple[int, str]]:
    if fmt == "json":
        return [
            (r["parameters"].get("n", r["parameters"].get("max_degree")), r["value"])
            for r in json.loads(text)
        ]
    if fmt == "csv":
        return [(int(row.split(",")[2]), row.split(",")[3]) for row in _lines(text)[1:]]
    return [(int(m["n"]), m["verdict"]) for m in (_match(_PRETTY_VERIFY, x) for x in _lines(text))]


# --------------------------------------------------------------------- checks


def _check_table(opts: dict[str, str], text: str) -> int:
    kind, n, fmt = opts["--kind"], int(opts["--n"]), opts.get("--format", "pretty")
    got = _table(fmt, text)
    with_k = kind in ("stirling", "q-stirling", "cigl-q-stirling")
    keys = [(m, k) for m in range(n + 1) for k in range(m + 1)] if with_k else [(m, None) for m in range(n + 1)]
    expect(list(got) == keys, f"table {kind}: records {list(got)[:5]}... are not rows 0..{n}")
    for (m, k), value in got.items():
        cells = _cells(";".join(value) if isinstance(value, list) else value)
        where = f"{kind} n={m}" + (f" k={k}" if k is not None else "")
        if kind in ("bell", "stirling"):
            want = bell_numbers(n)[m] if kind == "bell" else stirling_rows(n)[m][k]
            expect(cells == [want], f"{where}: {value} != {want}")
        elif kind in ("q-stirling", "q-bell"):
            want = carlitz_rows(n)[m][k] if k is not None else carlitz_bell(m)
            expect(tuple(cells) == want, f"{where}: coefficients differ from the Carlitz recurrence")
        else:  # cigl-*: checked through the q = 1 specialisation
            expect(all(c.denominator == 1 and c >= 0 for c in cells), f"{where}: coefficients not non-negative integers")
            want = stirling_rows(n)[m][k] if k is not None else bell_numbers(n)[m]
            expect(sum(cells) == want, f"{where}: value at q=1 is {sum(cells)}, not {want}")
    return len(got)


def _check_verify(opts: dict[str, str], text: str) -> int:
    identity, fmt = opts["--identity"], opts.get("--format", "pretty")
    n_max = int(opts.get("--n-max", 8))
    got = _verdicts(fmt, text)
    want = [(n_max, "pass")] if identity == "conjugation" else [(n, "pass") for n in range(n_max + 1)]
    expect(got == want, f"verify {identity}: {len(got)} records, want {len(want)} all pass; got {got[:4]}...")
    return len(got)


def _check_oracle(opts: dict[str, str], text: str) -> int:
    n, fmt = int(opts["--n"]), opts.get("--format", "pretty")
    if fmt == "csv":
        rows = [row.split(",") for row in _lines(text)[1:]]
    else:
        rows = [list(_match(_PRETTY_ORACLE, line).groups()) for line in _lines(text)]
    expect([int(r[0]) for r in rows] == list(range(n + 1)), f"oracle: rows are not 0..{n}")
    for m, enum, rota, operator, lo, hi, verdict in rows:
        bell = bell_numbers(n)[int(m)]
        expect([_frac(enum), _frac(rota), _frac(operator)] == [bell] * 3, f"oracle n={m}: Bell values differ from {bell}")
        expect(_frac(lo) <= bell <= _frac(hi), f"oracle n={m}: series interval misses B_{m} = {bell}")
        expect(verdict == "pass", f"oracle n={m}: verdict {verdict}")
    return len(rows)


def _check_dist(opts: dict[str, str], text: str) -> int:
    seq, k_max = opts["--seq"], int(opts["--k-max"])
    expect(seq.startswith("q=") and opts.get("--format") == "csv", "dist: only --seq q=<r> --format csv is checked")
    terms, lower, upper = exp_q_bounds(Fraction(seq[2:]), Fraction(opts["--lambda"]), k_max)
    head, *rows = _lines(text)
    expect(head == "k,lo,hi" and len(rows) == k_max + 2, f"dist: {len(rows)} rows, want {k_max + 2}")
    *pmf, (label, n_lo, n_hi) = [row.split(",") for row in rows]
    expect(label == "normalizer", "dist: last row is not the normalizer")
    expect(_frac(n_lo) <= upper and _frac(n_hi) >= lower and _frac(n_lo) <= _frac(n_hi), "dist: normalizer interval misses exp_q(lambda)")
    for k, (key, lo, hi) in enumerate(pmf):
        # p_k = t_k / exp_q(lambda) lies in [t_k/upper, t_k/lower].
        expect(key == str(k), f"dist: row {k} is labelled {key}")
        expect(_frac(lo) <= terms[k] / lower and _frac(hi) >= terms[k] / upper and _frac(lo) <= _frac(hi), f"dist: p({k}) interval misses the exact pmf")
    return len(rows)


_CHECKS = {"table": _check_table, "verify": _check_verify, "oracle": _check_oracle, "dist": _check_dist}


def check(argv: list[str], text: str) -> int:
    """Check the stdout of ``umbraldob <argv>``; return its record count."""
    try:
        return _CHECKS[argv[0]](options(argv), text)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
