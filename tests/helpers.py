"""Brute-force oracles, an in-process CLI runner and in-process survey and catalogue mutants for the test-suite.

The oracles are written directly from definitions (recursive block
assignment, exact partial sums) and deliberately avoid the package's own
algorithms, so a test comparing the two routes is a real cross-check.
"""

import ast
import io
import textwrap
from itertools import chain
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial, inf
from pathlib import Path
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


def _definition(tree, qualname):
    """The def of qualname, a top-level function or a method of a top-level class, in a module's tree."""
    body = tree.body
    for name in qualname.split("."):
        definition = next(d for d in body if getattr(d, "name", None) == name)
        body = definition.body
    return definition


def _compiled(definition, module):
    """The object that one def, decorators included, makes when it runs in module's namespace."""
    defined = {}
    exec(compile(ast.Module([definition], []), module.__file__, "exec"), module.__dict__, defined)
    return defined[definition.name]


def mutated_definition(survey, mutant, module):
    """The function or method that one mutant of scripts/mutation_survey.py changes, compiled in module's namespace.

    survey is the script's namespace, as runpy.run_path returns it, and mutant.function a
    top-level function of module or a method of one of its classes.
    """
    tree = ast.parse(Path(module.__file__).read_text())
    _, node, index, _ = survey["sites"](tree)[mutant.site]
    survey["_apply"](node, index)
    return _compiled(_definition(tree, mutant.function), module)


def edited_definition(module, qualname, *edits):
    """The live source of module's qualname with each (before, after) text edit made, compiled in module's namespace.

    Each before must occur exactly once in the definition, decorators and docstring included;
    otherwise this raises ValueError naming qualname and before.  Line numbers stay the file's.
    """
    source = Path(module.__file__).read_text()
    definition = _definition(ast.parse(source), qualname)
    first = min(node.lineno for node in [definition, *definition.decorator_list])
    text = textwrap.dedent("".join(source.splitlines(keepends=True)[first - 1 : definition.end_lineno]))
    for before, after in edits:
        if text.count(before) != 1:
            raise ValueError(f"{qualname}: {before!r} occurs {text.count(before)} times, not once")
        text = text.replace(before, after)
    (edited,) = ast.increment_lineno(ast.parse(text), first - 1).body
    return _compiled(edited, module)


def patch_everywhere(patch, holders, real, fake):
    """Set fake in place of real under every name that any of holders (modules or classes) gives it."""
    for holder in holders:
        for name, value in list(vars(holder).items()):
            if value is real:
                patch.setattr(holder, name, fake)


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


def _poly_add(a, b):
    """Sum of two polynomials in q, each a coefficient list, lowest degree first."""
    out = [0] * max(len(a), len(b))
    for i, c in chain(enumerate(a), enumerate(b)):
        out[i] += c
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def tower_definition_failures(kind, rows, q=None):
    """The rows n of a Stirling tower that break its defining expansion at some x = j, j = 0..n.

    kind names the expansion that row n must satisfy at every point j:
    "stirling" j**n = sum_k S(n,k) * j*(j-1)*...*(j-k+1);
    "q-stirling" [j]_q**n = sum_k S_q(n,k) * [j]_q*[j-1]_q*...*[j-k+1]_q, with [j]_q = 1 + q + ... + q**(j-1);
    "cigl-q-stirling" prod_{i<n} (j + q**i - 1) = sum_k T(n,k) * j*(j-1)*...*(j-k+1).
    Each entry is an int, a Fraction or a polynomial in q given as its coefficient list, lowest
    degree first.  With q None the expansions are identities of polynomials in q; with a
    rational q they are checked at that q.  The j-th basis term is nonzero at j and zero at
    every smaller point, so the n + 1 points fix the row: a row that passes is the right one.
    """
    var = [0, 1] if q is None else [Fraction(q)]
    powers, brackets = [[1]], [[]]  # q**i and [i]_q, grown as far as a row needs them
    failures = []
    for n, row in enumerate(rows):
        while len(powers) <= n:
            brackets.append(_poly_add(brackets[-1], powers[-1]))
            powers.append(_poly_mul(powers[-1], var))
        entries = [entry if isinstance(entry, list) else [entry] for entry in row]
        for j in range(n + 1):
            # x is j or [j]_q; the k-th basis term x(x-1)...(x-k+1) multiplies the first k steps down from x
            steps = brackets[j::-1] if kind == "q-stirling" else [[j - i] for i in range(j + 1)]
            if kind == "cigl-q-stirling":
                factors = [_poly_add([j - 1], powers[i]) for i in range(n)]
            else:
                factors = [steps[0]] * n
            lhs, basis = [1], [[1]]
            for factor in factors:
                lhs = _poly_mul(lhs, factor)
            for step in steps[:n]:  # the last step is 0 or [0]_q: the basis terms past it are zero and left out
                basis.append(_poly_mul(basis[-1], step))
            rhs = []
            for entry, term in zip(entries, basis):
                rhs = _poly_add(rhs, _poly_mul(entry, term))
            if _poly_trim(lhs) != _poly_trim(rhs):
                failures.append(n)
                break
    return failures
