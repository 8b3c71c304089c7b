"""Route independence, measured: the routes that one verdict compares share no package function outside ALLOWED.

Each route below is one side of a comparison that a registry identity or bell_oracle makes,
built from the same package calls, and it runs alone under sys.setprofile at n = 8.  The
package functions it calls are collected, a nested function or lambda counted as the function
that defines it, and every pairwise intersection of one identity's routes must lie in ALLOWED.
falling-moment checks one series against the constant 1, and so does the pmf-gf mean, which is
left out: neither has a second route.
"""

import importlib
import runpy
import sys
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path
from types import CodeType

import pytest
from helpers import mutated_definition, patch_everywhere

import umbraldob
from umbraldob import cigl, dobinski, exact_core, operator_calc
from umbraldob.exact_core import Poly
from umbraldob.identities import RUNNERS, bell_oracle
from umbraldob.umbral_engine import (
    PsiSequence,
    bell_via_sum,
    carlitz_q_stirling,
    poisson_moment_exact,
    q_number_symbolic,
    q_poisson_moments,
)

ROOT = Path(__file__).resolve().parents[1]
N = 8
HALF = Fraction(1, 2)

# Reviewed shared functions, each with the reason it is no common path.
ALLOWED = {
    "exact_core.Record._init": "stores the fields of an immutable record (an interval, a table) and computes nothing",
    "exact_core.Poly.__init__": "Poly arithmetic: every survey mutant of it fails each identity that shares it, alone",
    "exact_core.Poly.__add__": "Poly arithmetic: every survey mutant of it fails each identity that shares it, alone",
    "exact_core.Poly.__mul__": "Poly arithmetic: every survey mutant of it fails each identity that shares it, alone",
}


def operator_walk():
    """The exponential polynomials 0..N, one number-operator step each, as q1-reduction walks them."""
    p, walk = Poly((1,)), []
    for _ in range(N + 1):
        walk.append(p.coeffs)
        p = operator_calc.apply_number_operator(p)
    return walk


def jackson_chain(seq):
    """The pmf-gf chain at lam = 2: N q-differences of the coefficients 2**k / psi!(k)."""
    series = tuple(Fraction(2) ** k / seq.factorial(k) for k in range(N + 1))
    heads = [series[0]]
    for _ in range(N):
        series = dobinski.jackson_derivative(series, seq.bracket_q)
        heads.append(series[0])
    return heads


def row_sums(table):
    return [bell_via_sum(table, n) for n in range(table.n_max + 1)]


# identity -> (the sequence it is traced at, its routes, each a function of the sequence)
ROUTES = {
    "falling-moment": (HALF, {"series": lambda seq: dobinski.moments(seq, N, power=False)}),
    "dobinski": (HALF, {
        "series": lambda seq: dobinski.moments(seq, N, power=True),
        "tower": lambda seq: row_sums(carlitz_q_stirling(N, HALF)),
        "recurrence": lambda seq: q_poisson_moments(HALF, 1, N),
    }),
    "cigl-dobinski": (1, {
        "tower": lambda seq: row_sums(cigl.cigl_q_stirling_table(N)),
        "products": lambda seq: [poisson_moment_exact(p) for p in islice(cigl.cigl_q_powers(), N + 1)],
    }),
    "conjugation": (1, {
        "operator": lambda seq: [operator_calc.apply_number_operator(Poly((0,) * m + (1,))) for m in range(N + 1)],
        "closed form": lambda seq: [Poly((0,) * m + (m, 1)) for m in range(N + 1)],
    }),
    "pmf-gf": (HALF, {
        "chain": jackson_chain,
        "q-factorial": lambda seq: [q_number_symbolic(n).evaluate(HALF) for n in range(N + 1)],
    }),
    "q1-reduction": (1, {
        "carlitz": lambda seq: [[e.evaluate(Fraction(1)) for e in row] for row in carlitz_q_stirling(N).rows],
        "operator": lambda seq: operator_walk(),
    }),
    "oracle": (1, {
        "enumeration": lambda seq: cigl.partition_counts(N),
        "rota": lambda seq: row_sums(carlitz_q_stirling(N, 1)),
        "operator": lambda seq: [operator_calc.dobinski_specialization(n) for n in range(N + 1)],
        "series": lambda seq: dobinski.moments(seq, N, power=True),
    }),
}


def fresh(q):
    """A new sequence, so that its prefix grows from psi(0) in the run that reads it."""
    return PsiSequence.classical() if q == 1 else PsiSequence.gauss_q(q)


def code_names() -> dict[CodeType, str]:
    """module.qualname of each function, method and property of the package, keyed by its code and its nested code."""
    names = {}

    def add(code, name):
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, CodeType):
                add(const, name)

    for stem in (path.stem for path in Path(umbraldob.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"umbraldob.{stem}")
        for value in vars(module).values():
            own_class = isinstance(value, type) and value.__module__ == module.__name__
            for member in vars(value).values() if own_class else [value]:
                function = getattr(member, "__func__", getattr(member, "fget", member))
                if getattr(function, "__module__", None) == module.__name__ and hasattr(function, "__code__"):
                    add(function.__code__, f"{stem}.{function.__qualname__}")
    return names


NAMES = code_names()


def traced(run) -> set[str]:
    """module.function for every package function that run() calls, nested ones read as the function around them."""
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in NAMES:
            called.add(NAMES[frame.f_code])

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def run_identity(name, seq):
    """The verdicts of one identity at N, as the CLI runs it: False where a case fails."""
    return [row.ok for row in bell_oracle(N)] if name == "oracle" else [case.ok for case in RUNNERS[name](seq, N)]


def route_calls(name) -> dict[str, set[str]]:
    q, routes = ROUTES[name]
    return {route: traced(lambda seq=fresh(q): run(seq)) for route, run in routes.items()}


def shared(name) -> dict[tuple[str, str], set[str]]:
    calls = route_calls(name)
    return {(a, b): calls[a] & calls[b] for a, b in combinations(calls, 2)}


def test_every_identity_has_its_routes():
    assert set(ROUTES) == {*RUNNERS, "oracle"}


@pytest.mark.parametrize("name", ROUTES)
def test_routes_share_only_reviewed_functions(name):
    whole = traced(lambda seq=fresh(ROUTES[name][0]): run_identity(name, seq))
    for route, calls in route_calls(name).items():  # each route is a real part of what the identity runs
        assert calls <= whole, (route, calls - whole)
    for pair, common in shared(name).items():
        assert common <= set(ALLOWED), (pair, common - set(ALLOWED))


def test_no_allowed_entry_is_stale():
    used = set().union(*(common for name in ROUTES for common in shared(name).values()))
    assert used == set(ALLOWED)


def test_shared_poly_arithmetic_is_seen_by_each_identity_alone(monkeypatch):
    # every survey mutant of a shared Poly method, bar the reviewed no-fault ones, fails or raises
    # in each identity whose routes share that method, with nothing else run
    survey = runpy.run_path(str(ROOT / "scripts" / "mutation_survey.py"))
    sharing = {}
    for name in ROUTES:
        for common in shared(name).values():
            for function in (f for f in common if f.startswith("exact_core.Poly.")):
                sharing.setdefault(function.removeprefix("exact_core."), set()).add(name)
    survivors, count = [], 0
    for mutant in survey["mutants"]("exact_core"):
        if mutant.function not in sharing or mutant.key in survey["EQUIVALENT"]:
            continue
        real = Poly.__dict__[mutant.function.split(".")[1]]
        for name in sorted(sharing[mutant.function]):
            with monkeypatch.context() as patch:
                patch_everywhere(patch, [Poly], real, mutated_definition(survey, mutant, exact_core))
                try:
                    caught = not all(run_identity(name, fresh(ROUTES[name][0])))
                except Exception:
                    caught = True
            count += 1
            if not caught:
                survivors.append((name, mutant.key))
    assert count > 0 and survivors == []
