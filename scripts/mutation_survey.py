#!/usr/bin/env python3
"""Make every single-point mutant of the computing modules and see which ones a verdict catches.

A mutant changes one operator or one literal of one module, after the
arithmetic, relational and constant replacement operators of Offutt et al.
(ACM TOSEM 5(2), 1996): + <-> -, * -> +, / -> *, ** -> *, < <-> <=,
> <-> >=, == <-> !=, or an integer literal + 1.  Annotations are left alone.
Each mutant runs in a fresh process on a temporary copy of src/ outside the
checkout: every identity of the registry at n_max = 0 and at N_MAX = 8
over the sweep script's five sequences, then bell_oracle(N_MAX), with a
30 s timeout and at most two processes at a time.  A mutant is classed by
the first of these that applies: a failed verdict, exit 2 (a runner raised
an UmbralDobError, which the CLI reports as unusable input), another
exception, a timeout.  A mutant that shows none survives.  The script
prints one table row per function, how many mutants raised each exception
type, and every survivor with its file, line and mutation.  The mutants in
EQUIVALENT were reviewed as no fault, each with its reason; they are
counted apart and not listed as survivors.  The full survey takes about
two minutes on two cores.

    python3 scripts/mutation_survey.py
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "umbraldob"
MODULES = ("exact_core", "umbral_engine", "dobinski", "cigl", "operator_calc", "identities")
BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.Div: ast.Mult, ast.Pow: ast.Mult}
CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
CLASSES = ("verdict", "exit-2", "error", "timeout", "equivalent", "survived")
N_MAX = 8  # every verdict runs at this order
TIMEOUT_S = 30
JOBS = 2  # mutant processes at a time
MEMORY_LIMIT = 1 << 30  # bytes of address space per mutant process

# Reviewed mutants that are no fault, by the key Mutant.key prints: each keeps every verdict sound on every input.
EQUIVALENT = {
    "exact_core.<module>: 10000 -> 10001":
        "the cap only bounds how far a series is read",
    "exact_core.Poly.__add__: len(a) < len(b) -> len(a) <= len(b)":
        "addition commutes, so swapping two addends of equal length gives the same sum",
    "exact_core.Poly.__mul__: len(self.coeffs) + len(other.coeffs) - 1 -> len(self.coeffs) + len(other.coeffs) + 1":
        "the constructor strips the two extra zero coefficients",
    "umbral_engine.PsiSequence.falling: 1 -> 2":
        "numerator and denominator start from one common factor, which Fraction cancels",
    "umbral_engine.poisson_moment_exact: len(coeffs) - 1 -> len(coeffs) + 1":
        "two more Bell numbers, which no coefficient reads",
    "umbral_engine.poisson_moment_exact: max(len(coeffs) - 1, 0) -> max(len(coeffs) - 1, 1)":
        "one more Bell number below two coefficients, which no coefficient reads",
    "dobinski.default_ratio_threshold: Fraction(1, 2) -> Fraction(1, 3)":
        "the tail lemma holds at any threshold: 1/3 is as sound as 1/2, with wider intervals",
    "dobinski.default_ratio_threshold: range(1, cap + 1) -> range(2, cap + 1)":
        "psi never decreases, so the scan from 2 finds an index wherever the scan from 1 does",
    "dobinski.moments: range(1, cap + 1) -> range(2, cap + 1)":
        "psi(1) = 1 and thr < 1, so no j = 1 has psi(j) * thr >= 1",
    "dobinski.moments: cap + 1 -> cap + 2":
        "the least j is 2 or 3 (psi(2) * thr >= 1 for classical and Gauss, Fibonacci psi(3) = 2), far inside the scan",
    "dobinski.moments: cap + 1 -> cap - 1":
        "the least j is 2 or 3 (psi(2) * thr >= 1 for classical and Gauss, Fibonacci psi(3) = 2), far inside the scan",
    "dobinski.generating_function_checks: n_max + 1 -> n_max + 2":
        "one more series coefficient, which check n, series[0] after n <= n_max steps, never reaches",
    "operator_calc.verify_conjugation: max_degree + 1 -> max_degree + 2":
        "it checks one more monomial, of degree max_degree + 1",
    "identities.falling_moment: n_max + 1 -> n_max + 2":
        "one more expected value, which no case reads",
    "identities.pmf_gf: generating_function_checks(seq, 2, n_max) -> generating_function_checks(seq, 3, n_max)":
        "the chain read at lam = 3: it is decisive at every lam != 1, as at 2",
}

# Run inside the mutant's process: exit 3 on a failed verdict, else 4 after an UmbralDobError, 5 after
# another exception, 0 if every verdict passed; a crash outside the verdicts exits 1, which is an error too.
# The type of each exception raised goes to stdout.
MUTANT_MAIN = f"""
import resource, sys
from umbraldob.errors import UmbralDobError
from mutation_survey import run_verdicts
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))
try:
    ok, raised = run_verdicts()
except Exception as exc:  # the mutant fails at import
    ok, raised = True, [exc]
print(*(type(exc).__name__ for exc in raised))
sys.exit(3 if not ok else 4 if any(isinstance(exc, UmbralDobError) for exc in raised) else 5 if raised else 0)
"""


def run_verdicts() -> tuple[bool, list[Exception]]:
    """Every identity of the registry at n_max = 0 and N_MAX over the sweep's sequences, then bell_oracle(N_MAX).

    Returns False at the first failed verdict; else True, with the exceptions the verdicts raised.
    A runner that has no reference for a sequence skips it, as the sweep does, and one whose
    cases carry no sequence runs once per n_max.
    """
    from run_identity_suite import SEQUENCES
    from umbraldob.errors import UnsupportedSequenceError
    from umbraldob.identities import RUNNERS, bell_oracle

    raised = []
    for runner in RUNNERS.values():
        for n_max in (0, N_MAX):
            for seq in SEQUENCES:
                try:
                    cases = runner(seq, n_max)
                except UnsupportedSequenceError:
                    continue
                except Exception as exc:
                    raised.append(exc)
                    continue
                if not all(case.ok for case in cases):
                    return False, raised
                if not any("seq" in case.params for case in cases):
                    break
    try:
        return all(row.ok for row in bell_oracle(N_MAX)), raised
    except Exception as exc:
        return True, [*raised, exc]


class Mutant(NamedTuple):
    module: str
    function: str  # qualified name in the module, or <module>
    line: int
    before: str
    after: str
    site: int  # index among the module's mutation sites, in the order sites() finds them
    occurrence: int  # how many earlier sites of the same function show the same change

    @property
    def key(self) -> str:
        return f"{self.module}.{self.function}: {self.before} -> {self.after}" + (
            f" #{self.occurrence + 1}" if self.occurrence else ""
        )


def sites(tree: ast.AST) -> list[tuple[str, ast.AST, int | None, ast.AST]]:
    """(function, node, operator index of a comparison or None, node to show) for every mutation site.

    The order is fixed, so a site is known by its index.  A literal is shown with the expression around it.
    """
    found = []

    def visit(node: ast.AST, scope: str, parent: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
            found.append((scope, node, None, node))
        elif isinstance(node, ast.Compare):
            found.extend((scope, node, i, node) for i, op in enumerate(node.ops) if type(op) in CMPOPS)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((scope, node, None, parent if isinstance(parent, ast.expr) else node))
        skip = {id(getattr(node, "returns", None)), id(getattr(node, "annotation", None))}
        for child in ast.iter_child_nodes(node):
            if id(child) not in skip and not isinstance(child, ast.arg):
                visit(child, scope, node)

    visit(tree, "", tree)
    return found


def _apply(node: ast.AST, index: int | None):
    """Mutate node in place, and return a function that undoes it."""
    if isinstance(node, ast.Compare):
        old = node.ops[index]
        node.ops[index] = CMPOPS[type(old)]()
        return lambda: node.ops.__setitem__(index, old)
    if isinstance(node, ast.Constant):
        node.value += 1
        return lambda: setattr(node, "value", node.value - 1)
    old = node.op
    node.op = BINOPS[type(old)]()
    return lambda: setattr(node, "op", old)


def mutants(module: str) -> list[Mutant]:
    """Every single-point mutant of one module of the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    seen, found = Counter(), []
    for site, (function, node, index, shown) in enumerate(sites(tree)):
        before = ast.unparse(shown)
        undo = _apply(node, index)
        after = ast.unparse(shown)
        undo()
        occurrence = seen[function, before, after]
        seen[function, before, after] += 1
        found.append(Mutant(module, function or "<module>", node.lineno, before, after, site, occurrence))
    return found


def mutated_source(mutant: Mutant) -> str:
    tree = ast.parse((PACKAGE / f"{mutant.module}.py").read_text())
    _, node, index, _ = sites(tree)[mutant.site]
    _apply(node, index)
    return ast.unparse(tree)


def classify(mutant: Mutant) -> tuple[str, list[str]]:
    """The mutant's class, and the type of each exception its verdicts raised."""
    if mutant.key in EQUIVALENT:
        return "equivalent", []
    with tempfile.TemporaryDirectory(prefix="umbraldob-mutant-") as tmp:
        package = Path(tmp) / "umbraldob"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        (package / f"{mutant.module}.py").write_text(mutated_source(mutant))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([tmp, str(ROOT / "scripts")]))
        try:
            command = [sys.executable, "-B", "-c", MUTANT_MAIN]
            result = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", []
    return {0: "survived", 3: "verdict", 4: "exit-2"}.get(result.returncode, "error"), result.stdout.split()


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    found = [m for module in MODULES for m in mutants(module)]
    with ThreadPoolExecutor(JOBS) as pool:
        classes, raised = zip(*pool.map(classify, found))
    table: dict[str, Counter] = defaultdict(Counter)
    for m, cls in zip(found, classes):
        table[f"{m.module}.{m.function}"][cls] += 1
    table["total"] = sum(table.values(), Counter())
    width = max(map(len, table))
    print(f"{'function':<{width}}  mutants  " + "  ".join(CLASSES))
    for function, counts in table.items():
        cells = "  ".join(f"{counts[cls]:>{len(cls)}}" for cls in CLASSES)
        print(f"{function:<{width}}  {sum(counts.values()):>7}  {cells}")
    kinds = Counter(name for names in raised for name in set(names))
    print("\nmutants raising each exception type: " + ", ".join(f"{name} {n}" for name, n in kinds.most_common()))
    survivors = [m for m, cls in zip(found, classes) if cls == "survived"]
    print(f"\n{len(survivors)} survivor(s):")
    for m in survivors:
        print(f"  src/umbraldob/{m.module}.py:{m.line}  {m.key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
