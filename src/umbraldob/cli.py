"""Command line interface.

Four subcommands: ``table`` prints a Stirling/Bell tower, ``verify`` runs an
identity suite and reports per-case verdicts, ``dist`` prints certified pmf
bounds for a generalized Poisson distribution, ``oracle`` cross-checks the
Bell numbers along every independent route.  Machine formats emit rationals
as explicit numerator/denominator strings and polynomials as coefficient
lists, lowest degree first, so that output parses back without loss.

Exit status: 0 when everything passed, 1 when a verification verdict
failed, 2 on unusable input (parse failures, inadmissible sequences, cap or
convergence violations).

Example::

    umbraldob table --kind cigl-q-bell --n 4 --format csv
    umbraldob verify --identity falling-moment --seq fibonacci --n-max 6
    umbraldob dist --seq q=1/2 --lambda 1 --k-max 8 --format json
    umbraldob oracle --n 8
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .cigl import PARTITION_CAP, cigl_q_stirling_table
from .dobinski import PsiPoissonDistribution
from .errors import UmbralDobError
from .exact_core import CertifiedValue, Poly, summation_cap
from .identities import RUNNERS as _IDENTITY_RUNNERS, bell_oracle
from .umbral_engine import PsiSequence, bell_via_sum, carlitz_q_stirling, classical_stirling_table

TABLE_KINDS = ("stirling", "bell", "q-stirling", "cigl-q-stirling", "cigl-q-bell", "q-bell")
IDENTITIES = tuple(_IDENTITY_RUNNERS)
FORMATS = ("json", "csv", "pretty")

_JSON_KW = dict(indent=2, sort_keys=False, ensure_ascii=False)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def frac_text(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def poly_coeff_list(p: Poly) -> list[str]:
    return [frac_text(c) for c in p.coeffs]


def interval_pair(cv: CertifiedValue) -> list[str]:
    return [frac_text(cv.lo), frac_text(cv.hi)]


def parse_sequence(descriptor: str) -> PsiSequence:
    """Parse: classical | q=<rational> | fibonacci | custom:<comma-separated rationals>."""
    text = descriptor.strip()
    try:
        if text == "classical":
            return PsiSequence.classical()
        if text == "fibonacci":
            return PsiSequence.fibonacci()
        if text.startswith("q="):
            return PsiSequence.gauss_q(Fraction(text[2:]))
        if text.startswith("custom:"):
            body = text[len("custom:"):]
            parts = [s.strip() for s in body.split(",") if s.strip()]
            if not parts:
                raise ValueError("custom sequence needs at least one value")
            return PsiSequence.custom(Fraction(s) for s in parts)
        raise ValueError(f"unrecognized sequence {descriptor!r}")
    except (ValueError, ZeroDivisionError) as exc:
        _fail(str(exc) or f"unusable sequence {descriptor!r}")


def _emit(fmt: str, csv_header: str, records: list[dict], rows: list[tuple[str, str]]) -> None:
    """Print the records as one JSON array, or each row's csv or pretty line."""
    if fmt == "json":
        click.echo(json.dumps(records, **_JSON_KW))
        return
    lines = [csv_header, *(csv for csv, _ in rows)] if fmt == "csv" else [pretty for _, pretty in rows]
    for line in lines:
        click.echo(line)


def _pretty(label: str, params: dict, value: str) -> str:
    where = " ".join(f"{key}={v}" for key, v in params.items())
    return f"{label} {where}: {value}"


@click.group()
def main() -> None:
    """Exact Bell/Stirling towers and certified Dobinski-type verification."""
    # Exact values print in full however many digits they have.
    sys.set_int_max_str_digits(0)
    try:
        summation_cap()
    except ValueError as exc:
        _fail(str(exc))


@main.command("table")
@click.option("--kind", type=click.Choice(TABLE_KINDS), required=True)
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty")
def cmd_table(kind: str, n: int, fmt: str) -> None:
    """Print a Stirling triangle or Bell sequence up to n."""
    if kind.startswith("cigl-") and n > PARTITION_CAP:
        _fail(f"kind {kind} is capped at n={PARTITION_CAP} by partition counting")
    triangle = kind.endswith("stirling")
    records, rows = [], []
    try:
        # Every kind builds its tower once and reads its triangle or its row sums.
        if kind.startswith("q-"):
            tower, show = carlitz_q_stirling(n), poly_coeff_list
        elif kind.startswith("cigl-"):
            tower, show = cigl_q_stirling_table(n), poly_coeff_list
        else:
            tower, show = classical_stirling_table(n), str
        read = (lambda m, k: tower.entry(m, k)) if triangle else (lambda m: bell_via_sum(tower, m))
        for m in range(n + 1):
            for params in [{"n": m, "k": k} for k in range(m + 1)] if triangle else [{"n": m}]:
                value = show(read(*params.values()))
                records.append({"kind": kind, "parameters": params, "value": value})
                cell = value if isinstance(value, str) else ";".join(value)
                front = ",".join(str(v) for v in params.values())
                rows.append((f"{front},{cell}", _pretty(kind, params, cell)))
    except UmbralDobError as exc:
        _fail(str(exc))
    _emit(fmt, "n,k,value" if triangle else "n,value", records, rows)


@main.command("verify")
@click.option("--identity", type=click.Choice(IDENTITIES), required=True)
@click.option("--n-max", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--seq", "seq_text", default="classical", show_default=True)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty")
def cmd_verify(identity: str, n_max: int, seq_text: str, fmt: str) -> None:
    """Run one identity suite up to n-max and report per-case verdicts."""
    seq = parse_sequence(seq_text)
    try:
        cases = _IDENTITY_RUNNERS[identity](seq, n_max)
    except UmbralDobError as exc:
        _fail(str(exc))
    records, rows = [], []
    for case in cases:
        p, verdict = case.params, "pass" if case.ok else "fail"
        records.append({"kind": "verify", "parameters": p, "value": verdict})
        n = p.get("n", p.get("max_degree", ""))
        where = {key: v for key, v in p.items() if key != "identity"}
        rows.append(
            (f"{p['identity']},{p.get('seq', '-')},{n},{verdict}", _pretty(p["identity"], where, verdict))
        )
    _emit(fmt, "identity,seq,n,verdict", records, rows)
    if not all(case.ok for case in cases):
        sys.exit(1)


@main.command("dist")
@click.option("--seq", "seq_text", default="classical", show_default=True)
@click.option("--lambda", "lam_text", default="1", show_default=True)
@click.option("--k-max", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty")
def cmd_dist(seq_text: str, lam_text: str, k_max: int, fmt: str) -> None:
    """Print certified pmf bounds for the generalized Poisson distribution."""
    seq = parse_sequence(seq_text)
    try:
        lam = Fraction(lam_text)
    except (ValueError, ZeroDivisionError):
        _fail(f"unusable rational {lam_text!r} for --lambda")
    if lam <= 0:
        _fail("--lambda must be positive")
    try:
        dist = PsiPoissonDistribution.create(seq, lam)
        bounds = [dist.pmf(k) for k in range(k_max + 1)]
    except UmbralDobError as exc:
        _fail(str(exc))
    base = {"seq": seq.label, "lambda": frac_text(lam)}
    records, rows = [], []
    for k, (lo, hi) in enumerate(bounds):
        lo, hi = frac_text(lo), frac_text(hi)
        records.append({"kind": "pmf", "parameters": {**base, "k": k}, "value": [lo, hi]})
        rows.append((f"{k},{lo},{hi}", f"p({k}) in [{lo}, {hi}]"))
    lo, hi = interval_pair(dist.normalizer)
    records.append({"kind": "normalizer", "parameters": base, "value": [lo, hi]})
    rows.append((f"normalizer,{lo},{hi}", f"normalizer in [{lo}, {hi}]"))
    _emit(fmt, "k,lo,hi", records, rows)


@main.command("oracle")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty")
def cmd_oracle(n: int, fmt: str) -> None:
    """Cross-check the Bell numbers along every independent route up to n."""
    if n > PARTITION_CAP:
        _fail(f"oracle is capped at n={PARTITION_CAP} by full partition enumeration")
    try:
        oracle = bell_oracle(n)
    except UmbralDobError as exc:
        _fail(str(exc))
    records, rows = [], []
    for m, count, rota, operator, series, ok in oracle:
        op = str(operator.numerator) if operator.denominator == 1 else frac_text(operator)
        lo, hi = interval_pair(series)
        verdict = "pass" if ok else "fail"
        params = {"n": m}
        records += [
            {"kind": "enumeration-count", "parameters": params, "value": str(count)},
            {"kind": "rota-bell", "parameters": params, "value": str(rota)},
            {"kind": "operator-bell", "parameters": params, "value": op},
            {"kind": "dobinski-interval", "parameters": params, "value": [lo, hi]},
            {"kind": "agreement", "parameters": params, "value": verdict},
        ]
        rows.append(
            (
                f"{m},{count},{rota},{op},{lo},{hi},{verdict}",
                f"n={m}: enumeration={count} rota={rota} operator={op} series=[{lo}, {hi}] -> {verdict}",
            )
        )
    _emit(fmt, "n,enumeration,rota_bell,operator_bell,dobinski_lo,dobinski_hi,verdict", records, rows)
    if not all(row.ok for row in oracle):
        sys.exit(1)


if __name__ == "__main__":
    main()
