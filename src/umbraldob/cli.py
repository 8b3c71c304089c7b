"""Command line interface.

Four subcommands: ``table`` prints a Stirling/Bell tower, ``verify`` runs an
identity suite and reports per-case verdicts, ``dist`` prints certified pmf
bounds for a generalized Poisson distribution, ``oracle`` cross-checks the
Bell numbers along every independent route.  Machine formats emit rationals
as explicit numerator/denominator strings and polynomials as coefficient
lists, lowest degree first, so that output parses back without loss.

No command prints or exits: each returns its CSV header, its rows (JSON
records, CSV line, pretty line) and whether every verdict passed, and raises
UmbralDobError on unusable input.  ``main`` parses each command's options,
given as ``--opt value`` or ``--opt=value``, from ``COMMANDS``, and is the one
place that prints and picks the exit status: 0 when everything passed, 1 when
a verification verdict failed, 2 with one message on stderr on unusable input
(usage errors, parse failures, inadmissible sequences, cap or convergence
violations) or a stdout closed before the output was written.

Example::

    umbraldob table --kind cigl-q-bell --n 4 --format csv
    umbraldob verify --identity falling-moment --seq fibonacci --n-max 6
    umbraldob dist --seq q=1/2 --lambda 1 --k-max 8 --format json
    umbraldob oracle --n 8
"""

import os
import sys
from fractions import Fraction

# Every command runs these; each imports the rest of what it runs in its own body, to keep start-up short.
from .errors import CapExceededError, UmbralDobError
from .exact_core import CertifiedValue, Poly
from .umbral_engine import PsiSequence, bell_via_sum, carlitz_q_stirling

TABLE_KINDS = ("stirling", "bell", "q-stirling", "cigl-q-stirling", "cigl-q-bell", "q-bell")
# The names of identities.RUNNERS in its order (usage errors print them), without importing it.
IDENTITIES = ("falling-moment", "dobinski", "cigl-dobinski", "conjugation", "pmf-gf", "q1-reduction")
FORMATS = ("json", "csv", "pretty")

_JSON_KW = dict(indent=2, sort_keys=False, ensure_ascii=False)


def frac_text(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def poly_coeff_list(p: Poly) -> list[str]:
    return [frac_text(c) for c in p.coeffs]


def interval_pair(cv: CertifiedValue) -> list[str]:
    return [frac_text(cv.lo), frac_text(cv.hi)]


def parse_sequence(descriptor: str) -> PsiSequence:
    """Parse: classical | q=<rational> | fibonacci; anything else is an unrecognized sequence."""
    text = descriptor.strip()
    try:
        if text == "classical":
            return PsiSequence.classical()
        if text == "fibonacci":
            return PsiSequence.fibonacci()
        if text.startswith("q="):
            return PsiSequence.gauss_q(Fraction(text[2:]))
        raise ValueError(f"unrecognized sequence {descriptor!r}")
    except (ValueError, ZeroDivisionError) as exc:
        message = str(exc) if isinstance(exc, ValueError) else f"zero denominator in sequence {descriptor!r}"
        raise UmbralDobError(message) from None


def _pretty(label: str, params: dict, value: str) -> str:
    where = " ".join(f"{key}={v}" for key, v in params.items())
    return f"{label} {where}: {value}"


def cmd_table(kind: str, n: int) -> tuple[str, list, bool]:
    """Print a Stirling triangle or Bell sequence up to n."""
    if kind.startswith("q-"):
        build, show = carlitz_q_stirling, poly_coeff_list
    elif kind.startswith("cigl-"):
        from .cigl import PARTITION_CAP, cigl_q_stirling_table
        if n > PARTITION_CAP:
            raise CapExceededError(f"kind {kind} is capped at n={PARTITION_CAP} by partition counting")
        build, show = cigl_q_stirling_table, poly_coeff_list
    else:
        build, show = lambda n_max: carlitz_q_stirling(n_max, 1), str  # the classical int triangle
    triangle, rows = kind.endswith("stirling"), []
    # Every kind builds its tower once and reads its triangle or its row sums.
    tower = build(n)
    read = (lambda m, k: tower.entry(m, k)) if triangle else (lambda m: bell_via_sum(tower, m))
    for m in range(n + 1):
        for params in [{"n": m, "k": k} for k in range(m + 1)] if triangle else [{"n": m}]:
            value = show(read(*params.values()))
            cell = value if isinstance(value, str) else ";".join(value)
            front = ",".join(str(v) for v in params.values())
            record = {"kind": kind, "parameters": params, "value": value}
            rows.append(([record], f"{front},{cell}", _pretty(kind, params, cell)))
    return "n,k,value" if triangle else "n,value", rows, True


def cmd_verify(identity: str, n_max: int, seq_text: str) -> tuple[str, list, bool]:
    """Run one identity suite up to n-max and report per-case verdicts."""
    from .identities import RUNNERS
    seq = parse_sequence(seq_text)
    cases, rows = RUNNERS[identity](seq, n_max), []
    for case in cases:
        p, verdict = case.params, "pass" if case.ok else "fail"
        n = p.get("n", p.get("max_degree", ""))
        record = {"kind": "verify", "parameters": {"identity": identity, **p}, "value": verdict}
        csv = f"{identity},{p.get('seq', '-')},{n},{verdict}"
        rows.append(([record], csv, _pretty(identity, p, verdict)))
    return "identity,seq,n,verdict", rows, all(case.ok for case in cases)


def cmd_dist(seq_text: str, lam_text: str, k_max: int) -> tuple[str, list, bool]:
    """Print certified pmf bounds for the generalized Poisson distribution."""
    from .dobinski import PsiPoissonDistribution
    seq = parse_sequence(seq_text)
    try:
        lam = Fraction(lam_text)
    except (ValueError, ZeroDivisionError):
        raise UmbralDobError(f"unusable rational {lam_text!r} for --lambda") from None
    if lam <= 0:
        raise UmbralDobError("--lambda must be positive")
    dist = PsiPoissonDistribution.create(seq, lam)
    bounds = [dist.pmf(k) for k in range(k_max + 1)]
    base, rows = {"seq": seq.label, "lambda": frac_text(lam)}, []
    for k, (lo, hi) in enumerate(bounds):
        lo, hi = frac_text(lo), frac_text(hi)
        record = {"kind": "pmf", "parameters": {**base, "k": k}, "value": [lo, hi]}
        rows.append(([record], f"{k},{lo},{hi}", f"p({k}) in [{lo}, {hi}]"))
    lo, hi = interval_pair(dist.normalizer)
    record = {"kind": "normalizer", "parameters": base, "value": [lo, hi]}
    rows.append(([record], f"normalizer,{lo},{hi}", f"normalizer in [{lo}, {hi}]"))
    return "k,lo,hi", rows, True


def cmd_oracle(n: int) -> tuple[str, list, bool]:
    """Cross-check the Bell numbers along every independent route up to n."""
    from .identities import bell_oracle
    oracle, rows = bell_oracle(n), []
    for m, count, rota, operator, series, ok in oracle:
        op = str(operator)
        lo, hi = interval_pair(series)
        verdict = "pass" if ok else "fail"
        params = {"n": m}
        records = [
            {"kind": "enumeration-count", "parameters": params, "value": str(count)},
            {"kind": "rota-bell", "parameters": params, "value": str(rota)},
            {"kind": "operator-bell", "parameters": params, "value": op},
            {"kind": "dobinski-interval", "parameters": params, "value": [lo, hi]},
            {"kind": "agreement", "parameters": params, "value": verdict},
        ]
        pretty = f"n={m}: enumeration={count} rota={rota} operator={op} series=[{lo}, {hi}] -> {verdict}"
        rows.append((records, f"{m},{count},{rota},{op},{lo},{hi},{verdict}", pretty))
    header = "n,enumeration,rota_bell,operator_bell,dobinski_lo,dobinski_hi,verdict"
    return header, rows, all(row.ok for row in oracle)


_FORMAT = ("fmt", FORMATS, "pretty")
_SHAPES = {int: "INTEGER>=0", str: "TEXT"}
# Each command's function and options.  An option maps to its keyword, its type (a tuple of choices, int for an
# integer >= 0, or str) and its default; a default of None makes the option required.
COMMANDS = {
    "table": (cmd_table, {"--kind": ("kind", TABLE_KINDS, None), "--n": ("n", int, None), "--format": _FORMAT}),
    "verify": (cmd_verify, {"--identity": ("identity", IDENTITIES, None), "--n-max": ("n_max", int, 8),
                            "--seq": ("seq_text", str, "classical"), "--format": _FORMAT}),
    "dist": (cmd_dist, {"--seq": ("seq_text", str, "classical"), "--lambda": ("lam_text", str, "1"),
                        "--k-max": ("k_max", int, 10), "--format": _FORMAT}),
    "oracle": (cmd_oracle, {"--n": ("n", int, None), "--format": _FORMAT}),
}


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Exact Bell/Stirling towers and certified Dobinski-type verification."""
    # Exact values print in full however many digits they have.
    sys.set_int_max_str_digits(0)
    args = sys.argv[1:] if args is None else list(args)
    name = args[0] if args else None
    command, options = COMMANDS.get(name, (main, None))
    path = f"{prog_name or os.path.basename(sys.argv[0])}{f' {name}' if options else ''}"
    usage = f"Usage: {path} [OPTIONS]{'' if options else ' COMMAND [ARGS]...'}"

    def bad_usage(message: str) -> None:
        print(f"{usage}\nTry '{path} --help' for help.\n\nError: {message}", file=sys.stderr)
        sys.exit(2)

    def print_lines(lines: list[str]) -> None:
        # A reader that closed stdout gets exit 2 and one message; devnull takes stdout's place,
        # so the interpreter's final flush raises nothing.
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("error: stdout was closed before the output was written", file=sys.stderr)
            sys.exit(2)

    if "--help" in (args if options else args[:1]):
        entries = COMMANDS if not options else [
            f"{opt} {_SHAPES.get(kind) or '|'.join(kind)}  [{'required' if default is None else f'default: {default}'}]"
            for opt, (_, kind, default) in options.items()]
        heading = f"{usage}\n\n  {command.__doc__}\n\n{'Options' if options else 'Commands'}:"
        print_lines(["\n  ".join([heading, *entries])])
        return
    if not options:
        bad_usage(f"No such {'option' if name[:1] == '-' else 'command'} {name!r}." if args else "Missing command.")
    kwargs, rest = {key: default for key, _, default in options.values()}, args[1:]
    while rest:
        token = rest.pop(0)
        opt, eq, value = token.partition("=")
        if opt not in options:
            bad_usage(f"No such option {opt!r}." if opt[:1] == "-" else f"Got unexpected extra argument ({token})")
        if not (eq or rest):
            bad_usage(f"Option {opt!r} requires an argument.")
        key, kind, _ = options[opt]
        value = kwargs[key] = value if eq else rest.pop(0)
        if kind is int:
            try:
                kwargs[key] = int(value)
            except ValueError:
                bad_usage(f"Invalid value for {opt!r}: {value!r} is not a valid integer range.")
            if kwargs[key] < 0:
                bad_usage(f"Invalid value for {opt!r}: {kwargs[key]} is not in the range x>=0.")
        elif isinstance(kind, tuple) and value not in kind:
            bad_usage(f"Invalid value for {opt!r}: {value!r} is not one of {', '.join(map(repr, kind))}.")
    for opt in [opt for opt, (key, _, _) in options.items() if kwargs[key] is None]:
        bad_usage(f"Missing option {opt!r}.")
    # Every command computes before anything prints, so a domain error from any of them exits 2 with no output.
    fmt = kwargs.pop("fmt")
    try:
        header, rows, ok = command(**kwargs)
    except UmbralDobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    if fmt == "json":
        import json
        print_lines([json.dumps([record for records, _, _ in rows for record in records], **_JSON_KW)])
    else:
        print_lines([header, *(csv for _, csv, _ in rows)] if fmt == "csv" else [pretty for *_, pretty in rows])
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main(prog_name="python -m umbraldob.cli")
