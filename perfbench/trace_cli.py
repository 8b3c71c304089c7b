"""Run one umbraldob CLI command with a span around every module boundary.

Usage: python perfbench/trace_cli.py STATS_JSON ARG...

Imports ``umbraldob.cli``, replaces the public functions at each module
boundary by timing wrappers (in every module that holds a reference, so
names re-bound by ``from ... import`` are wrapped where they are called),
runs ``cli.main(ARG...)`` and writes the per-layer stats to STATS_JSON.
The program's own files are not changed.  Each layer records its calls and
its self time (the span's duration minus the spans nested in it) and its
inclusive time (the duration of its outermost spans).  The
``cli`` layer is what is left: interpreter-side import, click dispatch and
output formatting.  Some layers also count work:

- ``exact_core.poly_mul.coeff_products``: len(a) * len(b) coefficient
  products per ``Poly`` product (len(a) for a scalar factor);
- ``exact_core.certified_sum.terms`` / ``max_bits``: calls of the ``term``
  callable, and the largest numerator or denominator it returned, in bits;
- ``cigl.enumerate_partitions.strings``: strings yielded.  The generator
  is timed while it is consumed, not when it is created.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402
from time import perf_counter  # noqa: E402

from umbraldob import cigl, cli, dobinski, exact_core, operator_calc, umbral_engine  # noqa: E402

# (owner, attribute names, layer).  A layer named "<module>.other" holds the
# module's remaining public functions; their time is in "<module>.self_s"
# only.  gauss_number and q_number_symbolic are scalar helpers called inside
# the inner loops of jackson_derivative and carlitz_q_stirling, and count
# as their callers' time.
SPANS = [
    (exact_core.Poly, ("__mul__", "__rmul__"), "exact_core.poly_mul"),
    (exact_core.Poly, ("exact_div",), "exact_core.exact_div"),
    (exact_core, ("certified_sum",), "exact_core.certified_sum"),
    (umbral_engine.PsiSequence, ("value", "factorial", "falling"), "umbral_engine.psi"),
    (umbral_engine, ("carlitz_q_stirling",), "umbral_engine.carlitz_q_stirling"),
    (umbral_engine, ("stirling2", "bell_via_sum"), "umbral_engine.other"),
    (dobinski, ("jackson_derivative",), "dobinski.jackson_derivative"),
    (
        dobinski,
        (
            "psi_exp",
            "moment_functional",
            "verify_falling_moment",
            "dobinski_bell",
            "rota_bell_exact",
            "poisson_moment_exact",
            "verify_pmf_via_generating_function",
        ),
        "dobinski.other",
    ),
    (dobinski.PsiPoissonDistribution, ("create", "pmf"), "dobinski.other"),
    (cigl, ("enumerate_partitions",), "cigl.enumerate_partitions"),
    (cigl, ("cigl_weighted_count",), "cigl.weighted_count"),
    (cigl, ("cigl_q_stirling", "cigl_q_bell", "cigl_q_power", "cigl_q_dobinski_exact"), "cigl.other"),
    (
        operator_calc,
        ("apply_number_operator", "exponential_polynomial", "verify_conjugation", "dobinski_specialization"),
        "operator_calc.other",
    ),
]

GENERATOR_BLOCK = 256  # below the gen-0 GC threshold, so held strings trigger no collections

COUNTERS = {
    "exact_core.poly_mul": ("coeff_products",),
    "exact_core.certified_sum": ("terms", "max_bits"),
    "cigl.enumerate_partitions": ("strings",),
}


class Tracer:
    """Per-layer calls, self time and work counts for one process."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        # Time covered by child spans, one entry per open span; entry 0 is the
        # root, whose remainder is the cli layer's self time.
        self.child = [0.0]

    def stat(self, layer: str) -> dict:
        if layer not in self.stats:
            self.stats[layer] = dict.fromkeys(("calls", "self_s", "incl_s", "open") + COUNTERS.get(layer, ()), 0)
        return self.stats[layer]

    def timed(self, layer: str, fn, prepare=None):
        st, child = self.stat(layer), self.child

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(st, args, kwargs)
            child.append(0.0)
            st["open"] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                st["self_s"] += dur - child.pop()
                child[-1] += dur
                st["calls"] += 1
                st["open"] -= 1
                if not st["open"]:  # outermost span of this layer
                    st["incl_s"] += dur

        return wrapper

    def timed_generator(self, layer: str, fn):
        """Time a generator's work, not its creation, in blocks pulled ahead of the consumer.

        The consumer's own time stays out of the span, and the tracer costs
        one clock pair per block instead of one per item.  This holds for a
        generator that yields fresh objects and has no side effects, as
        enumerate_partitions does.
        """
        st, child = self.stat(layer), self.child

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                block = list(islice(gen, GENERATOR_BLOCK))
                dur = perf_counter() - t0
                st["self_s"] += dur
                st["incl_s"] += dur
                child[-1] += dur
                st["strings"] += len(block)
                if not block:
                    return
                yield from block

        return wrapper


def count_coeff_products(st, args, kwargs):
    a, b = args
    st["coeff_products"] += len(a.coeffs) * len(getattr(b, "coeffs", (b,)))
    return args, kwargs


def count_terms(st, args, kwargs):
    term = args[0]

    def counted(k):
        v = term(k)
        st["terms"] += 1
        st["max_bits"] = max(st["max_bits"], v.numerator.bit_length(), v.denominator.bit_length())
        return v

    return (counted, *args[1:]), kwargs


PREPARE = {"exact_core.poly_mul": count_coeff_products, "exact_core.certified_sum": count_terms}


def install(tracer: Tracer) -> None:
    """Wrap every name in SPANS wherever the package holds a reference to it."""
    namespaces = [vars(m) for name, m in list(sys.modules.items()) if name.split(".")[0] == "umbraldob"]
    for owner, attrs, layer in SPANS:
        for attr in attrs:
            raw = vars(owner).get(attr)
            if raw is None or getattr(raw, "__perfbench_layer__", None):
                continue  # gone from this tree, or already wrapped through an alias
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if layer == "cigl.enumerate_partitions":
                wrapped = tracer.timed_generator(layer, fn)
            else:
                wrapped = tracer.timed(layer, fn, PREPARE.get(layer))
            wrapped.__perfbench_layer__ = layer
            new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
            if isinstance(owner, type):
                for name, value in list(vars(owner).items()):
                    if value is raw:
                        setattr(owner, name, new)
            else:
                for ns in namespaces:
                    for name, value in list(ns.items()):
                        if value is raw:
                            ns[name] = new


_WEIGHTED_COUNT = getattr(cigl, "cigl_weighted_count", None)  # the lru_cache, before install() wraps it


def cache_entries() -> dict[str, int]:
    """Entries held by the process-global caches when the command ends."""
    psi = sum(
        len(v)
        for name in ("_VALUE_CACHE", "_POWER_CACHE", "_FACTORIAL_CACHE")
        for v in getattr(umbral_engine, name, {}).values()
    )
    psi += sum(len(row) for row in getattr(umbral_engine, "_STIRLING_ROWS", ()))
    info = getattr(_WEIGHTED_COUNT, "cache_info", None)
    return {
        "umbral_engine.cache_entries": psi,
        "cigl.weighted_count.cache_entries": info().currsize if info else 0,
    }


def main() -> None:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        cli.main(args=argv, prog_name="umbraldob")
    finally:
        total = perf_counter() - _T0
        report = {
            "total_s": total,
            "cli_self_s": total - tracer.child[0],
            "layers": tracer.stats,
            "caches": cache_entries(),
        }
        with open(stats_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    main()
