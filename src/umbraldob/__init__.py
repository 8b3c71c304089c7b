"""Exact Bell/Stirling towers with certified Dobinski-type series evaluation.

Each name below is loaded from its module on first access (PEP 562): ``import
umbraldob`` loads no submodule, and ``from umbraldob import X`` only X's module.
"""

import importlib

_EXPORTS = {  # public name -> the module that defines it
    name: module
    for module, names in {
        "cigl": (
            "PARTITION_CAP cigl_q_bell cigl_q_dobinski_exact cigl_q_powers"
            " cigl_q_stirling_table enumerate_partitions partition_counts"
        ),
        "dobinski": (
            "GeneratingFunctionCheck PsiPoissonDistribution default_ratio_threshold dobinski_bell"
            " generating_function_checks jackson_derivative psi_exp"
            " rota_bell_exact verify_falling_moment verify_pmf_via_generating_function"
        ),
        "errors": "CapExceededError NegativeTermError NonConvergentError UmbralDobError",
        "exact_core": "SUM_CAP CertifiedValue Poly certified_sum",
        "operator_calc": "apply_number_operator dobinski_specialization exponential_polynomial verify_conjugation",
        "umbral_engine": (
            "PsiSequence StirlingTable bell_via_sum carlitz_q_stirling poisson_moment_exact"
            " psi_stirling_diagnostic q_number_symbolic recurrence_table stirling2"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
