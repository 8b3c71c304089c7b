"""Exact Bell/Stirling towers with certified Dobinski-type series evaluation."""

from .cigl import (
    PARTITION_CAP,
    SetPartition,
    cigl_q_bell,
    cigl_q_dobinski_exact,
    cigl_q_power,
    cigl_q_stirling,
    cigl_q_stirling_table,
    cigl_statistic,
    enumerate_partitions,
    partition_counts,
)
from .dobinski import (
    GeneratingFunctionCheck,
    PsiPoissonDistribution,
    TruncatedSeries,
    default_ratio_threshold,
    dobinski_bell,
    generating_function_checks,
    jackson_derivative,
    moment_functional,
    poisson_moment_exact,
    psi_exp,
    rota_bell_exact,
    verify_falling_moment,
    verify_pmf_via_generating_function,
)
from .errors import (
    CapExceededError,
    NegativeTermError,
    NonConvergentError,
    OutOfRangeError,
    UmbralDobError,
)
from .exact_core import (
    DEFAULT_SUM_CAP,
    SUM_CAP_ENV,
    CertifiedValue,
    Poly,
    certified_sum,
)
from .operator_calc import (
    apply_number_operator,
    dobinski_specialization,
    exponential_polynomial,
    verify_conjugation,
)
from .umbral_engine import (
    PsiSequence,
    StirlingTable,
    bell_via_sum,
    carlitz_q_stirling,
    classical_stirling_table,
    gauss_number,
    psi_stirling_diagnostic,
    q_number_symbolic,
    recurrence_table,
    stirling2,
)

__version__ = "0.1.0"
