"""nextsym: forward estimation for finite-alphabet ergodic time series.

A streaming estimator of E(g(X_{n+1}) | X_0..X_n) built on recurrence
statistics of suffix blocks, exact-oracle process generators for benchmarks,
and a Monte Carlo harness that verifies the estimator's consistency behavior
empirically.
"""

from .estimator import (
    DistributionEstimate,
    EstimateResult,
    PayoffFunction,
    Schedules,
    estimate,
    estimate_distribution,
    payoff_means,
    recurrence_times,
    schedule_J,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    KappaDivergenceReport,
    LemmaResamplingReport,
    MetricsRow,
    ReturnTimeReport,
    TailEstimate,
    check_kappa_divergence,
    check_lemma_resampling,
    check_return_time_bound,
    run_experiment,
)
from .processes import (
    HiddenMarkovProcess,
    IIDProcess,
    MarkovProcess,
    Oracle,
    Trajectory,
    generate,
    stationary_block_law,
)
from .seeding import derive_seed
from .sequences import Alphabet, SymbolSequence
from .streaming import CapacityError, StreamingEstimator
from .verify import EquivalenceReport, verify_equivalence

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "SymbolSequence",
    "Schedules",
    "PayoffFunction",
    "EstimateResult",
    "DistributionEstimate",
    "schedule_J",
    "recurrence_times",
    "estimate",
    "estimate_distribution",
    "payoff_means",
    "StreamingEstimator",
    "CapacityError",
    "IIDProcess",
    "MarkovProcess",
    "HiddenMarkovProcess",
    "Oracle",
    "Trajectory",
    "generate",
    "stationary_block_law",
    "ExperimentConfig",
    "ExperimentResult",
    "MetricsRow",
    "TailEstimate",
    "run_experiment",
    "LemmaResamplingReport",
    "check_lemma_resampling",
    "KappaDivergenceReport",
    "check_kappa_divergence",
    "ReturnTimeReport",
    "check_return_time_bound",
    "EquivalenceReport",
    "verify_equivalence",
    "derive_seed",
    "__version__",
]
