"""nextsym: forward estimation for finite-alphabet ergodic time series.

A streaming estimator of E(g(X_{n+1}) | X_0..X_n) built on recurrence
statistics of suffix blocks, exact-oracle process generators for benchmarks,
and a Monte Carlo harness that verifies the estimator's consistency behavior
empirically.

``import nextsym`` loads no submodule: each re-exported name is imported
from its module on first access (PEP 562) and then kept here.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "sequences": "Alphabet SymbolSequence",
        "estimator": "Schedules PayoffFunction EstimateResult DistributionEstimate schedule_J recurrence_times "
        "estimate estimate_distribution payoff_means",
        "streaming": "StreamingEstimator CapacityError",
        "processes": "IIDProcess MarkovProcess HiddenMarkovProcess Oracle Trajectory generate stationary_block_law",
        "harness": "ExperimentConfig ExperimentResult MetricsRow TailEstimate run_experiment LemmaResamplingReport "
        "check_lemma_resampling KappaDivergenceReport check_kappa_divergence ReturnTimeReport "
        "check_return_time_bound",
        "verify": "EquivalenceReport verify_equivalence",
        "seeding": "derive_seed",
    }.items()
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
