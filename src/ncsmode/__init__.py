"""Joint packet-loss mode and state estimation over lossy control links.

The package simulates a linear plant whose actuator commands cross packet
dropping input links (the drop pattern follows a Markov chain over a binary
mode per link) and estimates, step by step, which links delivered: two
recursive single-filter estimators plus an interacting-multiple-model
baseline, with a Monte Carlo harness and metrics for comparing them.
"""

from .filters import (
    DEFAULT_GATE_PVALUE,
    DEFAULT_HELD_COV_FLOOR,
    Alg1Estimator,
    Alg2Estimator,
    GaussianBelief,
    ImmEstimator,
    NumericalError,
    StepResult,
    alg1_const_sigma,
    alg1_predict_output,
    alg2_predict,
    floor_held_cov,
    gaussian_logpdf,
    kf_predict,
    kf_update,
    mode_argmax,
    mode_posterior_update_log,
)
from .markov import (
    LinkChain,
    TransitionMatrix,
    kron_compose,
    predict_prior,
    sample_next,
    stationary_distribution,
)
from .metrics import MetricsSummary, aggregate, mde_percent, rmse
from .model import (
    ArmaModel,
    AugmentedModel,
    LossStrategy,
    ModeSpace,
    PlantModel,
    UnsupportedConversionError,
    build_augmented,
    ss_to_arma,
)
from .sim import (
    ESTIMATOR_KEYS,
    TrialConfig,
    TrialRecord,
    derive_trial_seed,
    replay_estimators,
    run_monte_carlo,
    simulate_trial,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "PlantModel", "ArmaModel", "ModeSpace", "LossStrategy", "AugmentedModel",
    "UnsupportedConversionError", "build_augmented", "ss_to_arma",
    # markov
    "LinkChain", "TransitionMatrix", "kron_compose", "predict_prior",
    "sample_next", "stationary_distribution",
    # filters
    "NumericalError", "GaussianBelief", "StepResult",
    "kf_predict", "kf_update", "gaussian_logpdf",
    "mode_posterior_update_log", "mode_argmax",
    "alg1_const_sigma", "alg1_predict_output", "alg2_predict",
    "Alg1Estimator", "Alg2Estimator", "ImmEstimator",
    "floor_held_cov",
    "DEFAULT_HELD_COV_FLOOR", "DEFAULT_GATE_PVALUE",
    # sim
    "ESTIMATOR_KEYS", "TrialConfig", "TrialRecord", "derive_trial_seed",
    "simulate_trial", "run_monte_carlo", "replay_estimators",
    # metrics
    "MetricsSummary", "aggregate", "mde_percent", "rmse",
]
