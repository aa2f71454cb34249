"""Tempered sequential Monte Carlo with pluggable mutation kernels."""

from .resampling import DegenerateWeightsError, ess, normalized_weights, resample
from .tempering import (
    ParticleEnsemble,
    SmcInfo,
    SmcStagnationError,
    TemperedTarget,
    adaptive_next_lambda,
    check_settings,
    init_ensemble,
    reweight,
    run_tempered_smc,
    smc_step,
)

__all__ = [
    "DegenerateWeightsError",
    "ess",
    "normalized_weights",
    "resample",
    "ParticleEnsemble",
    "SmcInfo",
    "SmcStagnationError",
    "TemperedTarget",
    "adaptive_next_lambda",
    "check_settings",
    "init_ensemble",
    "reweight",
    "run_tempered_smc",
    "smc_step",
]
