"""Metropolis-adjusted Langevin algorithm.

One Euler step of the overdamped Langevin diffusion as the proposal,
corrected for its asymmetry.  The transition density is Gaussian,

    log q(a | b) = -||a - b - eps * grad(b)||^2 / (4 * eps) + const,

with the constant cancelling between forward and reverse directions.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..core import AcceptanceInfo, GradientState, SamplingAlgorithm, Target, bind, init
from ..proposal import asymmetric_log_ratio, binomial_accept
from ..rng import RngKey, normal_vector, split_key

__all__ = ["init", "build_kernel", "as_algorithm"]


def _log_transition(to: np.ndarray, frm: np.ndarray, gradient: np.ndarray, step_size: float) -> float:
    drift = to - frm - step_size * gradient
    return -float(drift @ drift) / (4.0 * step_size)


def build_kernel(
    step_size: float,
) -> Callable[[RngKey, GradientState, Target], tuple[GradientState, AcceptanceInfo]]:
    """Kernel proposing ``q' = q + eps * grad(q) + sqrt(2 eps) * z``."""
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    noise_scale = math.sqrt(2.0 * step_size)

    def kernel(key: RngKey, state: GradientState, target: Target) -> tuple[GradientState, AcceptanceInfo]:
        key_prop, key_accept = split_key(key, 2)
        noise = normal_vector(key_prop, target.dim)
        position = state.position + step_size * state.gradient + noise_scale * noise
        logdensity = float(target.logdensity(position))
        gradient = np.asarray(target.gradient(position), dtype=float)
        proposed = GradientState(position, logdensity, gradient)
        divergent = not (math.isfinite(logdensity) and np.all(np.isfinite(gradient)))
        if divergent:
            log_ratio = -math.inf
        else:
            log_ratio = asymmetric_log_ratio(
                -state.logdensity,
                -logdensity,
                _log_transition(state.position, position, gradient, step_size),
                _log_transition(position, state.position, state.gradient, step_size),
            )
        chosen, accepted, p_accept = binomial_accept(key_accept, log_ratio, proposed, state)
        info = AcceptanceInfo(p_accept, accepted, divergent, -chosen.logdensity)
        return chosen, info

    return kernel


def as_algorithm(target: Target, step_size: float) -> SamplingAlgorithm:
    return bind(target, init, build_kernel(step_size))
