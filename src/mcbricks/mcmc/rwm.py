"""Random-walk Metropolis with Gaussian proposals."""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

import numpy as np

from ..core import AcceptanceInfo, SamplingAlgorithm, Target, bind
from ..proposal import binomial_accept, safe_energy_diff
from ..rng import RngKey, normal_vector, split_key

__all__ = ["RwmState", "init", "build_kernel", "as_algorithm"]


class RwmState(NamedTuple):
    position: np.ndarray
    logdensity: float


def init(position: np.ndarray, target: Target) -> RwmState:
    position = np.asarray(position, dtype=float)
    return RwmState(position, float(target.logdensity(position)))


def build_kernel(
    proposal_scale: Union[float, np.ndarray],
) -> Callable[[RngKey, RwmState, Target], tuple[RwmState, AcceptanceInfo]]:
    """Kernel proposing ``q' = q + scale * z`` with standard-normal z.

    ``proposal_scale`` is a positive scalar or a positive per-coordinate
    vector (diagonal preconditioning).
    """
    scale = np.asarray(proposal_scale, dtype=float)
    if not np.all(scale > 0.0):
        raise ValueError("proposal scale must be strictly positive")

    def kernel(key: RngKey, state: RwmState, target: Target) -> tuple[RwmState, AcceptanceInfo]:
        key_prop, key_accept = split_key(key, 2)
        noise = normal_vector(key_prop, target.dim)
        position = state.position + scale * noise
        logdensity = float(target.logdensity(position))
        log_ratio = safe_energy_diff(-state.logdensity, -logdensity)
        proposed = RwmState(position, logdensity)
        chosen, accepted, p_accept = binomial_accept(key_accept, log_ratio, proposed, state)
        info = AcceptanceInfo(p_accept, accepted, False, -chosen.logdensity)
        return chosen, info

    return kernel


def as_algorithm(target: Target, proposal_scale: Union[float, np.ndarray]) -> SamplingAlgorithm:
    return bind(target, init, build_kernel(proposal_scale))
