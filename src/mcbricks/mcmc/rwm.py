"""Random-walk Metropolis with Gaussian proposals.

The kernel also steps an ensemble: an :class:`RwmState` of ``(n, dim)``
positions and ``(n,)`` log densities under an ``(n, 2)`` key array, giving
each row the move the single-state kernel gives it under that row's key,
and one :class:`~mcbricks.core.AcceptanceInfo` per row.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

import numpy as np

from ..core import AcceptanceInfo, SamplingAlgorithm, Target, bind, evaluate_rows
from ..proposal import binomial_accept, binomial_decision, safe_energy_diff, select_rows
from ..rng import RngKey, normal_rows, normal_vector, split_key, split_key_rows, uniform_rows

__all__ = ["RwmState", "init", "build_kernel", "as_algorithm"]


class RwmState(NamedTuple):
    position: np.ndarray
    logdensity: float


def init(position: np.ndarray, target: Target) -> RwmState:
    position = np.asarray(position, dtype=float)
    if position.ndim == 2:
        return RwmState(position, evaluate_rows(position, target.logdensity)[0])
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

    def ensemble_kernel(keys: np.ndarray, state: RwmState, target: Target):
        key_prop, key_accept = split_key_rows(keys, 2).transpose(1, 0, 2)
        position = state.position + scale * normal_rows(key_prop, target.dim)
        logdensity = evaluate_rows(position, target.logdensity)[0]
        decisions = [
            binomial_decision(u, safe_energy_diff(-old, -new))
            for u, old, new in zip(
                uniform_rows(key_accept).tolist(), state.logdensity.tolist(), logdensity.tolist()
            )
        ]
        accepted = [accept for accept, _ in decisions]
        chosen = select_rows(accepted, RwmState(position, logdensity), state)
        infos = tuple(
            AcceptanceInfo(p_accept, accept, False, -chosen_logdensity)
            for (accept, p_accept), chosen_logdensity in zip(decisions, chosen.logdensity.tolist())
        )
        return chosen, infos

    def kernel(key: RngKey, state: RwmState, target: Target) -> tuple[RwmState, AcceptanceInfo]:
        if isinstance(key, np.ndarray):
            return ensemble_kernel(key, state, target)
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
