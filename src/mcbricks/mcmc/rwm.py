"""Random-walk Metropolis with Gaussian proposals.

The kernel also steps an ensemble: an :class:`RwmState` of ``(n, dim)``
positions and ``(n,)`` log densities under an ``(n, 2)`` key array, giving
each row the move the single-state kernel gives it under that row's key,
and one :class:`~mcbricks.core.AcceptanceInfo` per row.  Both draw their
randomness through the kernel's draw atom (see :func:`build_kernel`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

import numpy as np

from ..core import AcceptanceInfo, SamplingAlgorithm, Target, bind, evaluate_rows, kernel_draws
from ..proposal import binomial_decision, safe_energy_diff, select_rows
from ..rng import (
    RngKey, normal_rows, normal_vector, split_key, split_key_rows, uniform, uniform_rows,
)

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

    The kernel's ``draw`` attribute is its draw atom: ``draw(keys, target)``
    maps an ``(m, 2)`` key array to one row per key (and one ``RngKey`` to
    its row): the ``dim`` proposal normals followed by the accept uniform.
    The kernel moves under one such row: it draws a key's row through this
    atom, or takes a row already drawn (see
    :func:`~mcbricks.core.kernel_draws`), so a key and its row make the same
    move.
    """
    scale = np.asarray(proposal_scale, dtype=float)
    if not np.all(scale > 0.0):
        raise ValueError("proposal scale must be strictly positive")

    def draw(keys: Union[RngKey, np.ndarray], target: Target) -> np.ndarray:
        # One key draws through the scalar functions, which cost far less than
        # a one-row array draw (see kernel_draws).
        if not isinstance(keys, np.ndarray):
            key_prop, key_accept = split_key(keys, 2)
            return np.append(normal_vector(key_prop, target.dim), uniform(key_accept))
        key_prop, key_accept = split_key_rows(keys, 2).transpose(1, 0, 2)
        return np.column_stack((normal_rows(key_prop, target.dim), uniform_rows(key_accept)))

    def ensemble_kernel(draws: np.ndarray, state: RwmState, target: Target):
        position = state.position + scale * draws[:, :-1]
        logdensity = evaluate_rows(position, target.logdensity)[0]
        decisions = [
            binomial_decision(u, safe_energy_diff(-old, -new))
            for u, old, new in zip(
                draws[:, -1].tolist(), state.logdensity.tolist(), logdensity.tolist()
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
        draws = kernel_draws(key, draw, target)
        if draws.ndim == 2:
            return ensemble_kernel(draws, state, target)
        position = state.position + scale * draws[:-1]
        logdensity = float(target.logdensity(position))
        accepted, p_accept = binomial_decision(
            draws.item(-1), safe_energy_diff(-state.logdensity, -logdensity)
        )
        chosen = RwmState(position, logdensity) if accepted else state
        info = AcceptanceInfo(p_accept, accepted, False, -chosen.logdensity)
        return chosen, info

    kernel.draw = draw
    return kernel


def as_algorithm(target: Target, proposal_scale: Union[float, np.ndarray]) -> SamplingAlgorithm:
    return bind(target, init, build_kernel(proposal_scale))
