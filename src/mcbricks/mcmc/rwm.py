"""Random-walk Metropolis with Gaussian proposals.

The kernel steps one :class:`RwmState` or an ensemble of them (``(n, dim)``
positions, ``(n,)`` log densities under an ``(n, 2)`` key array), with one
body and one accept rule: each row makes the move the single-state kernel
makes under that row's key.  Its randomness comes from the shared draw atom
:func:`~mcbricks.integrator.momentum_draw` (see :func:`build_kernel`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

import numpy as np

from ..core import AcceptanceInfo, SamplingAlgorithm, Target, bind, evaluate
from ..integrator import kernel_draws, momentum_draw
from ..proposal import binomial_decision, safe_energy_diff, settle
from ..rng import RngKey

__all__ = ["RwmState", "init", "build_kernel", "as_algorithm"]


class RwmState(NamedTuple):
    position: np.ndarray
    logdensity: float


def init(position: np.ndarray, target: Target) -> RwmState:
    position = np.asarray(position, dtype=float)
    return RwmState(position, evaluate(position, target.logdensity)[0])


def build_kernel(
    proposal_scale: Union[float, np.ndarray],
) -> Callable[[RngKey, RwmState, Target], tuple[RwmState, AcceptanceInfo]]:
    """Kernel proposing ``q' = q + scale * z`` with standard-normal z.

    ``proposal_scale`` is a positive finite scalar or a per-coordinate
    vector of them (diagonal preconditioning); any other raises
    ``ValueError``.

    ``kernel.draw`` is the shared draw atom
    :func:`~mcbricks.integrator.momentum_draw`: the proposal normals, then
    the accept uniform.
    The key is an ``RngKey`` or a pre-drawn row for one state and an
    ``(n, 2)`` key array for an ensemble of ``n``;
    :func:`~mcbricks.integrator.kernel_draws` checks it against the state.
    """
    scale = np.asarray(proposal_scale, dtype=float)
    if not np.all((scale > 0.0) & np.isfinite(scale)):
        raise ValueError(f"proposal scale must be positive and finite, not {proposal_scale!r}")

    def decide(u: float, old: float, new: float) -> tuple[bool, AcceptanceInfo]:
        accepted, p_accept = binomial_decision(u, safe_energy_diff(-old, -new))
        return accepted, AcceptanceInfo(p_accept, accepted, False, -(new if accepted else old))

    def kernel(key: RngKey, state: RwmState, target: Target) -> tuple[RwmState, AcceptanceInfo]:
        draws = kernel_draws(key, state, target)
        position = state.position + scale * draws[..., :-1]
        logdensity = evaluate(position, target.logdensity)[0]
        proposed = RwmState(position, logdensity)
        return settle(decide, draws[..., -1], (state.logdensity, logdensity), proposed, state)

    kernel.draw = momentum_draw
    return kernel


def as_algorithm(target: Target, proposal_scale: Union[float, np.ndarray]) -> SamplingAlgorithm:
    return bind(target, init, build_kernel(proposal_scale))
