"""Metropolis-adjusted Langevin algorithm.

One Euler step of the overdamped Langevin diffusion as the proposal,
corrected for its asymmetry.  The transition density is Gaussian,

    log q(a | b) = -||a - b - eps * grad(b)||^2 / (4 * eps) + const,

with the constant cancelling between forward and reverse directions.

The kernel steps one :class:`~mcbricks.core.GradientState` or an ensemble
of them under an ``(n, 2)`` key array, with one body and one accept rule:
each row makes the move the single-state kernel makes under that row's key.
Its randomness comes from the shared draw atom
:func:`~mcbricks.integrator.momentum_draw` (see :func:`build_kernel`).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..core import (
    AcceptanceInfo,
    GradientState,
    SamplingAlgorithm,
    Target,
    _row_dot,
    bind,
    evaluate,
    init,
)
from ..integrator import kernel_draws, momentum_draw
from ..proposal import asymmetric_log_ratio, binomial_decision, settle
from ..rng import RngKey

__all__ = ["init", "build_kernel", "as_algorithm"]


def _log_transition(to: np.ndarray, frm: np.ndarray, gradient: np.ndarray, step_size: float):
    # One float, or an array of one per row for (n, dim) arguments.
    drift = to - frm - step_size * gradient
    if drift.ndim == 2:
        return -_row_dot(drift, drift) / (4.0 * step_size)
    return -float(drift @ drift) / (4.0 * step_size)


def build_kernel(
    step_size: float,
) -> Callable[[RngKey, GradientState, Target], tuple[GradientState, AcceptanceInfo]]:
    """Kernel proposing ``q' = q + eps * grad(q) + sqrt(2 eps) * z``.

    ``kernel.draw`` is the shared draw atom
    :func:`~mcbricks.integrator.momentum_draw`: the proposal normals, then
    the accept uniform.
    The key is an ``RngKey`` or a pre-drawn row for one state and an
    ``(n, 2)`` key array for an ensemble of ``n``;
    :func:`~mcbricks.integrator.kernel_draws` checks it against the state.
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    noise_scale = math.sqrt(2.0 * step_size)

    def decide(u, old, new, finite_gradient, log_q_reverse, log_q_forward):
        divergent = not (math.isfinite(new) and finite_gradient)
        if divergent:
            log_ratio = -math.inf
        else:
            log_ratio = asymmetric_log_ratio(-old, -new, log_q_reverse, log_q_forward)
        accepted, p_accept = binomial_decision(u, log_ratio)
        return accepted, AcceptanceInfo(p_accept, accepted, divergent, -(new if accepted else old))

    def kernel(key: RngKey, state: GradientState, target: Target) -> tuple[GradientState, AcceptanceInfo]:
        draws = kernel_draws(key, state, target)
        position = state.position + step_size * state.gradient + noise_scale * draws[..., :-1]
        logdensity, gradient = evaluate(position, target.logdensity, target.gradient)
        columns = (state.logdensity, logdensity, np.isfinite(gradient).all(axis=-1),
                   _log_transition(state.position, position, gradient, step_size),
                   _log_transition(position, state.position, state.gradient, step_size))
        return settle(
            decide, draws[..., -1], columns, GradientState(position, logdensity, gradient), state
        )

    kernel.draw = momentum_draw
    return kernel


def as_algorithm(target: Target, step_size: float) -> SamplingAlgorithm:
    return bind(target, init, build_kernel(step_size))
