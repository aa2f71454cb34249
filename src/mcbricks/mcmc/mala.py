"""Metropolis-adjusted Langevin algorithm.

One Euler step of the overdamped Langevin diffusion as the proposal,
corrected for its asymmetry.  The transition density is Gaussian,

    log q(a | b) = -||a - b - eps * grad(b)||^2 / (4 * eps) + const,

with the constant cancelling between forward and reverse directions.

The kernel also steps an ensemble :class:`~mcbricks.core.GradientState`
under an ``(n, 2)`` key array, row by row as the single-state kernel would,
returning one :class:`~mcbricks.core.AcceptanceInfo` per row.
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
    bind,
    evaluate_rows,
    init,
)
from ..proposal import asymmetric_log_ratio, binomial_accept, binomial_decision, select_rows
from ..rng import RngKey, normal_rows, normal_vector, split_key, split_key_rows, uniform_rows

__all__ = ["init", "build_kernel", "as_algorithm"]


def _log_transition(to: np.ndarray, frm: np.ndarray, gradient: np.ndarray, step_size: float):
    # One float, or a list of one per row for (n, dim) arguments.
    drift = to - frm - step_size * gradient
    if drift.ndim == 2:
        return [-float(row @ row) / (4.0 * step_size) for row in drift]
    return -float(drift @ drift) / (4.0 * step_size)


def build_kernel(
    step_size: float,
) -> Callable[[RngKey, GradientState, Target], tuple[GradientState, AcceptanceInfo]]:
    """Kernel proposing ``q' = q + eps * grad(q) + sqrt(2 eps) * z``."""
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    noise_scale = math.sqrt(2.0 * step_size)

    def ensemble_kernel(keys: np.ndarray, state: GradientState, target: Target):
        key_prop, key_accept = split_key_rows(keys, 2).transpose(1, 0, 2)
        noise = normal_rows(key_prop, target.dim)
        position = state.position + step_size * state.gradient + noise_scale * noise
        logdensity, gradient = evaluate_rows(position, target.logdensity, target.gradient)
        rows = zip(
            uniform_rows(key_accept).tolist(),
            state.logdensity.tolist(),
            logdensity.tolist(),
            np.isfinite(gradient).all(axis=1).tolist(),
            _log_transition(state.position, position, gradient, step_size),
            _log_transition(position, state.position, state.gradient, step_size),
        )
        decisions = []
        for u, old, new, finite_gradient, log_q_reverse, log_q_forward in rows:
            divergent = not (math.isfinite(new) and finite_gradient)
            if divergent:
                log_ratio = -math.inf
            else:
                log_ratio = asymmetric_log_ratio(-old, -new, log_q_reverse, log_q_forward)
            decisions.append((*binomial_decision(u, log_ratio), divergent))
        accepted = [accept for accept, _, _ in decisions]
        chosen = select_rows(accepted, GradientState(position, logdensity, gradient), state)
        infos = tuple(
            AcceptanceInfo(p_accept, accept, divergent, -chosen_logdensity)
            for (accept, p_accept, divergent), chosen_logdensity
            in zip(decisions, chosen.logdensity.tolist())
        )
        return chosen, infos

    def kernel(key: RngKey, state: GradientState, target: Target) -> tuple[GradientState, AcceptanceInfo]:
        if isinstance(key, np.ndarray):
            return ensemble_kernel(key, state, target)
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
