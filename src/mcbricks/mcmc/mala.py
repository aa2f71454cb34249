"""Metropolis-adjusted Langevin algorithm.

One Euler step of the overdamped Langevin diffusion as the proposal,
corrected for its asymmetry.  The transition density is Gaussian,

    log q(a | b) = -||a - b - eps * grad(b)||^2 / (4 * eps) + const,

with the constant cancelling between forward and reverse directions.

The kernel also steps an ensemble :class:`~mcbricks.core.GradientState`
under an ``(n, 2)`` key array, row by row as the single-state kernel would,
returning one :class:`~mcbricks.core.AcceptanceInfo` per row.  Both draw
their randomness through the kernel's draw atom (see :func:`build_kernel`).
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from ..core import (
    AcceptanceInfo,
    GradientState,
    SamplingAlgorithm,
    Target,
    bind,
    evaluate_rows,
    init,
    kernel_draws,
)
from ..proposal import asymmetric_log_ratio, binomial_decision, select_rows
from ..rng import (
    RngKey, normal_rows, normal_vector, split_key, split_key_rows, uniform, uniform_rows,
)

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
    """Kernel proposing ``q' = q + eps * grad(q) + sqrt(2 eps) * z``.

    The kernel's ``draw`` attribute is its draw atom: ``draw(keys, target)``
    maps an ``(m, 2)`` key array to one row per key (and one ``RngKey`` to
    its row): the ``dim`` proposal normals followed by the accept uniform.
    The kernel moves under one such row: it draws a key's row through this
    atom, or takes a row already drawn (see
    :func:`~mcbricks.core.kernel_draws`), so a key and its row make the same
    move.
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    noise_scale = math.sqrt(2.0 * step_size)

    def draw(keys: Union[RngKey, np.ndarray], target: Target) -> np.ndarray:
        # One key draws through the scalar functions, which cost far less than
        # a one-row array draw (see kernel_draws).
        if not isinstance(keys, np.ndarray):
            key_prop, key_accept = split_key(keys, 2)
            return np.append(normal_vector(key_prop, target.dim), uniform(key_accept))
        key_prop, key_accept = split_key_rows(keys, 2).transpose(1, 0, 2)
        return np.column_stack((normal_rows(key_prop, target.dim), uniform_rows(key_accept)))

    def ensemble_kernel(draws: np.ndarray, state: GradientState, target: Target):
        position = state.position + step_size * state.gradient + noise_scale * draws[:, :-1]
        logdensity, gradient = evaluate_rows(position, target.logdensity, target.gradient)
        rows = zip(
            draws[:, -1].tolist(),
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
        draws = kernel_draws(key, draw, target)
        if draws.ndim == 2:
            return ensemble_kernel(draws, state, target)
        position = state.position + step_size * state.gradient + noise_scale * draws[:-1]
        logdensity = float(target.logdensity(position))
        gradient = np.asarray(target.gradient(position), dtype=float)
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
        accepted, p_accept = binomial_decision(draws.item(-1), log_ratio)
        chosen = GradientState(position, logdensity, gradient) if accepted else state
        info = AcceptanceInfo(p_accept, accepted, divergent, -chosen.logdensity)
        return chosen, info

    kernel.draw = draw
    return kernel


def as_algorithm(target: Target, step_size: float) -> SamplingAlgorithm:
    return bind(target, init, build_kernel(step_size))
