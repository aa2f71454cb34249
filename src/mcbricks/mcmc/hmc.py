"""Hamiltonian Monte Carlo with a fixed number of leapfrog steps.

The kernel also steps an ensemble :class:`~mcbricks.core.GradientState`
under an ``(n, 2)`` key array: the trajectories of all rows are integrated
together, and each row's accept/reject decision is the single-state one,
returning one :class:`HmcInfo` per row.  Both draw their randomness through
the kernel's draw atom (see :func:`build_kernel`).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from ..core import GradientState, SamplingAlgorithm, Target, bind, init, kernel_draws
from ..integrator import (
    IntegratorState,
    Metric,
    identity_metric,
    kinetic_energy,
    sample_momentum,
    total_energy,
    trajectory,
)
from ..proposal import binomial_decision, safe_energy_diff, select_rows
from ..rng import RngKey, split_key, split_key_rows, uniform, uniform_rows

__all__ = ["HmcInfo", "init", "build_kernel", "as_algorithm"]

DEFAULT_DIVERGENCE_THRESHOLD = 1000.0


class HmcInfo(NamedTuple):
    p_accept: float
    accepted: bool
    is_divergent: bool
    energy: float
    num_integration_steps: int


def build_kernel(
    step_size: float,
    num_integration_steps: int,
    metric: Optional[Metric] = None,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> Callable[[RngKey, GradientState, Target], tuple[GradientState, HmcInfo]]:
    """Momentum resampling, a leapfrog trajectory, then binomial acceptance.

    The log acceptance ratio is ``H(start) - H(end)`` on total energies.
    Trajectories whose energy error exceeds ``divergence_threshold`` (or
    blow up to non-finite values) are rejected outright and flagged; the
    reported ``p_accept`` still reflects the raw endpoint energies.

    The kernel's ``draw`` attribute is its draw atom: ``draw(keys, target)``
    maps an ``(m, 2)`` key array to one row per key (and one ``RngKey`` to
    its row): the momentum drawn by ``sample_momentum`` under the kernel's
    metric followed by the accept uniform.  The kernel moves under one such
    row: it draws a key's row through this atom, or takes a row already
    drawn (see :func:`~mcbricks.core.kernel_draws`), so a key and its row
    make the same move.
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    if not divergence_threshold > 0.0:
        raise ValueError("divergence threshold must be strictly positive")
    if num_integration_steps < 1:
        raise ValueError("need at least one integration step")

    def draw(keys: Union[RngKey, np.ndarray], target: Target) -> np.ndarray:
        kernel_metric = metric if metric is not None else identity_metric(target.dim)
        # One key draws through the scalar functions, which cost far less than
        # a one-row array draw (see kernel_draws).
        if not isinstance(keys, np.ndarray):
            key_momentum, key_accept = split_key(keys, 2)
            return np.append(sample_momentum(key_momentum, kernel_metric), uniform(key_accept))
        key_momentum, key_accept = split_key_rows(keys, 2).transpose(1, 0, 2)
        return np.column_stack(
            (sample_momentum(key_momentum, kernel_metric), uniform_rows(key_accept))
        )

    def ensemble_kernel(draws: np.ndarray, state: GradientState, target: Target, kernel_metric: Metric):
        momentum = draws[:, :-1]
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        energy_start = -state.logdensity + kinetic_energy(momentum, kernel_metric)
        end = trajectory(start, step_size, kernel_metric, target, num_integration_steps)
        # total_energy row by row: a non-finite endpoint energy is +inf.
        energy_end = -end.logdensity + kinetic_energy(end.momentum, kernel_metric)
        energy_end[~np.isfinite(energy_end)] = math.inf
        accepted, infos = [], []
        for u, start_energy, end_energy in zip(
            draws[:, -1].tolist(), energy_start.tolist(), energy_end.tolist()
        ):
            log_ratio = safe_energy_diff(start_energy, end_energy)
            p_accept = min(1.0, math.exp(min(log_ratio, 0.0)))
            divergent = (
                not math.isfinite(end_energy) or (end_energy - start_energy) > divergence_threshold
            )
            accept = False
            if not divergent:
                accept, p_accept = binomial_decision(u, log_ratio)
            accepted.append(accept)
            infos.append(HmcInfo(
                p_accept,
                accept,
                divergent,
                end_energy if accept else start_energy,
                num_integration_steps,
            ))
        proposed = GradientState(end.position, end.logdensity, end.gradient)
        return select_rows(accepted, proposed, state), tuple(infos)

    def kernel(key: RngKey, state: GradientState, target: Target) -> tuple[GradientState, HmcInfo]:
        kernel_metric = metric if metric is not None else identity_metric(target.dim)
        draws = kernel_draws(key, draw, target)
        if draws.ndim == 2:
            return ensemble_kernel(draws, state, target, kernel_metric)
        momentum = draws[:-1]
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        energy_start = -state.logdensity + kinetic_energy(momentum, kernel_metric)
        end = trajectory(start, step_size, kernel_metric, target, num_integration_steps)
        energy_end = total_energy(end, kernel_metric)
        log_ratio = safe_energy_diff(energy_start, energy_end)
        p_accept = min(1.0, math.exp(min(log_ratio, 0.0)))
        divergent = not math.isfinite(energy_end) or (energy_end - energy_start) > divergence_threshold
        accepted = False
        if not divergent:
            accepted, p_accept = binomial_decision(draws.item(-1), log_ratio)
        chosen = GradientState(end.position, end.logdensity, end.gradient) if accepted else state
        info = HmcInfo(
            p_accept,
            accepted,
            divergent,
            energy_end if accepted else energy_start,
            num_integration_steps,
        )
        return chosen, info

    kernel.draw = draw
    return kernel


def as_algorithm(
    target: Target,
    step_size: float,
    num_integration_steps: int,
    metric: Optional[Metric] = None,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> SamplingAlgorithm:
    metric = metric if metric is not None else identity_metric(target.dim)
    return bind(
        target, init, build_kernel(step_size, num_integration_steps, metric, divergence_threshold)
    )
