"""Hamiltonian Monte Carlo with a fixed number of leapfrog steps.

The kernel also steps an ensemble :class:`~mcbricks.core.GradientState`
under an ``(n, 2)`` key array: the trajectories of all rows are integrated
together, and each row's accept/reject decision is the single-state one,
returning one :class:`HmcInfo` per row.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..core import GradientState, SamplingAlgorithm, Target, bind, init
from ..integrator import (
    IntegratorState,
    Metric,
    identity_metric,
    kinetic_energy,
    sample_momentum,
    total_energy,
    trajectory,
)
from ..proposal import binomial_accept, binomial_decision, safe_energy_diff, select_rows
from ..rng import RngKey, split_key, split_key_rows, uniform_rows

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
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    if not divergence_threshold > 0.0:
        raise ValueError("divergence threshold must be strictly positive")
    if num_integration_steps < 1:
        raise ValueError("need at least one integration step")

    def ensemble_kernel(keys: np.ndarray, state: GradientState, target: Target, kernel_metric: Metric):
        key_momentum, key_accept = split_key_rows(keys, 2).transpose(1, 0, 2)
        momentum = sample_momentum(key_momentum, kernel_metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        energy_start = -state.logdensity + kinetic_energy(momentum, kernel_metric)
        end = trajectory(start, step_size, kernel_metric, target, num_integration_steps)
        # total_energy row by row: a non-finite endpoint energy is +inf.
        energy_end = -end.logdensity + kinetic_energy(end.momentum, kernel_metric)
        energy_end[~np.isfinite(energy_end)] = math.inf
        accepted, infos = [], []
        for u, start_energy, end_energy in zip(
            uniform_rows(key_accept).tolist(), energy_start.tolist(), energy_end.tolist()
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
        if isinstance(key, np.ndarray):
            return ensemble_kernel(key, state, target, kernel_metric)
        key_momentum, key_accept = split_key(key, 2)
        momentum = sample_momentum(key_momentum, kernel_metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        energy_start = -state.logdensity + kinetic_energy(momentum, kernel_metric)
        end = trajectory(start, step_size, kernel_metric, target, num_integration_steps)
        energy_end = total_energy(end, kernel_metric)
        log_ratio = safe_energy_diff(energy_start, energy_end)
        p_accept = min(1.0, math.exp(min(log_ratio, 0.0)))
        divergent = not math.isfinite(energy_end) or (energy_end - energy_start) > divergence_threshold
        proposed = GradientState(end.position, end.logdensity, end.gradient)
        if divergent:
            chosen, accepted = state, False
        else:
            chosen, accepted, p_accept = binomial_accept(key_accept, log_ratio, proposed, state)
        info = HmcInfo(
            p_accept,
            accepted,
            divergent,
            energy_end if accepted else energy_start,
            num_integration_steps,
        )
        return chosen, info

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
