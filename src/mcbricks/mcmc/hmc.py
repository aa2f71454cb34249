"""Hamiltonian Monte Carlo with a fixed number of leapfrog steps.

The kernel steps one :class:`~mcbricks.core.GradientState` or an ensemble
of them under an ``(n, 2)`` key array, with one body and one accept rule:
the trajectories of all rows are integrated together, and each row's
decision is the single-state one.  Its randomness comes from the shared
draw atom :func:`~mcbricks.integrator.momentum_draw` (see
:func:`build_kernel`).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..core import AcceptanceInfo, GradientState, SamplingAlgorithm, Target, bind, init
from ..integrator import (
    IntegratorState,
    Metric,
    _kinetic_energy,
    check_metric,
    identity_metric,
    kernel_draws,
    momentum_draw,
    scale_momentum,
    total_energy,
    trajectory,
)
from ..proposal import binomial_decision, safe_energy_diff, settle
from ..rng import RngKey

__all__ = ["init", "build_kernel", "as_algorithm"]

DEFAULT_DIVERGENCE_THRESHOLD = 1000.0


def build_kernel(
    step_size: float,
    num_integration_steps: int,
    metric: Optional[Metric] = None,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> Callable[[RngKey, GradientState, Target], tuple[GradientState, AcceptanceInfo]]:
    """Momentum resampling, a leapfrog trajectory, then binomial acceptance.

    The log acceptance ratio is ``H(start) - H(end)`` on total energies.
    Trajectories whose energy error exceeds ``divergence_threshold`` (or
    blow up to non-finite values) are rejected outright and flagged; the
    reported ``p_accept`` still reflects the raw endpoint energies.

    ``kernel.draw`` is the shared draw atom
    :func:`~mcbricks.integrator.momentum_draw`: standard normals, which the
    kernel scales into a momentum under ``metric``, then the accept uniform.
    The key is an ``RngKey`` or a pre-drawn row for one state and an
    ``(n, 2)`` key array for an ensemble of ``n``;
    :func:`~mcbricks.integrator.kernel_draws` checks it against the state.
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    if not divergence_threshold > 0.0:
        raise ValueError("divergence threshold must be strictly positive")
    if num_integration_steps < 1:
        raise ValueError("need at least one integration step")

    def decide(u: float, energy_start: float, energy_end: float) -> tuple[bool, AcceptanceInfo]:
        log_ratio = safe_energy_diff(energy_start, energy_end)
        divergent = not math.isfinite(energy_end) or (energy_end - energy_start) > divergence_threshold
        # u = 1 rejects a divergent move whatever its probability.
        accepted, p_accept = binomial_decision(1.0 if divergent else u, log_ratio)
        energy = energy_end if accepted else energy_start
        return accepted, AcceptanceInfo(p_accept, accepted, divergent, energy, num_integration_steps)

    def kernel(key: RngKey, state: GradientState, target: Target) -> tuple[GradientState, AcceptanceInfo]:
        kernel_metric = metric if metric is not None else identity_metric(target.dim)
        draws = kernel_draws(key, state, target)
        momentum = scale_momentum(draws[..., :-1], kernel_metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        energy_start = -state.logdensity + _kinetic_energy(momentum, kernel_metric)
        end = trajectory(start, step_size, kernel_metric, target, num_integration_steps)
        proposed = GradientState(end.position, end.logdensity, end.gradient)
        energies = (energy_start, total_energy(end, kernel_metric))
        return settle(decide, draws[..., -1], energies, proposed, state)

    kernel.draw = momentum_draw
    return kernel


def as_algorithm(
    target: Target,
    step_size: float,
    num_integration_steps: int,
    metric: Optional[Metric] = None,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> SamplingAlgorithm:
    metric = metric if metric is not None else identity_metric(target.dim)
    check_metric(metric, target.dim)
    return bind(
        target, init, build_kernel(step_size, num_integration_steps, metric, divergence_threshold)
    )
