"""Generalized HMC (Horowitz): persistent momentum, one leapfrog step.

Momentum is only partially refreshed each iteration, so trajectories build
up across many single-step transitions instead of inside one long
trajectory.  Rejections negate the momentum (required for invariance); the
nonreversible slice rule keeps the rejection rate from destroying the
persistent flow, and the slice variable itself persists in the state.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .. import core
from ..core import AcceptanceInfo, SamplingAlgorithm, Target, bind
from ..integrator import (
    IntegratorState,
    Metric,
    _kinetic_energy,
    check_metric,
    identity_metric,
    kernel_draws,
    leapfrog,
    momentum_draw,
    scale_momentum,
    total_energy,
)
from ..proposal import (
    SliceVariable, acceptance_probability, drift_slice, nonreversible_slice_accept, safe_energy_diff,
)
from ..rng import RngKey

__all__ = ["GhmcState", "init", "build_kernel", "as_algorithm"]


class GhmcState(NamedTuple):
    position: np.ndarray
    logdensity: float
    gradient: np.ndarray
    momentum: np.ndarray
    slice_var: SliceVariable


def init(
    position: np.ndarray,
    target: Target,
    momentum: Optional[np.ndarray] = None,
    slice_u: float = 0.5,
) -> GhmcState:
    """Initial state with zero momentum and a mid-range slice by default.

    Both fields are part of the chain and converge to their stationary
    marginals during burn-in; pass explicit values to control them (the
    slice must lie strictly inside (-1, 1), and a nonzero value keeps the
    very first acceptance decision non-trivial).
    """
    position = np.asarray(position, dtype=float)
    momentum = np.zeros_like(position) if momentum is None else np.asarray(momentum, dtype=float)
    if momentum.shape != position.shape:
        raise ValueError("momentum and position shapes disagree")
    if not abs(slice_u) < 1.0:
        raise ValueError("slice variable must lie in (-1, 1)")
    return GhmcState(
        *core.init(position, target), momentum, SliceVariable(slice_u)
    )


def build_kernel(
    step_size: float,
    persistence: float = 0.9,
    metric: Optional[Metric] = None,
    slice_jitter: float = 0.0,
) -> Callable[[RngKey, GhmcState, Target], tuple[GhmcState, AcceptanceInfo]]:
    """One generalized-HMC transition.

    ``persistence`` is the momentum autocorrelation a in the partial
    refresh ``p <- a * p + sqrt(1 - a^2) * zeta`` with ``zeta ~ N(0, M)``;
    0 refreshes fully, values near 1 keep momentum across steps.
    ``slice_jitter`` in [0, 1] controls the per-step slice refresh: 0
    leaves the slice fully persistent, 1 redraws it uniformly each step.

    ``kernel.draw`` is the shared draw atom
    :func:`~mcbricks.integrator.momentum_draw`: standard normals, which the
    kernel scales into the refresh momentum under ``metric``, then the slice
    uniform.  The kernel steps one state only, under an ``RngKey`` or a
    pre-drawn row (:func:`~mcbricks.integrator.kernel_draws` checks the
    key); an ensemble state raises the ``TypeError`` a key of the wrong form
    raises.
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    if not 0.0 <= persistence <= 1.0:
        raise ValueError("persistence must lie in [0, 1]")
    if not 0.0 <= slice_jitter <= 1.0:
        raise ValueError("slice jitter must lie in [0, 1]")
    refresh_scale = math.sqrt(1.0 - persistence * persistence)

    def kernel(key: RngKey, state: GhmcState, target: Target) -> tuple[GhmcState, AcceptanceInfo]:
        kernel_metric = metric if metric is not None else identity_metric(target.dim)
        if state.position.ndim != 1:
            raise TypeError(
                f"kernel key must be an RngKey or a float64 row of {target.dim + 1} values for "
                f"one state: GHMC steps one state, not positions of shape {state.position.shape}"
            )
        draws = kernel_draws(key, state, target)
        refresh = scale_momentum(draws[:-1], kernel_metric)
        momentum = persistence * state.momentum + refresh_scale * refresh
        energy_start = -state.logdensity + _kinetic_energy(momentum, kernel_metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        end = leapfrog(start, step_size, kernel_metric, target)
        energy_end = total_energy(end, kernel_metric)
        log_ratio = safe_energy_diff(energy_start, energy_end)
        p_accept = acceptance_probability(log_ratio)
        proposed = GhmcState(end.position, end.logdensity, end.gradient, end.momentum, state.slice_var)
        # A rejection keeps the position and negates the momentum.
        current = GhmcState(state.position, state.logdensity, state.gradient, -momentum, state.slice_var)
        chosen, accepted, new_slice = nonreversible_slice_accept(
            state.slice_var, log_ratio, proposed, current
        )
        chosen = chosen._replace(slice_var=drift_slice(draws.item(-1), new_slice, slice_jitter))
        energy = energy_end if accepted else energy_start
        return chosen, AcceptanceInfo(p_accept, accepted, not math.isfinite(energy_end), energy, 1)

    kernel.draw = momentum_draw
    return kernel


def as_algorithm(
    target: Target,
    step_size: float,
    persistence: float = 0.9,
    metric: Optional[Metric] = None,
    slice_jitter: float = 0.0,
) -> SamplingAlgorithm:
    metric = metric if metric is not None else identity_metric(target.dim)
    check_metric(metric, target.dim)
    return bind(target, init, build_kernel(step_size, persistence, metric, slice_jitter))
