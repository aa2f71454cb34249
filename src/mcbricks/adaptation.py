"""Warmup machinery: step-size and mass-matrix calibration.

Three building blocks and a driver.  Dual averaging steers the log step
size so the observed acceptance statistic matches a target.  A Welford
accumulator estimates the posterior (co)variance in one streaming pass.
The window schedule interleaves them Stan-style: a fast stage that only
tunes the step size, a sequence of doubling slow windows that accumulate
covariance (each ending with a metric rebuild and a step-size restart),
and a final fast stage that polishes the step size for the new metric.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from .core import GradientState, Target, bound_draw, init, step_inputs
from .integrator import (
    IntegratorState,
    Metric,
    _kinetic_energy,
    dense_metric,
    diagonal_metric,
    identity_metric,
    leapfrog,
    sample_momentum,
    total_energy,
)
from .mcmc import hmc, nuts
from .rng import RngKey, fold_in, split_key

__all__ = [
    "DualAveragingState",
    "WelfordState",
    "WindowSchedule",
    "StepSizeSearchError",
    "da_init",
    "da_update",
    "welford_init",
    "welford_update",
    "welford_finalize",
    "build_schedule",
    "check_settings",
    "find_reasonable_step_size",
    "window_adaptation",
    "WindowAdaptationResult",
]

# Dual-averaging constants from the usual step-size adaptation recipe.
DA_T0 = 10.0
DA_GAMMA = 0.05
DA_KAPPA = 0.75


class DualAveragingState(NamedTuple):
    """Nesterov dual-averaging accumulator for the log step size.

    ``log_step`` is the current iterate, ``log_step_avg`` the polyak-style
    average that is actually returned after warmup, ``h_bar`` the running
    average of the acceptance error, ``mu`` the shrinkage anchor, and ``t``
    the 1-based update counter.
    """

    log_step: float
    log_step_avg: float
    h_bar: float
    mu: float
    t: int


class WelfordState(NamedTuple):
    """Streaming mean and scatter; ``m2`` is a vector or a matrix."""

    count: int
    mean: np.ndarray
    m2: np.ndarray


class WindowSchedule(NamedTuple):
    """Ordered warmup stages as ``(kind, length)`` with kind fast or slow."""

    stages: tuple[tuple[str, int], ...]


class StepSizeSearchError(RuntimeError):
    """The doubling/halving search failed to bracket 0.5 acceptance."""


def da_init(initial_step: float) -> DualAveragingState:
    """Start dual averaging at ``initial_step``, anchored at 10x it."""
    if initial_step <= 0.0:
        raise ValueError("initial step size must be strictly positive")
    return DualAveragingState(
        log_step=math.log(initial_step),
        log_step_avg=0.0,
        h_bar=0.0,
        mu=math.log(10.0 * initial_step),
        t=1,
    )


def da_update(
    state: DualAveragingState,
    p_accept: float,
    target_accept: float = 0.8,
) -> DualAveragingState:
    """One dual-averaging update driven by the observed acceptance."""
    if not 0.0 <= p_accept <= 1.0:
        raise ValueError("acceptance statistic must lie in [0, 1]")
    t = float(state.t)
    eta = 1.0 / (t + DA_T0)
    h_bar = (1.0 - eta) * state.h_bar + eta * (target_accept - p_accept)
    log_step = state.mu - (math.sqrt(t) / DA_GAMMA) * h_bar
    weight = t ** (-DA_KAPPA)
    log_step_avg = weight * log_step + (1.0 - weight) * state.log_step_avg
    return DualAveragingState(log_step, log_step_avg, h_bar, state.mu, state.t + 1)


def welford_init(dim: int, mode: str = "diagonal") -> WelfordState:
    """Empty accumulator; ``mode`` selects vector or matrix scatter."""
    if mode == "diagonal":
        return WelfordState(0, np.zeros(dim), np.zeros(dim))
    if mode == "dense":
        return WelfordState(0, np.zeros(dim), np.zeros((dim, dim)))
    raise ValueError("mode must be 'diagonal' or 'dense'")


def welford_update(state: WelfordState, sample: np.ndarray) -> WelfordState:
    """Standard Welford recurrence on one new sample."""
    sample = np.asarray(sample, dtype=float)
    count = state.count + 1
    delta = sample - state.mean
    mean = state.mean + delta / count
    delta2 = sample - mean
    if state.m2.ndim == 1:
        m2 = state.m2 + delta * delta2
    else:
        m2 = state.m2 + np.outer(delta, delta2)
    return WelfordState(count, mean, m2)


def welford_finalize(state: WelfordState, regularize: bool) -> Metric:
    """Turn the accumulated scatter into a metric.

    The inverse mass is set to the (optionally regularized) sample
    covariance: ``(n/(n+5)) * cov + 1e-3 * (5/(n+5)) * I``, which shrinks
    small-sample estimates toward a small multiple of the identity.
    """
    if state.count < 2:
        raise ValueError("variance needs at least two samples")
    cov = state.m2 / (state.count - 1)
    if regularize:
        n = float(state.count)
        shrink = n / (n + 5.0)
        ridge = 1e-3 * (5.0 / (n + 5.0))
        if cov.ndim == 1:
            cov = shrink * cov + ridge
        else:
            cov = shrink * cov + ridge * np.eye(cov.shape[0])
    if cov.ndim == 1:
        return diagonal_metric(cov)
    return dense_metric(cov)


def build_schedule(num_warmup: int) -> WindowSchedule:
    """Stan-style warmup split: fast 75, slow 25/50/100/..., fast 50.

    Below 150 iterations the three phases shrink proportionally
    (round(n * [0.15, 0.70, 0.15]), remainder to the slow phase, single
    slow window).  Otherwise slow windows double from 25; a window that
    could not double again before the final fast stage absorbs the
    remaining slow budget.
    """
    if num_warmup < 20:
        raise ValueError("warmup must be at least 20 iterations")
    if num_warmup < 150:
        first = round(num_warmup * 0.15)
        last = round(num_warmup * 0.15)
        middle = num_warmup - first - last
        return WindowSchedule((("fast", first), ("slow", middle), ("fast", last)))
    first, last = 75, 50
    slow_budget = num_warmup - first - last
    stages: list[tuple[str, int]] = [("fast", first)]
    window = 25
    used = 0
    while used < slow_budget:
        if used + window + 2 * window > slow_budget:
            window = slow_budget - used
        stages.append(("slow", window))
        used += window
        window *= 2
    stages.append(("fast", last))
    return WindowSchedule(tuple(stages))


def check_settings(num_warmup: int, target_accept: float = 0.8) -> None:
    """Raise ``ValueError`` for settings :func:`window_adaptation` rejects before any draw."""
    build_schedule(num_warmup)
    if not 0.0 < target_accept < 1.0:
        raise ValueError("target acceptance must lie in (0, 1)")


def find_reasonable_step_size(
    key: RngKey,
    target: Target,
    state: GradientState,
    metric: Metric,
    initial: float = 1.0,
) -> float:
    """Coarse step-size search: double or halve until acceptance crosses 0.5.

    Evaluates the one-leapfrog acceptance ratio from ``state`` with a
    single momentum drawn from ``key``, then moves the step by factors of
    two in the direction that brings the ratio toward 0.5.  The search
    runs over the whole double range: it raises :class:`StepSizeSearchError`
    only when the next trial step would overflow to infinity or underflow
    to zero without a crossing.
    """
    if initial <= 0.0:
        raise ValueError("initial step size must be strictly positive")
    momentum = sample_momentum(key, metric)
    start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
    energy_start = -start.logdensity + _kinetic_energy(momentum, metric)

    def acceptance(step: float) -> float:
        energy_end = total_energy(leapfrog(start, step, metric, target), metric)
        if energy_end == math.inf:
            return 0.0
        return math.exp(min(energy_start - energy_end, 700.0))

    step = float(initial)
    # Extreme trial steps overflow; the energy rule turns that into +inf.
    with np.errstate(over="ignore", invalid="ignore"):
        direction = 1 if acceptance(step) > 0.5 else -1
        while True:
            step = step * 2.0 if direction == 1 else step * 0.5
            if not 0.0 < step < math.inf:
                break
            ratio = acceptance(step)
            if (direction == 1 and ratio <= 0.5) or (direction == -1 and ratio >= 0.5):
                return step
    bound = "overflowed" if direction == 1 else "underflowed"
    raise StepSizeSearchError(
        f"no step size bracketing 0.5 acceptance from {initial!r}: the trial step {bound}"
    )


class WindowAdaptationResult(NamedTuple):
    step_size: float
    metric: Metric
    state: GradientState


def window_adaptation(
    key: RngKey,
    target: Target,
    initial_position: np.ndarray,
    num_warmup: int,
    kernel_family: str = "nuts",
    target_accept: float = 0.8,
    mass: str = "diagonal",
    initial_step_size: float = 1.0,
    num_integration_steps: int = 10,
    max_depth: int = nuts.DEFAULT_MAX_DEPTH,
    divergence_threshold: float = hmc.DEFAULT_DIVERGENCE_THRESHOLD,
) -> WindowAdaptationResult:
    """Run staged warmup and return the tuned step size, metric, and state.

    ``kernel_family`` selects the transition used during warmup: ``"nuts"``
    or ``"hmc"`` (fixed ``num_integration_steps``).  Iteration ``i`` moves
    under ``fold_in(key_run, i)``, its record served by one
    :func:`~mcbricks.core.step_inputs` stream for all of warmup: a record
    holds no step size or metric, so a block of records may cross stages.
    Dual averaging runs in every stage; the covariance accumulator only
    sees slow-window samples.  At each slow-window boundary the metric is
    rebuilt from the window, the accumulator resets, and the step size
    restarts from a fresh bracketing search at the current position.  The
    returned step size is the dual-averaging average from the final stage.
    """
    if kernel_family not in ("nuts", "hmc"):
        raise ValueError("kernel family must be 'nuts' or 'hmc'")
    check_settings(num_warmup, target_accept)
    initial_position = np.asarray(initial_position, dtype=float)
    if initial_position.shape != (target.dim,):
        raise ValueError(
            f"initial position of shape {initial_position.shape} "
            f"does not match target dimension {target.dim}"
        )

    def build(step_size: float, metric: Metric):
        if kernel_family == "nuts":
            return nuts.build_kernel(step_size, metric, max_depth, divergence_threshold)
        return hmc.build_kernel(step_size, num_integration_steps, metric, divergence_threshold)

    state = init(initial_position, target)
    metric = identity_metric(target.dim)
    key_search, key_run = split_key(key, 2)
    step_size = find_reasonable_step_size(
        fold_in(key_search, 0), target, state, metric, initial_step_size
    )
    da = da_init(step_size)
    schedule = build_schedule(num_warmup)
    # Iteration i runs under fold_in(key_run, i), whatever its stage.
    draw = bound_draw(build(step_size, metric), target)
    records = step_inputs(key_run, draw, 0, num_warmup, draw.floats)
    boundary = 0
    welford: Optional[WelfordState] = None
    # As in run_chain: the kernels absorb non-finite arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, length in schedule.stages:
            if kind == "slow":
                welford = welford_init(target.dim, mass)
            for _, record in islice(records, length):
                kernel = build(math.exp(da.log_step), metric)
                state, info = kernel(record, state, target)
                da = da_update(da, info.p_accept, target_accept)
                if kind == "slow":
                    welford = welford_update(welford, state.position)
            if kind == "slow":
                metric = welford_finalize(welford, regularize=True)
                boundary += 1
                step_size = find_reasonable_step_size(
                    fold_in(key_search, boundary), target, state, metric, math.exp(da.log_step)
                )
                da = da_init(step_size)
    return WindowAdaptationResult(math.exp(da.log_step_avg), metric, state)
