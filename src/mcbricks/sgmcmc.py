"""Stochastic-gradient samplers: SGLD and SGHMC.

Both integrate noisy Langevin-type dynamics driven by a minibatch
gradient estimate and apply no accept/reject correction, trading exactness
for per-step cost independent of the data size.  The gradient estimator is
a small contract object so models plug in per-datum gradients once and
reuse them across both samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import SamplingAlgorithm, _positive
from .rng import RngKey, normal_vector, permutation, split_key

__all__ = [
    "GradientEstimator",
    "SgldState",
    "SghmcState",
    "make_gradient_estimator",
    "sample_batch",
    "sgld_init",
    "sgld_step",
    "sghmc_init",
    "sghmc_step",
    "sgld_algorithm",
    "sghmc_algorithm",
]


@dataclass(frozen=True)
class GradientEstimator:
    """Unbiased minibatch estimate of the full log-density gradient.

    ``estimate(key, position, batch_indices)`` returns
    ``grad_logprior(position) + (data_size / len(batch)) * sum over the
    batch of grad_loglik(position, i)``, which averages to the full-data
    gradient over all equally likely batches.  The key argument is part of
    the contract for estimators with internal randomness; this exact
    estimator ignores it.
    """

    data_size: int
    batch_size: int
    estimate: Callable[[Optional[RngKey], np.ndarray, np.ndarray], np.ndarray] = field(repr=False)


class SgldState(NamedTuple):
    position: np.ndarray


class SghmcState(NamedTuple):
    position: np.ndarray
    momentum: np.ndarray


def make_gradient_estimator(
    grad_logprior: Callable[[np.ndarray], np.ndarray],
    grad_loglik_point: Callable[[np.ndarray, int], np.ndarray],
    data_size: int,
    batch_size: int,
) -> GradientEstimator:
    """Assemble the standard prior-plus-rescaled-batch estimator."""
    if data_size < 0:
        raise ValueError("data size must be non-negative")
    if not 0 <= batch_size <= max(data_size, 0):
        raise ValueError("batch size must lie in [0, data_size]")
    if data_size > 0 and batch_size == 0:
        raise ValueError("batch size must be positive when data is present")

    def estimate(
        key: Optional[RngKey], position: np.ndarray, batch_indices: np.ndarray
    ) -> np.ndarray:
        del key  # deterministic given the batch
        total = np.asarray(grad_logprior(position), dtype=float)
        batch_indices = np.asarray(batch_indices, dtype=np.int64)
        if batch_indices.size:
            scale = data_size / batch_indices.size
            batch_sum = np.zeros_like(total)
            for index in batch_indices:
                batch_sum += np.asarray(grad_loglik_point(position, int(index)), dtype=float)
            total = total + scale * batch_sum
        return total

    return GradientEstimator(data_size, batch_size, estimate)


def sample_batch(key: RngKey, estimator: GradientEstimator) -> np.ndarray:
    """Uniform minibatch of ``batch_size`` indices, without replacement."""
    if estimator.data_size == 0:
        return np.zeros(0, dtype=np.int64)
    return permutation(key, estimator.data_size)[: estimator.batch_size]


def sgld_init(position: np.ndarray) -> SgldState:
    return SgldState(np.asarray(position, dtype=float))


def sgld_step(
    key: RngKey,
    state: SgldState,
    estimator: GradientEstimator,
    step_size: float,
) -> SgldState:
    """One stochastic-gradient Langevin step.

    ``q' = q + (eps/2) * grad_estimate + sqrt(eps) * z`` with a fresh
    minibatch drawn without replacement; no accept/reject.  ``step_size``
    must be positive and finite (``ValueError`` otherwise).
    """
    _positive("step size", step_size)
    key_batch, key_noise, key_estimate = split_key(key, 3)
    batch = sample_batch(key_batch, estimator)
    gradient = np.asarray(estimator.estimate(key_estimate, state.position, batch), dtype=float)
    noise = normal_vector(key_noise, state.position.shape[0])
    position = state.position + 0.5 * step_size * gradient + math.sqrt(step_size) * noise
    return SgldState(position)


def sghmc_init(position: np.ndarray, momentum: Optional[np.ndarray] = None) -> SghmcState:
    position = np.asarray(position, dtype=float)
    if momentum is None:
        momentum = np.zeros_like(position)
    return SghmcState(position, np.asarray(momentum, dtype=float))


def sghmc_step(
    key: RngKey,
    state: SghmcState,
    estimator: GradientEstimator,
    step_size: float,
    friction: float = 0.1,
) -> SghmcState:
    """One stochastic-gradient HMC step with friction.

    ``q' = q + v`` then ``v' = (1 - friction) * v + eps * grad_estimate(q')
    + sqrt(2 * friction * eps) * z``; the noise scale balances the friction
    at stationarity when the gradient noise itself is neglected.
    ``step_size`` must be positive and finite (``ValueError`` otherwise).
    """
    _positive("step size", step_size)
    if not 0.0 < friction <= 1.0:
        raise ValueError("friction must lie in (0, 1]")
    key_batch, key_noise, key_estimate = split_key(key, 3)
    position = state.position + state.momentum
    batch = sample_batch(key_batch, estimator)
    gradient = np.asarray(estimator.estimate(key_estimate, position, batch), dtype=float)
    noise = normal_vector(key_noise, position.shape[0])
    momentum = (
        (1.0 - friction) * state.momentum
        + step_size * gradient
        + math.sqrt(2.0 * friction * step_size) * noise
    )
    return SghmcState(position, momentum)


def sgld_algorithm(estimator: GradientEstimator, step_size: float) -> SamplingAlgorithm:
    """Package SGLD behind init/step; steps report no info (always None)."""
    return SamplingAlgorithm(
        init=sgld_init,
        step=lambda key, state: (sgld_step(key, state, estimator, step_size), None),
    )


def sghmc_algorithm(
    estimator: GradientEstimator, step_size: float, friction: float = 0.1
) -> SamplingAlgorithm:
    """Package SGHMC behind init/step; steps report no info (always None)."""
    return SamplingAlgorithm(
        init=partial(sghmc_init, momentum=None),
        step=lambda key, state: (
            sghmc_step(key, state, estimator, step_size, friction),
            None,
        ),
    )
