"""Mean-field Gaussian variational inference with pathwise gradients.

The approximation is a fully factorized Gaussian with parameters
(mu, log_sigma).  Draws are reparameterized, ``z = mu + sigma * xi`` with
parameter-free noise xi, so ELBO gradients flow through the target's
gradient alone; the entropy term is closed-form.  A pluggable first-order
optimizer (SGD or Adam here) performs the ascent, keeping its own
accumulator inside the variational state.

The draws of a step come out as one ``(num_samples, dim)`` matrix, and
:func:`~mcbricks.core.evaluate_rows` gives their log densities and
gradients, as it does for the SMC ensemble: a target whose callables are its
row form's own pair is evaluated a block at a time, and any other callable
is still called once per draw.  This module calls no target callable itself.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import ApproxAlgorithm, Target, evaluate_rows
from .rng import RngKey, normal_matrix

__all__ = [
    "MeanFieldState",
    "ViInfo",
    "Optimizer",
    "sgd",
    "adam",
    "meanfield_init",
    "elbo_estimate",
    "vi_step",
    "vi_sample",
    "meanfield_vi",
]

_HALF_LOG_2PI_E = 0.5 * (math.log(2.0 * math.pi) + 1.0)


class MeanFieldState(NamedTuple):
    mu: np.ndarray
    log_sigma: np.ndarray
    opt_state: Any


class ViInfo(NamedTuple):
    elbo: float


class Optimizer(NamedTuple):
    """First-order ascent method behind an init/update contract.

    ``init(params)`` builds the accumulator; ``update(gradient, opt_state,
    params)`` returns ``(new_params, new_opt_state)`` for one ascent step.
    """

    init: Callable[[np.ndarray], Any]
    update: Callable[[np.ndarray, Any, np.ndarray], tuple[np.ndarray, Any]]


def sgd(learning_rate: float) -> Optimizer:
    """Plain gradient ascent with a constant learning rate."""
    if learning_rate <= 0.0:
        raise ValueError("learning rate must be strictly positive")

    def update(gradient: np.ndarray, opt_state: Any, params: np.ndarray):
        return params + learning_rate * gradient, opt_state

    return Optimizer(init=lambda params: None, update=update)


class AdamState(NamedTuple):
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def adam(
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> Optimizer:
    """Adam with bias correction, in ascent orientation."""
    if learning_rate <= 0.0:
        raise ValueError("learning rate must be strictly positive")

    def init(params: np.ndarray) -> AdamState:
        zeros = np.zeros_like(np.asarray(params, dtype=float))
        return AdamState(0, zeros, zeros.copy())

    def update(gradient: np.ndarray, opt_state: AdamState, params: np.ndarray):
        step = opt_state.step + 1
        first = beta1 * opt_state.first_moment + (1.0 - beta1) * gradient
        second = beta2 * opt_state.second_moment + (1.0 - beta2) * gradient * gradient
        first_hat = first / (1.0 - beta1**step)
        second_hat = second / (1.0 - beta2**step)
        new_params = params + learning_rate * first_hat / (np.sqrt(second_hat) + epsilon)
        return new_params, AdamState(step, first, second)

    return Optimizer(init=init, update=update)


def meanfield_init(position: np.ndarray, optimizer: Optimizer) -> MeanFieldState:
    """Start the approximation at the given position with unit scales."""
    mu = np.asarray(position, dtype=float)
    log_sigma = np.zeros_like(mu)
    params = np.concatenate([mu, log_sigma])
    return MeanFieldState(mu, log_sigma, optimizer.init(params))


def _draws(key: RngKey, state: MeanFieldState, num_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sigma = np.exp(state.log_sigma)
    xi = normal_matrix(key, num_samples, state.mu.shape[0])
    return state.mu + sigma * xi, xi, sigma


def _elbo(logdensities: np.ndarray, log_sigma: np.ndarray) -> float:
    # Mean log density, summed in row order from 0.0 (a pairwise sum would
    # change the last bits), plus the closed-form entropy.
    total = 0.0
    for value in logdensities.tolist():
        total += value
    dim = log_sigma.shape[0]
    return total / len(logdensities) + float(np.sum(log_sigma)) + dim * _HALF_LOG_2PI_E


def elbo_estimate(
    key: RngKey,
    state: MeanFieldState,
    target: Target,
    num_samples: int,
) -> float:
    """Monte Carlo evidence lower bound with closed-form entropy.

    ``mean_j log pi(z_j) + sum_i log sigma_i + (dim/2) log(2 pi e)`` over
    ``num_samples`` reparameterized draws, evaluated by
    :func:`~mcbricks.core.evaluate_rows`.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    draws, _, _ = _draws(key, state, num_samples)
    return _elbo(evaluate_rows(draws, target.logdensity)[0], state.log_sigma)


def vi_step(
    key: RngKey,
    state: MeanFieldState,
    target: Target,
    optimizer: Optimizer,
    num_samples: int,
) -> tuple[MeanFieldState, ViInfo]:
    """One ascent step on the reparameterized ELBO.

    Pathwise gradients: ``d/dmu = mean_j grad log pi(z_j)`` and
    ``d/dlog_sigma = mean_j [grad log pi(z_j) * xi_j * sigma] + 1`` (the
    entropy contributes the constant 1).  The draws' densities and gradients
    come from :func:`~mcbricks.core.evaluate_rows`, and the info carries the
    ELBO estimate of the same draws.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    draws, xi, sigma = _draws(key, state, num_samples)
    logdensities, gradients = evaluate_rows(draws, target.logdensity, target.gradient)
    dim = state.mu.shape[0]
    # Row-order sums from zero, as for the ELBO.
    grad_sum = np.zeros(dim)
    grad_scale_sum = np.zeros(dim)
    for grad, noise in zip(gradients, xi):
        grad_sum += grad
        grad_scale_sum += grad * noise
    grad_mu = grad_sum / num_samples
    grad_log_sigma = (grad_scale_sum / num_samples) * sigma + 1.0
    params = np.concatenate([state.mu, state.log_sigma])
    gradient = np.concatenate([grad_mu, grad_log_sigma])
    new_params, opt_state = optimizer.update(gradient, state.opt_state, params)
    new_state = MeanFieldState(new_params[:dim], new_params[dim:], opt_state)
    return new_state, ViInfo(_elbo(logdensities, state.log_sigma))


def vi_sample(key: RngKey, state: MeanFieldState, num_samples: int) -> np.ndarray:
    """Draw ``num_samples`` rows ``mu + sigma * xi`` from the approximation."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    draws, _, _ = _draws(key, state, num_samples)
    return draws


def meanfield_vi(target: Target, optimizer: Optimizer, num_samples: int = 16) -> ApproxAlgorithm:
    """Package mean-field VI behind the init/step/sample protocol."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    return ApproxAlgorithm(
        init=lambda position: meanfield_init(position, optimizer),
        step=lambda key, state: vi_step(key, state, target, optimizer, num_samples),
        sample=vi_sample,
    )
