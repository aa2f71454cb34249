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
The draws are summed in row order by :func:`~mcbricks.core._ordered_sum`,
so a step's numbers are those of a per-draw loop bit for bit.  The state
exposes the approximation's location as ``position``, so
:func:`~mcbricks.core.run_chain` folds :func:`meanfield_vi`'s step like a
sampler's; the step's draw atom lets it draw a block of steps' noise in one
call, as it does for the kernels.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import ApproxAlgorithm, Target, _ordered_sum, _positive, evaluate_rows
from .rng import RngKey, normal_matrix, normal_rows

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
    """Factorized Gaussian ``N(mu, diag(exp(log_sigma))**2)`` with its optimizer's accumulator."""

    mu: np.ndarray
    log_sigma: np.ndarray
    opt_state: Any

    @property
    def position(self) -> np.ndarray:
        """The approximation's location ``mu``, which a chain runner records per step."""
        return self.mu


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
    """Plain gradient ascent with a constant, positive and finite learning rate."""
    _positive("learning rate", learning_rate)

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
    """Adam with bias correction, in ascent orientation.

    ``learning_rate`` must be positive and finite (``ValueError`` otherwise).
    """
    _positive("learning rate", learning_rate)

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


def _draws(key: Any, state: MeanFieldState, num_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # ``key`` is an RngKey, or the float64 (num_samples, dim) noise already
    # drawn from one, which is used as it is.  The one check of the count
    # for elbo_estimate, vi_step and vi_sample.
    if num_samples < 1:
        raise ValueError("need at least one sample")
    sigma = np.exp(state.log_sigma)
    dim = state.mu.shape[0]
    if not isinstance(key, np.ndarray):
        xi = normal_matrix(key, num_samples, dim)
    elif key.dtype == np.float64 and key.shape == (num_samples, dim):
        xi = key
    else:
        raise TypeError(
            f"VI noise must be an RngKey or a float64 ({num_samples}, {dim}) block, "
            f"not a {key.dtype} array of shape {key.shape}"
        )
    return state.mu + sigma * xi, xi, sigma


def _elbo(logdensities: np.ndarray, log_sigma: np.ndarray) -> float:
    # Mean log density, summed in row order from 0.0 as a per-draw loop would
    # (a pairwise sum would change the last bits), plus the closed-form entropy.
    total = float(_ordered_sum(logdensities))
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
    draws, _, _ = _draws(key, state, num_samples)
    return _elbo(evaluate_rows(draws, target.logdensity)[0], state.log_sigma)


def vi_step(
    key: Any,
    state: MeanFieldState,
    target: Target,
    optimizer: Optimizer,
    num_samples: int,
) -> tuple[MeanFieldState, ViInfo]:
    """One ascent step on the reparameterized ELBO.

    Pathwise gradients: ``d/dmu = mean_j grad log pi(z_j)`` and
    ``d/dlog_sigma = mean_j [grad log pi(z_j) * xi_j * sigma] + 1`` (the
    entropy contributes the constant 1).  ``key`` is an :class:`RngKey`, or
    the ``(num_samples, dim)`` noise that ``normal_matrix`` draws from it,
    which moves the step bit for bit as the key does.  The draws' densities
    and gradients come from :func:`~mcbricks.core.evaluate_rows`, and the
    info carries the ELBO estimate of the same draws.
    """
    draws, xi, sigma = _draws(key, state, num_samples)
    logdensities, gradients = evaluate_rows(draws, target.logdensity, target.gradient)
    dim = state.mu.shape[0]
    # Row-order sums from zero, as for the ELBO.
    grad_mu = _ordered_sum(gradients) / num_samples
    grad_log_sigma = (_ordered_sum(gradients * xi) / num_samples) * sigma + 1.0
    params = np.concatenate([state.mu, state.log_sigma])
    gradient = np.concatenate([grad_mu, grad_log_sigma])
    new_params, opt_state = optimizer.update(gradient, state.opt_state, params)
    new_state = MeanFieldState(new_params[:dim], new_params[dim:], opt_state)
    return new_state, ViInfo(_elbo(logdensities, state.log_sigma))


def vi_sample(key: RngKey, state: MeanFieldState, num_samples: int) -> np.ndarray:
    """Draw ``num_samples`` rows ``mu + sigma * xi`` from the approximation."""
    draws, _, _ = _draws(key, state, num_samples)
    return draws


def meanfield_vi(target: Target, optimizer: Optimizer, num_samples: int = 16) -> ApproxAlgorithm:
    """Package mean-field VI behind the init/step/sample protocol.

    The step carries a draw atom, ``step.draw(keys)``: record ``i`` is
    ``normal_matrix(keys[i], num_samples, dim)`` bit for bit (through
    :func:`~mcbricks.rng.normal_rows`), ``num_samples * dim`` floats, so
    :func:`~mcbricks.core.run_chain` serves the step a block of steps'
    noise at a time and the step moves under a record as under its key.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    floats = num_samples * target.dim

    def step(key, state):
        return vi_step(key, state, target, optimizer, num_samples)

    def draw(keys: np.ndarray) -> np.ndarray:
        return normal_rows(keys, floats).reshape(-1, num_samples, target.dim)

    draw.floats = floats
    step.draw = draw
    return ApproxAlgorithm(
        init=lambda position: meanfield_init(position, optimizer),
        step=step,
        sample=vi_sample,
    )
