"""Particle resampling schemes and the weight-degeneracy statistic.

Weights live in log space everywhere; normalization goes through
logsumexp so heavily skewed ensembles cannot underflow.  All four schemes
are unbiased (the expected count of particle i is ``n * w_i``); they
differ in how much extra variance they add on top of that, with
multinomial the noisiest and systematic typically the tightest.
"""

from __future__ import annotations

import numpy as np

from ..rng import RngKey, uniform, uniform_vector

__all__ = [
    "DegenerateWeightsError",
    "normalized_weights",
    "ess",
    "resample",
    "RESAMPLING_METHODS",
]


class DegenerateWeightsError(ValueError):
    """The log weights cannot be normalized: all are -inf, or one is NaN or +inf."""


def _logsumexp(values: np.ndarray) -> float:
    peak = np.max(values)
    if peak == -np.inf:
        return -np.inf
    return float(peak + np.log(np.sum(np.exp(values - peak))))


def _total_log_weight(log_weights: np.ndarray) -> float:
    """``logsumexp`` of the weights, or the reason it is not finite."""
    if np.any(log_weights == np.inf):
        raise DegenerateWeightsError("log weights contain +inf")
    total = _logsumexp(log_weights)
    if np.isfinite(total):
        return total
    if np.any(np.isnan(log_weights)):
        raise DegenerateWeightsError("log weights contain NaN")
    raise DegenerateWeightsError("all log weights are -inf")


def normalized_weights(log_weights: np.ndarray) -> np.ndarray:
    """Exponentiate and normalize to a probability vector."""
    log_weights = np.asarray(log_weights, dtype=float)
    return np.exp(log_weights - _total_log_weight(log_weights))


def ess(log_weights: np.ndarray) -> float:
    """Effective sample size ``1 / sum(w_i^2)`` of normalized weights.

    Computed in log space as ``exp(2 * lse(lw) - lse(2 * lw))``; lies in
    [1, N], reaching N at equal weights and 1 at a one-hot vector.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    total = _total_log_weight(log_weights)
    return float(np.exp(2.0 * total - _logsumexp(2.0 * log_weights)))


def _inverse_cdf(weights: np.ndarray, points: np.ndarray) -> np.ndarray:
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # close the final bin against rounding
    return np.minimum(
        np.searchsorted(cumulative, points, side="right"), len(weights) - 1
    ).astype(np.int64)


def _multinomial(key: RngKey, weights: np.ndarray, num: int) -> np.ndarray:
    return _inverse_cdf(weights, uniform_vector(key, num))


def _systematic(key: RngKey, weights: np.ndarray, num: int) -> np.ndarray:
    shift = uniform(key)
    points = (np.arange(num) + shift) / num
    return _inverse_cdf(weights, points)


def _stratified(key: RngKey, weights: np.ndarray, num: int) -> np.ndarray:
    shifts = uniform_vector(key, num)
    points = (np.arange(num) + shifts) / num
    return _inverse_cdf(weights, points)


def _residual(key: RngKey, weights: np.ndarray, num: int) -> np.ndarray:
    scaled = num * weights
    floors = np.floor(scaled).astype(np.int64)
    deterministic = np.repeat(np.arange(len(weights)), floors)
    remainder = num - int(np.sum(floors))
    if remainder == 0:
        return deterministic
    residual = (scaled - floors) / remainder
    extra = _inverse_cdf(residual, uniform_vector(key, remainder))
    return np.concatenate([deterministic, extra])


_SCHEMES = {
    "multinomial": _multinomial,
    "systematic": _systematic,
    "stratified": _stratified,
    "residual": _residual,
}

RESAMPLING_METHODS = tuple(sorted(_SCHEMES))


def resample(
    key: RngKey,
    log_weights: np.ndarray,
    num: int,
    method: str = "systematic",
) -> np.ndarray:
    """Draw ``num`` ancestor indices proportional to the weights.

    Every method has expected counts ``num * w_i``.  Systematic counts lie
    in {floor, ceil} of that, and residual counts never fall below the
    floor.
    """
    if num < 1:
        raise ValueError("must resample at least one particle")
    if method not in _SCHEMES:
        raise ValueError(
            f"unknown resampling method {method!r}; choose from {RESAMPLING_METHODS}"
        )
    weights = normalized_weights(log_weights)
    return _SCHEMES[method](key, weights, num)
