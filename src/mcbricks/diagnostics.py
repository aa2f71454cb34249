"""Convergence and efficiency diagnostics over stacked chains.

All functions take a sample stack shaped (num_chains, num_draws, dim).
Split-R-hat compares half-chains, so it detects both between-chain
disagreement and within-chain drift; effective sample size corrects the
raw draw count for autocorrelation using Geyer's initial monotone
positive-sequence truncation of the pairwise autocorrelation sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "DegenerateChainsError",
    "split_rhat",
    "effective_sample_size",
    "Summary",
    "summarize",
]


class DegenerateChainsError(ValueError):
    """Chains carry no within-chain variance or a non-finite draw; diagnostics are undefined."""


def _validate(stack: np.ndarray) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError("expected samples shaped (num_chains, num_draws, dim)")
    if stack.shape[0] < 1:
        raise ValueError("need at least one chain")
    if stack.shape[1] < 4:
        raise ValueError("need at least four draws per chain")
    if not np.isfinite(stack).all():
        raise DegenerateChainsError("draws contain NaN or infinite values")
    return stack


def _split_halves(stack: np.ndarray) -> np.ndarray:
    half = stack.shape[1] // 2
    return np.concatenate([stack[:, :half, :], stack[:, -half:, :]], axis=0)


def split_rhat(stack: np.ndarray) -> np.ndarray:
    """Potential scale reduction over half-chains, per dimension.

    With W the mean within-half-chain variance and B/n the variance of
    half-chain means, returns ``sqrt((W * (n-1)/n + B/n) / W)``.  Values
    near 1 indicate the half-chains agree in location and spread.
    """
    halves = _split_halves(_validate(stack))
    n = halves.shape[1]
    within = np.var(halves, axis=1, ddof=1)
    w = np.mean(within, axis=0)
    if np.any(w == 0.0):
        raise DegenerateChainsError("zero within-chain variance")
    means = np.mean(halves, axis=1)
    between_over_n = np.var(means, axis=0, ddof=1)
    pooled = (n - 1) / n * w + between_over_n
    return np.sqrt(pooled / w)


def _autocovariances(chains: np.ndarray) -> np.ndarray:
    # Biased (divide-by-n) autocovariance per chain via FFT, all lags.
    num_chains, num_draws = chains.shape
    centered = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * num_draws - 1).bit_length()
    transformed = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(transformed * np.conj(transformed), n=size, axis=1)[:, :num_draws]
    return acov.real / num_draws


def _ess_single_dim(chains: np.ndarray) -> float:
    num_chains, num_draws = chains.shape
    acov = _autocovariances(chains)
    mean_acov = acov.mean(axis=0)
    within = mean_acov[0] * num_draws / (num_draws - 1.0)
    var_plus = mean_acov[0]
    if num_chains > 1:
        var_plus += np.var(chains.mean(axis=1), ddof=1)
    if var_plus == 0.0 or within == 0.0:
        raise DegenerateChainsError("zero variance in chains")
    # Autocorrelations of the pooled process, rho_0 = 1.
    rho = 1.0 - (within - mean_acov) / var_plus
    rho[0] = 1.0
    # Geyer: sum successive pairs while positive, enforcing monotone decay.
    tau = -1.0
    previous_pair = math.inf
    t = 0
    while t + 1 < num_draws:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, previous_pair)
        tau += 2.0 * pair
        previous_pair = pair
        t += 2
    total = num_chains * num_draws
    if tau <= 0.0:
        return float(total)
    return float(min(max(total / tau, 1.0), total))


def effective_sample_size(stack: np.ndarray) -> np.ndarray:
    """Autocorrelation-adjusted sample count per dimension.

    Combines all chains' autocovariances plus the between-chain variance,
    truncates the autocorrelation sum with Geyer's initial monotone
    positive sequence, and clips the result to
    ``[1, num_chains * num_draws]``.
    """
    stack = _validate(stack)
    return np.array(
        [_ess_single_dim(stack[:, :, d]) for d in range(stack.shape[2])]
    )


@dataclass(frozen=True)
class Summary:
    """Per-dimension moments and diagnostics plus run-level counters."""

    mean: np.ndarray
    std: np.ndarray
    rhat: np.ndarray
    ess: np.ndarray
    acceptance_mean: float
    divergences: int


def summarize(stack: np.ndarray, infos: Optional[Iterable] = None) -> Summary:
    """Condense a run: moments, R-hat, ESS, acceptance, divergences.

    ``infos`` is a flat stream of per-step info records from any mix of
    chains; entries lacking acceptance or divergence fields (or None, as
    emitted by the stochastic-gradient kernels) are skipped for the
    respective statistic.
    """
    stack = _validate(stack)
    pooled = stack.reshape(-1, stack.shape[2])
    acceptances = []
    divergences = 0
    for info in infos if infos is not None else ():
        p_accept = getattr(info, "p_accept", None)
        if p_accept is not None:
            acceptances.append(float(p_accept))
        if getattr(info, "is_divergent", False):
            divergences += 1
    return Summary(
        mean=pooled.mean(axis=0),
        std=pooled.std(axis=0, ddof=1),
        rhat=split_rhat(stack),
        ess=effective_sample_size(stack),
        acceptance_mean=float(np.mean(acceptances)) if acceptances else math.nan,
        divergences=divergences,
    )
