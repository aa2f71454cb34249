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

from .core import _ordered_sum

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


def _has_constant_dimension(stack: np.ndarray) -> bool:
    """Whether every draw of some dimension is equal.

    Variances alone miss it: a mean like ``0.1`` is not exact, so a constant
    half-chain can read a variance of a few ulp.  One reduction over the
    draw axes of the whole stack is several times faster than one per
    strided dimension.
    """
    return bool(np.any(np.ptp(stack, axis=(0, 1)) == 0.0))


def split_rhat(stack: np.ndarray) -> np.ndarray:
    """Potential scale reduction over half-chains, per dimension.

    With W the mean within-half-chain variance and B/n the variance of
    half-chain means, returns ``sqrt((W * (n-1)/n + B/n) / W)``.  Values
    near 1 indicate the half-chains agree in location and spread.  A
    zero ``W`` or a dimension whose draws are all equal raises
    :class:`DegenerateChainsError`.

    The half-chains are the views ``stack[:, :n]`` and ``stack[:, -n:]``
    (the middle draw of an odd count is in neither).  Only their
    ``(num_chains, dim)`` variances and means are joined, first halves
    first, so the draws are never copied; the reduced axis is not the
    innermost one, so each sum adds whole rows in draw order and the bits
    are those of reducing a joined copy.
    """
    stack = _validate(stack)
    if _has_constant_dimension(stack):
        raise DegenerateChainsError("zero within-chain variance")
    n = stack.shape[1] // 2
    halves = (stack[:, :n], stack[:, -n:])
    w = np.mean(np.concatenate([np.var(half, axis=1, ddof=1) for half in halves]), axis=0)
    if np.any(w == 0.0):
        raise DegenerateChainsError("zero within-chain variance")
    means = np.concatenate([np.mean(half, axis=1) for half in halves])
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
    # Geyer: sum successive pairs while positive, enforcing monotone decay,
    # in pair order from -1.0.
    pairs = rho[:-1:2] + rho[1::2]
    stops = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: stops[0]] if stops.size else pairs)
    tau = float(_ordered_sum(2.0 * pairs, -1.0))
    total = num_chains * num_draws
    if tau <= 0.0:
        return float(total)
    return float(min(max(total / tau, 1.0), total))


def effective_sample_size(stack: np.ndarray) -> np.ndarray:
    """Autocorrelation-adjusted sample count per dimension.

    Combines all chains' autocovariances plus the between-chain variance,
    truncates the autocorrelation sum with Geyer's initial monotone
    positive sequence, and clips the result to
    ``[1, num_chains * num_draws]``.  A dimension whose draws are all
    equal raises :class:`DegenerateChainsError`.
    """
    stack = _validate(stack)
    if _has_constant_dimension(stack):
        raise DegenerateChainsError("zero variance in chains")
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
    respective statistic.  When R-hat or ESS finds the chains degenerate and
    the infos hold steps with an ``accepted`` field but no accepted one, the
    :class:`DegenerateChainsError` says so.
    """
    stack = _validate(stack)
    pooled = stack.reshape(-1, stack.shape[2])
    acceptances = []
    divergences = steps = accepted = 0
    for info in infos if infos is not None else ():
        p_accept = getattr(info, "p_accept", None)
        if p_accept is not None:
            acceptances.append(float(p_accept))
        divergences += bool(getattr(info, "is_divergent", False))
        steps += hasattr(info, "accepted")
        accepted += bool(getattr(info, "accepted", False))
    # Moments before diagnostics: computing R-hat and ESS first raised the
    # peak RSS of a 4 x 10,000 x 50 run by 2 MB.
    try:
        return Summary(
            mean=pooled.mean(axis=0),
            std=pooled.std(axis=0, ddof=1),
            rhat=split_rhat(stack),
            ess=effective_sample_size(stack),
            acceptance_mean=float(np.mean(acceptances)) if acceptances else math.nan,
            divergences=divergences,
        )
    except DegenerateChainsError as exc:
        if steps and not accepted:
            raise DegenerateChainsError(f"{exc}: no proposal was accepted in {steps} steps") from exc
        raise
