"""Metropolis-Hastings acceptance atoms.

The pieces of an accept/reject decision, kept separate from proposal
generation so samplers can mix and match: energy-difference log ratios
(with a safety clause that turns numerical blow-ups into rejections), the
asymmetric-proposal correction, and two interchangeable acceptance rules.
The binomial rule is the textbook coin flip.  The nonreversible slice rule
(Neal 2020) thresholds a persistent uniform variable instead of drawing a
fresh one, which suppresses the random-walk behaviour of repeated
accept/reject decisions; both rules leave the same target invariant.

Energy convention, library-wide: energy = -logdensity, plus the kinetic
term where momenta exist, so log acceptance ratios are prev - new.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

import numpy as np

from .rng import RngKey, uniform

__all__ = [
    "SliceVariable",
    "safe_energy_diff",
    "asymmetric_log_ratio",
    "acceptance_probability",
    "binomial_decision",
    "binomial_accept",
    "select_rows",
    "settle",
    "nonreversible_slice_accept",
    "perturb_slice",
    "drift_slice",
]

_OPEN_ONE = math.nextafter(1.0, 0.0)


class SliceVariable(NamedTuple):
    """Persistent slice variable ``u`` in the open interval (-1, 1)."""

    u: float


def safe_energy_diff(prev_energy: float, new_energy: float) -> float:
    """Log acceptance ratio ``prev - new``, absorbing numerical blow-ups.

    Returns ``-inf`` when ``new_energy`` is NaN or ``+inf`` (the proposal
    landed in a forbidden region or the dynamics diverged), so downstream
    acceptance rules reject instead of propagating NaN.
    """
    if math.isnan(new_energy) or new_energy == math.inf:
        return -math.inf
    return prev_energy - new_energy


def asymmetric_log_ratio(
    prev_energy: float,
    new_energy: float,
    log_q_reverse: float,
    log_q_forward: float,
) -> float:
    """Log acceptance ratio with the asymmetric-proposal correction.

    ``(prev - new) + (log q(current|proposed) - log q(proposed|current))``,
    under the same safety clause as :func:`safe_energy_diff`.
    """
    base = safe_energy_diff(prev_energy, new_energy)
    if base == -math.inf:
        return -math.inf
    ratio = base + (log_q_reverse - log_q_forward)
    if math.isnan(ratio):
        return -math.inf
    return ratio


def acceptance_probability(log_ratio: float) -> float:
    """``min(1, exp(log_ratio))``, and 0 for a NaN log ratio."""
    if math.isnan(log_ratio):
        return 0.0
    return min(1.0, math.exp(min(log_ratio, 0.0)))


def binomial_decision(u: float, log_ratio: float) -> tuple[bool, float]:
    """The rule of :func:`binomial_accept` for a uniform ``u`` already drawn.

    Returns ``(accepted, p_accept)`` with ``p_accept`` the
    :func:`acceptance_probability`, so a NaN log ratio is a rejection with
    ``p_accept = 0``.  The built-in kernels take their uniform from the row
    their draw atom gives (one per ensemble row, or per step of a block drawn
    by ``run_chain``) and apply this inside their accept rule (see
    :func:`settle`).
    """
    p_accept = acceptance_probability(log_ratio)
    return u < p_accept, p_accept


def binomial_accept(
    key: RngKey,
    log_ratio: float,
    proposed: Any,
    current: Any,
) -> tuple[Any, bool, float]:
    """Static binomial accept/reject.

    Returns ``(chosen, accepted, p_accept)`` with
    ``p_accept = min(1, exp(log_ratio))`` and acceptance exactly when
    ``uniform(key) < p_accept``.  A non-negative log ratio therefore always
    accepts (uniform draws live on [0, 1)).
    """
    accepted, p_accept = binomial_decision(uniform(key), log_ratio)
    return (proposed if accepted else current), accepted, p_accept


def select_rows(accepted: list[bool], proposed: Any, current: Any) -> Any:
    """Ensemble state taking row i from ``proposed`` where ``accepted[i]``, else from ``current``.

    Works field by field on any state tuple whose fields stack rows along
    their first axis; every value is copied, never recomputed.
    """
    mask = np.asarray(accepted, dtype=bool)
    return type(current)(*(
        np.where(mask.reshape((-1,) + (1,) * (np.ndim(old) - 1)), new, old)
        for new, old in zip(proposed, current)
    ))


def settle(decide: Callable, u: np.ndarray, columns: tuple, proposed: Any, current: Any) -> tuple:
    """Apply a kernel's accept rule ``decide(u, *row) -> (accepted, info)``.

    One state (a 0-d ``u``): one call, giving ``(proposed or current, info)``.
    An ensemble (``u`` and each column one value per row): one call per row,
    giving the :func:`select_rows` state and a tuple of infos.  The rule
    always sees Python floats, so a row is decided exactly as one state is.
    """
    if u.ndim == 0:
        accepted, info = decide(u.item(), *columns)
        return (proposed if accepted else current), info
    rows = zip(u.tolist(), *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    decisions = [decide(*row) for row in rows]
    chosen = select_rows([accepted for accepted, _ in decisions], proposed, current)
    return chosen, tuple(info for _, info in decisions)


def nonreversible_slice_accept(
    slice_var: SliceVariable,
    log_ratio: float,
    proposed: Any,
    current: Any,
) -> tuple[Any, bool, SliceVariable]:
    """Neal's nonreversible accept rule driven by a persistent uniform.

    Accepts exactly when ``log|u| <= log_ratio``; on acceptance the slack
    is banked by the deterministic update ``u' = u * exp(-log_ratio)``
    (magnitude at most 1 by the acceptance test), on rejection ``u`` is
    kept.  Proposals with ``log_ratio = -inf`` (zero density) are always
    rejected, even at ``u = 0``.
    """
    u = slice_var.u
    if math.isnan(log_ratio) or log_ratio == -math.inf:
        return current, False, slice_var
    log_abs_u = math.log(abs(u)) if u != 0.0 else -math.inf
    if log_abs_u > log_ratio:
        return current, False, slice_var
    if -log_ratio > 690.0:
        # u * exp(-log_ratio) would overflow; |u| <= exp(log_ratio) makes
        # the log-space form safe and <= 1 by construction.
        new_u = math.copysign(math.exp(log_abs_u - log_ratio), u)
    else:
        new_u = u * math.exp(-log_ratio)
    if abs(new_u) >= 1.0:
        new_u = math.copysign(_OPEN_ONE, new_u)
    return proposed, True, SliceVariable(new_u)


def perturb_slice(key: RngKey, slice_var: SliceVariable, jitter: float) -> SliceVariable:
    """Refresh the slice variable by a random wrap-around drift.

    ``u' = ((u + 1 + jitter * 2 * uniform(key)) mod 2) - 1``.  Zero jitter
    is exactly the identity; jitter 1 is a full uniform refresh on (-1, 1);
    intermediate values interpolate.  The wrap preserves the uniform
    marginal for every jitter.
    """
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must lie in [0, 1]")
    return drift_slice(uniform(key), slice_var, jitter)


def drift_slice(u: float, slice_var: SliceVariable, jitter: float) -> SliceVariable:
    """The rule of :func:`perturb_slice` for a uniform ``u`` already drawn.

    Zero jitter returns ``slice_var`` itself, whatever ``u`` is.
    """
    if jitter == 0.0:
        return slice_var
    shifted = math.fmod(slice_var.u + 1.0 + jitter * 2.0 * u, 2.0) - 1.0
    if shifted <= -1.0:
        shifted = -_OPEN_ONE
    elif shifted >= 1.0:
        shifted = _OPEN_ONE
    return SliceVariable(shifted)
