"""No-U-turn sampler: dynamic trajectory length by iterative doubling.

Each step samples a momentum, then repeatedly doubles the trajectory in a
random time direction.  The returned position is chosen by progressive
multinomial sampling among all trajectory states, weighted by
``exp(-(H(state) - H(start)))``, so longer trajectories are exploited
without an explicit accept/reject.  Doubling stops when either end of a
newly built sub-tree satisfies the U-turn criterion, when the energy error
exceeds the divergence threshold, or at ``max_depth``.

The U-turn test compares the displacement between the trajectory ends with
the velocities ``M^{-1} p`` there, which reduces to the classic momentum
form for an identity metric and stays correct under preconditioning.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from ..core import GradientState, SamplingAlgorithm, Target, bind, init
from ..integrator import (
    IntegratorState,
    Metric,
    identity_metric,
    kinetic_energy,
    leapfrog,
    sample_momentum,
    total_energy,
    velocity,
)
from ..rng import RngKey, split_key, uniform
from .hmc import DEFAULT_DIVERGENCE_THRESHOLD

__all__ = ["NutsInfo", "init", "build_kernel", "as_algorithm"]

DEFAULT_MAX_DEPTH = 10


class NutsInfo(NamedTuple):
    p_accept: float
    accepted: bool
    is_divergent: bool
    energy: float
    num_integration_steps: int
    tree_depth: int


class _Tree(NamedTuple):
    # Edge states carry global time orientation: `left` is the earliest.
    left: IntegratorState
    right: IntegratorState
    proposal: IntegratorState
    proposal_energy: float
    log_weight: float
    alpha_sum: float
    num_leapfrogs: int
    turning: bool
    diverging: bool


def _is_turning(left: IntegratorState, right: IntegratorState, metric: Metric) -> bool:
    span = right.position - left.position
    return (
        float(span @ velocity(left.momentum, metric)) < 0.0
        or float(span @ velocity(right.momentum, metric)) < 0.0
    )


def _leaf(
    from_state: IntegratorState,
    direction: int,
    step_size: float,
    metric: Metric,
    target: Target,
    energy_start: float,
    divergence_threshold: float,
) -> _Tree:
    state = leapfrog(from_state, direction * step_size, metric, target)
    delta = total_energy(state, metric) - energy_start
    diverging = not math.isfinite(delta) or delta > divergence_threshold
    log_weight = -delta if not diverging else -math.inf
    alpha = math.exp(min(0.0, -delta)) if not math.isnan(delta) else 0.0
    return _Tree(state, state, state, energy_start + delta, log_weight, alpha, 1, False, diverging)


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` on two floats, without a ufunc call.

    Follows NumPy's branches: equal arguments (infinities included) give
    ``x + log 2``, otherwise the larger plus ``log1p(exp(-|x - y|))``, and
    a NaN comes back as NaN.
    """
    if x == y:
        return x + _LOG2
    delta = x - y
    if delta > 0.0:
        return x + math.log1p(math.exp(-delta))
    if delta <= 0.0:
        return y + math.log1p(math.exp(delta))
    return delta


def _merge_proposal(
    key: RngKey, first: _Tree, second: _Tree
) -> tuple[IntegratorState, float, float]:
    log_weight = _logaddexp(first.log_weight, second.log_weight)
    if log_weight == -math.inf:
        # Both halves carry zero weight; keep the earlier proposal.
        return first.proposal, first.proposal_energy, log_weight
    if math.log(max(uniform(key), 1e-320)) < second.log_weight - log_weight:
        return second.proposal, second.proposal_energy, log_weight
    return first.proposal, first.proposal_energy, log_weight


def _combine(key: RngKey, first: _Tree, second: _Tree, direction: int, metric: Metric) -> _Tree:
    """Join ``second``, grown from ``first``'s edge along ``direction``.

    A turning or diverging ``second`` contributes only its integrator
    statistics and its flags; otherwise the proposals are merged and the
    joined span is checked for a U-turn.
    """
    left = first.left if direction == 1 else second.left
    right = second.right if direction == 1 else first.right
    alpha_sum = first.alpha_sum + second.alpha_sum
    num_leapfrogs = first.num_leapfrogs + second.num_leapfrogs
    if second.turning or second.diverging:
        return _Tree(
            left, right, first.proposal, first.proposal_energy, first.log_weight,
            alpha_sum, num_leapfrogs, second.turning, second.diverging,
        )
    proposal, proposal_energy, log_weight = _merge_proposal(key, first, second)
    return _Tree(
        left, right, proposal, proposal_energy, log_weight,
        alpha_sum, num_leapfrogs, _is_turning(left, right, metric), False,
    )


def _build_subtree(
    key: RngKey,
    from_state: IntegratorState,
    direction: int,
    depth: int,
    step_size: float,
    metric: Metric,
    target: Target,
    energy_start: float,
    divergence_threshold: float,
) -> _Tree:
    if depth == 0:
        return _leaf(
            from_state, direction, step_size, metric, target, energy_start, divergence_threshold
        )
    key_first, key_second, key_select = split_key(key, 3)
    first = _build_subtree(
        key_first, from_state, direction, depth - 1,
        step_size, metric, target, energy_start, divergence_threshold,
    )
    if first.turning or first.diverging:
        return first
    grow_from = first.right if direction == 1 else first.left
    second = _build_subtree(
        key_second, grow_from, direction, depth - 1,
        step_size, metric, target, energy_start, divergence_threshold,
    )
    return _combine(key_select, first, second, direction, metric)


def build_kernel(
    step_size: float,
    metric: Optional[Metric] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> Callable[[RngKey, GradientState, Target], tuple[GradientState, NutsInfo]]:
    """Build the NUTS transition kernel.

    ``info.p_accept`` averages ``min(1, exp(-(H - H_start)))`` over the
    start and every state the integrator produced (including states of a
    sub-tree whose construction was aborted), which is the statistic dual
    averaging consumes.  A step that encounters a divergence returns the
    initial state with ``is_divergent`` set.
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    if not divergence_threshold > 0.0:
        raise ValueError("divergence threshold must be strictly positive")
    if max_depth < 0:
        raise ValueError("max depth must be non-negative")

    def kernel(key: RngKey, state: GradientState, target: Target) -> tuple[GradientState, NutsInfo]:
        kernel_metric = metric if metric is not None else identity_metric(target.dim)
        keys = split_key(key, 1 + max_depth)
        momentum = sample_momentum(keys[0], kernel_metric)
        energy_start = -state.logdensity + kinetic_energy(momentum, kernel_metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        tree = _Tree(start, start, start, energy_start, 0.0, 1.0, 0, False, False)
        initial_proposal = tree.proposal
        depth = 0
        while depth < max_depth:
            key_direction, key_build, key_select = split_key(keys[1 + depth], 3)
            direction = 1 if uniform(key_direction) < 0.5 else -1
            grow_from = tree.right if direction == 1 else tree.left
            subtree = _build_subtree(
                key_build, grow_from, direction, depth,
                step_size, kernel_metric, target, energy_start, divergence_threshold,
            )
            tree = _combine(key_select, tree, subtree, direction, kernel_metric)
            if subtree.turning or subtree.diverging:
                break
            depth += 1
            if tree.turning:
                break
        p_accept = tree.alpha_sum / (tree.num_leapfrogs + 1)
        diverged = tree.diverging
        if diverged:
            chosen, accepted = state, False
            energy = energy_start
        else:
            accepted = tree.proposal is not initial_proposal
            chosen = GradientState(
                tree.proposal.position, tree.proposal.logdensity, tree.proposal.gradient
            )
            energy = tree.proposal_energy
        info = NutsInfo(p_accept, accepted, diverged, energy, tree.num_leapfrogs, depth)
        return chosen, info

    return kernel


def as_algorithm(
    target: Target,
    step_size: float,
    metric: Optional[Metric] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> SamplingAlgorithm:
    metric = metric if metric is not None else identity_metric(target.dim)
    return bind(target, init, build_kernel(step_size, metric, max_depth, divergence_threshold))
