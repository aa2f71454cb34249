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

Trees vary in size, but every number a tree could use is fixed by the step
key before the tree is built.  The kernel's draw atom (``kernel.draw``)
turns a block of step keys into one :class:`NutsDraw` record per key with
a handful of array calls, so a chain draws no random number one at a time;
the kernel given a record moves exactly as it would under the record's key.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from ..core import GradientState, SamplingAlgorithm, Target, bind, init
from ..integrator import (
    IntegratorState,
    Metric,
    _kinetic_energy,
    check_metric,
    identity_metric,
    leapfrog,
    scale_momentum,
    total_energy,
    velocity,
)
from ..rng import RngKey, key_rows, normal_rows, split_key_rows, uniform_rows
from .hmc import DEFAULT_DIVERGENCE_THRESHOLD

__all__ = ["NutsInfo", "NutsDraw", "init", "build_kernel", "as_algorithm"]

DEFAULT_MAX_DEPTH = 10
# Subtrees up to this depth get their merge uniforms in the step's record;
# deeper ones, rarely built, derive theirs from their build key.
_HEAP_DEPTH = 3


class NutsInfo(NamedTuple):
    p_accept: float
    accepted: bool
    is_divergent: bool
    energy: float
    num_integration_steps: int
    tree_depth: int


class NutsDraw(NamedTuple):
    """Every random number one NUTS step could use, fixed by its key.

    ``normals`` are the momentum's standard normals, which the kernel scales
    under its metric as ``sample_momentum`` does.  For the doubling at
    depth ``j``: ``directions[j]`` picks its direction, ``merges[j]`` merges
    its subtree into the tree, and ``build_keys[j]`` is the key the subtree
    is built from.  ``heaps`` holds the merge uniforms of the subtrees of
    depth 1 to 3, each in heap order (:func:`_merge_heaps`), one after the
    other.
    """

    normals: np.ndarray
    directions: list
    merges: list
    build_keys: np.ndarray
    heaps: list


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
    u: float, first: _Tree, second: _Tree
) -> tuple[IntegratorState, float, float]:
    log_weight = _logaddexp(first.log_weight, second.log_weight)
    if log_weight == -math.inf:
        # Both halves carry zero weight; keep the earlier proposal.
        return first.proposal, first.proposal_energy, log_weight
    if math.log(max(u, 1e-320)) < second.log_weight - log_weight:
        return second.proposal, second.proposal_energy, log_weight
    return first.proposal, first.proposal_energy, log_weight


def _combine(u: float, first: _Tree, second: _Tree, direction: int, metric: Metric) -> _Tree:
    """Join ``second``, grown from ``first``'s edge along ``direction``.

    A turning or diverging ``second`` contributes only its integrator
    statistics and its flags; otherwise the proposals are merged, under the
    merge uniform ``u``, and the joined span is checked for a U-turn.
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
    proposal, proposal_energy, log_weight = _merge_proposal(u, first, second)
    return _Tree(
        left, right, proposal, proposal_energy, log_weight,
        alpha_sum, num_leapfrogs, _is_turning(left, right, metric), False,
    )


def _merge_heaps(keys: np.ndarray, depth: int) -> np.ndarray:
    """The merge uniforms of the depth-``depth`` subtrees built from ``keys``, one heap per row.

    A subtree of depth at least 1 splits its key into (first half, second
    half, merge) keys.  Heap entry ``i`` is node ``i``'s merge uniform, and
    its halves are nodes ``2 * i + 1`` and ``2 * i + 2``: ``2**depth - 1``
    entries, derived one tree level per pair of array calls.
    """
    count = keys.shape[0]
    levels = [np.empty((count, 0))]
    for _ in range(depth):
        children = split_key_rows(keys, 3)
        levels.append(uniform_rows(children[:, 2]).reshape(count, -1))
        keys = children[:, :2].reshape(-1, 2)
    return np.concatenate(levels, axis=1)


def _heap(record: NutsDraw, depth: int) -> list:
    # The merge heap of the step's depth-``depth`` subtree.
    if depth <= _HEAP_DEPTH:
        offset = 2**depth - depth - 1
        return record.heaps[offset:offset + 2**depth - 1]
    return _merge_heaps(record.build_keys[depth][None], depth)[0].tolist()


def _build_subtree(
    heap: list,
    node: int,
    from_state: IntegratorState,
    direction: int,
    depth: int,
    step_size: float,
    metric: Metric,
    target: Target,
    energy_start: float,
    divergence_threshold: float,
) -> _Tree:
    """Node ``node`` of a subtree whose merge uniforms are ``heap`` (see :func:`_merge_heaps`)."""
    if depth == 0:
        return _leaf(
            from_state, direction, step_size, metric, target, energy_start, divergence_threshold
        )
    first = _build_subtree(
        heap, 2 * node + 1, from_state, direction, depth - 1,
        step_size, metric, target, energy_start, divergence_threshold,
    )
    if first.turning or first.diverging:
        return first
    grow_from = first.right if direction == 1 else first.left
    second = _build_subtree(
        heap, 2 * node + 2, grow_from, direction, depth - 1,
        step_size, metric, target, energy_start, divergence_threshold,
    )
    return _combine(heap[node], first, second, direction, metric)


def _draw_atom(max_depth: int) -> Callable:
    """The NUTS draw atom ``draw(keys, target)`` for trees of at most ``max_depth`` doublings.

    An ``(m, 2)`` key array gives ``m`` :class:`NutsDraw` records; one
    ``RngKey`` gives its record through a one-row array draw.  Each record
    holds what the key gives: its first child's normals, and per doubling
    ``j`` its child ``1 + j`` split into (direction, build, merge) keys.
    """
    heap_depths = range(1, min(max_depth, _HEAP_DEPTH + 1))

    def draw(keys: Union[RngKey, np.ndarray], target: Target):
        if isinstance(keys, RngKey):
            return draw(key_rows([keys]), target)[0]
        count = keys.shape[0]
        children = split_key_rows(keys, 1 + max_depth)
        normals = normal_rows(children[:, 0], target.dim)
        parts = split_key_rows(children[:, 1:].reshape(-1, 2), 3).reshape(count, max_depth, 3, 2)
        directions = uniform_rows(parts[:, :, 0].reshape(-1, 2)).reshape(count, max_depth)
        merges = uniform_rows(parts[:, :, 2].reshape(-1, 2)).reshape(count, max_depth)
        build_keys = parts[:, :, 1]
        heaps = np.concatenate(
            [np.empty((count, 0))] + [_merge_heaps(build_keys[:, d], d) for d in heap_depths], axis=1
        )
        return list(map(NutsDraw._make, zip(
            normals, directions.tolist(), merges.tolist(), build_keys, heaps.tolist()
        )))

    draw.floats = lambda dim: dim + 4 * max_depth + sum(2**d - 1 for d in heap_depths)
    return draw


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

    ``kernel.draw`` is the draw atom (:func:`_draw_atom`).  The kernel
    moves under a :class:`NutsDraw` record, or under an ``RngKey``, which
    it draws its record for; the record holds no metric, so one atom serves
    every step size and metric.
    """
    if step_size <= 0.0:
        raise ValueError("step size must be strictly positive")
    if not divergence_threshold > 0.0:
        raise ValueError("divergence threshold must be strictly positive")
    if max_depth < 0:
        raise ValueError("max depth must be non-negative")

    draw = _draw_atom(max_depth)

    def kernel(
        key: Union[RngKey, NutsDraw], state: GradientState, target: Target
    ) -> tuple[GradientState, NutsInfo]:
        kernel_metric = metric if metric is not None else identity_metric(target.dim)
        if isinstance(key, NutsDraw):
            record = key
        elif isinstance(key, RngKey):
            record = draw(key, target)
        else:
            raise TypeError(
                f"NUTS key must be an RngKey or a NutsDraw record, not {type(key).__name__}"
            )
        momentum = scale_momentum(record.normals, kernel_metric)
        energy_start = -state.logdensity + _kinetic_energy(momentum, kernel_metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        tree = _Tree(start, start, start, energy_start, 0.0, 1.0, 0, False, False)
        initial_proposal = tree.proposal
        depth = 0
        while depth < max_depth:
            direction = 1 if record.directions[depth] < 0.5 else -1
            grow_from = tree.right if direction == 1 else tree.left
            subtree = _build_subtree(
                _heap(record, depth), 0, grow_from, direction, depth,
                step_size, kernel_metric, target, energy_start, divergence_threshold,
            )
            tree = _combine(record.merges[depth], tree, subtree, direction, kernel_metric)
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

    kernel.draw = draw
    return kernel


def as_algorithm(
    target: Target,
    step_size: float,
    metric: Optional[Metric] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> SamplingAlgorithm:
    metric = metric if metric is not None else identity_metric(target.dim)
    check_metric(metric, target.dim)
    return bind(target, init, build_kernel(step_size, metric, max_depth, divergence_threshold))
