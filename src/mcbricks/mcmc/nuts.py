"""No-U-turn sampler: dynamic trajectory length by iterative doubling.

Each step samples a momentum, then repeatedly doubles the trajectory in a
random time direction.  Every state is weighted by
``exp(-(H(state) - H(start)))``, and the returned position is chosen by
progressive sampling, as BlackJAX chooses it (Betancourt 2017,
arXiv:1701.02434, Appendix A), so longer trajectories are exploited without
an explicit accept/reject.  Inside a sub-tree the sampling is uniform
(multinomial, :func:`_merge`): each half's proposal wins in proportion to
its weight.  A finished sub-tree joins the trajectory biased towards it
(:func:`_join`): its proposal wins with probability
``min(1, w_subtree / w_trajectory)``, which moves the proposal further
from the start more often while keeping the target invariant.  Doubling
stops when either end of a newly built sub-tree satisfies the U-turn
criterion, when the energy error exceeds the divergence threshold, or at
``max_depth``.

The U-turn test compares the displacement between the trajectory ends with
the velocities ``M^{-1} p`` there, which reduces to the classic momentum
form for an identity metric and stays correct under preconditioning.

A sub-tree is built without recursion, as NumPyro and BlackJAX build it
(Phan, Pradhan & Jankowiak 2019, arXiv:1912.11554): one loop over its
``2**depth`` leaves, with a stack of the completed first halves that wait
for their second.  After leaf ``k`` the loop merges once per trailing one
bit of ``k``; the merge that completes a node of height ``h`` reads that
node's merge uniform at heap index ``2**(depth - h) - 1 + (k >> h)``.  The
first divergence or U-turn stops the loop, and the stack folds into the
sub-tree's statistics.  The doubling loop of a step joins each sub-tree to
the trajectory with the merge uniform of its doubling.

A leaf is one leapfrog step, written out in the loop: a state's half kick
``half * gradient`` also starts the next leaf, and its velocity ``M^{-1} p``
is computed once, for its kinetic energy and for every U-turn test it
takes part in.  The numbers are bit for bit those of
:func:`~mcbricks.integrator.leapfrog` followed by
:func:`~mcbricks.integrator.total_energy`, with one
:func:`~mcbricks.core.evaluate` of the target per leaf.

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

from ..core import GradientState, SamplingAlgorithm, Target, _positive, bind, evaluate, init
from ..integrator import (
    Metric,
    _kinetic_energy,
    check_metric,
    identity_metric,
    scale_momentum,
    velocity as velocity_of,
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
    depth 1 to 3, each in heap order (:func:`_merge_heap`), one after the
    other.
    """

    normals: np.ndarray
    directions: list
    merges: list
    build_keys: np.ndarray
    heaps: list


_LOG2 = math.log(2.0)
# ``ndarray.sum`` without its Python wrapper: the same reduction, bit for bit.
_sum = np.add.reduce


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


def _merge(u: float, first: float, second: float) -> tuple[float, bool]:
    """The joined log weight of a sub-tree's two halves, and whether the second's proposal wins.

    ``first`` and ``second`` are the halves' log weights.  Uniform
    progressive sampling under the merge uniform ``u``: the second half's
    proposal replaces the first's with probability
    ``w_second / (w_first + w_second)``.  Only merges inside a sub-tree use
    this rule; a finished sub-tree joins the trajectory by :func:`_join`.
    Two halves of zero weight give a NaN comparison, so the earlier
    proposal stays.
    """
    log_weight = _logaddexp(first, second)
    return log_weight, math.log(max(u, 1e-320)) < second - log_weight


def _join(u: float, trajectory: float, subtree: float) -> tuple[float, bool]:
    """The joined log weight of the trajectory and a new sub-tree, and whether the sub-tree wins.

    ``trajectory`` and ``subtree`` are their log weights.  Biased
    progressive sampling under the merge uniform ``u`` (Betancourt 2017,
    arXiv:1701.02434, Appendix A): the sub-tree's proposal replaces the
    trajectory's with probability ``min(1, w_subtree / w_trajectory)``, so
    a sub-tree at least as heavy as the trajectory always wins.  Two zero
    weights give a NaN comparison, so the earlier proposal stays.
    """
    return _logaddexp(trajectory, subtree), math.log(max(u, 1e-320)) < subtree - trajectory


def _turning(span: np.ndarray, velocity_a: np.ndarray, velocity_b: np.ndarray) -> bool:
    # The U-turn test of a span, from its earliest to its latest state, given
    # the velocities at its two ends.
    return float(span @ velocity_a) < 0.0 or float(span @ velocity_b) < 0.0


def _subtree(
    heap: list,
    edge: tuple,
    direction: int,
    depth: int,
    step_size: float,
    metric: Metric,
    target: Target,
    energy_start: float,
    divergence_threshold: float,
) -> tuple:
    """Grow the depth-``depth`` sub-tree from ``edge`` along ``direction``, one leaf per iteration.

    An edge is ``(position, momentum, kick, velocity)``, where ``kick`` is
    the half kick ``0.5 * direction * step_size * gradient`` that its next
    leapfrog starts with, and a proposal is ``(position, logdensity,
    gradient)``.  Returns ``(outer edge, proposal, proposal energy, log
    weight, alpha sum, leaves, diverging)``.  A sub-tree stopped by a U-turn
    or a divergence inside it returns ``None`` for its edge and proposal:
    only its alpha sum, its leaf count and ``diverging`` count.

    ``heap`` holds the merge uniforms (:func:`_merge_heap`).  The alpha sum
    is added in the tree's order: ``first + second`` at each merge, and on a
    stop the stack's first halves from the innermost out.
    """
    position, momentum, kick, _ = edge
    eps = direction * step_size
    half = 0.5 * eps
    inverse_mass = metric.inverse_mass
    dense = metric.kind == "dense"
    # Completed first halves: (inner position, inner velocity, proposal,
    # proposal energy, log weight, alpha sum); "inner" is the first leaf built.
    stack = []
    for k in range(1 << depth):
        p_half = momentum + kick
        position = position + eps * (inverse_mass @ p_half if dense else inverse_mass * p_half)
        logdensity, gradient = evaluate(position, target.logdensity, target.gradient)
        kick = half * gradient
        momentum = p_half + kick
        # ``integrator._kinetic_energy``, bit for bit, keeping its velocity.
        if dense:
            velocity = inverse_mass @ momentum
            energy = -logdensity + 0.5 * float(momentum @ velocity)
        else:
            velocity = inverse_mass * momentum
            energy = -logdensity + 0.5 * float(_sum(velocity * momentum))
        delta = (energy if math.isfinite(energy) else math.inf) - energy_start
        alpha = math.exp(min(0.0, -delta)) if not math.isnan(delta) else 0.0
        diverging = not math.isfinite(delta) or delta > divergence_threshold
        turning = False
        if not diverging:
            proposal, proposal_energy = (position, logdensity, gradient), energy_start + delta
            log_weight = -delta
            inner_position, inner_velocity = position, velocity
            height = 0
            while k >> height & 1 and not turning:
                inner_position, inner_velocity, first, first_energy, first_weight, first_alpha = (
                    stack.pop()
                )
                height += 1
                alpha = first_alpha + alpha
                u = heap[(1 << (depth - height)) - 1 + (k >> height)]
                log_weight, second_wins = _merge(u, first_weight, log_weight)
                if not second_wins:
                    proposal, proposal_energy = first, first_energy
                span = position - inner_position if direction == 1 else inner_position - position
                turning = _turning(span, inner_velocity, velocity)
        if diverging or turning:
            for entry in reversed(stack):
                alpha = entry[5] + alpha
            return None, None, None, None, alpha, k + 1, diverging
        stack.append((inner_position, inner_velocity, proposal, proposal_energy, log_weight, alpha))
    _, _, proposal, proposal_energy, log_weight, alpha = stack[0]
    edge = (position, momentum, kick, velocity)
    return edge, proposal, proposal_energy, log_weight, alpha, 1 << depth, False


def _merge_heap(keys: np.ndarray, depth: int) -> np.ndarray:
    """The merge uniforms of depth-``depth`` subtrees built from ``keys``, one heap per key.

    A subtree of depth at least 1 splits its key into (first half, second
    half, merge) keys.  Heap entry ``i`` is node ``i``'s merge uniform, and
    its halves are nodes ``2 * i + 1`` and ``2 * i + 2``: ``2**depth - 1``
    entries per row.  All the keys descend together, one tree level per
    pair of array calls.
    """
    count = keys.shape[0]
    nodes, levels = keys, []
    for _ in range(depth):
        children = split_key_rows(nodes.reshape(-1, 2), 3)
        levels.append(uniform_rows(children[:, 2]).reshape(count, -1))
        nodes = children[:, :2]
    return np.concatenate(levels, axis=1)


def _heap(record: NutsDraw, depth: int) -> list:
    # The merge heap of the step's depth-``depth`` subtree.
    if depth <= _HEAP_DEPTH:
        offset = 2**depth - depth - 1
        return record.heaps[offset:offset + 2**depth - 1]
    return _merge_heap(record.build_keys[None, depth], depth)[0].tolist()


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
        heaps = np.hstack([np.empty((count, 0)), *(_merge_heap(build_keys[:, d], d) for d in heap_depths)])
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

    Each doubling builds a sub-tree whose own proposal is sampled uniformly
    (:func:`_merge`), then joins it to the trajectory by biased progressive
    sampling (:func:`_join`) under the doubling's merge uniform: the
    sub-tree's proposal wins with probability
    ``min(1, w_subtree / w_trajectory)``, the trajectory's weight taken
    before the join.

    ``info.p_accept`` averages ``min(1, exp(-(H - H_start)))`` over the
    start and every state the integrator produced (including states of a
    sub-tree whose construction was aborted), which is the statistic dual
    averaging consumes.  A step that encounters a divergence returns the
    initial state with ``is_divergent`` set.

    ``step_size`` must be positive and finite (``ValueError`` otherwise).
    ``metric`` (``None``: the identity) is checked against the target at
    every step (:func:`~mcbricks.integrator.check_metric`).

    ``kernel.draw`` is the draw atom (:func:`_draw_atom`).  The kernel
    moves under a :class:`NutsDraw` record, or under an ``RngKey``, which
    it draws its record for; the record holds no metric, so one atom serves
    every step size and metric.
    """
    _positive("step size", step_size)
    if not divergence_threshold > 0.0:
        raise ValueError("divergence threshold must be strictly positive")
    if max_depth < 0:
        raise ValueError("max depth must be non-negative")

    draw = _draw_atom(max_depth)

    def kernel(
        key: Union[RngKey, NutsDraw], state: GradientState, target: Target
    ) -> tuple[GradientState, NutsInfo]:
        kernel_metric = check_metric(metric, target.dim)
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
        velocity = velocity_of(momentum, kernel_metric)
        # The trajectory's two ends, each with the half kick that grows it outwards.
        left = (state.position, momentum, (0.5 * -step_size) * state.gradient, velocity)
        right = (state.position, momentum, (0.5 * step_size) * state.gradient, velocity)
        start = proposal = (state.position, state.logdensity, state.gradient)
        proposal_energy, log_weight, alpha_sum, leaves = energy_start, 0.0, 1.0, 0
        diverged = False
        depth = 0
        while depth < max_depth:
            direction = 1 if record.directions[depth] < 0.5 else -1
            edge, sub_proposal, sub_energy, sub_weight, sub_alpha, sub_leaves, diverged = _subtree(
                _heap(record, depth), right if direction == 1 else left, direction, depth,
                step_size, kernel_metric, target, energy_start, divergence_threshold,
            )
            alpha_sum = alpha_sum + sub_alpha
            leaves += sub_leaves
            if edge is None:
                break
            log_weight, new_wins = _join(record.merges[depth], log_weight, sub_weight)
            if new_wins:
                proposal, proposal_energy = sub_proposal, sub_energy
            if direction == 1:
                right = edge
            else:
                left = edge
            depth += 1
            if _turning(right[0] - left[0], left[3], right[3]):
                break
        p_accept = alpha_sum / (leaves + 1)
        if diverged:
            return state, NutsInfo(p_accept, False, True, energy_start, leaves, depth)
        info = NutsInfo(p_accept, proposal is not start, False, proposal_energy, leaves, depth)
        return GradientState(*proposal), info

    kernel.draw = draw
    return kernel


def as_algorithm(
    target: Target,
    step_size: float,
    metric: Optional[Metric] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> SamplingAlgorithm:
    metric = identity_metric(target.dim) if metric is None else check_metric(metric, target.dim)
    return bind(target, init, build_kernel(step_size, metric, max_depth, divergence_threshold))
