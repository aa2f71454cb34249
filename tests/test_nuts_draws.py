"""NUTS under pre-drawn records: every step keeps the bits its key gives.

The kernel's draw atom fixes every number a tree could use before the tree
is built, and the kernel builds its trees leaf by leaf with a stack.  These
tests compare a step under a record drawn in a block of keys with a frozen
reference: the recursive tree builder, written on ``integrator.leapfrog``
and ``total_energy``, that draws each number from its key as the tree asks
for it (``split_key`` and ``uniform`` node by node).  Its subtrees merge
their halves by uniform progressive sampling, and each finished subtree
joins the trajectory by biased progressive sampling.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcbricks.core import GradientState, Target, run_chain
from mcbricks.integrator import (
    IntegratorState,
    dense_metric,
    diagonal_metric,
    identity_metric,
    kinetic_energy,
    leapfrog,
    sample_momentum,
    total_energy,
    velocity,
)
from mcbricks.mcmc import nuts
from mcbricks.rng import RngKey, fold_in_range, key_rows, make_key, normal_vector, split_key, uniform
from mcbricks.targets import make_builtin


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


def _is_turning(left, right, metric):
    span = right.position - left.position
    return (
        float(span @ velocity(left.momentum, metric)) < 0.0
        or float(span @ velocity(right.momentum, metric)) < 0.0
    )


def _leaf(from_state, direction, step_size, metric, target, energy_start, threshold):
    state = leapfrog(from_state, direction * step_size, metric, target)
    delta = total_energy(state, metric) - energy_start
    diverging = not math.isfinite(delta) or delta > threshold
    log_weight = -delta if not diverging else -math.inf
    alpha = math.exp(min(0.0, -delta)) if not math.isnan(delta) else 0.0
    return _Tree(state, state, state, energy_start + delta, log_weight, alpha, 1, False, diverging)


def _logaddexp(x, y):
    if x == y:
        return x + math.log(2.0)
    delta = x - y
    if delta > 0.0:
        return x + math.log1p(math.exp(-delta))
    if delta <= 0.0:
        return y + math.log1p(math.exp(delta))
    return delta


def _merge_proposal(u, first, second):
    log_weight = _logaddexp(first.log_weight, second.log_weight)
    if log_weight == -math.inf:
        return first.proposal, first.proposal_energy, log_weight
    if math.log(max(u, 1e-320)) < second.log_weight - log_weight:
        return second.proposal, second.proposal_energy, log_weight
    return first.proposal, first.proposal_energy, log_weight


def _biased_proposal(u, tree, subtree):
    # A new subtree joins the trajectory: its proposal wins with probability
    # ``min(1, w_subtree / w_tree)``.
    log_weight = _logaddexp(tree.log_weight, subtree.log_weight)
    if math.log(max(u, 1e-320)) < subtree.log_weight - tree.log_weight:
        return subtree.proposal, subtree.proposal_energy, log_weight
    return tree.proposal, tree.proposal_energy, log_weight


def _combine(u, first, second, direction, metric, merge_proposal=_merge_proposal):
    # Join ``second``, grown from ``first``'s edge along ``direction``.
    left = first.left if direction == 1 else second.left
    right = second.right if direction == 1 else first.right
    alpha_sum = first.alpha_sum + second.alpha_sum
    num_leapfrogs = first.num_leapfrogs + second.num_leapfrogs
    if second.turning or second.diverging:
        return _Tree(
            left, right, first.proposal, first.proposal_energy, first.log_weight,
            alpha_sum, num_leapfrogs, second.turning, second.diverging,
        )
    proposal, proposal_energy, log_weight = merge_proposal(u, first, second)
    return _Tree(
        left, right, proposal, proposal_energy, log_weight,
        alpha_sum, num_leapfrogs, _is_turning(left, right, metric), False,
    )


def _keyed_step(key, state, target, step_size, metric, max_depth, threshold):
    """Reference NUTS step drawing from ``key`` node by node; returns ``(state, info)``."""

    def build(node_key, from_state, direction, depth):
        if depth == 0:
            return _leaf(from_state, direction, step_size, metric, target, energy_start, threshold)
        key_first, key_second, key_select = split_key(node_key, 3)
        first = build(key_first, from_state, direction, depth - 1)
        if first.turning or first.diverging:
            return first
        second = build(key_second, first.right if direction == 1 else first.left, direction, depth - 1)
        return _combine(uniform(key_select), first, second, direction, metric)

    keys = split_key(key, 1 + max_depth)
    momentum = sample_momentum(keys[0], metric)
    energy_start = -state.logdensity + kinetic_energy(momentum, metric)
    start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
    tree = _Tree(start, start, start, energy_start, 0.0, 1.0, 0, False, False)
    depth = 0
    while depth < max_depth:
        key_direction, key_build, key_select = split_key(keys[1 + depth], 3)
        direction = 1 if uniform(key_direction) < 0.5 else -1
        subtree = build(key_build, tree.right if direction == 1 else tree.left, direction, depth)
        tree = _combine(
            uniform(key_select), tree, subtree, direction, metric, _biased_proposal
        )
        if subtree.turning or subtree.diverging:
            break
        depth += 1
        if tree.turning:
            break
    p_accept = tree.alpha_sum / (tree.num_leapfrogs + 1)
    if tree.diverging:
        chosen, accepted, energy = state, False, energy_start
    else:
        accepted = tree.proposal is not start
        chosen = GradientState(tree.proposal.position, tree.proposal.logdensity, tree.proposal.gradient)
        energy = tree.proposal_energy
    info = nuts.NutsInfo(p_accept, accepted, tree.diverging, energy, tree.num_leapfrogs, depth)
    return chosen, info


def _info_bits(info):
    return [np.float64(v).tobytes() if isinstance(v, float) else v for v in info]


def _bits(step):
    state, info = step
    return (
        np.asarray(state.position).tobytes(), np.float64(state.logdensity).tobytes(),
        np.asarray(state.gradient).tobytes(), _info_bits(info),
    )


def _metric(kind, dim, seed):
    if kind == "identity":
        return identity_metric(dim)
    values = normal_vector(make_key(seed), dim * dim)
    if kind == "diagonal":
        return diagonal_metric(0.3 + np.abs(values[:dim]))
    factor = 0.4 * values.reshape(dim, dim)
    return dense_metric(factor @ factor.T + 0.5 * np.eye(dim))


# Long trees whose subtrees turn deep inside, so that several first halves
# wait on the builder's stack: their alpha sums must fold in from the
# innermost out, as the recursion adds them, or ``p_accept`` changes bits.
@example(name="aniso_gauss", dim=4, kind="identity", max_depth=10, step_size=0.05,
         threshold=1000.0, seed=34, block=2)
@example(name="aniso_gauss", dim=4, kind="dense", max_depth=10, step_size=0.05,
         threshold=1000.0, seed=17, block=3)
@example(name="funnel", dim=4, kind="dense", max_depth=10, step_size=0.05,
         threshold=1000.0, seed=30, block=2)
# A proposal's energy is ``energy_start + delta``, which here differs in its
# last bits from the leaf's total energy.
@example(name="funnel", dim=2, kind="diagonal", max_depth=4, step_size=1.2,
         threshold=1000.0, seed=0, block=2)
@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(["std_normal", "aniso_gauss", "banana", "funnel"]),
    dim=st.integers(2, 4),
    kind=st.sampled_from(["identity", "diagonal", "dense"]),
    max_depth=st.sampled_from([0, 1, 2, 3, 4, 7, 10]),
    step_size=st.sampled_from([0.05, 0.3, 1.2, 8.0, 60.0]),
    threshold=st.sampled_from([0.1, 1.0, 1000.0]),
    seed=st.integers(0, 2**40),
    block=st.integers(2, 5),
)
def test_step_under_a_block_record_is_the_keyed_step(
    name, dim, kind, max_depth, step_size, threshold, seed, block
):
    target = make_builtin(name, dim).target
    metric = _metric(kind, dim, seed)
    kernel = nuts.build_kernel(step_size, metric, max_depth, threshold)
    state = nuts.init(normal_vector(make_key(seed + 1), dim), target)
    keys = fold_in_range(make_key(seed), 0, block)
    records = kernel.draw(keys, target)
    assert len(records) == block
    with np.errstate(over="ignore", invalid="ignore"):
        for row, record in zip(keys.tolist(), records):
            key = RngKey._make(row)
            expected = _bits(_keyed_step(key, state, target, step_size, metric, max_depth, threshold))
            assert _bits(kernel(record, state, target)) == expected
            assert _bits(kernel(key, state, target)) == expected


def _counting(target, calls):
    # ``target`` with each call logged as (callable name, position bytes).
    def logdensity(x):
        calls.append(("logdensity", x.tobytes()))
        return target.logdensity(x)

    def gradient(x):
        calls.append(("gradient", x.tobytes()))
        return target.gradient(x)

    return Target(target.dim, logdensity, gradient)


@pytest.mark.parametrize("kind", ["identity", "diagonal", "dense"])
def test_a_step_evaluates_the_density_then_the_gradient_once_per_leaf(kind):
    calls = []
    target = _counting(make_builtin("funnel", 3).target, calls)
    metric = _metric(kind, 3, 4)
    state = nuts.init(np.full(3, 0.5), target)
    divergent = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step_size in (0.1, 0.5, 3.0):
            kernel = nuts.build_kernel(step_size, metric, max_depth=6, divergence_threshold=1.0)
            for record in kernel.draw(fold_in_range(make_key(11), 0, 20), target):
                calls.clear()
                _, info = kernel(record, state, target)
                leaves = info.num_integration_steps
                assert [name for name, _ in calls] == ["logdensity", "gradient"] * leaves
                assert [calls[i][1] for i in range(0, 2 * leaves, 2)] == [
                    calls[i][1] for i in range(1, 2 * leaves, 2)
                ]
                divergent.append(info.is_divergent)
    assert any(divergent) and not all(divergent)


@pytest.mark.parametrize("max_depth", [0, 1, 3, 4, 10])
def test_a_record_holds_what_its_key_gives(max_depth):
    target = make_builtin("aniso_gauss", 3).target
    draw = nuts.build_kernel(0.1, max_depth=max_depth).draw
    key = make_key(5)
    record = draw(key, target)
    keys = split_key(key, 1 + max_depth)
    assert record.normals.tobytes() == normal_vector(keys[0], 3).tobytes()
    parts = [split_key(child, 3) for child in keys[1:]]
    assert record.directions == [uniform(direction) for direction, _, _ in parts]
    assert record.merges == [uniform(merge) for _, _, merge in parts]
    assert record.build_keys.tolist() == [list(build) for _, build, _ in parts]
    heap_size = sum(2**d - 1 for d in range(1, min(max_depth, 4)))
    assert len(record.heaps) == heap_size
    assert draw.floats(3) == 3 + 4 * max_depth + heap_size
    # Heap order: node i's merge key is the third child of its key, its halves
    # the first two; the depth-3 subtree's node 5 is its second half's first half.
    if max_depth >= 4:
        _, second, _ = split_key(parts[3][1], 3)
        first_of_second, _, _ = split_key(second, 3)
        assert record.heaps[4 + 5] == uniform(split_key(first_of_second, 3)[2])
        assert nuts._heap(record, 3) == record.heaps[4:11]


def test_deep_subtrees_derive_their_heap_from_the_build_key():
    target = make_builtin("std_normal", 2).target
    record = nuts.build_kernel(0.1, max_depth=8).draw(make_key(12), target)
    for depth in (4, 7):
        heap = nuts._heap(record, depth)
        assert len(heap) == 2**depth - 1
        build_key = RngKey._make(record.build_keys[depth].tolist())
        nodes = [build_key]
        expected = []
        for _ in range(depth):
            children = [split_key(node, 3) for node in nodes]
            expected += [uniform(merge) for _, _, merge in children]
            nodes = [half for first, second, _ in children for half in (first, second)]
        assert heap == expected


def test_kernel_rejects_a_key_that_is_neither_a_key_nor_a_record():
    target = make_builtin("std_normal", 2).target
    kernel = nuts.build_kernel(0.3)
    state = nuts.init(np.zeros(2), target)
    with pytest.raises(TypeError, match="RngKey or a NutsDraw"):
        kernel(key_rows([make_key(1)]), state, target)


def test_run_chain_steps_nuts_through_blocks_of_records():
    target = make_builtin("banana", 2).target
    algorithm = nuts.as_algorithm(target, 0.3, max_depth=6)
    calls = []
    draw = algorithm.step.draw

    def counting_draw(keys):
        calls.append(keys.shape[0])
        return draw(keys)

    counting_draw.floats = draw.floats
    algorithm.step.draw = counting_draw
    state = algorithm.init(np.zeros(2))
    final, infos, positions = run_chain(make_key(8), algorithm.step, state, 300)
    assert calls == [256, 44]
    keyed = run_chain(make_key(8), lambda key, s: algorithm.step(key, s), state, 300)
    assert positions.tobytes() == keyed[2].tobytes()
    assert list(map(_info_bits, infos)) == list(map(_info_bits, keyed[1]))
    assert final.position.tobytes() == keyed[0].position.tobytes()
