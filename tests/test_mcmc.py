"""Tests for the assembled MCMC samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbricks.core import Target, run_chain
from mcbricks.integrator import (
    IntegratorState,
    dense_metric,
    diagonal_metric,
    identity_metric,
    kinetic_energy,
    sample_momentum,
    trajectory,
)
from mcbricks.mcmc import ghmc, hmc, mala, nuts, rwm
from mcbricks.rng import fold_in, key_rows, make_key, normal_vector, split_key, uniform
from mcbricks.targets import aniso_gauss, std_normal

_FLAT_2D = Target(2, lambda x: 0.0, lambda x: np.zeros(2))


def _ball_target(radius=1e-3):
    """Support only inside a tiny interval; everything else is forbidden."""

    def logdensity(x):
        return 0.0 if abs(float(x[0])) <= radius else -math.inf

    return Target(1, logdensity, lambda x: np.zeros(1))


# ---------------------------------------------------------------- RWM


def test_rwm_flat_target_always_accepts():
    kernel = rwm.build_kernel(1.5)
    state = rwm.init(np.zeros(2), _FLAT_2D)
    for seed in range(20):
        state, info = kernel(make_key(seed), state, _FLAT_2D)
        assert info.accepted
        assert info.p_accept == 1.0


def test_rwm_tiny_scale_acceptance_approaches_one():
    target = std_normal(1).target
    kernel = rwm.build_kernel(1e-8)
    state = rwm.init(np.array([0.3]), target)
    _, infos, _ = run_chain(
        make_key(4), lambda k, s: kernel(k, s, target), state, 1000
    )
    assert np.mean([info.p_accept for info in infos]) > 0.999


def test_rwm_step_matches_atom_composition():
    """One step reproduced from the rng, proposal, and acceptance atoms."""
    target = std_normal(2).target
    scale = 0.7
    kernel = rwm.build_kernel(scale)
    state = rwm.init(np.array([0.3, -0.2]), target)
    for seed in range(30):
        key = make_key(seed)
        new_state, info = kernel(key, state, target)
        key_prop, key_accept = split_key(key, 2)
        proposal = state.position + scale * normal_vector(key_prop, 2)
        log_ratio = target.logdensity(proposal) - state.logdensity
        p_accept = min(1.0, math.exp(min(log_ratio, 0.0)))
        accepted = uniform(key_accept) < p_accept
        assert info.p_accept == p_accept
        assert info.accepted == accepted
        expected = proposal if accepted else state.position
        np.testing.assert_array_equal(new_state.position, expected)


def test_rwm_vector_scale_preconditions_each_coordinate():
    target = std_normal(2).target
    kernel = rwm.build_kernel(np.array([1e-9, 1e-9]))
    state = rwm.init(np.zeros(2), target)
    moved, info = kernel(make_key(0), state, target)
    assert info.accepted
    assert np.max(np.abs(moved.position)) < 1e-7


def test_rwm_rejects_bad_scale():
    with pytest.raises(ValueError):
        rwm.build_kernel(0.0)
    with pytest.raises(ValueError):
        rwm.build_kernel(np.array([1.0, -1.0]))


def test_rwm_standard_normal_moments():
    target = std_normal(1).target
    kernel = rwm.build_kernel(2.4)
    state = rwm.init(np.zeros(1), target)
    _, _, positions = run_chain(
        make_key(11), lambda k, s: kernel(k, s, target), state, 50_000
    )
    assert abs(positions.mean()) < 0.05
    assert abs(positions.var() - 1.0) < 0.1


# ---------------------------------------------------------------- MALA


def test_mala_flat_target_reduces_to_symmetric_walk():
    flat = Target(1, lambda x: 0.0, lambda x: np.zeros(1))
    kernel = mala.build_kernel(0.2)
    state = mala.init(np.zeros(1), flat)
    for seed in range(20):
        state, info = kernel(make_key(seed), state, flat)
        assert info.p_accept == 1.0
        assert info.accepted


def test_mala_log_ratio_matches_brute_force_transition_densities():
    target = std_normal(1).target
    step_size = 0.1
    kernel = mala.build_kernel(step_size)
    state = mala.init(np.array([0.5]), target)

    def log_q(to, frm):
        drift = to - frm - step_size * target.gradient(frm)
        return -float(drift @ drift) / (4.0 * step_size)

    negative_cases = 0
    for seed in range(40):
        key = make_key(seed)
        _, info = kernel(key, state, target)
        noise = normal_vector(split_key(key, 2)[0], 1)
        proposal = (
            state.position + step_size * state.gradient + math.sqrt(0.2) * noise
        )
        log_ratio = (
            target.logdensity(proposal)
            - target.logdensity(state.position)
            + log_q(state.position, proposal)
            - log_q(proposal, state.position)
        )
        if log_ratio < 0.0:
            negative_cases += 1
            assert info.p_accept == pytest.approx(math.exp(log_ratio), rel=1e-12)
        else:
            assert info.p_accept == 1.0
    assert negative_cases >= 5


def test_mala_flags_divergence_and_rejects():
    target = _ball_target()
    kernel = mala.build_kernel(0.5)
    state = mala.init(np.zeros(1), target)
    new_state, info = kernel(make_key(1), state, target)
    assert info.is_divergent
    assert not info.accepted
    np.testing.assert_array_equal(new_state.position, state.position)


def test_mala_rejects_bad_step_size():
    with pytest.raises(ValueError):
        mala.build_kernel(-0.1)


def test_mala_standard_normal_moments():
    target = std_normal(1).target
    kernel = mala.build_kernel(0.25)
    state = mala.init(np.zeros(1), target)
    _, _, positions = run_chain(
        make_key(7), lambda k, s: kernel(k, s, target), state, 50_000
    )
    assert abs(positions.mean()) < 0.05
    assert abs(positions.var() - 1.0) < 0.1


# ---------------------------------------------------------------- HMC


def test_hmc_flat_target_is_free_dynamics():
    step_size, num_steps = 0.25, 7
    kernel = hmc.build_kernel(step_size, num_steps)
    state = hmc.init(np.array([1.0, -2.0]), _FLAT_2D)
    for seed in range(10):
        key = make_key(seed)
        moved, info = kernel(key, state, _FLAT_2D)
        momentum = sample_momentum(split_key(key, 2)[0], identity_metric(2))
        assert info.accepted
        assert info.p_accept == 1.0
        np.testing.assert_allclose(
            moved.position,
            state.position + num_steps * step_size * momentum,
            rtol=1e-12,
        )


def test_hmc_acceptance_statistic_matches_endpoint_energies():
    target = std_normal(2).target
    metric = identity_metric(2)
    step_size, num_steps = 0.6, 5
    kernel = hmc.build_kernel(step_size, num_steps, metric)
    state = hmc.init(np.array([1.2, -0.4]), target)
    for seed in range(30):
        key = make_key(seed)
        _, info = kernel(key, state, target)
        momentum = sample_momentum(split_key(key, 2)[0], metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        energy_start = -state.logdensity + kinetic_energy(momentum, metric)
        end = trajectory(start, step_size, metric, target, num_steps)
        energy_end = -end.logdensity + kinetic_energy(end.momentum, metric)
        assert info.p_accept == min(1.0, math.exp(min(energy_start - energy_end, 0.0)))


def test_hmc_huge_step_flags_divergence_and_keeps_state():
    target = std_normal(1).target
    kernel = hmc.build_kernel(100.0, 10)
    state = hmc.init(np.array([0.5]), target)
    divergences = 0
    for seed in range(100):
        new_state, info = kernel(make_key(seed), state, target)
        if info.is_divergent:
            divergences += 1
            assert not info.accepted
            np.testing.assert_array_equal(new_state.position, state.position)
    assert divergences > 0


def test_hmc_info_reports_integration_steps():
    target = std_normal(1).target
    kernel = hmc.build_kernel(0.2, 13)
    _, info = kernel(make_key(0), hmc.init(np.zeros(1), target), target)
    assert info.num_integration_steps == 13


def test_hmc_validates_parameters():
    with pytest.raises(ValueError):
        hmc.build_kernel(0.0, 10)
    with pytest.raises(ValueError):
        hmc.build_kernel(0.1, 0)


def test_hmc_standard_normal_moments_and_acceptance():
    target = std_normal(1).target
    kernel = hmc.build_kernel(0.2, 10)
    state = hmc.init(np.zeros(1), target)
    _, infos, positions = run_chain(
        make_key(3), lambda k, s: kernel(k, s, target), state, 20_000
    )
    assert abs(positions.mean()) < 0.05
    assert abs(positions.var() - 1.0) < 0.1
    assert np.mean([info.p_accept for info in infos]) > 0.95


# ---------------------------------------------------------------- GHMC


def test_ghmc_flat_target_always_accepts():
    flat = Target(1, lambda x: 0.0, lambda x: np.zeros(1))
    kernel = ghmc.build_kernel(0.3)
    state = ghmc.init(np.zeros(1), flat)
    for seed in range(100):
        state, info = kernel(make_key(seed), state, flat)
        assert info.accepted
    assert state.slice_var.u == 0.5  # accepted moves at ratio 0 keep u


def test_ghmc_zero_persistence_decorrelates_momentum():
    target = std_normal(1).target
    kernel = ghmc.build_kernel(0.3, persistence=0.0)
    state = ghmc.init(np.zeros(1), target)
    momenta = np.empty(10_000)
    keys = split_key(make_key(2), momenta.size)
    for t in range(momenta.size):
        state, _ = kernel(keys[t], state, target)
        momenta[t] = state.momentum[0]
    assert abs(np.corrcoef(momenta[:-1], momenta[1:])[0, 1]) < 0.02


def test_ghmc_two_rejections_with_full_persistence_retrace_exactly():
    """Reject, flip momentum, reject, flip back: the state is restored."""
    target = _ball_target()
    kernel = ghmc.build_kernel(1.0, persistence=1.0, slice_jitter=0.0)
    state = ghmc.init(np.zeros(1), target, momentum=np.array([1.0]))
    once, info_once = kernel(make_key(0), state, target)
    assert not info_once.accepted
    np.testing.assert_array_equal(once.position, state.position)
    np.testing.assert_array_equal(once.momentum, np.array([-1.0]))
    twice, info_twice = kernel(make_key(1), once, target)
    assert not info_twice.accepted
    np.testing.assert_array_equal(twice.position, state.position)
    np.testing.assert_array_equal(twice.momentum, state.momentum)
    assert twice.slice_var == state.slice_var


def test_ghmc_rejection_reports_the_start_energy():
    target = _ball_target()
    kernel = ghmc.build_kernel(1.0, persistence=1.0)
    state = ghmc.init(np.zeros(1), target, momentum=np.array([1.0]))
    _, info = kernel(make_key(0), state, target)
    assert info.energy == 0.5  # -logdensity(0) + momentum**2 / 2
    assert info.is_divergent  # the proposal left the support entirely


@pytest.mark.parametrize("module, kernel", [
    (hmc, hmc.build_kernel(0.1, 3)),
    (ghmc, ghmc.build_kernel(0.1, persistence=0.5)),
], ids=["hmc", "ghmc"])
def test_a_nan_density_start_rejects_with_zero_probability(module, kernel):
    # NaN at the origin only: every proposal lands on an ordinary density,
    # but the log ratio from a NaN start is NaN, which no rule accepts.
    target = Target(1, lambda x: math.nan if x[0] == 0.0 else -0.5 * float(x @ x), lambda x: -x)
    state = module.init(np.zeros(1), target)
    for seed in range(20):
        new_state, info = kernel(make_key(seed), state, target)
        assert not info.accepted
        assert info.p_accept == 0.0
        assert not info.is_divergent
        np.testing.assert_array_equal(new_state.position, state.position)


def test_ghmc_validates_parameters():
    with pytest.raises(ValueError):
        ghmc.build_kernel(0.0)
    with pytest.raises(ValueError):
        ghmc.build_kernel(0.1, persistence=-0.1)
    with pytest.raises(ValueError):
        ghmc.build_kernel(0.1, persistence=1.1)
    ghmc.build_kernel(0.1, persistence=1.0)  # the boundary is allowed


def test_ghmc_init_validates_slice():
    target = std_normal(1).target
    with pytest.raises(ValueError):
        ghmc.init(np.zeros(1), target, slice_u=1.0)
    state = ghmc.init(np.zeros(1), target)
    np.testing.assert_array_equal(state.momentum, np.zeros(1))
    assert state.slice_var.u == 0.5


def test_ghmc_standard_normal_moments():
    target = std_normal(1).target
    kernel = ghmc.build_kernel(0.1, persistence=0.9)
    state = ghmc.init(np.zeros(1), target)
    _, _, positions = run_chain(
        make_key(15), lambda k, s: kernel(k, s, target), state, 100_000
    )
    assert abs(positions.mean()) < 0.05
    assert abs(positions.var() - 1.0) < 0.1


# ---------------------------------------------------------------- NUTS


def test_nuts_zero_depth_returns_the_start():
    target = std_normal(1).target
    kernel = nuts.build_kernel(0.5, max_depth=0)
    state = nuts.init(np.array([0.4]), target)
    new_state, info = kernel(make_key(0), state, target)
    np.testing.assert_array_equal(new_state.position, state.position)
    assert info.num_integration_steps == 0
    assert info.tree_depth == 0
    assert not info.accepted
    assert info.p_accept == 1.0


def test_nuts_tree_bookkeeping_bounds():
    """Depth counts completed doublings; leapfrogs match the doubling sums."""
    target = std_normal(1).target
    kernel = nuts.build_kernel(0.5)
    state = nuts.init(np.array([0.4]), target)
    for seed in range(200):
        state, info = kernel(make_key(seed), state, target)
        assert 0 <= info.tree_depth <= 10
        low = 2**info.tree_depth - 1
        high = 2 ** (info.tree_depth + 1) - 1
        assert low <= info.num_integration_steps <= high


def test_nuts_respects_max_depth():
    target = std_normal(1).target
    kernel = nuts.build_kernel(0.05, max_depth=3)  # tiny step wants deep trees
    state = nuts.init(np.zeros(1), target)
    for seed in range(50):
        state, info = kernel(make_key(seed), state, target)
        assert info.tree_depth <= 3
        assert info.num_integration_steps <= 2**4 - 1


def test_nuts_divergence_keeps_the_state():
    target = std_normal(1).target
    kernel = nuts.build_kernel(50.0)
    state = nuts.init(np.array([0.3]), target)
    divergences = 0
    for seed in range(50):
        new_state, info = kernel(make_key(seed), state, target)
        if info.is_divergent:
            divergences += 1
            assert not info.accepted
            np.testing.assert_array_equal(new_state.position, state.position)
    assert divergences > 0


def test_nuts_rejected_step_means_position_unchanged():
    target = std_normal(1).target
    kernel = nuts.build_kernel(0.7)
    state = nuts.init(np.array([0.9]), target)
    for seed in range(100):
        new_state, info = kernel(make_key(seed), state, target)
        if not info.accepted:
            np.testing.assert_array_equal(new_state.position, state.position)
        state = new_state


def test_nuts_caches_match_the_target():
    target = std_normal(2).target
    kernel = nuts.build_kernel(0.8)
    state = nuts.init(np.array([0.1, -0.6]), target)
    for seed in range(20):
        state, _ = kernel(make_key(seed), state, target)
        assert state.logdensity == target.logdensity(state.position)
        np.testing.assert_array_equal(state.gradient, target.gradient(state.position))


def test_nuts_validates_parameters():
    with pytest.raises(ValueError):
        nuts.build_kernel(0.0)
    with pytest.raises(ValueError):
        nuts.build_kernel(0.1, max_depth=-1)


def _heap_node_by_node(key, depth):
    # A subtree's merge uniforms derived one node at a time: node i splits
    # into (first half, second half, merge) keys; heap entry i is its merge
    # uniform, and its halves are nodes 2i + 1 and 2i + 2.
    heap, level = [], [key]
    for _ in range(depth):
        children = [split_key(node, 3) for node in level]
        heap += [uniform(merge) for _, _, merge in children]
        level = [half for first, second, _ in children for half in (first, second)]
    return heap


@pytest.mark.parametrize("depth", range(1, 7))
def test_merge_heap_of_a_key_block_equals_the_node_by_node_derivation(depth):
    keys = [fold_in(make_key(depth), i) for i in range(5)]
    heaps = nuts._merge_heap(key_rows(keys), depth)
    assert heaps.shape == (5, 2**depth - 1)
    for key, heap in zip(keys, heaps.tolist()):
        assert heap == _heap_node_by_node(key, depth)


def test_nuts_standard_normal_moments():
    target = std_normal(1).target
    kernel = nuts.build_kernel(0.9)
    state = nuts.init(np.zeros(1), target)
    _, infos, positions = run_chain(
        make_key(21), lambda k, s: kernel(k, s, target), state, 12_000
    )
    assert abs(positions.mean()) < 0.05
    assert abs(positions.var() - 1.0) < 0.1
    assert not any(info.is_divergent for info in infos)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_nuts_is_exact_under_a_preconditioning_metric(kind):
    """NUTS keeps aniso_gauss (variances 1 to 100) invariant under a non-identity metric.

    The diagonal metric is the true variances; the dense one adds a 0.5
    correlation between every pair of coordinates.  Over 3000 steps each
    coordinate's mean is within 0.1 standard deviations of 0 and its
    variance within 12% of the analytic one.
    """
    built = aniso_gauss(5)
    target = built.target
    mean, variances = built.analytic_moments
    scales = np.sqrt(variances)
    if kind == "diagonal":
        metric = diagonal_metric(variances)
    else:
        correlation = np.full((5, 5), 0.5) + 0.5 * np.eye(5)
        metric = dense_metric(scales[:, None] * correlation * scales[None, :])
    kernel = nuts.build_kernel(0.8, metric)
    state = nuts.init(np.zeros(5), target)
    _, infos, positions = run_chain(
        make_key(23), lambda k, s: kernel(k, s, target), state, 3000
    )
    assert np.all(np.abs(positions.mean(axis=0) - mean) < 0.1 * scales)
    assert np.all(np.abs(positions.var(axis=0) / variances - 1.0) < 0.12)
    assert not any(info.is_divergent for info in infos)


_LOG_WEIGHTS = st.one_of(st.floats(-300.0, 300.0), st.just(-math.inf))
_MERGE_UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 5e-324, 1.0 - 2**-53])
)


def _wins_below(u, probability, wins):
    # A merge that picks the new proposal with ``probability`` must take it
    # for every uniform below that and keep the old one above; uniforms
    # within rounding of the edge may go either way.
    if u < probability * (1.0 - 1e-9):
        assert wins
    elif u > probability * (1.0 + 1e-9):
        assert not wins


@settings(max_examples=500, deadline=None)
@given(u=_MERGE_UNIFORMS, old=_LOG_WEIGHTS, new=_LOG_WEIGHTS)
def test_nuts_joins_a_new_subtree_by_biased_progressive_sampling(u, old, new):
    """The trajectory takes a new subtree's proposal with probability min(1, w_new / w_old)."""
    log_weight, new_wins = nuts._join(u, old, new)
    assert np.float64(log_weight).tobytes() == np.float64(nuts._logaddexp(old, new)).tobytes()
    assert new_wins == (math.log(max(u, 1e-320)) < new - old)
    if old == new == -math.inf:
        assert not new_wins
        return
    if new >= old:
        assert new_wins
    _wins_below(u, min(1.0, math.exp(new - old)), new_wins)


@settings(max_examples=500, deadline=None)
@given(u=_MERGE_UNIFORMS, first=_LOG_WEIGHTS, second=_LOG_WEIGHTS)
def test_nuts_merges_halves_of_a_subtree_by_uniform_progressive_sampling(u, first, second):
    """Inside a subtree the second half's proposal wins with probability w2 / (w1 + w2)."""
    log_weight, second_wins = nuts._merge(u, first, second)
    assert np.float64(log_weight).tobytes() == np.float64(nuts._logaddexp(first, second)).tobytes()
    if first == second == -math.inf:
        assert not second_wins
        return
    _wins_below(u, math.exp(second - log_weight), second_wins)


def test_nuts_takes_a_heavier_new_subtree_under_the_largest_merge_uniform():
    """One leapfrog from x = 1, p = 0 lowers the energy, so the leaf outweighs the start."""
    target = std_normal(1).target
    kernel = nuts.build_kernel(0.5, max_depth=1)
    state = nuts.init(np.array([1.0]), target)
    u = 1.0 - 2**-53
    record = kernel.draw(make_key(0), target)._replace(
        normals=np.zeros(1), directions=[0.0], merges=[u]
    )
    new_state, info = kernel(record, state, target)
    start_energy = -state.logdensity
    assert info.energy < start_energy
    # The uniform rule would have kept the start under this uniform.
    assert not nuts._merge(u, 0.0, start_energy - info.energy)[1]
    assert info.accepted and info.num_integration_steps == 1
    np.testing.assert_array_equal(new_state.position, [0.875])


# ------------------------------------------------------- shared contracts


@pytest.mark.parametrize("module", [rwm, mala, hmc, ghmc, nuts])
def test_divergence_implies_rejection(module):
    """is_divergent may only appear on steps that kept the current state."""
    target = _ball_target()
    if module is rwm:
        kernel = module.build_kernel(1.0)
    elif module is hmc:
        kernel = module.build_kernel(1.0, 3)
    else:
        kernel = module.build_kernel(1.0)
    state = module.init(np.zeros(1), target)
    for seed in range(30):
        new_state, info = kernel(make_key(seed), state, target)
        if info.is_divergent:
            assert not info.accepted


@pytest.mark.parametrize("module,kwargs", [
    (rwm, {"proposal_scale": 0.8}),
    (mala, {"step_size": 0.1}),
    (hmc, {"step_size": 0.2, "num_integration_steps": 5}),
    (ghmc, {"step_size": 0.15}),
    (nuts, {"step_size": 0.4}),
])
def test_as_algorithm_wraps_init_and_step(module, kwargs):
    target = std_normal(2).target
    algorithm = module.as_algorithm(target, **kwargs)
    state = algorithm.init(np.zeros(2))
    final, infos, positions = run_chain(make_key(1), algorithm.step, state, 10)
    assert positions.shape == (10, 2)
    assert len(infos) == 10
    assert all(0.0 <= info.p_accept <= 1.0 for info in infos)
    np.testing.assert_array_equal(final.position, positions[-1])


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
def test_hmc_and_nuts_reject_a_divergence_threshold_that_is_not_positive(threshold):
    with pytest.raises(ValueError, match="divergence threshold"):
        hmc.build_kernel(0.1, 5, divergence_threshold=threshold)
    with pytest.raises(ValueError, match="divergence threshold"):
        nuts.build_kernel(0.1, divergence_threshold=threshold)
    nuts.build_kernel(0.1, divergence_threshold=math.inf)


def test_default_metric_is_built_once_per_algorithm(monkeypatch):
    built = []

    def counting_identity_metric(dim):
        built.append(dim)
        return identity_metric(dim)

    target = std_normal(3).target
    for module, args in ((hmc, (0.2, 3)), (ghmc, (0.2,)), (nuts, (0.2,))):
        monkeypatch.setattr(module, "identity_metric", counting_identity_metric)
        algorithm = module.as_algorithm(target, *args)
        run_chain(make_key(0), algorithm.step, algorithm.init(np.zeros(3)), 20)
    assert built == [3, 3, 3]


_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]),
)


@settings(max_examples=1000, deadline=None)
@given(pair=st.one_of(st.tuples(_SCALARS, _SCALARS), _SCALARS.map(lambda x: (x, x))))
def test_nuts_scalar_logaddexp_matches_numpy_bitwise(pair):
    x, y = pair
    with np.errstate(all="ignore"):
        expected = np.logaddexp(x, y)
    assert np.float64(nuts._logaddexp(x, y)).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("module, args", [(hmc, (0.2, 3)), (ghmc, (0.2,)), (nuts, (0.2,))])
def test_a_metric_of_another_dimension_is_rejected_when_the_algorithm_is_built(module, args):
    """A dim-1 metric would broadcast silently against dim-5 positions."""
    with pytest.raises(ValueError, match="metric dimension 1 does not match target dimension 5"):
        module.as_algorithm(std_normal(5).target, *args, metric=identity_metric(1))
    module.as_algorithm(std_normal(5).target, *args, metric=identity_metric(5))


def test_ghmc_init_rejects_a_momentum_of_another_shape():
    with pytest.raises(ValueError, match="momentum"):
        ghmc.init(np.zeros(3), std_normal(3).target, momentum=np.zeros(1))
