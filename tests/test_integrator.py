"""Tests for the leapfrog integrator and Euclidean metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbricks.core import Target
from mcbricks.integrator import (
    IntegratorState,
    dense_metric,
    diagonal_metric,
    identity_metric,
    integrator_state,
    kinetic_energy,
    leapfrog,
    sample_momentum,
    total_energy,
    trajectory,
    velocity,
)
from mcbricks.rng import make_key, normal_vector, split_key
from mcbricks.targets import aniso_gauss, banana, std_normal

_HARMONIC = Target(1, lambda x: -0.5 * float(x @ x), lambda x: -x)
_FLAT = Target(3, lambda x: 0.0, lambda x: np.zeros(3))


def test_identity_metric_rejects_bad_dimension():
    with pytest.raises(ValueError):
        identity_metric(0)


def test_diagonal_metric_validation():
    with pytest.raises(ValueError):
        diagonal_metric(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        diagonal_metric(np.eye(2))


def test_dense_metric_validation():
    with pytest.raises(ValueError):
        dense_metric(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        dense_metric(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_dense_metric_cholesky_factors_the_mass_matrix():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    inverse_mass = a @ a.T + 3.0 * np.eye(3)
    metric = dense_metric(inverse_mass)
    mass = metric.mass_cholesky @ metric.mass_cholesky.T
    np.testing.assert_allclose(mass @ inverse_mass, np.eye(3), atol=1e-10)


def test_kinetic_energy_zero_momentum():
    assert kinetic_energy(np.zeros(2), identity_metric(2)) == 0.0


def test_kinetic_energy_identity_metric():
    assert kinetic_energy(np.array([3.0, 4.0]), identity_metric(2)) == 12.5


def test_kinetic_energy_diagonal_metric():
    metric = diagonal_metric(np.array([0.5, 2.0]))
    assert kinetic_energy(np.array([2.0, 1.0]), metric) == 2.0


def test_kinetic_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        kinetic_energy(np.zeros(3), identity_metric(2))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(), st.floats(-30.0, 30.0)), min_size=1, max_size=200),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_kinetic_energy_matches_its_sum_form_bitwise(values, seed):
    momentum = np.array(values)
    inverse_mass = np.random.default_rng(seed).uniform(1e-3, 1e3, size=momentum.size)
    metric = diagonal_metric(inverse_mass)
    with np.errstate(all="ignore"):
        energy = kinetic_energy(momentum, metric)
        expected = 0.5 * float((inverse_mass * momentum * momentum).sum())
    assert np.asarray(energy).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize(
    "metric",
    [
        identity_metric(2),
        diagonal_metric(np.array([0.5, 2.0])),
        dense_metric(np.array([[1.0, 0.3], [0.3, 0.5]])),
    ],
)
def test_kinetic_energy_matches_velocity_inner_product(metric):
    momentum = np.array([0.7, -1.2])
    expected = 0.5 * float(momentum @ velocity(momentum, metric))
    assert kinetic_energy(momentum, metric) == pytest.approx(expected, rel=1e-14)


def test_sample_momentum_is_pure():
    metric = diagonal_metric(np.array([0.5, 2.0]))
    key = make_key(5)
    np.testing.assert_array_equal(
        sample_momentum(key, metric), sample_momentum(key, metric)
    )


def test_sample_momentum_identity_covariance():
    metric = identity_metric(2)
    draws = np.array(
        [sample_momentum(key, metric) for key in split_key(make_key(42), 100_000)]
    )
    cov = np.cov(draws.T)
    assert np.max(np.abs(cov - np.eye(2))) < 0.02


def test_sample_momentum_diagonal_variance():
    metric = diagonal_metric(np.array([0.25]))  # mass 4
    draws = np.array(
        [sample_momentum(key, metric)[0] for key in split_key(make_key(9), 50_000)]
    )
    assert abs(np.var(draws) - 4.0) < 0.1


def test_sample_momentum_dense_covariance():
    mass = np.array([[2.0, 0.6], [0.6, 1.0]])
    metric = dense_metric(np.linalg.inv(mass))
    draws = np.array(
        [sample_momentum(key, metric) for key in split_key(make_key(3), 50_000)]
    )
    assert np.max(np.abs(np.cov(draws.T) - mass)) < 0.05


def test_integrator_state_caches_target_evaluations():
    target = aniso_gauss(3).target
    position = np.array([0.5, -1.0, 2.0])
    state = integrator_state(target, position, np.zeros(3))
    assert state.logdensity == target.logdensity(position)
    np.testing.assert_array_equal(state.gradient, target.gradient(position))


def test_total_energy_combines_potential_and_kinetic():
    metric = identity_metric(1)
    state = integrator_state(_HARMONIC, np.array([2.0]), np.array([3.0]))
    assert total_energy(state, metric) == pytest.approx(2.0 + 4.5, rel=1e-14)


def test_leapfrog_free_particle():
    metric = identity_metric(3)
    position = np.array([1.0, 2.0, 3.0])
    momentum = np.array([-0.5, 0.25, 1.0])
    state = integrator_state(_FLAT, position, momentum)
    moved = leapfrog(state, 0.7, metric, _FLAT)
    np.testing.assert_allclose(moved.position, position + 0.7 * momentum, rtol=1e-15)
    np.testing.assert_array_equal(moved.momentum, momentum)


def test_leapfrog_harmonic_step_matches_hand_recurrence():
    # From (q, p) = (1, 0) with step 0.1: half kick to -0.05, drift to 0.995,
    # half kick with the new gradient to -0.05 - 0.05 * 0.995 = -0.09975.
    state = integrator_state(_HARMONIC, np.array([1.0]), np.array([0.0]))
    moved = leapfrog(state, 0.1, identity_metric(1), _HARMONIC)
    assert moved.position[0] == pytest.approx(0.995, rel=1e-14)
    assert moved.momentum[0] == pytest.approx(-0.09975, rel=1e-14)
    assert moved.logdensity == pytest.approx(-0.5 * 0.995**2, rel=1e-14)


@pytest.mark.parametrize("builtin,dim", [(aniso_gauss, 3), (banana, 2)])
def test_leapfrog_round_trip_reversibility(builtin, dim):
    target = builtin(dim).target
    metric = diagonal_metric(np.linspace(0.5, 2.0, dim))
    for seed in range(10):
        key_q, key_p = split_key(make_key(seed), 2)
        state = integrator_state(
            target, normal_vector(key_q, dim), normal_vector(key_p, dim)
        )
        forward = state
        for _ in range(8):
            forward = leapfrog(forward, 0.05, metric, target)
        back = forward._replace(momentum=-forward.momentum)
        for _ in range(8):
            back = leapfrog(back, 0.05, metric, target)
        assert np.max(np.abs(back.position - state.position)) < 1e-10
        assert np.max(np.abs(-back.momentum - state.momentum)) < 1e-10


def test_trajectory_single_step_equals_leapfrog():
    state = integrator_state(_HARMONIC, np.array([0.3]), np.array([-0.6]))
    metric = identity_metric(1)
    one = trajectory(state, 0.2, metric, _HARMONIC, 1)
    direct = leapfrog(state, 0.2, metric, _HARMONIC)
    np.testing.assert_array_equal(one.position, direct.position)
    np.testing.assert_array_equal(one.momentum, direct.momentum)


def test_trajectory_rejects_zero_steps():
    state = integrator_state(_HARMONIC, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        trajectory(state, 0.1, identity_metric(1), _HARMONIC, 0)


def test_trajectory_completes_a_harmonic_period():
    state = integrator_state(_HARMONIC, np.array([1.0]), np.array([0.0]))
    end = trajectory(state, 0.01, identity_metric(1), _HARMONIC, 628)
    assert abs(end.position[0] - 1.0) < 0.01


def test_energy_error_scales_as_second_order():
    """Halving the step over a fixed-length trajectory cuts |dH| about 4x."""
    target = banana(2).target
    metric = identity_metric(2)
    state = integrator_state(target, np.array([1.5, 0.5]), np.array([0.8, -0.4]))
    start_energy = total_energy(state, metric)

    def max_energy_error(step_size, num_steps):
        current, worst = state, 0.0
        for _ in range(num_steps):
            current = leapfrog(current, step_size, metric, target)
            worst = max(worst, abs(total_energy(current, metric) - start_energy))
        return worst

    coarse = max_energy_error(0.05, 100)
    fine = max_energy_error(0.025, 200)
    assert 3.5 <= coarse / fine <= 4.5


def test_leapfrog_volume_preservation_in_one_dimension():
    """The phase-space Jacobian of one step has determinant 1."""
    target = std_normal(1).target
    metric = identity_metric(1)
    h = 1e-6

    def advance(q, p):
        state = integrator_state(target, np.array([q]), np.array([p]))
        out = leapfrog(state, 0.3, metric, target)
        return out.position[0], out.momentum[0]

    q0, p0 = 0.7, -0.4
    dq_dq = (advance(q0 + h, p0)[0] - advance(q0 - h, p0)[0]) / (2 * h)
    dq_dp = (advance(q0, p0 + h)[0] - advance(q0, p0 - h)[0]) / (2 * h)
    dp_dq = (advance(q0 + h, p0)[1] - advance(q0 - h, p0)[1]) / (2 * h)
    dp_dp = (advance(q0, p0 + h)[1] - advance(q0, p0 - h)[1]) / (2 * h)
    determinant = dq_dq * dp_dp - dq_dp * dp_dq
    assert abs(determinant - 1.0) < 1e-6


@pytest.mark.parametrize("logdensity, momentum, expected", [
    (-1.0, [math.nan, 1.0], math.inf),  # NaN momentum
    (-math.inf, [0.5, 1.0], math.inf),  # outside the support
    (math.nan, [0.5, 1.0], math.inf),
    (-3.25, [1.5, -0.25], 3.25 + 0.5 * (0.5 * 1.5**2 + 2.0 * 0.25**2)),  # finite: unchanged
])
def test_total_energy_is_plus_inf_exactly_when_not_finite(logdensity, momentum, expected):
    metric = diagonal_metric(np.array([0.5, 2.0]))
    state = IntegratorState(np.zeros(2), np.array(momentum), logdensity, np.zeros(2))
    assert total_energy(state, metric) == expected
