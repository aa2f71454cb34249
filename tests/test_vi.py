"""Tests for mean-field variational inference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbricks.core import Target, run_chain, step_inputs
from mcbricks.rng import fold_in, make_key, normal_matrix
from mcbricks.vi import (
    adam,
    elbo_estimate,
    meanfield_init,
    meanfield_vi,
    sgd,
    vi_sample,
    vi_step,
)

_HALF_LOG_2PI_E = 0.5 * (math.log(2.0 * math.pi) + 1.0)


def _normalized_gaussian(mu, sd):
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    const = float(np.log(sd).sum()) + 0.5 * mu.size * math.log(2.0 * math.pi)

    def logdensity(x):
        z = (x - mu) / sd
        return -0.5 * float(z @ z) - const

    def gradient(x):
        return -(x - mu) / sd**2

    return Target(mu.size, logdensity, gradient)


# ------------------------------------------------------------- optimizers


def test_sgd_is_plain_ascent():
    optimizer = sgd(0.25)
    params = np.array([1.0, -2.0])
    state = optimizer.init(params)
    new_params, new_state = optimizer.update(np.array([4.0, 8.0]), state, params)
    np.testing.assert_array_equal(new_params, np.array([2.0, 0.0]))
    assert new_state is state


def test_adam_first_step_matches_hand_computation():
    optimizer = adam(0.1)
    params = np.zeros(2)
    state = optimizer.init(params)
    gradient = np.array([2.0, -0.5])
    new_params, new_state = optimizer.update(gradient, state, params)
    first = 0.1 * gradient
    second = 0.001 * gradient**2
    first_hat = first / (1.0 - 0.9)
    second_hat = second / (1.0 - 0.999)
    expected = params + 0.1 * first_hat / (np.sqrt(second_hat) + 1e-8)
    np.testing.assert_allclose(new_params, expected, rtol=1e-12)
    assert new_state.step == 1
    np.testing.assert_allclose(new_state.first_moment, first, rtol=1e-15)


def test_adam_second_step_recurrence():
    optimizer = adam(0.05)
    params = np.zeros(1)
    state = optimizer.init(params)
    g1, g2 = np.array([1.0]), np.array([-3.0])
    params, state = optimizer.update(g1, state, params)
    new_params, state = optimizer.update(g2, state, params)
    first = 0.9 * (0.1 * g1) + 0.1 * g2
    second = 0.999 * (0.001 * g1**2) + 0.001 * g2**2
    first_hat = first / (1.0 - 0.9**2)
    second_hat = second / (1.0 - 0.999**2)
    expected = params + 0.05 * first_hat / (np.sqrt(second_hat) + 1e-8)
    np.testing.assert_allclose(new_params, expected, rtol=1e-12)
    assert state.step == 2


def test_optimizers_validate_learning_rate():
    with pytest.raises(ValueError):
        sgd(0.0)
    with pytest.raises(ValueError):
        adam(-0.1)


# ------------------------------------------------------------- state / elbo


def test_meanfield_init_starts_at_unit_scales():
    optimizer = adam(0.1)
    state = meanfield_init(np.array([2.0, -1.0]), optimizer)
    np.testing.assert_array_equal(state.mu, np.array([2.0, -1.0]))
    np.testing.assert_array_equal(state.log_sigma, np.zeros(2))
    assert state.opt_state.step == 0


def test_elbo_estimate_matches_hand_formula():
    target = _normalized_gaussian([0.0], [1.0])
    state = meanfield_init(np.array([0.3]), sgd(0.1))
    key = make_key(5)
    value = elbo_estimate(key, state, target, 2)
    xi = normal_matrix(key, 2, 1)
    draws = state.mu + np.exp(state.log_sigma) * xi
    expected = (
        np.mean([target.logdensity(z) for z in draws])
        + float(state.log_sigma.sum())
        + 1.0 * _HALF_LOG_2PI_E
    )
    assert value == pytest.approx(expected, rel=1e-14)


def test_elbo_is_zero_when_the_family_matches_the_target():
    """For a normalized target equal to q, the ELBO is exactly the KL zero."""
    target = _normalized_gaussian([0.0], [1.0])
    state = meanfield_init(np.zeros(1), sgd(0.1))
    for seed in range(3):
        assert abs(elbo_estimate(make_key(seed), state, target, 4096)) < 0.04


def test_elbo_estimate_is_pure_in_the_key():
    target = _normalized_gaussian([0.5], [2.0])
    state = meanfield_init(np.zeros(1), sgd(0.1))
    assert elbo_estimate(make_key(3), state, target, 64) == elbo_estimate(
        make_key(3), state, target, 64
    )


def test_elbo_estimate_validates_sample_count():
    target = _normalized_gaussian([0.0], [1.0])
    state = meanfield_init(np.zeros(1), sgd(0.1))
    with pytest.raises(ValueError):
        elbo_estimate(make_key(0), state, target, 0)


# ------------------------------------------------------------- gradients


def _extract_gradient(key, state, target, num_samples):
    """A unit-rate sgd step moves params by exactly the estimated gradient."""
    probe = sgd(1.0)
    stepped, _ = vi_step(key, state, target, probe, num_samples)
    return np.concatenate(
        [stepped.mu - state.mu, stepped.log_sigma - state.log_sigma]
    )


def _numeric_gradient(key, state, target, num_samples):
    params = np.concatenate([state.mu, state.log_sigma])
    dim = state.mu.size
    numeric = np.zeros_like(params)
    for i in range(params.size):
        h = 1e-5 * max(1.0, abs(params[i]))
        for sign in (+1.0, -1.0):
            shifted = params.copy()
            shifted[i] += sign * h
            probe = state._replace(mu=shifted[:dim], log_sigma=shifted[dim:])
            numeric[i] += sign * elbo_estimate(key, probe, target, num_samples)
        numeric[i] /= 2.0 * h
    return numeric


def test_pathwise_gradient_matches_common_random_number_differences():
    target = _normalized_gaussian([1.0, -2.0], [0.7, 1.8])
    configs = [
        (np.array([0.2, 0.1]), 0),
        (np.array([-1.0, 2.0]), 1),
        (np.array([0.0, 0.0]), 2),
    ]
    for position, seed in configs:
        state = meanfield_init(position, sgd(1.0))
        state = state._replace(log_sigma=np.array([0.3, -0.4]))
        key = make_key(seed)
        analytic = _extract_gradient(key, state, target, 16)
        numeric = _numeric_gradient(key, state, target, 16)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_vi_step_reports_the_matching_elbo():
    target = _normalized_gaussian([0.0], [1.0])
    optimizer = adam(0.05)
    state = meanfield_init(np.zeros(1), optimizer)
    key = make_key(9)
    _, info = vi_step(key, state, target, optimizer, 32)
    assert info.elbo == pytest.approx(elbo_estimate(key, state, target, 32), rel=1e-13)


def test_vi_step_validates_sample_count():
    target = _normalized_gaussian([0.0], [1.0])
    optimizer = sgd(0.1)
    state = meanfield_init(np.zeros(1), optimizer)
    with pytest.raises(ValueError):
        vi_step(make_key(0), state, target, optimizer, 0)


# ------------------------------------------------------------- sampling


def test_vi_sample_shape_and_purity():
    state = meanfield_init(np.array([1.0, 2.0]), sgd(0.1))
    draws = vi_sample(make_key(4), state, 50)
    assert draws.shape == (50, 2)
    np.testing.assert_array_equal(draws, vi_sample(make_key(4), state, 50))


def test_vi_sample_collapses_onto_mu_at_tiny_scales():
    state = meanfield_init(np.array([3.0, -1.0]), sgd(0.1))
    state = state._replace(log_sigma=np.full(2, -40.0))
    draws = vi_sample(make_key(1), state, 20)
    assert np.max(np.abs(draws - state.mu)) < 1e-10


def test_vi_sample_validates_count():
    state = meanfield_init(np.zeros(1), sgd(0.1))
    with pytest.raises(ValueError):
        vi_sample(make_key(0), state, 0)


# ------------------------------------------------------------- full loop


def test_meanfield_vi_recovers_a_diagonal_gaussian():
    mu_true = np.array([1.5, -0.5])
    sd_true = np.array([0.8, 1.2])
    target = _normalized_gaussian(mu_true, sd_true)
    algorithm = meanfield_vi(target, adam(0.05), num_samples=16)
    state = algorithm.init(np.zeros(2))
    key = make_key(3)
    elbos = []
    for t in range(1500):
        state, info = algorithm.step(fold_in(key, t), state)
        elbos.append(info.elbo)
    assert np.max(np.abs(state.mu - mu_true)) < 0.15
    assert np.max(np.abs(np.exp(state.log_sigma) / sd_true - 1.0)) < 0.15
    assert np.mean(elbos[-100:]) > np.mean(elbos[:100])
    draws = algorithm.sample(fold_in(key, 9999), state, 4000)
    assert draws.shape == (4000, 2)
    assert np.max(np.abs(draws.mean(axis=0) - mu_true)) < 0.1


# ------------------------------------------------ one evaluation path


def _reference_vi_step(key, state, target, optimizer, num_samples):
    """The per-draw loop ``vi_step`` ran before it evaluated through ``evaluate_rows``."""
    sigma = np.exp(state.log_sigma)
    xi = normal_matrix(key, num_samples, state.mu.shape[0])
    draws = state.mu + sigma * xi
    dim = state.mu.shape[0]
    grad_sum = np.zeros(dim)
    grad_scale_sum = np.zeros(dim)
    logdensity_sum = 0.0
    for j in range(num_samples):
        grad = np.asarray(target.gradient(draws[j]), dtype=float)
        grad_sum += grad
        grad_scale_sum += grad * xi[j]
        logdensity_sum += float(target.logdensity(draws[j]))
    grad_mu = grad_sum / num_samples
    grad_log_sigma = (grad_scale_sum / num_samples) * sigma + 1.0
    elbo = logdensity_sum / num_samples + float(np.sum(state.log_sigma)) + dim * _HALF_LOG_2PI_E
    params = np.concatenate([state.mu, state.log_sigma])
    gradient = np.concatenate([grad_mu, grad_log_sigma])
    new_params, opt_state = optimizer.update(gradient, state.opt_state, params)
    return new_params, opt_state, elbo


def _hinge_target(dim):
    # Gradient components are -0.0 wherever a coordinate is negative.
    def logdensity(x):
        positive = np.maximum(x, 0.0)
        return -0.5 * float(positive @ positive)

    def gradient(x):
        return -np.maximum(x, 0.0)

    return Target(dim, logdensity, gradient)


def _wide_target(dim):
    # Terms of very different sizes, so any reordered sum shows in the bits.
    scales = 10.0 ** np.linspace(-3.0, 3.0, dim)

    def logdensity(x):
        return -0.25 * float(np.sum(scales * x**4)) + float(np.sum(np.sin(7.0 * x)))

    def gradient(x):
        return -scales * x**3 + 7.0 * np.cos(7.0 * x)

    return Target(dim, logdensity, gradient)


_REFERENCE_TARGETS = {
    "hinge": _hinge_target,
    "wide": _wide_target,
    "gaussian": lambda dim: _normalized_gaussian(np.linspace(-2.0, 3.0, dim), np.full(dim, 0.7)),
}


def _bits(array):
    return np.asarray(array, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 6),
    num_samples=st.integers(1, 70),
    name=st.sampled_from(sorted(_REFERENCE_TARGETS)),
    use_adam=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    mu_scale=st.sampled_from([0.0, 0.5, 3.0, 40.0]),
    log_sigma=st.floats(-4.0, 2.0),
)
def test_vi_step_matches_the_per_draw_loop_bit_for_bit(
    dim, num_samples, name, use_adam, seed, mu_scale, log_sigma
):
    target = _REFERENCE_TARGETS[name](dim)
    optimizer = adam(0.05) if use_adam else sgd(0.01)
    mu = mu_scale * normal_matrix(make_key(seed), 1, dim)[0]
    state = meanfield_init(mu, optimizer)._replace(
        log_sigma=log_sigma + np.linspace(0.0, 0.5, dim)
    )
    if use_adam:
        state, _ = vi_step(fold_in(make_key(seed), 1), state, target, optimizer, num_samples)
    key = fold_in(make_key(seed), 2)
    params, opt_state, elbo = _reference_vi_step(key, state, target, optimizer, num_samples)
    new_state, info = vi_step(key, state, target, optimizer, num_samples)
    assert _bits(new_state.mu) == _bits(params[:dim])
    assert _bits(new_state.log_sigma) == _bits(params[dim:])
    assert _bits(info.elbo) == _bits(elbo)
    if use_adam:
        assert _bits(new_state.opt_state.first_moment) == _bits(opt_state.first_moment)
        assert _bits(new_state.opt_state.second_moment) == _bits(opt_state.second_moment)


def test_vi_calls_no_target_callable_outside_evaluate_rows(monkeypatch):
    from mcbricks import core, vi

    rows_seen = []
    real = core.evaluate_rows

    def spy(positions, logdensity, gradient=None):
        rows_seen.append(positions.shape)
        return real(positions, logdensity, gradient)

    calls = []
    base = _normalized_gaussian([0.5, -1.0], [1.0, 2.0])

    def counted(fn):
        def wrapper(x):
            calls.append(len(rows_seen))
            return fn(x)

        return wrapper

    target = Target(2, counted(base.logdensity), counted(base.gradient))
    monkeypatch.setattr(vi, "evaluate_rows", spy)
    state = meanfield_init(np.zeros(2), sgd(0.1))
    vi_step(make_key(1), state, target, sgd(0.1), 4)
    elbo_estimate(make_key(2), state, target, 3)
    assert rows_seen == [(4, 2), (3, 2)]
    # Every target call happened inside one of the two evaluate_rows calls.
    assert calls == [1] * 8 + [2] * 3


# ------------------------------------------------ noise a block of steps at a time


@pytest.mark.parametrize("num_samples,dim,num_steps", [
    (16, 5, 600),  # 80 floats a record: blocks of 256 steps
    (1, 1, 300),
    (3, 7, 40),
    (2100, 16, 3),  # more floats than a block holds: blocks of one step
])
def test_each_noise_record_is_the_normal_matrix_of_its_step_key(num_samples, dim, num_steps):
    target = _normalized_gaussian(np.zeros(dim), np.ones(dim))
    draw = meanfield_vi(target, sgd(0.1), num_samples).step.draw
    assert draw.floats == num_samples * dim
    key = make_key(17)
    seen = []
    for t, record in step_inputs(key, draw, 0, num_steps, draw.floats):
        assert record.dtype == np.float64
        assert record.tobytes() == normal_matrix(fold_in(key, t), num_samples, dim).tobytes()
        seen.append(t)
    assert seen == list(range(num_steps))


@pytest.mark.parametrize("use_adam", [False, True])
def test_run_chain_gives_the_same_fit_on_the_noise_blocks_as_per_key(use_adam):
    target = _REFERENCE_TARGETS["wide"](3)
    algorithm = meanfield_vi(target, adam(0.05) if use_adam else sgd(0.01), num_samples=5)
    initial = algorithm.init(np.full(3, 0.3))

    def per_key(key, state):  # no draw atom: run_chain hands it the step's RngKey
        assert not isinstance(key, np.ndarray)
        return algorithm.step(key, state)

    key = make_key(23)
    blocks, keyed = (run_chain(key, step, initial, 700) for step in (algorithm.step, per_key))
    assert _bits(blocks[0].mu) == _bits(keyed[0].mu)
    assert _bits(blocks[0].log_sigma) == _bits(keyed[0].log_sigma)
    assert _bits([info.elbo for info in blocks[1]]) == _bits([info.elbo for info in keyed[1]])
    assert _bits(blocks[2]) == _bits(keyed[2])


@pytest.mark.parametrize("noise", [
    np.zeros((4, 3)),  # the wrong shape
    np.zeros((4, 2), dtype=np.float32),
    np.zeros((4, 2), dtype=np.uint64),
])
def test_vi_step_rejects_noise_that_is_not_its_block(noise):
    target = _normalized_gaussian([0.0, 0.0], [1.0, 1.0])
    state = meanfield_init(np.zeros(2), sgd(0.1))
    with pytest.raises(TypeError):
        vi_step(noise, state, target, sgd(0.1), 4)
