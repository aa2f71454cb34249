"""Tests for resampling schemes and tempered SMC."""

import math
import warnings

import numpy as np
import pytest

from mcbricks.core import SamplingAlgorithm
from mcbricks.mcmc import hmc, rwm
from mcbricks.rng import make_key, normal_matrix, normal_vector, split_key, uniform_vector
from mcbricks.smc.resampling import (
    RESAMPLING_METHODS,
    DegenerateWeightsError,
    ess,
    normalized_weights,
    resample,
)
from mcbricks.smc.tempering import (
    ParticleEnsemble,
    SmcStagnationError,
    TemperedTarget,
    adaptive_next_lambda,
    check_settings,
    init_ensemble,
    reweight,
    run_tempered_smc,
    smc_step,
)
from mcbricks.targets import (
    conjugate_gaussian_log_evidence,
    make_tempered,
)

# ------------------------------------------------------------- weights / ESS


def test_normalized_weights_recovers_probabilities():
    probs = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(normalized_weights(np.log(probs)), probs, rtol=1e-14)


def test_normalized_weights_shift_invariant():
    log_w = np.array([-1.0, 0.5, 2.0])
    np.testing.assert_allclose(
        normalized_weights(log_w), normalized_weights(log_w + 123.0), rtol=1e-12
    )


def test_normalized_weights_handles_minus_inf_entries():
    weights = normalized_weights(np.array([-np.inf, 0.0, 0.0]))
    np.testing.assert_allclose(weights, [0.0, 0.5, 0.5], rtol=1e-14)


def test_all_minus_inf_weights_raise():
    with pytest.raises(DegenerateWeightsError):
        normalized_weights(np.array([-np.inf, -np.inf]))
    with pytest.raises(DegenerateWeightsError):
        ess(np.array([-np.inf, -np.inf]))


def test_nan_weights_raise_naming_nan():
    for log_w in ([0.0, np.nan, -1.0], [np.nan, -np.inf]):
        with pytest.raises(DegenerateWeightsError, match="NaN"):
            normalized_weights(np.array(log_w))
        with pytest.raises(DegenerateWeightsError, match="NaN"):
            ess(np.array(log_w))


def test_plus_inf_weights_raise_naming_plus_inf_without_warnings():
    for log_w in ([0.0, np.inf], [np.inf, -np.inf, 1.0], [np.inf, np.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateWeightsError, match=r"\+inf"):
                normalized_weights(np.array(log_w))
            with pytest.raises(DegenerateWeightsError, match=r"\+inf"):
                ess(np.array(log_w))


def test_ess_equal_weights_is_the_count():
    assert ess(np.zeros(7)) == pytest.approx(7.0, rel=1e-12)


def test_ess_known_mixture():
    log_w = np.log(np.array([0.5, 0.25, 0.25]))
    assert ess(log_w) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_ess_degenerate_point_mass():
    assert ess(np.array([0.0, -np.inf, -np.inf])) == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------- resampling


@pytest.mark.parametrize("method", RESAMPLING_METHODS)
def test_one_hot_weights_select_only_the_hot_particle(method):
    log_w = np.array([-np.inf, 0.0, -np.inf])
    for seed in range(5):
        ancestors = resample(make_key(seed), log_w, 6, method)
        assert ancestors.shape == (6,)
        assert np.all(ancestors == 1)


@pytest.mark.parametrize("method", ["systematic", "stratified"])
def test_equal_weights_keep_every_particle_once(method):
    for seed in range(5):
        ancestors = resample(make_key(seed), np.zeros(8), 8, method)
        np.testing.assert_array_equal(np.sort(ancestors), np.arange(8))


def test_multinomial_counts_match_expectation():
    probs = np.array([0.7, 0.2, 0.1])
    num = 1000
    ancestors = resample(make_key(0), np.log(probs), num, "multinomial")
    counts = np.bincount(ancestors, minlength=3)
    sigma = np.sqrt(num * probs * (1.0 - probs))
    assert np.all(np.abs(counts - num * probs) <= 4.0 * sigma)


def test_residual_with_integer_expectations_is_deterministic():
    log_w = np.log(np.array([0.5, 0.25, 0.25]))  # exact dyadic expectations
    first = resample(make_key(0), log_w, 8, "residual")
    second = resample(make_key(99), log_w, 8, "residual")
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(np.bincount(first, minlength=3), [4, 2, 2])


def test_residual_counts_never_fall_below_the_floor():
    log_w = np.log(np.array([0.55, 0.25, 0.2]))
    num = 10
    floors = np.floor(num * normalized_weights(log_w)).astype(int)
    for seed in range(20):
        counts = np.bincount(
            resample(make_key(seed), log_w, num, "residual"), minlength=3
        )
        assert counts.sum() == num
        assert np.all(counts >= floors)


def test_systematic_counts_stay_within_one_of_expectation():
    raw = uniform_vector(make_key(5), 6) + 0.05
    probs = raw / raw.sum()
    num = 1000
    for seed in range(20):
        counts = np.bincount(
            resample(make_key(seed), np.log(probs), num, "systematic"), minlength=6
        )
        expected = num * probs
        assert np.all(counts >= np.floor(expected))
        assert np.all(counts <= np.ceil(expected))


@pytest.mark.parametrize("method", RESAMPLING_METHODS)
def test_resampling_is_unbiased(method):
    """Mean ancestor counts converge to n * w for every scheme."""
    probs = np.array([0.5, 0.3, 0.2])
    num, reps = 6, 3000
    totals = np.zeros(3)
    for seed in range(reps):
        totals += np.bincount(
            resample(make_key(seed), np.log(probs), num, method), minlength=3
        )
    means = totals / reps
    sigma = np.sqrt(num * probs * (1.0 - probs) / reps)
    assert np.all(np.abs(means - num * probs) <= 5.0 * sigma)


@pytest.mark.parametrize("method", RESAMPLING_METHODS)
def test_resampling_is_pure_and_well_typed(method):
    log_w = np.log(np.array([0.4, 0.1, 0.3, 0.2]))
    first = resample(make_key(3), log_w, 9, method)
    second = resample(make_key(3), log_w, 9, method)
    np.testing.assert_array_equal(first, second)
    assert np.issubdtype(first.dtype, np.integer)
    assert first.shape == (9,)
    assert np.all((first >= 0) & (first < 4))


def test_resample_validates_arguments():
    with pytest.raises(ValueError):
        resample(make_key(0), np.zeros(3), 5, "bogus")
    with pytest.raises(ValueError):
        resample(make_key(0), np.zeros(3), 0, "systematic")


def test_method_registry_is_sorted_and_complete():
    assert RESAMPLING_METHODS == ("multinomial", "residual", "stratified", "systematic")


# ------------------------------------------------------------- tempered target


def _toy_tempered():
    return TemperedTarget(
        dim=1,
        log_prior=lambda x: -0.5 * float(x @ x),
        grad_prior=lambda x: -x,
        log_likelihood=lambda x: 2.0 * float(x[0]),
        grad_likelihood=lambda x: np.array([2.0]),
    )


def test_at_temperature_interpolates_density_and_gradient():
    tempered = _toy_tempered()
    target = tempered.at_temperature(0.3)
    x = np.array([1.5])
    assert target.dim == 1
    assert target.logdensity(x) == pytest.approx(-0.5 * 2.25 + 0.3 * 3.0, rel=1e-14)
    np.testing.assert_allclose(target.gradient(x), [-1.5 + 0.6], rtol=1e-14)


def test_at_temperature_endpoints():
    tempered = _toy_tempered()
    x = np.array([0.7])
    assert tempered.at_temperature(0.0).logdensity(x) == tempered.log_prior(x)
    assert tempered.at_temperature(1.0).logdensity(x) == pytest.approx(
        tempered.log_prior(x) + tempered.log_likelihood(x), rel=1e-14
    )


def test_at_temperature_validates_lambda():
    tempered = _toy_tempered()
    with pytest.raises(ValueError):
        tempered.at_temperature(-0.1)
    with pytest.raises(ValueError):
        tempered.at_temperature(1.1)


# ------------------------------------------------------------- ensembles


def test_init_ensemble_defaults():
    ensemble = init_ensemble(np.ones((4, 2)))
    np.testing.assert_array_equal(ensemble.log_weights, np.zeros(4))
    assert ensemble.lmbda == 0.0
    assert ensemble.log_z == 0.0


def test_init_ensemble_validates_shape():
    with pytest.raises(ValueError):
        init_ensemble(np.ones(4))
    with pytest.raises(ValueError):
        init_ensemble(np.ones((1, 3)))


def test_reweight_constant_likelihood_moves_log_z_exactly():
    ensemble = init_ensemble(np.zeros((4, 1)))
    constant = -2.5
    moved = reweight(ensemble, np.full(4, constant), 0.3)
    assert moved.lmbda == 0.3
    assert moved.log_z == pytest.approx(0.3 * constant, rel=1e-13)
    np.testing.assert_allclose(moved.log_weights, np.full(4, 0.3 * constant), rtol=1e-14)


def test_reweight_increments_telescope():
    """Two ladder moves accumulate the same log_z as one combined move."""
    lls = normal_vector(make_key(1), 64) * 3.0
    base = init_ensemble(np.zeros((64, 1)))
    direct = reweight(base, lls, 1.0)
    staged = reweight(reweight(base, lls, 0.4), lls, 1.0)
    assert staged.log_z == pytest.approx(direct.log_z, rel=1e-12)
    np.testing.assert_allclose(staged.log_weights, direct.log_weights, rtol=1e-12)


def test_reweight_validates_ladder_direction():
    ensemble = init_ensemble(np.zeros((3, 1)))
    moved = reweight(ensemble, np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        reweight(moved, np.zeros(3), 0.4)
    with pytest.raises(ValueError):
        reweight(moved, np.zeros(3), 1.5)


# ------------------------------------------------------------- ladder choice


def test_next_lambda_jumps_to_one_when_ess_allows():
    ensemble = init_ensemble(np.zeros((10, 1)))
    assert adaptive_next_lambda(ensemble, np.full(10, -3.0)) == 1.0


def test_next_lambda_rounds_terminal_sliver_up_to_one():
    ensemble = ParticleEnsemble(np.zeros((10, 1)), np.zeros(10), 1.0 - 1e-9, 0.0)
    lls = normal_vector(make_key(2), 10) * 10.0
    assert adaptive_next_lambda(ensemble, lls) == 1.0


def test_next_lambda_hits_the_ess_floor():
    ensemble = init_ensemble(np.zeros((1000, 1)))
    lls = 5.0 * normal_vector(make_key(7), 1000)
    lam = adaptive_next_lambda(ensemble, lls)
    assert 0.0 < lam < 1.0
    assert ess(lam * lls) == pytest.approx(500.0, abs=1.0)


def test_next_lambda_validates_inputs():
    ensemble = init_ensemble(np.zeros((10, 1)))
    with pytest.raises(ValueError):
        adaptive_next_lambda(ensemble, np.zeros(10), target_ess_ratio=0.0)
    with pytest.raises(ValueError):
        adaptive_next_lambda(ensemble, np.zeros(10), target_ess_ratio=1.0)
    finished = ParticleEnsemble(np.zeros((10, 1)), np.zeros(10), 1.0, 0.0)
    with pytest.raises(ValueError):
        adaptive_next_lambda(finished, np.zeros(10))


# ------------------------------------------------------------- smc_step


def _rwm_mutation(target):
    return rwm.as_algorithm(target, proposal_scale=0.5)


def _hmc_mutation(target):
    return hmc.as_algorithm(target, step_size=0.3, num_integration_steps=4)


def _conjugate_setup(seed, num, dim):
    key_data, key_rest = split_key(make_key(seed), 2)
    tempered, details = make_tempered("gauss_conjugate", dim, key_data)
    particles = normal_matrix(key_rest, num, dim)
    return tempered, details, init_ensemble(particles), key_rest


def test_smc_step_advances_and_resets_weights():
    tempered, _, ensemble, key = _conjugate_setup(3, 64, 2)
    stepped, info = smc_step(make_key(11), ensemble, tempered, _rwm_mutation, 2)
    assert stepped.lmbda == info.lmbda > 0.0
    np.testing.assert_array_equal(stepped.log_weights, np.zeros(64))
    assert stepped.particles.shape == (64, 2)
    assert 0.0 < info.ess <= 64.0
    assert 0.0 <= info.mean_acceptance <= 1.0


def test_smc_step_without_mutation_reuses_input_rows():
    tempered, _, ensemble, _ = _conjugate_setup(4, 32, 2)
    stepped, info = smc_step(make_key(5), ensemble, tempered, _rwm_mutation, 0)
    assert math.isnan(info.mean_acceptance)
    source = {tuple(row) for row in ensemble.particles}
    assert all(tuple(row) in source for row in stepped.particles)


def test_smc_step_selection_ignores_the_mutation_kernel():
    """Lambda choice and ancestor draws happen before mutation runs."""
    tempered, _, ensemble, _ = _conjugate_setup(6, 48, 2)
    key = make_key(21)
    seen_rwm, seen_hmc = [], []

    def recording(factory, log):
        def make(target):
            algorithm = factory(target)

            def init(position):
                log.append(np.array(position))
                return algorithm.init(position)

            return SamplingAlgorithm(init, algorithm.step)

        return make

    _, info_rwm = smc_step(key, ensemble, tempered, recording(_rwm_mutation, seen_rwm), 1)
    _, info_hmc = smc_step(key, ensemble, tempered, recording(_hmc_mutation, seen_hmc), 1)
    assert info_rwm.lmbda == info_hmc.lmbda
    np.testing.assert_array_equal(np.stack(seen_rwm), np.stack(seen_hmc))


def test_smc_step_rejects_negative_mutation_count():
    tempered, _, ensemble, _ = _conjugate_setup(7, 16, 1)
    with pytest.raises(ValueError):
        smc_step(make_key(0), ensemble, tempered, _rwm_mutation, -1)


# ------------------------------------------------------------- full runs


def test_tempered_run_reaches_the_posterior():
    key_data, key_run = split_key(make_key(42), 2)
    tempered, details = make_tempered("gauss_conjugate", 2, key_data)
    result = run_tempered_smc(
        key_run,
        tempered,
        lambda k, n: normal_matrix(k, n, 2),
        400,
        _rwm_mutation,
        num_mutation_steps=3,
    )
    assert result.ladder[-1] == 1.0
    assert all(b > a for a, b in zip(result.ladder, result.ladder[1:]))
    assert all(lam <= 1.0 for lam in result.ladder)
    assert result.ensemble.lmbda == 1.0
    assert result.ensemble.particles.shape == (400, 2)
    analytic = conjugate_gaussian_log_evidence(details["observations"])
    assert abs(result.log_z - analytic) < 0.75


def test_tempered_run_is_pure_in_the_key():
    key_data, key_run = split_key(make_key(9), 2)
    tempered, _ = make_tempered("gauss_conjugate", 1, key_data)
    runs = [
        run_tempered_smc(
            key_run, tempered, lambda k, n: normal_matrix(k, n, 1), 100,
            _rwm_mutation, num_mutation_steps=2,
        )
        for _ in range(2)
    ]
    assert runs[0].ladder == runs[1].ladder
    assert runs[0].log_z == runs[1].log_z
    np.testing.assert_array_equal(runs[0].ensemble.particles, runs[1].ensemble.particles)


def test_tempered_run_raises_when_stages_run_out():
    key_data, key_run = split_key(make_key(3), 2)
    tempered, _ = make_tempered("gauss_conjugate", 1, key_data)
    with pytest.raises(SmcStagnationError):
        run_tempered_smc(
            key_run, tempered, lambda k, n: normal_matrix(k, n, 1), 100,
            _rwm_mutation, num_mutation_steps=1, target_ess_ratio=0.99,
            max_stages=1,
        )


def test_tempered_run_validates_inputs():
    key_data, key_run = split_key(make_key(3), 2)
    tempered, _ = make_tempered("gauss_conjugate", 1, key_data)
    with pytest.raises(ValueError):
        run_tempered_smc(
            key_run, tempered, lambda k, n: normal_matrix(k, n, 1), 1, _rwm_mutation
        )
    with pytest.raises(ValueError):
        run_tempered_smc(
            key_run, tempered, lambda k, n: normal_matrix(k, n, 2), 10, _rwm_mutation
        )


def test_a_stage_budget_below_one_is_rejected_before_any_draw():
    with pytest.raises(ValueError, match="stage budget"):
        check_settings(10, 1, 0.5, max_stages=0)
    tempered, _ = make_tempered("gauss_conjugate", 1, make_key(0))

    def never_called(key, count):
        raise AssertionError("sampled before the settings were checked")

    with pytest.raises(ValueError, match="stage budget"):
        run_tempered_smc(make_key(1), tempered, never_called, 10, lambda t: None, max_stages=0)


def test_tempered_run_keeps_every_stage_record():
    key_data, key_run = split_key(make_key(12), 2)
    tempered, _ = make_tempered("gauss_conjugate", 2, key_data)
    result = run_tempered_smc(
        key_run, tempered, lambda k, n: normal_matrix(k, n, 2), 200,
        _hmc_mutation, num_mutation_steps=2,
    )
    assert len(result.stages) == len(result.ladder) >= 2
    assert [info.lmbda for info in result.stages] == result.ladder
    assert all(0.0 < info.ess <= 200.0 for info in result.stages)
    assert all(0.0 <= info.mean_acceptance <= 1.0 for info in result.stages)
    # log_z is the running sum of the increments, added in stage order.
    log_z = 0.0
    for info in result.stages:
        log_z += info.log_z_increment
    assert log_z == result.log_z
