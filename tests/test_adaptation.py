"""Tests for step-size/metric adaptation and the warmup schedule."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mcbricks.adaptation import (
    build_schedule,
    check_settings,
    da_init,
    da_update,
    find_reasonable_step_size,
    StepSizeSearchError,
    welford_finalize,
    welford_init,
    welford_update,
    window_adaptation,
)
from mcbricks.core import Target, step_inputs
from mcbricks.integrator import (
    IntegratorState,
    identity_metric,
    kinetic_energy,
    leapfrog,
    sample_momentum,
    total_energy,
)
from mcbricks.mcmc import hmc, nuts
from mcbricks.rng import make_key, normal_matrix, split_key
from mcbricks.targets import aniso_gauss, make_builtin, std_normal

# ------------------------------------------------------------ dual averaging


def test_da_init_values():
    state = da_init(0.5)
    assert state.log_step == math.log(0.5)
    assert state.log_step_avg == 0.0
    assert state.h_bar == 0.0
    assert state.mu == math.log(5.0)
    assert state.t == 1


def test_da_init_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        da_init(0.0)


def test_da_update_matches_hand_recurrence():
    state = da_init(0.5)
    one = da_update(state, 0.6)
    eta1 = 1.0 / 11.0
    h1 = eta1 * (0.8 - 0.6)
    log_step1 = math.log(5.0) - (1.0 / 0.05) * h1
    assert one.h_bar == pytest.approx(h1, rel=1e-14)
    assert one.log_step == pytest.approx(log_step1, rel=1e-14)
    assert one.log_step_avg == pytest.approx(log_step1, rel=1e-14)  # t=1 weight is 1
    assert one.t == 2

    two = da_update(one, 0.9)
    eta2 = 1.0 / 12.0
    h2 = (1.0 - eta2) * h1 + eta2 * (0.8 - 0.9)
    log_step2 = math.log(5.0) - (math.sqrt(2.0) / 0.05) * h2
    weight = 2.0 ** (-0.75)
    avg2 = weight * log_step2 + (1.0 - weight) * log_step1
    assert two.h_bar == pytest.approx(h2, rel=1e-13)
    assert two.log_step == pytest.approx(log_step2, rel=1e-13)
    assert two.log_step_avg == pytest.approx(avg2, rel=1e-13)


def test_da_fixed_point_is_exact():
    """Acceptance pinned at the target never moves the log step off mu."""
    state = da_init(0.3)
    for _ in range(10):
        state = da_update(state, 0.8)
        assert state.h_bar == 0.0
        assert state.log_step == state.mu


def test_da_pushes_step_toward_the_acceptance_error():
    low = da_init(1.0)
    high = da_init(1.0)
    for _ in range(10):
        low = da_update(low, 0.0)
        high = da_update(high, 1.0)
    assert low.log_step < low.mu
    assert high.log_step > high.mu


def test_da_update_validates_acceptance():
    state = da_init(1.0)
    with pytest.raises(ValueError):
        da_update(state, -0.1)
    with pytest.raises(ValueError):
        da_update(state, 1.1)


# ------------------------------------------------------------ Welford


def test_welford_two_points():
    state = welford_init(1)
    state = welford_update(state, np.array([1.0]))
    state = welford_update(state, np.array([3.0]))
    assert state.count == 2
    np.testing.assert_array_equal(state.mean, np.array([2.0]))
    metric = welford_finalize(state, regularize=False)
    np.testing.assert_array_equal(metric.inverse_mass, np.array([2.0]))


def test_welford_matches_two_pass_oracle():
    data = normal_matrix(make_key(10), 300, 3) * np.array([0.5, 1.0, 3.0]) + 1.0
    diag = welford_init(3)
    dense = welford_init(3, mode="dense")
    for row in data:
        diag = welford_update(diag, row)
        dense = welford_update(dense, row)
    np.testing.assert_allclose(
        welford_finalize(diag, regularize=False).inverse_mass,
        np.var(data, axis=0, ddof=1),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        welford_finalize(dense, regularize=False).inverse_mass,
        np.cov(data, rowvar=False),
        rtol=1e-12,
        atol=1e-15,
    )


@pytest.mark.parametrize("length", [2, 17, 1000])
def test_welford_oracle_across_stream_lengths(length):
    data = normal_matrix(make_key(length), length, 2)
    state = welford_init(2)
    for row in data:
        state = welford_update(state, row)
    np.testing.assert_allclose(
        welford_finalize(state, regularize=False).inverse_mass,
        np.var(data, axis=0, ddof=1),
        rtol=1e-12,
    )


def test_welford_regularization_shrinks_toward_identity_scale():
    data = normal_matrix(make_key(3), 300, 2)
    state = welford_init(2)
    for row in data:
        state = welford_update(state, row)
    cov = np.var(data, axis=0, ddof=1)
    expected = (300.0 / 305.0) * cov + 1e-3 * (5.0 / 305.0)
    np.testing.assert_allclose(
        welford_finalize(state, regularize=True).inverse_mass, expected, rtol=1e-12
    )


def test_welford_needs_two_samples():
    state = welford_update(welford_init(1), np.array([1.0]))
    with pytest.raises(ValueError):
        welford_finalize(state, regularize=False)


def test_welford_rejects_unknown_mode():
    with pytest.raises(ValueError):
        welford_init(2, mode="banana")


# ------------------------------------------------------------ schedule


def test_schedule_1000_matches_doubling_layout():
    stages = build_schedule(1000).stages
    assert stages == (
        ("fast", 75),
        ("slow", 25),
        ("slow", 50),
        ("slow", 100),
        ("slow", 200),
        ("slow", 500),
        ("fast", 50),
    )


def test_schedule_short_warmup_scales_proportionally():
    assert build_schedule(100).stages == (("fast", 15), ("slow", 70), ("fast", 15))
    assert build_schedule(20).stages == (("fast", 3), ("slow", 14), ("fast", 3))


def test_schedule_rejects_tiny_warmup():
    with pytest.raises(ValueError):
        build_schedule(19)


@pytest.mark.parametrize("num_warmup", list(range(20, 800, 37)) + [150, 151, 999])
def test_schedule_partitions_warmup_exactly(num_warmup):
    stages = build_schedule(num_warmup).stages
    assert sum(length for _, length in stages) == num_warmup
    assert all(length >= 1 for _, length in stages)
    kinds = [kind for kind, _ in stages]
    assert kinds[0] == "fast" and kinds[-1] == "fast"
    assert all(kind == "slow" for kind in kinds[1:-1])
    assert len(kinds) >= 3


# ------------------------------------------------------------ step size search


def _one_leap_acceptance(state, momentum, step, metric, target):
    start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
    energy_start = -start.logdensity + kinetic_energy(momentum, metric)
    end = leapfrog(start, step, metric, target)
    if not math.isfinite(end.logdensity):
        return 0.0
    energy_end = -end.logdensity + kinetic_energy(end.momentum, metric)
    if not math.isfinite(energy_end):
        return 0.0
    return math.exp(min(energy_start - energy_end, 700.0))


def test_search_lands_in_the_sane_bracket_for_the_gaussian():
    target = std_normal(1).target
    state = hmc.init(np.array([0.5]), target)
    metric = identity_metric(1)
    for seed in (3, 4, 5):  # seeds whose momentum draw is of typical size
        step = find_reasonable_step_size(make_key(seed), target, state, metric, 1e-6)
        assert 0.1 <= step <= 4.0


@pytest.mark.parametrize("initial", [1e-6, 1e6])
def test_search_result_straddles_half_acceptance(initial):
    target = std_normal(1).target
    state = hmc.init(np.array([0.5]), target)
    metric = identity_metric(1)
    for seed in range(10):
        key = make_key(seed)
        step = find_reasonable_step_size(key, target, state, metric, initial)
        momentum = sample_momentum(key, metric)
        here = _one_leap_acceptance(state, momentum, step, metric, target)
        if initial < 1.0:  # doubling run: the previous candidate was step / 2
            before = _one_leap_acceptance(state, momentum, step / 2.0, metric, target)
            assert here <= 0.5 < before
        else:  # halving run: the previous candidate was step * 2
            before = _one_leap_acceptance(state, momentum, step * 2.0, metric, target)
            assert here >= 0.5 > before


def test_search_is_pure_in_the_key():
    target = std_normal(2).target
    state = hmc.init(np.array([0.4, -1.0]), target)
    metric = identity_metric(2)
    first = find_reasonable_step_size(make_key(9), target, state, metric)
    second = find_reasonable_step_size(make_key(9), target, state, metric)
    assert first == second


def test_search_gives_up_on_a_flat_target():
    flat = Target(1, lambda x: 0.0, lambda x: np.zeros(1))
    state = hmc.init(np.zeros(1), flat)
    with pytest.raises(StepSizeSearchError):
        find_reasonable_step_size(make_key(0), flat, state, identity_metric(1))


def test_search_validates_initial():
    target = std_normal(1).target
    state = hmc.init(np.zeros(1), target)
    with pytest.raises(ValueError):
        find_reasonable_step_size(make_key(0), target, state, identity_metric(1), 0.0)


# ------------------------------------------------------------ window adaptation


def test_window_adaptation_returns_usable_settings():
    target = std_normal(3).target
    result = window_adaptation(make_key(1), target, np.zeros(3), 200)
    assert result.step_size > 0.0
    assert result.metric.kind == "diagonal"
    assert result.metric.inverse_mass.shape == (3,)
    assert result.state.position.shape == (3,)
    assert math.isfinite(result.state.logdensity)


def test_window_adaptation_is_pure_in_the_key():
    target = std_normal(2).target
    first = window_adaptation(make_key(4), target, np.zeros(2), 150)
    second = window_adaptation(make_key(4), target, np.zeros(2), 150)
    assert first.step_size == second.step_size
    np.testing.assert_array_equal(first.metric.inverse_mass, second.metric.inverse_mass)
    np.testing.assert_array_equal(first.state.position, second.state.position)


def test_window_adaptation_dense_mass():
    target = std_normal(2).target
    result = window_adaptation(make_key(2), target, np.zeros(2), 200, mass="dense")
    assert result.metric.kind == "dense"
    assert result.metric.inverse_mass.shape == (2, 2)


def test_window_adaptation_hmc_family():
    target = std_normal(2).target
    result = window_adaptation(
        make_key(3), target, np.zeros(2), 200, kernel_family="hmc", num_integration_steps=8
    )
    assert result.step_size > 0.0


def test_window_adaptation_validates_inputs():
    target = std_normal(2).target
    with pytest.raises(ValueError):
        window_adaptation(make_key(0), target, np.zeros(2), 19)
    with pytest.raises(ValueError):
        window_adaptation(make_key(0), target, np.zeros(2), 200, kernel_family="rwm")
    with pytest.raises(ValueError):
        window_adaptation(make_key(0), target, np.zeros(2), 200, mass="scalar")


def test_window_adaptation_target_accept_orders_step_sizes():
    target = std_normal(2).target
    loose = window_adaptation(make_key(0), target, np.zeros(2), 400, target_accept=0.6)
    tight = window_adaptation(make_key(0), target, np.zeros(2), 400, target_accept=0.95)
    assert tight.step_size < loose.step_size


def test_window_adaptation_beats_identity_metric_on_anisotropic_target():
    """Tuned metric must lift the worst per-coordinate ESS at least 3x."""
    from mcbricks.core import run_chain
    from mcbricks.diagnostics import effective_sample_size
    from mcbricks.mcmc import nuts
    from mcbricks.rng import fold_in
    from mcbricks.targets import aniso_gauss

    target = aniso_gauss(5).target
    key = make_key(0)
    tuned = window_adaptation(fold_in(key, 0), target, np.zeros(5), 1000)
    tuned_kernel = nuts.build_kernel(tuned.step_size, tuned.metric)
    _, _, tuned_draws = run_chain(
        fold_in(key, 1), lambda k, s: tuned_kernel(k, s, target), tuned.state, 1000
    )

    plain_state = nuts.init(np.zeros(5), target)
    plain_step = find_reasonable_step_size(
        fold_in(key, 2), target, plain_state, identity_metric(5)
    )
    plain_kernel = nuts.build_kernel(plain_step, identity_metric(5))
    _, _, plain_draws = run_chain(
        fold_in(key, 3), lambda k, s: plain_kernel(k, s, target), plain_state, 1000
    )

    tuned_ess = effective_sample_size(tuned_draws[None, :, :]).min()
    plain_ess = effective_sample_size(plain_draws[None, :, :]).min()
    assert tuned_ess >= 3.0 * plain_ess


@pytest.mark.parametrize("target_accept", [0.0, 1.0, 1.5, -1.0, math.nan])
def test_target_acceptance_outside_the_open_unit_interval_is_rejected(target_accept):
    with pytest.raises(ValueError, match="target acceptance"):
        check_settings(100, target_accept)
    with pytest.raises(ValueError, match="target acceptance"):
        window_adaptation(
            make_key(0), std_normal(2).target, np.zeros(2), 100, target_accept=target_accept
        )
    check_settings(100, 0.65)


def test_step_size_search_through_an_overflow_raises_no_warning():
    """Acceptance stays near 1 until ``x @ x`` overflows; that trial ends the doubling."""
    target = Target(2, lambda x: -0.5e-300 * float(x @ x) * 1e-20, lambda x: -1e-300 * x * 1e-20)
    state = hmc.init(np.ones(2), target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = find_reasonable_step_size(make_key(0), target, state, identity_metric(2), 1e140)
    assert 1e150 < step < 1e160


def _search_with_64_moves(key, target, state, metric, initial):
    """The step-size search as it was with a budget of 64 moves (None when spent)."""
    momentum = sample_momentum(key, metric)
    start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
    energy_start = -start.logdensity + kinetic_energy(momentum, metric)

    def acceptance(step):
        energy_end = total_energy(leapfrog(start, step, metric, target), metric)
        if energy_end == math.inf:
            return 0.0
        return math.exp(min(energy_start - energy_end, 700.0))

    step = float(initial)
    with np.errstate(over="ignore", invalid="ignore"):
        direction = 1 if acceptance(step) > 0.5 else -1
        for _ in range(64):
            step = step * 2.0 if direction == 1 else step * 0.5
            ratio = acceptance(step)
            if (direction == 1 and ratio <= 0.5) or (direction == -1 and ratio >= 0.5):
                return step
    return None


@settings(max_examples=60, deadline=None)
@given(exponent=st.floats(-12.0, 12.0), seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5))
def test_step_search_gives_what_the_64_move_search_gave_whenever_that_succeeded(exponent, seed,
                                                                                 dim):
    target = aniso_gauss(dim).target if dim > 1 else std_normal(1).target
    key_start, key_search = split_key(make_key(seed), 2)
    state = hmc.init(normal_matrix(key_start, 1, dim)[0], target)
    metric = identity_metric(dim)
    initial = 10.0 ** exponent
    reference = _search_with_64_moves(key_search, target, state, metric, initial)
    assume(reference is not None)
    assert find_reasonable_step_size(key_search, target, state, metric, initial) == reference


@pytest.mark.parametrize("initial", [1e30, 1e300, 1e-30, 1e-300, 5e-324])
def test_step_search_reaches_a_workable_step_from_anywhere_in_the_double_range(initial):
    target = std_normal(3).target
    state = hmc.init(np.full(3, 0.5), target)
    assert _search_with_64_moves(make_key(2), target, state, identity_metric(3), initial) is None
    step = find_reasonable_step_size(make_key(2), target, state, identity_metric(3), initial)
    assert 0.1 < step < 10.0


# The step size and inverse mass bytes window adaptation returns (NumPy 2.4,
# x86-64).  The HMC entry was pinned before warmup drew its randomness in
# blocks; the NUTS entry since NUTS joins each new subtree by biased
# progressive sampling.
_PINNED_WARMUP = {
    "nuts": (
        "funnel", "diagonal", "0x1.af4db42b461c7p-2",
        ["0x1.c749c0e4631e3p+0", "0x1.e6b97d59a48cep+2", "0x1.e25dd6394be56p+2"],
    ),
    "hmc": (
        "aniso_gauss", "dense", "0x1.1387e3289441ap-1",
        ["0x1.04a8ec40b417dp+1", "0x1.28208a0cc54b8p+0", "-0x1.351df9fb91f10p+1",
         "0x1.28208a0cc54b7p+0", "0x1.2c9c6088879aap+4", "-0x1.a783cbaed8944p+3",
         "-0x1.351df9fb91f10p+1", "-0x1.a783cbaed8944p+3", "0x1.a9ec532b230c7p+6"],
    ),
}


# The same at 600 warmup steps, taken before warmup drew all its records
# from one stream.  The 256-step blocks then end inside the 300-step slow
# window, so a block that crossed a stage and drew other records would show.
_PINNED_LONG_WARMUP = {
    "nuts": (
        "funnel", "diagonal", "0x1.2edf42e036ecep-3",
        ["0x1.a21461301a435p+1", "0x1.fb7c075c123ffp+3", "0x1.9204d9c00b943p+2"],
    ),
    "hmc": (
        "aniso_gauss", "dense", "0x1.89e5b3f956283p-1",
        ["0x1.9d51262c31d8ap-1", "-0x1.eb3a060f187e4p-2", "-0x1.778a275600c2dp+0",
         "-0x1.eb3a060f187e4p-2", "0x1.1b0df8771a7e3p+3", "0x1.f1a0a18ff6dccp+1",
         "-0x1.778a275600c2dp+0", "0x1.f1a0a18ff6dcap+1", "0x1.795a04667f61bp+6"],
    ),
}


@pytest.mark.parametrize("family", sorted(_PINNED_WARMUP))
def test_window_adaptation_returns_the_pinned_settings(family):
    name, mass, step_size, inverse_mass = _PINNED_WARMUP[family]
    target = make_builtin(name, 3).target
    result = window_adaptation(
        make_key(77), target, np.zeros(3), 150, kernel_family=family, mass=mass,
        num_integration_steps=5,
    )
    assert float(result.step_size).hex() == step_size
    assert [float(v).hex() for v in result.metric.inverse_mass.ravel()] == inverse_mass


@pytest.mark.parametrize("family", sorted(_PINNED_LONG_WARMUP))
def test_window_adaptation_returns_the_pinned_settings_across_blocks(family):
    name, mass, step_size, inverse_mass = _PINNED_LONG_WARMUP[family]
    target = make_builtin(name, 3).target
    result = window_adaptation(
        make_key(77), target, np.zeros(3), 600, kernel_family=family, mass=mass,
        num_integration_steps=5,
    )
    assert float(result.step_size).hex() == step_size
    assert [float(v).hex() for v in result.metric.inverse_mass.ravel()] == inverse_mass


@pytest.mark.parametrize("family", ["nuts", "hmc"])
def test_window_adaptation_draws_warmup_as_one_record_stream(monkeypatch, family):
    """Every warmup step moves under a pre-drawn record, served in the blocks of one range."""
    module = nuts if family == "nuts" else hmc
    build_kernel = module.build_kernel
    blocks, inputs, atoms = [], [], []

    def spying_build_kernel(*args, **kwargs):
        kernel = build_kernel(*args, **kwargs)
        draw = kernel.draw
        atoms.append(draw)

        def spied_draw(keys, target):
            blocks.append(keys.shape[0])
            return draw(keys, target)

        def spied_kernel(key, state, target):
            inputs.append(type(key))
            return kernel(key, state, target)

        spied_draw.floats = draw.floats
        spied_kernel.draw = spied_draw
        return spied_kernel

    monkeypatch.setattr(module, "build_kernel", spying_build_kernel)
    num_warmup = 400
    target = std_normal(2).target
    window_adaptation(make_key(9), target, np.zeros(2), num_warmup, kernel_family=family)
    assert set(inputs) == {nuts.NutsDraw if family == "nuts" else np.ndarray}
    assert len(inputs) == num_warmup
    served = []
    floats = atoms[0].floats(target.dim)
    for _ in step_inputs(make_key(9), lambda keys: served.append(len(keys)) or keys, 0, num_warmup, floats):
        pass
    assert blocks == served == [256, 144]


def test_window_adaptation_rejects_a_position_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="target dimension 5"):
        window_adaptation(make_key(1), std_normal(5).target, np.zeros(1), 150)
