"""The atoms the fixed kernels share serve one state and an ensemble alike.

``core.evaluate`` is the one shape dispatch for target evaluations,
``integrator.total_energy`` the one energy rule, ``integrator.momentum_draw``
the one draw atom of RWM, MALA, HMC and GHMC (normals and a uniform, under
no metric), and ``proposal.settle`` applies
each kernel's one accept rule.  An ensemble row must come out bit for bit as
the single-state call gives it, with the single-state types.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbricks.core import AcceptanceInfo, Target, evaluate, evaluate_rows
from mcbricks.integrator import (
    IntegratorState,
    dense_metric,
    diagonal_metric,
    identity_metric,
    kinetic_energy,
    leapfrog,
    momentum_draw,
    scale_momentum,
    total_energy,
    trajectory,
)
from mcbricks.mcmc import ghmc, hmc, mala, rwm
from mcbricks.proposal import settle
from mcbricks.rng import RngKey, key_rows, make_key, normal_matrix, split_key
from mcbricks.targets import std_normal


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _metric(kind: str, dim: int):
    if kind == "identity":
        return identity_metric(dim)
    scales = 0.5 + np.arange(dim) / dim
    if kind == "diagonal":
        return diagonal_metric(scales)
    factor = normal_matrix(make_key(dim), dim, dim)
    return dense_metric(factor @ factor.T + dim * np.eye(dim))


_LOGDENSITY = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([math.nan, -math.inf, math.inf, -1e308, 1e308]),
)
_COORDINATE = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e160]),
)


def _assert_rows_are_single_state_energies(logdensity, momentum, metric):
    dim = momentum.shape[1]
    ensemble = IntegratorState(np.zeros(momentum.shape), momentum, logdensity, np.zeros(momentum.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        energies = total_energy(ensemble, metric)
        assert energies.shape == logdensity.shape
        for i in range(len(logdensity)):
            row = IntegratorState(np.zeros(dim), momentum[i].copy(), float(logdensity[i]), np.zeros(dim))
            energy = total_energy(row, metric)
            assert type(energy) is float
            assert _bits(energies[i]) == _bits(energy)
            assert not math.isnan(energy) and energy != -math.inf


@pytest.mark.parametrize("kind", ["identity", "diagonal", "dense"])
def test_total_energy_maps_nan_minus_inf_and_overflow_rows_to_plus_inf(kind):
    logdensity = np.array([math.nan, -math.inf, 1.0, -1.0, -2.5])
    momentum = np.array([[0.5, 1.0], [0.5, 1.0], [math.nan, 0.0], [1e200, 1e200], [0.3, -0.7]])
    _assert_rows_are_single_state_energies(logdensity, momentum, _metric(kind, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        energies = total_energy(IntegratorState(None, momentum, logdensity, None), _metric(kind, 2))
    assert energies[:4].tolist() == [math.inf] * 4 and math.isfinite(energies[4])


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 5),
    kind=st.sampled_from(["identity", "diagonal", "dense"]),
    data=st.data(),
)
def test_total_energy_rows_are_the_single_state_energies(dim, kind, data):
    num = data.draw(st.integers(1, 8))
    logdensity = np.array(data.draw(st.lists(_LOGDENSITY, min_size=num, max_size=num)))
    momentum = np.array(
        data.draw(st.lists(_COORDINATE, min_size=num * dim, max_size=num * dim))
    ).reshape(num, dim)
    _assert_rows_are_single_state_energies(logdensity, momentum, _metric(kind, dim))


def _listed_target(dim: int) -> Target:
    # Returns a NumPy scalar and a list, so evaluate must convert both.
    return Target(dim, lambda x: np.float64(-0.5) * (x @ x), lambda x: list(-x))


def test_evaluate_one_position_gives_a_float_and_a_float64_array():
    target = _listed_target(3)
    logdensity, gradient = evaluate(np.array([1.0, -2.0, 0.5]), target.logdensity, target.gradient)
    assert type(logdensity) is float and logdensity == -2.625
    assert type(gradient) is np.ndarray and gradient.dtype == np.float64
    assert gradient.tolist() == [-1.0, 2.0, -0.5]
    only, none = evaluate(np.array([1.0, -2.0, 0.5]), target.logdensity)
    assert type(only) is float and only == logdensity and none is None


def test_evaluate_on_a_matrix_is_evaluate_rows():
    target = _listed_target(2)
    positions = normal_matrix(make_key(5), 4, 2)
    densities, gradients = evaluate(positions, target.logdensity, target.gradient)
    expected_densities, expected_gradients = evaluate_rows(positions, target.logdensity, target.gradient)
    assert densities.tobytes() == expected_densities.tobytes()
    assert gradients.tobytes() == expected_gradients.tobytes()
    only, none = evaluate(positions, target.logdensity)
    assert only.tobytes() == expected_densities.tobytes() and none is None


def test_the_four_fixed_kernels_share_one_draw_atom():
    target = std_normal(4).target
    keys = key_rows(split_key(make_key(12), 5))
    rows = momentum_draw(keys, target)
    assert rows.shape == (5, 5)
    kernels = [
        rwm.build_kernel(0.5), mala.build_kernel(0.1), hmc.build_kernel(0.2, 3), ghmc.build_kernel(0.2),
    ]
    for kind in ("diagonal", "dense"):
        metric = _metric(kind, 4)
        kernels += [hmc.build_kernel(0.2, 3, metric), ghmc.build_kernel(0.2, 0.5, metric)]
    for kernel in kernels:
        assert kernel.draw is momentum_draw
        assert kernel.draw(keys, target).tobytes() == rows.tobytes()
        for i, (hi, lo) in enumerate(keys.tolist()):
            assert kernel.draw(RngKey(hi, lo), target).tobytes() == rows[i].tobytes()


_KEY = st.builds(RngKey, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(_KEY, min_size=1, max_size=5),
    dim=st.integers(1, 6),
    kind=st.sampled_from(["identity", "diagonal", "dense"]),
)
def test_every_fixed_kernel_draws_the_atom_records_under_any_metric(keys, dim, kind):
    target = std_normal(dim).target
    metric = _metric(kind, dim)
    block = key_rows(keys)
    rows = momentum_draw(block, target)
    kernels = [
        rwm.build_kernel(0.5), mala.build_kernel(0.1),
        hmc.build_kernel(0.2, 3, metric), ghmc.build_kernel(0.2, 0.5, metric),
    ]
    for kernel in kernels:
        assert kernel.draw(block, target).tobytes() == rows.tobytes()
        assert kernel.draw(keys[0], target).tobytes() == momentum_draw(keys[0], target).tobytes()


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_hmc_and_ghmc_start_from_the_record_normals_scaled_under_their_metric(kind):
    """A step under a metric starts from ``scale_momentum(record[:-1], metric)``, by key or by record."""
    target = std_normal(3).target
    metric = _metric(kind, 3)
    step_size, num_steps, persistence = 0.4, 3, 0.5
    state = hmc.init(np.array([0.3, -1.2, 0.8]), target)
    ghmc_state = ghmc.init(state.position, target, momentum=np.array([0.5, -1.0, 0.25]))
    hmc_kernel = hmc.build_kernel(step_size, num_steps, metric)
    ghmc_kernel = ghmc.build_kernel(step_size, persistence, metric)
    for key in split_key(make_key(13), 6):
        record = momentum_draw(key, target)
        momentum = scale_momentum(record[:-1], metric)
        start = IntegratorState(state.position, momentum, state.logdensity, state.gradient)
        energy_start = -state.logdensity + kinetic_energy(momentum, metric)
        end = trajectory(start, step_size, metric, target, num_steps)
        p_accept = min(1.0, math.exp(min(energy_start - total_energy(end, metric), 0.0)))
        refresh = persistence * ghmc_state.momentum + math.sqrt(1.0 - persistence**2) * momentum
        ghmc_end = leapfrog(
            IntegratorState(state.position, refresh, state.logdensity, state.gradient),
            step_size, metric, target,
        )
        for given_input in (key, record):
            moved, info = hmc_kernel(given_input, state, target)
            assert info.p_accept == p_accept
            expected = end.position if info.accepted else state.position
            assert moved.position.tobytes() == expected.tobytes()
            moved, info = ghmc_kernel(given_input, ghmc_state, target)
            expected = ghmc_end if info.accepted else start._replace(momentum=-refresh)
            assert moved.position.tobytes() == expected.position.tobytes()
            assert moved.momentum.tobytes() == expected.momentum.tobytes()


def _threshold_rule(u, old, new):
    accepted = u < new - old
    return accepted, AcceptanceInfo(new - old, accepted, False, new if accepted else old)


def test_settle_on_one_state_returns_the_chosen_state_itself():
    proposed, current = (np.ones(2), 1.0), (np.zeros(2), 0.0)
    chosen, info = settle(_threshold_rule, np.array(0.5), (0.0, 1.0), proposed, current)
    assert chosen is proposed and info == AcceptanceInfo(1.0, True, False, 1.0)
    assert type(info.p_accept) is float and type(info.accepted) is bool
    chosen, info = settle(_threshold_rule, np.array(0.5), (0.0, 0.25), proposed, current)
    assert chosen is current and not info.accepted


def test_settle_on_an_ensemble_decides_row_by_row():
    rule = _threshold_rule
    proposed = IntegratorState(np.ones((3, 2)), np.ones((3, 2)), np.array([1.0, 0.25, 2.0]), np.ones((3, 2)))
    current = IntegratorState(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)))
    u = np.array([0.5, 0.5, 0.5])
    chosen, infos = settle(rule, u, (current.logdensity, proposed.logdensity.tolist()), proposed, current)
    assert infos == tuple(rule(0.5, 0.0, new)[1] for new in (1.0, 0.25, 2.0))
    assert all(type(info.p_accept) is float for info in infos)
    assert chosen.logdensity.tolist() == [1.0, 0.0, 2.0]
    assert chosen.position.tolist() == [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]


# ------------------------------------------------- one acceptance record


@pytest.mark.parametrize("module, kernel, steps", [
    (rwm, rwm.build_kernel(0.5), 0),
    (mala, mala.build_kernel(0.1), 0),
    (hmc, hmc.build_kernel(0.2, 7), 7),
    (ghmc, ghmc.build_kernel(0.2), 1),
], ids=["rwm", "mala", "hmc", "ghmc"])
def test_fixed_kernels_report_one_acceptance_record(module, kernel, steps):
    target = std_normal(3).target
    state = module.init(np.array([0.3, -0.2, 0.1]), target)
    _, info = kernel(make_key(21), state, target)
    assert type(info) is AcceptanceInfo
    assert info.num_integration_steps == steps


def test_every_hmc_ensemble_row_reports_the_trajectory_length():
    target = std_normal(3).target
    state = hmc.init(normal_matrix(make_key(22), 5, 3), target)
    _, infos = hmc.build_kernel(0.2, 7)(key_rows(split_key(make_key(23), 5)), state, target)
    assert len(infos) == 5
    assert all(type(info) is AcceptanceInfo for info in infos)
    assert [info.num_integration_steps for info in infos] == [7] * 5
