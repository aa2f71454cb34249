"""The ensemble path against the single-state path, row by row and bit for bit.

SMC moves its particle cloud as one ensemble: key arrays with one key per
row, ``(n, dim)`` states, and kernels that step every row at once.  Row i
must come out exactly as the single-state function gives it for key i and
state i, so these properties compare bytes, never tolerances.  The same
holds for a kernel's draw atom: the move under row i of its draws is the
move under key i.
"""

import dataclasses
import functools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcbricks.core import (
    GradientState, Target, evaluate, evaluate_rows, fused_callables, init, run_chain,
)
from mcbricks.integrator import dense_metric, diagonal_metric
from mcbricks.mcmc import ghmc, hmc, mala, nuts, rwm
from mcbricks.rng import (
    RngKey,
    fold_in,
    fold_in_rows,
    key_rows,
    make_key,
    normal_matrix,
    normal_rows,
    normal_vector,
    split_key,
    split_key_rows,
    uniform,
    uniform_rows,
)
from mcbricks.smc.resampling import ess, resample
from mcbricks.smc.tempering import (
    adaptive_next_lambda,
    init_ensemble,
    reweight,
    run_tempered_smc,
    smc_step,
)
from mcbricks.targets import make_builtin, make_tempered, std_normal
from mcbricks.vi import adam, meanfield_vi

_WORD = st.integers(0, 2**64 - 1)
_KEY = st.builds(RngKey, _WORD, _WORD)
_KEYS = st.lists(_KEY, min_size=1, max_size=12)


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


# ------------------------------------------------------------- key rows


def test_key_rows_round_trip_and_shape_check():
    keys = split_key(make_key(3), 5)
    rows = key_rows(keys)
    assert rows.dtype == np.uint64 and rows.shape == (5, 2)
    assert [RngKey(int(hi), int(lo)) for hi, lo in rows] == keys
    with pytest.raises(ValueError):
        key_rows([])


@settings(max_examples=150, deadline=None)
@given(keys=_KEYS, num=st.integers(1, 130))
@example(keys=[RngKey(0, 0), RngKey(2**64 - 1, 2**64 - 1)], num=8)
@example(keys=[RngKey(0, 0), RngKey(2**64 - 1, 2**64 - 1)], num=9)
def test_split_key_rows_match_split_key(keys, num):
    children = split_key_rows(key_rows(keys), num)
    assert children.shape == (len(keys), num, 2)
    for key, row in zip(keys, children):
        assert [RngKey(int(hi), int(lo)) for hi, lo in row] == split_key(key, num)


@settings(max_examples=150, deadline=None)
@given(keys=_KEYS, index=st.integers(0, 10**6))
def test_fold_in_rows_match_fold_in(keys, index):
    children = fold_in_rows(key_rows(keys), index)
    assert children.shape == (len(keys), 2)
    for key, (hi, lo) in zip(keys, children):
        assert RngKey(int(hi), int(lo)) == fold_in(key, index)


@settings(max_examples=150, deadline=None)
@given(keys=_KEYS)
def test_uniform_rows_match_uniform(keys):
    draws = uniform_rows(key_rows(keys))
    assert [_bits(u) for u in draws] == [_bits(uniform(key)) for key in keys]


@settings(max_examples=200, deadline=None)
@given(keys=_KEYS, num=st.integers(0, 130))
@example(keys=[RngKey(1, 2)] * 3, num=1)
@example(keys=[RngKey(1, 2), RngKey(3, 4)], num=2)
def test_normal_rows_match_normal_vector(keys, num):
    draws = normal_rows(key_rows(keys), num)
    assert draws.shape == (len(keys), num)
    for key, row in zip(keys, draws):
        assert row.tobytes() == normal_vector(key, num).tobytes()


def test_row_functions_reject_what_the_scalar_functions_reject():
    rows = key_rows([make_key(1)])
    with pytest.raises(ValueError):
        split_key_rows(rows, 0)
    with pytest.raises(ValueError):
        fold_in_rows(rows, -1)
    with pytest.raises(ValueError):
        normal_rows(rows, -1)


# ------------------------------------------------------------- row evaluation


def test_evaluate_rows_asks_each_row_for_density_then_gradient():
    calls = []

    def logdensity(x):
        calls.append(("density", float(x[0])))
        return -0.5 * float(x @ x)

    def gradient(x):
        calls.append(("gradient", float(x[0])))
        return -x

    positions = np.arange(6.0).reshape(3, 2)
    densities, gradients = evaluate_rows(positions, logdensity, gradient)
    assert calls == [(kind, row) for row in (0.0, 2.0, 4.0) for kind in ("density", "gradient")]
    np.testing.assert_array_equal(densities, [-0.5, -6.5, -20.5])
    np.testing.assert_array_equal(gradients, -positions)
    only, none = evaluate_rows(positions, logdensity)
    assert none is None and only.tolist() == densities.tolist()


def test_a_row_form_that_does_not_own_the_pair_is_never_called():
    calls = []

    def logdensity(x):
        calls.append(("density", float(x[0])))
        return -0.5 * float(x @ x)

    def gradient(x):
        calls.append(("gradient", float(x[0])))
        return -x

    def rows(block, with_gradient):
        calls.append(("rows", with_gradient))

    positions = np.arange(6.0).reshape(3, 2)
    logdensity.rows = rows
    # A row form naming no pair, then one naming another pair.
    for owner in (None, (lambda x: 0.0, lambda x: x)):
        if owner is not None:
            rows.callables = owner
        calls.clear()
        densities, _ = evaluate_rows(positions, logdensity, gradient)
        assert calls == [(kind, row) for row in (0.0, 2.0, 4.0) for kind in ("density", "gradient")]
        np.testing.assert_array_equal(densities, [-0.5, -6.5, -20.5])
        calls.clear()
        evaluate_rows(positions, logdensity)
        assert calls == [("density", row) for row in (0.0, 2.0, 4.0)]
        calls.clear()
        evaluate(positions[1], logdensity, gradient)
        assert calls == [("density", 2.0), ("gradient", 2.0)]


def test_the_row_forms_own_pair_is_evaluated_a_block_at_a_time_and_a_wrapper_row_by_row():
    calls = []

    def logdensity(x):
        calls.append("density")
        return -0.5 * float(x @ x)

    def gradient(x):
        calls.append("gradient")
        return -x

    def rows(block, with_gradient):
        calls.append(("rows", with_gradient))
        return -0.5 * np.einsum("ij,ij->i", block, block), -block if with_gradient else None

    rows.callables, logdensity.rows = (logdensity, gradient), rows
    positions = np.arange(6.0).reshape(3, 2)
    densities, gradients = evaluate_rows(positions, logdensity, gradient)
    assert calls == [("rows", True)]
    np.testing.assert_array_equal(densities, [-0.5, -6.5, -20.5])
    np.testing.assert_array_equal(gradients, -positions)
    calls.clear()
    assert evaluate_rows(positions, logdensity)[1] is None and calls == [("rows", False)]
    calls.clear()
    assert evaluate(positions[1], logdensity, gradient)[0] == -6.5 and calls == [("rows", True)]

    # A wrapper carries the row form it copies, but is not the pair it names.
    wrapped = functools.wraps(logdensity)(lambda x: logdensity(x))
    assert wrapped.rows is rows
    for other, other_gradient in ((wrapped, gradient), (logdensity, lambda x: gradient(x))):
        calls.clear()
        evaluate_rows(positions, other, other_gradient)
        assert calls == ["density", "gradient"] * 3
        calls.clear()
        evaluate(positions[1], other, other_gradient)
        assert calls == ["density", "gradient"]


# ------------------------------------------------------------- kernels


def _walled_gaussian(dim: int) -> Target:
    """Standard normal whose density is NaN beyond x[0] = 1.5, -inf below -2.5."""

    def logdensity(x):
        if x[0] > 1.5:
            return math.nan
        if x[0] < -2.5:
            return -math.inf
        return -0.5 * float(x @ x)

    def gradient(x):
        return -x if x[0] <= 1.5 else np.full(dim, math.nan)

    return Target(dim, logdensity, gradient)


def _tempered_logistic(dim: int) -> Target:
    tempered, _ = make_tempered("logistic_synth", 5, make_key(4))
    return tempered.at_temperature(0.37)


_TARGETS = {
    "std_normal": lambda dim: std_normal(dim).target,
    "walled": _walled_gaussian,
    "logistic": _tempered_logistic,
}


def _metric(kind: str, dim: int, seed: int):
    if kind == "identity":
        return None
    scales = 0.5 + np.abs(normal_vector(make_key(seed), dim))
    if kind == "diagonal":
        return diagonal_metric(scales)
    factor = normal_matrix(make_key(seed + 1), dim, dim)
    return dense_metric(factor @ factor.T + dim * np.eye(dim))


@st.composite
def _cases(draw):
    target_name = draw(st.sampled_from(sorted(_TARGETS)))
    dim = 5 if target_name == "logistic" else draw(st.integers(1, 6))
    num = draw(st.integers(1, 9))
    spread = draw(st.sampled_from([0.3, 1.0, 3.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    positions = spread * normal_matrix(make_key(seed), num, dim)
    keys = [draw(_KEY) for _ in range(num)]
    step = draw(st.one_of(st.floats(1e-3, 2.0), st.sampled_from([1e200, 1e-300])))
    return _TARGETS[target_name](dim), positions, keys, step, seed


def _build(family: str, step: float, metric_kind: str, num_steps: int, dim: int, seed: int,
           jitter: float = 0.0):
    if family == "rwm":
        return rwm.init, rwm.build_kernel(step)
    if family == "mala":
        return init, mala.build_kernel(step)
    metric = _metric(metric_kind, dim, seed)
    if family == "ghmc":
        # A moving start: non-zero momentum and a slice away from the middle.
        def ghmc_init(position, target):
            return ghmc.init(position, target, np.cos(position), (seed % 1999) / 1000.0 - 0.999)

        return ghmc_init, ghmc.build_kernel(step, 0.5 + 0.1 * num_steps, metric, jitter)
    return init, hmc.build_kernel(step, num_steps, metric)


def _row(ensemble, i):
    return type(ensemble)(*(field[i] for field in ensemble))


def _assert_same_state(row_state, state):
    for field, value in zip(state._fields, state):
        row_value = getattr(row_state, field)
        if np.ndim(value) == 0:
            assert _bits(row_value) == _bits(value), field
        else:
            assert np.asarray(row_value).tobytes() == np.asarray(value).tobytes(), field


def _assert_same_info(row_info, info):
    assert type(row_info) is type(info)
    for field, value in zip(info._fields, info):
        row_value = getattr(row_info, field)
        assert type(row_value) is type(value), field
        if isinstance(value, float):
            assert _bits(row_value) == _bits(value), field
        else:
            assert row_value == value, field


@settings(max_examples=120, deadline=None)
@given(
    case=_cases(),
    family=st.sampled_from(["rwm", "mala", "hmc"]),
    metric_kind=st.sampled_from(["identity", "diagonal", "dense"]),
    num_steps=st.integers(1, 4),
)
def test_ensemble_kernel_matches_the_single_state_kernel(case, family, metric_kind, num_steps):
    target, positions, keys, step, seed = case
    init_fn, kernel = _build(family, step, metric_kind, num_steps, target.dim, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The drivers' setting: kernels absorb overflow and invalid values.
        with np.errstate(over="ignore", invalid="ignore"):
            ensemble = init_fn(positions, target)
            stepped, infos = kernel(key_rows(keys), ensemble, target)
            assert len(infos) == len(keys)
            for i, key in enumerate(keys):
                state = init_fn(positions[i].copy(), target)
                _assert_same_state(_row(ensemble, i), state)
                moved, info = kernel(key, state, target)
                _assert_same_state(_row(stepped, i), moved)
                _assert_same_info(infos[i], info)


@settings(max_examples=150, deadline=None)
@given(
    case=_cases(),
    family=st.sampled_from(["rwm", "mala", "hmc", "ghmc"]),
    metric_kind=st.sampled_from(["identity", "diagonal", "dense"]),
    num_steps=st.integers(1, 4),
    jitter=st.sampled_from([0.0, 0.5]),
)
def test_pre_drawn_row_moves_exactly_as_its_key(case, family, metric_kind, num_steps, jitter):
    target, positions, keys, step, seed = case
    init_fn, kernel = _build(family, step, metric_kind, num_steps, target.dim, seed, jitter)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            rows = kernel.draw(key_rows(keys), target)
            assert rows.shape == (len(keys), target.dim + 1)
            for i, key in enumerate(keys):
                # Every atom draws its row from the key's two children with the
                # scalar functions' streams: normals, then a uniform.
                key_lead, key_uniform = split_key(key, 2)
                assert rows[i, :-1].tobytes() == normal_vector(key_lead, target.dim).tobytes()
                assert _bits(rows[i, -1]) == _bits(uniform(key_uniform))
                assert kernel.draw(key, target).tobytes() == rows[i].tobytes()
                state = init_fn(positions[i].copy(), target)
                moved, info = kernel(key, state, target)
                row_moved, row_info = kernel(rows[i], state, target)
                _assert_same_state(row_moved, moved)
                _assert_same_info(row_info, info)


@pytest.mark.parametrize("family", ["rwm", "mala", "hmc", "ghmc"])
def test_kernel_rejects_a_key_array_that_is_not_its_randomness(family):
    target = std_normal(3).target
    init_fn, kernel = _build(family, 0.3, "identity", 2, target.dim, 7)
    state = init_fn(np.zeros(target.dim), target)
    keys = key_rows([make_key(1), make_key(2)])
    bad = [keys[0], keys.astype(float)[0], np.zeros(target.dim), np.zeros((1, target.dim + 1))]
    if family == "ghmc":
        bad.append(keys)  # GHMC has no ensemble path
    for key in bad:
        with pytest.raises(TypeError, match="kernel key must be"):
            kernel(key, state, target)


@pytest.mark.parametrize("family", ["rwm", "mala", "hmc", "ghmc"])
def test_kernel_rejects_a_key_that_does_not_match_the_rows_of_its_state(family):
    # One row of randomness per row of the state: a key array of another
    # length, or a key of the other form, would move the rows under the
    # wrong randomness, so it raises instead.
    target = std_normal(3).target
    init_fn, kernel = _build(family, 0.3, "identity", 2, target.dim, 7)
    positions = np.linspace(-1.0, 1.0, 5 * target.dim).reshape(5, target.dim)
    ensemble, one = init_fn(positions, target), init_fn(positions[0], target)
    keys = key_rows(split_key(make_key(3), 5))
    bad = [(keys[:1], ensemble), (keys[:4], ensemble), (keys[:2], one), (make_key(3), ensemble)]
    if family == "ghmc":
        bad.append((keys, ensemble))  # GHMC steps one state only
    else:
        assert kernel(keys, ensemble, target)[0].position.shape == positions.shape
    for key, state in bad:
        with pytest.raises(TypeError, match="kernel key must be") as raised:
            kernel(key, state, target)
        message = str(raised.value)
        if state is one or family == "ghmc":
            assert f"float64 row of {target.dim + 1}" in message
        else:
            assert "key array of shape (5, 2)" in message
        if state is one or family != "ghmc":
            given = key.shape if isinstance(key, np.ndarray) else type(key).__name__
            assert str(given) in message
        else:
            assert str(positions.shape) in message


# ------------------------------------------------------------- smc_step


def _per_particle_smc_step(key, ensemble, tempered, mutation, num_mutation_steps):
    """The stage as a loop over particles, each moved by the single-state kernel."""
    particles = ensemble.particles
    num = particles.shape[0]
    log_likelihoods = np.array([float(tempered.log_likelihood(p)) for p in particles])
    new_lambda = adaptive_next_lambda(ensemble, log_likelihoods)
    reweighted = reweight(ensemble, log_likelihoods, new_lambda)
    key_resample, key_mutate = split_key(key, 2)
    ancestors = resample(key_resample, reweighted.log_weights, num, "systematic")
    mutated = reweighted.particles[ancestors].copy()
    algorithm = mutation(tempered.at_temperature(new_lambda))
    p_accepts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, particle_key in enumerate(split_key(key_mutate, num)):
            state = algorithm.init(mutated[i])
            for j in range(num_mutation_steps):
                state, info = algorithm.step(fold_in(particle_key, j), state)
                p_accepts.append(info.p_accept)
            mutated[i] = state.position
    return mutated, new_lambda, ess(reweighted.log_weights), reweighted.log_z, p_accepts


@pytest.mark.parametrize("mutation", [
    lambda t: rwm.as_algorithm(t, 0.6),
    lambda t: mala.as_algorithm(t, 0.05),
    lambda t: hmc.as_algorithm(t, 0.1, 5),
    lambda t: hmc.as_algorithm(t, 1e200, 2),
], ids=["rwm", "mala", "hmc", "hmc-overflow"])
@pytest.mark.parametrize("target_name, dim", [("gauss_conjugate", 1), ("gauss_conjugate", 12),
                                              ("logistic_synth", 5)])
def test_smc_step_moves_each_particle_as_a_per_particle_loop_would(mutation, target_name, dim):
    tempered, _ = make_tempered(target_name, dim, make_key(8))
    ensemble = init_ensemble(normal_matrix(make_key(9), 40, dim))
    key = make_key(10)
    stepped, info = smc_step(key, ensemble, tempered, mutation, num_mutation_steps=3)
    particles, lmbda, stage_ess, log_z, p_accepts = _per_particle_smc_step(
        key, ensemble, tempered, mutation, 3
    )
    assert stepped.particles.tobytes() == particles.tobytes()
    assert (info.lmbda, info.ess, stepped.log_z) == (lmbda, stage_ess, log_z)
    # Exactly rounded: the same mean for the particle-major order of the loop
    # and for any other order.
    assert info.mean_acceptance == math.fsum(p_accepts) / len(p_accepts)
    assert info.mean_acceptance == math.fsum(reversed(p_accepts)) / len(p_accepts)
    assert info.log_z_increment == log_z - ensemble.log_z == log_z


def test_smc_step_hands_the_mutation_the_particle_matrix_and_one_key_per_row():
    tempered, _ = make_tempered("gauss_conjugate", 2, make_key(1))
    ensemble = init_ensemble(normal_matrix(make_key(2), 16, 2))
    seen = []

    def mutation(target):
        algorithm = rwm.as_algorithm(target, 0.5)

        def step(keys, state):
            seen.append((keys.shape, keys.dtype, state.position.shape))
            return algorithm.step(keys, state)

        return algorithm._replace(step=step)

    smc_step(make_key(3), ensemble, tempered, mutation, num_mutation_steps=2)
    assert seen == [((16, 2), np.uint64, (16, 2))] * 2


def test_ensemble_state_rows_are_what_init_gives_each_row():
    target = _tempered_logistic(5)
    positions = normal_matrix(make_key(6), 7, 5)
    ensemble = init(positions, target)
    assert isinstance(ensemble, GradientState)
    for i in range(7):
        _assert_same_state(_row(ensemble, i), init(positions[i].copy(), target))


# ------------------------------------------------------------- wrapped callables


def _pass_through(fn):
    @functools.wraps(fn)
    def passed(x):
        return fn(x)

    return passed


def test_runs_through_wrapped_callables_have_the_bits_of_the_block_path():
    """Wrappers send every row through the per-row loop; a run must not see it.

    A run whose target callables are each wrapped, as an evaluation counter
    wraps them, takes the per-row loop where the plain run evaluates whole
    blocks through the row forms.  Both runs must agree in every bit.
    """
    key_data, key_run = split_key(make_key(21), 2)
    tempered, _ = make_tempered("logistic_synth", 5, key_data)
    fields = ("log_prior", "grad_prior", "log_likelihood", "grad_likelihood")
    wrapped = dataclasses.replace(
        tempered, **{field: _pass_through(getattr(tempered, field)) for field in fields}
    )

    def smc(tempered_target):
        return run_tempered_smc(
            key_run, tempered_target, lambda key, n: normal_matrix(key, n, 5), 50,
            lambda target: hmc.as_algorithm(target, step_size=0.1, num_integration_steps=5),
            num_mutation_steps=2,
        )

    plain, loop = smc(tempered), smc(wrapped)
    assert plain.ensemble.particles.tobytes() == loop.ensemble.particles.tobytes()
    assert _bits(plain.log_z) == _bits(loop.log_z)
    assert np.array(plain.ladder).tobytes() == np.array(loop.ladder).tobytes()

    target = make_builtin("logistic_synth", 5, key_data).target
    wrapped_target = Target(5, _pass_through(target.logdensity), _pass_through(target.gradient))

    def vi(vi_target):
        algorithm = meanfield_vi(vi_target, adam(0.05), num_samples=16)
        state, elbos = algorithm.init(np.zeros(5)), []
        for t in range(100):
            state, info = algorithm.step(fold_in(key_run, t), state)
            elbos.append(info.elbo)
        return np.array(elbos), state

    (plain_elbos, plain_state), (loop_elbos, loop_state) = vi(target), vi(wrapped_target)
    assert plain_elbos.tobytes() == loop_elbos.tobytes()
    assert plain_state.mu.tobytes() == loop_state.mu.tobytes()
    assert plain_state.log_sigma.tobytes() == loop_state.log_sigma.tobytes()


def _spied_logistic(key, calls):
    """``logistic_synth`` rebuilt on its own row form, logging ``(rows, with_gradient)`` per body call."""
    target = make_builtin("logistic_synth", 5, key).target

    def body(positions, with_gradient):
        calls.append((positions.shape[0], with_gradient))
        return target.logdensity.rows(positions, with_gradient)

    return Target(5, *fused_callables(body))


def test_a_per_position_density_asks_its_body_for_no_gradient():
    calls = []
    target = _spied_logistic(make_key(22), calls)
    x = normal_vector(make_key(23), 5)
    target.logdensity(x)
    assert calls == [(1, False)]
    target.gradient(x)
    assert calls == [(1, False), (1, True)]


def test_a_nuts_leaf_calls_the_row_form_once_with_its_gradient():
    calls = []
    target = _spied_logistic(make_key(24), calls)
    kernel = nuts.build_kernel(step_size=0.1, max_depth=4)
    state = nuts.init(np.zeros(5), target)
    assert calls == [(1, True)]
    for i in range(5):
        calls.clear()
        state, info = kernel(fold_in(make_key(25), i), state, target)
        assert info.num_integration_steps > 0
        assert calls == [(1, True)] * info.num_integration_steps


def test_a_nuts_chain_through_wrapped_callables_has_the_bits_of_the_plain_chain():
    target = make_builtin("logistic_synth", 5, make_key(26)).target
    wrapped = Target(5, _pass_through(target.logdensity), _pass_through(target.gradient))

    def chain(chain_target):
        algorithm = nuts.as_algorithm(chain_target, step_size=0.2)
        return run_chain(make_key(27), algorithm.step, algorithm.init(np.zeros(5)), 30)

    (plain_state, plain_infos, plain), (loop_state, loop_infos, loop) = chain(target), chain(wrapped)
    assert plain.tobytes() == loop.tobytes()
    assert plain_infos == loop_infos
    assert plain_state.gradient.tobytes() == loop_state.gradient.tobytes()
    assert _bits(plain_state.logdensity) == _bits(loop_state.logdensity)
