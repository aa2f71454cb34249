"""Quick invariant suite behind the ``selftest`` subcommand.

Each check is cheap (the whole suite runs in seconds) and exercises one
structural guarantee: stream purity, gradient consistency, integrator
reversibility, schedule bookkeeping, estimator agreement, resampler
counts, the draw atoms of the kernels, and kernel repeatability.
Failures print a reason and flip the exit code to 1; they do not stop
later checks.
"""

from __future__ import annotations

import math

import numpy as np

from .adaptation import (
    build_schedule,
    da_init,
    da_update,
    welford_finalize,
    welford_init,
    welford_update,
)
from .core import gradient_discrepancy, run_chain
from .integrator import identity_metric, integrator_state, leapfrog, momentum_draw, total_energy
from .mcmc import ghmc, hmc, mala, nuts, rwm
from .rng import (
    fold_in, fold_in_range, key_rows, make_key, normal_vector, split_key, uniform, uniform_vector,
)
from .sgmcmc import make_gradient_estimator, sghmc_algorithm, sgld_algorithm
from .smc.resampling import resample, RESAMPLING_METHODS
from .targets import MCMC_TARGET_NAMES, TARGETS, make_builtin

__all__ = ["run_selftest"]


def _check_rng() -> None:
    key = make_key(20240601)
    draws = uniform_vector(key, 4096)
    assert np.array_equal(draws, uniform_vector(key, 4096)), "uniform draw not pure"
    assert np.all(draws >= 0.0) and np.all(draws < 1.0), "uniform out of [0, 1)"
    children = split_key(key, 8)
    assert len({(c.hi, c.lo) for c in children}) == 8, "split produced duplicate keys"
    for index, child in enumerate(children):
        assert fold_in(key, index) == child, "fold_in disagrees with split_key"
    # Literal stream values: saved runs replay only while these hold.
    assert children[7] == (7515637237872870611, 8245129402367735524), "split_key stream changed"
    assert split_key(key, 9)[8] == (13639656520806062074, 4058633446723297223), \
        "split_key stream changed"
    assert fold_in(key, 10**6) == (732649399640202656, 16613062456869360582), \
        "fold_in stream changed"
    for start, stop in ((255, 258), (10**6, 10**6 + 1)):
        assert fold_in_range(key, start, stop).tolist() == [
            list(fold_in(key, i)) for i in range(start, stop)
        ], "fold_in_range disagrees with fold_in"
    assert uniform(key) * 2**53 == 3367637147800791, "uniform stream changed"
    normals = normal_vector(key, 4096)
    assert abs(float(np.mean(normals))) < 0.1, "normal sample mean implausible"


def _check_gradients() -> None:
    key = make_key(7)
    for name in MCMC_TARGET_NAMES:
        dim = TARGETS[name].default_dim if TARGETS[name].fixed_dim else 3
        builtin = make_builtin(name, dim, data_key=fold_in(key, 99))
        worst = gradient_discrepancy(builtin.target, fold_in(key, 1), num_points=25)
        assert worst < 1e-4, f"{name} gradient mismatch {worst:.3g}"


def _check_leapfrog() -> None:
    target = make_builtin("aniso_gauss", 3).target
    metric = identity_metric(3)
    key = make_key(11)
    position = normal_vector(fold_in(key, 0), 3)
    momentum = normal_vector(fold_in(key, 1), 3)
    state = integrator_state(target, position, momentum)
    forward = leapfrog(state, 0.05, metric, target)
    back = leapfrog(forward._replace(momentum=-forward.momentum), 0.05, metric, target)
    assert np.allclose(back.position, position, atol=1e-10), "leapfrog not reversible"
    assert np.allclose(-back.momentum, momentum, atol=1e-10), "leapfrog not reversible"
    drift = abs(total_energy(forward, metric) - total_energy(state, metric))
    assert drift < 0.05, f"leapfrog energy drift {drift:.3g}"


def _check_schedule() -> None:
    stages = build_schedule(1000).stages
    assert sum(w for _, w in stages) == 1000, "schedule does not sum to budget"
    assert stages[0] == ("fast", 75) and stages[-1] == ("fast", 50), "schedule shape"
    slow = [w for kind, w in stages if kind == "slow"]
    assert slow == [25, 50, 100, 200, 500], f"slow windows {slow}"


def _check_welford() -> None:
    key = make_key(23)
    samples = np.column_stack([
        normal_vector(fold_in(key, 0), 64) * 2.0,
        normal_vector(fold_in(key, 1), 64) + 1.0,
    ])
    state = welford_init(2, "dense")
    for row in samples:
        state = welford_update(state, row)
    raw = welford_finalize(state, regularize=False).inverse_mass
    assert np.allclose(raw, np.cov(samples.T), atol=1e-12), "welford vs two-pass"


def _check_resamplers() -> None:
    key = make_key(31)
    log_weights = np.full(16, -math.inf)
    log_weights[5] = 0.0
    for method in RESAMPLING_METHODS:
        indices = resample(fold_in(key, 1), log_weights, 16, method)
        assert np.all(indices == 5), f"{method} ignores a one-hot weight"


def _check_kernels() -> None:
    target = make_builtin("std_normal", 2).target
    key = make_key(47)
    estimator = make_gradient_estimator(
        target.gradient, lambda q, row: np.zeros_like(q), 0, 0
    )
    algorithms = [
        rwm.as_algorithm(target, 0.5),
        mala.as_algorithm(target, 0.1),
        hmc.as_algorithm(target, 0.2, 5),
        ghmc.as_algorithm(target, 0.2, 0.9),
        nuts.as_algorithm(target, 0.2),
        sgld_algorithm(estimator, 0.01),
        sghmc_algorithm(estimator, 0.01, 0.5),
    ]
    # The draw atom of RWM, MALA, HMC and GHMC: the key's first child's
    # normals, then its second child's uniform.
    row = momentum_draw(key, target).tobytes()
    key_normal, key_uniform = split_key(key, 2)
    assert row == np.append(normal_vector(key_normal, 2), uniform(key_uniform)).tobytes(), \
        "draw atom row changed"
    assert momentum_draw(key_rows([key]), target)[0].tobytes() == row, "draw atom key array"
    for algorithm in algorithms[:4]:
        assert algorithm.step.draw(key).tobytes() == row, "kernel left the shared draw atom"
    position = np.array([0.25, -0.5])
    # NUTS: a key's record from a block of keys is its single-key record,
    # and a step under that record is the step under the key.
    record = algorithms[4].step.draw(key)
    block_record = algorithms[4].step.draw(key_rows([fold_in(key, 1), key]))[1]
    assert [np.asarray(f).tobytes() for f in block_record] == \
        [np.asarray(f).tobytes() for f in record], "NUTS record differs within a block"
    state = algorithms[4].init(position)
    by_key, by_record = algorithms[4].step(key, state), algorithms[4].step(block_record, state)
    assert by_key[0].position.tobytes() == by_record[0].position.tobytes() and \
        by_key[1] == by_record[1], "NUTS step under its record differs from the keyed step"
    for algorithm in algorithms:
        state = algorithm.init(position)
        first, _ = algorithm.step(fold_in(key, 3), state)
        second, _ = algorithm.step(fold_in(key, 3), state)
        assert np.array_equal(
            np.asarray(first.position), np.asarray(second.position)
        ), "kernel step not pure"


def _check_dual_averaging() -> None:
    state = da_init(0.5)
    for _ in range(200):
        state = da_update(state, 0.8, 0.8)
    assert abs(state.log_step - math.log(5.0)) < 1e-9, "on-target updates must home on mu"


def _check_chain_runner() -> None:
    target = make_builtin("std_normal", 1).target
    algorithm = rwm.as_algorithm(target, 1.0)
    key = make_key(53)
    final, infos, positions = run_chain(key, algorithm.step, algorithm.init(np.zeros(1)), 50)
    assert positions.shape == (50, 1), "position trace shape"
    assert len(infos) == 50, "info trace length"
    assert np.array_equal(positions[-1], np.asarray(final.position)), "final state mismatch"


CHECKS = (
    ("rng streams", _check_rng),
    ("target gradients", _check_gradients),
    ("leapfrog reversibility", _check_leapfrog),
    ("warmup schedule", _check_schedule),
    ("welford estimator", _check_welford),
    ("resampler one-hot", _check_resamplers),
    ("kernel purity", _check_kernels),
    ("dual averaging", _check_dual_averaging),
    ("chain runner", _check_chain_runner),
)


def run_selftest() -> int:
    """Run every check, print one line each, return 0 only if all pass."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive reporting
            failures += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
        return 1
    print(f"all {len(CHECKS)} checks passed")
    return 0
