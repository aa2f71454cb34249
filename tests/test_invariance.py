"""Kernels leave their target invariant: exact draws moved as an ensemble still follow it.

This is Geweke's "getting it right" check (JASA 99, 2004).  ``N`` exact rows
of ``aniso_gauss`` at d = 10 (variances from 1 to 100) are moved three
ensemble steps under fixed keys, and their standardised moments are compared
with the target's.  For each dimension ``x / sigma`` is standard normal, so
``mean(x / sigma)`` has standard error ``sqrt(1 / N)`` and
``mean(x**2 / sigma**2) - 1`` has ``sqrt(2 / N)``.  The bounds were fixed
before any run: the largest error over the dimensions, in those units, stays
below 4.5.  Keys are fixed, so each test is deterministic; the exact rows
themselves read about 1 to 2 units.
"""

import math

import numpy as np
import pytest

from mcbricks.core import init
from mcbricks.integrator import dense_metric, diagonal_metric
from mcbricks.mcmc import hmc, mala, rwm
from mcbricks.rng import fold_in, fold_in_range, make_key, normal_matrix
from mcbricks.targets import aniso_gauss

DIM = 10
NUM_STEPS = 3
BOUND = 4.5
_BUILTIN = aniso_gauss(DIM)
_SIGMA = np.sqrt(_BUILTIN.analytic_moments[1])


def _dense_inverse_mass():
    # The target's covariance plus a full-rank positive coupling of every pair.
    factor = normal_matrix(make_key(77), DIM, DIM)
    return np.diag(_SIGMA**2) + 0.3 * (factor @ factor.T) / DIM


# id -> (init, kernel, rows)
_KERNELS = {
    "rwm scale 1.0": (rwm.init, lambda: rwm.build_kernel(1.0), 20_000),
    "mala step 0.8": (init, lambda: mala.build_kernel(0.8), 20_000),
    "hmc 0.9 x 5 identity": (init, lambda: hmc.build_kernel(0.9, 5), 10_000),
    "hmc 0.9 x 5 diagonal": (
        init, lambda: hmc.build_kernel(0.9, 5, diagonal_metric(_SIGMA**2)), 10_000),
    "hmc 0.9 x 5 dense": (
        init, lambda: hmc.build_kernel(0.9, 5, dense_metric(_dense_inverse_mass())), 10_000),
}


def _moment_errors(rows: np.ndarray) -> tuple[float, float]:
    """Largest standardised error of the second moment and of the mean, over dimensions."""
    z = rows / _SIGMA
    n = rows.shape[0]
    second = np.max(np.abs((z * z).mean(axis=0) - 1.0)) / math.sqrt(2.0 / n)
    first = np.max(np.abs(z.mean(axis=0))) / math.sqrt(1.0 / n)
    return float(second), float(first)


@pytest.mark.parametrize("name", list(_KERNELS))
def test_exact_draws_still_follow_the_target_after_three_ensemble_steps(name):
    init_fn, build, rows = _KERNELS[name]
    kernel = build()
    target = _BUILTIN.target
    key = make_key(2027)
    state = init_fn(_SIGMA * normal_matrix(key, rows, DIM), target)
    accepted = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(NUM_STEPS):
            state, infos = kernel(fold_in_range(fold_in(key, step + 1), 0, rows), state, target)
            accepted += sum(info.accepted for info in infos)
    # The rows moved: a kernel that rejected everything would pass trivially.
    assert accepted > 0.3 * NUM_STEPS * rows
    second, first = _moment_errors(state.position)
    assert second < BOUND, (name, second)
    assert first < BOUND, (name, first)
