"""Leapfrog integration of Hamiltonian dynamics over a Euclidean metric.

The integrator is deliberately independent of any acceptance step: it maps
an :class:`IntegratorState` to another, and samplers decide what to do with
the endpoint.  Velocity Verlet is the only scheme shipped: HMC calls
:func:`trajectory`, GHMC :func:`leapfrog`, and NUTS writes the step out in
its tree loop.

The metric is the mass matrix M of the momentum distribution N(0, M),
with kinetic energy ``0.5 * p^T M^{-1} p``.  Identity and diagonal metrics
store the inverse mass as a vector; dense metrics store the full inverse
mass matrix plus a Cholesky factor of M for momentum sampling.

``kinetic_energy``, ``scale_momentum``, ``velocity``, ``total_energy``,
``leapfrog`` and ``trajectory`` also take an ensemble: positions, momenta
and gradients as ``(n, dim)`` matrices, log densities and energies as
``(n,)`` vectors.  Each row comes out bit for bit as the single-state call
on that row would give it.  :func:`sample_momentum` draws one momentum
from one key.

:func:`momentum_draw` is the one draw atom of the RWM, MALA, HMC and GHMC
kernels: per step key, standard normals and one uniform, with no metric,
so one record serves every step size and metric.  HMC and GHMC scale the
normals under their metric (:func:`scale_momentum`), as NUTS does.
:func:`kernel_draws` gives a kernel the records it moves a state or an
ensemble under, and checks the key's form against the state's rows.

``kinetic_energy`` checks the momentum against the metric; the energy
rules of the kernels skip that check on every leapfrog.  A metric meets its
target once, when an algorithm is built (:func:`check_metric`), and is
checked there.
"""
from __future__ import annotations

import math
from typing import Any, NamedTuple, Union

import numpy as np

from .core import Target, _row_dot, _row_matvec, evaluate, init
from .rng import (
    RngKey, normal_rows, normal_vector, split_key, split_key_rows, uniform, uniform_rows,
)

__all__ = [
    "Metric",
    "IntegratorState",
    "identity_metric",
    "diagonal_metric",
    "dense_metric",
    "integrator_state",
    "check_metric",
    "kinetic_energy",
    "sample_momentum",
    "scale_momentum",
    "momentum_draw",
    "kernel_draws",
    "velocity",
    "total_energy",
    "leapfrog",
    "trajectory",
]


class Metric(NamedTuple):
    """Euclidean metric: mass matrix M given through its inverse.

    ``inverse_mass`` is a length-dim vector for identity/diagonal kinds and
    a symmetric positive-definite matrix for the dense kind.
    ``mass_cholesky`` is the factor L with ``L @ L.T = M`` (a vector of
    square roots in the diagonal case), used to sample momenta.
    """

    kind: str
    inverse_mass: np.ndarray
    mass_cholesky: np.ndarray


class IntegratorState(NamedTuple):
    """Phase-space point with cached target evaluations at ``position``.

    An ensemble state stacks ``n`` points, as :class:`~mcbricks.core.GradientState` does.
    """

    position: np.ndarray
    momentum: np.ndarray
    logdensity: float
    gradient: np.ndarray


def identity_metric(dim: int) -> Metric:
    """Unit mass matrix in ``dim`` dimensions."""
    if dim < 1:
        raise ValueError("metric dimension must be at least 1")
    ones = np.ones(dim)
    return Metric("identity", ones, ones)


def diagonal_metric(inverse_mass: np.ndarray) -> Metric:
    """Diagonal mass matrix from its inverse's diagonal."""
    inverse_mass = np.asarray(inverse_mass, dtype=float)
    if inverse_mass.ndim != 1:
        raise ValueError("diagonal metric expects a vector of inverse masses")
    if not np.all(inverse_mass > 0.0):
        raise ValueError("inverse mass entries must be strictly positive")
    return Metric("diagonal", inverse_mass, 1.0 / np.sqrt(inverse_mass))


def dense_metric(inverse_mass: np.ndarray) -> Metric:
    """Dense mass matrix from its symmetric positive-definite inverse."""
    inverse_mass = np.asarray(inverse_mass, dtype=float)
    if inverse_mass.ndim != 2 or inverse_mass.shape[0] != inverse_mass.shape[1]:
        raise ValueError("dense metric expects a square matrix")
    if not np.allclose(inverse_mass, inverse_mass.T, rtol=1e-8, atol=1e-12):
        raise ValueError("inverse mass matrix must be symmetric")
    try:
        mass = np.linalg.inv(inverse_mass)
        mass = 0.5 * (mass + mass.T)
        chol = np.linalg.cholesky(mass)
    except np.linalg.LinAlgError as exc:
        raise ValueError("inverse mass matrix must be positive definite") from exc
    return Metric("dense", inverse_mass, chol)


def integrator_state(target: Target, position: np.ndarray, momentum: np.ndarray) -> IntegratorState:
    """Evaluate the target once and assemble a phase-space state."""
    position, logdensity, gradient = init(position, target)
    return IntegratorState(position, np.asarray(momentum, dtype=float), logdensity, gradient)


def _matvec(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # ``matrix @ v`` for a vector or, bit for bit, for each row of a matrix.
    return matrix @ vectors if vectors.ndim == 1 else _row_matvec(matrix, vectors)


def check_metric(metric: Metric, dim: int) -> None:
    """Raise ``ValueError`` unless ``metric`` acts on ``dim`` coordinates.

    Without this check a metric of the wrong size would broadcast silently
    against the positions it moves.
    """
    if metric.inverse_mass.shape[0] != dim:
        raise ValueError(
            f"metric dimension {metric.inverse_mass.shape[0]} does not match target dimension {dim}"
        )


def kinetic_energy(momentum: np.ndarray, metric: Metric) -> float:
    """``0.5 * p^T M^{-1} p``; non-negative for valid metrics.

    An ``(n, dim)`` matrix of momenta gives the ``(n,)`` energies of its rows.
    """
    momentum = np.asarray(momentum, dtype=float)
    if momentum.shape[-1] != metric.inverse_mass.shape[0]:
        raise ValueError("momentum and metric dimensions disagree")
    return _kinetic_energy(momentum, metric)


def _kinetic_energy(momentum: np.ndarray, metric: Metric) -> float:
    # kinetic_energy without the conversion and the dimension check: the
    # kernels' energy rule, whose momenta come from a metric checked at build.
    if momentum.ndim == 2:
        if metric.kind == "dense":
            return 0.5 * _row_dot(momentum, _row_matvec(metric.inverse_mass, momentum))
        return 0.5 * (metric.inverse_mass * momentum * momentum).sum(axis=-1)
    if metric.kind == "dense":
        return 0.5 * float(momentum @ (metric.inverse_mass @ momentum))
    return 0.5 * float(np.add.reduce(metric.inverse_mass * momentum * momentum))


def sample_momentum(key: RngKey, metric: Metric) -> np.ndarray:
    """Draw ``p ~ N(0, M)`` as ``mass_cholesky @ z`` with standard-normal z."""
    return scale_momentum(normal_vector(key, metric.inverse_mass.shape[0]), metric)


def scale_momentum(z: np.ndarray, metric: Metric) -> np.ndarray:
    """The momentum ``mass_cholesky @ z`` of standard normals ``z``, one vector or each row."""
    if metric.kind == "dense":
        return _matvec(metric.mass_cholesky, z)
    return metric.mass_cholesky * z


def velocity(momentum: np.ndarray, metric: Metric) -> np.ndarray:
    """``M^{-1} p``, the position drift rate."""
    if metric.kind == "dense":
        return _matvec(metric.inverse_mass, momentum)
    return metric.inverse_mass * momentum


def momentum_draw(keys: Union[RngKey, np.ndarray], target: Target) -> np.ndarray:
    """The draw atom of the RWM, MALA, HMC and GHMC kernels: one record per key.

    A key's record is ``target.dim`` standard normals from its first child,
    then the uniform of its second: pure randomness, which each kernel
    scales itself.  An ``(m, 2)`` key array gives ``m`` rows; one
    ``RngKey`` gives its row through the scalar functions, far cheaper than
    a one-row array draw.  A row holds ``momentum_draw.floats(dim) = dim + 1``
    values.
    """
    if isinstance(keys, np.ndarray):
        key_normal, key_uniform = split_key_rows(keys, 2).transpose(1, 0, 2)
        return np.column_stack((normal_rows(key_normal, target.dim), uniform_rows(key_uniform)))
    key_normal, key_uniform = split_key(keys, 2)
    return np.append(normal_vector(key_normal, target.dim), uniform(key_uniform))


momentum_draw.floats = lambda dim: dim + 1


def kernel_draws(key: Any, state: Any, target: Target) -> np.ndarray:
    """The :func:`momentum_draw` records a fixed kernel moves ``state`` under.

    The rows follow the state's positions.  One state (a ``(dim,)``
    position) takes an :class:`RngKey`, whose one row the atom draws with
    the scalar RNG functions (a one-row array draw costs several times a
    whole RWM step), or a ``float64`` row of ``target.dim + 1`` values,
    taken as already drawn.  An ensemble of ``n`` states (``(n, dim)``
    positions) takes an ``(n, 2)`` ``uint64`` key array and gets one row
    per key, a 2-D array.  Anything else raises a ``TypeError`` naming the
    expected and the given shape: a ``uint64`` key row, for one, is a key
    and not randomness, and a key array of another length would move the
    rows under the wrong randomness.
    """
    rows = state.position.shape[:-1]
    if rows:
        if isinstance(key, np.ndarray) and key.dtype == np.uint64 and key.shape == (*rows, 2):
            return momentum_draw(key, target)
        expected = f"a uint64 key array of shape {(*rows, 2)} for an ensemble of {rows[0]} states"
    elif not isinstance(key, np.ndarray):
        return momentum_draw(key, target)
    elif key.dtype == np.float64 and key.shape == (target.dim + 1,):
        return key
    else:
        expected = f"an RngKey or a float64 row of {target.dim + 1} pre-drawn values for one state"
    given = (f"a {key.dtype} array of shape {key.shape}" if isinstance(key, np.ndarray)
             else f"a key of type {type(key).__name__}")
    raise TypeError(f"kernel key must be {expected}, not {given}")


def total_energy(state: IntegratorState, metric: Metric) -> float:
    """Hamiltonian ``H(q, p) = -logdensity(q) + kinetic(p)``.

    Any non-finite energy (a position outside the support, a NaN density,
    an overflowing or NaN momentum) comes back as ``+inf``, which every
    acceptance rule treats as a certain rejection.  An ensemble state gives
    the ``(n,)`` energies of its rows under the same rule.
    """
    energy = -state.logdensity + _kinetic_energy(state.momentum, metric)
    if isinstance(energy, np.ndarray):
        energy[~np.isfinite(energy)] = math.inf
        return energy
    return energy if math.isfinite(energy) else math.inf


def leapfrog(
    state: IntegratorState,
    step_size: float,
    metric: Metric,
    target: Target,
) -> IntegratorState:
    """One velocity-Verlet step: half kick, drift, half kick.

    Costs one fresh gradient evaluation; the incoming state's cached
    gradient supplies the first half kick.  An ensemble state moves every
    row, evaluating the target through :func:`~mcbricks.core.evaluate`, a
    block at a time through a row form's own pair and row by row
    otherwise.  Non-finite values propagate to
    the returned state and are absorbed by the acceptance atoms downstream,
    so overflow here is expected behaviour, not worth a warning.  The caller
    owns ``np.errstate``: the drivers (``run_chain``, the SMC mutation loop,
    ``window_adaptation``, ``find_reasonable_step_size``) silence overflow
    and invalid-value warnings once around their loops rather than once per
    step here.
    """
    half = 0.5 * step_size
    p_half = state.momentum + half * state.gradient
    position = state.position + step_size * velocity(p_half, metric)
    logdensity, gradient = evaluate(position, target.logdensity, target.gradient)
    momentum = p_half + half * gradient
    return IntegratorState(position, momentum, logdensity, gradient)


def trajectory(
    state: IntegratorState,
    step_size: float,
    metric: Metric,
    target: Target,
    num_steps: int,
) -> IntegratorState:
    """``num_steps`` leapfrog steps composed."""
    if num_steps < 1:
        raise ValueError("trajectory needs at least one step")
    for _ in range(num_steps):
        state = leapfrog(state, step_size, metric, target)
    return state
