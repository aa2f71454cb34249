"""Adaptive tempered SMC: reweight, resample, mutate.

The sampler walks an inverse-temperature ladder from the prior (lambda 0)
to the posterior (lambda 1).  Each stage picks the next lambda by
bisection so the reweighted ensemble keeps a target effective sample size,
accumulates the normalizing-constant increment, resamples, and then moves
every particle independently with a user-chosen MCMC mutation kernel
targeting the tempered density.  Mutation hyperparameters are fixed for
the whole run; the kernels themselves never adapt inside SMC.

The particle cloud moves as one ensemble, the NumPy counterpart of mapping
a single-chain kernel over particles with ``vmap``: the mutation's ``init``
takes the whole ``(n, dim)`` particle matrix and its ``step`` one key per
row, and particle i gets exactly the moves the single-state kernel would
give it under key i.  The built-in RWM, MALA and HMC kernels do this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..core import SamplingAlgorithm, Target, _owns, _row_form, evaluate_rows
from ..rng import RngKey, fold_in, fold_in_rows, key_rows, split_key
from .resampling import _logsumexp, ess, resample

__all__ = [
    "ParticleEnsemble",
    "TemperedTarget",
    "SmcInfo",
    "SmcStagnationError",
    "init_ensemble",
    "reweight",
    "adaptive_next_lambda",
    "check_settings",
    "smc_step",
    "run_tempered_smc",
    "TemperedSmcResult",
]


class ParticleEnsemble(NamedTuple):
    """Weighted particles at one ladder position.

    ``log_weights`` are un-normalized; ``log_z`` accumulates the estimate
    of ``log(Z_lambda / Z_0)`` across reweighting steps.
    """

    particles: np.ndarray
    log_weights: np.ndarray
    lmbda: float
    log_z: float


@dataclass(frozen=True)
class TemperedTarget:
    """Prior/likelihood split defining the tempered path.

    The density at inverse temperature lambda is
    ``log_prior(x) + lambda * log_likelihood(x)``, with gradients summing
    the two contributions the same way.
    """

    dim: int
    log_prior: Callable[[np.ndarray], float]
    grad_prior: Callable[[np.ndarray], np.ndarray]
    log_likelihood: Callable[[np.ndarray], float]
    grad_likelihood: Callable[[np.ndarray], np.ndarray]

    def at_temperature(self, lmbda: float) -> Target:
        """The tempered density as an ordinary MCMC target.

        When the prior and the likelihood each carry a row form of their own
        (see :func:`mcbricks.core.fused_callables`), the target gets a row
        form of its own too: the prior's rows plus ``lmbda`` times the
        likelihood's, the arithmetic of the per-position closures, so
        :func:`~mcbricks.core.evaluate_rows` evaluates a block in one call.
        Otherwise the target has no row form, and its closures are called
        once per position.
        """
        if not 0.0 <= lmbda <= 1.0:
            raise ValueError("inverse temperature must lie in [0, 1]")

        def logdensity(x: np.ndarray) -> float:
            return float(self.log_prior(x)) + lmbda * float(self.log_likelihood(x))

        def gradient(x: np.ndarray) -> np.ndarray:
            return np.asarray(self.grad_prior(x), dtype=float) + lmbda * np.asarray(
                self.grad_likelihood(x), dtype=float
            )

        prior_rows = getattr(self.log_prior, "rows", None)
        likelihood_rows = getattr(self.log_likelihood, "rows", None)
        if _owns(prior_rows, self.log_prior, self.grad_prior) and _owns(
            likelihood_rows, self.log_likelihood, self.grad_likelihood
        ):

            def rows(positions: np.ndarray, with_gradient: bool):
                prior_densities, prior_gradients = prior_rows(positions, with_gradient)
                densities, gradients = likelihood_rows(positions, with_gradient)
                densities = prior_densities + lmbda * densities
                if with_gradient:
                    gradients = prior_gradients + lmbda * gradients
                # Two NaNs can meet in these adds, and which one an add
                # returns depends on where the element falls in NumPy's loop,
                # so rows holding a NaN are redone through the per-position
                # closures.
                redo = np.isnan(densities)
                if with_gradient:
                    redo |= np.isnan(gradients).any(axis=1)
                for i in np.flatnonzero(redo):
                    densities[i] = logdensity(positions[i])
                    if with_gradient:
                        gradients[i] = gradient(positions[i])
                return densities, gradients

            _row_form(rows, logdensity, gradient)
        return Target(self.dim, logdensity, gradient)


class SmcInfo(NamedTuple):
    """Record of one tempering stage.

    The new lambda, the ESS after reweighting and before resampling, the
    mean mutation acceptance (NaN without mutation steps) and the stage's
    increment of ``log_z``.
    """

    lmbda: float
    ess: float
    mean_acceptance: float
    log_z_increment: float


class SmcStagnationError(RuntimeError):
    """The ladder failed to reach lambda = 1 within the stage budget."""


MutationFactory = Callable[[Target], SamplingAlgorithm]


def init_ensemble(particles: np.ndarray) -> ParticleEnsemble:
    """Equal-weight ensemble at the prior (lambda 0, log_z 0)."""
    particles = np.asarray(particles, dtype=float)
    if particles.ndim != 2 or particles.shape[0] < 2:
        raise ValueError("particles must be an (N, dim) matrix with N >= 2")
    return ParticleEnsemble(particles, np.zeros(particles.shape[0]), 0.0, 0.0)


def reweight(
    ensemble: ParticleEnsemble,
    log_likelihoods: np.ndarray,
    new_lambda: float,
) -> ParticleEnsemble:
    """Move the ensemble up the ladder, updating weights and log_z.

    Weights gain ``(new_lambda - lambda) * log_likelihood_i``; log_z gains
    the log of the self-normalized mean of those incremental weights.
    """
    if new_lambda < ensemble.lmbda:
        raise ValueError("ladder must be non-decreasing")
    if new_lambda > 1.0:
        raise ValueError("inverse temperature cannot exceed 1")
    log_likelihoods = np.asarray(log_likelihoods, dtype=float)
    delta = new_lambda - ensemble.lmbda
    new_log_weights = ensemble.log_weights + delta * log_likelihoods
    increment = _logsumexp(new_log_weights) - _logsumexp(ensemble.log_weights)
    return ParticleEnsemble(
        ensemble.particles, new_log_weights, new_lambda, ensemble.log_z + increment
    )


def adaptive_next_lambda(
    ensemble: ParticleEnsemble,
    log_likelihoods: np.ndarray,
    target_ess_ratio: float = 0.5,
) -> float:
    """Next ladder position, by bisection on the ESS of a trial reweight.

    Returns 1.0 outright when even the full jump keeps
    ``ESS >= target_ess_ratio * N``; otherwise bisects the predicate on
    ``(lambda, 1]`` to an absolute lambda tolerance of 1e-6 (at most 100
    iterations).  The result is strictly greater than the current lambda.
    """
    if not 0.0 < target_ess_ratio < 1.0:
        raise ValueError("target ESS ratio must lie in (0, 1)")
    if ensemble.lmbda >= 1.0:
        raise ValueError("ensemble is already at the posterior")
    log_likelihoods = np.asarray(log_likelihoods, dtype=float)
    num = len(log_likelihoods)
    floor = target_ess_ratio * num

    def meets_target(lmbda: float) -> bool:
        delta = lmbda - ensemble.lmbda
        return ess(ensemble.log_weights + delta * log_likelihoods) >= floor

    if meets_target(1.0):
        return 1.0
    low, high = ensemble.lmbda, 1.0
    for _ in range(100):
        if high - low <= 1e-6:
            break
        mid = 0.5 * (low + high)
        if meets_target(mid):
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def check_settings(
    num_particles: int,
    num_mutation_steps: int = 1,
    target_ess_ratio: float = 0.5,
    max_stages: int = 1000,
) -> None:
    """Raise ``ValueError`` for settings :func:`run_tempered_smc` rejects before any draw."""
    if max_stages < 1:
        raise ValueError("stage budget must be at least 1")
    if num_particles < 2:
        raise ValueError("need at least two particles")
    if num_mutation_steps < 0:
        raise ValueError("mutation step count must be non-negative")
    if not 0.0 < target_ess_ratio < 1.0:
        raise ValueError("target ESS ratio must lie in (0, 1)")


def smc_step(
    key: RngKey,
    ensemble: ParticleEnsemble,
    tempered_target: TemperedTarget,
    mutation: MutationFactory,
    num_mutation_steps: int = 1,
    resample_method: str = "systematic",
    target_ess_ratio: float = 0.5,
) -> tuple[ParticleEnsemble, SmcInfo]:
    """One tempering stage: choose lambda, reweight, resample, mutate.

    ``mutation`` maps the stage's tempered :class:`~mcbricks.core.Target`
    to a :class:`~mcbricks.core.SamplingAlgorithm` whose ``init`` takes the
    whole ``(n, dim)`` particle matrix and whose ``step`` takes an
    ``(n, 2)`` key array (one key per particle, see
    :func:`mcbricks.rng.key_rows`) and returns the ensemble state with one
    info record per particle.  Particle i's j-th move runs under
    ``fold_in(split_key(key_mutate, n)[i], j)``, the key a per-particle loop
    would give it.  Resampling happens every stage, so post-step weights
    are uniform.  The info records the new lambda, the ensemble's ESS after
    reweighting but before resampling, the mean mutation acceptance (NaN
    when no mutation steps run; an exactly rounded mean, so it does not
    depend on the order the rows are summed in) and the log-Z increment.
    """
    if num_mutation_steps < 0:
        raise ValueError("mutation step count must be non-negative")
    particles = ensemble.particles
    num = particles.shape[0]
    log_likelihoods = evaluate_rows(particles, tempered_target.log_likelihood)[0]
    new_lambda = adaptive_next_lambda(ensemble, log_likelihoods, target_ess_ratio)
    reweighted = reweight(ensemble, log_likelihoods, new_lambda)
    increment = _logsumexp(reweighted.log_weights) - _logsumexp(ensemble.log_weights)
    pre_resample_ess = ess(reweighted.log_weights)
    key_resample, key_mutate = split_key(key, 2)
    ancestors = resample(key_resample, reweighted.log_weights, num, resample_method)
    mutated = reweighted.particles[ancestors]
    p_accepts: list[float] = []
    if num_mutation_steps > 0:
        algorithm = mutation(tempered_target.at_temperature(new_lambda))
        particle_keys = key_rows(split_key(key_mutate, num))
        # As in run_chain: the kernels absorb non-finite arithmetic.
        with np.errstate(over="ignore", invalid="ignore"):
            state = algorithm.init(mutated)
            for j in range(num_mutation_steps):
                state, infos = algorithm.step(fold_in_rows(particle_keys, j), state)
                p_accepts.extend(float(info.p_accept) for info in infos)
        mutated = state.position
    mean_acceptance = math.fsum(p_accepts) / len(p_accepts) if p_accepts else math.nan
    result = ParticleEnsemble(mutated, np.zeros(num), new_lambda, reweighted.log_z)
    return result, SmcInfo(new_lambda, pre_resample_ess, mean_acceptance, increment)


class TemperedSmcResult(NamedTuple):
    ensemble: ParticleEnsemble
    ladder: list[float]
    log_z: float
    stages: list[SmcInfo]


def run_tempered_smc(
    key: RngKey,
    tempered_target: TemperedTarget,
    initial_sampler: Callable[[RngKey, int], np.ndarray],
    num_particles: int,
    mutation: MutationFactory,
    num_mutation_steps: int = 1,
    resample_method: str = "systematic",
    target_ess_ratio: float = 0.5,
    max_stages: int = 1000,
) -> TemperedSmcResult:
    """Drive :func:`smc_step` from the prior to lambda = 1.

    ``initial_sampler(key, n)`` draws n prior samples as an (n, dim)
    matrix.  Returns the final ensemble, the realized ladder (excluding
    the starting 0), the accumulated log normalizing constant, and every
    stage's :class:`SmcInfo`.  The bisection contract makes lambda strictly
    increase, so the run terminates; ``max_stages`` guards against
    non-progress regardless.
    """
    check_settings(num_particles, num_mutation_steps, target_ess_ratio, max_stages)
    key_init, key_stages = split_key(key, 2)
    particles = np.asarray(initial_sampler(key_init, num_particles), dtype=float)
    if particles.shape != (num_particles, tempered_target.dim):
        raise ValueError("initial sampler returned a wrongly shaped matrix")
    ensemble = init_ensemble(particles)
    stages: list[SmcInfo] = []
    for stage in range(max_stages):
        ensemble, info = smc_step(
            fold_in(key_stages, stage),
            ensemble,
            tempered_target,
            mutation,
            num_mutation_steps,
            resample_method,
            target_ess_ratio,
        )
        stages.append(info)
        if ensemble.lmbda >= 1.0:
            ladder = [stage_info.lmbda for stage_info in stages]
            return TemperedSmcResult(ensemble, ladder, ensemble.log_z, stages)
    raise SmcStagnationError(f"ladder did not reach 1.0 in {max_stages} stages")
