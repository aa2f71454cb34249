"""Built-in analytic targets for the harness and the test suite.

Every target is expressed through the library-wide Target contract
(unnormalized log density plus gradient).  Two carry analytic moments for
exactness checks; the banana and funnel stress curved and varying-scale
geometry; the logistic-regression posterior is built on synthetic data
generated deterministically from an RNG key, so runs remain reproducible
without shipping data files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Target, _row_dot, _row_matvec, fused_callables
from .rng import RngKey, normal_matrix, normal_vector, split_key, uniform_vector
from .smc.tempering import TemperedTarget

__all__ = [
    "BuiltinTarget",
    "TargetSpec",
    "TARGETS",
    "MCMC_TARGET_NAMES",
    "SMC_TARGET_NAMES",
    "make_builtin",
    "make_tempered",
    "std_normal",
    "aniso_gauss",
    "banana",
    "funnel",
    "logistic_synth",
    "LogisticData",
    "make_logistic_data",
    "conjugate_gaussian_data",
    "conjugate_gaussian_log_evidence",
    "conjugate_gaussian_posterior",
]

LOGISTIC_NUM_POINTS = 200
LOGISTIC_NUM_FEATURES = 5
CONJUGATE_NUM_OBSERVATIONS = 5


@dataclass(frozen=True)
class BuiltinTarget:
    """A named target, optionally with per-dimension analytic moments."""

    name: str
    target: Target
    analytic_moments: Optional[tuple[np.ndarray, np.ndarray]]


def _saturating_exp(value: float) -> float:
    """exp that returns inf instead of raising past the double range."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _exp_neg_abs(scores: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``t = exp(-|s|)``, into ``out`` or a fresh array: it never overflows, and lies in ``[0, 1]``.

    ``-|s|`` is taken as ``min(s, -s)``, so a NaN keeps its sign.
    """
    t = np.negative(scores, out=out)
    np.minimum(scores, t, out=t)
    np.exp(t, out=t)
    return t


def _sigmoid(
    scores: np.ndarray, t: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Numerically stable logistic function, no overflow warnings and no branch.

    With ``t = exp(-|s|)`` (:func:`_exp_neg_abs`) it is ``1 / (1 + t)`` for
    ``s >= 0`` and ``t / (1 + t)`` otherwise, bit for bit the two textbook
    branches.  The numerator is ``max(s >= 0, t)``: as ``0 <= t <= 1`` that
    is ``1.0`` or ``t``, and a NaN score passes on its ``t``'s NaN.
    ``np.where(s >= 0, 1.0, t)`` gives the same bits, but random signs make
    it pay branch mispredictions: five to six times the time at 100 x 200.
    A caller that has ``t`` already passes it, and it is changed in place;
    the result goes into ``out`` (a float array of the scores' shape) or a
    fresh array, and ``scores`` is not modified.
    """
    if t is None:
        t = _exp_neg_abs(scores)
    out = np.maximum(np.greater_equal(scores, 0.0, out=out), t, out=out)
    t += 1.0
    out /= t
    return out


def _log_std_normal(x: np.ndarray) -> float:
    # The N(0, I) log density up to a constant: std_normal and the priors.
    return -0.5 * float(x @ x)


def _grad_std_normal(x: np.ndarray) -> np.ndarray:
    return -x


def _prior_callables() -> tuple[Callable, Callable]:
    """The tempered targets' N(0, I) prior, with a row form of its own.

    Every row is bit for bit :func:`_log_std_normal` and
    :func:`_grad_std_normal`.  ``std_normal`` keeps that plain pair, whose
    single positions need no block of one.
    """
    return fused_callables(
        lambda positions, with_gradient: (
            -0.5 * _row_dot(positions, positions),
            np.negative(positions) if with_gradient else None,
        )
    )


def std_normal(dim: int) -> BuiltinTarget:
    """Standard normal in ``dim`` dimensions."""
    TARGETS["std_normal"].check_dim(dim)
    return BuiltinTarget(
        "std_normal",
        Target(dim, _log_std_normal, _grad_std_normal),
        (np.zeros(dim), np.ones(dim)),
    )


def aniso_variances(dim: int) -> np.ndarray:
    """Geometric variance ladder from 1 to 100 across the coordinates."""
    if dim == 1:
        return np.ones(1)
    return np.geomspace(1.0, 100.0, dim)


def aniso_gauss(dim: int) -> BuiltinTarget:
    """Axis-aligned Gaussian with variances spanning two decades."""
    TARGETS["aniso_gauss"].check_dim(dim)
    variances = aniso_variances(dim)
    precision = 1.0 / variances
    negative_precision = -precision

    def logdensity(x: np.ndarray) -> float:
        return -0.5 * float(np.add.reduce(precision * x * x))

    def gradient(x: np.ndarray) -> np.ndarray:
        return negative_precision * x

    return BuiltinTarget(
        "aniso_gauss",
        Target(dim, logdensity, gradient),
        (np.zeros(dim), variances.copy()),
    )


BANANA_CURVATURE = 0.5
BANANA_SPREAD = 4.0  # variance of the first coordinate


def banana(dim: int = 2) -> BuiltinTarget:
    """Banana-shaped density: a Gaussian bent along a parabola.

    The first coordinate is N(0, spread); the second follows a unit
    Gaussian centered on the parabola ``-b * (x1^2 - spread)``; any further
    coordinates are independent standard normals.
    """
    TARGETS["banana"].check_dim(dim)
    b = BANANA_CURVATURE
    spread = BANANA_SPREAD

    def logdensity(x: np.ndarray) -> float:
        bend = x[1] + b * (x[0] * x[0] - spread)
        tail = float(x[2:] @ x[2:]) if dim > 2 else 0.0
        return -0.5 * (x[0] * x[0] / spread + bend * bend + tail)

    def gradient(x: np.ndarray) -> np.ndarray:
        bend = x[1] + b * (x[0] * x[0] - spread)
        grad = np.array(x, dtype=float, copy=True)
        grad[0] = -x[0] / spread - bend * 2.0 * b * x[0]
        grad[1] = -bend
        if dim > 2:
            grad[2:] = -x[2:]
        return grad

    return BuiltinTarget("banana", Target(dim, logdensity, gradient), None)


FUNNEL_SCALE = 3.0  # standard deviation of the neck coordinate


def funnel(dim: int = 2) -> BuiltinTarget:
    """Neal's funnel: the first coordinate sets the log-scale of the rest.

    ``x0 ~ N(0, 9)`` and ``x_i | x0 ~ N(0, exp(x0))`` for i >= 1, a
    standard stress test for step-size adaptation.
    """
    TARGETS["funnel"].check_dim(dim)
    neck_var = FUNNEL_SCALE * FUNNEL_SCALE

    def logdensity(x: np.ndarray) -> float:
        sumsq = float(x[1:] @ x[1:])
        base = -0.5 * x[0] * x[0] / neck_var - 0.5 * (dim - 1) * x[0]
        # Guard sumsq == 0 so a saturated exp cannot produce inf * 0.
        if sumsq == 0.0:
            return base
        return base - 0.5 * _saturating_exp(-x[0]) * sumsq

    def gradient(x: np.ndarray) -> np.ndarray:
        sumsq = float(x[1:] @ x[1:])
        scale = _saturating_exp(-x[0])
        grad = np.empty(dim)
        correction = 0.5 * scale * sumsq if sumsq > 0.0 else 0.0
        grad[0] = -x[0] / neck_var - 0.5 * (dim - 1) + correction
        grad[1:] = -scale * x[1:]
        return grad

    return BuiltinTarget("funnel", Target(dim, logdensity, gradient), None)


@dataclass(frozen=True)
class LogisticData:
    """Synthetic logistic-regression data, fully determined by a key."""

    design: np.ndarray
    labels: np.ndarray
    true_weights: np.ndarray


def make_logistic_data(key: RngKey) -> LogisticData:
    """200 points, 5 standard-normal features, N(0,1) true weights."""
    key_design, key_weights, key_labels = split_key(key, 3)
    design = normal_matrix(key_design, LOGISTIC_NUM_POINTS, LOGISTIC_NUM_FEATURES)
    weights = normal_vector(key_weights, LOGISTIC_NUM_FEATURES)
    probabilities = _sigmoid(design @ weights)
    labels = (
        uniform_vector(key_labels, LOGISTIC_NUM_POINTS) < probabilities
    ).astype(float)
    return LogisticData(design, labels, weights)


def _logistic_callables(data: LogisticData, with_prior: bool):
    """Per-position log likelihood (plus the N(0, I) prior with ``with_prior``) and gradient.

    One body evaluates a block of weight rows.  The row products
    (:func:`~mcbricks.core._row_matvec`, :func:`~mcbricks.core._row_dot`)
    make every row bit for bit the per-position ``design @ w``,
    ``s @ labels``, ``w @ w`` and ``design.T @ r``; the rest is elementwise
    or reduces each row in order, so a row's bits do not depend on the
    block's size or on the row's place in it.  One ``t = exp(-|s|)`` per
    score serves both terms: the softplus ``log(1 + e^s)`` is
    ``max(s, 0) + log1p(t)``, which differs from ``np.logaddexp(0, s)`` in
    the last bits (its scalar ``exp`` is not NumPy's vector one), and the
    sigmoid is :func:`_sigmoid` of the same ``t``.

    Each call makes one ``(4, n, 200)`` block and writes every temporary
    into it (``out=``) instead of allocating six.  At 100 rows each
    temporary is 160 KB, past glibc's 128 KB mmap threshold, so separate
    arrays grew and trimmed the heap on every call, and the page faults took
    about half of an SMC run's time.  The saving rests on the allocator
    handing the freed block back to the next call of the same size, which
    glibc does.  No buffer is kept between calls, so threads can share a
    target; the densities and gradients returned are fresh arrays.
    """
    design, labels = data.design, data.labels

    def body(weights: np.ndarray, with_gradient: bool):
        scores, t, work, tail = np.empty((4, weights.shape[0], design.shape[0]))
        np.matmul(design, weights[:, :, None], out=scores[:, :, None])
        densities = _row_dot(scores, labels)
        _exp_neg_abs(scores, out=t)
        np.maximum(scores, 0.0, out=work)
        work += np.log1p(t, out=tail)
        densities -= work.sum(axis=1)
        if with_prior:
            densities = -0.5 * _row_dot(weights, weights) + densities
        if not with_gradient:
            return densities, None
        residuals = np.subtract(labels, _sigmoid(scores, t, out=tail), out=tail)
        gradients = _row_matvec(design.T, residuals)
        if with_prior:
            likelihood_gradients = gradients
            gradients = np.negative(weights) + likelihood_gradients
            # A NaN weight meets a NaN gradient of the other sign here, and
            # which NaN an add returns depends on where the element falls in
            # NumPy's loop.  A NaN weight makes its density NaN, so those rows
            # are redone as the per-position ``-w + g`` on fresh rows.
            for i in np.flatnonzero(np.isnan(densities)):
                gradients[i] = np.negative(weights[i]) + likelihood_gradients[i].copy()
        return densities, gradients

    return fused_callables(body)


def logistic_synth(key: RngKey) -> BuiltinTarget:
    """Bayesian logistic regression posterior on synthetic data.

    Standard-normal prior on the 5 weights; data from
    :func:`make_logistic_data` using the supplied key.  The density carries
    a row form (see :func:`mcbricks.core.fused_callables`).
    """
    logdensity, gradient = _logistic_callables(make_logistic_data(key), with_prior=True)
    return BuiltinTarget(
        "logistic_synth",
        Target(LOGISTIC_NUM_FEATURES, logdensity, gradient),
        None,
    )


def conjugate_gaussian_data(key: RngKey, dim: int, num_observations: int) -> np.ndarray:
    """Observations for the conjugate-Gaussian model, drawn from N(0, 2I).

    Matches the model's marginal spread (prior N(0, I) plus unit
    observation noise), keeping the synthetic data typical for it.
    """
    return math.sqrt(2.0) * normal_matrix(key, num_observations, dim)


def conjugate_gaussian_log_evidence(observations: np.ndarray) -> float:
    """Closed-form log evidence of the conjugate-Gaussian model.

    Model: ``theta ~ N(0, I_dim)`` and ``y_j | theta ~ N(theta, I_dim)``.
    Marginally each coordinate of ``(y_1, ..., y_k)`` is N(0, I_k + 1 1^T),
    whose determinant is ``1 + k`` and whose inverse is
    ``I - 1 1^T / (1 + k)``, giving the quadratic form below.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    k = observations.shape[0]
    col_sums = observations.sum(axis=0)
    quad = float(np.sum(observations * observations) - col_sums @ col_sums / (1.0 + k))
    dim = observations.shape[1]
    return -0.5 * (
        dim * k * math.log(2.0 * math.pi) + dim * math.log(1.0 + k) + quad
    )


def conjugate_gaussian_posterior(observations: np.ndarray) -> tuple[np.ndarray, float]:
    """Posterior mean vector and (isotropic) variance given the data."""
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    k = observations.shape[0]
    return observations.sum(axis=0) / (1.0 + k), 1.0 / (1.0 + k)


def _conjugate_tempered(dim: int, data_key: RngKey) -> tuple[TemperedTarget, dict]:
    observations = conjugate_gaussian_data(data_key, dim, CONJUGATE_NUM_OBSERVATIONS)
    count = observations.shape[0]
    col_sums = observations.sum(axis=0)
    sq_total = float(np.sum(observations * observations))

    constant = 0.5 * count * dim * math.log(2.0 * math.pi)

    def body(positions: np.ndarray, with_gradient: bool):
        # sum_j -0.5 ||y_j - x||^2, constants included so the evidence
        # estimate matches the normalized model.  Row i is bit for bit
        # count * (x @ x) - 2 * (col_sums @ x) + sq_total for x = positions[i].
        squares = _row_dot(positions, positions)
        cross = _row_matvec(col_sums[None], positions)[:, 0]
        quad = count * squares - 2.0 * cross + sq_total
        gradients = col_sums - count * positions if with_gradient else None
        return -0.5 * quad - constant, gradients

    loglik, grad_loglik = fused_callables(body)
    tempered = TemperedTarget(dim, *_prior_callables(), loglik, grad_loglik)
    return tempered, {"observations": observations}


def _logistic_builtin(dim: int, data_key: Optional[RngKey]) -> BuiltinTarget:
    if data_key is None:
        raise ValueError("logistic_synth needs a data key")
    return logistic_synth(data_key)


def _logistic_tempered(dim: int, data_key: RngKey) -> tuple[TemperedTarget, dict]:
    data = make_logistic_data(data_key)
    loglik, grad_loglik = _logistic_callables(data, with_prior=False)
    tempered = TemperedTarget(LOGISTIC_NUM_FEATURES, *_prior_callables(), loglik, grad_loglik)
    return tempered, {"data": data}


@dataclass(frozen=True)
class TargetSpec:
    """Registry entry: a built-in target's dimension rule, analytic label and factories.

    ``builtin(dim, data_key)`` builds the MCMC/VI target, ``tempered(dim,
    data_key)`` the SMC prior/likelihood split.  ``dim`` must be at least
    ``min_dim``, and equal to ``default_dim`` when ``fixed_dim`` is set.
    """

    name: str
    default_dim: int
    analytic: str
    min_dim: int = 1
    fixed_dim: bool = False
    builtin: Optional[Callable[[int, Optional[RngKey]], BuiltinTarget]] = None
    tempered: Optional[Callable[[int, RngKey], tuple[TemperedTarget, dict]]] = None

    @property
    def commands(self) -> str:
        """The CLI commands that accept the target: those it has a factory for."""
        offered = (("mcmc/vi", self.builtin), ("smc", self.tempered))
        return "/".join(command for command, factory in offered if factory is not None)

    @property
    def dimensions(self) -> str:
        if self.fixed_dim:
            return f"fixed {self.default_dim}"
        return f"any >= {self.min_dim} (default {self.default_dim})"

    def check_dim(self, dim: int) -> None:
        """Raise ``ValueError`` unless ``dim`` obeys the dimension rule."""
        if self.fixed_dim and dim != self.default_dim:
            raise ValueError(f"{self.name} has fixed dimension {self.default_dim}")
        if dim < self.min_dim:
            raise ValueError(f"{self.name} needs dimension at least {self.min_dim}")


# Registry order is the order of MCMC_TARGET_NAMES and SMC_TARGET_NAMES.
TARGETS = {
    spec.name: spec
    for spec in (
        TargetSpec("gauss_conjugate", 1, "evidence", tempered=_conjugate_tempered),
        TargetSpec("std_normal", 1, "yes", builtin=lambda dim, key: std_normal(dim)),
        TargetSpec("aniso_gauss", 2, "yes", builtin=lambda dim, key: aniso_gauss(dim)),
        TargetSpec("banana", 2, "no", min_dim=2, builtin=lambda dim, key: banana(dim)),
        TargetSpec("funnel", 2, "no", min_dim=2, builtin=lambda dim, key: funnel(dim)),
        TargetSpec(
            "logistic_synth", LOGISTIC_NUM_FEATURES, "no", fixed_dim=True,
            builtin=_logistic_builtin, tempered=_logistic_tempered,
        ),
    )
}
MCMC_TARGET_NAMES = tuple(name for name, spec in TARGETS.items() if spec.builtin)
SMC_TARGET_NAMES = tuple(name for name, spec in TARGETS.items() if spec.tempered)


def _lookup(name: str, dim: int, factory: str, choices: tuple[str, ...]) -> TargetSpec:
    spec = TARGETS.get(name)
    if spec is None or getattr(spec, factory) is None:
        raise ValueError(f"unknown target {name!r}; choose from {choices}")
    spec.check_dim(dim)
    return spec


def make_builtin(name: str, dim: int, data_key: Optional[RngKey] = None) -> BuiltinTarget:
    """Build a built-in MCMC/VI target; ``logistic_synth`` needs ``data_key``."""
    return _lookup(name, dim, "builtin", MCMC_TARGET_NAMES).builtin(dim, data_key)


def make_tempered(name: str, dim: int, data_key: RngKey) -> tuple[TemperedTarget, dict]:
    """Build a tempered (prior/likelihood) target for SMC by name.

    Returns the target plus a details dict (observations or data handles)
    so callers can recover analytic quantities where they exist.
    """
    return _lookup(name, dim, "tempered", SMC_TARGET_NAMES).tempered(dim, data_key)
