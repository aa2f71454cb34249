"""Shared contracts: targets, algorithm records, the chain runner.

A *target* is a log-density (up to an additive constant) together with its
gradient, over an unconstrained real vector.  An *algorithm* is a pair (or
triple, for approximations) of pure functions following the init/step
protocol: ``init`` builds the algorithm state from a starting position,
``step`` advances it one transition under an explicit RNG key and returns
``(new_state, info)``.  Because steps are pure, running a chain is a plain
fold and replaying it with the same key reproduces every draw bitwise.

Every built-in kernel carries a *draw atom* as its ``draw`` attribute: it
maps an ``(m, 2)`` key array to one record of randomness per key, and the
kernel takes such a record in place of the key.  A record holds randomness
only, never a step size or a metric, which the kernel applies itself.  RWM,
MALA, HMC and GHMC share one atom
(:func:`mcbricks.integrator.momentum_draw`), whose record is a ``float64``
row of normals and a uniform; NUTS fixes every number a tree could use from
the key before it builds the tree (:func:`mcbricks.mcmc.nuts.build_kernel`).
An atom's ``floats(dim)`` is the size of its record.  :func:`bind` hands
the atom on to the step, and :func:`step_inputs` serves the steps of a
chain a block at a time; :func:`run_chain` and warmup draw through it.  The
fixed kernels step one state or an ensemble with one body, :func:`evaluate`
being the one place that tells the two shapes apart for the target.

A target callable may carry a *row form* as its ``rows`` attribute:
``logdensity.rows(positions, with_gradient)`` returns the densities and
gradients (or ``None``) of every row of an ``(n, dim)`` block in a few array
calls, as fresh arrays the caller may change, and ``rows.callables`` names
the per-position pair it belongs to (:func:`fused_callables` builds such a
pair).  A target is evaluated one of two ways: its row form's own pair
through the row form, a block at a time, and any other callable once per
position.  :func:`evaluate` and :func:`evaluate_rows` return the row form's
arrays when they are given exactly that pair, and otherwise call every
callable they were given once per position, so a wrapper around the pair (a
counter, a penalty, a tempered closure) sees every position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple, Optional

import numpy as np

from .rng import RngKey, fold_in_range, normal_vector, split_key

__all__ = [
    "Target",
    "SamplingAlgorithm",
    "ApproxAlgorithm",
    "GradientState",
    "AcceptanceInfo",
    "ChainError",
    "init",
    "evaluate",
    "evaluate_rows",
    "fused_callables",
    "bind",
    "bound_draw",
    "step_inputs",
    "run_chain",
    "gradient_discrepancy",
]


@dataclass(frozen=True)
class Target:
    """Differentiable unnormalised log-density on ``R**dim``.

    Parameters
    ----------
    dim
        Dimensionality of the state space, at least 1.
    logdensity
        Maps a position of shape ``(dim,)`` to a float.  May return
        ``-inf`` outside the support; must never return ``+inf``.
    gradient
        Maps a position to the gradient array of shape ``(dim,)``.

    ``logdensity`` may carry a row form as its ``rows`` attribute (see
    :func:`fused_callables`); when ``logdensity`` and ``gradient`` are the
    pair it belongs to, :func:`evaluate` and :func:`evaluate_rows` evaluate
    through it.  The constructor is the same either way.
    """

    dim: int
    logdensity: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("target dimension must be at least 1")


class SamplingAlgorithm(NamedTuple):
    """Packaged MCMC procedure: ``init(position)`` and ``step(key, state)``."""

    init: Callable[[np.ndarray], Any]
    step: Callable[[RngKey, Any], tuple[Any, Any]]


class ApproxAlgorithm(NamedTuple):
    """Packaged approximate-inference procedure.

    ``init``/``step`` as for sampling; ``sample(key, state, num_samples)``
    draws from the fitted approximation.
    """

    init: Callable[[np.ndarray], Any]
    step: Callable[[RngKey, Any], tuple[Any, Any]]
    sample: Callable[[RngKey, Any, int], np.ndarray]


class GradientState(NamedTuple):
    """Position with its cached log density and gradient.

    An ensemble state stacks ``n`` of them: positions and gradients
    ``(n, dim)``, log densities ``(n,)``.
    """

    position: np.ndarray
    logdensity: float
    gradient: np.ndarray


class AcceptanceInfo(NamedTuple):
    """Outcome of one accept/reject transition; ``energy`` is that of the returned state.

    The one record of the fixed kernels: RWM and MALA leave
    ``num_integration_steps`` (the leapfrog steps the move took) at 0, GHMC
    reports 1 and HMC its trajectory length.
    """

    p_accept: float
    accepted: bool
    is_divergent: bool
    energy: float
    num_integration_steps: int = 0


def init(position: np.ndarray, target: Target) -> GradientState:
    """Evaluate the target at ``position`` and cache both results.

    An ``(n, dim)`` matrix of positions gives the ensemble state of its rows.
    """
    position = np.asarray(position, dtype=float)
    return GradientState(position, *evaluate(position, target.logdensity, target.gradient))


def evaluate(position: np.ndarray, logdensity: Callable, gradient: Optional[Callable] = None) -> tuple:
    """Log density and gradient (``None`` without ``gradient``) at ``position``.

    One position gives a Python ``float`` and a ``float64`` array; an
    ``(n, dim)`` matrix gives :func:`evaluate_rows`.  Given a row form's own
    pair, one position is evaluated as a block of one through the row form;
    any other callables are called at the position.  Either way the gradient
    is evaluated only when ``gradient`` is given.
    """
    if position.ndim == 2:
        return evaluate_rows(position, logdensity, gradient)
    rows = getattr(logdensity, "rows", None)
    if rows is not None and _owns(rows, logdensity, gradient):
        densities, gradients = rows(position[None], gradient is not None)
        return float(densities[0]), None if gradients is None else gradients[0]
    if gradient is None:
        return float(logdensity(position)), None
    return float(logdensity(position)), np.asarray(gradient(position), dtype=float)


def evaluate_rows(
    positions: np.ndarray,
    logdensity: Callable[[np.ndarray], float],
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Log densities ``(n,)`` and gradients ``(n, dim)`` of the rows of ``positions``.

    When ``logdensity`` carries a row form (its ``rows`` attribute) whose
    ``callables`` are exactly ``logdensity`` and ``gradient`` (or whose
    density is ``logdensity``, without ``gradient``), its arrays are the
    result: one call for the block, no loop.  Any other callables are called
    once per row, the density just before the gradient, so a wrapper that
    counts or changes evaluations still sees each one; a row form they carry
    (a wrapper copies it) is not called.  Without ``gradient`` the second
    result is ``None``.
    """
    rows = getattr(logdensity, "rows", None)
    if rows is not None and _owns(rows, logdensity, gradient):
        return rows(positions, gradient is not None)
    densities = np.empty(positions.shape[0])
    gradients = None if gradient is None else np.empty(positions.shape)
    for i, position in enumerate(positions):
        densities[i] = float(logdensity(position))
        if gradient is not None:
            gradients[i] = gradient(position)
    return densities, gradients


def _owns(rows: Optional[Callable], logdensity: Callable, gradient: Optional[Callable]) -> bool:
    """Whether the row form ``rows`` (``None``: none) is that of ``logdensity`` and ``gradient``.

    Without ``gradient`` only ``logdensity`` is checked.  Identity, not
    equality: a wrapper carries the row form it copied, but is not the pair
    the row form names.
    """
    pair = getattr(rows, "callables", None)
    return pair is not None and pair[0] is logdensity and (gradient is None or pair[1] is gradient)


def _row_form(rows: Callable, logdensity: Callable, gradient: Callable) -> tuple[Callable, ...]:
    """Attach ``rows`` to ``logdensity`` as the row form of the pair ``(logdensity, gradient)``."""
    rows.callables = (logdensity, gradient)
    logdensity.rows = rows
    return logdensity, gradient


def _row_dot(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``left[i] @ right[i]``, or ``left[i] @ right`` for one shared vector.

    The stacked product runs one BLAS dot per row, so every row is bit for
    bit the single-position ``@``.
    """
    return np.matmul(left[:, None, :], right[..., None])[:, 0, 0]


def _row_matvec(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``matrix @ rows[i]``, bit for bit: one BLAS gemv per row."""
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def _ordered_sum(values: np.ndarray, start: float = 0.0) -> np.ndarray:
    """``start`` plus the rows of ``values`` added in row order, bit for bit the loop.

    ``np.add.accumulate`` adds in sequence, so this is ``total = start; for
    row in values: total += row``; ``np.add.reduce`` sums pairwise and is not.
    """
    return np.add.accumulate(np.concatenate((np.full((1,) + values.shape[1:], start), values)))[-1]


def fused_callables(
    body: Callable[[np.ndarray, bool], tuple[np.ndarray, Optional[np.ndarray]]],
) -> tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    """Per-position ``(logdensity, gradient)`` evaluated through one row-form ``body``.

    ``body(positions, with_gradient)`` maps a C-contiguous ``(n, dim)``
    block to its densities ``(n,)`` and, with ``with_gradient``, its
    gradients ``(n, dim)`` (else ``None``).  The returned ``logdensity``
    carries ``rows(positions, with_gradient)``, the body's arrays, as the
    pair's row form.  The per-position callables evaluate a position as a
    block of one, so a row has one code path: ``logdensity`` asks the body
    for no gradient, and ``gradient`` returns a fresh array.
    """

    def rows(positions: np.ndarray, with_gradient: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
        return body(np.ascontiguousarray(positions, dtype=float), with_gradient)

    def logdensity(x: np.ndarray) -> float:
        return float(rows(x[None], False)[0][0])

    def gradient(x: np.ndarray) -> np.ndarray:
        return rows(x[None], True)[1][0]

    return _row_form(rows, logdensity, gradient)


def bind(target: Target, init: Callable[..., Any], kernel: Callable[..., tuple]) -> SamplingAlgorithm:
    """Package ``init(position, target)`` and ``kernel(key, state, target)``.

    When the kernel has a draw atom, the step gets it as ``step.draw(keys)``,
    bound to ``target`` (see :func:`bound_draw`).
    """

    def step(key, state):
        return kernel(key, state, target)

    draw = bound_draw(kernel, target)
    if draw is not None:
        step.draw = draw
    return SamplingAlgorithm(init=partial(init, target=target), step=step)


def bound_draw(kernel: Callable, target: Target) -> Optional[Callable]:
    """``kernel``'s draw atom bound to ``target``, or ``None`` if it has none.

    The bound atom maps a key array to its records; its ``floats`` is the
    size of one record, which :func:`step_inputs` caps blocks by.
    """
    draw = getattr(kernel, "draw", None)
    if draw is None:
        return None
    bound = partial(draw, target=target)
    bound.floats = draw.floats(target.dim)
    return bound


class ChainError(RuntimeError):
    """A kernel failed mid-chain; ``step_index`` says where."""

    def __init__(self, step_index: int, cause: Exception) -> None:
        super().__init__(f"chain step {step_index} failed: {cause}")
        self.step_index = step_index


# Steps per block of keys drawn at once by step_inputs, and the cap on the
# floats a block of records may hold, so memory does not grow with dim.
_BLOCK_STEPS = 256
_BLOCK_FLOATS = 1 << 15


def step_inputs(key: RngKey, draw: Optional[Callable], start: int, stop: int, floats: int) -> Iterator:
    """Yield ``(i, input)`` for the steps ``start <= i < stop`` of a chain under ``key``.

    Step ``i`` belongs to ``fold_in(key, i)``.  The keys are derived a block
    at a time with :func:`~mcbricks.rng.fold_in_range`, and with a draw atom
    (``draw(keys)``, as :func:`bound_draw` gives it) each block's records
    are drawn in one call: the input is the step's record, which moves the
    kernel exactly as its key would.  Without one the input is the key as
    an :class:`RngKey`.  A block holds at most ``_BLOCK_STEPS`` steps and
    ``_BLOCK_FLOATS`` floats of records of ``floats`` floats each.
    """
    block = max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // floats))
    for first in range(start, stop, block):
        keys = fold_in_range(key, first, min(first + block, stop))
        inputs = draw(keys) if draw is not None else map(RngKey._make, keys.tolist())
        yield from enumerate(inputs, first)


def run_chain(
    key: RngKey,
    step: Callable[[RngKey, Any], tuple[Any, Any]],
    initial_state: Any,
    num_steps: int,
) -> tuple[Any, list, np.ndarray]:
    """Fold ``step`` over ``num_steps`` per-iteration child keys.

    Step ``i`` runs under ``fold_in(key, i)``, its input served by
    :func:`step_inputs`: when ``step`` has a draw atom (``step.draw``, set
    by :func:`bind` for every built-in kernel and by
    :func:`~mcbricks.vi.meanfield_vi`), each step gets its record
    from a block drawn in one call; any other step gets its key as an
    :class:`RngKey`.  A draw atom without a ``floats`` size counts as
    ``dim + 1`` floats per record, the size of a fixed kernel's row.

    Returns ``(final_state, infos, positions)`` where ``infos`` collects the
    per-step info records and ``positions`` is the ``(num_steps, dim)``
    array of visited positions.  States must expose a ``position`` field.
    """
    if num_steps < 0:
        raise ValueError("number of steps must be non-negative")
    state = initial_state
    dim = np.asarray(initial_state.position).shape[0]
    positions = np.empty((num_steps, dim))
    infos: list = []
    draw = getattr(step, "draw", None)
    inputs = step_inputs(key, draw, 0, num_steps, getattr(draw, "floats", dim + 1))
    # Kernels absorb transient non-finite arithmetic via their divergence
    # handling, so suppress the corresponding warnings for the whole sweep.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in inputs:
            try:
                state, info = step(row, state)
            except ChainError:
                raise
            except Exception as exc:
                raise ChainError(i, exc) from exc
            infos.append(info)
            positions[i] = state.position
    return state, infos, positions


def gradient_discrepancy(
    target: Target,
    key: RngKey,
    num_points: int = 100,
    scale: float = 1.0,
) -> float:
    """Largest relative gap between ``target.gradient`` and finite differences.

    Checks central differences with per-coordinate step
    ``h = 1e-5 * (1 + |x|)`` at ``num_points`` positions drawn from
    ``scale * N(0, I)``.  The gap is relative to ``max(1, |gradient|)``
    coordinate-wise.  A well-formed target stays below ``1e-4``.
    """
    worst = 0.0
    for point_key in split_key(key, num_points):
        x = scale * normal_vector(point_key, target.dim)
        grad = np.asarray(target.gradient(x), dtype=float)
        for j in range(target.dim):
            h = 1e-5 * (1.0 + abs(x[j]))
            up = x.copy()
            down = x.copy()
            up[j] += h
            down[j] -= h
            fd = (target.logdensity(up) - target.logdensity(down)) / (2.0 * h)
            rel = abs(fd - grad[j]) / max(1.0, abs(grad[j]))
            worst = max(worst, rel)
    return worst
