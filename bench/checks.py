"""Correctness gates for one CLI run: files, CSV/summary agreement, references.

Every repetition the benchmark makes passes through :func:`check_run`.  The
sample means a run reports are compared with a reference computed here,
never with a digest of an earlier run's output:

* ``std_normal`` and ``aniso_gauss`` have analytic moments;
* ``logistic_synth`` gets a posterior mean and log evidence from importance
  sampling on its Laplace approximation, drawn with a fixed NumPy generator
  (:func:`logistic_reference`).  It is computed once per program seed,
  outside the timed region.

The tolerance is in Monte-Carlo standard errors, taken from the run's own
per-dimension ESS plus the reference's own sampling error.  Variational
draws come from an approximation, not the posterior, so their means also
get an allowance of :data:`VI_BIAS_TOLERANCE` posterior standard deviations
for the mean-field fit and the optimiser's last-iterate noise.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# Largest admissible |sample mean - reference| in standard errors, per
# dimension.  Exceeded with probability ~6e-7 per dimension by a correct
# sampler whose ESS estimate is right.
MEAN_Z_TOLERANCE = 5.0
# Posterior standard deviations a variational mean may sit from the posterior
# mean before the gate counts standard errors (observed: at most 0.4).
VI_BIAS_TOLERANCE = 1.0
# Largest admissible |log Z estimate - reference| for tempered SMC, in nats.
LOG_Z_TOLERANCE = 1.0
# Importance draws for the logistic reference, and the generator seed that
# makes it a pure function of the data.
REFERENCE_DRAWS = 50_000
REFERENCE_GENERATOR_SEED = 20240217
# Relative gap allowed between the means re-parsed from samples.csv and the
# means in summary.json; both come from the same 17-digit values.
REPARSE_RTOL = 1e-12


@dataclass(frozen=True)
class Reference:
    """Posterior moments (and optionally log evidence) to check a run against."""

    mean: np.ndarray
    var: np.ndarray
    mean_se: np.ndarray
    log_evidence: Optional[float] = None


def analytic_reference(target: str, dim: int) -> Reference:
    """Moments of the Gaussian built-in targets, from their definitions."""
    if target == "std_normal":
        var = np.ones(dim)
    elif target == "aniso_gauss":
        var = np.ones(1) if dim == 1 else np.geomspace(1.0, 100.0, dim)
    else:
        raise ValueError(f"no analytic moments for {target!r}")
    return Reference(np.zeros(dim), var, np.zeros(dim))


def _log_joint(weights: np.ndarray, design: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Bernoulli-logit log likelihood plus normalised N(0, I) log prior, row-wise."""
    scores = weights @ design.T
    loglik = scores @ labels - np.logaddexp(0.0, scores).sum(axis=-1)
    dim = weights.shape[-1]
    return loglik - 0.5 * np.sum(weights * weights, axis=-1) - 0.5 * dim * math.log(2.0 * math.pi)


def logistic_reference(design: np.ndarray, labels: np.ndarray) -> Reference:
    """Posterior mean and log evidence of Bayesian logistic regression.

    Newton's method finds the mode; the proposal is a multivariate Student-t
    (5 degrees of freedom) with the Laplace covariance inflated by 1.5, whose
    heavier tails keep the importance weights bounded.
    """
    dim = design.shape[1]
    mode = np.zeros(dim)
    for _ in range(100):
        probs = 1.0 / (1.0 + np.exp(-(design @ mode)))
        grad = design.T @ (labels - probs) - mode
        hess = design.T @ (design * (probs * (1.0 - probs))[:, None]) + np.eye(dim)
        step = np.linalg.solve(hess, grad)
        mode = mode + step
        if np.max(np.abs(step)) < 1e-12:
            break
    probs = 1.0 / (1.0 + np.exp(-(design @ mode)))
    hess = design.T @ (design * (probs * (1.0 - probs))[:, None]) + np.eye(dim)
    cov = 1.5 * np.linalg.inv(hess)
    chol = np.linalg.cholesky(cov)
    dof = 5.0
    rng = np.random.default_rng(REFERENCE_GENERATOR_SEED)
    normals = rng.standard_normal((REFERENCE_DRAWS, dim))
    chi2 = rng.chisquare(dof, REFERENCE_DRAWS)
    scale = np.sqrt(dof / chi2)
    draws = mode + (normals @ chol.T) * scale[:, None]
    # Log density of the multivariate t proposal.
    maha = np.sum(np.linalg.solve(chol, (draws - mode).T) ** 2, axis=0)
    log_q = (
        math.lgamma(0.5 * (dof + dim)) - math.lgamma(0.5 * dof)
        - 0.5 * dim * math.log(dof * math.pi) - np.sum(np.log(np.diag(chol)))
        - 0.5 * (dof + dim) * np.log1p(maha / dof)
    )
    log_w = _log_joint(draws, design, labels) - log_q
    peak = np.max(log_w)
    w = np.exp(log_w - peak)
    total = np.sum(w)
    log_evidence = float(peak + math.log(total / REFERENCE_DRAWS))
    norm_w = w / total
    mean = norm_w @ draws
    centred = draws - mean
    var = norm_w @ (centred * centred)
    # Delta-method standard error of a self-normalised importance mean.
    mean_se = np.sqrt(np.sum((norm_w[:, None] * centred) ** 2, axis=0))
    return Reference(mean, var, mean_se, log_evidence)


def read_samples(path: Path) -> np.ndarray:
    """Parse samples.csv into its (rows, dims) value block, checking the header."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
    if header[:2] != ["chain", "draw"] or any(
        name != f"dim_{i}" for i, name in enumerate(header[2:])
    ):
        raise ValueError(f"unexpected samples.csv header {header[:4]}...")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != len(header):
        raise ValueError("samples.csv rows and header disagree in width")
    return table[:, 2:]


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class RunOutputs:
    """What the gate extracts from one run's output directory."""

    samples_digest: str
    ess: np.ndarray
    csv_bytes: int


def check_run(
    out_dir: Path,
    expected_files: tuple[str, ...],
    expected_rows: int,
    reference: Reference,
    parsed_means: Optional[dict],
    bias_tolerance: float = 0.0,
) -> tuple[Optional[RunOutputs], list[str]]:
    """Gate one finished run; return its outputs and the list of failures.

    ``parsed_means`` caches the per-dimension means re-parsed from a
    samples.csv, keyed by its digest, so byte-identical repetitions are
    parsed once.  ``bias_tolerance`` is the allowance, in posterior standard
    deviations, granted before the standard-error test (non-zero for VI).
    """
    problems: list[str] = []
    for name in expected_files:
        if not (out_dir / name).is_file():
            problems.append(f"missing output file {name}")
    if problems:
        return None, problems
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        per_dim = np.array(summary["per_dim"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable summary.json: {exc}"]
    digest = file_digest(out_dir / "samples.csv")
    csv_bytes = sum((out_dir / name).stat().st_size for name in expected_files if name.endswith(".csv"))
    if parsed_means is not None and digest in parsed_means:
        csv_means = parsed_means[digest]
    else:
        try:
            values = read_samples(out_dir / "samples.csv")
        except ValueError as exc:
            return None, [f"unparsable samples.csv: {exc}"]
        if values.shape[0] != expected_rows:
            problems.append(f"samples.csv has {values.shape[0]} rows, expected {expected_rows}")
        csv_means = values.mean(axis=0)
        if parsed_means is not None:
            parsed_means[digest] = csv_means
    if per_dim.ndim != 2 or per_dim.shape[1] != 4 or per_dim.shape[0] != reference.mean.shape[0]:
        return None, problems + [f"summary.json per_dim has shape {per_dim.shape}"]
    means, ess = per_dim[:, 0], per_dim[:, 2]
    if not np.all(np.isfinite(per_dim)):
        return None, problems + ["summary.json holds non-finite moments or diagnostics"]
    if csv_means.shape != means.shape or not np.allclose(csv_means, means, rtol=REPARSE_RTOL, atol=0.0):
        problems.append("means re-parsed from samples.csv differ from summary.json")
    stderr = np.sqrt(reference.var / ess + reference.mean_se**2)
    excess = np.abs(means - reference.mean) - bias_tolerance * np.sqrt(reference.var)
    z = np.maximum(excess, 0.0) / stderr
    if np.max(z) > MEAN_Z_TOLERANCE:
        worst = int(np.argmax(z))
        problems.append(
            f"dim {worst} mean {means[worst]:.4g} is {z[worst]:.1f} standard errors "
            f"beyond the allowance around the reference {reference.mean[worst]:.4g}"
        )
    if reference.log_evidence is not None and "smc" in summary:
        log_z = summary["smc"].get("log_z")
        if log_z is None or abs(log_z - reference.log_evidence) > LOG_Z_TOLERANCE:
            problems.append(f"log evidence {log_z} vs reference {reference.log_evidence:.4f}")
    outputs = RunOutputs(digest, ess, csv_bytes)
    return outputs, problems
