"""Command-line harness: deterministic runs over built-in targets.

Subcommands: ``run`` (MCMC), ``run-smc`` (tempered SMC), ``run-vi``
(mean-field VI), ``targets list``, and ``selftest``.  Every run requires an
explicit ``--seed``; there is no wall-clock fallback, so a command line
fully determines every output byte.  The only nondeterministic values are
the measured ``runtime_seconds`` and the timestamp inside the summary's
``meta`` block.

Key discipline: the root key is ``make_key(seed)`` and is split once into
``(data key, run key)``.  Synthetic-data targets consume the data key.
MCMC chain c derives ``fold_in(run key, c)``, split into (warmup key,
sampling key); SMC and VI consume the run key directly.  Chains run one
after another.  ``--chain-workers`` is still accepted and validated, but it
no longer changes how chains run (worker threads gave no speedup: they
serialise on the interpreter lock), so every setting writes the same bytes.

Exit codes: 0 success; 2 configuration error, including a setting the library
rejects while a run is built (before any sampling) and an output directory
that cannot be created or written (checked before anything is built, and
again while writing); 3 numerical failure while sampling; 141 when the
reader closes standard output early.

``run`` holds its draws once, in one ``(chains, draws, dim)`` array that
each chain fills as it finishes; the summary and ``samples.csv`` both read
it.  ``run-smc`` and ``run-vi`` pass their draws as a one-chain view.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, adaptation
from .adaptation import StepSizeSearchError, window_adaptation
from .core import ChainError, SamplingAlgorithm, run_chain
from .diagnostics import DegenerateChainsError, summarize
from .mcmc import ghmc, hmc, mala, nuts, rwm
from .rng import RngKey, fold_in, make_key, normal_matrix, split_key
from .smc import SmcStagnationError, check_settings, run_tempered_smc
from .smc.resampling import RESAMPLING_METHODS, DegenerateWeightsError
from .targets import (
    MCMC_TARGET_NAMES,
    SMC_TARGET_NAMES,
    TARGETS,
    conjugate_gaussian_log_evidence,
    make_builtin,
    make_tempered,
)
from .vi import adam, meanfield_vi, sgd
from . import selftest as selftest_module

__all__ = ["main", "ConfigError"]

ALGORITHMS = ("rwm", "mala", "hmc", "ghmc", "nuts")
MUTATIONS = ("rwm", "mala", "hmc")
# Execution details that do not affect the statistical output; they are
# left out of the summary's config echo so byte-level comparisons work
# across worker counts and output locations.
_ECHO_EXCLUDED = {"output_dir", "config", "chain_workers", "handler", "command"}


class ConfigError(Exception):
    """Invalid configuration detected after argument parsing."""


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _convert_config_value(action: argparse.Action, raw: str):
    try:
        value = action.type(raw) if callable(action.type) else raw
    except ValueError as exc:
        raise ConfigError(
            f"config key {action.dest!r} expects {action.type.__name__}, got {raw!r}"
        ) from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config key {action.dest!r} must be one of {tuple(action.choices)}, got {value!r}"
        )
    return value


def _apply_config_file(
    parser: argparse.ArgumentParser,
    subparser: argparse.ArgumentParser,
    argv: list[str],
    args: argparse.Namespace,
) -> argparse.Namespace:
    """Fold config-file values in as defaults, keeping flag precedence."""
    if not getattr(args, "config", None):
        return args
    entries = _read_config_file(args.config)
    actions = {action.dest: action for action in subparser._actions}
    overrides = {}
    for key, raw in entries.items():
        if key not in actions or key in ("config", "help"):
            raise ConfigError(f"unknown config key {key!r}")
        overrides[key] = _convert_config_value(actions[key], raw)
    subparser.set_defaults(**overrides)
    # Re-parse: explicit command-line flags still win over the new defaults.
    return parser.parse_args(argv)


def _add_common(sub: argparse.ArgumentParser, target_names) -> None:
    sub.add_argument("--target", choices=target_names, default=None,
                     help="built-in target name")
    sub.add_argument("--dim", type=int, default=None,
                     help="target dimension (defaults per target)")
    sub.add_argument("--seed", type=int, default=None,
                     help="64-bit run seed (required; no wall-clock default)")
    sub.add_argument("--output-dir", default="./out",
                     help="directory for samples and summary files")
    sub.add_argument("--config", default=None,
                     help="key = value file; command-line flags override it")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="mcbricks",
        description="Composable MCMC/SMC/VI runner with deterministic seeding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subcommands = parser.add_subparsers(dest="command", required=True)

    run = subcommands.add_parser("run", help="sample a target with an MCMC algorithm")
    _add_common(run, MCMC_TARGET_NAMES)
    run.add_argument("--algorithm", choices=ALGORITHMS, default="nuts")
    run.add_argument("--num-warmup", type=int, default=1000)
    run.add_argument("--num-samples", type=int, default=2000)
    run.add_argument("--num-chains", type=int, default=4)
    run.add_argument("--chain-workers", type=int, default=1,
                     help="accepted for compatibility; chains run one after "
                          "another at any setting (output is identical)")
    run.add_argument("--step-size", type=float, default=None,
                     help="fixed step for mala/ghmc; search start for hmc/nuts")
    run.add_argument("--proposal-scale", type=float, default=1.0)
    run.add_argument("--num-integration-steps", type=int, default=20)
    run.add_argument("--persistence", type=float, default=0.9)
    run.add_argument("--slice-jitter", type=float, default=0.0)
    run.add_argument("--target-accept", type=float, default=0.8)
    run.add_argument("--max-depth", type=int, default=nuts.DEFAULT_MAX_DEPTH)
    run.add_argument("--divergence-threshold", type=float, default=hmc.DEFAULT_DIVERGENCE_THRESHOLD)
    run.add_argument("--mass", choices=("diagonal", "dense"), default="diagonal")
    run.set_defaults(handler=_cmd_run)

    smc = subcommands.add_parser("run-smc", help="tempered SMC from prior to posterior")
    _add_common(smc, SMC_TARGET_NAMES)
    smc.add_argument("--num-particles", type=int, default=1000)
    smc.add_argument("--num-mutation-steps", type=int, default=5)
    smc.add_argument("--mutation", choices=MUTATIONS, default="rwm")
    smc.add_argument("--proposal-scale", type=float, default=0.5)
    smc.add_argument("--step-size", type=float, default=0.2)
    smc.add_argument("--num-integration-steps", type=int, default=10)
    smc.add_argument("--resample", choices=RESAMPLING_METHODS, default="systematic")
    smc.add_argument("--target-ess-ratio", type=float, default=0.5)
    smc.add_argument("--max-stages", type=int, default=1000)
    smc.set_defaults(handler=_cmd_run_smc)

    vi = subcommands.add_parser("run-vi", help="fit a mean-field Gaussian approximation")
    _add_common(vi, MCMC_TARGET_NAMES)
    vi.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    vi.add_argument("--learning-rate", type=float, default=0.05)
    vi.add_argument("--num-steps", type=int, default=2000)
    vi.add_argument("--num-elbo-samples", type=int, default=16)
    vi.add_argument("--num-draws", type=int, default=2000)
    vi.set_defaults(handler=_cmd_run_vi)

    targets_cmd = subcommands.add_parser("targets", help="inspect built-in targets")
    targets_sub = targets_cmd.add_subparsers(dest="targets_command", required=True)
    listing = targets_sub.add_parser("list", help="list built-in targets")
    listing.set_defaults(handler=_cmd_targets_list)

    check = subcommands.add_parser("selftest", help="run the invariant quick-suite")
    check.set_defaults(handler=lambda args: selftest_module.run_selftest())
    # Subcommand name -> its parser, for folding in a --config file.
    return parser, subcommands.choices


# The fewest draws (per chain, particles, VI draws) the diagnostics accept.
_MIN_DRAWS = 4


def _at_least(flag: str, value: int, minimum: int) -> None:
    """Raise a ``ConfigError`` naming ``flag`` unless its count ``value`` is at least ``minimum``."""
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, not {value}")


def _root_keys(args: argparse.Namespace) -> list[RngKey]:
    """``make_key(--seed)`` split into (data key, run key)."""
    if args.seed is None:
        raise ConfigError("--seed is required (no wall-clock default)")
    return split_key(make_key(int(args.seed)), 2)


def _resolve_target_dim(args: argparse.Namespace, default_target: str) -> tuple[str, int]:
    spec = TARGETS[args.target if args.target is not None else default_target]
    dim = args.dim if args.dim is not None else spec.default_dim
    try:
        spec.check_dim(dim)
    except ValueError as exc:
        raise ConfigError(f"--dim {dim}: {exc}") from exc
    return spec.name, dim


def _echo_config(args: argparse.Namespace) -> dict:
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in _ECHO_EXCLUDED or callable(value):
            continue
        echo[key] = value
    return echo


# Rows formatted per write; bounds the Python floats alive at any time.
_CSV_BLOCK_ROWS = 64


def _write_csv_rows(handle, leading: tuple, values: np.ndarray) -> None:
    """Write one line per row of the 2-D ``values``.

    A line is the ``leading`` integers, the row index, then every value as
    ``%.17g`` (round-trip exact), comma-separated.  A row whose 64-bit
    patterns equal the previous row's (a rejected MCMC move) reuses that
    row's value text, so ``0.0``/``-0.0`` and NaN payloads are still
    formatted apart and the bytes are those of formatting every row.
    One write per block of rows.
    """
    prefix = "%d," * (len(leading) + 1)
    body = ",".join(["%.17g"] * values.shape[1]) + "\n"
    rows = values.shape[0]
    text = ""
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, rows)
        first = max(start - 1, 0)
        window = np.ascontiguousarray(values[first:stop], dtype=np.float64)
        bits = window.view(np.uint64)
        repeats = (bits[1:] == bits[:-1]).all(axis=1).tolist()
        if start == 0:
            repeats.insert(0, False)
        block = window[start - first:].tolist()
        parts = []
        for index, row, repeat in zip(range(start, stop), block, repeats):
            if not repeat:
                text = body % tuple(row)
            parts.append(prefix % (*leading, index))
            parts.append(text)
        handle.write("".join(parts))


def _write_samples_csv(path: Path, chains) -> None:
    """Write each chain's ``(draws, dim)`` rows: the rows of a stack, or any sequence."""
    dim = chains[0].shape[1]
    header = "chain,draw," + ",".join(f"dim_{i}" for i in range(dim))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for chain_index, positions in enumerate(chains):
            _write_csv_rows(handle, (chain_index,), positions)


def _json_ready(value):
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if math.isnan(value) else value
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _write_outputs(args, stack: np.ndarray, infos, started: float,
                   extras: Optional[dict] = None) -> Path:
    """Write samples.csv and summary.json into ``--output-dir``; return it.

    ``stack`` holds the draws once, shaped ``(chains, draws, dim)``: the
    summary and samples.csv both read it.  The draws are summarised first,
    so a numerical failure there (exit 3) writes no file at all.
    """
    summary = summarize(stack, infos)
    out_dir = Path(args.output_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_samples_csv(out_dir / "samples.csv", stack)
    per_dim = [
        [summary.mean[d], summary.std[d], summary.ess[d], summary.rhat[d]]
        for d in range(stack.shape[2])
    ]
    payload = {
        "config": _echo_config(args),
        "per_dim": per_dim,
        "acceptance_mean": summary.acceptance_mean,
        "divergences": summary.divergences,
        "runtime_seconds": time.perf_counter() - started,
        "meta": {"timestamp": datetime.now(timezone.utc).isoformat()},
    }
    if extras:
        payload.update(extras)
    with _writing(out_dir), open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(_json_ready(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out_dir


def _check_output_dir(path: str) -> None:
    """Raise a ``ConfigError`` unless ``--output-dir`` can be made and written.

    The nearest existing path among ``path`` and its parents must be a
    directory this process may write and enter.  Nothing is created: the
    check runs before a run is built, so a bad directory costs no sampling.
    """
    nearest = os.path.abspath(path)
    while not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if not (os.path.isdir(nearest) and os.access(nearest, os.W_OK | os.X_OK)):
        raise ConfigError(f"--output-dir {path!r}: {nearest!r} is not a writable directory")


@contextlib.contextmanager
def _writing(out_dir: Path):
    """Report an ``OSError`` raised while ``out_dir`` is created or written as a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {str(out_dir)!r}: {exc}") from exc


def _sampler(args, name: str, target, step_size: float, metric=None) -> SamplingAlgorithm:
    """The ``name`` sampler on ``target``, its other settings taken from ``args``.

    Builders are looked up on their modules at call time, so rebinding one
    (as the benchmark's tracer does) takes effect.
    """
    if name == "rwm":
        return rwm.as_algorithm(target, args.proposal_scale)
    if name == "mala":
        return mala.as_algorithm(target, step_size)
    threshold = getattr(args, "divergence_threshold", hmc.DEFAULT_DIVERGENCE_THRESHOLD)
    if name == "hmc":
        return hmc.as_algorithm(target, step_size, args.num_integration_steps, metric, threshold)
    if name == "ghmc":
        return ghmc.as_algorithm(target, step_size, args.persistence, metric, args.slice_jitter)
    return nuts.as_algorithm(target, step_size, metric, args.max_depth, threshold)


@contextlib.contextmanager
def _building():
    """Report a ``ValueError`` raised while a run is built as a config error.

    Only construction goes in here: once sampling starts, a ``ValueError``
    (say, from a metric built on a degenerate window) is not a bad setting.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    key_data, key_run = _root_keys(args)
    name, dim = _resolve_target_dim(args, "std_normal")
    _at_least("--num-samples", args.num_samples, _MIN_DRAWS)
    _at_least("--num-chains", args.num_chains, 1)
    _at_least("--num-warmup", args.num_warmup, 0)
    _at_least("--chain-workers", args.chain_workers, 1)
    if args.algorithm == "nuts" and args.max_depth == 0:
        raise ConfigError("--max-depth must be at least 1 for nuts: a depth-0 tree never moves")
    started = time.perf_counter()
    adapted = args.algorithm in ("hmc", "nuts")
    step_size = args.step_size if args.step_size is not None else (1.0 if adapted else 0.1)
    with _building():
        target = make_builtin(name, dim, data_key=key_data).target
        # hmc/nuts build this only as a check; each chain adapts its own.
        shared = _sampler(args, args.algorithm, target, step_size)
        if adapted:
            adaptation.check_settings(args.num_warmup, args.target_accept)

    # Each chain writes its draws into its row as it finishes.
    stack = np.empty((args.num_chains, args.num_samples, target.dim))
    infos = []
    for c in range(args.num_chains):
        key_warmup, key_sampling = split_key(fold_in(key_run, c), 2)
        algorithm = shared
        if adapted:
            result = window_adaptation(
                key_warmup, target, np.zeros(target.dim), args.num_warmup,
                kernel_family=args.algorithm, target_accept=args.target_accept,
                mass=args.mass, initial_step_size=step_size,
                num_integration_steps=args.num_integration_steps,
                max_depth=args.max_depth, divergence_threshold=args.divergence_threshold,
            )
            algorithm = _sampler(args, args.algorithm, target, result.step_size, result.metric)
            state = result.state
        else:
            state = algorithm.init(np.zeros(target.dim))
            state, _, _ = run_chain(key_warmup, algorithm.step, state, args.num_warmup)
        _, chain_infos, stack[c] = run_chain(key_sampling, algorithm.step, state, args.num_samples)
        infos += chain_infos
    extras = {"nuts": _tree_counters(infos, args.max_depth)} if args.algorithm == "nuts" else None
    _write_outputs(args, stack, infos, started, extras)
    return 0


def _tree_counters(infos: list, max_depth: int) -> dict:
    """Mean leapfrogs per step and the count of steps at each tree depth ``0..max_depth``."""
    leapfrogs = sum(info.num_integration_steps for info in infos)
    depths = np.bincount([info.tree_depth for info in infos], minlength=max_depth + 1)
    return {"mean_leapfrogs_per_step": leapfrogs / len(infos), "tree_depth_counts": depths.tolist()}


def _cmd_run_smc(args: argparse.Namespace) -> int:
    key_data, key_run = _root_keys(args)
    name, dim = _resolve_target_dim(args, "gauss_conjugate")
    _at_least("--num-particles", args.num_particles, _MIN_DRAWS)
    started = time.perf_counter()

    def mutation(target) -> SamplingAlgorithm:
        return _sampler(args, args.mutation, target, args.step_size)

    with _building():
        check_settings(
            args.num_particles, args.num_mutation_steps, args.target_ess_ratio, args.max_stages
        )
        tempered, details = make_tempered(name, dim, key_data)
        mutation(tempered.at_temperature(0.0))

    result = run_tempered_smc(
        key_run, tempered, lambda key, count: normal_matrix(key, count, tempered.dim),
        args.num_particles, mutation, num_mutation_steps=args.num_mutation_steps,
        resample_method=args.resample, target_ess_ratio=args.target_ess_ratio,
        max_stages=args.max_stages,
    )
    stages = [
        {"lambda": info.lmbda, "ess": info.ess, "mean_acceptance": info.mean_acceptance,
         "log_z_increment": info.log_z_increment}
        for info in result.stages
    ]
    extras = {"smc": {"ladder": result.ladder, "log_z": result.log_z, "stages": stages}}
    if name == "gauss_conjugate":
        extras["smc"]["analytic_log_evidence"] = conjugate_gaussian_log_evidence(
            details["observations"]
        )
    _write_outputs(args, result.ensemble.particles[None], None, started, extras)
    return 0


def _cmd_run_vi(args: argparse.Namespace) -> int:
    key_data, key_run = _root_keys(args)
    name, dim = _resolve_target_dim(args, "std_normal")
    _at_least("--num-steps", args.num_steps, 1)
    _at_least("--num-draws", args.num_draws, _MIN_DRAWS)
    started = time.perf_counter()
    with _building():
        target = make_builtin(name, dim, data_key=key_data).target
        optimizer = (adam if args.optimizer == "adam" else sgd)(args.learning_rate)
        algorithm = meanfield_vi(target, optimizer, args.num_elbo_samples)
    initial = algorithm.init(np.zeros(target.dim))
    state, infos, _ = run_chain(key_run, algorithm.step, initial, args.num_steps)
    elbo_trace = np.array([info.elbo for info in infos])
    # A diverging fit overflows to non-finite draws; summarize reports those
    # as a numerical failure, so the warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        draws = algorithm.sample(fold_in(key_run, args.num_steps), state, args.num_draws)
    extras = {"vi": {"final_elbo": float(elbo_trace[-1])}}
    out_dir = _write_outputs(args, draws[None], None, started, extras)
    with _writing(out_dir):
        with open(out_dir / "elbo_trace.csv", "w", encoding="utf-8", newline="\n") as handle:
            handle.write("step,elbo\n")
            _write_csv_rows(handle, (), elbo_trace[:, None])
    return 0


def _cmd_targets_list(args: argparse.Namespace) -> int:
    print(f"{'name':<16}{'commands':<14}{'dimensions':<24}analytic")
    # Grouped by the commands that accept a target, in registry order within a group.
    for spec in sorted(TARGETS.values(), key=lambda spec: spec.commands):
        print(f"{spec.name:<16}{spec.commands:<14}{spec.dimensions:<24}{spec.analytic}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, registry[args.command], argv, args)
        if hasattr(args, "output_dir"):
            _check_output_dir(args.output_dir)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChainError, StepSizeSearchError, SmcStagnationError, DegenerateWeightsError,
            DegenerateChainsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the interpreter's
        # final flush of what is still buffered cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # what a shell reports for a program killed by SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
