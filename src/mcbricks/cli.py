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
sampling key); SMC and VI consume the run key directly.  Worker threads
only change scheduling, never key derivation, so concurrent chains write
exactly the bytes sequential execution writes.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .adaptation import StepSizeSearchError, window_adaptation
from .core import ChainError, SamplingAlgorithm, run_chain
from .diagnostics import DegenerateChainsError, summarize
from .mcmc import ghmc, hmc, mala, nuts, rwm
from .rng import RngKey, fold_in, make_key, normal_matrix, split_key
from .smc import SmcStagnationError, run_tempered_smc
from .smc.resampling import RESAMPLING_METHODS, DegenerateWeightsError
from .targets import (
    MCMC_TARGET_NAMES,
    SMC_TARGET_NAMES,
    TARGETS,
    conjugate_gaussian_log_evidence,
    make_builtin,
    make_tempered,
)
from .vi import adam, meanfield_init, sgd, vi_sample, vi_step
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
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {action.dest!r} expects a boolean, got {raw!r}")
    value = action.type(raw) if callable(action.type) else raw
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
    registry: dict[str, argparse.ArgumentParser] = {}

    run = subcommands.add_parser("run", help="sample a target with an MCMC algorithm")
    _add_common(run, MCMC_TARGET_NAMES)
    run.add_argument("--algorithm", choices=ALGORITHMS, default="nuts")
    run.add_argument("--num-warmup", type=int, default=1000)
    run.add_argument("--num-samples", type=int, default=2000)
    run.add_argument("--num-chains", type=int, default=4)
    run.add_argument("--chain-workers", type=int, default=1,
                     help="threads for concurrent chains (output is identical)")
    run.add_argument("--step-size", type=float, default=None,
                     help="fixed step for mala/ghmc; search start for hmc/nuts")
    run.add_argument("--proposal-scale", type=float, default=1.0)
    run.add_argument("--num-integration-steps", type=int, default=20)
    run.add_argument("--persistence", type=float, default=0.9)
    run.add_argument("--slice-jitter", type=float, default=0.0)
    run.add_argument("--target-accept", type=float, default=0.8)
    run.add_argument("--max-depth", type=int, default=10)
    run.add_argument("--divergence-threshold", type=float, default=1000.0)
    run.add_argument("--mass", choices=("diagonal", "dense"), default="diagonal")
    run.set_defaults(handler=_cmd_run)
    registry["run"] = run

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
    registry["run-smc"] = smc

    vi = subcommands.add_parser("run-vi", help="fit a mean-field Gaussian approximation")
    _add_common(vi, MCMC_TARGET_NAMES)
    vi.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    vi.add_argument("--learning-rate", type=float, default=0.05)
    vi.add_argument("--num-steps", type=int, default=2000)
    vi.add_argument("--num-elbo-samples", type=int, default=16)
    vi.add_argument("--num-draws", type=int, default=2000)
    vi.set_defaults(handler=_cmd_run_vi)
    registry["run-vi"] = vi

    targets_cmd = subcommands.add_parser("targets", help="inspect built-in targets")
    targets_sub = targets_cmd.add_subparsers(dest="targets_command", required=True)
    listing = targets_sub.add_parser("list", help="list built-in targets")
    listing.set_defaults(handler=_cmd_targets_list)
    registry["targets"] = targets_cmd

    check = subcommands.add_parser("selftest", help="run the invariant quick-suite")
    check.set_defaults(handler=_cmd_selftest)
    registry["selftest"] = check

    return parser, registry


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
    ``%.17g`` (round-trip exact), comma-separated.  One format call per
    row and one write per block of rows.
    """
    line = "%d," * (len(leading) + 1) + ",".join(["%.17g"] * values.shape[1]) + "\n"
    for start in range(0, values.shape[0], _CSV_BLOCK_ROWS):
        block = values[start:start + _CSV_BLOCK_ROWS].tolist()
        handle.write("".join([
            line % (*leading, index, *row) for index, row in enumerate(block, start)
        ]))


def _write_samples_csv(path: Path, chains: list[np.ndarray]) -> None:
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
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _write_outputs(args, chains, infos, started: float, extras: Optional[dict] = None) -> Path:
    """Write samples.csv and summary.json into ``--output-dir``; return it."""
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_samples_csv(out_dir / "samples.csv", chains)
    stack = np.stack(chains)
    summary = summarize(stack, infos)
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
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(_json_ready(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out_dir


def _make_mcmc_algorithm(args, target, key_warmup) -> tuple[SamplingAlgorithm, object]:
    """Build the sampling algorithm for one chain, running warmup if needed.

    Returns the algorithm plus the state to start sampling from.
    """
    initial_position = np.zeros(target.dim)
    name = args.algorithm
    if name in ("hmc", "nuts"):
        if args.num_warmup < 20:
            raise ConfigError("hmc/nuts need --num-warmup >= 20 for window adaptation")
        result = window_adaptation(
            key_warmup,
            target,
            initial_position,
            args.num_warmup,
            kernel_family=name,
            target_accept=args.target_accept,
            mass=args.mass,
            initial_step_size=args.step_size if args.step_size else 1.0,
            num_integration_steps=args.num_integration_steps,
            max_depth=args.max_depth,
            divergence_threshold=args.divergence_threshold,
        )
        if name == "nuts":
            algorithm = nuts.as_algorithm(
                target, result.step_size, result.metric,
                args.max_depth, args.divergence_threshold,
            )
        else:
            algorithm = hmc.as_algorithm(
                target, result.step_size, args.num_integration_steps,
                result.metric, args.divergence_threshold,
            )
        return algorithm, result.state
    if name == "rwm":
        algorithm = rwm.as_algorithm(target, args.proposal_scale)
    elif name == "mala":
        algorithm = mala.as_algorithm(target, args.step_size if args.step_size else 0.1)
    elif name == "ghmc":
        algorithm = ghmc.as_algorithm(
            target,
            args.step_size if args.step_size else 0.1,
            args.persistence,
            None,
            args.slice_jitter,
        )
    else:
        raise ConfigError(f"unknown algorithm {name!r}")
    state = algorithm.init(initial_position)
    if args.num_warmup > 0:
        state, _, _ = run_chain(key_warmup, algorithm.step, state, args.num_warmup)
    return algorithm, state


def _run_one_chain(args, target, chain_key: RngKey) -> tuple[np.ndarray, list]:
    key_warmup, key_sampling = split_key(chain_key, 2)
    algorithm, state = _make_mcmc_algorithm(args, target, key_warmup)
    _, infos, positions = run_chain(key_sampling, algorithm.step, state, args.num_samples)
    return positions, infos


def _cmd_run(args: argparse.Namespace) -> int:
    key_data, key_run = _root_keys(args)
    name, dim = _resolve_target_dim(args, "std_normal")
    for count_name in ("num_warmup", "num_samples", "num_chains"):
        if getattr(args, count_name) < 1 and count_name != "num_warmup":
            raise ConfigError(f"--{count_name.replace('_', '-')} must be positive")
    if args.num_samples < 4:
        raise ConfigError("--num-samples must be at least 4 for diagnostics")
    if args.num_warmup < 0:
        raise ConfigError("--num-warmup must be non-negative")
    if args.chain_workers < 1:
        raise ConfigError("--chain-workers must be positive")
    started = time.perf_counter()
    builtin = make_builtin(name, dim, data_key=key_data)
    target = builtin.target
    chain_keys = [fold_in(key_run, c) for c in range(args.num_chains)]
    if args.chain_workers > 1:
        with concurrent.futures.ThreadPoolExecutor(args.chain_workers) as pool:
            results = list(pool.map(
                lambda key: _run_one_chain(args, target, key), chain_keys
            ))
    else:
        results = [_run_one_chain(args, target, key) for key in chain_keys]
    chains = [positions for positions, _ in results]
    infos = [info for _, chain_infos in results for info in chain_infos]
    _write_outputs(args, chains, infos, started)
    return 0


def _smc_mutation_factory(args):
    name = args.mutation
    if name == "rwm":
        return lambda target: rwm.as_algorithm(target, args.proposal_scale)
    if name == "mala":
        return lambda target: mala.as_algorithm(target, args.step_size)
    return lambda target: hmc.as_algorithm(
        target, args.step_size, args.num_integration_steps
    )


def _cmd_run_smc(args: argparse.Namespace) -> int:
    key_data, key_run = _root_keys(args)
    name, dim = _resolve_target_dim(args, "gauss_conjugate")
    if args.num_particles < 2:
        raise ConfigError("--num-particles must be at least 2")
    if args.num_mutation_steps < 0:
        raise ConfigError("--num-mutation-steps must be non-negative")
    started = time.perf_counter()
    tempered, details = make_tempered(name, dim, key_data)

    def prior_sampler(key: RngKey, count: int) -> np.ndarray:
        return normal_matrix(key, count, tempered.dim)

    result = run_tempered_smc(
        key_run,
        tempered,
        prior_sampler,
        args.num_particles,
        _smc_mutation_factory(args),
        num_mutation_steps=args.num_mutation_steps,
        resample_method=args.resample,
        target_ess_ratio=args.target_ess_ratio,
        max_stages=args.max_stages,
    )
    extras = {"smc": {"ladder": result.ladder, "log_z": result.log_z}}
    if name == "gauss_conjugate":
        extras["smc"]["analytic_log_evidence"] = conjugate_gaussian_log_evidence(
            details["observations"]
        )
    _write_outputs(args, [result.ensemble.particles], None, started, extras)
    return 0


def _cmd_run_vi(args: argparse.Namespace) -> int:
    key_data, key_run = _root_keys(args)
    name, dim = _resolve_target_dim(args, "std_normal")
    if args.num_steps < 1:
        raise ConfigError("--num-steps must be positive")
    if args.num_draws < 4:
        raise ConfigError("--num-draws must be at least 4 for diagnostics")
    started = time.perf_counter()
    builtin = make_builtin(name, dim, data_key=key_data)
    target = builtin.target
    optimizer = adam(args.learning_rate) if args.optimizer == "adam" else sgd(args.learning_rate)
    state = meanfield_init(np.zeros(target.dim), optimizer)
    elbo_trace = np.empty(args.num_steps)
    for step in range(args.num_steps):
        state, info = vi_step(
            fold_in(key_run, step), state, target, optimizer, args.num_elbo_samples
        )
        elbo_trace[step] = info.elbo
    draws = vi_sample(fold_in(key_run, args.num_steps), state, args.num_draws)
    extras = {"vi": {"final_elbo": float(elbo_trace[-1])}}
    out_dir = _write_outputs(args, [draws], None, started, extras)
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


def _cmd_selftest(args: argparse.Namespace) -> int:
    return selftest_module.run_selftest()


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in registry:
            args = _apply_config_file(parser, registry[args.command], argv, args)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StepSizeSearchError, SmcStagnationError, DegenerateWeightsError,
            DegenerateChainsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ChainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
