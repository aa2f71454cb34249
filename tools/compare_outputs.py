"""Compare what the command-line interface writes in two source trees, run by run.

Each line runs once per tree as ``python -m mcbricks.cli ... --output-dir out``,
with ``PYTHONPATH=<tree>/src`` and ``PYTHONDONTWRITEBYTECODE=1`` (bytecode left
in a tree would skew its later timings), in a fresh temporary working
directory, so neither tree is written.  The two runs must agree on the exit
code, stdout, stderr and every output file; ``summary.json`` is compared
without its ``meta`` block and ``runtime_seconds``, the two values a run may
not repeat.  One line is printed per run, and the exit status is 1 if any run
differs.

The lines are the benchmark's workloads (``WORKLOADS`` in ``bench/run.py``,
imported read-only) at each of ``--seeds``; the same workloads at a few more
seeds; and lines no workload covers: an odd draw count, one chain, GHMC, a
dense metric, SMC with MALA moves, VI on the funnel, a run that fails
numerically (exit 3), and ``logistic_synth`` at other block sizes (1,000
density-only particles, 37 particles with gradients, NUTS's blocks of one).

Usage: python tools/compare_outputs.py OLD_TREE NEW_TREE [--seeds 1 2]

Standard library only, apart from what ``bench/run.py`` imports (numpy).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
# Summary keys whose values differ from run to run by design.
VOLATILE_KEYS = ("meta", "runtime_seconds")
# Workload lines at seeds beyond --seeds.
EXTRA_SEEDS = {"rwm_wide": (21, 22, 23, 24), "nuts_aniso": (5,), "smc_logistic_hmc": (5,),
               "vi_logistic": (5,)}
EXTRA_LINES = (
    "run --target banana --algorithm mala --step-size 0.05 --num-warmup 100 "
    "--num-samples 1001 --num-chains 3 --seed 2",
    "run --target funnel --dim 4 --algorithm ghmc --num-warmup 200 --num-samples 301 "
    "--num-chains 1 --seed 2",
    "run --target banana --algorithm hmc --mass dense --num-warmup 300 --num-samples 400 "
    "--num-chains 2 --seed 1",
    "run-smc --target gauss_conjugate --dim 3 --mutation mala --seed 2",
    "run-vi --target funnel --dim 3 --seed 2",
    "run --target logistic_synth --algorithm mala --num-warmup 200 --num-samples 200 "
    "--num-chains 2 --seed 1",
    "run-smc --target logistic_synth --seed 3",
    "run-smc --target logistic_synth --num-particles 37 --mutation mala --seed 2",
    "run --target logistic_synth --algorithm nuts --num-warmup 150 --num-samples 150 "
    "--num-chains 1 --seed 2",
)


def workload_argvs() -> dict[str, tuple[str, ...]]:
    """Each benchmark workload's command line, without ``--seed``, from ``bench/run.py``."""
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return {name: workload.argv for name, workload in module.WORKLOADS.items()}


def command_lines(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every line to compare."""
    lines = []
    for name, argv in workload_argvs().items():
        for seed in [*seeds, *EXTRA_SEEDS.get(name, ())]:
            lines.append((f"{name} --seed {seed}", [*argv, "--seed", str(seed)]))
    lines.extend((line, line.split()) for line in EXTRA_LINES)
    return lines


def _masked_summary(text: bytes) -> str:
    payload = json.loads(text)
    for key in VOLATILE_KEYS:
        payload.pop(key, None)
    return json.dumps(payload, indent=2, sort_keys=True)


def compare_dirs(old: Path, new: Path) -> list[str]:
    """The names of the output files in which ``old`` and ``new`` differ.

    A file present on one side only counts as differing.
    """
    names = sorted({path.name for directory in (old, new) if directory.is_dir()
                    for path in directory.iterdir()})
    differing = []
    for name in names:
        if not ((old / name).is_file() and (new / name).is_file()):
            differing.append(name)
            continue
        old_bytes, new_bytes = (old / name).read_bytes(), (new / name).read_bytes()
        if name == "summary.json":
            same = _masked_summary(old_bytes) == _masked_summary(new_bytes)
        else:
            same = old_bytes == new_bytes
        if not same:
            differing.append(name)
    return differing


def run_line(tree: Path, argv: list[str], work: Path) -> tuple[subprocess.CompletedProcess, float]:
    """Run one CLI line from ``tree``'s sources in ``work``; the process and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    process = subprocess.run(
        [sys.executable, "-m", "mcbricks.cli", *argv, "--output-dir", "out"],
        cwd=work, env=env, capture_output=True, timeout=600,
    )
    return process, time.perf_counter() - started


def compare_line(old_tree: Path, new_tree: Path, argv: list[str]) -> tuple[list[str], str]:
    """What differs between the two trees' runs of ``argv``, and a note on the runs."""
    with tempfile.TemporaryDirectory() as scratch:
        runs = {}
        for side, tree in (("old", old_tree), ("new", new_tree)):
            work = Path(scratch) / side
            work.mkdir()
            runs[side] = run_line(tree, argv, work)
        (old, old_s), (new, new_s) = runs["old"], runs["new"]
        differing = [field for field in ("returncode", "stdout", "stderr")
                     if getattr(old, field) != getattr(new, field)]
        differing += compare_dirs(Path(scratch) / "old" / "out", Path(scratch) / "new" / "out")
        files = len(list((Path(scratch) / "new" / "out").glob("*")))
    return differing, f"exit {new.returncode}, {files} files, {old_s:.2f} s old, {new_s:.2f} s new"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="seeds of the benchmark workload lines (default: 1 2)")
    args = parser.parse_args(argv)
    lines = command_lines(args.seeds)
    failures = 0
    for label, line in lines:
        differing, note = compare_line(args.old_tree.resolve(), args.new_tree.resolve(), line)
        failures += bool(differing)
        verdict = "DIFF " + ", ".join(differing) if differing else "same"
        print(f"{verdict:<24} {label}  ({note})", flush=True)
    print(f"{failures} of {len(lines)} runs differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
