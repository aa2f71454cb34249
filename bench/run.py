"""Benchmark of the mcbricks command-line interface.

Run from the root of a checkout::

    python3 bench/run.py --workload nuts_aniso --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run model.  One benchmark process drives the program closed-loop: each
measured repetition is one fresh ``python -m mcbricks.cli ...`` child, and
the next starts only after the previous one has exited.  The child gets the
workload's argv and nothing else; its threads are its own business (at most
``--chain-workers``, here never more than ``nproc``), and inherited BLAS
thread settings are recorded, never changed.  Wall time is taken with the
benchmark's own clock, from launch to exit; the program's self-reported
``runtime_seconds`` is not used.

Inputs.  ``--seed`` derives a few program seeds (``seeds_per_run`` per
workload) and repetitions cycle through them.  The mix evens out
seed-to-seed differences in work (SMC stage counts, NUTS tree sizes, ESS),
which would otherwise dominate run-to-run spread.  Every metric is the
median over the repetitions, except the ESS metrics, which divide the ESS
summed over the program seeds by the sum of each seed's median wall time
or of its work.

Every repetition is gated (see ``checks.py``): exit code 0, the expected
files, means re-parsed from samples.csv equal to summary.json's, and sample
means within tolerance of a reference.  Repetitions of one program seed
must write byte-identical samples.csv; once per invocation nuts_aniso is
re-run with ``--chain-workers 1`` and must match.  Evaluation counts come
from an untimed counting run per program seed (``count.py``, two at a
time), whose samples.csv must match the children's as well.

``--trace 1`` reports per-layer metrics instead: after the untraced
repetitions of the first program seed, two in-process traced runs of the
same input, whose counts must agree exactly.  The smc_logistic_hmc trace
run also probes BLAS threading (``OPENBLAS_NUM_THREADS=1`` against the
inherited setting); the probe is informational and outside every metric.

The last line of standard output is the JSON result; the lines before it
give each metric with its unit, sample count and quartiles, the environment
and every failure.  A fuller record goes to ``.bench_out/``.

Not covered: ``sgmcmc`` (SGLD, SGHMC) has no CLI path, so no workload runs
it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import checks
import tracing
from environment import environment_record

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60.0
SETUP_SAMPLES = 5
BLAS_PROBE_PAIRS = 2
COUNT_PARALLEL = 2

# A fresh interpreter imports the CLI and builds the workload's target, as
# ``mcbricks run`` does before sampling: argv is kind, target, dim, seed.
SETUP_SNIPPET = """
import sys
import mcbricks.cli
from mcbricks.rng import make_key, split_key
from mcbricks.targets import make_builtin, make_tempered
kind, name, dim, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
key_data = split_key(make_key(seed), 2)[0]
if kind == "tempered":
    make_tempered(name, dim, key_data)
else:
    make_builtin(name, dim, data_key=key_data)
"""


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    target: str
    dim: int
    rows: int
    files: tuple[str, ...]
    seeds_per_run: int
    uses_gradients: bool = True
    bias_tolerance: float = 0.0
    tempered: bool = False


SAMPLE_FILES = ("samples.csv", "summary.json")
WORKLOADS = {
    # NUTS with window adaptation on a cheap 10-d target: rng, mcmc,
    # integrator and adaptation dominate; also runs the chain-worker threads.
    "nuts_aniso": Workload(
        ("run", "--target", "aniso_gauss", "--dim", "10", "--algorithm", "nuts",
         "--num-warmup", "500", "--num-samples", "1000", "--num-chains", "4",
         "--chain-workers", "2"),
        "aniso_gauss", 10, 4000, SAMPLE_FILES, seeds_per_run=3,
    ),
    # Tempered SMC with HMC moves on logistic regression: targets (a 200x5
    # matmul per call), the per-particle loop and the integrator dominate.
    "smc_logistic_hmc": Workload(
        ("run-smc", "--target", "logistic_synth", "--num-particles", "100",
         "--mutation", "hmc"),
        "logistic_synth", 5, 100, SAMPLE_FILES, seeds_per_run=6, tempered=True,
    ),
    # Mean-field VI: paired density and gradient calls per draw, no
    # integrator or accept rule; the only workload of the vi driver loop.
    "vi_logistic": Workload(
        ("run-vi", "--target", "logistic_synth", "--num-steps", "2000"),
        "logistic_synth", 5, 2000, SAMPLE_FILES + ("elbo_trace.csv",), seeds_per_run=2,
        bias_tolerance=checks.VI_BIAS_TOLERANCE,
    ),
    # Single-threaded gradient-free baseline writing a 40 MB samples.csv:
    # output formatting, normal draws and diagnostics dominate.
    "rwm_wide": Workload(
        ("run", "--target", "std_normal", "--dim", "50", "--algorithm", "rwm",
         "--proposal-scale", "0.34", "--num-warmup", "2000", "--num-samples", "10000",
         "--num-chains", "4", "--chain-workers", "1"),
        "std_normal", 50, 40000, SAMPLE_FILES, seeds_per_run=2, uses_gradients=False,
    ),
}

# End-to-end metrics.  "ess" is the harmonic mean over dimensions of the
# per-dimension ESS in summary.json: the ESS matching the average relative
# Monte-Carlo variance across dimensions.  The minimum over dimensions is
# reported too, but not gated: across program seeds it varies by 15-20% on
# smc_logistic_hmc and rwm_wide, against 3-9% for the harmonic mean.  A
# gradient-free sampler (rwm_wide) counts density evaluations as its
# gradient-equivalent unit of work.
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "grad_evals_per_s": "1/s",
    "density_evals_per_s": "1/s",
    "ess_per_s": "1/s",
    "ess_per_kgrad": "count",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
INFORMATIONAL_UNITS = {"min_ess_per_s": "1/s", "min_ess_per_kgrad": "count"}


class Abort(Exception):
    """The benchmark cannot run here at all; exit non-zero with no result."""


def program_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(value) for value in state]


def child_env(extra: Optional[dict] = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


class Launcher:
    """Client of ``launcher.py``, which runs the Python children one at a time."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args: list[str], log_path: Path, env: dict) -> tuple[int, float, float]:
        """Run ``python args...`` to completion; return (exit code, wall s, peak RSS MB)."""
        request = {
            "args": [sys.executable, *args], "env": env, "log": str(log_path), "timeout": CHILD_TIMEOUT_S,
        }
        self._process.stdin.write(json.dumps(request) + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        return reply["code"], reply["wall"], reply["rss_mb"]

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait(timeout=CHILD_TIMEOUT_S)
        self._process.stdout.close()


def cli_args(workload: Workload, seed: int, out_dir: Path, workers: Optional[str] = None) -> list[str]:
    argv = list(workload.argv)
    if workers is not None:
        argv[argv.index("--chain-workers") + 1] = workers
    return argv + ["--seed", str(seed), "--output-dir", str(out_dir)]


def summarize_samples(values: list[float]) -> dict:
    """Median, count, quartiles and range of ``values``."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
        median = statistics.median(ordered)
    else:
        q1 = median = q3 = ordered[0]
    return {"value": median, "n": len(ordered), "q1": q1, "q3": q3, "min": ordered[0], "max": ordered[-1]}


class Session:
    """One benchmark invocation on one workload: runs, gates, counts."""

    def __init__(self, name: str, seed: int, seconds: float, launcher: Launcher) -> None:
        self.name = name
        self.launcher = launcher
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.out = OUT / name
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.references: dict[int, checks.Reference] = {}
        self.parsed_means: dict = {}
        self.digests: dict[int, str] = {}
        self.ess: dict[int, np.ndarray] = {}
        self.env = child_env()

    # -- gating ---------------------------------------------------------

    def reference(self, seed: int) -> checks.Reference:
        if seed not in self.references:
            w = self.workload
            if w.target == "logistic_synth":
                from mcbricks.rng import make_key, split_key
                from mcbricks.targets import make_logistic_data

                data = make_logistic_data(split_key(make_key(seed), 2)[0])
                self.references[seed] = checks.logistic_reference(data.design, data.labels)
            else:
                self.references[seed] = checks.analytic_reference(w.target, w.dim)
        return self.references[seed]

    def gate(self, label: str, seed: int, out_dir: Path, code: int) -> Optional[checks.RunOutputs]:
        """Check one finished run; record a failure and return None if it fails."""
        self.attempted += 1
        if code != 0:
            self.fail(f"{label}: exit code {code}")
            return None
        w = self.workload
        outputs, problems = checks.check_run(
            out_dir, w.files, w.rows, self.reference(seed), self.parsed_means, w.bias_tolerance
        )
        if outputs is not None:
            expected = self.digests.setdefault(seed, outputs.samples_digest)
            if outputs.samples_digest != expected:
                problems.append("samples.csv differs from an earlier run of the same input")
            self.ess.setdefault(seed, outputs.ess)
        if problems:
            self.fail(*(f"{label}: {problem}" for problem in problems))
            return None
        return outputs

    def fail(self, *problems: str) -> None:
        """Count one failed run, described by ``problems``."""
        self.failed += 1
        self.failures.extend(problems)

    # -- runs -----------------------------------------------------------

    def run_child(self, label: str, seed: int, workers: Optional[str] = None, env: Optional[dict] = None):
        out_dir = self.out / label
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        args = ["-m", "mcbricks.cli", *cli_args(self.workload, seed, out_dir, workers)]
        code, wall, rss = self.launcher.run(args, self.out / f"{label}.log", env or self.env)
        outputs = self.gate(label, seed, out_dir, code)
        shutil.rmtree(out_dir, ignore_errors=True)
        return outputs, wall, rss

    def run_in_process(self, label: str, seed: int, tracer: tracing.Tracer):
        out_dir = self.out / label
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = cli_args(self.workload, seed, out_dir)
        code, wall = tracing.run_cli(argv, tracer)
        outputs = self.gate(label, seed, out_dir, code)
        shutil.rmtree(out_dir, ignore_errors=True)
        return outputs, wall

    def measure_setup(self) -> list[float]:
        w = self.workload
        kind = "tempered" if w.tempered else "builtin"
        args = ["-c", SETUP_SNIPPET, kind, w.target, str(w.dim), str(self.seed)]
        times = []
        for index in range(SETUP_SAMPLES + 1):
            code, wall, _ = self.launcher.run(args, self.out / "setup.log", self.env)
            self.attempted += 1
            if code != 0:
                self.fail(f"setup: exit code {code}")
            if index:  # the first one compiles bytecode; leave it out
                times.append(wall)
        return times

    def repetitions(self, seeds: list[int]) -> list[dict]:
        """Closed-loop timed runs cycling over ``seeds`` for the time budget."""
        for seed in seeds:
            self.reference(seed)  # outside the timed region
        reps = []
        started = time.perf_counter()
        while len(reps) < len(seeds) or time.perf_counter() - started < self.seconds:
            seed = seeds[len(reps) % len(seeds)]
            outputs, wall, rss = self.run_child(f"rep{len(reps)}", seed)
            reps.append({"seed": seed, "wall": wall, "rss": rss, "ok": outputs is not None})
        return reps


def count_evaluations(session: Session, seeds: list[int]) -> dict[int, dict]:
    """Evaluation counts per program seed, from untimed counting runs that go
    ``COUNT_PARALLEL`` at a time; their outputs pass the same gate."""
    pending, running, counts = list(seeds), [], {}
    try:
        while pending or running:
            while pending and len(running) < COUNT_PARALLEL:
                seed = pending.pop(0)
                out_dir = session.out / f"count-{seed}"
                shutil.rmtree(out_dir, ignore_errors=True)
                with open(session.out / f"count-{seed}.log", "wb") as log:
                    process = subprocess.Popen(
                        [sys.executable, str(BENCH / "count.py"), *cli_args(session.workload, seed, out_dir)],
                        stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL, env=session.env,
                    )
                running.append((seed, out_dir, process))
            seed, out_dir, process = running[0]
            stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
            running.pop(0)
            lines = stdout.decode().splitlines()
            failed = process.returncode != 0 or not lines
            reply = {"code": process.returncode} if failed else json.loads(lines[-1])
            if session.gate(f"count-{seed}", seed, out_dir, reply["code"]) is not None:
                counts[seed] = reply["counts"]
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        for _, _, process in running:
            process.kill()
            process.wait()
    return counts


def end_to_end(session: Session) -> tuple[dict, dict]:
    w = session.workload
    seeds = program_seeds(session.seed, w.seeds_per_run)
    setup = session.measure_setup()
    reps = session.repetitions(seeds)
    counts = count_evaluations(session, seeds)
    extra = {}
    if "--chain-workers" in w.argv and w.argv[w.argv.index("--chain-workers") + 1] != "1":
        session.run_child("replay-workers1", seeds[0], workers="1")
        extra["workers_replay_checked"] = True

    def work(seed: int) -> int:
        c = counts.get(seed, {})
        return c.get("gradient" if w.uses_gradients else "density", 0)

    def pooled(reduce, per_seed) -> dict:
        """ESS summed over the program seeds, divided by ``per_seed`` summed
        over them: pooling evens out the seed-to-seed spread of ESS."""
        ess_total = sum(reduce(session.ess[seed]) for seed in seeds if seed in session.ess)
        denominator = sum(per_seed(seed) for seed in seeds)
        value = ess_total / denominator if denominator else 0.0
        return dict(summarize_samples([value]), n=len(reps))

    def median_wall(seed: int) -> float:
        return statistics.median(rep["wall"] for rep in reps if rep["seed"] == seed)

    def kilo_work(seed: int) -> float:
        return work(seed) / 1000.0

    pooled_names = ("ess_per_s", "ess_per_kgrad", "min_ess_per_s", "min_ess_per_kgrad")
    per_rep = {
        name: [] for name in {**UNITS, **INFORMATIONAL_UNITS}
        if name not in pooled_names + ("setup_s", "success_ratio")
    }
    for rep in reps:
        seed, wall = rep["seed"], rep["wall"]
        values = {
            "wall_s": wall,
            "peak_rss_mb": rep["rss"],
            "grad_evals_per_s": work(seed) / wall,
            "density_evals_per_s": counts.get(seed, {}).get("density", 0) / wall,
        }
        for name, value in values.items():
            per_rep[name].append(value)
    fail_ratio = session.failed / session.attempted
    stats = {name: summarize_samples(values) for name, values in per_rep.items()}
    stats["setup_s"] = summarize_samples(setup)
    stats["ess_per_s"] = pooled(statistics.harmonic_mean, median_wall)
    stats["ess_per_kgrad"] = pooled(statistics.harmonic_mean, kilo_work)
    stats["min_ess_per_s"] = pooled(np.min, median_wall)
    stats["min_ess_per_kgrad"] = pooled(np.min, kilo_work)
    stats["success_ratio"] = summarize_samples([1.0 - fail_ratio])
    stats = {name: dict(stats[name], unit=unit) for name, unit in {**UNITS, **INFORMATIONAL_UNITS}.items()}
    record = {
        "program_seeds": seeds,
        "evaluation_counts": {str(seed): counts.get(seed) for seed in seeds},
        "ess": {str(seed): session.ess[seed].tolist() for seed in seeds if seed in session.ess},
        "repetitions": reps,
        "fail_ratio": fail_ratio,
        **extra,
    }
    return stats, record


def blas_probe(session: Session, seed: int) -> dict:
    """Time the workload with OPENBLAS_NUM_THREADS=1 and as inherited, alternating."""
    settings = {"openblas_threads_1": child_env({"OPENBLAS_NUM_THREADS": "1"}), "inherited": session.env}
    walls: dict[str, list[float]] = {key: [] for key in settings}
    for pair in range(BLAS_PROBE_PAIRS):
        for key, env in settings.items():
            _, wall, _ = session.run_child(f"probe-{key}-{pair}", seed, env=env)
            walls[key].append(wall)
    return {key: summarize_samples(values) for key, values in walls.items()}


def per_layer(session: Session) -> tuple[dict, dict]:
    seed = program_seeds(session.seed, session.workload.seeds_per_run)[0]
    reps = session.repetitions([seed])
    untraced = statistics.median(rep["wall"] for rep in reps)
    traced = []
    for index in range(2):
        tracer = tracing.Tracer(spans=True)
        outputs, wall = session.run_in_process(f"traced{index}", seed, tracer)
        traced.append((tracer, wall, outputs))
    tracer, wall, outputs = traced[0]
    metrics = tracing.layer_metrics(tracer, wall)
    metrics["cli.output_bytes"] = outputs.csv_bytes if outputs is not None else 0
    metrics["trace.overhead_ratio"] = wall / untraced - 1.0
    tracer.write(OUT / f"trace-{session.name}.npz")
    first, second = (
        dict(tracing.exact_counts(t), output_bytes=o.csv_bytes if o else None) for t, _, o in traced
    )
    if first != second:
        session.fail("traced runs of the same input disagree in their exact counts")
    record = {"program_seed": seed, "untraced_wall_s": summarize_samples([r["wall"] for r in reps]),
              "traced_wall_s": [w for _, w, _ in traced], "exact_counts": first}
    if session.name == "smc_logistic_hmc":
        record["blas_probe"] = blas_probe(session, seed)
    return metrics, record


def run_workload(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> tuple[dict, dict]:
    session = Session(name, seed, seconds, launcher)
    session.out.mkdir(parents=True, exist_ok=True)
    if trace:
        values, record = per_layer(session)
        metrics = {key: {"value": value, "unit": tracing.unit_of(key)} for key, value in values.items()}
    else:
        stats, record = end_to_end(session)
        metrics = {key: {"value": stats[key]["value"], "unit": unit} for key, unit in UNITS.items()}
        record["metrics"] = stats
    record.update(
        workload=name, trace=trace, attempted=session.attempted, failed=session.failed,
        failures=session.failures,
    )
    return metrics, record


def report(name: str, metrics: dict, record: dict) -> None:
    stats = record.get("metrics")
    for key, metric in (stats or metrics).items():
        line = f"{name:<17} {key:<32} {metric['value']:>14.6g} {metric['unit']}"
        if stats:
            line += f"  (n={metric['n']}; q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g})"
            if key in INFORMATIONAL_UNITS:
                line += " informational"
        print(line)
    if "fail_ratio" in record:
        print(f"{name:<17} {'fail_ratio':<32} {record['fail_ratio']:>14.6g} ratio  "
              f"({record['failed']} of {record['attempted']} runs failed)")
    if "blas_probe" in record:
        for key, s in record["blas_probe"].items():
            print(f"{name:<17} blas probe {key:<21} {s['value']:>14.6g} s  (median of n={s['n']}, "
                  f"min {s['min']:.4g}, max {s['max']:.4g}; informational)")
    for failure in record["failures"]:
        print(f"{name:<17} FAILED {failure}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "mcbricks" / "cli.py").is_file():
            raise Abort(f"no mcbricks sources under {SRC}; run from the root of a checkout")
        sys.path.insert(0, str(SRC))
        import mcbricks

        if Path(mcbricks.__file__).resolve().parent != (SRC / "mcbricks").resolve():
            raise Abort(f"imported mcbricks from {mcbricks.__file__}, not from {SRC}")
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    environment = environment_record(ROOT, args.seed)
    print("environment " + json.dumps(environment, sort_keys=True))
    combined: dict = {}
    attempted = failed = 0
    launcher = Launcher()
    try:
        for name in names:
            metrics, record = run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
            record["environment"] = environment
            record_path = OUT / f"{name}-trace{args.trace}.json"
            record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            report(name, metrics, record)
            attempted += record["attempted"]
            failed += record["failed"]
            if len(names) == 1:
                combined = metrics
            else:
                combined.update({f"{name}.{key}": value for key, value in metrics.items()})
    finally:
        launcher.close()
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": combined}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
