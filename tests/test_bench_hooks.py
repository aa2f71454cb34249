"""Guard for the hooks the benchmark's tracer relies on.

``bench/tracing.py`` measures a CLI run from the outside: it wraps every
sampler's ``build_kernel`` (and the kernels it returns) and the target
callables inside whatever ``targets.make_builtin`` and
``targets.make_tempered`` return.  A refactor that built kernels or targets
some other way would leave the benchmark counting zero steps or gradients;
these tests fail instead.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mcbricks import targets
from mcbricks.rng import make_key

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("argv", [
    ["run", "--algorithm", "nuts", "--num-warmup", "100", "--num-samples", "10",
     "--num-chains", "1"],
    ["run-smc", "--target", "logistic_synth", "--num-particles", "10",
     "--mutation", "hmc"],
])
def test_traced_cli_run_sees_kernel_steps_and_gradients(tmp_path, argv):
    tracer = tracing.Tracer()
    code, _ = tracing.run_cli(argv + ["--seed", "1", "--output-dir", str(tmp_path)], tracer)
    assert code == 0
    assert tracer.kernel["steps"] > 0
    assert tracer.eval_counts()["gradient"] > 0


def test_every_registry_row_builds_under_the_tracer():
    tracer = tracing.Tracer(spans=False)
    uninstall = tracing.install(tracer)
    try:
        for spec in targets.TARGETS.values():
            x = np.zeros(spec.default_dim)
            before = tracer.eval_counts()
            if spec.builtin is not None:
                target = targets.make_builtin(spec.name, spec.default_dim, make_key(0)).target
                assert target.dim == spec.default_dim
                target.logdensity(x)
                target.gradient(x)
            if spec.tempered is not None:
                tempered, _ = targets.make_tempered(spec.name, spec.default_dim, make_key(0))
                assert tempered.dim == spec.default_dim
                tempered.log_likelihood(x)
                tempered.grad_likelihood(x)
            after = tracer.eval_counts()
            calls = (spec.builtin is not None) + (spec.tempered is not None)
            assert after["density"] - before["density"] == calls, spec.name
            assert after["gradient"] - before["gradient"] == calls, spec.name
    finally:
        uninstall()


def test_traced_vi_run_counts_every_density_and_gradient(tmp_path):
    """Sharing the linear predictor inside logistic_synth hides no evaluation.

    Five VI steps of 16 ELBO draws each ask for 80 gradients and 80 densities.
    """
    tracer = tracing.Tracer()
    argv = ["run-vi", "--target", "logistic_synth", "--num-steps", "5",
            "--seed", "1", "--output-dir", str(tmp_path)]
    code, _ = tracing.run_cli(argv, tracer)
    assert code == 0
    counts = tracer.eval_counts()
    assert (counts["density"], counts["gradient"]) == (80, 80)


@pytest.mark.parametrize("mutation, particles, moves, leapfrogs", [
    ("hmc", 12, 3, 4),
    ("mala", 12, 3, 1),
    ("rwm", 12, 3, 1),
    ("hmc", 100, 5, 10),  # the smc_logistic_hmc benchmark line: 31200 and 30600 at seed 1
])
def test_traced_smc_run_counts_every_row_of_the_ensemble(tmp_path, mutation, particles, moves,
                                                         leapfrogs):
    """Stepping the particle cloud as one ensemble hides no evaluation.

    Each of S stages evaluates the likelihood of every particle to reweight,
    the tempered density and gradient of every particle to start the
    mutation, and then one density and gradient per particle and leapfrog
    (HMC) or per move (MALA); RWM asks for densities only.  The traced
    kernel is called once per move, for the whole ensemble.
    """
    tracer = tracing.Tracer()
    argv = ["run-smc", "--target", "logistic_synth", "--mutation", mutation,
            "--num-particles", str(particles), "--num-mutation-steps", str(moves),
            "--num-integration-steps", str(leapfrogs), "--seed", "1",
            "--output-dir", str(tmp_path)]
    code, _ = tracing.run_cli(argv, tracer)
    assert code == 0
    stages = len(json.loads((tmp_path / "summary.json").read_text())["smc"]["ladder"])
    per_move = moves * (leapfrogs if mutation == "hmc" else 1)
    counts = tracer.eval_counts()
    assert counts["density"] == stages * particles * (2 + per_move)
    assert counts["gradient"] == (0 if mutation == "rwm" else stages * particles * (1 + per_move))
    assert tracer.kernel["steps"] == stages * moves
    if (mutation, particles) == ("hmc", 100):
        assert stages == 6 and (counts["density"], counts["gradient"]) == (31200, 30600)


@pytest.mark.parametrize("algorithm", ["rwm", "hmc"])
def test_traced_run_counts_every_step_of_every_chain(tmp_path, algorithm):
    """Drawing a chain's randomness in blocks still calls the traced kernel once per step.

    Warmup steps count too: RWM's warmup is a plain chain, and
    ``window_adaptation`` calls a traced HMC kernel on every warmup step.
    Each RWM chain asks for one density at its start and one per step.
    """
    chains, warmup, samples = 2, 30, 300
    tracer = tracing.Tracer()
    argv = ["run", "--algorithm", algorithm, "--target", "std_normal", "--dim", "3",
            "--num-chains", str(chains), "--num-warmup", str(warmup),
            "--num-samples", str(samples), "--seed", "1", "--output-dir", str(tmp_path)]
    code, _ = tracing.run_cli(argv, tracer)
    assert code == 0
    assert tracer.kernel["steps"] == chains * (warmup + samples)
    if algorithm == "rwm":
        assert tracer.eval_counts()["density"] == chains * (1 + warmup + samples)
