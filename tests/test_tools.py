"""Tests for the scripts under ``tools/``."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load("compare_outputs")


def _write_outputs(directory, summary, samples):
    directory.mkdir()
    (directory / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    (directory / "samples.csv").write_text(samples)


def test_compare_dirs_ignores_only_the_volatile_summary_keys(tmp_path):
    summary = {"per_dim": [[0.1, 1.0, 812.5, 1.001]], "acceptance_mean": 0.25, "divergences": 0}
    samples = "chain,draw,dim_0\n0,0,0.5\n0,1,-0.25\n"
    _write_outputs(tmp_path / "old", dict(summary, runtime_seconds=1.5,
                                          meta={"timestamp": "2026-01-01T00:00:00"}), samples)
    _write_outputs(tmp_path / "new", dict(summary, runtime_seconds=0.9,
                                          meta={"timestamp": "2026-02-02T00:00:00"}), samples)
    assert compare_outputs.compare_dirs(tmp_path / "old", tmp_path / "new") == []

    (tmp_path / "new" / "samples.csv").write_text(samples.replace("-0.25", "-0.35"))
    assert compare_outputs.compare_dirs(tmp_path / "old", tmp_path / "new") == ["samples.csv"]

    (tmp_path / "new" / "samples.csv").write_text(samples)
    (tmp_path / "new" / "summary.json").write_text(
        json.dumps(dict(summary, divergences=1), indent=2, sort_keys=True) + "\n"
    )
    assert compare_outputs.compare_dirs(tmp_path / "old", tmp_path / "new") == ["summary.json"]

    (tmp_path / "new" / "elbo_trace.csv").write_text("step,elbo\n")
    assert compare_outputs.compare_dirs(tmp_path / "old", tmp_path / "new") == [
        "elbo_trace.csv", "summary.json",
    ]


def test_compare_outputs_reads_every_benchmark_workload():
    labels = [label for label, _ in compare_outputs.command_lines([7])]
    for name in ("nuts_aniso", "smc_logistic_hmc", "vi_logistic", "rwm_wide"):
        assert f"{name} --seed 7" in labels
    assert len(labels) == 4 + sum(map(len, compare_outputs.EXTRA_SEEDS.values())) + len(
        compare_outputs.EXTRA_LINES
    )
