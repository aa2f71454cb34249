"""End-to-end tests for the command-line harness."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcbricks import cli
from mcbricks.cli import main
from mcbricks.core import run_chain
from mcbricks.mcmc import ghmc, mala, rwm
from mcbricks.rng import fold_in, make_key, normal_matrix, split_key
from mcbricks.targets import std_normal


def _run_cli(tmp_path, name, extra):
    out_dir = tmp_path / name
    code = main(extra + ["--output-dir", str(out_dir)])
    return code, out_dir


def _read_masked_summary(out_dir):
    payload = json.loads((out_dir / "summary.json").read_text())
    payload.pop("runtime_seconds", None)
    payload.pop("meta", None)
    return payload


def _quick_run_args(seed="1", algorithm="rwm"):
    return [
        "run",
        "--target", "std_normal",
        "--dim", "2",
        "--seed", seed,
        "--algorithm", algorithm,
        "--num-warmup", "50",
        "--num-samples", "40",
        "--num-chains", "2",
    ]


# ------------------------------------------------------------- run


def test_run_produces_samples_and_summary(tmp_path):
    code, out_dir = _run_cli(tmp_path, "a", _quick_run_args())
    assert code == 0
    lines = (out_dir / "samples.csv").read_text().splitlines()
    assert lines[0] == "chain,draw,dim_0,dim_1"
    assert len(lines) == 1 + 2 * 40
    assert lines[1].startswith("0,0,")
    payload = json.loads((out_dir / "summary.json").read_text())
    assert set(payload) == {
        "config", "per_dim", "acceptance_mean", "divergences",
        "runtime_seconds", "meta",
    }
    assert len(payload["per_dim"]) == 2
    assert all(len(row) == 4 for row in payload["per_dim"])
    assert 0.0 <= payload["acceptance_mean"] <= 1.0
    assert payload["config"]["seed"] == 1
    assert payload["config"]["algorithm"] == "rwm"
    for hidden in ("output_dir", "config", "chain_workers"):
        assert hidden not in payload["config"]


def test_run_is_byte_deterministic(tmp_path):
    _, first = _run_cli(tmp_path, "a", _quick_run_args())
    _, second = _run_cli(tmp_path, "b", _quick_run_args())
    assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()
    assert _read_masked_summary(first) == _read_masked_summary(second)


def test_run_concurrent_chains_match_sequential(tmp_path):
    _, seq = _run_cli(tmp_path, "seq", _quick_run_args() + ["--chain-workers", "1"])
    _, par = _run_cli(tmp_path, "par", _quick_run_args() + ["--chain-workers", "4"])
    assert (seq / "samples.csv").read_bytes() == (par / "samples.csv").read_bytes()
    assert _read_masked_summary(seq) == _read_masked_summary(par)


def test_run_seeds_change_the_samples(tmp_path):
    _, first = _run_cli(tmp_path, "a", _quick_run_args(seed="1"))
    _, second = _run_cli(tmp_path, "b", _quick_run_args(seed="2"))
    assert (first / "samples.csv").read_bytes() != (second / "samples.csv").read_bytes()


def test_run_respects_the_documented_key_layout(tmp_path):
    """The CSV must be reproducible from the library with the same keys."""
    args = [
        "run", "--target", "std_normal", "--dim", "2", "--seed", "9",
        "--algorithm", "rwm", "--num-warmup", "0", "--num-samples", "25",
        "--num-chains", "2", "--proposal-scale", "1.0",
    ]
    code, out_dir = _run_cli(tmp_path, "layout", args)
    assert code == 0
    rows = (out_dir / "samples.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")[2:]] for line in rows])
    csv_chains = parsed.reshape(2, 25, 2)

    target = std_normal(2).target
    algorithm = rwm.as_algorithm(target, 1.0)
    _, key_run = split_key(make_key(9), 2)
    for chain in range(2):
        _, key_sampling = split_key(fold_in(key_run, chain), 2)
        _, _, positions = run_chain(
            key_sampling, algorithm.step, algorithm.init(np.zeros(2)), 25
        )
        np.testing.assert_array_equal(csv_chains[chain], positions)


@pytest.mark.parametrize("module", [rwm, mala, ghmc], ids=lambda m: m.__name__)
def test_fixed_kernel_is_built_once_for_all_chains(tmp_path, monkeypatch, module):
    original = module.build_kernel
    builds = []

    def counting_build_kernel(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "build_kernel", counting_build_kernel)
    algorithm = module.__name__.rsplit(".", 1)[1]
    code, _ = _run_cli(tmp_path, algorithm, _quick_run_args(algorithm=algorithm)
                       + ["--num-chains", "3", "--chain-workers", "2"])
    assert code == 0
    assert len(builds) == 1


def test_run_nuts_with_adaptation(tmp_path):
    args = [
        "run", "--target", "std_normal", "--dim", "1", "--seed", "4",
        "--algorithm", "nuts", "--num-warmup", "100", "--num-samples", "30",
        "--num-chains", "1",
    ]
    code, out_dir = _run_cli(tmp_path, "nuts", args)
    assert code == 0
    assert (out_dir / "samples.csv").exists()


def test_run_validates_configuration(tmp_path):
    base = ["run", "--target", "std_normal", "--seed", "1"]
    assert main(base + ["--algorithm", "nuts", "--num-warmup", "10"]) == 2
    assert main(base + ["--num-samples", "3"]) == 2
    assert main(base + ["--dim", "0"]) == 2
    assert main(base + ["--num-chains", "0"]) == 2
    assert main(base + ["--chain-workers", "0"]) == 2
    assert main(["run", "--target", "std_normal"]) == 2  # seed is mandatory


def test_run_rejects_unknown_names_at_parse_time():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--target", "cauchy", "--seed", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--algorithm", "gibbs", "--seed", "1"])
    assert excinfo.value.code == 2


def test_run_degenerate_chain_exits_numerically(tmp_path):
    """A step size so large every proposal rejects leaves constant chains."""
    args = [
        "run", "--target", "funnel", "--dim", "2", "--seed", "1",
        "--algorithm", "mala", "--step-size", "1e6",
        "--num-warmup", "0", "--num-samples", "10", "--num-chains", "2",
    ]
    code, _ = _run_cli(tmp_path, "bad", args)
    assert code == 3


# ------------------------------------------------------------- run-smc


def _quick_smc_args(seed="5"):
    return [
        "run-smc",
        "--target", "gauss_conjugate",
        "--dim", "1",
        "--seed", seed,
        "--num-particles", "50",
        "--mutation", "rwm",
        "--num-mutation-steps", "2",
    ]


def test_run_smc_outputs(tmp_path):
    code, out_dir = _run_cli(tmp_path, "smc", _quick_smc_args())
    assert code == 0
    lines = (out_dir / "samples.csv").read_text().splitlines()
    assert lines[0] == "chain,draw,dim_0"
    assert len(lines) == 1 + 50
    payload = json.loads((out_dir / "summary.json").read_text())
    assert payload["acceptance_mean"] is None
    ladder = payload["smc"]["ladder"]
    assert ladder[-1] == 1.0
    assert all(b > a for a, b in zip(ladder, ladder[1:]))
    assert isinstance(payload["smc"]["log_z"], float)
    assert isinstance(payload["smc"]["analytic_log_evidence"], float)


def test_run_smc_is_byte_deterministic(tmp_path):
    _, first = _run_cli(tmp_path, "a", _quick_smc_args())
    _, second = _run_cli(tmp_path, "b", _quick_smc_args())
    assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()
    assert _read_masked_summary(first) == _read_masked_summary(second)


def test_run_smc_stagnation_exits_numerically(tmp_path):
    args = _quick_smc_args() + ["--target-ess-ratio", "0.99", "--max-stages", "1"]
    code, _ = _run_cli(tmp_path, "stall", args)
    assert code == 3


def test_run_smc_validates_particles(tmp_path):
    assert main(["run-smc", "--seed", "1", "--num-particles", "1"]) == 2


# ------------------------------------------------------------- run-vi


def _quick_vi_args(seed="7"):
    return [
        "run-vi",
        "--target", "std_normal",
        "--dim", "2",
        "--seed", seed,
        "--num-steps", "50",
        "--num-draws", "20",
    ]


def test_run_vi_outputs(tmp_path):
    code, out_dir = _run_cli(tmp_path, "vi", _quick_vi_args())
    assert code == 0
    samples = (out_dir / "samples.csv").read_text().splitlines()
    assert samples[0] == "chain,draw,dim_0,dim_1"
    assert len(samples) == 1 + 20
    trace = (out_dir / "elbo_trace.csv").read_text().splitlines()
    assert trace[0] == "step,elbo"
    assert len(trace) == 1 + 50
    payload = json.loads((out_dir / "summary.json").read_text())
    assert payload["acceptance_mean"] is None
    final_elbo = float(trace[-1].split(",")[1])
    assert payload["vi"]["final_elbo"] == pytest.approx(final_elbo, rel=1e-15)


def test_run_vi_is_byte_deterministic(tmp_path):
    _, first = _run_cli(tmp_path, "a", _quick_vi_args())
    _, second = _run_cli(tmp_path, "b", _quick_vi_args())
    assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()
    assert (first / "elbo_trace.csv").read_bytes() == (second / "elbo_trace.csv").read_bytes()


def test_run_vi_validates_counts(tmp_path):
    assert main(["run-vi", "--seed", "1", "--num-steps", "0"]) == 2
    assert main(["run-vi", "--seed", "1", "--num-draws", "3"]) == 2


# ------------------------------------------------------------- CSV bytes

_AWKWARD_FLOATS = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-300, 0.1, 1e16, 1e17,
    -123456789.125, 1.0 / 3.0,
]


def _awkward_table(rows, cols, seed):
    """Normals with every awkward float placed in several rows and columns."""
    table = np.random.default_rng(seed).standard_normal((rows, cols)) * 1e3
    flat = table.reshape(-1)
    for offset in range(0, flat.size, 97):
        flat[offset:offset + len(_AWKWARD_FLOATS)] = _AWKWARD_FLOATS[: flat.size - offset]
    return table


def _per_cell_csv(header, prefixes, tables):
    lines = [header]
    for prefix, table in zip(prefixes, tables):
        for index, row in enumerate(table):
            cells = [format(float(v), ".17g") for v in row]
            lines.append(",".join(prefix + [str(index)] + cells))
    return "\n".join(lines) + "\n"


def test_samples_csv_bytes_match_per_cell_formatting(tmp_path):
    from mcbricks.cli import _write_samples_csv

    # Row counts above one write block and not a multiple of common block sizes.
    chains = [_awkward_table(1001, 7, 1), _awkward_table(37, 7, 2), _awkward_table(513, 7, 3)]
    path = tmp_path / "samples.csv"
    _write_samples_csv(path, chains)
    header = "chain,draw," + ",".join(f"dim_{i}" for i in range(7))
    expected = _per_cell_csv(header, [["0"], ["1"], ["2"]], chains)
    assert path.read_bytes() == expected.encode("utf-8")


def test_elbo_trace_bytes_match_per_cell_formatting(tmp_path, monkeypatch):
    import mcbricks.vi as vi_module

    elbos = _awkward_table(1001, 1, 4)[:, 0]
    steps = iter(elbos)

    def fake_vi_step(key, state, target, optimizer, num_samples):
        return state, type("Info", (), {"elbo": next(steps)})()

    monkeypatch.setattr(vi_module, "vi_step", fake_vi_step)
    code, out_dir = _run_cli(tmp_path, "vi", [
        "run-vi", "--target", "std_normal", "--dim", "2", "--seed", "1",
        "--num-steps", str(elbos.size), "--num-draws", "4",
    ])
    assert code == 0
    expected = _per_cell_csv("step,elbo", [[]], [elbos[:, None]])
    assert (out_dir / "elbo_trace.csv").read_bytes() == expected.encode("utf-8")


# Quiet NaNs with different payloads and signs: the same text, different bits.
_NAN_PAYLOADS = np.array(
    [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64
).view(np.float64)
_RUN_CHANGES = ("fresh", "zero_sign", "nan_payload")


def _runs():
    """Run lengths, each with how its row differs from the previous run's row."""
    run = st.tuples(st.integers(1, 200), st.sampled_from(_RUN_CHANGES))
    return st.lists(run, min_size=1, max_size=5)


def _repeating_table(runs, cols, seed, first_row=None):
    """Rows of ``_awkward_table`` repeated in runs.

    A ``zero_sign`` run differs from the run before only in one column
    holding ``0.0`` against ``-0.0``, a ``nan_payload`` run only in one
    column's NaN bits.  ``first_row``, when given, is the first run's row.
    A paired run that would change a column the previous row must keep
    (any column of a given first row, or the one pairing the previous row
    with its own predecessor) takes a fresh row instead.
    """
    source = _awkward_table(len(runs), cols, seed)
    rows = [source[0].copy() if first_row is None else first_row.copy()]
    kept = range(cols) if first_row is not None else ()
    for index in range(1, len(runs)):
        change, column = runs[index][1], index % cols
        if change == "fresh" or column in kept:
            rows.append(source[index].copy())
            kept = ()
            continue
        previous, row = rows[-1], rows[-1].copy()
        if change == "zero_sign":
            previous[column], row[column] = 0.0, -0.0
        else:
            previous[column], row[column] = _NAN_PAYLOADS[index % 2], _NAN_PAYLOADS[2]
        rows.append(row)
        kept = (column,)
    return np.repeat(np.array(rows), [length for length, _ in runs], axis=0)


@settings(max_examples=60, deadline=None)
@given(
    chain_runs=st.lists(_runs(), min_size=1, max_size=3),
    cols=st.sampled_from([1, 2, 7]),
    seed=st.integers(0, 2**16),
)
# A run from row 0 across rows 63/64, another across 127/128, one column.
@example(
    chain_runs=[[(70, "fresh"), (1, "zero_sign"), (1, "fresh"), (1, "nan_payload"),
                 (50, "fresh"), (10, "zero_sign"), (200, "fresh"), (3, "nan_payload")]],
    cols=1, seed=0,
)
# Runs ending exactly on block edges, in several chains.
@example(
    chain_runs=[[(64, "fresh"), (64, "zero_sign"), (1, "fresh")],
                [(63, "fresh"), (1, "fresh"), (66, "zero_sign")],
                [(128, "fresh"), (1, "nan_payload")]],
    cols=7, seed=1,
)
def test_samples_csv_with_repeated_rows_matches_per_cell_formatting(
    tmp_path_factory, chain_runs, cols, seed
):
    from mcbricks.cli import _write_samples_csv

    chains = []
    for offset, runs in enumerate(chain_runs):
        # Each chain after the first starts on the previous chain's last row.
        first_row = chains[-1][-1] if chains else None
        chains.append(_repeating_table(runs, cols, seed + offset, first_row))
    assert all(a[-1].tobytes() == b[0].tobytes() for a, b in zip(chains, chains[1:]))
    path = tmp_path_factory.mktemp("repeats") / "samples.csv"
    _write_samples_csv(path, chains)
    header = "chain,draw," + ",".join(f"dim_{i}" for i in range(cols))
    expected = _per_cell_csv(header, [[str(c)] for c in range(len(chains))], chains)
    assert path.read_bytes() == expected.encode("utf-8")


def test_mostly_rejected_run_writes_the_per_cell_formatting_of_its_values(tmp_path):
    code, out_dir = _run_cli(tmp_path, "rwm", [
        "run", "--target", "std_normal", "--dim", "3", "--seed", "3",
        "--algorithm", "rwm", "--proposal-scale", "3", "--num-warmup", "10",
        "--num-samples", "300", "--num-chains", "2",
    ])
    assert code == 0
    written = (out_dir / "samples.csv").read_bytes()
    header, *lines = written.decode("utf-8").splitlines()
    chains = [[], []]
    for line in lines:
        chain, draw, *cells = line.split(",")
        assert int(draw) == len(chains[int(chain)])
        chains[int(chain)].append([float(cell) for cell in cells])
    chains = [np.array(rows) for rows in chains]
    # Most proposals are rejected, so most rows repeat the row before.
    repeats = sum(int((c[1:] == c[:-1]).all(axis=1).sum()) for c in chains)
    assert repeats > len(lines) // 2
    expected = _per_cell_csv(header, [["0"], ["1"]], chains)
    assert written == expected.encode("utf-8")


# ------------------------------------------------------------- other commands


def test_targets_list_mentions_every_builtin(capsys):
    assert main(["targets", "list"]) == 0
    printed = capsys.readouterr().out
    for name in (
        "std_normal", "aniso_gauss", "banana", "funnel",
        "logistic_synth", "gauss_conjugate",
    ):
        assert name in printed


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "all 9 checks passed" in capsys.readouterr().out


# ------------------------------------------------------------- config files


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# quick smoke settings\n"
        "algorithm = rwm\n"
        "num-warmup = 5\n"
        "num_samples = 12\n"
    )
    base = [
        "run", "--target", "std_normal", "--dim", "1", "--seed", "3",
        "--num-chains", "1", "--config", str(config),
    ]
    code, out_dir = _run_cli(tmp_path, "cfg", base)
    assert code == 0
    assert len((out_dir / "samples.csv").read_text().splitlines()) == 1 + 12

    code, out_dir = _run_cli(tmp_path, "cfg2", base + ["--num-samples", "8"])
    assert code == 0
    assert len((out_dir / "samples.csv").read_text().splitlines()) == 1 + 8


def test_config_file_errors_exit_2(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("not_a_flag = 1\n")
    assert main(["run", "--seed", "1", "--config", str(bad_key)]) == 2

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("algorithm = gibbs\n")
    assert main(["run", "--seed", "1", "--config", str(bad_value)]) == 2

    assert main(["run", "--seed", "1", "--config", str(tmp_path / "missing.cfg")]) == 2

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just some words\n")
    assert main(["run", "--seed", "1", "--config", str(malformed)]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--target", "banana", "--dim", "1"],
    ["run-vi", "--target", "funnel", "--dim", "1"],
    ["run-smc", "--target", "logistic_synth", "--dim", "3"],
])
def test_dimension_outside_the_target_rule_exits_2(tmp_path, capsys, argv):
    code, out_dir = _run_cli(tmp_path, "bad_dim", argv + ["--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --dim ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


# ------------------------------------------------------------- exit codes

# Each flag is rejected by the library while the run is built, before any
# sampling; "CONFIG" stands for a config file holding ``num-warmup = 1.5``.
_BAD_SETTINGS = [
    ["run", "--algorithm", "ghmc", "--persistence", "2"],
    ["run", "--algorithm", "rwm", "--proposal-scale", "-1"],
    ["run", "--algorithm", "nuts", "--max-depth", "-1"],
    ["run", "--algorithm", "nuts", "--max-depth", "0"],
    ["run", "--algorithm", "mala", "--step-size", "-1"],
    ["run", "--algorithm", "mala", "--step-size", "0"],
    ["run", "--algorithm", "hmc", "--num-integration-steps", "0"],
    ["run", "--algorithm", "ghmc", "--slice-jitter", "2"],
    ["run-smc", "--target-ess-ratio", "1.5"],
    ["run-smc", "--mutation", "hmc", "--step-size", "-1"],
    ["run-vi", "--learning-rate", "-1"],
    ["run-vi", "--num-elbo-samples", "0"],
    ["run", "--config", "CONFIG"],
    ["run", "--algorithm", "nuts", "--num-warmup", "10"],
    ["run-smc", "--num-particles", "1"],
    ["run-smc", "--num-particles", "3"],
]


def _assert_one_error_line(err):
    assert err.startswith("error: "), err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", _BAD_SETTINGS, ids=" ".join)
def test_a_setting_rejected_while_building_exits_2(tmp_path, capsys, argv):
    config = tmp_path / "bad.cfg"
    config.write_text("num-warmup = 1.5\n")
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    code, out_dir = _run_cli(tmp_path, "bad", argv + ["--seed", "1"])
    assert code == 2
    _assert_one_error_line(capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    _quick_run_args(), _quick_smc_args(), _quick_vi_args(),
], ids=lambda argv: argv[0])
def test_an_output_dir_that_cannot_be_created_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code, out_dir = _run_cli(blocker, "out", argv)
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert str(out_dir) in err
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("below", ["", "out"], ids=["a_file", "below_a_file"])
@pytest.mark.parametrize("argv", [
    _quick_run_args(), _quick_run_args(algorithm="nuts"), _quick_smc_args(), _quick_vi_args(),
], ids=["run-rwm", "run-nuts", "run-smc", "run-vi"])
def test_an_unwritable_output_dir_exits_2_before_anything_is_built(
    tmp_path, capsys, monkeypatch, argv, below
):
    # A regular file in the way: os.access grants root write everywhere,
    # but no one can make a directory inside a file.
    def reached(*args, **kwargs):
        raise AssertionError("sampling started with an unwritable --output-dir")

    for name in ("run_chain", "window_adaptation", "run_tempered_smc", "make_builtin",
                 "make_tempered"):
        monkeypatch.setattr(cli, name, reached)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code, out_dir = _run_cli(blocker, below, argv)
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "--output-dir" in err and str(out_dir) in err
    assert [path.name for path in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "not a directory\n"


def test_run_holds_its_draws_once(tmp_path):
    # The draws' bytes of 2 chains x 3001 draws in 40 dimensions.
    draws_bytes = 2 * 3001 * 40 * 8
    argv = ["run", "--target", "std_normal", "--dim", "40", "--algorithm", "mala",
            "--step-size", "0.05", "--num-warmup", "100", "--num-samples", "3001",
            "--num-chains", "2", "--seed", "3", "--output-dir", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3.5 * draws_bytes, peak / draws_bytes


_OUT_OF_RANGE = st.one_of(
    st.tuples(st.just("rwm"), st.just("--proposal-scale"),
              st.floats(max_value=0.0, allow_nan=False).map(repr)),
    st.tuples(st.just("ghmc"), st.just("--persistence"),
              st.one_of(st.floats(max_value=-1e-9, allow_nan=False),
                        st.floats(min_value=1.0 + 1e-9, allow_nan=False)).map(repr)),
    st.tuples(st.just("nuts"), st.just("--max-depth"),
              st.integers(max_value=-1).map(str)),
)


@settings(max_examples=25, deadline=None)
@given(case=_OUT_OF_RANGE)
def test_out_of_range_kernel_flags_exit_2(tmp_path_factory, case):
    algorithm, flag, value = case
    out_dir = tmp_path_factory.mktemp("never_written")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--algorithm", algorithm, f"{flag}={value}", "--seed", "1",
                     "--output-dir", str(out_dir)])
    assert code == 2
    _assert_one_error_line(err.getvalue())
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_quietly_with_status_141(unbuffered):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mcbricks.cli", "targets", "list"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


_BAD_SAMPLING_SETTINGS = [
    ["run", "--algorithm", "nuts", "--target-accept", "1.5"],
    ["run", "--algorithm", "hmc", "--target-accept", "0"],
    ["run", "--algorithm", "nuts", "--target-accept", "-1"],
    ["run", "--algorithm", "nuts", "--divergence-threshold", "-1"],
    ["run", "--algorithm", "nuts", "--divergence-threshold", "0"],
    ["run", "--algorithm", "nuts", "--divergence-threshold", "nan"],
    ["run", "--algorithm", "hmc", "--divergence-threshold", "nan"],
    ["run-smc", "--max-stages", "0"],
]


@pytest.mark.parametrize("argv", _BAD_SAMPLING_SETTINGS, ids=" ".join)
def test_a_sampling_setting_rejected_while_building_exits_2(tmp_path, capsys, argv):
    code, out_dir = _run_cli(tmp_path, "bad", argv + ["--seed", "1"])
    assert code == 2
    _assert_one_error_line(capsys.readouterr().err)
    assert not out_dir.exists()


# Runs whose trajectories overflow (steps far past stability, or no energy
# bound on a NUTS tree in the funnel's neck); the kernels absorb the
# non-finite values as rejections or divergences, without a word.
_OVERFLOWING_RUNS = [
    ["run-smc", "--target", "logistic_synth", "--num-particles", "100", "--mutation", "hmc",
     "--step-size", "1e200", "--num-integration-steps", "2", "--num-mutation-steps", "1",
     "--seed", "2"],
    ["run-smc", "--target", "gauss_conjugate", "--num-particles", "20", "--mutation", "hmc",
     "--step-size", "1.5", "--num-integration-steps", "300", "--num-mutation-steps", "1",
     "--seed", "2"],
    ["run", "--target", "funnel", "--algorithm", "nuts", "--divergence-threshold", "inf",
     "--num-warmup", "150", "--num-samples", "20", "--num-chains", "2", "--seed", "3"],
    ["run", "--target", "std_normal", "--dim", "2", "--algorithm", "hmc",
     "--num-integration-steps", "300", "--num-warmup", "100", "--num-samples", "20",
     "--num-chains", "1", "--seed", "2"],
]


@pytest.mark.parametrize("argv", _OVERFLOWING_RUNS, ids=lambda argv: " ".join(argv[:5]))
def test_overflowing_runs_raise_no_runtime_warning(tmp_path, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out_dir = _run_cli(tmp_path, "out", argv)
    assert code == 0
    assert (out_dir / "samples.csv").exists()


def test_step_size_far_outside_the_workable_range_still_runs(tmp_path):
    code, _ = _run_cli(tmp_path, "far", [
        "run", "--algorithm", "nuts", "--target", "logistic_synth", "--step-size", "1e30",
        "--num-warmup", "100", "--num-samples", "20", "--num-chains", "2", "--seed", "2",
    ])
    assert code == 0


@pytest.mark.parametrize("mutation, steps", [("rwm", "2"), ("hmc", "2"), ("rwm", "0")])
def test_smc_summary_records_every_stage(tmp_path, mutation, steps):
    code, out_dir = _run_cli(tmp_path, "smc", [
        "run-smc", "--target", "gauss_conjugate", "--dim", "3", "--num-particles", "64",
        "--mutation", mutation, "--num-mutation-steps", steps, "--seed", "4",
    ])
    assert code == 0
    smc = json.loads((out_dir / "summary.json").read_text())["smc"]
    stages = smc["stages"]
    assert [stage["lambda"] for stage in stages] == smc["ladder"]
    assert all(set(stage) == {"lambda", "ess", "mean_acceptance", "log_z_increment"}
               for stage in stages)
    assert all(0.0 < stage["ess"] <= 64.0 for stage in stages)
    if steps == "0":
        assert all(stage["mean_acceptance"] is None for stage in stages)
    else:
        assert all(0.0 <= stage["mean_acceptance"] <= 1.0 for stage in stages)
    log_z = 0.0
    for stage in stages:
        log_z += stage["log_z_increment"]
    assert log_z == smc["log_z"]


def test_diverging_vi_fit_exits_numerically_without_a_summary(tmp_path, capsys):
    """A fit that overflows to non-finite draws is a numerical failure, not nulls."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out_dir = _run_cli(tmp_path, "vi", [
            "run-vi", "--target", "funnel", "--dim", "4", "--optimizer", "sgd",
            "--learning-rate", "100", "--num-steps", "50", "--seed", "1",
        ])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: draws contain NaN or infinite values\n"
    assert not (out_dir / "summary.json").exists()


def test_a_vi_step_that_raises_exits_3_naming_the_step(tmp_path, capsys, monkeypatch):
    import mcbricks.vi as vi_module

    real_step = vi_module.vi_step
    calls = []

    def failing_step(key, state, *args):
        calls.append(key)
        if len(calls) == 4:
            raise FloatingPointError("overflow in the step")
        return real_step(key, state, *args)

    monkeypatch.setattr(vi_module, "vi_step", failing_step)
    code, out_dir = _run_cli(tmp_path, "vi", [
        "run-vi", "--target", "std_normal", "--dim", "2", "--num-steps", "10", "--seed", "1",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: chain step 3 failed: overflow in the step\n"
    # Step t moves under the noise of fold_in(run_key, t): 16 ELBO draws in 2-d.
    run_key = split_key(make_key(1), 2)[1]
    assert [noise.tobytes() for noise in calls] == [
        normal_matrix(fold_in(run_key, t), 16, 2).tobytes() for t in range(4)
    ]
    assert not out_dir.exists()


@pytest.mark.parametrize("args", [
    ["run-vi", "--target", "funnel", "--dim", "4", "--optimizer", "sgd",
     "--learning-rate", "100", "--num-steps", "50", "--seed", "1"],
    ["run", "--target", "funnel", "--dim", "2", "--seed", "1", "--algorithm", "mala",
     "--step-size", "1e6", "--num-warmup", "0", "--num-samples", "10", "--num-chains", "2"],
], ids=["diverged-vi", "degenerate-mala"])
def test_numerical_failure_while_summarising_leaves_no_output(tmp_path, args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out_dir = _run_cli(tmp_path, "failed", args)
    assert code == 3
    assert not (out_dir / "samples.csv").exists()
    assert not out_dir.exists()


def test_nuts_run_records_its_tree_counters(tmp_path):
    args = [
        "run", "--target", "banana", "--dim", "2", "--algorithm", "nuts", "--seed", "6",
        "--num-warmup", "100", "--num-samples", "60", "--num-chains", "2", "--max-depth", "5",
    ]
    code, out_dir = _run_cli(tmp_path, "nuts", args)
    assert code == 0
    counters = _read_masked_summary(out_dir)["nuts"]
    assert len(counters["tree_depth_counts"]) == 6
    assert sum(counters["tree_depth_counts"]) == 120
    assert 1.0 <= counters["mean_leapfrogs_per_step"] <= 2**6 - 1
    _, again = _run_cli(tmp_path, "again", args)
    assert _read_masked_summary(again) == _read_masked_summary(out_dir)
    _, hmc_dir = _run_cli(tmp_path, "hmc", _quick_run_args(algorithm="hmc"))
    assert "nuts" not in _read_masked_summary(hmc_dir)


# The samples' bytes (NumPy 2.4, x86-64): a change to how a step's numbers
# are drawn must leave them.  The HMC digest was pinned before NUTS and
# warmup drew their randomness in blocks; the NUTS digest since NUTS joins
# each new subtree by biased progressive sampling.
_PINNED_SAMPLES = {
    "nuts": (
        ["run", "--target", "banana", "--dim", "2", "--algorithm", "nuts", "--seed", "31",
         "--num-warmup", "150", "--num-samples", "200", "--num-chains", "2"],
        "556aca1bc7777e02e7d666d35b7c6d2dfa2d3d5a884c21619e1ded49423ebeda",
    ),
    "hmc": (
        ["run", "--target", "aniso_gauss", "--dim", "3", "--algorithm", "hmc", "--seed", "32",
         "--num-warmup", "150", "--num-samples", "200", "--num-chains", "2", "--mass", "dense",
         "--num-integration-steps", "7"],
        "d3a34c4f13cc03e5096fa2d56d7f49879be8aa08d381aae4d93281555420be7f",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SAMPLES))
def test_adapted_runs_write_the_pinned_samples(tmp_path, name):
    args, digest = _PINNED_SAMPLES[name]
    code, out_dir = _run_cli(tmp_path, name, args)
    assert code == 0
    assert hashlib.sha256((out_dir / "samples.csv").read_bytes()).hexdigest() == digest
