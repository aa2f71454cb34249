"""Tests for the shared contracts and the chain runner."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbricks.core import (
    ChainError, Target, _row_dot, _row_matvec, gradient_discrepancy, run_chain,
)
from mcbricks.rng import fold_in, make_key


class _State(NamedTuple):
    position: np.ndarray


def _counting_step(key, state):
    return _State(state.position + 1.0), {"key": key}


def test_target_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        Target(0, lambda x: 0.0, lambda x: x)


def test_run_chain_shapes_and_final_state():
    key = make_key(0)
    final, infos, positions = run_chain(key, _counting_step, _State(np.zeros(2)), 5)
    assert positions.shape == (5, 2)
    assert len(infos) == 5
    np.testing.assert_array_equal(final.position, positions[-1])
    np.testing.assert_array_equal(positions[0], np.ones(2))


def test_run_chain_passes_per_iteration_child_keys():
    key = make_key(13)
    _, infos, _ = run_chain(key, _counting_step, _State(np.zeros(1)), 4)
    assert [info["key"] for info in infos] == [fold_in(key, i) for i in range(4)]


def test_run_chain_identity_kernel_repeats_initial_position():
    initial = _State(np.array([2.0, -1.0]))
    _, _, positions = run_chain(
        make_key(1), lambda key, state: (state, None), initial, 3
    )
    np.testing.assert_array_equal(positions, np.tile(initial.position, (3, 1)))


def test_run_chain_single_step_equals_direct_step():
    key = make_key(9)
    state = _State(np.array([0.5]))
    direct, _ = _counting_step(fold_in(key, 0), state)
    final, _, positions = run_chain(key, _counting_step, state, 1)
    np.testing.assert_array_equal(final.position, direct.position)
    assert positions.shape == (1, 1)


def test_run_chain_replays_bitwise():
    from mcbricks.mcmc import rwm
    from mcbricks.targets import std_normal

    target = std_normal(3).target
    kernel = rwm.build_kernel(0.8)
    step = lambda key, state: kernel(key, state, target)
    initial = rwm.init(np.zeros(3), target)
    key = make_key(21)
    _, _, first = run_chain(key, step, initial, 50)
    _, _, second = run_chain(key, step, initial, 50)
    np.testing.assert_array_equal(first, second)


def test_run_chain_zero_steps():
    state = _State(np.zeros(2))
    final, infos, positions = run_chain(make_key(0), _counting_step, state, 0)
    assert final is state
    assert infos == []
    assert positions.shape == (0, 2)


def test_run_chain_rejects_negative_steps():
    with pytest.raises(ValueError):
        run_chain(make_key(0), _counting_step, _State(np.zeros(1)), -1)


def test_run_chain_wraps_kernel_errors_with_step_index():
    def exploding(key, state):
        if float(state.position[0]) >= 2.0:
            raise ValueError("boom")
        return _State(state.position + 1.0), None

    with pytest.raises(ChainError) as excinfo:
        run_chain(make_key(5), exploding, _State(np.zeros(1)), 10)
    assert excinfo.value.step_index == 2
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_gradient_discrepancy_flags_a_wrong_gradient():
    good = Target(2, lambda x: -0.5 * float(x @ x), lambda x: -x)
    bad = Target(2, lambda x: -0.5 * float(x @ x), lambda x: -2.0 * x)
    key = make_key(3)
    assert gradient_discrepancy(good, key, num_points=50) < 1e-8
    assert gradient_discrepancy(bad, key, num_points=50) > 0.1


# ------------------------------------------------------------- blocks of draws


def _rwm_step(dim: int):
    from mcbricks.mcmc import rwm
    from mcbricks.targets import std_normal

    algorithm = rwm.as_algorithm(std_normal(dim).target, 0.8)
    return algorithm.step, algorithm.init(np.zeros(dim))


@pytest.mark.parametrize("num_steps", [0, 1, 255, 256, 257, 513])
def test_run_chain_with_the_draw_atom_matches_the_keyed_steps(num_steps):
    step, initial = _rwm_step(3)
    assert step.draw is not None
    key = make_key(17)
    final, infos, positions = run_chain(key, step, initial, num_steps)
    keyed_final, keyed_infos, keyed_positions = run_chain(
        key, lambda k, state: step(k, state), initial, num_steps
    )
    assert positions.tobytes() == keyed_positions.tobytes()
    assert infos == keyed_infos
    assert final.position.tobytes() == keyed_final.position.tobytes()


def test_run_chain_draw_blocks_are_capped_in_steps_and_floats():
    from mcbricks import core

    for dim, num_steps in ((1, 300), (50, 300), (5_000, 40)):
        step, initial = _rwm_step(dim)
        rows_per_draw = []
        draw = step.draw

        def counting_draw(keys):
            rows_per_draw.append(keys.shape[0])
            return draw(keys)

        step.draw = counting_draw
        run_chain(make_key(3), step, initial, num_steps)
        assert sum(rows_per_draw) == num_steps
        assert max(rows_per_draw) <= core._BLOCK_STEPS
        assert max(rows_per_draw) * (dim + 1) <= max(core._BLOCK_FLOATS, dim + 1)


@pytest.mark.parametrize("with_draw", [True, False])
def test_run_chain_reports_the_global_index_of_a_failing_step(with_draw):
    def exploding(row, state):
        if float(state.position[0]) >= 300.0:
            raise ValueError("boom")
        return _State(state.position + 1.0), None

    if with_draw:
        exploding.draw = lambda keys: np.zeros((keys.shape[0], 1))
    with pytest.raises(ChainError) as excinfo:
        run_chain(make_key(5), exploding, _State(np.zeros(1)), 600)
    assert excinfo.value.step_index == 300
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_run_chain_caps_blocks_of_nuts_records_by_their_size():
    from mcbricks import core
    from mcbricks.mcmc import nuts
    from mcbricks.targets import std_normal

    for dim, max_depth, num_steps in ((1, 10, 300), (50, 10, 300), (5_000, 3, 40)):
        algorithm = nuts.as_algorithm(std_normal(dim).target, 0.9, max_depth=max_depth)
        draw = algorithm.step.draw
        assert draw.floats == dim + 4 * max_depth + (1 + 3 + 7 if max_depth > 3 else 1 + 3)
        rows_per_draw = []

        def counting_draw(keys):
            rows_per_draw.append(keys.shape[0])
            return draw(keys)

        counting_draw.floats = draw.floats
        algorithm.step.draw = counting_draw
        run_chain(make_key(3), algorithm.step, algorithm.init(np.zeros(dim)), num_steps)
        assert sum(rows_per_draw) == num_steps
        assert max(rows_per_draw) <= core._BLOCK_STEPS
        assert max(rows_per_draw) * draw.floats <= core._BLOCK_FLOATS
    assert rows_per_draw[0] == core._BLOCK_FLOATS // draw.floats


def test_step_inputs_serve_keys_or_records_for_any_range():
    from mcbricks.core import step_inputs
    from mcbricks.rng import RngKey, fold_in_range

    key = make_key(4)
    keyed = list(step_inputs(key, None, 250, 520, 1))
    assert [i for i, _ in keyed] == list(range(250, 520))
    assert all(isinstance(k, RngKey) and k == fold_in(key, i) for i, k in keyed)
    blocks = []

    def draw(keys):
        blocks.append(keys.tolist())
        return list(range(len(keys)))

    served = list(step_inputs(key, draw, 3, 13, 1 << 13))
    assert blocks == [fold_in_range(key, 3, 7).tolist(), fold_in_range(key, 7, 11).tolist(),
                      fold_in_range(key, 11, 13).tolist()]
    assert served == list(zip(range(3, 13), [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]))


_SPECIAL_VALUES = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1e300)


@st.composite
def _row_tables(draw):
    """Two ``(n, dim)`` operands, a shared vector and a square matrix, views of larger buffers.

    Rows may be strided and start at an offset, columns may be strided, the
    matrix may be a transposed view, and special values land anywhere.
    """
    rows, dim = draw(st.integers(1, 40)), draw(st.integers(1, 120))
    row_step, col_step, offset = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))

    def view(buffer):
        return buffer[offset:offset + rows * row_step:row_step, offset:offset + dim * col_step:col_step]

    buffers = [scale * rng.standard_normal((3 * rows + 3, 2 * dim + 3)) for _ in range(2)]
    for buffer in buffers:
        for i, j, value in draw(st.lists(st.tuples(
            st.integers(0, buffer.shape[0] - 1), st.integers(0, buffer.shape[1] - 1),
            st.sampled_from(_SPECIAL_VALUES),
        ), max_size=12)):
            buffer[i, j] = value
    matrix = rng.standard_normal((dim, dim))
    if draw(st.booleans()):
        matrix = matrix.T
    matrix[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = draw(st.sampled_from(_SPECIAL_VALUES))
    return view(buffers[0]), view(buffers[1]), buffers[1][-1, offset:offset + dim * col_step:col_step], matrix


def _same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(table=_row_tables())
def test_row_products_equal_the_per_row_product_bit_for_bit(table):
    left, right, shared, matrix = table
    with np.errstate(over="ignore", invalid="ignore"):
        _same_bits(_row_dot(left, right), np.array([a @ b for a, b in zip(left, right)]))
        _same_bits(_row_dot(left, shared), np.array([a @ shared for a in left]))
        _same_bits(_row_matvec(matrix, left), np.array([matrix @ a for a in left]))
        _same_bits(_row_matvec(shared[None], left)[:, 0], np.array([shared @ a for a in left]))
