"""Tests for convergence diagnostics and the run summary."""

import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbricks.diagnostics import (
    DegenerateChainsError,
    Summary,
    _autocovariances,
    effective_sample_size,
    split_rhat,
    summarize,
)
from mcbricks.rng import fold_in, make_key, normal_matrix, normal_vector

_FakeInfo = namedtuple("_FakeInfo", ["p_accept", "is_divergent"])
_StepInfo = namedtuple("_StepInfo", ["p_accept", "accepted"])


def _iid_stack(seed, chains, draws, dim):
    key = make_key(seed)
    return np.stack(
        [normal_matrix(fold_in(key, c), draws, dim) for c in range(chains)]
    )


def _ar1_stack(seed, chains, draws, rho):
    key = make_key(seed)
    out = np.empty((chains, draws, 1))
    scale = math.sqrt(1.0 - rho * rho)
    for c in range(chains):
        shocks = normal_vector(fold_in(key, c), draws)
        level = shocks[0]
        for t in range(draws):
            if t:
                level = rho * level + scale * shocks[t]
            out[c, t, 0] = level
    return out


# ------------------------------------------------------------- split R-hat


def test_rhat_near_one_for_iid_chains():
    rhat = split_rhat(_iid_stack(0, 4, 1000, 2))
    assert rhat.shape == (2,)
    assert np.all((rhat >= 0.99) & (rhat <= 1.01))


def test_rhat_flags_disjoint_chains():
    stack = _iid_stack(1, 2, 500, 1)
    stack[1] += 10.0
    assert split_rhat(stack)[0] > 2.0


def test_rhat_flags_a_drifting_chain():
    """Splitting catches a trend inside a single chain."""
    stack = _iid_stack(2, 1, 1000, 1)
    stack[0, :, 0] += np.linspace(0.0, 8.0, 1000)
    assert split_rhat(stack)[0] > 1.5


def test_rhat_is_affine_invariant():
    stack = _iid_stack(3, 4, 600, 2)
    shifted = 3.0 * stack - 7.5
    np.testing.assert_allclose(split_rhat(shifted), split_rhat(stack), rtol=1e-12)


def test_rhat_rejects_constant_chains():
    with pytest.raises(DegenerateChainsError):
        split_rhat(np.ones((2, 100, 1)))


def _reference_split_rhat(stack):
    """Split-R-hat as joined half-chains, reduced as one copy."""
    half = stack.shape[1] // 2
    halves = np.concatenate([stack[:, :half, :], stack[:, -half:, :]], axis=0)
    n = halves.shape[1]
    w = np.mean(np.var(halves, axis=1, ddof=1), axis=0)
    between_over_n = np.var(np.mean(halves, axis=1), axis=0, ddof=1)
    return np.sqrt(((n - 1) / n * w + between_over_n) / w)


@settings(max_examples=60, deadline=None)
@given(
    chains=st.integers(1, 8), draws=st.integers(4, 400), dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3), shift=st.floats(-1e4, 1e4),
)
def test_rhat_equals_the_joined_halves_form_bit_for_bit(chains, draws, dim, seed, scale, shift):
    stack = shift + scale * _iid_stack(seed, chains, draws, dim)
    assert split_rhat(stack).tobytes() == _reference_split_rhat(stack).tobytes()
    # An integer constant: its half-chain means are exact, so the variance is 0.
    stack[:, :, dim // 2] = round(shift)
    with pytest.raises(DegenerateChainsError):
        split_rhat(stack)


def test_rhat_reads_the_half_chains_without_copying_the_draws():
    stack = _iid_stack(4, 4, 10_000, 50)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        split_rhat(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * stack.nbytes, peak / stack.nbytes


def test_rhat_validates_shape():
    with pytest.raises(ValueError):
        split_rhat(np.zeros((10, 2)))
    with pytest.raises(ValueError):
        split_rhat(np.zeros((2, 3, 1)))


# ------------------------------------------------------------- ESS


def test_ess_of_iid_chains_is_near_the_draw_count():
    stack = _iid_stack(4, 4, 1000, 2)
    ess = effective_sample_size(stack)
    assert ess.shape == (2,)
    total = 4 * 1000
    assert np.all((ess >= 0.8 * total) & (ess <= 1.2 * total))


def test_ess_tracks_the_ar1_autocorrelation():
    rho = 0.9
    stack = _ar1_stack(5, 2, 5000, rho)
    ess = effective_sample_size(stack)[0]
    expected_ratio = (1.0 - rho) / (1.0 + rho)
    observed_ratio = ess / (2 * 5000)
    assert abs(observed_ratio - expected_ratio) <= 0.3 * expected_ratio


def test_ess_caps_at_the_total_draw_count():
    """Antithetic chains would report super-efficiency; the cap stops it."""
    draws = np.tile(np.array([1.0, -1.0]), 500)[None, :, None]
    stack = draws + 1e-9 * _iid_stack(6, 1, 1000, 1)  # break exact constancy
    assert effective_sample_size(stack)[0] == pytest.approx(1000.0)


def test_ess_never_reports_below_one():
    stack = np.linspace(0.0, 1.0, 100)[None, :, None] + 1e-12 * _iid_stack(7, 1, 100, 1)
    assert effective_sample_size(stack)[0] >= 1.0


def test_ess_is_invariant_to_chain_order():
    stack = _iid_stack(8, 4, 500, 1)
    permuted = stack[[2, 0, 3, 1]]
    np.testing.assert_allclose(
        effective_sample_size(permuted), effective_sample_size(stack), rtol=1e-12
    )


def test_ess_validates_shape():
    with pytest.raises(ValueError):
        effective_sample_size(np.zeros((2, 3, 1)))


def _reference_ess(chains):
    """Frozen single-dimension ESS with Geyer's truncation as a pair-at-a-time loop."""
    num_chains, num_draws = chains.shape
    mean_acov = _autocovariances(chains).mean(axis=0)
    within = mean_acov[0] * num_draws / (num_draws - 1.0)
    var_plus = mean_acov[0]
    if num_chains > 1:
        var_plus += np.var(chains.mean(axis=1), ddof=1)
    rho = 1.0 - (within - mean_acov) / var_plus
    rho[0] = 1.0
    tau = -1.0
    previous_pair = math.inf
    t = 0
    while t + 1 < num_draws:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, previous_pair)
        tau += 2.0 * pair
        previous_pair = pair
        t += 2
    total = num_chains * num_draws
    if tau <= 0.0:
        return float(total)
    return float(min(max(total / tau, 1.0), total))


@pytest.mark.parametrize("phi", [-0.9, -0.5, 0.0, 0.3, 0.9, 0.99, 0.999])
def test_ess_truncation_matches_the_pairwise_loop_bit_for_bit(phi):
    for chains in (1, 2, 4):
        for draws in (4, 5, 9, 64, 1001):
            stack = _ar1_stack(int(1000 * phi) + 10 * chains + draws, chains, draws, phi)
            got = effective_sample_size(stack)
            assert got.tobytes() == np.array([_reference_ess(stack[:, :, 0])]).tobytes()


def test_ess_of_a_chain_whose_first_pair_is_not_positive_is_the_draw_count():
    stack = np.tile(np.array([1.0, -1.0]), 50)[None, :, None] + 1e-3 * _iid_stack(9, 1, 100, 1)
    assert effective_sample_size(stack).tolist() == [100.0] == [_reference_ess(stack[:, :, 0])]


# ------------------------------------------------------------- summarize


def test_summary_reports_exactly_the_contract_fields():
    import dataclasses

    names = tuple(field.name for field in dataclasses.fields(Summary))
    assert names == ("mean", "std", "rhat", "ess", "acceptance_mean", "divergences")


def test_summarize_pools_moments_across_chains():
    stack = _iid_stack(9, 3, 400, 2)
    summary = summarize(stack)
    pooled = stack.reshape(-1, 2)
    np.testing.assert_allclose(summary.mean, pooled.mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(summary.std, pooled.std(axis=0, ddof=1), rtol=1e-14)
    assert math.isnan(summary.acceptance_mean)
    assert summary.divergences == 0


def test_summarize_aggregates_step_infos():
    stack = _iid_stack(10, 2, 200, 1)
    infos = [
        _FakeInfo(0.5, False),
        _FakeInfo(1.0, True),
        _FakeInfo(0.75, False),
        _FakeInfo(0.25, True),
    ]
    summary = summarize(stack, infos)
    assert summary.acceptance_mean == pytest.approx(0.625, rel=1e-15)
    assert summary.divergences == 2


def test_summarize_tolerates_infoless_steps():
    """Samplers without step statistics (info None) still summarize."""
    stack = _iid_stack(11, 2, 100, 1)
    summary = summarize(stack, [None, None, None])
    assert math.isnan(summary.acceptance_mean)
    assert summary.divergences == 0


def test_degenerate_chains_name_a_run_that_accepted_nothing():
    stack = np.zeros((2, 10, 1))
    rejected = [_StepInfo(0.0, False)] * 20
    with pytest.raises(DegenerateChainsError) as failure:
        summarize(stack, rejected)
    assert str(failure.value) == "zero within-chain variance: no proposal was accepted in 20 steps"
    for infos in (None, rejected[:5] + [_StepInfo(1.0, True)], [_FakeInfo(0.0, False)] * 20):
        with pytest.raises(DegenerateChainsError) as failure:
            summarize(stack, infos)
        assert str(failure.value) == "zero within-chain variance"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("diagnostic", [summarize, split_rhat, effective_sample_size],
                         ids=lambda fn: fn.__name__)
def test_non_finite_draws_are_degenerate(diagnostic, bad):
    stack = _iid_stack(5, 2, 40, 3)
    stack[1, 17, 2] = bad
    with pytest.raises(DegenerateChainsError, match="NaN or infinite"):
        diagnostic(stack)


# ------------------------------------------------------------- constant dimensions
#
# A constant whose value is not exact in its mean (0.1, 0.001) leaves a
# within-half variance of a few ulp, so the variance alone does not see it.


@pytest.mark.parametrize("stack", [np.full((4, 1000, 2), 0.1), np.full((1, 20, 1), 0.001)],
                         ids=["0.1", "0.001"])
@pytest.mark.parametrize("diagnostic", [summarize, split_rhat, effective_sample_size],
                         ids=lambda fn: fn.__name__)
def test_a_constant_dimension_is_degenerate_whatever_its_value(diagnostic, stack):
    with pytest.raises(DegenerateChainsError):
        diagnostic(stack)


@settings(max_examples=80, deadline=None)
@given(
    value=st.floats(-1e300, 1e300), chains=st.integers(1, 5), draws=st.integers(4, 300),
    dim=st.integers(1, 4), data=st.data(),
)
def test_a_constant_dimension_beside_varying_ones_is_degenerate(value, chains, draws, dim, data):
    stack = _iid_stack(data.draw(st.integers(0, 2**32 - 1)), chains, draws, dim)
    stack[:, :, data.draw(st.integers(0, dim - 1))] = value
    for diagnostic in (split_rhat, effective_sample_size):
        with pytest.raises(DegenerateChainsError):
            diagnostic(stack)
