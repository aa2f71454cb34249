"""Tests for convergence diagnostics and the run summary."""

import math
from collections import namedtuple

import numpy as np
import pytest

from mcbricks.diagnostics import (
    DegenerateChainsError,
    Summary,
    effective_sample_size,
    split_rhat,
    summarize,
)
from mcbricks.rng import fold_in, make_key, normal_matrix, normal_vector

_FakeInfo = namedtuple("_FakeInfo", ["p_accept", "is_divergent"])


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("diagnostic", [summarize, split_rhat, effective_sample_size],
                         ids=lambda fn: fn.__name__)
def test_non_finite_draws_are_degenerate(diagnostic, bad):
    stack = _iid_stack(5, 2, 40, 3)
    stack[1, 17, 2] = bad
    with pytest.raises(DegenerateChainsError, match="NaN or infinite"):
        diagnostic(stack)
