"""Tests for the Metropolis-Hastings acceptance atoms."""

import math

import numpy as np
import pytest

from mcbricks.proposal import (
    SliceVariable,
    asymmetric_log_ratio,
    binomial_accept,
    nonreversible_slice_accept,
    perturb_slice,
    safe_energy_diff,
)
from mcbricks.rng import fold_in, make_key, uniform


def test_safe_energy_diff_arithmetic():
    assert safe_energy_diff(1.0, 1.0) == 0.0
    assert safe_energy_diff(2.0, 1.0) == 1.0
    assert safe_energy_diff(-3.5, 1.5) == -5.0


def test_safe_energy_diff_absorbs_bad_new_energy():
    assert safe_energy_diff(0.0, math.nan) == -math.inf
    assert safe_energy_diff(0.0, math.inf) == -math.inf


def test_asymmetric_reduces_to_symmetric_when_q_terms_match():
    assert asymmetric_log_ratio(2.0, 1.0, -3.0, -3.0) == safe_energy_diff(2.0, 1.0)


def test_asymmetric_log_ratio_arithmetic():
    assert asymmetric_log_ratio(0.0, 0.0, -1.0, -2.0) == 1.0


def test_asymmetric_log_ratio_safety_clause():
    assert asymmetric_log_ratio(0.0, math.nan, -1.0, -2.0) == -math.inf
    assert asymmetric_log_ratio(0.0, math.inf, -1.0, -2.0) == -math.inf
    assert asymmetric_log_ratio(0.0, 0.0, -math.inf, -math.inf) == -math.inf


def test_binomial_accept_always_accepts_nonnegative_ratio():
    for seed in range(50):
        chosen, accepted, p_accept = binomial_accept(make_key(seed), 0.3, "new", "old")
        assert accepted
        assert chosen == "new"
        assert p_accept == 1.0


def test_binomial_accept_always_rejects_minus_infinity():
    for seed in range(50):
        chosen, accepted, p_accept = binomial_accept(
            make_key(seed), -math.inf, "new", "old"
        )
        assert not accepted
        assert chosen == "old"
        assert p_accept == 0.0


def test_binomial_accept_treats_nan_as_rejection():
    chosen, accepted, p_accept = binomial_accept(make_key(1), math.nan, "new", "old")
    assert (chosen, accepted, p_accept) == ("old", False, 0.0)


def test_binomial_accept_indicator_is_exact():
    """accepted must equal [uniform(key) < min(1, exp(log_ratio))] bit for bit."""
    for seed in range(300):
        key = make_key(seed)
        log_ratio = -3.0 * uniform(fold_in(key, 0))
        _, accepted, p_accept = binomial_accept(fold_in(key, 1), log_ratio, 1, 0)
        assert p_accept == min(1.0, math.exp(log_ratio))
        assert accepted == (uniform(fold_in(key, 1)) < p_accept)


def test_binomial_accept_frequency_matches_probability():
    log_ratio = math.log(0.5)
    hits = sum(
        binomial_accept(make_key(seed), log_ratio, 1, 0)[1] for seed in range(100_000)
    )
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_binomial_accept_returns_the_given_state_objects():
    proposed, current = object(), object()
    chosen, accepted, _ = binomial_accept(make_key(2), -0.1, proposed, current)
    assert chosen is (proposed if accepted else current)


def test_slice_accept_zero_u_accepts_any_finite_ratio():
    chosen, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(0.0), -100.0, "new", "old"
    )
    assert accepted
    assert chosen == "new"
    assert new_slice.u == 0.0


def test_slice_accept_nonnegative_ratio_accepts_every_u():
    for u in (-0.999, -0.5, 0.0, 0.5, 0.999):
        _, accepted, new_slice = nonreversible_slice_accept(
            SliceVariable(u), 0.0, "new", "old"
        )
        assert accepted
        assert new_slice.u == u  # exp(-0) = 1 leaves u unchanged


def test_slice_accept_rejection_keeps_u():
    chosen, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(0.5), math.log(0.25), "new", "old"
    )
    assert not accepted
    assert chosen == "old"
    assert new_slice.u == 0.5


def test_slice_accept_banks_the_slack_on_accept():
    u, log_ratio = 0.5, math.log(0.6)
    chosen, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(u), log_ratio, "new", "old"
    )
    assert accepted
    assert chosen == "new"
    assert new_slice.u == pytest.approx(0.5 / 0.6, rel=1e-15)


def test_slice_accept_preserves_sign():
    _, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(-0.5), math.log(0.6), "new", "old"
    )
    assert accepted
    assert new_slice.u == pytest.approx(-0.5 / 0.6, rel=1e-15)


def test_slice_accept_minus_infinity_rejects_even_at_zero_u():
    chosen, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(0.0), -math.inf, "new", "old"
    )
    assert not accepted
    assert chosen == "old"
    assert new_slice.u == 0.0


def test_slice_accept_nan_rejects():
    _, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(0.3), math.nan, "new", "old"
    )
    assert not accepted
    assert new_slice.u == 0.3


def test_slice_accept_clamps_boundary_update_inside_the_interval():
    # log_ratio exactly log|u| accepts and maps u onto 1.0 before clamping.
    _, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(0.8), math.log(0.8), "new", "old"
    )
    assert accepted
    assert new_slice.u == math.nextafter(1.0, 0.0)


def test_slice_accept_log_space_branch_avoids_overflow():
    u = 1e-310  # subnormal, log|u| about -713.6
    _, accepted, new_slice = nonreversible_slice_accept(
        SliceVariable(u), -700.0, "new", "old"
    )
    assert accepted
    expected = u * math.exp(350.0) ** 2  # e**700 via a non-overflowing route
    assert new_slice.u == pytest.approx(expected, rel=1e-9)
    assert abs(new_slice.u) < 1.0


def test_slice_accept_keeps_u_inside_the_open_interval():
    for seed in range(200):
        key = make_key(seed)
        u = 2.0 * uniform(fold_in(key, 0)) - 1.0
        log_ratio = 4.0 * (uniform(fold_in(key, 1)) - 0.5)
        _, _, new_slice = nonreversible_slice_accept(
            SliceVariable(u), log_ratio, "new", "old"
        )
        assert abs(new_slice.u) < 1.0


def test_perturb_slice_zero_jitter_is_identity():
    slice_var = SliceVariable(0.37)
    assert perturb_slice(make_key(0), slice_var, 0.0) is slice_var


@pytest.mark.parametrize("jitter", [-0.1, 1.1])
def test_perturb_slice_validates_jitter(jitter):
    with pytest.raises(ValueError):
        perturb_slice(make_key(0), SliceVariable(0.0), jitter)


def test_perturb_slice_wraps_around():
    # Pick the jitter so the realized shift is exactly 0.3: 0.9 wraps to -0.8.
    key = make_key(0)
    jitter = 0.3 / (2.0 * uniform(key))
    assert 0.0 < jitter <= 1.0
    result = perturb_slice(key, SliceVariable(0.9), jitter)
    assert result.u == pytest.approx(-0.8, abs=1e-12)


def test_perturb_slice_stays_inside_the_open_interval():
    for seed in range(100):
        key = make_key(seed)
        u = 2.0 * uniform(fold_in(key, 0)) - 1.0
        for jitter in (0.05, 0.5, 1.0):
            result = perturb_slice(fold_in(key, 1), SliceVariable(u), jitter)
            assert abs(result.u) < 1.0


def test_perturb_slice_full_jitter_has_uniform_marginal():
    """With jitter 1 the chain of slice values is uniform on (-1, 1)."""
    key = make_key(77)
    slice_var = SliceVariable(0.9)
    values = np.empty(100_000)
    for t in range(values.size):
        slice_var = perturb_slice(fold_in(key, t), slice_var, 1.0)
        values[t] = slice_var.u
    sorted_values = np.sort(values)
    cdf = (sorted_values + 1.0) / 2.0
    grid = np.arange(1, values.size + 1) / values.size
    ks = np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - grid + 1.0 / values.size)))
    assert ks < 0.01
