"""Tests for the built-in targets and their analytic companions."""

import dataclasses
import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcbricks.core import Target, evaluate, evaluate_rows, gradient_discrepancy
from mcbricks.rng import make_key, normal_matrix
from mcbricks.targets import (
    CONJUGATE_NUM_OBSERVATIONS,
    LOGISTIC_NUM_FEATURES,
    LOGISTIC_NUM_POINTS,
    MCMC_TARGET_NAMES,
    SMC_TARGET_NAMES,
    aniso_gauss,
    aniso_variances,
    banana,
    conjugate_gaussian_data,
    conjugate_gaussian_log_evidence,
    conjugate_gaussian_posterior,
    funnel,
    logistic_synth,
    make_builtin,
    make_logistic_data,
    make_tempered,
    std_normal,
    _sigmoid,
)
from mcbricks.smc import TemperedTarget

# ------------------------------------------------------------- std normal


def test_std_normal_values():
    bundle = std_normal(2)
    x = np.array([3.0, 4.0])
    assert bundle.target.logdensity(x) == -12.5
    np.testing.assert_array_equal(bundle.target.gradient(x), -x)
    mean, var = bundle.analytic_moments
    np.testing.assert_array_equal(mean, np.zeros(2))
    np.testing.assert_array_equal(var, np.ones(2))


def test_std_normal_validates_dim():
    with pytest.raises(ValueError):
        std_normal(0)


# ------------------------------------------------------------- anisotropic


def test_aniso_variances_ladder():
    np.testing.assert_array_equal(aniso_variances(1), np.ones(1))
    ladder = aniso_variances(5)
    assert ladder[0] == pytest.approx(1.0, rel=1e-15)
    assert ladder[-1] == pytest.approx(100.0, rel=1e-12)
    assert np.all(np.diff(ladder) > 0)


def test_aniso_gauss_density_and_moments():
    bundle = aniso_gauss(3)
    variances = aniso_variances(3)
    x = np.ones(3)
    assert bundle.target.logdensity(x) == pytest.approx(
        -0.5 * np.sum(1.0 / variances), rel=1e-14
    )
    np.testing.assert_allclose(bundle.target.gradient(x), -1.0 / variances, rtol=1e-14)
    np.testing.assert_allclose(bundle.analytic_moments[1], variances, rtol=1e-15)


_VECTORS = st.lists(st.one_of(st.floats(), st.floats(-30.0, 30.0)), min_size=1, max_size=200)


@settings(max_examples=200, deadline=None)
@given(values=_VECTORS)
def test_aniso_gauss_matches_its_sum_form_bitwise(values):
    # The references negate and sum per call, through ``ndarray.sum``.
    x = np.array(values)
    precision = 1.0 / aniso_variances(x.size)
    target = aniso_gauss(x.size).target
    with np.errstate(all="ignore"):
        assert _bits(target.logdensity(x)) == _bits(-0.5 * float((precision * x * x).sum()))
        assert _bits(target.gradient(x)) == _bits(-precision * x)


# ------------------------------------------------------------- banana


def test_banana_is_flat_on_the_ridge():
    bundle = banana(2)
    ridge_point = np.array([0.0, 2.0])  # bend term vanishes here
    assert bundle.target.logdensity(ridge_point) == 0.0
    np.testing.assert_array_equal(bundle.target.gradient(ridge_point), np.zeros(2))


def test_banana_tail_coordinates_are_standard_normal():
    bundle = banana(3)
    with_tail = bundle.target.logdensity(np.array([0.0, 2.0, 1.5]))
    assert with_tail == pytest.approx(-0.5 * 1.5**2, rel=1e-14)


def test_banana_validates_dim():
    with pytest.raises(ValueError):
        banana(1)


# ------------------------------------------------------------- funnel


def test_funnel_neck_only_value():
    bundle = funnel(2)
    x = np.array([1.2, 0.0])
    expected = -0.5 * 1.44 / 9.0 - 0.5 * 1.2
    assert bundle.target.logdensity(x) == pytest.approx(expected, rel=1e-14)


def test_funnel_survives_extreme_neck_values():
    """Deep in the funnel the density saturates instead of overflowing."""
    bundle = funnel(3)
    deep = np.array([-800.0, 1.0, 0.5])
    assert bundle.target.logdensity(deep) == -math.inf
    assert bundle.target.logdensity(np.array([-800.0, 0.0, 0.0])) > -math.inf
    wide = np.array([800.0, 2.0, -1.0])
    assert math.isfinite(bundle.target.logdensity(wide))


def test_funnel_validates_dim():
    with pytest.raises(ValueError):
        funnel(1)


# ------------------------------------------------------------- gradients


@pytest.mark.parametrize("name,dim", [
    ("std_normal", 3),
    ("aniso_gauss", 4),
    ("banana", 2),
    ("banana", 5),
    ("funnel", 2),
    ("funnel", 4),
    ("logistic_synth", 5),
])
def test_builtin_gradients_match_finite_differences(name, dim):
    bundle = make_builtin(name, dim, data_key=make_key(17))
    discrepancy = gradient_discrepancy(bundle.target, make_key(1))
    assert discrepancy < 1e-6


@pytest.mark.parametrize("name", SMC_TARGET_NAMES)
def test_tempered_gradients_match_finite_differences(name):
    dim = 2 if name == "gauss_conjugate" else LOGISTIC_NUM_FEATURES
    tempered, _ = make_tempered(name, dim, make_key(23))
    for lmbda in (0.0, 0.35, 1.0):
        target = tempered.at_temperature(lmbda)
        assert gradient_discrepancy(target, make_key(2)) < 1e-6


# ------------------------------------------------------------- logistic


def test_logistic_data_shapes_and_determinism():
    data = make_logistic_data(make_key(7))
    assert data.design.shape == (LOGISTIC_NUM_POINTS, LOGISTIC_NUM_FEATURES)
    assert data.labels.shape == (LOGISTIC_NUM_POINTS,)
    assert set(np.unique(data.labels)) <= {0.0, 1.0}
    assert data.true_weights.shape == (LOGISTIC_NUM_FEATURES,)
    again = make_logistic_data(make_key(7))
    np.testing.assert_array_equal(data.design, again.design)
    np.testing.assert_array_equal(data.labels, again.labels)
    other = make_logistic_data(make_key(8))
    assert not np.array_equal(data.design, other.design)


def test_logistic_posterior_value_at_zero():
    """All-zero weights score each point at probability one half."""
    bundle = logistic_synth(make_key(7))
    assert bundle.target.logdensity(np.zeros(5)) == pytest.approx(
        -LOGISTIC_NUM_POINTS * math.log(2.0), rel=1e-14
    )


# ------------------------------------------------------------- registry


def test_registry_names():
    assert MCMC_TARGET_NAMES == (
        "std_normal", "aniso_gauss", "banana", "funnel", "logistic_synth"
    )
    assert SMC_TARGET_NAMES == ("gauss_conjugate", "logistic_synth")


def test_make_builtin_dispatch_and_validation():
    assert make_builtin("std_normal", 4).target.dim == 4
    assert make_builtin("banana", 3).target.dim == 3
    assert make_builtin("logistic_synth", 5, make_key(0)).target.dim == 5
    with pytest.raises(ValueError):
        make_builtin("logistic_synth", 5)  # requires a data key
    with pytest.raises(ValueError):
        make_builtin("logistic_synth", 3, make_key(0))  # fixed dimension
    with pytest.raises(ValueError):
        make_builtin("cauchy", 2)


def test_make_tempered_validation():
    with pytest.raises(ValueError):
        make_tempered("banana", 2, make_key(0))
    with pytest.raises(ValueError):
        make_tempered("logistic_synth", 3, make_key(0))


# ------------------------------------------------------------- conjugate


def test_conjugate_data_scaling():
    data = conjugate_gaussian_data(make_key(4), dim=5, num_observations=2)
    assert data.shape == (2, 5)
    np.testing.assert_array_equal(
        data, math.sqrt(2.0) * normal_matrix(make_key(4), 2, 5)
    )
    assert CONJUGATE_NUM_OBSERVATIONS == 5


def test_conjugate_evidence_single_zero_observation():
    value = conjugate_gaussian_log_evidence(np.array([[0.0]]))
    assert value == pytest.approx(-0.5 * math.log(4.0 * math.pi), rel=1e-14)


def test_conjugate_evidence_matches_quadrature():
    """Independent check of the closed form by numerical integration."""
    observations = np.array([[0.7], [-1.3]])
    grid = np.linspace(-12.0, 12.0, 24001)
    prior = np.exp(-0.5 * grid**2) / math.sqrt(2.0 * math.pi)
    likelihood = np.ones_like(grid)
    for (y,) in observations:
        likelihood *= np.exp(-0.5 * (y - grid) ** 2) / math.sqrt(2.0 * math.pi)
    numeric = math.log(np.trapezoid(prior * likelihood, grid))
    assert conjugate_gaussian_log_evidence(observations) == pytest.approx(
        numeric, rel=1e-6
    )


def test_conjugate_evidence_separates_over_coordinates():
    observations = normal_matrix(make_key(9), 4, 3)
    total = conjugate_gaussian_log_evidence(observations)
    per_coordinate = sum(
        conjugate_gaussian_log_evidence(observations[:, [c]]) for c in range(3)
    )
    assert total == pytest.approx(per_coordinate, rel=1e-12)


def test_conjugate_posterior_moments():
    mean, var = conjugate_gaussian_posterior(np.array([[1.0], [3.0]]))
    np.testing.assert_allclose(mean, [4.0 / 3.0], rtol=1e-15)
    assert var == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_tempered_conjugate_posterior_matches_the_analytic_one():
    """At lambda 1 the tempered density is the known Gaussian posterior."""
    tempered, details = make_tempered("gauss_conjugate", 2, make_key(0))
    observations = details["observations"]
    posterior_mean, posterior_var = conjugate_gaussian_posterior(observations)
    target = tempered.at_temperature(1.0)
    # The posterior mode of a Gaussian is its mean: the gradient vanishes.
    np.testing.assert_allclose(
        target.gradient(posterior_mean), np.zeros(2), atol=1e-12
    )
    # Curvature = -1/var on the diagonal via a second difference.
    h = 1e-4
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        second = (
            target.logdensity(posterior_mean + e)
            - 2.0 * target.logdensity(posterior_mean)
            + target.logdensity(posterior_mean - e)
        ) / h**2
        assert second == pytest.approx(-1.0 / posterior_var, rel=1e-6)


# ------------------------------------------------- logistic single positions, sigmoid
#
# Frozen copies of the masked sigmoid and of the logistic terms, written per
# position from first principles: the softplus is max(s, 0) + log1p(t) with
# t = exp(min(s, -s)).  The shipped target must match them bit for bit,
# whatever the call order.  The softplus used to be np.logaddexp(0, s); that
# form stays below as a bound on the densities.


def _reference_sigmoid(scores):
    out = np.empty_like(scores, dtype=float)
    positive = scores >= 0.0
    out[positive] = 1.0 / (1.0 + np.exp(-scores[positive]))
    exp_scores = np.exp(scores[~positive])
    out[~positive] = exp_scores / (1.0 + exp_scores)
    return out


def _reference_softplus(scores):
    """log(1 + e^s) from t = e^{-|s|}, with -|s| taken as the masked min(s, -s)."""
    return np.maximum(scores, 0.0) + np.log1p(np.exp(np.minimum(scores, -scores)))


def _reference_terms(data, softplus=_reference_softplus):
    design, labels = data.design, data.labels

    def loglik(w):
        scores = design @ w
        return float(labels @ scores - np.sum(softplus(scores)))

    def grad_loglik(w):
        return design.T @ (labels - _reference_sigmoid(design @ w))

    return loglik, grad_loglik


def _reference_targets(key, lmbda, softplus=_reference_softplus):
    """(builtin, tempered at ``lmbda``, tempered likelihood) as the reference computes them."""
    loglik, grad_loglik = _reference_terms(make_logistic_data(key), softplus)
    builtin = Target(
        LOGISTIC_NUM_FEATURES,
        lambda w: -0.5 * float(w @ w) + loglik(w),
        lambda w: -w + grad_loglik(w),
    )
    tempered = TemperedTarget(
        LOGISTIC_NUM_FEATURES, lambda w: -0.5 * float(w @ w), lambda w: -w, loglik, grad_loglik
    )
    likelihood = Target(LOGISTIC_NUM_FEATURES, loglik, grad_loglik)
    return builtin, tempered.at_temperature(lmbda), likelihood


def _shipped_targets(key, lmbda):
    tempered, _ = make_tempered("logistic_synth", LOGISTIC_NUM_FEATURES, key)
    likelihood = Target(LOGISTIC_NUM_FEATURES, tempered.log_likelihood, tempered.grad_likelihood)
    builtin = make_builtin("logistic_synth", LOGISTIC_NUM_FEATURES, key).target
    return builtin, tempered.at_temperature(lmbda), likelihood


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _positions_with_extreme_scores(seed, count=60):
    rng = np.random.default_rng(seed)
    rows = [
        rng.normal(size=LOGISTIC_NUM_FEATURES) * rng.choice([1e-3, 1.0, 30.0, 1e3, 1e200])
        for _ in range(count)
    ]
    special = [
        np.zeros(LOGISTIC_NUM_FEATURES),
        np.full(LOGISTIC_NUM_FEATURES, -0.0),
        np.array([1e308, 0.0, 0.0, 0.0, 0.0]),
        np.array([-np.inf, 0.0, 1.0, 0.0, 0.0]),
        np.array([np.inf, -np.inf, 0.0, 0.0, 0.0]),
        np.array([np.nan, 0.0, 0.0, 0.0, 0.0]),
        np.array([-np.nan, 1.0, 0.0, 0.0, 0.0]),
        np.array([5e-324, -5e-324, 1e-300, 0.0, 0.0]),
    ]
    return rows + special


def test_sigmoid_matches_the_masked_reference_bitwise():
    rng = np.random.default_rng(11)
    special = np.array([800.0, -800.0, 40.0, -40.0, 0.0, -0.0, np.inf, -np.inf,
                        1e-300, -1e-300, np.nan, -np.nan, 709.8, -745.2])
    for _ in range(200):
        scores = rng.normal(size=rng.integers(1, 400)) * rng.choice([0.1, 1.0, 10.0, 1e3])
        scores = np.concatenate([scores, special])
        rng.shuffle(scores)
        before = scores.copy()
        assert _sigmoid(scores).tobytes() == _reference_sigmoid(scores).tobytes()
        assert scores.tobytes() == before.tobytes()  # input left alone


def _two_branch_sigmoid(scores):
    """The textbook sigmoid: ``1 / (1 + t)`` for ``s >= 0``, ``t / (1 + t)`` otherwise."""
    t = np.exp(np.minimum(scores, -scores))
    return np.where(scores >= 0, 1 / (1 + t), t / (1 + t))


_SIGMOID_SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308,
    5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308, 1e-310, -1e-310,
])


@settings(max_examples=60, deadline=None)
@given(num=st.integers(1, 120), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 30.0, 800.0, 1e308]),
       specials=st.lists(st.integers(0, len(_SIGMOID_SPECIALS) - 1), max_size=40))
def test_sigmoid_is_the_two_branch_form_bit_for_bit(num, seed, scale, specials):
    """Hypothesis-drawn (n, 200) blocks, with special values scattered in them."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        scores = rng.normal(size=(num, LOGISTIC_NUM_POINTS)) * scale
        for index in specials:
            scores.flat[rng.integers(scores.size)] = _SIGMOID_SPECIALS[index]
        scores = np.concatenate([scores, np.resize(_SIGMOID_SPECIALS, (1, LOGISTIC_NUM_POINTS))])
        before = scores.copy()
        want = _two_branch_sigmoid(scores).tobytes()
        assert _sigmoid(scores).tobytes() == want
        t = np.exp(np.minimum(scores, -scores))
        out = np.full_like(scores, 7.0)
        assert _sigmoid(scores, t, out=out) is out
        assert out.tobytes() == want
    assert scores.tobytes() == before.tobytes()  # input left alone


@pytest.mark.parametrize("order", ["density_first", "gradient_first", "repeated"])
def test_logistic_single_positions_match_the_reference_in_any_call_order(order):
    """Density and gradient at one position match the reference, whichever is asked first."""
    key = make_key(3)
    expected = _reference_targets(key, 0.37)
    actual = _shipped_targets(key, 0.37)
    with np.errstate(all="ignore"):
        for w in _positions_with_extreme_scores(5):
            for ref, got in zip(expected, actual):
                want = (_bits(ref.logdensity(w)), _bits(ref.gradient(w)))
                if order == "density_first":
                    have = (_bits(got.logdensity(w)), _bits(got.gradient(w)))
                elif order == "gradient_first":
                    grad = _bits(got.gradient(w))
                    have = (_bits(got.logdensity(w)), grad)
                else:
                    first = (_bits(got.logdensity(w)), _bits(got.gradient(w)))
                    have = (_bits(got.logdensity(w.copy())), _bits(got.gradient(w)))
                    assert first == have
                assert have == want


def test_logistic_single_positions_follow_a_position_changed_in_place():
    """A row view rewritten between calls, as in SMC mutation, gives the new row's values."""
    key = make_key(4)
    ref, ref_tempered, _ = _reference_targets(key, 0.5)
    got, tempered, _ = _shipped_targets(key, 0.5)
    rows = np.array(_positions_with_extreme_scores(6, count=20))
    replacements = rows[::-1].copy()
    with np.errstate(all="ignore"):
        for i in range(rows.shape[0]):
            view = rows[i]
            got.logdensity(view)
            tempered.gradient(view)
            view[:] = replacements[i]
            assert _bits(got.gradient(view)) == _bits(ref.gradient(replacements[i]))
            assert _bits(tempered.logdensity(view)) == _bits(
                ref_tempered.logdensity(replacements[i])
            )
            assert _bits(got.logdensity(view)) == _bits(ref.logdensity(replacements[i]))


def test_logistic_single_positions_match_for_threads_sharing_one_target():
    """More threads than cores alternate positions on one target, switching often.

    Every thread gets the reference's values at every position.
    """
    key = make_key(5)
    ref, _, _ = _reference_targets(key, 1.0)
    got, _, _ = _shipped_targets(key, 1.0)
    banks = [_positions_with_extreme_scores(seed, count=30) for seed in (7, 8, 9, 10)]
    with np.errstate(all="ignore"):
        expected = [[(_bits(ref.logdensity(w)), _bits(ref.gradient(w))) for w in bank]
                    for bank in banks]
    mismatches = [0] * len(banks)

    def worker(index):
        with np.errstate(all="ignore"):
            for _ in range(20):
                for w, want in zip(banks[index], expected[index]):
                    if (_bits(got.logdensity(w)), _bits(got.gradient(w))) != want:
                        mismatches[index] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(banks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [0] * len(banks)


def test_logistic_blocks_and_positions_match_for_threads_sharing_one_target():
    """Threads interleave blocks of 100 and 7 rows and single positions on one target.

    Each call writes its temporaries into a block of its own, so every
    thread gets the reference's values everywhere.
    """
    key = make_key(5)
    ref, _, _ = _reference_targets(key, 1.0)
    got = make_builtin("logistic_synth", LOGISTIC_NUM_FEATURES, key).target
    banks = [np.array(_positions_with_extreme_scores(seed, count=92)) for seed in (7, 8, 9, 10)]
    with np.errstate(all="ignore"):
        expected = [(np.array([ref.logdensity(w) for w in bank]),
                     np.array([ref.gradient(w) for w in bank])) for bank in banks]
    mismatches = [0] * len(banks)

    def check(index, have, want):
        mismatches[index] += _bits(have) != _bits(want)

    def worker(index):
        bank, (densities, gradients) = banks[index], expected[index]
        with np.errstate(all="ignore"):
            for _ in range(5):
                have = got.logdensity.rows(bank, True)
                check(index, have[0], densities)
                check(index, have[1], gradients)
                check(index, got.logdensity.rows(bank, False)[0], densities)
                for start in range(0, bank.shape[0] - 6, 7):
                    have = got.logdensity.rows(bank[start:start + 7], True)
                    check(index, have[0], densities[start:start + 7])
                    check(index, have[1], gradients[start:start + 7])
                for i in range(0, bank.shape[0], 9):
                    check(index, got.logdensity(bank[i]), densities[i])
                    check(index, got.gradient(bank[i]), gradients[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(banks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [0] * len(banks)


def test_a_logistic_block_of_100_rows_peaks_below_five_of_its_temporaries():
    """One density-and-gradient call writes its temporaries into one block.

    Six separate (100, 200) temporaries took the traced peak to about 5.4
    of them; one (4, 100, 200) block and the returned arrays stay below 5.
    """
    rows = make_builtin("logistic_synth", LOGISTIC_NUM_FEATURES, make_key(2)).target.logdensity.rows
    num = 100
    weights = np.random.default_rng(3).normal(size=(num, LOGISTIC_NUM_FEATURES))
    temporary = num * LOGISTIC_NUM_POINTS * 8
    rows(weights, True)  # warm-up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rows(weights, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * temporary, peak / temporary


# ------------------------------------------------- row forms
#
# ``logistic_synth`` and ``gauss_conjugate`` evaluate a block of positions
# at a time through their ``rows`` form.  ``evaluate_rows`` must give bit for
# bit what the frozen per-position references give, and every wrapper
# around the per-position callables must still see each row.

_SPECIAL_ROWS = _positions_with_extreme_scores(0, count=0)
_ROW_SCALES = (1e-3, 1.0, 30.0, 1e3, 1e200)


@st.composite
def _blocks(draw, dim=LOGISTIC_NUM_FEATURES, max_rows=300):
    """1 to ``max_rows`` rows at scales 1e-3 to 1e200, with some of the special rows among them."""
    num = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.normal(size=(num, dim)) * rng.choice(_ROW_SCALES, size=(num, 1))
    for index in draw(st.lists(st.integers(0, len(_SPECIAL_ROWS) - 1), max_size=10)):
        block[rng.integers(num)] = np.concatenate([_SPECIAL_ROWS[index], np.zeros(dim)])[:dim]
    return block


def _per_row(target, block, with_gradient):
    densities = np.array([float(target.logdensity(x)) for x in block])
    if not with_gradient:
        return densities, None
    return densities, np.array([target.gradient(x) for x in block])


def _assert_rows_match(got, ref, block, with_gradient):
    have = evaluate_rows(block, got.logdensity, got.gradient if with_gradient else None)
    want = _per_row(ref, block, with_gradient)
    assert _bits(have[0]) == _bits(want[0])
    assert (have[1] is None) == (want[1] is None)
    if with_gradient:
        assert _bits(have[1]) == _bits(want[1])


@settings(max_examples=60, deadline=None)
@given(block=_blocks(), lmbda=st.sampled_from([0.0, 0.37, 1.0]), with_gradient=st.booleans())
def test_logistic_rows_match_the_reference_bitwise(block, lmbda, with_gradient):
    key = make_key(3)
    with np.errstate(all="ignore"):
        for got, ref in zip(_shipped_targets(key, lmbda), _reference_targets(key, lmbda)):
            assert callable(got.logdensity.rows)
            _assert_rows_match(got, ref, block, with_gradient)


@pytest.mark.parametrize("nan", [np.nan, -np.nan])
def test_logistic_rows_keep_the_nan_of_each_position_at_every_block_size(nan):
    """A NaN weight meets a NaN gradient of the other sign in ``-w + g``.

    Which of the two NaNs an add returns can depend on where the element
    falls in NumPy's loop, so every block size and row place is tried.
    """
    key = make_key(3)
    with np.errstate(all="ignore"):
        for num in range(1, 41):
            for place in sorted({0, num // 2, num - 1}):
                block = np.random.default_rng(num).normal(size=(num, LOGISTIC_NUM_FEATURES))
                block[place] = 0.0
                block[place, num % LOGISTIC_NUM_FEATURES] = nan
                for got, ref in zip(_shipped_targets(key, 1.0), _reference_targets(key, 1.0)):
                    _assert_rows_match(got, ref, block, with_gradient=True)


def _reference_conjugate(observations, lmbda):
    """(tempered at ``lmbda``, likelihood) as the per-position code computed them."""
    count, dim = observations.shape
    col_sums = observations.sum(axis=0)
    sq_total = float(np.sum(observations * observations))

    def loglik(x):
        quad = count * float(x @ x) - 2.0 * float(col_sums @ x) + sq_total
        return -0.5 * quad - 0.5 * count * dim * math.log(2.0 * math.pi)

    def grad_loglik(x):
        return col_sums - count * x

    tempered = TemperedTarget(dim, lambda x: -0.5 * float(x @ x), lambda x: -x, loglik, grad_loglik)
    return tempered.at_temperature(lmbda), Target(dim, loglik, grad_loglik)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), lmbda=st.sampled_from([0.0, 0.37, 1.0]),
       with_gradient=st.booleans())
def test_conjugate_rows_match_the_reference_bitwise(data, dim, lmbda, with_gradient):
    block = data.draw(_blocks(dim))
    tempered, details = make_tempered("gauss_conjugate", dim, make_key(8))
    shipped = (
        tempered.at_temperature(lmbda),
        Target(dim, tempered.log_likelihood, tempered.grad_likelihood),
    )
    with np.errstate(all="ignore"):
        for got, ref in zip(shipped, _reference_conjugate(details["observations"], lmbda)):
            assert callable(got.logdensity.rows)
            _assert_rows_match(got, ref, block, with_gradient)


def _counting(fn, name, calls):
    """A counting wrapper built the way the benchmark's tracer builds it."""

    def counted(x):
        calls.append((name, np.asarray(x).tobytes()))
        return fn(x)

    functools.update_wrapper(counted, fn)
    return counted


def test_a_counting_wrapper_sees_every_row_once_density_first():
    key = make_key(6)
    block = np.array(_positions_with_extreme_scores(12, count=40))
    ref, ref_tempered, ref_likelihood = _reference_targets(key, 0.6)
    builtin = make_builtin("logistic_synth", LOGISTIC_NUM_FEATURES, key).target
    calls = []
    counted = Target(
        builtin.dim,
        _counting(builtin.logdensity, "logdensity", calls),
        _counting(builtin.gradient, "gradient", calls),
    )
    assert counted.logdensity.rows is builtin.logdensity.rows
    rows = [x.tobytes() for x in block]
    with np.errstate(all="ignore"):
        _assert_rows_match(counted, ref, block, True)
        assert calls == [(name, x) for x in rows for name in ("logdensity", "gradient")]

        fields = ("log_prior", "grad_prior", "log_likelihood", "grad_likelihood")
        tempered, _ = make_tempered("logistic_synth", LOGISTIC_NUM_FEATURES, key)
        calls.clear()
        wrapped = dataclasses.replace(
            tempered, **{field: _counting(getattr(tempered, field), field, calls) for field in fields}
        )
        _assert_rows_match(wrapped.at_temperature(0.6), ref_tempered, block, True)
        order = ("log_prior", "log_likelihood", "grad_prior", "grad_likelihood")
        assert calls == [(name, x) for x in rows for name in order]
        calls.clear()  # the SMC reweighting call: densities only
        likelihood = Target(LOGISTIC_NUM_FEATURES, wrapped.log_likelihood, wrapped.grad_likelihood)
        _assert_rows_match(likelihood, ref_likelihood, block, False)
        assert calls == [("log_likelihood", x) for x in rows]


def test_wrappers_that_change_the_result_or_the_position_are_not_bypassed():
    key = make_key(7)
    block = np.random.default_rng(3).normal(size=(25, LOGISTIC_NUM_FEATURES))
    ref, _, _ = _reference_targets(key, 1.0)
    target = make_builtin("logistic_synth", LOGISTIC_NUM_FEATURES, key).target

    @functools.wraps(target.logdensity)
    def penalized(x):
        return target.logdensity(x) - 0.25 * float(x @ x)

    @functools.wraps(target.logdensity)
    def shifted(x):
        return target.logdensity(x + 1.0)

    densities = evaluate_rows(block, penalized, target.gradient)[0]
    expected = [ref.logdensity(x) - 0.25 * float(x @ x) for x in block]
    assert _bits(densities) == _bits(expected)
    densities, gradients = evaluate_rows(block, shifted, target.gradient)
    assert _bits(densities) == _bits([ref.logdensity(x + 1.0) for x in block])
    assert _bits(gradients) == _bits([ref.gradient(x) for x in block])


def _pass_through(fn):
    """A wrapper that changes nothing, so it sends every row through the per-row loop."""

    @functools.wraps(fn)
    def passed(x):
        return fn(x)

    return passed


def test_a_tempered_target_has_its_own_row_form_only_when_its_parts_have_theirs():
    tempered, _ = make_tempered("logistic_synth", LOGISTIC_NUM_FEATURES, make_key(2))
    at = tempered.at_temperature(0.5)
    own = at.logdensity.rows.callables
    assert own[0] is at.logdensity and own[1] is at.gradient
    wrapped = dataclasses.replace(tempered, log_likelihood=_pass_through(tempered.log_likelihood))
    assert not hasattr(wrapped.at_temperature(0.5).logdensity, "rows")
    plain = TemperedTarget(2, lambda x: 0.0, lambda x: 0 * x, lambda x: 0.0, lambda x: 0 * x)
    assert not hasattr(plain.at_temperature(0.5).logdensity, "rows")


def _row_form_targets(key, lmbda):
    """Targets with row forms of their own: logistic_synth, the tempered ones, their likelihoods."""
    logistic, _ = make_tempered("logistic_synth", LOGISTIC_NUM_FEATURES, key)
    conjugate, _ = make_tempered("gauss_conjugate", LOGISTIC_NUM_FEATURES, key)
    yield make_builtin("logistic_synth", LOGISTIC_NUM_FEATURES, key).target
    for tempered in (logistic, conjugate):
        yield tempered.at_temperature(lmbda)
        yield Target(tempered.dim, tempered.log_likelihood, tempered.grad_likelihood)


def _nan_row_last(num):
    block = np.zeros((num, LOGISTIC_NUM_FEATURES))
    block[-1, 0] = np.nan
    return block


@settings(max_examples=60, deadline=None)
@given(block=_blocks(max_rows=40), lmbda=st.sampled_from([0.0, 0.37, 1.0]),
       with_gradient=st.booleans())
# A NaN row in the scalar tail of NumPy's add loop: without the redo of NaN
# rows, the tempered gradients there take the other NaN.
@example(block=_nan_row_last(3), lmbda=0.37, with_gradient=True)
@example(block=_nan_row_last(17), lmbda=0.0, with_gradient=True)
def test_the_block_path_has_the_bits_of_the_per_row_loop(block, lmbda, with_gradient):
    with np.errstate(all="ignore"):
        for target in _row_form_targets(make_key(5), lmbda):
            own = (target.logdensity, target.gradient if with_gradient else None)
            wrapped = [None if fn is None else _pass_through(fn) for fn in own]
            assert target.logdensity.rows.callables[0] is target.logdensity
            for got, want in zip(evaluate_rows(block, *own), evaluate_rows(block, *wrapped)):
                assert _bits(got) == _bits(want)
            for x in block:
                for got, want in zip(evaluate(x, *own), evaluate(x, *wrapped)):
                    assert _bits(got) == _bits(want)


# ------------------------------------------------- the one-exp softplus
#
# The body takes the softplus from the sigmoid's t = exp(-|s|).  Against the
# np.logaddexp(0, s) form it replaced, densities move by a few ulp at most,
# non-finite and signed-zero rows not at all, and gradients not at all.  A
# row's bits must not depend on the block it is evaluated in.


def _logaddexp_softplus(scores):
    return np.logaddexp(0.0, scores)


# The all-zero, all-negative-zero, infinite and NaN rows of _SPECIAL_ROWS.
_EXACT_SPECIAL_ROWS = (0, 1, 3, 4, 5, 6)


def _assert_within_the_logaddexp_bound(key, lmbda, block):
    """Densities within 4 ulp of ``max(1, |density|)`` of the logaddexp form, gradients equal."""
    for got, old in zip(_shipped_targets(key, lmbda),
                        _reference_targets(key, lmbda, _logaddexp_softplus)):
        densities, gradients = evaluate_rows(block, got.logdensity, got.gradient)
        want_densities, want_gradients = _per_row(old, block, with_gradient=True)
        assert _bits(gradients) == _bits(want_gradients)
        finite = np.isfinite(want_densities)
        assert _bits(densities[~finite]) == _bits(want_densities[~finite])
        gap = np.abs(densities[finite] - want_densities[finite])
        assert np.all(gap <= 4.0 * np.spacing(np.maximum(1.0, np.abs(want_densities[finite]))))


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_logistic_densities_stay_within_4_ulp_of_the_logaddexp_form_at_extreme_scores(seed):
    key = make_key(seed)
    block = np.array(_positions_with_extreme_scores(seed, count=200))
    exact = np.array([_SPECIAL_ROWS[i] for i in _EXACT_SPECIAL_ROWS])
    with np.errstate(all="ignore"):
        for lmbda in (0.0, 0.37, 1.0):
            _assert_within_the_logaddexp_bound(key, lmbda, block)
            for got, old in zip(_shipped_targets(key, lmbda),
                                _reference_targets(key, lmbda, _logaddexp_softplus)):
                for x in exact:
                    assert _bits(got.logdensity(x)) == _bits(old.logdensity(x))


@settings(max_examples=60, deadline=None)
@given(block=_blocks(), lmbda=st.sampled_from([0.0, 0.37, 1.0]))
def test_logistic_densities_stay_within_4_ulp_of_the_logaddexp_form_on_random_blocks(block, lmbda):
    with np.errstate(all="ignore"):
        _assert_within_the_logaddexp_bound(make_key(3), lmbda, block)


@settings(max_examples=60, deadline=None)
@given(block=_blocks(), lmbda=st.sampled_from([0.0, 0.37, 1.0]), with_gradient=st.booleans())
def test_a_logistic_rows_bits_do_not_depend_on_its_block(block, lmbda, with_gradient):
    """Each row of a block of 1 to 300 rows has the bits it has alone."""
    with np.errstate(all="ignore"):
        for got in _shipped_targets(make_key(3), lmbda):
            _assert_rows_match(got, got, block, with_gradient)


@pytest.mark.parametrize("num", [1, 2, 7, 8, 9, 16, 17, 33, 64, 100, 129, 256, 300])
def test_special_rows_have_their_own_bits_at_any_block_size_and_place(num):
    """Every special row, both NaN signs among them, first, middle and last in the block."""
    rng = np.random.default_rng(num)
    filler = rng.normal(size=(num, LOGISTIC_NUM_FEATURES)) * rng.choice(_ROW_SCALES, size=(num, 1))
    specials = np.array(_SPECIAL_ROWS)
    with np.errstate(all="ignore"):
        for got in _shipped_targets(make_key(3), 0.37):
            for with_gradient in (False, True):
                filler_alone = _per_row(got, filler, with_gradient)
                specials_alone = _per_row(got, specials, with_gradient)
                for j, special in enumerate(specials):
                    for place in sorted({0, num // 2, num - 1}):
                        block = filler.copy()
                        block[place] = special
                        have = evaluate_rows(block, got.logdensity,
                                             got.gradient if with_gradient else None)
                        for part in range(2 if with_gradient else 1):
                            want = filler_alone[part].copy()
                            want[place] = specials_alone[part][j]
                            assert _bits(have[part]) == _bits(want)


def test_a_gradient_changed_in_place_by_its_caller_leaves_later_results_alone():
    """Overwriting a returned gradient does not change what the next call returns."""
    target = make_builtin("logistic_synth", LOGISTIC_NUM_FEATURES, make_key(9)).target
    block = np.random.default_rng(4).normal(size=(3, LOGISTIC_NUM_FEATURES))
    _, gradients = evaluate_rows(block, target.logdensity, target.gradient)
    target.logdensity.rows(block, True)
    target.gradient(block[1])[:] = np.nan
    assert _bits(target.gradient(block[1])) == _bits(gradients[1])
