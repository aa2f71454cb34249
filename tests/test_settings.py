"""Every builder applies one rule per kind of numeric setting, where it is built.

A step size, a proposal scale and a learning rate must be positive and
finite: NaN, both infinities and zeros of both signs raise a ``ValueError``
that names the setting, while the extremes of the double range (the
smallest subnormal and ``1e308``) are accepted.  A metric must act on as
many coordinates as the target it meets, also in a kernel built directly
with ``build_kernel``.
"""

import math

import numpy as np
import pytest

from mcbricks.adaptation import da_init, find_reasonable_step_size
from mcbricks.core import init
from mcbricks.integrator import identity_metric
from mcbricks.mcmc import ghmc, hmc, mala, nuts, rwm
from mcbricks.rng import make_key
from mcbricks.sgmcmc import make_gradient_estimator, sghmc_init, sghmc_step, sgld_init, sgld_step
from mcbricks.targets import std_normal
from mcbricks.vi import adam, elbo_estimate, meanfield_init, sgd, vi_sample, vi_step

_BAD = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]
_EXTREME = [5e-324, 1e308]


def _estimator():
    return make_gradient_estimator(lambda x: -x, lambda x, i: np.zeros(2), 0, 0)


def _search(initial):
    target = std_normal(2).target
    state = init(np.full(2, 0.5), target)
    return find_reasonable_step_size(make_key(3), target, state, identity_metric(2), initial)


# (setting named in the error, builder of one value)
_POSITIVE_SETTINGS = {
    "mala": ("step size", mala.build_kernel),
    "hmc": ("step size", lambda value: hmc.build_kernel(value, 3)),
    "ghmc": ("step size", ghmc.build_kernel),
    "nuts": ("step size", nuts.build_kernel),
    "sgld_step": ("step size", lambda value: sgld_step(
        make_key(1), sgld_init(np.zeros(2)), _estimator(), value)),
    "sghmc_step": ("step size", lambda value: sghmc_step(
        make_key(1), sghmc_init(np.zeros(2)), _estimator(), value)),
    "da_init": ("initial step size", da_init),
    "find_reasonable_step_size": ("initial step size", _search),
    "sgd": ("learning rate", sgd),
    "adam": ("learning rate", adam),
}


@pytest.mark.parametrize("builder", sorted(_POSITIVE_SETTINGS))
def test_a_setting_that_is_not_positive_and_finite_is_rejected_by_name(builder):
    name, build = _POSITIVE_SETTINGS[builder]
    for value in _BAD:
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, not {value!r}$"):
            build(value)
    # The extremes of the double range are settings like any other.
    with np.errstate(over="ignore", invalid="ignore"):
        for value in _EXTREME:
            build(value)


def test_an_rwm_scale_with_one_bad_entry_is_rejected():
    for scale in [[1.0, math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0], [1.0, 0.0],
                  [-0.0, 2.0], [1.0, -1.0], *_BAD]:
        for value in (scale, np.asarray(scale)):
            with pytest.raises(ValueError, match="^proposal scale must be positive and finite"):
                rwm.build_kernel(value)
    for scale in [*_EXTREME, np.array([5e-324, 1e308, 1.0])]:
        rwm.build_kernel(scale)


@pytest.mark.parametrize("call", [
    lambda key, state, target: vi_sample(key, state, 0),
    lambda key, state, target: elbo_estimate(key, state, target, 0),
    lambda key, state, target: vi_step(key, state, target, adam(0.1), 0),
    lambda key, state, target: vi_sample(key, state, -3),
], ids=["vi_sample", "elbo_estimate", "vi_step", "vi_sample negative"])
def test_every_vi_draw_needs_at_least_one_sample(call):
    target = std_normal(2).target
    state = meanfield_init(np.zeros(2), adam(0.1))
    with pytest.raises(ValueError, match="at least one sample"):
        call(make_key(4), state, target)


@pytest.mark.parametrize("family", ["hmc", "ghmc", "nuts"])
def test_a_directly_built_kernel_rejects_a_metric_of_another_dimension(family):
    """A dim-1 metric would broadcast silently against dim-5 positions; none is the identity."""
    init_fn, build = {
        "hmc": (init, lambda metric: hmc.build_kernel(0.2, 3, metric)),
        "ghmc": (ghmc.init, lambda metric: ghmc.build_kernel(0.2, 0.9, metric)),
        "nuts": (init, lambda metric: nuts.build_kernel(0.2, metric)),
    }[family]
    target = std_normal(5).target
    state = init_fn(np.linspace(-1.0, 1.0, 5), target)
    with pytest.raises(ValueError, match="metric dimension 1 does not match target dimension 5"):
        build(identity_metric(1))(make_key(2), state, target)
    default, _ = build(None)(make_key(2), state, target)
    identity, _ = build(identity_metric(5))(make_key(2), state, target)
    assert default.position.tobytes() == identity.position.tobytes()
