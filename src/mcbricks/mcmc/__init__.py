"""Complete samplers assembled from the acceptance and integration atoms.

Each sampler module exposes ``init(position, target, ...)``, a
``build_kernel(...)`` constructor returning a pure transition function
``kernel(key, state, target)``, and an ``as_algorithm(target, ...)``
convenience that packages both behind the library-wide init/step protocol
through :func:`mcbricks.core.bind`.  Every kernel carries a draw atom as
``kernel.draw(keys, target)``, which draws the randomness of many steps at
once (see :mod:`mcbricks.core`): RWM, MALA, HMC and GHMC share
:func:`mcbricks.integrator.momentum_draw`, standard normals and a uniform,
and NUTS draws one :class:`~mcbricks.mcmc.nuts.NutsDraw` record per step,
every number its tree could use.  No record holds a step size or a metric:
HMC, GHMC and NUTS scale their normals into a momentum under their own
metric.  RWM, MALA and HMC each write their accept
rule once and step a single state or an ensemble with one body, through
:func:`mcbricks.proposal.settle`.

MALA, HMC and NUTS share :class:`mcbricks.core.GradientState` and its
``init``; RWM (no gradient) and GHMC (persistent momentum and slice) keep
their own states.  RWM, MALA, HMC and GHMC report one record,
:class:`mcbricks.core.AcceptanceInfo`; NUTS extends it.  Endpoints
are scored by :func:`mcbricks.integrator.total_energy`, non-finite as +inf,
row by row for an ensemble; NUTS writes its leapfrog and that rule out in
its tree loop, bit for bit.
"""

from . import ghmc, hmc, mala, nuts, rwm

__all__ = ["rwm", "mala", "hmc", "ghmc", "nuts"]
