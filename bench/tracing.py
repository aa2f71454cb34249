"""Layer tracing for an in-process mcbricks CLI run.

The program carries no instrumentation of its own, so the spans are made
here: :func:`install` wraps every public function (the names in a module's
``__all__``) of each layer module, and rebinds the wrapper in every
``mcbricks.*`` namespace that holds the original.  Kernels returned by the
samplers' ``build_kernel`` are wrapped on the way out, as are the target
callables inside what ``make_builtin`` and ``make_tempered`` return.

A span records its name, start, end and parent.  Spans stay in flat arrays
in memory and are written out once, after the run.  Self time is charged
event by event: at every span entry or exit, the time since the previous
event goes to the innermost open span of the thread that reached the event.
With the interpreter lock only one thread runs Python at a time, so the
self times of a run with worker threads still add up to its wall time,
which span durations would count twice.  The top-level spans of worker
threads hang under the root span (``cli.main``) that started them.  One
lock serialises the bookkeeping, which worker threads share.

Besides spans the tracer keeps the counts the benchmark derives metrics
from: target evaluations by position, kernel outcomes, SMC stage results.
In counting mode (``spans=False``) only the target callables are wrapped,
which keeps the overhead small enough to run beside timed runs.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

import numpy as np

LAYERS = (
    "rng", "targets", "integrator", "proposal", "mcmc", "adaptation",
    "core", "smc", "vi", "diagnostics", "cli",
)
SPLIT_FUNCTIONS = ("rng.make_key", "rng.split_key", "rng.fold_in")
DRAW_FUNCTIONS = (
    "rng.uniform", "rng.uniform_vector", "rng.normal_vector",
    "rng.normal_matrix", "rng.permutation",
)
# Children of an SMC stage that belong to choosing lambda and reweighting.
REWEIGHT_FUNCTIONS = ("smc.adaptive_next_lambda", "smc.reweight", "smc.ess")
# Target callables: which count as a density or a gradient evaluation.  A
# tempered target's prior terms ride along with its likelihood terms and are
# not counted separately.
EVAL_KIND = {
    "logdensity": "density", "gradient": "gradient",
    "log_likelihood": "density", "grad_likelihood": "gradient",
    "log_prior": None, "grad_prior": None,
}


def layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "mcbricks" and parts[1] in LAYERS:
        return parts[1]
    return None


def span_name(fn: Callable) -> str:
    parts = fn.__module__.split(".")
    if parts[1] == "mcmc":
        return f"mcmc.{parts[2]}.{fn.__name__}"
    return f"{parts[1]}.{fn.__name__}"


class Tracer:
    """Span store plus the exact counts of one traced run."""

    def __init__(self, spans: bool = True) -> None:
        self.spans = spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last = [0.0]
        self.root = -1
        self.positions = {"density": Counter(), "gradient": Counter()}
        self.kernel = Counter()
        self.stage_accept: list[float] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, on_return: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call (and calling ``on_return``)."""
        if not self.spans:
            return fn
        nid = self._intern(name)
        names, parents, starts, ends, selfs = self.name, self.parent, self.start, self.end, self.self_s
        local, lock, last, clock, tracer = self._local, self._lock, self._last, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
            with lock:
                top = stack[-1] if stack else tracer.root
                now = clock()
                if top >= 0:
                    selfs[top] += now - last[0]
                last[0] = now
                index = len(starts)
                if tracer.root < 0:
                    tracer.root = index
                names.append(nid)
                parents.append(top)
                starts.append(now)
                ends.append(now)
                selfs.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
            finally:
                with lock:
                    now = clock()
                    selfs[index] += now - last[0]
                    last[0] = now
                    ends[index] = now
                stack.pop()
            return result

        return traced

    def wrap_target_callable(self, fn: Callable, field: str) -> Callable:
        kind = EVAL_KIND.get(field)
        if kind is not None:
            counter, lock = self.positions[kind], self._lock

            def counted(x, *args, **kwargs):
                key = hash(np.asarray(x).tobytes())
                with lock:
                    counter[key] += 1
                return fn(x, *args, **kwargs)

            functools.update_wrapper(counted, fn)
        else:
            counted = fn
        return self.wrap(counted, f"targets.{field}")

    def record_step(self, result) -> None:
        info = result[1]
        kernel = self.kernel
        with self._lock:
            kernel["steps"] += 1
            kernel["accepted"] += bool(getattr(info, "accepted", False))
            kernel["divergent"] += bool(getattr(info, "is_divergent", False))
            kernel["leapfrogs"] += int(getattr(info, "num_integration_steps", 0))
            if hasattr(info, "tree_depth"):
                kernel["depth_sum"] += int(info.tree_depth)
                kernel["depth_steps"] += 1

    def record_stage(self, result) -> None:
        self.stage_accept.append(float(result[1].mean_acceptance))

    # ------------------------------------------------------------------
    # Derived quantities

    def eval_counts(self) -> dict[str, int]:
        density, gradient = self.positions["density"], self.positions["gradient"]
        paired = sum(min(count, density[key]) for key, count in gradient.items())
        return {
            "density": sum(density.values()),
            "gradient": sum(gradient.values()),
            "gradient_paired": paired,
        }

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "self_s": np.frombuffer(self.self_s, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write all spans (and the name table) as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _wrap_builtin(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def make_builtin(*args, **kwargs):
        builtin = fn(*args, **kwargs)
        target = builtin.target
        wrapped = dataclasses.replace(
            target,
            logdensity=tracer.wrap_target_callable(target.logdensity, "logdensity"),
            gradient=tracer.wrap_target_callable(target.gradient, "gradient"),
        )
        return dataclasses.replace(builtin, target=wrapped)

    return make_builtin


def _wrap_tempered(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def make_tempered(*args, **kwargs):
        tempered, details = fn(*args, **kwargs)
        fields = ("log_prior", "grad_prior", "log_likelihood", "grad_likelihood")
        wrapped = dataclasses.replace(
            tempered,
            **{f: tracer.wrap_target_callable(getattr(tempered, f), f) for f in fields},
        )
        return wrapped, details

    return make_tempered


def _wrap_kernel_builder(tracer: Tracer, fn: Callable, name: str) -> Callable:
    kernel_name = name.rsplit(".", 1)[0] + ".kernel"

    @functools.wraps(fn)
    def build_kernel(*args, **kwargs):
        return tracer.wrap(fn(*args, **kwargs), kernel_name, tracer.record_step)

    return tracer.wrap(build_kernel, name)


def _wrapper_for(tracer: Tracer, fn: Callable) -> Callable:
    name = span_name(fn)
    if name == "targets.make_builtin":
        return tracer.wrap(_wrap_builtin(tracer, fn), name)
    if name == "targets.make_tempered":
        return tracer.wrap(_wrap_tempered(tracer, fn), name)
    if not tracer.spans:
        return fn
    if name.startswith("mcmc.") and name.endswith(".build_kernel"):
        return _wrap_kernel_builder(tracer, fn, name)
    if name == "smc.smc_step":
        return tracer.wrap(fn, name, tracer.record_stage)
    return tracer.wrap(fn, name)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer functions for ``tracer``; return the function that undoes it."""
    import mcbricks  # noqa: F401  (imports every layer module)
    import mcbricks.cli  # noqa: F401

    modules = [
        module for name, module in sorted(sys.modules.items())
        if (name == "mcbricks" or name.startswith("mcbricks.")) and module is not None
    ]
    wrappers: dict[Callable, Callable] = {}
    for module in modules:
        if layer_of(module.__name__) is None:
            continue
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrapper = _wrapper_for(tracer, fn)
                if wrapper is not fn:
                    wrappers[fn] = wrapper
    rebound: list[tuple[object, str, Callable]] = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                rebound.append((module, attr, value))

    def uninstall() -> None:
        for module, attr, original in rebound:
            setattr(module, attr, original)

    return uninstall


def run_cli(argv: list[str], tracer: Tracer) -> tuple[int, float]:
    """Run ``mcbricks.cli.main(argv)`` in this process under ``tracer``.

    Returns the exit code and the wall time of the call.
    """
    uninstall = install(tracer)
    try:
        import mcbricks.cli

        started = time.perf_counter()
        code = mcbricks.cli.main(argv)
        wall = time.perf_counter() - started
    finally:
        uninstall()
    return code, wall


# ----------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics from one traced run (see BENCHMARK.json ``per_layer``).

    Inclusive times are sums of self time over a span's subtree, so they
    stay additive with worker threads.
    """
    spans = tracer.arrays()
    names = tracer.names
    name_ids = spans["name"]
    parent = spans["parent"]
    self_s = spans["self_s"]
    count = len(self_s)
    inclusive = self_s.copy()
    for index in range(count - 1, -1, -1):
        up = parent[index]
        if up >= 0:
            inclusive[up] += inclusive[index]
    num_names = len(names)
    calls = np.bincount(name_ids, minlength=num_names)
    self_by_name = np.bincount(name_ids, weights=self_s, minlength=num_names)
    incl_by_name = np.bincount(name_ids, weights=inclusive, minlength=num_names)
    by_name = {name: i for i, name in enumerate(names)}

    def n_calls(*wanted: str) -> int:
        return int(sum(calls[by_name[w]] for w in wanted if w in by_name))

    def incl(*wanted: str) -> float:
        return float(sum(incl_by_name[by_name[w]] for w in wanted if w in by_name))

    def own(wanted: str) -> float:
        return float(self_by_name[by_name[wanted]]) if wanted in by_name else 0.0

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    layer_ids = np.array([LAYERS.index(name.split(".", 1)[0]) for name in names], dtype=np.int64)
    span_layer = layer_ids[name_ids] if count else np.zeros(0, dtype=np.int64)
    layer_calls = np.bincount(span_layer, minlength=len(LAYERS))
    layer_self = np.bincount(span_layer, weights=self_s, minlength=len(LAYERS))

    metrics: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls"] = int(layer_calls[i])
        metrics[f"{layer}.self_s"] = float(layer_self[i])
        metrics[f"{layer}.self_share"] = per(float(layer_self[i]), traced_wall)

    metrics["rng.us_per_call"] = 1e6 * per(float(layer_self[0]), int(layer_calls[0]))
    metrics["rng.split_calls"] = n_calls(*SPLIT_FUNCTIONS)
    metrics["rng.draw_calls"] = n_calls(*DRAW_FUNCTIONS)

    evals = tracer.eval_counts()
    metrics["targets.logdensity_calls"] = evals["density"]
    metrics["targets.gradient_calls"] = evals["gradient"]
    metrics["targets.fusable_ratio"] = per(evals["gradient_paired"], evals["gradient"])

    leapfrogs = n_calls("integrator.leapfrog")
    metrics["integrator.leapfrog_calls"] = leapfrogs
    metrics["integrator.us_per_leapfrog"] = 1e6 * per(incl("integrator.leapfrog"), leapfrogs)

    kernel = tracer.kernel
    steps = kernel["steps"]
    metrics["mcmc.steps"] = steps
    metrics["mcmc.accept_ratio"] = per(kernel["accepted"], steps)
    metrics["mcmc.divergent_steps"] = kernel["divergent"]
    metrics["mcmc.leapfrogs_per_step"] = per(kernel["leapfrogs"], steps)
    metrics["mcmc.mean_tree_depth"] = per(kernel["depth_sum"], kernel["depth_steps"])
    metrics["mcmc.us_per_step_overhead"] = 1e6 * per(float(layer_self[LAYERS.index("mcmc")]), steps)

    metrics["adaptation.warmup_s"] = incl("adaptation.window_adaptation")
    metrics["adaptation.step_size_searches"] = n_calls("adaptation.find_reasonable_step_size")

    metrics["core.run_chain_self_s"] = own("core.run_chain")

    stage_id = by_name.get("smc.smc_step", -1)
    stage_time = incl("smc.smc_step")
    reweight_s = resample_s = 0.0
    particle_steps = 0
    if stage_id >= 0:
        under_stage = parent >= 0
        under_stage[under_stage] = name_ids[parent[under_stage]] == stage_id
        child_names = np.array(names, dtype=object)[name_ids[under_stage]]
        child_incl = inclusive[under_stage]
        for child, seconds in zip(child_names, child_incl):
            if child == "smc.resample":
                resample_s += seconds
            elif child in REWEIGHT_FUNCTIONS or child.startswith("targets."):
                reweight_s += seconds
            elif child.startswith("mcmc.") and child.endswith(".kernel"):
                particle_steps += 1
    metrics["smc.stages"] = n_calls("smc.smc_step")
    metrics["smc.particle_steps"] = particle_steps
    metrics["smc.mutation_s"] = stage_time - reweight_s - resample_s
    metrics["smc.reweight_s"] = reweight_s
    metrics["smc.resample_s"] = resample_s
    metrics["smc.mutation_accept"] = float(np.mean(tracer.stage_accept)) if tracer.stage_accept else 0.0

    vi_steps = n_calls("vi.vi_step")
    metrics["vi.steps"] = vi_steps
    metrics["vi.step_us"] = 1e6 * per(incl("vi.vi_step"), vi_steps)

    metrics["diagnostics.summarize_s"] = incl("diagnostics.summarize")
    metrics["trace.spans"] = count
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.attributed_share"] = per(float(np.sum(self_s)), traced_wall)
    return metrics


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    leaf = metric.rsplit(".", 1)[1]
    if leaf.startswith("us_per_") or leaf.endswith("_us"):
        return "us"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith(("_share", "_ratio", "_accept")):
        return "ratio"
    if leaf.endswith("_bytes"):
        return "bytes"
    return "count"


def exact_counts(tracer: Tracer) -> dict:
    """Counts that must repeat exactly between two traced runs of one input."""
    calls = np.bincount(np.frombuffer(tracer.name, dtype=np.int32), minlength=len(tracer.names))
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(tracer.names) if calls[i]},
        "evals": tracer.eval_counts(),
        "kernel": dict(tracer.kernel),
        "stages": len(tracer.stage_accept),
    }
