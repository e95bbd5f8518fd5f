"""Span tracing of solmanifold's layers, installed from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper under
every ``solmanifold`` module name that binds it (``shoot_h`` is bound in both
``experiments`` and ``modulation``, for instance) and ``restore`` puts the
originals back.  A group of functions gets one span, opened at the outermost
call into the group; a span's self time is its duration minus the time its
child spans cover.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

PACKAGE = "solmanifold"

# group -> (module, function) pairs that open the group's span
GROUPS = {
    "spectral.ground_state": [("spectral", "ground_state")],
    "propagators.free": [
        ("propagators", "free_sine"),
        ("propagators", "free_cosine"),
        ("propagators", "free_sine_traj"),
        ("propagators", "free_cosine_traj"),
    ],
    "propagators.evolve_linear_perturbed": [("propagators", "evolve_linear_perturbed")],
    "modulation.evolve_nonlinear": [("modulation", "evolve_nonlinear")],
    "modulation.shoot_h": [("modulation", "shoot_h")],
    "modulation.extract_modulation": [("modulation", "extract_modulation")],
    "modulation.h_fixed_point": [("modulation", "h_fixed_point")],
    "modulation.picard_map": [("modulation", "picard_map")],
    "modulation.modulation_rate_series": [("modulation", "modulation_rate_series")],
    "modulation.xpm_evolution": [("modulation", "xpm_evolution")],
    "norms.mixed_norm": [("norms", "mixed_norm")],
    "norms.lorentz_norm": [("norms", "lorentz_norm")],
    "norms.energy": [("norms", "energy")],
    "grid.field_from_w": [("grid", "field_from_w")],
    "grid.inner_product": [("grid", "inner_product")],
    "soliton.profile": [
        ("soliton", "phi"),
        ("soliton", "dphi_da"),
        ("soliton", "potential"),
        ("soliton", "phi_field"),
        ("soliton", "resonance_defect_profile"),
    ],
    "experiments.run": [("experiments", "run")],
}

# counted on every call, without a span (too cheap and too frequent to time)
COUNTED = {"grid.pair_w.calls": ("grid", "pair_w")}

COUNT, SECONDS = "count", "s"

# per-layer metric name -> unit, in report order
LAYER_METRICS = {
    "spectral.ground_state.calls": COUNT,
    "spectral.ground_state.self_s": SECONDS,
    "propagators.free.calls": COUNT,
    "propagators.free.slices": COUNT,
    "propagators.free.self_s": SECONDS,
    "propagators.evolve_linear_perturbed.calls": COUNT,
    "propagators.evolve_linear_perturbed.steps": COUNT,
    "propagators.evolve_linear_perturbed.self_s": SECONDS,
    "modulation.evolve_nonlinear.calls": COUNT,
    "modulation.evolve_nonlinear.steps": COUNT,
    "modulation.evolve_nonlinear.self_s": SECONDS,
    "modulation.evolve_nonlinear.peak_alloc_mb": "MB",
    "modulation.shoot_h.calls": COUNT,
    "modulation.shoot_h.iterations": COUNT,
    "modulation.shoot_h.runs_per_call": "runs/call",
    "modulation.shoot_h.self_s": SECONDS,
    "modulation.extract_modulation.calls": COUNT,
    "modulation.extract_modulation.self_s": SECONDS,
    "modulation.h_fixed_point.calls": COUNT,
    "modulation.h_fixed_point.self_s": SECONDS,
    "modulation.picard_map.calls": COUNT,
    "modulation.picard_map.self_s": SECONDS,
    "modulation.modulation_rate_series.self_s": SECONDS,
    "modulation.xpm_evolution.self_s": SECONDS,
    "norms.mixed_norm.calls": COUNT,
    "norms.mixed_norm.self_s": SECONDS,
    "norms.lorentz_norm.self_s": SECONDS,
    "norms.energy.calls": COUNT,
    "norms.energy.self_s": SECONDS,
    "grid.field_from_w.calls": COUNT,
    "grid.field_from_w.self_s": SECONDS,
    "grid.inner_product.calls": COUNT,
    "grid.inner_product.self_s": SECONDS,
    "grid.pair_w.calls": COUNT,
    "grid.r.calls": COUNT,
    "soliton.profile.calls": COUNT,
    "soliton.profile.self_s": SECONDS,
    "experiments.run.self_s": SECONDS,
    "trace.overhead_ratio": "ratio",
}


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id, measure_alloc=False):
        self.run_id = run_id
        # tracemalloc slows every allocation, so it runs only when asked for
        self.measure_alloc = measure_alloc
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.peak_alloc_mb = 0.0
        self._stack = []  # [span index, name, start, parent, covered by children]
        self._open = Counter()
        self._patches = []
        self._r_property = None
        self.started = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._open[name] += 1
        self._stack.append([len(self.spans), name, time.perf_counter(), parent, 0.0])
        self.spans.append(None)

    def _exit(self, name):
        end = time.perf_counter()
        index, name, start, parent, covered = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][4] += duration
        self.spans[index] = (name, start, end, parent, self.run_id)

    # -- per-function counters -------------------------------------------------

    def _after(self, fn_name, sig, args, kwargs, result):
        if fn_name in ("free_sine", "free_cosine"):
            self.counts["propagators.free.slices"] += 1
        elif fn_name == "evolve_linear_perturbed":
            T = _arg(sig, args, kwargs, "T")
            dt = _arg(sig, args, kwargs, "dt")
            self.counts["propagators.evolve_linear_perturbed.steps"] += int(round(T / dt))
        elif fn_name == "evolve_nonlinear":
            self.counts["modulation.evolve_nonlinear.steps"] += len(result.times_dense) - 1
            if self._open["modulation.shoot_h"]:
                self.counts["modulation.shoot_h.runs"] += 1
        elif fn_name == "shoot_h":
            self.counts["modulation.shoot_h.iterations"] += result.iterations

    def _wrap(self, group, fn):
        sig = inspect.signature(fn)
        fn_name = fn.__name__
        measure_alloc = self.measure_alloc and fn_name == "evolve_nonlinear"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[group]:
                result = fn(*args, **kwargs)
            else:
                alloc = measure_alloc and not tracemalloc.is_tracing()
                if alloc:
                    tracemalloc.start()
                self._enter(group)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(group)
                    if alloc:
                        peak = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                        self.peak_alloc_mb = max(self.peak_alloc_mb, peak)
            self._after(fn_name, sig, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore -----------------------------------------------------

    def _patch(self, original, wrapper):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for group, targets in GROUPS.items():
            for module_name, fn_name in targets:
                fn = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), fn_name)
                self._patch(fn, self._wrap(group, fn))
        for name, (module_name, fn_name) in COUNTED.items():
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), fn_name)
            self._patch(fn, self._count(name, fn))
        # RadialGrid.r is a property recomputed on every access: count accesses
        grid_cls = importlib.import_module(f"{PACKAGE}.grid").RadialGrid
        self._r_property = vars(grid_cls)["r"]
        fget = self._r_property.fget
        counts = self.counts

        def r(grid):
            counts["grid.r.calls"] += 1
            return fget(grid)

        grid_cls.r = property(r, doc=self._r_property.__doc__)
        self.started = time.perf_counter()

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []
        if self._r_property is not None:
            importlib.import_module(f"{PACKAGE}.grid").RadialGrid.r = self._r_property
            self._r_property = None

    # -- output ------------------------------------------------------------------

    def layer_metrics(self, overhead_ratio):
        """Per-layer metric values keyed like LAYER_METRICS."""
        out = {}
        for name in LAYER_METRICS:
            group, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[group] if group in GROUPS else self.counts[name]
            elif kind == "self_s":
                out[name] = self.self_s[group]
            else:
                out[name] = self.counts[name]
        shoots = self.calls["modulation.shoot_h"]
        runs = self.counts["modulation.shoot_h.runs"]
        out["modulation.shoot_h.runs_per_call"] = runs / shoots if shoots else 0.0
        out["modulation.evolve_nonlinear.peak_alloc_mb"] = self.peak_alloc_mb
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path):
        """Write the spans as CSV, times relative to install."""
        t0 = self.started
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,run_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{run_id}\n")
