"""Per-layer spans around calls into arraycav's public functions.

A ``sys.setprofile`` hook, installed in every thread, opens a span when a
probed function's code object starts and closes it when that frame returns.
Each span holds its name, start, end and parent; a layer's self time is its
span time minus the time of its child spans in the same thread.  Spans stay in
memory and are reduced to metrics after the traced round.

Probes are looked up by name when tracing starts.  A module or function that
no longer exists is listed as absent and its metrics read 0; the benchmark
keeps running.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

PROBES = (
    "confined.confined_table", "confined.free_space_kernel",
    "confined.confined_kernel_paraxial", "confined.projected_kernel",
    "greens.kernel_fs_plane", "greens.kernel_fs_d2z_plane",
    "optomech.om_consistency", "optomech.mechanical_basis",
    "optomech.coupling_matrix_C",
    "_numerics.open_convolve", "_numerics.cyclic_weight_apply",
    "_numerics.toeplitz_from_table", "_numerics.integrate_linear",
    "lattice_sums.dispersion_grid", "lattice_sums.dispersion_curve",
    "lattice_sums.cooperative_rates_real_space",
    "lattice_sums.cooperative_rates_reciprocal",
    "cavity_dynamics.evolve_full", "cavity_dynamics.steady_state_full",
    "cavity_dynamics.spectrum_scan",
    "om_dynamics.evolve_multimode", "om_dynamics.evolve_reduced",
    "config.parse_config", "config.validate_regime",
    "cli.main", "cache.load", "cache.store",
)

# Integrators whose right-hand-side closures are counted.  A closure is an
# arraycav function nested in another one and called from outside arraycav
# (by the ODE solver) while one of these spans is open.
INTEGRATORS = ("cavity_dynamics.evolve_full", "om_dynamics.evolve_multimode",
               "om_dynamics.evolve_reduced")

KERNEL_BUILDERS = ("confined.free_space_kernel", "confined.confined_kernel_paraxial",
                   "confined.projected_kernel")


def _displacements(frame):
    n = frame.f_locals["lattice"].n_side
    return "confined.confined_table.displacements", (2 * n - 1) ** 2


def _points(frame):
    return "greens.kernel_fs_plane.points", int(frame.f_locals["dx"].size)


ON_CALL = {"confined.confined_table": _displacements,
           "greens.kernel_fs_plane": _points}


def resolve_probes(package):
    """Map code objects of the probed functions to their names; list the absent."""
    codes, absent = {}, []
    for name in PROBES:
        module, func = name.rsplit(".", 1)
        try:
            obj = getattr(importlib.import_module(f"{package.__name__}.{module}"), func)
            codes[inspect.unwrap(obj).__code__] = name
        except (ImportError, AttributeError):
            absent.append(name)
    return codes, absent


class Tracer:
    """Records spans in every thread while active (use as a context manager)."""

    def __init__(self, package):
        self.codes, self.absent = resolve_probes(package)
        self.prefix = str(Path(package.__file__).resolve().parent)
        self.threads = []          # one span list per thread
        self.counts = Counter()
        self._lock = threading.Lock()

    def __enter__(self):
        threading.setprofile(self._bootstrap)
        sys.setprofile(self._make_hook())
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)

    def _bootstrap(self, frame, event, arg):
        hook = self._make_hook()
        sys.setprofile(hook)
        hook(frame, event, arg)

    def _make_hook(self):
        spans = []                 # [name, start, end, parent, child_time]
        stack = []                 # (frame, span index) of the open spans
        active = []                # names of the open integrator spans
        with self._lock:
            self.threads.append(spans)
        codes, prefix, counts = self.codes, self.prefix, self.counts
        clock = time.perf_counter
        nested = inspect.CO_NESTED

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                name = codes.get(code)
                if name is None:
                    if not active or not code.co_flags & nested \
                            or not code.co_filename.startswith(prefix):
                        return
                    back = frame.f_back
                    if back is not None and back.f_code.co_filename.startswith(prefix):
                        return
                    name = active[-1] + ".rhs"
                    counts[active[-1] + ".rhs_evals"] += 1
                else:
                    if name in INTEGRATORS:
                        active.append(name)
                    counter = ON_CALL.get(name)
                    if counter is not None:
                        try:
                            key, n = counter(frame)
                            counts[key] += n
                        except (KeyError, AttributeError):
                            pass
                spans.append([name, clock(), 0.0, stack[-1][1] if stack else -1, 0.0])
                stack.append((frame, len(spans) - 1))
            elif event == "return" and stack and stack[-1][0] is frame:
                span = spans[stack.pop()[1]]
                span[2] = clock()
                if span[3] >= 0:
                    spans[span[3]][4] += span[2] - span[1]
                name = span[0]
                if name in INTEGRATORS:
                    active.pop()
                elif name in KERNEL_BUILDERS:
                    counts["confined.dense_bytes"] += int(
                        getattr(getattr(arg, "entries", None), "nbytes", 0))

        return hook

    def layer_totals(self):
        """(calls, self seconds, total seconds) per span name."""
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for spans in self.threads:
            for name, start, end, _parent, child in spans:
                if end == 0.0:
                    continue               # still open: the traced round raised
                calls[name] += 1
                self_s[name] += (end - start) - child
                total_s[name] += end - start
        return calls, self_s, total_s


def per_layer_metrics(tracer, hit_ratio):
    """Per-layer metric values of one traced round (see BENCHMARK.json)."""
    calls, self_s, total_s = tracer.layer_totals()
    counts = tracer.counts
    out = {}
    for name in PROBES:
        label = name.lstrip("_")          # metric names start with a letter
        out[f"{label}.calls"] = (calls[name], "count")
        out[f"{label}.self_s"] = (self_s[name], "s")
    for name in INTEGRATORS:
        out[f"{name}.rhs_evals"] = (counts[f"{name}.rhs_evals"], "count")
        out[f"{name}.rhs_s"] = (total_s[f"{name}.rhs"], "s")
    for key in ("confined.confined_table.displacements",
                "greens.kernel_fs_plane.points", "confined.dense_bytes"):
        out[key] = (counts[key], "count" if not key.endswith("bytes") else "B")
    out["lattice_sums.sum_table_hit_ratio"] = (hit_ratio, "share")
    return out


def sum_table_info(package):
    """Hits and misses of the real-space table cache, or None if it is gone."""
    try:
        info = importlib.import_module(f"{package.__name__}.lattice_sums") \
            ._sum_table.cache_info()
    except (ImportError, AttributeError):
        return None
    return info.hits, info.misses
