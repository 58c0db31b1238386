"""Per-layer timing from outside the library.

Each traced function is wrapped once, and the wrapper replaces the
original in every loaded ``qwave`` module namespace that holds it by
name (``spectrum`` lives in ``qtransform``, ``qwavelet`` and
``uncertainty``), so calls between modules pass through it too. Spans
nest on a per-thread stack: ``parallel_map`` runs probes on a pool,
and a probe's span belongs to its worker thread, not to the caller.
Self time is a span's duration minus the durations of the wrapped spans
nested directly inside it on the same thread.

Only aggregates are kept: calls, total seconds and self seconds per
function, plus the kernel-table counters.
"""

import functools
import sys
import threading
import time

# Public functions timed per layer, by module. Every name must exist: a
# missing one means the library changed and the trace no longer measures
# what its metric names say.
LAYERS = {
    "qbessel": ("lattice_kernel",),
    "qtransform": ("make_plan", "spectrum", "q_bessel_fourier"),
    "qwavelet": ("factorization_error", "scale_rows", "operator_mother",
                 "make_wavelet", "cwt", "wavelet_plancherel_ratio"),
    "uncertainty": ("empirical_lower_constant", "uncertainty_report",
                    "heisenberg_slice_minimum", "weighted_energy_ratio",
                    "parallel_map"),
    "qgrid": ("read_function", "write_function", "jackson_weights"),
    "qcli": ("run_cell_checks",),
}

# The kernel table's builder: a lattice_kernel call that reaches it is a
# cache miss, and the entries it returns are the entries built.
KERNEL_BUILDER = ("qbessel", "_kernel_values")
KERNEL_CACHE = "qbessel.lattice_kernel"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        with self._lock:
            self.stats = {f"{mod}.{fn}": [0, 0.0, 0.0]
                          for mod, fns in LAYERS.items() for fn in fns}
            self.kernel_hits = 0
            self.entries_built = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.builds = 0
        return local

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._state()
            builds_before = local.builds
            local.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = local.stack.pop()
                if local.stack:
                    local.stack[-1] += dt
                with self._lock:
                    entry = self.stats[name]
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += dt - nested
                    if name == KERNEL_CACHE and local.builds == builds_before:
                        self.kernel_hits += 1
        return traced

    def _wrap_builder(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            table = fn(*args, **kwargs)
            self._state().builds += 1
            with self._lock:
                self.entries_built += len(table)
            return table
        return counted

    def install(self):
        """Patch every qwave namespace; qwave and its modules must be
        imported already."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qwave" or name.startswith("qwave.")]
        targets = [(mod, fn, False) for mod, fns in LAYERS.items() for fn in fns]
        targets.append(KERNEL_BUILDER + (True,))
        for mod, fn, builder in targets:
            home = sys.modules.get(f"qwave.{mod}")
            orig = getattr(home, fn, None)
            if orig is None:
                raise RuntimeError(f"qwave.{mod}.{fn} not found; the trace "
                                   "needs updating for this library version")
            wrapper = (self._wrap_builder(orig) if builder
                       else self._wrap(f"{mod}.{fn}", orig))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)

    def metrics(self):
        out = {}
        with self._lock:
            for name, (calls, total, self_s) in self.stats.items():
                out[f"{name}.calls"] = (calls, "count")
                out[f"{name}.total_s"] = (total, "s")
                out[f"{name}.self_s"] = (self_s, "s")
            calls = self.stats[KERNEL_CACHE][0]
            out[f"{KERNEL_CACHE}.hit_ratio"] = (
                self.kernel_hits / calls if calls else 0.0, "ratio")
            out[f"{KERNEL_CACHE}.entries_built"] = (self.entries_built, "count")
        return out
