"""Call tracing for the benchmark's traced run.

The wavemap modules bind each other's functions with ``from .x import y``,
so a function is patched in every wavemap module namespace that holds it,
not only where it is defined.  Each call becomes a span (name, parent,
start, end) kept in memory; ``report`` folds the spans into per-function
call counts, inclusive time and self time (duration minus the part covered
by child spans), and per-module self time.
"""

import functools
import os
import sys
import time

# the public functions wrapped, per module; the per-layer metric names in
# BENCHMARK.json are "<module>.<function>_s" and "<module>.<function>_calls"
TARGETS = {
    "cli": ("main", "load_scenario", "save_trajectory", "load_trajectory"),
    "statics": ("build_harmonic_map", "eval_Q"),
    "geometry": ("find_vanishing_set", "eval_G"),
    "evolution": ("evolve", "step_linear", "write_snapshot", "read_snapshot"),
    "diagnostics": ("write_series", "h_norms", "energy", "select_times",
                    "lightcone_concentration", "linf_outside_cone", "s_norm",
                    "exterior_energy_ratio", "beta_hat_ensemble"),
    "resolution": ("compute_delta0", "extract_bubbles",
                   "build_scattering_state"),
}


def _trajectory_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n))
               for n in os.listdir(path)
               if n == "manifest.cfg"
               or (n.startswith("frame-") and n.endswith(".snap")))


def _saved(counts, args, out):
    counts["save_trajectory_bytes"] += _trajectory_bytes(args[1])


def _loaded(counts, args, out):
    counts["load_trajectory_bytes"] += _trajectory_bytes(args[0])


def _evolved(counts, args, out):
    first, last = out.snapshots[0], out.snapshots[-1]
    steps = round((last.time - first.time) / out.dt)
    counts["node_steps"] += steps * first.grid.n_points


def _extracted(counts, args, out):
    counts["bubbles_found"] += out.J


# counters read off a call's arguments and result once it returns
AFTER = {
    "cli.save_trajectory": _saved,
    "cli.load_trajectory": _loaded,
    "evolution.evolve": _evolved,
    "resolution.extract_bubbles": _extracted,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name, self.span_parent = [], []
        self.span_start, self.span_end, self.span_nested = [], [], []
        self.stack = []
        self.depth = []
        self.counts = dict.fromkeys(("save_trajectory_bytes",
                                     "load_trajectory_bytes", "node_steps",
                                     "bubbles_found"), 0)
        self.build_harmonic_map = None
        self.misses0 = 0
        self.t0 = None

    def install(self):
        """Patch every target of the already imported wavemap modules."""
        swap = {}
        for module, functions in TARGETS.items():
            mod = sys.modules.get("wavemap." + module)
            if mod is None:
                continue
            for name in functions:
                original = getattr(mod, name)
                qual = f"{module}.{name}"
                swap[id(original)] = (original,
                                      self._wrap(qual, original,
                                                 AFTER.get(qual)))
                if qual == "statics.build_harmonic_map":
                    self.build_harmonic_map = original
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wavemap" and not mod_name.startswith("wavemap."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        if self.build_harmonic_map is not None:
            self.misses0 = self.build_harmonic_map.cache_info().misses
        self.t0 = time.perf_counter()

    def _wrap(self, qual, fn, after):
        nid = len(self.names)
        self.names.append(qual)
        self.depth.append(0)
        names, parents = self.span_name, self.span_parent
        starts, ends, nested = self.span_start, self.span_end, self.span_nested
        stack, depth, counts = self.stack, self.depth, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            nested.append(depth[nid] > 0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                depth[nid] -= 1
            if after is not None:
                after(counts, args, out)
            return out
        return traced

    def report(self):
        """Aggregate the spans recorded since install()."""
        traced_s = time.perf_counter() - self.t0
        n = len(self.span_start)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        covered = [0.0] * n
        top = 0.0
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += durations[sid]
            else:
                top += durations[sid]
        functions = {q: [0, 0.0, 0.0] for q in self.names}
        for sid in range(n):
            row = functions[self.names[self.span_name[sid]]]
            row[0] += 1
            if not self.span_nested[sid]:   # recursion counts once
                row[1] += durations[sid]
            row[2] += durations[sid] - covered[sid]
        connectors = 0
        if self.build_harmonic_map is not None:
            connectors = (self.build_harmonic_map.cache_info().misses
                          - self.misses0)
        return {"traced_s": traced_s, "unattributed_s": traced_s - top,
                "spans": n, "functions": functions,
                "counts": dict(self.counts, connectors_built=connectors)}
