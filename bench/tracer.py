"""Span tracing of ctrwlab from outside the package.

`Tracer.install()` replaces every public function of the traced layers with
a timing wrapper, at every module attribute that is bound to it: `from .rng
import draw_stable` copies the name into `processes`, `sde`, `integrals` and
`cli`, so patching `rng` alone would miss most calls. Generator functions
(`processes.iter_ctrw_chunks`) get one span per `next()`, and the callables
that `exprs.make_expr` returns are wrapped as `exprs.expr` spans.

Spans are kept in flat arrays (name id, parent index, start, end) and only
turned into per-layer figures after the scenario has finished. A span's
self time is its duration minus the durations of its direct children; the
traced code runs on one thread, so children never overlap.

Per-layer figures (`summarize`):
  <layer>.s      self time of the layer's spans, seconds;
  <group>_s      inclusive time of the functions in INCLUSIVE[group],
                 counting a span only when no ancestor is in the same group;
  counters       exact work counts, see COUNTERS.
"""

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("rng", "processes", "sde", "exprs", "integrals", "metrics", "stats", "cli")

# Entry points whose inclusive time the per-layer metrics report. Only the
# functions the benchmark workloads reach are listed.
INCLUSIVE = {
    "processes.walk_s": ("processes.iter_ctrw_chunks", "processes.terminal_samples"),
    "processes.limit_s": ("processes.terminal_time_changed_samples",),
    "sde.walk_scheme_s": ("sde.sn_terminal_samples",),
    "sde.limit_scheme_s": ("sde.s_limit_terminal_samples",),
    "integrals.walk_s": ("integrals.follower_integral_samples",),
    "integrals.limit_s": ("integrals.tc_grid_integral_samples",),
    "metrics.d_m1_s": ("metrics.d_m1",),
    "metrics.d_j1_s": ("metrics.d_j1",),
    "cli.io_s": ("cli.load_config", "cli.emit_report"),
}


def _numel(size):
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _requested(fn, args, kwargs):
    return _numel(inspect.signature(fn).bind(*args, **kwargs).arguments["size"])


def _pareto_requested(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return 0 if getattr(bound["law"], "mode", None) == "gaussian" else _numel(bound["size"])


# span name -> (counter, amount per call); generators count yielded items
COUNTERS = {
    "rng.draw_stable": ("rng.stable_variates", _requested),
    "rng.draw_innovation": ("rng.pareto_variates", _pareto_requested),
    "rng.draw_waiting": ("rng.pareto_variates", _pareto_requested),
    "metrics.d_m1": ("metrics.d_m1_calls", lambda fn, a, k: 1),
    "exprs.expr": ("exprs.calls", lambda fn, a, k: 1),
    "processes.iter_ctrw_chunks": ("processes.chunks", None),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter({c: 0 for c, _ in COUNTERS.values()})
        self._stack = []

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._nid(name)
        counter, amount = COUNTERS.get(name, (None, None))
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    if counter:
                        self.counts[counter] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                self.counts[counter] += amount(fn, args, kwargs)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def install(self):
        """Wrap the public functions of LAYERS at every ctrwlab binding site."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"ctrwlab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        make_expr = sys.modules["ctrwlab.exprs"].make_expr
        traced_make = wrapped[id(make_expr)]

        @functools.wraps(make_expr)
        def make_traced_expr(*args, **kwargs):
            return self.wrap(traced_make(*args, **kwargs), "exprs.expr")

        wrapped[id(make_expr)] = make_traced_expr
        for name, mod in list(sys.modules.items()):
            if name == "ctrwlab" or name.startswith("ctrwlab."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, attr, wrapped[id(obj)])

    def arrays(self):
        return (
            np.asarray(self.name_id, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=float),
            np.frombuffer(self.end, dtype=float),
        )

    def write(self, path):
        """Write every span: name, parent span index (-1 at a root), start, end."""
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)

    def summarize(self):
        """Per-layer self times, grouped inclusive times and exact counters."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - covered
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        per_layer = np.bincount(layer_of[name_id], weights=self_time, minlength=len(LAYERS))
        out = {f"{layer}.s": float(t) for layer, t in zip(LAYERS, per_layer)}
        for metric, group in INCLUSIVE.items():
            in_group = np.array([n in group for n in self.names], dtype=bool)[name_id]
            out[metric] = float(dur[in_group & ~_has_ancestor(parent, in_group)].sum())
        out.update({c: int(v) for c, v in self.counts.items()})
        return out


def _has_ancestor(parent, flag):
    """True where some proper ancestor span has `flag` set (pointer jumping)."""
    seen = np.zeros(parent.size, dtype=bool)
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            return seen
        seen[live] |= flag[up[live]]
        up[live] = parent[up[live]]
