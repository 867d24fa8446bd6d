"""Cadlag path carriers and the path functionals used by the diagnostics.

StepPath is the universal carrier for every pre-limit process (piecewise
constant, right continuous); GridPath carries simulated limit processes on a
uniform grid, either as a step function or linearly interpolated.

All functionals evaluate suprema on the breakpoint skeleton, which is exact
for piecewise-constant paths. GridPath inputs are evaluated on their grid
nodes; for linearly interpolated paths the functionals used here attain
their extrema at nodes, so nothing is lost.
"""

import csv

import numpy as np

from .errors import ParameterError, RangeError, ShapeError


def sorted_union(*arrays):
    """The distinct values of the arrays, sorted: what np.unique gives for
    their NaN-free concatenation, without its masked-array check, which
    imports numpy.ma."""
    u = np.concatenate(arrays, axis=None)
    u.sort()
    keep = np.empty(u.size, dtype=bool)
    keep[:1] = True
    np.not_equal(u[1:], u[:-1], out=keep[1:])
    return u[keep]


class StepPath:
    """Right-continuous step path: value at t is values[k] for the largest
    breakpoint time <= t.

    times must be strictly increasing with times[0] equal to the origin
    (0 by default; SDDE initial segments use origin -r) and all <= horizon.
    """

    __slots__ = ("times", "values", "horizon", "origin")

    def __init__(self, times, values, horizon, origin=0.0):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size == 0:
            raise ShapeError("times and values must be equal-length 1-d arrays")
        if times[0] != origin:
            raise ShapeError(f"first breakpoint must equal origin {origin}")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ShapeError("breakpoint times must be strictly increasing")
        if horizon < times[-1]:
            raise ShapeError("horizon must cover all breakpoints")
        self.times = times
        self.values = values
        self.horizon = float(horizon)
        self.origin = float(origin)

    @classmethod
    def from_jumps(cls, jump_times, jump_sizes, horizon, start=0.0):
        """Path that starts at `start` and jumps by jump_sizes[k] at jump_times[k].

        Jump times must be strictly positive and sorted; duplicates are merged.
        """
        jt = np.asarray(jump_times, dtype=float)
        js = np.asarray(jump_sizes, dtype=float)
        if jt.size != js.size:
            raise ShapeError("jump_times and jump_sizes must match")
        if jt.size and (jt[0] <= 0.0 or np.any(np.diff(jt) < 0)):
            raise ShapeError("jump times must be sorted and > 0")
        if jt.size:
            keep = np.empty(jt.size, dtype=bool)
            keep[:-1] = np.diff(jt) > 0
            keep[-1] = True
            if not keep.all():
                # merge simultaneous jumps into one breakpoint
                js = np.add.reduceat(js, np.flatnonzero(np.r_[True, keep[:-1]]))
                jt = jt[keep]
        times = np.concatenate([[0.0], jt])
        values = start + np.concatenate([[0.0], np.cumsum(js)])
        return cls(times, values, horizon)

    def __len__(self):
        return self.times.size

    def value(self, t):
        """Path value at time(s) t, vectorised."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.origin) or np.any(t > self.horizon):
            raise RangeError("time outside [origin, horizon]")
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def value_before(self, t):
        """Left limit at time(s) t; at the origin returns the starting value."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.origin) or np.any(t > self.horizon):
            raise RangeError("time outside [origin, horizon]")
        idx = np.maximum(np.searchsorted(self.times, t, side="left") - 1, 0)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def jump_sizes(self):
        return np.diff(self.values)

    def jump_times(self):
        return self.times[1:]

    def restricted(self, t):
        """(times, values) of the skeleton up to time t inclusive."""
        if t < self.origin or t > self.horizon:
            raise RangeError("time outside [origin, horizon]")
        k = int(np.searchsorted(self.times, t, side="right"))
        return self.times[:k], self.values[:k]


class GridPath:
    """Values on the uniform grid {origin + k*step}; interp is 'const'
    (right-continuous step) or 'linear'."""

    __slots__ = ("values", "step", "horizon", "interp", "origin")

    def __init__(self, values, step, horizon=None, interp="const", origin=0.0):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ShapeError("values must be a non-empty 1-d array")
        if step <= 0:
            raise ParameterError("grid step must be > 0")
        if interp not in ("const", "linear"):
            raise ParameterError("interp must be 'const' or 'linear'")
        self.values = values
        self.step = float(step)
        self.origin = float(origin)
        span = origin + step * (values.size - 1)
        self.horizon = float(span if horizon is None else horizon)
        if self.horizon < span - 1e-9 * max(1.0, abs(span)):
            raise ShapeError("horizon must cover the grid")
        self.interp = interp

    @property
    def times(self):
        return self.origin + self.step * np.arange(self.values.size)

    def __len__(self):
        return self.values.size

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.origin) or np.any(t > self.horizon + 1e-12):
            raise RangeError("time outside [origin, horizon]")
        pos = (t - self.origin) / self.step
        if self.interp == "const":
            idx = np.minimum(np.floor(pos + 1e-12).astype(int), self.values.size - 1)
            out = self.values[idx]
        else:
            pos = np.clip(pos, 0.0, self.values.size - 1.0)
            lo = np.minimum(np.floor(pos).astype(int), self.values.size - 2)
            w = pos - lo
            out = (1.0 - w) * self.values[lo] + w * self.values[lo + 1]
        return float(out) if out.ndim == 0 else out


def _skeleton(path, t):
    """Breakpoint (times, values) of a StepPath or GridPath up to time t."""
    if isinstance(path, StepPath):
        return path.restricted(t)
    if isinstance(path, GridPath):
        if t < path.origin or t > path.horizon + 1e-12:
            raise RangeError("time outside [origin, horizon]")
        k = int(np.floor((t - path.origin) / path.step + 1e-12)) + 1
        k = min(k, path.values.size)
        return path.times[:k], path.values[:k]
    raise ShapeError(f"not a path: {type(path).__name__}")


def total_variation(path, t=None):
    """Total variation of the path over [origin, t]."""
    t = path.horizon if t is None else t
    _, v = _skeleton(path, t)
    return float(np.sum(np.abs(np.diff(v))))


def jump_stats(path, t=None, a=1.0):
    """(largest |jump|, number of jumps with |jump| > a, running sup |path|) on [origin, t]."""
    if a <= 0:
        raise ParameterError("a must be > 0")
    t = path.horizon if t is None else t
    _, v = _skeleton(path, t)
    d = np.abs(np.diff(v))
    max_jump = float(d.max()) if d.size else 0.0
    count = int(np.sum(d > a))
    return max_jump, count, float(np.max(np.abs(v)))


def m1_modulus(path, delta, t=None):
    """Largest distance from path(s) to the chord [path(t1), path(t2)] over
    breakpoint triples t1 <= s <= t2 with t2 - t1 <= delta.

    Zero for monotone paths; the discrete analogue of the M1 oscillation
    modulus used to certify M1 tightness.
    """
    if delta <= 0:
        raise ParameterError("delta must be > 0")
    t = path.horizon if t is None else t
    u, v = _skeleton(path, t)
    m = u.size
    if m < 3:
        return 0.0
    best = 0.0
    # for each window start i the chord endpoints are v[i] and any later
    # feasible v[k]; the inner point distance is maximised with suffix extremes
    hi = np.searchsorted(u, u + delta, side="right") - 1
    for i in range(m - 2):
        k = int(hi[i])
        if k < i + 2:
            continue
        w = v[i : k + 1]
        sufmin = np.minimum.accumulate(w[::-1])[::-1]
        sufmax = np.maximum.accumulate(w[::-1])[::-1]
        mid = w[1:-1]
        up = mid - np.maximum(w[0], sufmin[2:])
        down = np.minimum(w[0], sufmax[2:]) - mid
        cand = max(float(up.max(initial=0.0)), float(down.max(initial=0.0)))
        if cand > best:
            best = cand
    return best


def max_eps_increments(path, eps, t=None):
    """Maximal number of disjoint increments of size >= eps (greedy scan).

    The scan restarts the running extremes at each counted endpoint, which
    is optimal here: ending an increment as early as possible never hurts
    later increments.
    """
    if eps <= 0:
        raise ParameterError("eps must be > 0")
    t = path.horizon if t is None else t
    _, v = _skeleton(path, t)
    count = 0
    lo = hi = v[0]
    for x in v[1:]:
        lo = min(lo, x)
        hi = max(hi, x)
        if x - lo >= eps or hi - x >= eps:
            count += 1
            lo = hi = x
    return count


def avci_functional(x, y, delta, t=None):
    """sup of |x(s)-x(tau)| ^ |y(tau)-y(u)| over s < tau < u <= s + delta.

    Measures aligned consecutive moves of the two paths inside a delta
    window; exact for step paths. tau ranges over cells of the union
    skeleton, u over later breakpoints, and the s-window [u - delta, tau)
    contributes the extreme x-values of every cell it intersects.
    """
    if delta <= 0:
        raise ParameterError("delta must be > 0")
    if abs(x.horizon - y.horizon) > 1e-12:
        raise ShapeError("paths must share a horizon")
    t = x.horizon if t is None else t
    ux, _ = _skeleton(x, t)
    uy, _ = _skeleton(y, t)
    grid = sorted_union(ux, uy)
    xv = np.asarray(x.value(grid), dtype=float)
    yv = np.asarray(y.value(grid), dtype=float)
    m = grid.size
    if m < 2:
        return 0.0
    # cell j covers [grid[j], grid[j+1]) with grid[m-1] extending to t
    nxt = np.append(grid[1:], t)
    best = 0.0
    for j in range(m - 1):
        cap_x = max(np.max(xv[: j + 1]) - xv[j], xv[j] - np.min(xv[: j + 1]))
        if cap_x <= best:
            continue
        for k in range(j + 1, m):
            if grid[k] >= nxt[j] + delta:
                break
            f2 = abs(yv[j] - yv[k])
            if f2 <= best:
                continue
            # s ranges over [max(origin, grid[k]-delta), nxt[j]); collect the
            # extreme x values of the cells intersecting that interval
            lo_t = grid[k] - delta
            lo = int(np.searchsorted(grid, lo_t, side="right") - 1)
            lo = max(lo, 0)
            seg = xv[lo : j + 1]
            f1 = max(np.max(seg) - xv[j], xv[j] - np.min(seg))
            val = min(f1, f2)
            if val > best:
                best = val
    return float(best)


def write_path_csv(path, fh):
    """Serialize a path as `t,value` rows sorted by t."""
    own = isinstance(fh, str)
    out = open(fh, "w", newline="") if own else fh
    try:
        w = csv.writer(out)
        w.writerow(["t", "value"])
        times = path.times
        for ti, vi in zip(times, path.values):
            w.writerow([repr(float(ti)), repr(float(vi))])
    finally:
        if own:
            out.close()
