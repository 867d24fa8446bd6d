"""Event-driven solvers for walk-driven SDEs and delay SDEs, grid Euler
schemes for their scaling limits, and vectorised terminal-law samplers.

Prelimit equations are driven by the exact step drivers (D^n, Z^n) of a
SimulationBundle, so every pure-jump reduction is solved without any
discretisation error; only the dt term needs a quadrature mesh. One kernel
steps the walk-driven scheme for the per-path solver and the block sampler.
Limit equations are left-point Euler schemes on uniform grids.
"""

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .paths import GridPath, StepPath
from .processes import (
    BLOCK,
    INNOVATION_LANE,
    LIMIT_BLOCK,
    WAIT_LANE,
    _d_law,
    _step_law,
    _t_nodes,
    _time_changed_block,
    _z_law,
    driver_paths,
    iter_ctrw_chunks,
)
from .rng import draw_stable

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

_SDDE_BOUND = 1e6  # SddeSpec warns above this coefficient magnitude


def _as_vec_fn(fn):
    return fn if callable(fn) else (lambda *args, _v=float(fn): np.broadcast_to(_v, np.shape(args[-1])) if np.ndim(args[-1]) else _v)


@dataclass(frozen=True)
class SdeSpec:
    """Coefficients of dX = b(t, D, X) dt + mu(t, D, X) dD + sigma(t, D, X) dZ.

    growth = (K, C, p) declares |coef(t, ytilde, y)| <= K |y|^p + C with
    p in (0, 1); it is spot-checked on a sample grid, and violations warn
    rather than fail, because the convergence theory needs the bound but the
    solver itself does not.
    """

    b: object
    mu: object
    sigma: object
    x0: float = 0.0
    growth: tuple = (1.0, 10.0, 0.5)

    def __post_init__(self):
        K, C, p = self.growth
        if not (0.0 < p < 1.0):
            raise ParameterError("growth exponent p must lie in (0, 1)", tag="PARAM_GROWTH")
        if K < 0 or C < 0:
            raise ParameterError("growth constants must be >= 0", tag="PARAM_GROWTH")
        self.check_growth()

    def coef(self, name):
        return _as_vec_fn(getattr(self, name))

    def check_growth(self, t_max=2.0, r=50.0, points=9):
        """Spot-check the declared sublinear bound; returns the worst excess
        and warns when it is positive."""
        K, C, p = self.growth
        t = np.linspace(0.0, t_max, points)
        yt = np.linspace(0.0, r, points)
        y = np.linspace(-r, r, points)
        tt, ytt, yy = np.meshgrid(t, yt, y, indexing="ij")
        worst = 0.0
        for name in ("b", "mu", "sigma"):
            vals = np.abs(np.broadcast_to(self.coef(name)(tt, ytt, yy), tt.shape))
            excess = float(np.max(vals - (K * np.abs(yy) ** p + C)))
            worst = max(worst, excess)
        if worst > 0.0:
            warnings.warn(
                f"coefficient exceeds declared growth bound by {worst:.3g} on the sample grid",
                RuntimeWarning,
                stacklevel=2,
            )
        return worst


@dataclass(frozen=True)
class SddeSpec:
    """Coefficients of dX = b(t, X_{t-r}) dt + c^{-1} sigma(t, X_{t-r}) dZ^n,
    with initial segment eta on [-r, 0] and an optional window kernel phi
    adding sigma_tilde(t) = integral of phi(t, s, X_s) over [t-r, t]."""

    b: object
    sigma: object
    r: float
    eta: StepPath
    phi: object = None

    def __post_init__(self):
        if self.r <= 0:
            raise ParameterError("delay r must be > 0", tag="PARAM_DELAY")
        if abs(self.eta.origin + self.r) > 1e-9 * max(1.0, self.r):
            raise ParameterError("initial segment must start at -r", tag="PARAM_DELAY")
        if self.eta.horizon < 0.0:
            raise ParameterError("initial segment must reach 0", tag="PARAM_DELAY")
        t = np.linspace(0.0, 2.0, 7)
        x = np.linspace(-20.0, 20.0, 7)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        worst = max(
            float(np.max(np.abs(np.broadcast_to(self.coef("b")(tt, xx), tt.shape)))),
            float(np.max(np.abs(np.broadcast_to(self.coef("sigma")(tt, xx), tt.shape)))),
        )
        if worst > _SDDE_BOUND:
            warnings.warn(
                f"coefficient magnitude {worst:.3g} exceeds the declared bound on the sample grid",
                RuntimeWarning,
                stacklevel=2,
            )

    def coef(self, name):
        return _as_vec_fn(getattr(self, name))


def _union_times(events, mesh, T, max_gap, extra):
    """0, T, all events, the extra times and the mesh points k mesh, with gaps
    capped at max_gap. A mesh point within a relative 1e-12 of an event is
    dropped, so k mesh and an event k/n an ulp apart make no ulp-wide cell."""
    grid = np.arange(1, int(math.floor(T / mesh + 1e-9)) + 1) * mesh
    tol = 1e-12 * np.maximum(1.0, grid)
    grid = grid[np.searchsorted(events, grid - tol) == np.searchsorted(events, grid + tol, side="right")]
    u = np.unique(np.concatenate([[0.0, T], events, extra, grid]))
    u = u[(u >= 0.0) & (u <= T)]
    gaps = np.diff(u)
    fill = []
    for i in np.flatnonzero(gaps > max_gap):
        k = math.ceil(gaps[i] / max_gap)
        fill.append(u[i] + gaps[i] * np.arange(1, k) / k)
    return np.unique(np.concatenate([u] + fill)) if fill else u


def _sn_euler(spec, ev_t, live, dd, dz, T, drift_mesh):
    """Left-point Euler for the walk-driven scheme, one column per replication.

    ev_t, live, dd and dz are (m, K) event times, validity mask and jumps of
    D and Z, each row's times in order. Each replication steps through its
    events, the mesh {k drift_mesh} and T in time order, masked events being
    zero-width steps at T: b dt on every step, then mu_- dD + sigma_- dZ at a
    live event, with the coefficients read at left limits. Returns the
    (L + 1, m) times and X: row 0 holds t = 0 and x0, row j the j-th time of
    every replication and X after it, so the last row is X_T.

    The merge needs no argsort: event k of a row lands after k events and
    after the grid points (mesh and T) strictly before it, so at equal times
    an event comes before the mesh point and T, and the times are one sort of
    values in place. Each step is a few vector ops on contiguous rows of
    two (L + 1, m) float arrays, the times and X; the live events, sorted by
    their place in that layout, give each step its replications with a jump
    as one slice, and only those read mu and sigma and take the jump. The
    growth bound is checked once per call, on the live events' left limits,
    D and times recorded as they are stepped, and warns at most once.
    """
    if drift_mesh is not None and not drift_mesh > 0:
        raise ParameterError("drift mesh must be > 0", tag="PARAM_MESH")
    m, K = ev_t.shape
    bfn, mfn, sfn = spec.coef("b"), spec.coef("mu"), spec.coef("sigma")
    mesh = np.arange(1, int(math.floor(T / drift_mesh + 1e-9)) + 1) * drift_mesh if drift_mesh else np.empty(0)
    grid = np.append(mesh[mesh <= T], T)
    et = np.where(live, ev_t, T)
    # a live time that rounds above T must not pass the masked ones at T
    np.maximum.accumulate(et, axis=1, out=et)
    at = (np.arange(1, K + 1) + np.searchsorted(grid, et, side="left"))[live] * m + np.nonzero(live)[0]
    shape = (K + grid.size + 1, m)
    times = np.empty(shape)
    times[0] = 0.0
    times[1 : K + 1] = et.T
    times[K + 1 :] = grid[:, None]
    del et
    # equal times are equal values, so sorting each column's values puts
    # every event time in the row that its position above gives it
    times.sort(axis=0)
    order = np.argsort(at)
    at = at[order]
    dd, dz = dd[live][order], dz[live][order]
    del order
    # the live events of layout row j are at[edges[j] : edges[j + 1]], in
    # the replications at - j m, at the times tl
    edges = np.searchsorted(at, np.arange(shape[0] + 1) * m).tolist()
    tl = np.take(times, at)
    at -= np.repeat(np.arange(shape[0]) * m, np.diff(edges))
    x = np.empty(shape)
    x[0] = spec.x0
    # the live events' left limits and D, kept for the growth check
    xl, dl = np.empty(at.size), np.empty(at.size)
    xk, d, u = x[0], np.zeros(m), times[0]
    for v, xj, lo, hi in zip(times[1:], x[1:], edges[1:-1], edges[2:]):
        xk = xk + bfn(u, d, xk) * (v - u)
        if hi > lo:
            r, t, dj = at[lo:hi], tl[lo:hi], dd[lo:hi]
            xl[lo:hi] = xr = xk[r]
            dl[lo:hi] = dr = d[r]
            xk[r] = xr + (mfn(t, dr, xr) * dj + sfn(t, dr, xr) * dz[lo:hi])
            d[r] = dr + dj
        xj[...] = xk
        u = v
    Kg, Cg, p = spec.growth
    if np.any(np.maximum(np.abs(mfn(tl, dl, xl)), np.abs(sfn(tl, dl, xl))) > Kg * np.abs(xl) ** p + Cg):
        warnings.warn("coefficient exceeded the declared growth bound during integration", RuntimeWarning, stacklevel=3)
    return times, x


def solve_sn(spec, drivers, drift_mesh=2.0**-12, T=None):
    """Event-driven Euler solution of the walk-driven scheme.

    drivers is the (D^n, Z^n) pair of step paths (see driver_paths). This is
    the one-row call of the kernel that sn_terminal_samples runs: the dt term
    advances on the union of the events and the drift mesh; at each event X
    jumps by mu_- dD + sigma_- dZ with all coefficients read at left limits.
    With b identically 0 the output is exact.
    """
    dn, zn = drivers
    T = zn.horizon if T is None else float(T)
    ev = np.union1d(dn.jump_times(), zn.jump_times())
    ev = ev[None, ev <= T]
    dd, dz = (path.value(ev) - path.value_before(ev) for path in drivers)
    times, x = _sn_euler(spec, ev, np.ones(ev.shape, dtype=bool), dd, dz, T, drift_mesh)
    times, x = times[1:, 0], x[1:, 0]
    # zero-width steps repeat a time; the last of each run holds the state
    keep = np.append(times[1:] != times[:-1], True)
    return StepPath(np.append(0.0, times[keep]), np.append(float(spec.x0), x[keep]), T)


def _s_limit_euler(spec, dinv, w, h):
    """Left-point Euler for the limit equation, one column per replication.

    dinv and w are (nodes, m) matrices of D^{-1} and W on the grid k h;
    returns X on the same nodes, in the same layout. The driver increments
    are taken once, and each step reads contiguous rows; X is written over
    the W increment that its step consumes.
    """
    bfn, mfn, sfn = spec.coef("b"), spec.coef("mu"), spec.coef("sigma")
    ddinv = np.diff(dinv, axis=0)
    x = np.empty(dinv.shape)
    x[0] = spec.x0
    np.subtract(w[1:], w[:-1], out=x[1:])
    xk = x[0]
    for k, (dk, ddk, xn) in enumerate(zip(dinv, ddinv, x[1:])):
        t = k * h
        xn[...] = xk + bfn(t, dk, xk) * h + mfn(t, dk, xk) * ddk + sfn(t, dk, xk) * xn
        xk = xn
    return x


def solve_s_limit(spec, drivers, T=None):
    """Left-point Euler for the limit equation on the drivers' shared grid.

    drivers = (D_inv, W) grid paths with W the time-changed driving path.
    """
    d_inv, w = drivers
    if abs(d_inv.step - w.step) > 1e-12 * w.step:
        raise ShapeError("limit drivers must share the grid step")
    n_nodes = min(d_inv.values.size, w.values.size)
    if T is not None:
        n_nodes = min(n_nodes, int(math.floor(T / w.step + 1e-9)) + 1)
    x = _s_limit_euler(spec, d_inv.values[:n_nodes, None], w.values[:n_nodes, None], w.step)
    return GridPath(x[:, 0], w.step)


# ---------------------------------------------------------------------------
# delay equations


class _History:
    """Computed trajectory plus the initial segment, with cadlag and
    left-limit reads across the [-r, 0] boundary."""

    def __init__(self, eta):
        self.eta = eta
        self.ts = [0.0]
        self.xs = [float(eta.value(0.0))]

    def read(self, tau, left=False):
        if left:
            # a delayed time v - r can round just above the event time it
            # stands for; snapping keeps the read before that event
            tau -= 1e-12 * max(1.0, abs(tau))
        if tau < 0.0 or (tau == 0.0 and left):
            read = self.eta.value_before if left else self.eta.value
            return float(read(max(tau, self.eta.origin)))
        ts = self.ts
        i = (bisect.bisect_left(ts, tau) if left else bisect.bisect_right(ts, tau)) - 1
        if i < 0:
            return float(self.eta.value(0.0))
        return self.xs[i]

    def push(self, t, x):
        self.ts.append(float(t))
        self.xs.append(float(x))


def _window_quadrature(phi, t, r, hist, mesh):
    """Trapezoid of phi(t, s, X_s) over s in [t-r, t] on the union of the
    stored breakpoints, the segment breakpoints, and a uniform refinement."""
    lo, hi = t - r, t
    pts = [lo, hi]
    pts.extend(s for s in hist.eta.times if lo <= s <= hi)
    pts.extend(s for s in hist.ts if lo <= s <= hi)
    k = max(8, int(math.ceil(r / mesh)) if mesh else 8)
    pts.extend(lo + (hi - lo) * np.arange(1, k) / k)
    s = np.unique(np.asarray(pts))
    g = np.array([phi(t, si, hist.read(si)) for si in s], dtype=float)
    return float(_trapezoid(g, s))


def solve_sddn(spec, bundle, drift_mesh=2.0**-12, T=None):
    """Exact event-driven solution of the delay scheme driven by bundle.x.

    The delayed argument lags by r, so it is always known before it is
    needed; the drift is integrated by midpoint quadrature on cells no wider
    than the drift mesh (and never wider than r/2, keeping the delayed read
    behind the solution frontier). With b identically 0 the jump part is
    exact. When spec.phi is set, sigma is augmented by the trapezoid
    quadrature of phi over the trailing r-window.
    """
    zn = bundle.x
    c = bundle.config.psi
    T = bundle.horizon if T is None else float(T)
    events = zn.jump_times()
    events = events[events <= T]
    mesh = drift_mesh if drift_mesh and drift_mesh > 0 else spec.r / 2.0
    # cells never straddle a jump of the shifted initial segment, so the
    # drift quadrature sees a constant delayed argument inside each cell
    shifted = spec.eta.times + spec.r
    times = _union_times(events, mesh, T, max_gap=spec.r / 2.0, extra=shifted[shifted <= T])
    bfn, sfn = spec.coef("b"), spec.coef("sigma")
    hist = _History(spec.eta)
    ev = set(events.tolist())
    x = hist.xs[0]
    vals = np.empty(times.size)
    vals[0] = x
    for i in range(1, times.size):
        u, v = times[i - 1], times[i]
        mid = 0.5 * (u + v)
        x += float(bfn(mid, hist.read(mid - spec.r))) * (v - u)
        if v in ev:
            sig = float(sfn(v, hist.read(v - spec.r, left=True)))
            if spec.phi is not None:
                sig += _window_quadrature(spec.phi, v, spec.r, hist, mesh)
            x += sig / c * float(zn.value(v) - zn.value_before(v))
        hist.push(v, x)
        vals[i] = x
    return StepPath(times, vals, T)


def _sdd_steps(spec, x, per, t_drift, t_jump, head_drift, head_jump, c=1.0):
    """Euler steps of a delay equation on a C-contiguous (K + 1, m) x, one
    column per replication: row 0 is set to eta(0), and step k writes
    X[k+1] = X[k] + b(t_drift[k], X[k-nr]) / per + sigma(t_jump[k], X[k-nr]) / c dZ_k
    over the increment dZ_k in row k + 1. The heads hold the delayed reads of
    the first nr steps, taken from the initial segment, so their length is
    the lag nr. Returns x, its last row X_T."""
    bfn, sfn = spec.coef("b"), spec.coef("sigma")
    nr = len(head_drift)
    x[0] = float(spec.eta.value(0.0))
    xk = x[0]
    for k, (td, tj, xn) in enumerate(zip(t_drift.tolist(), t_jump.tolist(), x[1:])):
        xd = head_drift[k] if k < nr else x[k - nr]
        xj = head_jump[k] if k < nr else x[k - nr]
        xn[...] = xk + bfn(td, xd) / per + sfn(tj, xj) / c * xn
        xk = xn
    return x


def _limit_reads(spec, h, K):
    """The limit scheme's step times k h, k < K, and initial-segment reads;
    the grid step must divide the delay so delayed reads land on nodes."""
    nr = spec.r / h
    if abs(nr - round(nr)) > 1e-9:
        raise ParameterError("grid step must divide the delay", tag="PARAM_MESH")
    head = (np.arange(int(round(nr))) * h).tolist()
    return np.arange(K) * h, [float(spec.eta.value(t - spec.r)) for t in head]


def solve_sdd_limit(spec, z, T=None):
    """Left-point Euler for the limit delay equation driven by the grid path
    z; the grid step must divide the delay so lookups land on nodes."""
    h = z.step
    n_nodes = z.values.size
    if T is not None:
        n_nodes = min(n_nodes, int(math.floor(T / h + 1e-9)) + 1)
    t, head = _limit_reads(spec, h, n_nodes - 1)
    x = np.diff(z.values[:n_nodes], prepend=0.0)[:, None]
    return GridPath(_sdd_steps(spec, x, 1.0 / h, t, t, head, head)[:, 0], h)


# ---------------------------------------------------------------------------
# vectorised terminal samplers


def sn_terminal_samples(spec, config, T, reps, seed, drift_mesh=2.0**-10):
    """Terminal values of the walk-driven scheme across replications: the
    solve_sn kernel run on each replication block, so every value is what
    solve_sn gives on that row's drivers. The block dict (its innovations
    with it) is dropped before the kernel runs; the kernel holds three
    (L + 1, m) float arrays, of which only the last row, X_T, is kept."""
    nb = float(config.n) ** (-config.beta_eff)
    out = np.empty(reps)
    lo = 0
    for blk in iter_ctrw_chunks(config, T, reps, seed):
        times, mask, zeta = blk["times"], blk["mask"], blk["zeta"]
        del blk
        m = zeta.shape[0]
        out[lo : lo + m] = _sn_euler(spec, times, mask, np.broadcast_to(nb, zeta.shape), zeta, T, drift_mesh)[1][-1]
        lo += m
        del times, mask, zeta
    return out


def s_limit_terminal_samples(
    spec,
    alpha,
    beta,
    T,
    reps,
    seed,
    grid_step=2.0**-10,
    z_params=None,
    increment_scale=None,
    mode="symmetric",
):
    """Terminal values of the limit scheme, driving laws defaulted to the
    attractors matching the package walks."""
    z_law = _z_law(alpha, z_params, mode)
    d_law = _d_law(beta, increment_scale)
    h = float(grid_step)
    if not h > 0:
        raise ParameterError("grid step must be > 0", tag="PARAM_MESH")
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    nodes = _t_nodes(T, h)
    out = np.empty(reps)
    for start in range(0, reps, LIMIT_BLOCK):
        m = min(LIMIT_BLOCK, reps - start)
        counts, zcum = _time_changed_block(
            d_law, z_law, T, h, m, seed.generator((WAIT_LANE, start)),
            seed.generator((INNOVATION_LANE, start)), nodes,
        )
        # (nodes, m): row k holds every replication at t = k h
        idx = np.add(counts.T, 1, order="C")
        del counts
        dinv = idx * h
        idx += zcum.shape[1] * np.arange(m)
        w = np.take(zcum, idx)
        del zcum, idx
        out[start : start + m] = _s_limit_euler(spec, dinv, w, h)[-1]
        # dropped before the next block's draws, which they would otherwise
        # outlive: 4 MB more at that block's peak, above the walk scheme's
        del dinv, w
    return out


def sddn_terminal_samples(spec, config, T, reps, seed):
    """Terminal values of the delay scheme driven by moving averages.

    Requires deterministic unit waits (jumps at k/n) and an integer n*r so
    the delayed argument is exactly the state nr events back; the initial
    segment is read exactly for the first nr events. The drift is read at
    the cell midpoints k/n + 1/2n and sigma at the events (k + 1)/n.
    """
    if config.waiting is not None:
        raise ParameterError("delay scheme ensembles need a moving-average driver", tag="PARAM_WAITING")
    n = config.n
    nr = spec.r * n
    if abs(nr - round(nr)) > 1e-9:
        raise ParameterError("n * r must be an integer for the vectorised solver", tag="PARAM_DELAY")
    nr = int(round(nr))
    segment = _History(spec.eta)
    # delayed window still inside the initial segment for k < nr; the jump
    # read at k = nr - 1 is the left limit at 0 even when (k + 1)/n - r
    # rounds above 0
    seg_drift = [segment.read(k / n + 0.5 / n - spec.r) for k in range(nr)]
    seg_jump = [segment.read(min((k + 1) / n - spec.r, 0.0), left=True) for k in range(nr)]
    out = np.empty(reps)
    lo = 0
    for blk in iter_ctrw_chunks(config, T, reps, seed):
        m, K = blk["zeta"].shape
        x = np.empty((K + 1, m))
        x[1:] = blk["zeta"].T
        del blk
        t_drift, t_jump = np.arange(K) / n + 0.5 / n, np.arange(1, K + 1) / n
        out[lo : lo + m] = _sdd_steps(spec, x, n, t_drift, t_jump, seg_drift, seg_jump, config.psi)[-1]
        lo += m
        del x
    return out


def sdd_limit_terminal_samples(
    spec, alpha, T, reps, seed, grid_step=2.0**-10, z_params=None, mode="centered"
):
    """Terminal values of the limit delay scheme, driver defaulted to the
    attractor of a single innovation."""
    h = float(grid_step)
    if not h > 0:
        raise ParameterError("grid step must be > 0", tag="PARAM_MESH")
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    inc_params = _step_law(_z_law(alpha, z_params, mode), h)
    nodes = int(math.floor(T / h + 1e-9)) + 1
    t, head = _limit_reads(spec, h, nodes - 1)
    out = np.empty(reps)
    for start in range(0, reps, BLOCK):
        m = min(BLOCK, reps - start)
        x = np.empty((nodes, m))
        # drawn (m, nodes - 1), one row per replication, then laid out by step
        x[1:] = draw_stable(inc_params, seed.generator((INNOVATION_LANE, start)), (m, nodes - 1)).T
        out[start : start + m] = _sdd_steps(spec, x, 1.0 / h, t, t, head, head)[-1]
    return out
