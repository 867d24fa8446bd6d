"""Solvers for walk-driven SDEs and delay SDEs, grid Euler schemes for
their scaling limits, and vectorised terminal-law samplers.

Prelimit equations are driven by the exact step drivers (D^n, Z^n) of a
SimulationBundle, so every pure-jump reduction is solved without any
discretisation error; only the dt term needs a quadrature mesh. One kernel
steps the walk-driven scheme through its events and drift mesh, and one
steps every delay scheme, walk or limit, a cell at a time; the per-path
solvers are their one-row calls and the samplers run them block by block.
Limit equations are left-point Euler schemes on uniform grids.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .paths import GridPath, StepPath, sorted_union
from .processes import (
    BLOCK,
    INNOVATION_LANE,
    LIMIT_BLOCK,
    WAIT_LANE,
    _block_zeta,
    _live_slots,
    _step_law,
    _subordinator,
    _t_nodes,
    _time_changed_block,
    iter_ctrw_chunks,
)
from .rng import draw_stable

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
    with initial segment eta on [-r, 0]."""

    b: object
    sigma: object
    r: float
    eta: StepPath

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


def _sn_euler(spec, events, dd, T, drift_mesh, path=False):
    """Left-point Euler for the walk-driven scheme, one column per replication.

    events is a list of (ev_t, counts, dz) groups of replications: flat event
    times and jumps of Z, counts[r] of them for replication r of the group,
    row after row, each row's times in order. The kernel joins the groups
    and empties the list, so that the joined events are the only copy alive
    while it steps. dd is the matching flat D jumps, in the joined order, or
    one D jump shared by every event. Each replication steps through its
    events, the mesh {k drift_mesh} and T in time order, K - counts[r] more
    steps at T being of zero width (K the largest count): b dt on every
    step, then mu_- dD + sigma_- dZ at an event, with the coefficients read
    at left limits. Returns X_T as an m-vector; with `path`, the (L + 1, m)
    times and X instead: row 0 holds t = 0 and x0, row j the j-th time of
    every replication and X after it, so the last row is X_T.

    The merge needs no argsort: event k of a row lands after k events and
    after the grid points (mesh and T) strictly before it, so at equal times
    an event comes before the mesh point and T, and the times are one sort of
    values in place. X is one m-vector stepped in place along the rows of
    the times, the one (L + 1, m) array unless X's rows are kept; the
    events, sorted by their place in that layout, give each step its
    replications with a jump as one slice, and only those read mu and sigma
    and take the jump. The growth bound is checked once per call, on the
    events' times and the left limits of X and D written as they are
    stepped, after the times are dropped, and warns at most once.
    """
    if drift_mesh is not None and not drift_mesh > 0:
        raise ParameterError("drift mesh must be > 0", tag="PARAM_MESH")
    ev_t, counts, dz = (np.concatenate(a) for a in zip(*events))
    events.clear()
    m, K = counts.size, int(counts.max(initial=0))
    bfn, mfn, sfn = spec.coef("b"), spec.coef("mu"), spec.coef("sigma")
    mesh = np.arange(1, int(math.floor(T / drift_mesh + 1e-9)) + 1) * drift_mesh if drift_mesh else np.empty(0)
    grid = np.append(mesh[mesh <= T], T)
    # event k of row r sits at (k + 1) m + r of the layout's event rows
    at = (np.arange(ev_t.size) - np.repeat(np.cumsum(counts) - counts - 1, counts)) * m
    at += np.repeat(np.arange(m), counts)
    shape = (K + grid.size + 1, m)
    times = np.empty(shape)
    times[0] = 0.0
    times[1 : K + 1] = T
    times.reshape(-1)[at] = ev_t
    # a time that rounds above T must not pass the fill at T
    np.maximum.accumulate(times[1 : K + 1], axis=0, out=times[1 : K + 1])
    times[K + 1 :] = grid[:, None]
    at += m * np.searchsorted(grid, ev_t, side="left")
    del ev_t
    # equal times are equal values, so sorting each column's values puts
    # every event time in the row that its position above gives it
    times.sort(axis=0)
    order = np.argsort(at)
    at = at[order]
    dz = dz[order]
    dd = dd[order] if np.ndim(dd) else np.broadcast_to(dd, at.shape)
    del order
    # the events of layout row j are at[edges[j] : edges[j + 1]], in the
    # replications at - j m, at the times tl
    edges = np.searchsorted(at, np.arange(shape[0] + 1) * m).tolist()
    tl = np.take(times, at)
    at -= np.repeat(np.arange(shape[0]) * m, np.diff(edges))
    xk, d, step = np.full(m, float(spec.x0)), np.zeros(m), np.empty(m)
    if path:
        x = np.empty(shape)
        x[0] = xk
    # the events' left limits and D, kept for the growth check
    xl, dl = np.empty(at.size), np.empty(at.size)
    u = times[0]
    for j, (v, lo, hi) in enumerate(zip(times[1:], edges[1:-1], edges[2:]), 1):
        np.subtract(v, u, out=step)
        step *= bfn(u, d, xk)
        xk += step
        if hi > lo:
            r, t, dj = at[lo:hi], tl[lo:hi], dd[lo:hi]
            # the indices are in range by construction; "clip" spares take
            # the buffer it fills under "raise"
            xr, dr = np.take(xk, r, out=xl[lo:hi], mode="clip"), np.take(d, r, out=dl[lo:hi], mode="clip")
            xk[r] = xr + (mfn(t, dr, xr) * dj + sfn(t, dr, xr) * dz[lo:hi])
            d[r] = dr + dj
        if path:
            x[j] = xk
        u = v
    if not path:
        # the check's event-sized temporaries then sit below the loop's peak
        del times, u, v
    Kg, Cg, p = spec.growth
    if np.any(np.maximum(np.abs(mfn(tl, dl, xl)), np.abs(sfn(tl, dl, xl))) > Kg * np.abs(xl) ** p + Cg):
        warnings.warn("coefficient exceeded the declared growth bound during integration", RuntimeWarning, stacklevel=3)
    return (times, x) if path else xk


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
    ev = sorted_union(dn.jump_times(), zn.jump_times())
    ev = ev[ev <= T]
    dd, dz = (path.value(ev) - path.value_before(ev) for path in drivers)
    times, x = _sn_euler(spec, [(ev, np.array([ev.size]), dz)], dd, T, drift_mesh, path=True)
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


def _whole_lag(nr, message, tag):
    """The delay lag nr in steps, which must be a whole number up to 1e-9."""
    if abs(nr - round(nr)) > 1e-9:
        raise ParameterError(message, tag=tag)
    return int(round(nr))


def _walk_lag(spec, n):
    """The walk delay scheme's lag n r, in jumps at k/n."""
    return _whole_lag(spec.r * n, "n * r must be an integer for the delay scheme", "PARAM_DELAY")


def _limit_lag(spec, h):
    """The limit delay scheme's lag r / h, in grid steps of h > 0."""
    return _whole_lag(spec.r / h, "grid step must divide the delay", "PARAM_MESH")


def _walk_sdd_kernel(spec, config):
    """The delay scheme driven by a moving average: a function of a
    (K + 1, m) x whose rows 1..K hold the jumps at k/n, which steps it by
    _sdd_steps and returns it. The drift is read at the cell midpoints
    (k + 1/2)/n and sigma at the events (k + 1)/n, both at the state
    nr = n r events back, or in the initial segment for k < nr, where sigma
    reads the left limit at (k + 1)/n - r: at k = nr - 1 that is the left
    limit at 0, and the read is snapped down by a relative 1e-12, since
    (k + 1)/n - r can round just above a jump of eta that it stands for.
    Requires deterministic unit waits and an integer n r, checked before
    any step is taken."""
    if config.waiting is not None:
        raise ParameterError("delay scheme ensembles need a moving-average driver", tag="PARAM_WAITING")
    n = config.n
    eta, k = spec.eta, np.arange(_walk_lag(spec, n))
    head_drift = eta.value(k / n + 0.5 / n - spec.r).tolist()
    tau = np.minimum((k + 1) / n - spec.r, 0.0)
    tau -= 1e-12 * np.maximum(1.0, np.abs(tau))
    head_jump = eta.value_before(np.maximum(tau, eta.origin)).tolist()

    def steps(x):
        K = x.shape[0] - 1
        t_drift, t_jump = np.arange(K) / n + 0.5 / n, np.arange(1, K + 1) / n
        return _sdd_steps(spec, x, n, t_drift, t_jump, head_drift, head_jump, config.psi)

    return steps


def solve_sddn(spec, bundle, T=None):
    """The delay scheme driven by the moving average bundle.x, as a step
    path on [0, T] with the driver's breakpoints: the one-row call of the
    kernel that sddn_terminal_samples runs, on the bundle's jumps at k/n.
    With b identically 0 it is exact."""
    zn = bundle.x
    T = bundle.horizon if T is None else float(T)
    K = int(np.searchsorted(zn.times, T, side="right")) - 1
    steps = _walk_sdd_kernel(spec, bundle.config)
    x = np.diff(zn.values[: K + 1], prepend=0.0)[:, None]
    return StepPath(zn.times[: K + 1], steps(x)[:, 0], T)


def _limit_reads(spec, h, K):
    """The limit scheme's step times k h, k < K, and initial-segment reads;
    the grid step must divide the delay so delayed reads land on nodes."""
    head = (np.arange(_limit_lag(spec, h)) * h).tolist()
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
    solve_sn kernel run on the live events of each two consecutive
    replication blocks, so every value is what solve_sn gives on that row's
    drivers. Each block dict is dropped once its times, counts and jumps are
    taken, and the kernel joins the pair's events, holds one (L + 1, m)
    float array, the times, beside them, and steps X_T as one m-vector.
    Stepping the rows of two blocks at once halves the per-row Python work
    of the kernel's loop."""
    nb = float(config.n) ** (-config.beta_eff)
    out = np.empty(reps)
    lo = 0
    parts = []
    for rb in iter_ctrw_chunks(config, T, reps, seed, True):
        parts.append((rb["times"], rb["counts"], _block_zeta(config, rb)[_live_slots(rb)]))
        del rb
        m = sum(counts.size for _, counts, _ in parts)
        # a pair is two consecutive blocks; a last odd one out runs alone
        if len(parts) < 2 and lo + m < reps:
            continue
        # the kernel joins the pair and empties parts
        out[lo : lo + m] = _sn_euler(spec, parts, nb, T, drift_mesh)
        lo += m
    return out


def s_limit_terminal_samples(spec, z_law, d_law, T, reps, seed, grid_step=2.0**-10):
    """Terminal values of the limit scheme, driven by Z and the inverse of
    D with unit-time laws z_law and d_law (limit_laws of the walk)."""
    d_law = _subordinator(d_law)
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
    """Terminal values of the delay scheme driven by moving averages: the
    solve_sddn kernel run on each replication block, so every value is what
    solve_sddn gives on that row's driver. Requires deterministic unit waits
    (jumps at k/n) and an integer n*r so the delayed argument is exactly
    the state nr events back."""
    steps = _walk_sdd_kernel(spec, config)
    out = np.empty(reps)
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, False):
        m = rb["counts"].size
        # the segments of a moving average, all of one length, are the rows
        # of a matrix; x's row 0, theta_0's slot, is set by the kernel
        x = _block_zeta(config, rb).reshape(m, -1)[:, rb["peff"] :].T.copy()
        del rb
        out[lo : lo + m] = steps(x)[-1]
        lo += m
        del x
    return out


def sdd_limit_terminal_samples(spec, z_law, T, reps, seed, grid_step=2.0**-10):
    """Terminal values of the limit delay scheme driven by a stable Z of
    unit-time law z_law."""
    h = float(grid_step)
    if not h > 0:
        raise ParameterError("grid step must be > 0", tag="PARAM_MESH")
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    inc_params = _step_law(z_law, h)
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
