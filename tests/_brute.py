"""Brute-force oracles for the path functionals, on small step paths, and
grid oracles for the exact terminal limit laws.

Each path oracle recomputes its functional straight from the definition
with dense enumeration, independent of the library code. The grid oracles
walk the subordinator along an s-grid with the full-rectangle kernel below
(every row drawn until the slowest row passes, Z to the widest row's
passage), which the library kernel replaced by per-row draws; the t-grid
integral oracle sums the limit integrals that way too.
The event Euler oracle steps the walk-driven SDE one grid time at a time
with scalar coefficient reads; the column limit Euler steps the limit SDE
on (m, nodes) rows, as sde did before its (nodes, m) layout; the
moving-average delay recursion steps the delay scheme one event at a time
with the delayed state read by index; the row delay samplers step the walk
and limit delay schemes on (m, K + 1) rows, as sde did before its one
column delay kernel, and _union_times is event_euler_sn's time set. The
per-path moving-average, CTRW and counting generators draw their waits and
innovations in their own loops and filter with np.convolve, and the first two
return their waits beside the bundle; theta, scaled_jumps and rebuild_x read
a bundle's record, as SimulationBundle's methods did before only tests read
them. The rectangular walk block draws every row's waits
as one wait matrix of the same width and every row's innovations up to the
block's largest renewal count, as processes did before its per-row rounds;
fixed_round_first_passage is the subordinator round loop as it was before
the walk's waits shared it. The padded walk block pads every row to the
block's largest renewal count and filters the whole (m, K) matrix, and the
padded terminal sum masks the padding away, as processes did before its
ragged blocks. The padded follower steps the slope-capped tracker over
every column of the padded blocks, as integrals did before it stepped each
ragged row over its own renewals, and LipschitzFollower is that tracker
as the per-path integrand it was before; upsilon_rows replays the capped
sup-difference quantity row by row with it (or with f), and
adversarial_running_sum is the running Ito sum of the adversarial
integrand on one bundle. The padded deterministic and adversarial
integrals, truncated split, gdca statistic and walk-driven SDE (with its
masked event kernel) are those samplers as they were before they read each
row's own segment (the padded gdca statistic, like the sampler, counts a
grid point that is a jump time once), and ragged_configs are the walks
their tests run through both. The per-path splits (split_martingale with
martingale_stop_jump, split_uv with gdca_statistic), clip_mean_limit and
invert_monotone_grid are definitions the library's samplers are checked
against. two_array_innovation draws the symmetric signs as one
second full-size array, as rng did before it drew them in slices. The
trigonometric CMS transform calls sin
and cos, as rng did before its tangent form, and the tangent CMS transform
holds four full-size arrays, as rng did before it ran in slices. The scalar
J1 program and the all-pairs M1 distance are the metrics as they were before
the J1 program ran on lists and M1 bracketed its answer first. coupled_pair
is the correlated walk and its coupled limit-scale walk on the same renewals,
shared by the metric tests and scripts/coupled_distances.py. walk_limit
gives the limit laws of a CTRW of unit Pareto laws, which the limit
samplers' tests draw.
"""

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import ctrwlab
from ctrwlab import (
    DataError,
    GridPath,
    InnovationLaw,
    ParameterError,
    ProcessConfig,
    ShapeError,
    StepPath,
    WaitingLaw,
)
from ctrwlab.processes import (
    BLOCK,
    COUNT_BLOCK,
    INNOVATION_LANE,
    LIMIT_BLOCK,
    PASSAGE_ROUND,
    WAIT_LANE,
    SimulationBundle,
    _block_zeta,
    _draw_innovations,
    _draw_waits,
    _first_passage,
    _live_slots,
    _segments,
    _staircase,
    _step_law,
    _t_nodes,
    _wait_round_widths,
    _zeta,
    iter_ctrw_chunks,
    limit_laws,
)
from ctrwlab.decompositions import _compensator, _tail_sums, default_gdca_gamma
from ctrwlab.integrals import _cells, _follow, _follower_slope, _partition_continuous, _partition_linear
from ctrwlab.metrics import (
    MetricResult,
    _canonical_jumps,
    _check_common_horizon,
    _free_space,
    _graph_vertices,
)
from ctrwlab.paths import sorted_union
from ctrwlab.rng import draw_stable


def brute_total_variation(path, t):
    ts, vs = path.restricted(t)
    return float(np.sum(np.abs(np.diff(vs))))


def brute_jump_stats(path, t, a):
    ts, vs = path.restricted(t)
    jumps = np.abs(np.diff(vs))
    max_jump = float(jumps.max()) if jumps.size else 0.0
    count = int(np.sum(jumps > a))
    return max_jump, count, float(np.max(np.abs(vs)))


def brute_m1_modulus(path, delta, t):
    ts, vs = path.restricted(t)
    k = len(ts)
    best = 0.0
    for i in range(k):
        for j in range(i, k):
            for l in range(j, k):
                if ts[l] - ts[i] > delta:
                    continue
                lo = min(vs[i], vs[l])
                hi = max(vs[i], vs[l])
                d = max(lo - vs[j], vs[j] - hi, 0.0)
                if d > best:
                    best = d
    return best


def brute_max_eps_increments(path, eps, t):
    ts, vs = path.restricted(t)
    k = len(vs)
    memo = {}

    def g(i):
        if i >= k - 1:
            return 0
        if i in memo:
            return memo[i]
        best = g(i + 1)
        for b in range(i + 1, k):
            if abs(vs[b] - vs[i]) >= eps:
                cand = 1 + g(b)
                if cand > best:
                    best = cand
        memo[i] = best
        return best

    return g(0)


def brute_avci(x, y, delta, t):
    # sup{|x(s)-x(t')| ^ |y(t')-y(u)| : s < t' < u <= s + delta} evaluated
    # per cell of the union breakpoint grid; a triple of cells p <= q <= r
    # is feasible iff u - s can be pushed below delta, i.e. the left edge
    # of cell r minus the right edge of cell p is < delta.
    horizon = min(t, x.horizon)
    xt, xv = x.restricted(horizon)
    yt, yv = y.restricted(horizon)
    edges = np.unique(np.concatenate([xt, yt]))
    m = len(edges)
    right = np.append(edges[1:], horizon)
    xc = np.array([x.value(w) for w in edges])
    yc = np.array([y.value(w) for w in edges])
    best = 0.0
    for p in range(m):
        for r in range(p + 1, m):
            if edges[r] - right[p] >= delta:
                continue
            for q in range(p, r + 1):
                if q == r and right[r] <= edges[r]:
                    continue  # zero-width last cell cannot hold t' < u
                val = min(abs(xc[p] - xc[q]), abs(yc[q] - yc[r]))
                if val > best:
                    best = val
    return best


def random_step_path(rng, horizon=1.0, max_breaks=8, big=True):
    k = int(rng.integers(1, max_breaks + 1))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, size=k - 1))])
    times = np.unique(times)
    vals = rng.normal(0.0, 1.0, size=times.size)
    if big and rng.random() < 0.3:
        vals[rng.integers(0, vals.size)] += rng.choice([-5.0, 5.0])
    return StepPath(times, vals, horizon)


# ---------------------------------------------------------------------------
# per-path splits and the closed-form clip mean limit: the definitions that
# truncated_split_samples and gdca_samples sample over replication blocks


def clip_mean_limit(law, a, c0=1.0):
    """lim_n n^beta E[h(zeta^n_1)] in closed form for the built-in laws."""
    alpha = law.alpha
    s = c0 * law.scale
    if law.mode in ("symmetric", "gaussian"):
        return 0.0
    if law.mode == "raw":
        return a ** (1.0 - alpha) * s**alpha / (1.0 - alpha)
    return -(a ** (1.0 - alpha)) * s**alpha / (alpha - 1.0)


@dataclass(frozen=True)
class TruncatedSplit:
    """X = M + A with M the compensated small-jump martingale part."""

    m: StepPath
    a_part: StepPath
    level: float
    compensator: float

    def max_jump(self):
        j = self.m.jump_sizes()
        return float(np.max(np.abs(j))) if j.size else 0.0


def split_martingale(bundle, a=1.0):
    """Exact small-jump martingale split of a zero-order realisation.

    M jumps by zeta^n_k 1_{|zeta^n_k| <= a} - compensator at each renewal;
    A = X - M on the same breakpoints.
    """
    if a < 1.0:
        raise ParameterError("truncation level must be >= 1", tag="PARAM_TRUNC")
    kappa = _compensator(bundle.config, a)
    zeta = scaled_jumps(bundle)
    dm = np.where(np.abs(zeta) <= a, zeta, 0.0) - kappa
    times = bundle.x.times
    m_vals = np.concatenate([[0.0], np.cumsum(dm)])
    m = StepPath(times, m_vals, bundle.horizon)
    a_path = StepPath(times, bundle.x.values - m_vals, bundle.horizon)
    return TruncatedSplit(m, a_path, float(a), kappa)


def martingale_stop_jump(split, t, c):
    """|jump of M at t ^ tau_c| where tau_c is the first time |M| >= c."""
    m = split.m
    vals = np.abs(m.values)
    hit = np.flatnonzero((vals >= c) & (m.times <= t))
    if hit.size == 0:
        return 0.0
    k = hit[0]
    return float(abs(m.values[k] - m.values[k - 1])) if k > 0 else float(abs(m.values[0]))


@dataclass(frozen=True)
class UVSplit:
    """psi^{-1} X = U + V; V collects the tail-weighted recent innovations."""

    u: StepPath
    v: StepPath
    psi: float
    u1: StepPath
    u2: StepPath


def split_uv(bundle, config=None):
    """Exact U/V split replayed from the innovation record."""
    cfg = bundle.config if config is None else config
    psi = cfg.psi
    past = bundle.past
    K = bundle.jump_count
    if bundle.innovations.size != past + 1 + K:
        raise DataError("innovation record does not cover every jump")
    pref = cfg.prefactor
    theta_pos = bundle.innovations[past + 1 :]
    tails = _tail_sums(cfg.coefficients)
    if tails.size and K > 0:
        v_at = -(pref / psi) * np.convolve(theta_pos, tails)[:K]
    else:
        v_at = np.zeros(K)
    times = bundle.x.times
    v_vals = np.concatenate([[0.0], v_at])
    v = StepPath(times, v_vals, bundle.horizon)
    u_vals = bundle.x.values / psi - v_vals
    u = StepPath(times, u_vals, bundle.horizon)
    u1_vals = pref * np.concatenate([[0.0], np.cumsum(theta_pos)])
    u1 = StepPath(times, u1_vals, bundle.horizon)
    u2_const = 0.0
    for j in range(1, cfg.order + 1):
        lo = max(1 - j, -past)
        acc = sum(theta(bundle, k) for k in range(lo, 1))
        u2_const += cfg.coefficients[j] * acc
    u2_const *= pref / psi
    u2 = StepPath(np.array([0.0]), np.array([u2_const]), bundle.horizon)
    return UVSplit(u, v, psi, u1, u2)


def gdca_statistic(split, gamma, bundle):
    """n^{-gamma} * sum of |V| over the scaled grid {k n^{-beta} T} joined
    with V's own breakpoints. The grid is k T / n^beta, the arithmetic of
    gdca_samples, so a grid point that is a jump time k / n of a moving
    average at T = 1 joins it as one point."""
    if gamma <= 0:
        raise ParameterError("gamma must be > 0", tag="PARAM_GAMMA")
    cfg = bundle.config
    n = cfg.n
    T = bundle.horizon
    nb = float(n) ** cfg.beta_eff
    grid = np.arange(int(math.floor(nb + 1e-9)) + 1) * T / nb
    pts = sorted_union(grid, split.v.times)
    pts = pts[pts <= T]
    return float(n) ** (-gamma) * float(np.sum(np.abs(split.v.value(pts))))


def invert_monotone_grid(d):
    """Exact generalised inverse of a nondecreasing const-interp GridPath,
    evaluated on its own grid: inf{s: D_s > t}."""
    idx = np.searchsorted(d.values, d.times, side="right")
    return GridPath(
        np.minimum(idx, d.values.size - 1) * d.step, d.step, interp="linear"
    )


COUPLED_COEFFICIENTS = (1.0, 0.5)


def coupled_pair(n, seed):
    """(X^n, psi Y^n): the attraction_ctrw_correlated walk (symmetric
    alpha = 1.5, Pareto(0.8) waits, c = (1, 0.5)) on [0, 1] and psi times the
    uncorrelated walk (c = (1,)) on the same seed and past horizon, so both
    jump at the same renewals with the same innovations."""
    law, waiting = InnovationLaw(1.5, "symmetric"), WaitingLaw(0.8)
    walk = ProcessConfig(law, waiting, COUPLED_COEFFICIENTS, n=n)
    plain = ProcessConfig(law, waiting, (1.0,), past_horizon=walk.past_horizon, n=n)
    x = ctrwlab.gen_ctrw(walk, 1.0, seed).x
    y = ctrwlab.gen_ctrw(plain, 1.0, seed).x
    return x, StepPath(y.times, walk.psi * y.values, y.horizon)


# Discrete Frechet distance of sampled completed graphs: an oracle that
# brackets d_m1 from above within the sampling mesh.


def sampled_graph(path, resolution, T):
    """Completed graph of a path as (time, value) vertices, `resolution`
    samples per segment at fractions k/resolution so refinements nest."""
    if isinstance(path, GridPath) and path.interp == "linear":
        pts_t = np.asarray(path.times, dtype=float)
        pts_v = path.values
        if pts_t[-1] < T:
            pts_t = np.append(pts_t, T)
            pts_v = np.append(pts_v, pts_v[-1])
    else:
        t = np.asarray(path.times, dtype=float)
        v = np.asarray(path.values, dtype=float)
        # staircase corners plus vertical jump segments, closed at T
        pts_t = np.empty(2 * t.size, dtype=float)
        pts_v = np.empty(2 * t.size, dtype=float)
        pts_t[0] = t[0]
        pts_v[0] = v[0]
        pts_t[1:-1:2] = t[1:]
        pts_v[1:-1:2] = v[:-1]
        pts_t[2::2] = t[1:]
        pts_v[2::2] = v[1:]
        pts_t[-1] = T
        pts_v[-1] = v[-1]
    # drop degenerate segments, then sample each remaining one
    seg_keep = (np.diff(pts_t) != 0.0) | (np.diff(pts_v) != 0.0)
    frac = np.arange(resolution) / resolution
    t0 = pts_t[:-1][seg_keep]
    t1 = pts_t[1:][seg_keep]
    v0 = pts_v[:-1][seg_keep]
    v1 = pts_v[1:][seg_keep]
    if t0.size == 0:
        return np.array([pts_t[0]]), np.array([pts_v[0]])
    vt = (t0[:, None] + (t1 - t0)[:, None] * frac).ravel()
    vv = (v0[:, None] + (v1 - v0)[:, None] * frac).ravel()
    vt = np.append(vt, pts_t[-1])
    vv = np.append(vv, pts_v[-1])
    return vt, vv


def discrete_frechet(at, av, bt, bv):
    """Min over monotone vertex matchings of the max L-inf point distance.

    The table is filled along anti-diagonals so each sweep is one vectorised
    minimum over the two predecessor diagonals.
    """
    na, nb = at.size, bt.size
    INF = float("inf")
    # diag[d][k] = dp value at a-index k, b-index d - k
    prev2 = None
    prev1 = np.array([max(abs(at[0] - bt[0]), abs(av[0] - bv[0]))])
    for d in range(1, na + nb - 1):
        k_lo = max(0, d - nb + 1)
        k_hi = min(na - 1, d)
        ks = np.arange(k_lo, k_hi + 1)
        js = d - ks
        cost = np.maximum(np.abs(at[ks] - bt[js]), np.abs(av[ks] - bv[js]))
        best = np.full(ks.size, INF)
        p_lo = max(0, d - 1 - nb + 1)
        # predecessor (k-1, j): diagonal d-1 at index k-1
        idx = ks - 1 - p_lo
        ok = ks - 1 >= p_lo
        ok &= ks - 1 <= min(na - 1, d - 1)
        best[ok] = prev1[idx[ok]]
        # predecessor (k, j-1): diagonal d-1 at index k
        idx = ks - p_lo
        ok = (ks >= p_lo) & (ks <= min(na - 1, d - 1)) & (js - 1 >= 0)
        best[ok] = np.minimum(best[ok], prev1[idx[ok]])
        if prev2 is not None:
            pp_lo = max(0, d - 2 - nb + 1)
            idx = ks - 1 - pp_lo
            ok = (ks - 1 >= pp_lo) & (ks - 1 <= min(na - 1, d - 2)) & (js - 1 >= 0)
            best[ok] = np.minimum(best[ok], prev2[idx[ok]])
        prev2 = prev1
        prev1 = np.maximum(cost, best)
    return float(prev1[-1])


def discrete_m1(x, y, resolution):
    """(discrete Frechet distance, mesh) of the completed graphs of x and y
    sampled at `resolution` points per segment; mesh is the largest L-inf gap
    between consecutive sampled vertices, and the continuous Frechet (M1)
    distance lies in [value - mesh, value]."""
    at, av = sampled_graph(x, resolution, x.horizon)
    bt, bv = sampled_graph(y, resolution, y.horizon)
    mesh = 0.0
    for tt, vv in ((at, av), (bt, bv)):
        if tt.size > 1:
            gap = np.maximum(np.abs(np.diff(tt)), np.abs(np.diff(vv)))
            mesh = max(mesh, float(gap.max()))
    return discrete_frechet(at, av, bt, bv), mesh


# Grid references for the terminal laws: first passage of the subordinator
# over T on the s-grid, rounded up to the next grid point (bias in [0, h]).


def rect_first_passage(d_inc, T, h, m, gen):
    """Levels of m subordinator paths on the s-grid, drawn in blocks with
    increments `d_inc` until every row has passed T: D[r, i] is row r's
    level at s = (i + 1) h."""
    block = max(64, int(1.3 * T / h) + 64)
    D = np.cumsum(draw_stable(d_inc, gen, (m, block)), axis=1)
    while not np.all(D[:, -1] > T):
        more = draw_stable(d_inc, gen, (m, max(64, block // 4)))
        D = np.concatenate([D, np.cumsum(more, axis=1) + D[:, -1:]], axis=1)
    return D


def rect_time_changed_block(d_law, z_law, T, h, m, dgen, zgen, nodes):
    """The grid time change for m replications: (counts, zcum).

    counts[r, j] is the number of subordinator levels at or below nodes[j],
    so counts + 1 is the grid inverse inf{s: D_s > t} in steps of h.
    zcum[r, k] is Z at s = k h (zcum[:, 0] = 0), up to one step past the
    first passage over T. D and Z are independent, with unit-time laws
    d_law and z_law.
    """
    D = rect_first_passage(_step_law(d_law, h), T, h, m, dgen)
    width = int((D <= T).sum(axis=1).max()) + 1
    counts = np.empty((m, nodes.size), dtype=np.intp)
    for r in range(m):
        counts[r] = np.searchsorted(D[r], nodes, side="right")
    del D
    zinc = draw_stable(_step_law(z_law, h), zgen, (m, width))
    zcum = np.concatenate([np.zeros((m, 1)), np.cumsum(zinc, axis=1)], axis=1)
    return counts, zcum


def walk_limit(alpha, beta, mode="symmetric"):
    """limit_laws of a CTRW of unit Pareto(alpha) innovations in `mode` and
    unit Pareto(beta) waits."""
    return limit_laws(ProcessConfig(InnovationLaw(alpha, mode), waiting=WaitingLaw(beta)))


def grid_terminal_time_changed(z_law, d_law, T, reps, seed, grid_step=2.0**-12):
    """Z_{D^(-1)_T} samples on the grid, Z and D of unit-time laws z_law and
    d_law."""
    h = float(grid_step)
    at_T = np.array([float(T)])
    out = np.empty(reps)
    for start in range(0, reps, BLOCK):
        m = min(BLOCK, reps - start)
        counts, zcum = rect_time_changed_block(
            d_law, z_law, T, h, m, seed.generator((WAIT_LANE, start)),
            seed.generator((INNOVATION_LANE, start)), at_T,
        )
        out[start : start + m] = zcum[np.arange(m), counts[:, 0] + 1]
        del counts, zcum
    return out


def grid_terminal_inverse_subordinator(d_law, T, reps, seed, grid_step=2.0**-12):
    """D^(-1)_T samples on the grid, D of unit-time law d_law."""
    h = float(grid_step)
    d_inc = _step_law(d_law, h)
    out = np.empty(reps)
    for start in range(0, reps, BLOCK):
        m = min(BLOCK, reps - start)
        D = rect_first_passage(d_inc, T, h, m, seed.generator((WAIT_LANE, start)))
        out[start : start + m] = ((D <= T).sum(axis=1) + 1) * h
        del D
    return out


def tgrid_integral_samples(z_law, d_law, T, reps, seed, grid_step=2.0**-12, fn=None, base=None):
    """Terminal left-point integrals against the time-changed stable path,
    summed on the t-grid: sum_k H(t_k) (Z(E(t_{k+1})) - Z(E(t_k))) with E the
    grid inverse of the subordinator.

    fn: integrand f(t) of time; base: integrand g(W_{t-}) of the path itself.
    Exactly one must be given. z_law and d_law are the unit-time laws of Z
    and D.
    """
    if (fn is None) == (base is None):
        raise ParameterError("pass exactly one of fn (time) or base (state)")
    h = float(grid_step)
    nodes = _t_nodes(T, h)
    hv_time = np.asarray(fn(nodes[:-1]), dtype=float) if fn is not None else None
    out = np.empty(reps)
    for start in range(0, reps, LIMIT_BLOCK):
        m = min(LIMIT_BLOCK, reps - start)
        counts, zcum = rect_time_changed_block(
            d_law, z_law, T, h, m, seed.generator((WAIT_LANE, start)),
            seed.generator((INNOVATION_LANE, start)), nodes,
        )
        for r in range(m):
            w = zcum[r, counts[r]]
            hv = hv_time if fn is not None else np.asarray(base(w[:-1]), dtype=float)
            out[start + r] = float(np.dot(hv, np.diff(w)))
        del counts, zcum
    return out


def rect_s_limit_terminal_samples(spec, z_law, d_law, T, reps, seed, grid_step=2.0**-10):
    """Terminal values of the limit SDE scheme driven by the full-rectangle
    kernel: s_limit_terminal_samples as it was before the per-row draws."""
    h = float(grid_step)
    nodes = _t_nodes(T, h)
    out = np.empty(reps)
    for start in range(0, reps, LIMIT_BLOCK):
        m = min(LIMIT_BLOCK, reps - start)
        counts, zcum = rect_time_changed_block(
            d_law, z_law, T, h, m, seed.generator((WAIT_LANE, start)),
            seed.generator((INNOVATION_LANE, start)), nodes,
        )
        idx = counts + 1
        w = np.take_along_axis(zcum, idx, axis=1)
        out[start : start + m] = column_s_limit_euler(spec, idx * h, w, h)[:, -1]
    return out


def column_s_limit_euler(spec, dinv, w, h):
    """Left-point Euler for the limit equation, one row per replication.

    dinv and w are (m, nodes) matrices of D^{-1} and W on the grid k h;
    returns X on the same nodes.
    """
    bfn, mfn, sfn = spec.coef("b"), spec.coef("mu"), spec.coef("sigma")
    x = np.empty(dinv.shape)
    x[:, 0] = spec.x0
    for k in range(dinv.shape[1] - 1):
        t = k * h
        x[:, k + 1] = (
            x[:, k]
            + bfn(t, dinv[:, k], x[:, k]) * h
            + mfn(t, dinv[:, k], x[:, k]) * (dinv[:, k + 1] - dinv[:, k])
            + sfn(t, dinv[:, k], x[:, k]) * (w[:, k + 1] - w[:, k])
        )
    return x


def operational_integral_rows(z_law, d_law, T, reps, seed, grid_step, fn=None, base=None):
    """The operational-time sums of tc_grid_integral_samples, one row at a
    time: each block's streams are drawn again as the sampler draws them, and
    each row's Z path, integrand and sum are built alone, in the order of the
    sampler's sums. That order is processes._row_cumsum's for Z: one running
    sum over the block, which enters each row at the previous row's end less
    that row's np.add.reduceat sum, the residue being taken off the row; and
    np.add.reduceat's for the sum of H dZ."""
    h = float(grid_step)
    out = np.empty(reps)
    for start in range(0, reps, LIMIT_BLOCK):
        m = min(LIMIT_BLOCK, reps - start)
        dgen = seed.generator((WAIT_LANE, start))
        if fn is None:
            e = (T / draw_stable(d_law, dgen, m)) ** d_law.alpha
            steps = [int(np.floor(v / h)) for v in e]
            # the last step's cut, a power taken over the block as the sampler
            # takes it: a scalar power can differ from it in the last bit
            cut = ((e - np.array(steps) * h) / h) ** (1.0 / z_law.alpha)
        else:
            D = _first_passage(_step_law(d_law, h), T, m, dgen)
            steps = [int(np.sum(row <= T)) for row in D]
        zgen = seed.generator((INNOVATION_LANE, start))
        dz_all = draw_stable(_step_law(z_law, h), zgen, sum(steps) + m)
        lo, carry, prev_sum = 0, 0.0, 0.0
        for r, J in enumerate(steps):
            dz = dz_all[lo : lo + J + 1].copy()
            lo += J + 1
            if fn is None:
                dz[J] *= cut[r]
                inc = np.concatenate([[0.0], dz[:-1]])
                row_sum = np.add.reduceat(inc, [0])[0]
                inc[0] = -prev_sum
                z = np.cumsum(np.concatenate([[carry], inc]))[1:]
                carry, prev_sum = z[-1], row_sum
                hv = base(z - z[0])
            else:
                hv = fn(np.concatenate([[0.0], D[r, :J]]))
            out[start + r] = np.add.reduceat(hv * dz, [0])[0]
    return out


def _union_times(events, mesh, T, max_gap=None, extra=None):
    """0, T, all events, uniform mesh points, with gaps capped at max_gap."""
    pts = [np.array([0.0, T]), np.asarray(events, dtype=float)]
    if extra is not None:
        pts.append(np.asarray(extra, dtype=float))
    if mesh is not None and mesh > 0:
        pts.append(np.arange(1, int(math.floor(T / mesh + 1e-9)) + 1) * mesh)
    u = np.unique(np.concatenate(pts))
    u = u[(u >= 0.0) & (u <= T)]
    if max_gap is not None:
        gaps = np.diff(u)
        wide = np.flatnonzero(gaps > max_gap)
        extra = []
        for i in wide:
            k = int(math.ceil(gaps[i] / max_gap))
            extra.append(u[i] + gaps[i] * np.arange(1, k) / k)
        if extra:
            u = np.unique(np.concatenate([u] + extra))
    return u


def event_euler_sn(spec, drivers, drift_mesh=2.0**-12, T=None):
    """Event-driven Euler solution of the walk-driven scheme, one scalar
    step per time of the union of the events and the drift mesh."""
    dn, zn = drivers
    if drift_mesh is not None and drift_mesh <= 0:
        raise ParameterError("drift mesh must be > 0", tag="PARAM_MESH")
    T = zn.horizon if T is None else float(T)
    events = np.union1d(dn.jump_times(), zn.jump_times())
    events = events[events <= T]
    times = _union_times(events, drift_mesh, T)
    bfn, mfn, sfn = spec.coef("b"), spec.coef("mu"), spec.coef("sigma")
    ev = set(events.tolist())
    x = float(spec.x0)
    vals = np.empty(times.size)
    vals[0] = x
    dprev = float(dn.value(0.0))
    K, C, p = spec.growth
    grew = False
    for i in range(1, times.size):
        u, v = times[i - 1], times[i]
        x += float(bfn(u, dprev, x)) * (v - u)
        if v in ev:
            dv = float(dn.value(v))
            zjump = float(zn.value(v) - zn.value_before(v))
            djump = dv - dprev
            mu_l = float(mfn(v, dprev, x))
            si_l = float(sfn(v, dprev, x))
            if not grew and max(abs(mu_l), abs(si_l)) > K * abs(x) ** p + C:
                warnings.warn(
                    "coefficient exceeded the declared growth bound during integration",
                    RuntimeWarning,
                    stacklevel=2,
                )
                grew = True
            x += mu_l * djump + si_l * zjump
            dprev = dv
        vals[i] = x
    return StepPath(times, vals, T)


def ma_delay_recursion(spec, jumps, n, psi):
    """X after each event of the delay scheme driven by a moving average
    with events k/n and the given jumps, one scalar step per event: the
    drift reads the delayed state at the cell midpoint and sigma its left
    limit at the event, both nr = n r events back by index, or in the
    initial segment while k < nr."""
    nr = int(round(spec.r * n))
    bfn, sfn = spec.coef("b"), spec.coef("sigma")
    eta = spec.eta
    x = [float(eta.value(0.0))]
    for k, dz in enumerate(jumps):
        if k >= nr:
            drift_arg = jump_arg = x[k - nr]
        else:
            drift_arg = float(eta.value((k + 0.5) / n - spec.r))
            jump_arg = float(eta.value_before((k + 1 - nr) / n))
        x.append(
            x[-1] + float(bfn((k + 0.5) / n, drift_arg)) / n + float(sfn((k + 1) / n, jump_arg)) / psi * dz
        )
    return np.array(x)


def row_sddn_terminal_samples(spec, config, T, reps, seed):
    """Terminal values of the moving-average delay scheme, stepped on (m, K + 1)
    rows beside each block's innovations, as sde did before its column
    kernel."""
    n = config.n
    nr = int(round(spec.r * n))
    c = config.psi
    bfn, sfn = spec.coef("b"), spec.coef("sigma")
    eta = spec.eta
    head = range(min(nr, math.ceil(n * T)))
    seg_drift = [float(eta.value(k / n + 0.5 / n - spec.r)) for k in head]
    seg_jump = []
    for k in head:
        # the left limit at (k + 1)/n - r, at most 0, snapped down by a
        # relative 1e-12 so a time that rounds just above a jump of eta
        # still reads before it
        tau = min((k + 1) / n - spec.r, 0.0)
        tau -= 1e-12 * max(1.0, abs(tau))
        seg_jump.append(float(eta.value_before(max(tau, eta.origin))))
    out = np.empty(reps)
    for lo, blk in padded_blocks(config, T, reps, seed):
        zeta = blk["zeta"]
        m, K = zeta.shape
        X = np.empty((m, K + 1))
        X[:, 0] = float(eta.value(0.0))
        for k in range(K):
            t_k = k / n
            t_next = (k + 1) / n
            if k >= nr:
                xd_drift = X[:, k - nr]
                xd_jump = X[:, k - nr]
            else:
                xd_drift = seg_drift[k]
                xd_jump = seg_jump[k]
            X[:, k + 1] = (
                X[:, k]
                + bfn(t_k + 0.5 / n, xd_drift) / n
                + sfn(t_next, xd_jump) / c * zeta[:, k]
            )
        out[lo : lo + m] = X[:, K]
    return out


def row_sdd_limit_euler(spec, zinc, h):
    """Left-point Euler for the limit delay equation, one row per replication.

    zinc is the (m, nodes - 1) matrix of driver increments on the grid k h;
    returns X on the nodes. The grid step must divide the delay so that the
    delayed reads land on nodes.
    """
    m_delay = int(round(spec.r / h))
    bfn, sfn = spec.coef("b"), spec.coef("sigma")
    eta = spec.eta
    X = np.empty((zinc.shape[0], zinc.shape[1] + 1))
    X[:, 0] = float(eta.value(0.0))
    for k in range(zinc.shape[1]):
        t = k * h
        xd = X[:, k - m_delay] if k >= m_delay else float(eta.value(t - spec.r))
        X[:, k + 1] = X[:, k] + bfn(t, xd) * h + sfn(t, xd) * zinc[:, k]
    return X


# ---------------------------------------------------------------------------
# the record reads of a SimulationBundle, and per-path generators with their
# own draw loops and np.convolve filter, as they were before they became the
# one-row call of processes._block


def theta(bundle, k):
    """theta_k of a bundle's innovation record, for k in [-past, jump_count]."""
    idx = int(k) + bundle.past
    if idx < 0 or idx >= bundle.innovations.size:
        raise DataError(f"theta_{k} is not in the record")
    return float(bundle.innovations[idx])


def scaled_jumps(bundle):
    """zeta^n_k = prefactor * zeta_k for k = 1..jump_count."""
    return bundle.x.jump_sizes()


def rebuild_x(bundle):
    """A bundle's X path recomputed from its innovation record, config and
    counting path's jump times (reconstruction check)."""
    cfg = bundle.config
    peff = max(bundle.past, cfg.order)
    th, starts = _segments(bundle.innovations, np.array([bundle.jump_count]), bundle.past, peff)
    zeta = _zeta(th, starts, cfg.coefficients, peff)[peff + 1 :]
    return StepPath.from_jumps(bundle.counting.times[1:], cfg.prefactor * zeta, bundle.horizon)


def _filter_innovations(thetas, coeffs, past):
    """zeta_i = sum_j c_j theta_{i-j} for i = 1..K, with the finite-past cut
    (theta indices below -past simply do not exist)."""
    K = thetas.size - past - 1
    if K <= 0:
        return np.empty(0)
    conv = np.convolve(thetas, np.asarray(coeffs, dtype=float))
    return conv[past + 1 : past + 1 + K]


def gen_moving_average(config, T, seed):
    """(bundle, waits): moving average X^n_t = n^(-1/alpha) sum_{k <=
    floor(nt)} zeta_k, and its unit waits."""
    if config.waiting is not None:
        raise ParameterError("moving average takes waiting=None", tag="PARAM_WAITING")
    if T <= 0:
        raise ParameterError("horizon must be > 0")
    n = config.n
    K = int(math.floor(n * T + 1e-9))
    gen = seed.generator(INNOVATION_LANE)
    thetas = _draw_innovations(config.innovation, gen, config.past_horizon + 1 + K)
    zeta = _filter_innovations(thetas, config.coefficients, config.past_horizon)
    times = np.arange(1, K + 1) / n
    x = StepPath.from_jumps(times, config.prefactor * zeta, T)
    counting = _staircase(times, K, T)
    bundle = SimulationBundle(x, counting, thetas, config.past_horizon, config, seed, float(T))
    return bundle, np.ones(K)


def _waits_until(law, gen, target, block):
    """Draw waits until their running sum exceeds target; returns the array."""
    chunks = []
    total = 0.0
    while total <= target:
        j = _draw_waits(law, gen, block)
        if np.any(j <= 0.0):
            raise DataError("waiting times must be > 0")
        chunks.append(j)
        total += float(j.sum())
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def gen_ctrw(config, T, seed):
    """(bundle, waits): CTRW X^n_t = n^(-beta/alpha) sum_{k <= N_nt} zeta_k,
    N_nt = max{m: L_m <= nt}, and the waits J_1, ..., J_{N_nT}."""
    if config.waiting is None:
        raise ParameterError("CTRW needs a waiting law", tag="PARAM_WAITING")
    if T <= 0:
        raise ParameterError("horizon must be > 0")
    n = config.n
    target = n * T
    block = _wait_round_widths(config.waiting, target)[0]
    past = config.past_horizon
    waits_all = _waits_until(config.waiting, seed.generator(WAIT_LANE), target, block)
    K_hint = int(np.searchsorted(np.cumsum(waits_all), target, side="right"))
    thetas_all = _draw_innovations(
        config.innovation, seed.generator(INNOVATION_LANE), past + 1 + K_hint
    )

    L = np.cumsum(waits_all)
    K = int(np.searchsorted(L, target, side="right"))
    thetas = thetas_all[: past + 1 + K]
    waits = waits_all[:K]
    zeta = _filter_innovations(thetas, config.coefficients, past)
    jump_times = L[:K] / n
    x = StepPath.from_jumps(jump_times, config.prefactor * zeta, T)
    counting = _staircase(jump_times, K, T)
    return SimulationBundle(x, counting, thetas, past, config, seed, float(T)), waits


def gen_counting(waiting, n, T, seed):
    """(N_{nt} path, D^n = n^(-beta) N_{nt} path) for one realisation."""
    if T <= 0:
        raise ParameterError("horizon must be > 0")
    n = int(n)
    target = n * T
    beta = waiting.beta
    block = max(64, int(2.0 * target ** min(beta, 1.0)) + 32)
    waits = _waits_until(waiting, seed.generator(WAIT_LANE), target, block)
    L = np.cumsum(waits)
    K = int(np.searchsorted(L, target, side="right"))
    counting = _staircase(L[:K] / n, K, T)
    dn = StepPath(counting.times, counting.values * float(n) ** (-beta), T)
    return counting, dn


# ---------------------------------------------------------------------------
# the walk block with rectangular wait and innovation draws, and the
# subordinator round loop, as they were before the walk drew per-row rounds


def fixed_round_first_passage(d_inc, T, m, gen):
    """Levels of m subordinator paths on the s-grid of step h, with
    increments `d_inc` over h, up to each row's first passage over T:
    D[r, i] is row r's level at s = (i + 1) h.

    The levels are drawn in rounds of PASSAGE_ROUND increments. The first
    round covers every row; each later round only the rows whose last level
    is still at or below T, in row order. A row that has passed is padded
    with +inf, so D <= T marks exactly the levels at or below T, and
    D[:, -1] > T holds for every row.
    """
    rows = np.arange(m)
    last = np.zeros((m, 1))
    rounds = []
    while rows.size:
        lv = np.cumsum(draw_stable(d_inc, gen, (rows.size, PASSAGE_ROUND)), axis=1) + last[rows]
        rounds.append((rows, lv))
        last[rows] = lv[:, -1:]
        rows = rows[lv[:, -1] <= T]
    D = np.full((m, len(rounds) * PASSAGE_ROUND), np.inf)
    for i, (rows, lv) in enumerate(rounds):
        D[rows, i * PASSAGE_ROUND : (i + 1) * PASSAGE_ROUND] = lv
    return D


def rect_grow_wait_matrix(law, gen, m, target):
    """(m, cols) waits from `law` on gen, with every row's sum above target:
    a first draw of _wait_round_widths columns, then its later width until
    it holds."""
    first, later = _wait_round_widths(law, target)
    J = _draw_waits(law, gen, (m, first))
    while not np.all(J.sum(axis=1) > target):
        J = np.concatenate([J, _draw_waits(law, gen, (m, later))], axis=1)
    return J


def rect_block(config, T, m, wgen, igen):
    """One replication block of m rows, waits from wgen and innovations from
    igen: (block dict as padded_block gives it, wait matrix or None for a
    moving average). The wait matrix may run past each row's last renewal.
    """
    n = config.n
    law = config.innovation
    past = config.past_horizon
    target = n * T
    J = None
    if config.waiting is None:
        K = int(math.floor(target + 1e-9))
        times = np.broadcast_to(np.arange(1, K + 1) / n, (m, K))
        counts = np.full(m, K)
    else:
        J = rect_grow_wait_matrix(config.waiting, wgen, m, target)
        L = np.cumsum(J, axis=1)
        counts = (L <= target).sum(axis=1)
        K = int(counts.max())
        times = L[:, :K] / n
    th, peff = _pad_past(_draw_innovations(law, igen, (m, past + 1 + K)), past, config.order)
    blk = {
        "theta": th,
        "peff": peff,
        "zeta": config.prefactor * _zeta_matrix(th, config.coefficients, peff, K),
        "times": times,
        "counts": counts,
        "mask": np.arange(K)[None, :] < counts[:, None],
    }
    return blk, J


def rect_terminal_samples(config, T, reps, seed):
    """X^n_T over `reps` replications, from rectangular blocks laid out as
    processes.iter_ctrw_chunks lays out its blocks."""
    out = np.empty(reps)
    for lo in range(0, reps, BLOCK):
        m = min(BLOCK, reps - lo)
        wgen, igen = seed.generator((WAIT_LANE, lo)), seed.generator((INNOVATION_LANE, lo))
        blk = rect_block(config, T, m, wgen, igen)[0]
        out[lo : lo + m] = np.where(blk["mask"], blk["zeta"], 0.0).sum(axis=1)
    return out


def rect_terminal_counting_samples(waiting, n, T, reps, seed):
    """n^(-beta) N_{nT} over `reps` replications, from rectangular wait
    matrices laid out as processes.terminal_counting_samples lays out its."""
    target = int(n) * T
    out = np.empty(reps)
    for lo in range(0, reps, COUNT_BLOCK):
        m = min(COUNT_BLOCK, reps - lo)
        J = rect_grow_wait_matrix(waiting, seed.generator((WAIT_LANE, lo)), m, target)
        out[lo : lo + m] = (np.cumsum(J, axis=1) <= target).sum(axis=1) * float(n) ** (-waiting.beta)
    return out


# ---------------------------------------------------------------------------
# the walk block padded to the block's largest renewal count, and its masked
# terminal sum, as they were before the ragged blocks


def stacked_rounds(draw, m, first, later, T):
    """Per-row draws of m rows in rounds, up to each row's first passage
    over T, as processes._rounds draws them: returns each of draw's arrays
    over all rounds as an (m, cols) matrix, +inf after a row's last round.
    """
    rows = np.arange(m)
    last = np.zeros(m)
    rounds = []
    width = first
    while rows.size:
        arrays = draw(rows.size, width, last[rows])
        rounds.append((rows, arrays))
        lv = arrays[-1][:, -1]
        last[rows] = lv
        rows = rows[lv <= T]
        width = later
    cols = first + (len(rounds) - 1) * later
    out = tuple(np.full((m, cols), np.inf) for _ in rounds[0][1])
    lo = 0
    for rows, arrays in rounds:
        for o, a in zip(out, arrays):
            o[rows, lo : lo + a.shape[1]] = a
        lo += arrays[0].shape[1]
    return out


def padded_grow_wait_matrix(law, gen, m, target):
    """(J, L): (m, cols) waits from `law` on gen and their running sums,
    each row drawn in rounds up to its first passage over target and +inf
    after it, with the round widths of processes._wait_rounds."""
    first, later = _wait_round_widths(law, target)

    def draw(k, width, last):
        J = _draw_waits(law, gen, (k, width))
        L = J.copy()
        L[:, 0] += last
        return J, np.cumsum(L, axis=1, out=L)

    return stacked_rounds(draw, m, first, later, target)


def _pad_past(th, past, order):
    """Left-pad an innovation matrix with zeros so the filter sees a uniform
    past of length max(past, order); returns (matrix, effective past)."""
    if order > past:
        return np.concatenate([np.zeros((th.shape[0], order - past)), th], axis=1), order
    return th, past


def _zeta_matrix(th, coeffs, peff, K):
    """zeta_i = sum_j c_j theta_{i-j} for i = 1..K, summed from the highest
    lag down, the order np.convolve uses for short filters."""
    z = np.zeros((th.shape[0], K))
    for j in reversed(range(len(coeffs))):
        if coeffs[j] != 0.0:
            z += coeffs[j] * th[:, peff + 1 - j : peff + 1 - j + K]
    return z


def padded_block(config, T, m, wgen, igen):
    """One replication block of m rows padded to the largest count K, as
    iter_ctrw_chunks yielded it before its blocks were ragged, and the wait
    matrix or None for a moving average: a dict with theta (the filter's
    zero past in front), peff, zeta, times, counts and the validity mask of
    the K columns. Every row's theta, zeta, times and mask have K columns
    and the filter runs over all of them, so zeta past a row's count is not
    zero; times past it are nT/n."""
    n = config.n
    law = config.innovation
    past = config.past_horizon
    target = n * T
    J = None
    if config.waiting is None:
        K = int(math.floor(target + 1e-9))
        times = np.broadcast_to(np.arange(1, K + 1) / n, (m, K))
        counts = np.full(m, K)
        th = _draw_innovations(law, igen, (m, past + 1 + K))
    else:
        J, L = padded_grow_wait_matrix(config.waiting, wgen, m, target)
        counts = (L <= target).sum(axis=1)
        K = int(counts.max())
        times = np.minimum(L[:, :K], target)
        times /= n
        th = np.zeros((m, past + 1 + K))
        keep = np.arange(past + 1 + K) < (past + 1 + counts)[:, None]
        th[keep] = _draw_innovations(law, igen, int(keep.sum()))
    th, peff = _pad_past(th, past, config.order)
    blk = {
        "theta": th,
        "peff": peff,
        "zeta": config.prefactor * _zeta_matrix(th, config.coefficients, peff, K),
        "times": times,
        "counts": counts,
        "mask": np.arange(K)[None, :] < counts[:, None],
    }
    return blk, J


def ragged_configs(n):
    """Moving averages (one with a past shorter than the filter) and CTRWs
    (one with a zero inner coefficient and no past, one with a past longer
    than its filter)."""
    sym = InnovationLaw(1.5, "symmetric")
    yield ProcessConfig(sym, coefficients=(1.0, 0.5, 0.25), past_horizon=1, n=n)
    yield ProcessConfig(InnovationLaw(0.7, "raw"), n=n)
    yield ProcessConfig(InnovationLaw(1.5, "centered"), WaitingLaw(0.8), coefficients=(1.0, 0.5), n=n)
    yield ProcessConfig(sym, WaitingLaw(0.6), coefficients=(1.0, 0.0, 0.3), past_horizon=0, n=n)
    yield ProcessConfig(InnovationLaw(1.2, "centered"), WaitingLaw(0.6), past_horizon=2, n=n)


def padded_blocks(config, T, reps, seed):
    """Yield (lo, padded block) for `reps` replications, the block of rows
    lo, ... addressed as processes.iter_ctrw_chunks addresses it."""
    for lo in range(0, reps, BLOCK):
        m = min(BLOCK, reps - lo)
        wgen, igen = seed.generator((WAIT_LANE, lo)), seed.generator((INNOVATION_LANE, lo))
        yield lo, padded_block(config, T, m, wgen, igen)[0]


def padded_terminal_samples(config, T, reps, seed):
    """X^n_T over `reps` replications: each padded block's zeta masked and
    summed along its rows."""
    out = np.empty(reps)
    for lo, blk in padded_blocks(config, T, reps, seed):
        out[lo : lo + blk["counts"].size] = np.where(blk["mask"], blk["zeta"], 0.0).sum(axis=1)
    return out


def padded_follower_integral_samples(config, T, reps, seed, base=np.tanh, C=1.0, gamma=0.5):
    """Terminal integral of the slope-capped tracker against X^n, vectorised.

    Replays the step of LipschitzFollower column by column across a
    replication block. Masked columns become zero jumps at time T, so they
    add nothing to a row's integral or to its X.
    """
    slope = float(C) * float(config.n) ** float(gamma)
    out = np.empty(reps)
    g0 = float(base(0.0))
    for lo, blk in padded_blocks(config, T, reps, seed):
        zeta = np.where(blk["mask"], blk["zeta"], 0.0)
        times = np.where(blk["mask"], blk["times"], T)
        m, K = zeta.shape
        v = np.full(m, g0)
        xprev = np.zeros(m)
        tprev = np.zeros(m)
        acc = np.zeros(m)
        for k in range(K):
            v = _follow(v, base(xprev), slope * (times[:, k] - tprev))
            acc += v * zeta[:, k]
            xprev += zeta[:, k]
            tprev = times[:, k]
        out[lo : lo + m] = acc
    return out


class LipschitzFollower:
    """Slope-capped tracker of g(X_{t-}): between jumps it moves toward the
    target g(X at the last jump) at speed at most C n^gamma.

    Piecewise linear and continuous, so |H_t - H_s| <= C n^gamma |t - s| by
    construction; the target never uses the jump happening at t itself.
    """

    kind = "adapted-lipschitz"

    def __init__(self, bundle, base=np.tanh, C=1.0, gamma=0.5):
        self.slope = _follower_slope(C, gamma, bundle.config.n)
        self.C = float(C)
        self.gamma = float(gamma)
        self.base = base
        x = bundle.x
        times = np.concatenate([x.times, [bundle.horizon]])
        g0 = float(base(0.0))
        vals = np.empty(times.size)
        vals[0] = g0
        v = g0
        for k in range(1, times.size):
            v = _follow(v, float(base(x.values[k - 1])), self.slope * (times[k] - times[k - 1]))
            vals[k] = v
        self.times = times
        self.values = vals

    def left_values(self, times):
        # continuous, so the left limit is the value itself
        return np.interp(np.asarray(times, dtype=float), self.times, self.values)


def upsilon_rows(config, T, reps, seed, eps_list, m, fn=None, base=None, C=1.0, gamma=0.5):
    """integrals.upsilon_samples replayed one row at a time: x from the row's
    times and live jumps, H as f or as the LipschitzFollower of x,
    H^{|m,eps} from the library's partition helpers, and np.cumsum of
    (H - H^{|m,eps})(t-) times x's jumps."""
    grid = np.arange(m + 1) * (T / m)
    if fn is not None:
        f = lambda t: np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)
        cells = (_cells(_partition_continuous(fn, eps, grid, T), grid, T) for eps in eps_list)
        held = [StepPath(pts, f(pts), T) for pts in cells]
    out = np.empty((len(eps_list), reps))
    r = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, True):
        zeta = _block_zeta(config, rb)[_live_slots(rb)]
        ends = np.cumsum(rb["counts"])
        for a, b in zip(ends - rb["counts"], ends):
            x = StepPath.from_jumps(rb["times"][a:b], zeta[a:b], T)
            jt, js = x.jump_times(), x.jump_sizes()
            if fn is None:
                H = LipschitzFollower(SimpleNamespace(config=config, x=x, horizon=T), base, C, gamma)
                hv = H.left_values(jt)
                cells = (_cells(_partition_linear(H.times, H.values, eps, grid, T), grid, T) for eps in eps_list)
                held = [StepPath(pts, H.left_values(pts), T) for pts in cells]
            else:
                hv = f(jt)
            for i, hd in enumerate(held):
                run = np.cumsum((hv - hd.value_before(jt)) * js)
                out[i, r] = min(1.0, float(np.max(np.abs(run), initial=0.0)))
            r += 1
    return out


def adversarial_running_sum(bundle):
    """The integral of sgn(theta_{k-1}) against a bundle's jump k, at each
    of its jumps: the adversarial integrand's running Ito sum."""
    signs = np.sign(bundle.innovations[bundle.past : bundle.past + bundle.jump_count])
    return np.cumsum(signs * bundle.x.jump_sizes())


def padded_deterministic_integral_samples(config, T, reps, seed, fn):
    """Terminal values of the integral of f(t) against X^n: f at every
    padded block's jump times times its masked jumps, summed along rows."""
    out = np.empty(reps)
    for lo, blk in padded_blocks(config, T, reps, seed):
        hv = np.asarray(fn(blk["times"]), dtype=float)
        inc = np.where(blk["mask"], hv * blk["zeta"], 0.0)
        out[lo : lo + inc.shape[0]] = inc.sum(axis=1)
    return out


def padded_adversarial_sup_samples(config, T, reps, seed):
    """sup_{t <= T} |integral of the adversarial integrand against X^n|:
    sgn(theta_{k-1}) times the masked jump k, cumsum along each padded row."""
    out = np.empty(reps)
    for lo, blk in padded_blocks(config, T, reps, seed):
        K = blk["zeta"].shape[1]
        signs = np.sign(blk["theta"][:, blk["peff"] : blk["peff"] + K])
        inc = np.where(blk["mask"], signs * blk["zeta"], 0.0)
        run = np.cumsum(inc, axis=1)
        out[lo : lo + run.shape[0]] = np.max(np.abs(run), axis=1, initial=0.0)
    return out


def padded_truncated_split_samples(config, T, a, c_grid, reps, seed):
    """(M_T, TV(A), max |jump of M| / 2a, {c: |jump of M at T ^ tau_c|}) of
    the truncated split, from the masked padded blocks: tau_c is the first
    column where the running |M| reaches c."""
    kappa = _compensator(config, a)
    mart, tv, jump_ratio = np.empty(reps), np.empty(reps), np.empty(reps)
    stop = {c: np.empty(reps) for c in c_grid}
    for lo, blk in padded_blocks(config, T, reps, seed):
        zeta, mask = blk["zeta"], blk["mask"]
        m = zeta.shape[0]
        small = np.abs(zeta) <= a
        dm = np.where(mask, np.where(small, zeta, 0.0) - kappa, 0.0)
        da = np.where(mask, np.where(small, 0.0, zeta) + kappa, 0.0)
        mart[lo : lo + m] = dm.sum(axis=1)
        tv[lo : lo + m] = np.abs(da).sum(axis=1)
        jump_ratio[lo : lo + m] = np.abs(dm).max(axis=1, initial=0.0) / (2.0 * a)
        mv = np.abs(np.cumsum(dm, axis=1))
        for c in c_grid:
            if not dm.shape[1]:
                # no renewal in any row of the block: M never moves
                stop[c][lo : lo + m] = 0.0
                continue
            over = mv >= c
            first = np.argmax(over, axis=1)
            stop[c][lo : lo + m] = np.where(over.any(axis=1), np.abs(dm[np.arange(m), first]), 0.0)
    return mart, tv, jump_ratio, stop


def padded_gdca_samples(config, T, reps, seed, gamma=None):
    """The grid statistic n^{-gamma} sum_{pi} |V| from the padded blocks:
    V_k = -c sum_i tail_i theta_{k+1-i} along each row, masked past its
    count, and each grid point read by its own searchsorted of the row's
    live times, unless it is the time of the jump it reads (the jump sum
    holds that point of the union)."""
    if not config.correlated:
        return np.zeros(reps)
    if gamma is None:
        gamma = default_gdca_gamma(config)
    n = config.n
    tails = _tail_sums(config.coefficients)
    nb = float(n) ** config.beta_eff
    grid = np.arange(1, int(math.floor(nb + 1e-9)) + 1) * T / nb
    out = np.empty(reps)
    for lo, blk in padded_blocks(config, T, reps, seed):
        th = blk["theta"].copy()
        th[:, : blk["peff"] + 1] = 0.0
        m, K = blk["zeta"].shape
        # column c of av holds |V| after c jumps
        av = np.zeros((m, K + 1))
        v = av[:, 1:]
        for i, ti in enumerate(tails, start=1):
            v += ti * th[:, blk["peff"] + 2 - i : blk["peff"] + 2 - i + K]
        v *= -config.prefactor / config.psi
        v[~blk["mask"]] = 0.0
        np.abs(av, out=av)
        for r in range(m):
            times = blk["times"][r, : blk["counts"][r]]
            at = np.searchsorted(times, grid, side="right")
            on_jump = (at > 0) & (times[np.maximum(at, 1) - 1] == grid) if times.size else False
            out[lo + r] = float(n) ** (-gamma) * (v[r].sum() + np.where(on_jump, 0.0, av[r, at]).sum())
    return out


def masked_sn_euler(spec, ev_t, live, dd, dz, T, drift_mesh):
    """Left-point Euler for the walk-driven scheme on (m, K) event times,
    validity mask and jumps of D and Z, masked events being zero-width
    steps at T; returns the (L + 1, m) times and X, as sde._sn_euler did
    before it took flat events and counts."""
    m, K = ev_t.shape
    bfn, mfn, sfn = spec.coef("b"), spec.coef("mu"), spec.coef("sigma")
    mesh = np.arange(1, int(math.floor(T / drift_mesh + 1e-9)) + 1) * drift_mesh if drift_mesh else np.empty(0)
    grid = np.append(mesh[mesh <= T], T)
    et = np.where(live, ev_t, T)
    np.maximum.accumulate(et, axis=1, out=et)
    at = (np.arange(1, K + 1) + np.searchsorted(grid, et, side="left"))[live] * m + np.nonzero(live)[0]
    shape = (K + grid.size + 1, m)
    times = np.empty(shape)
    times[0] = 0.0
    times[1 : K + 1] = et.T
    times[K + 1 :] = grid[:, None]
    times.sort(axis=0)
    order = np.argsort(at)
    at = at[order]
    dd, dz = dd[live][order], dz[live][order]
    edges = np.searchsorted(at, np.arange(shape[0] + 1) * m).tolist()
    tl = np.take(times, at)
    at -= np.repeat(np.arange(shape[0]) * m, np.diff(edges))
    x = np.empty(shape)
    x[0] = spec.x0
    xk, d, u = x[0], np.zeros(m), times[0]
    for v, xj, lo, hi in zip(times[1:], x[1:], edges[1:-1], edges[2:]):
        xk = xk + bfn(u, d, xk) * (v - u)
        if hi > lo:
            r, t, dj = at[lo:hi], tl[lo:hi], dd[lo:hi]
            xr, dr = xk[r], d[r]
            xk[r] = xr + (mfn(t, dr, xr) * dj + sfn(t, dr, xr) * dz[lo:hi])
            d[r] = dr + dj
        xj[...] = xk
        u = v
    return times, x


def padded_sn_terminal_samples(spec, config, T, reps, seed, drift_mesh=2.0**-10):
    """Terminal values of the walk-driven scheme: masked_sn_euler on each
    padded block."""
    nb = float(config.n) ** (-config.beta_eff)
    out = np.empty(reps)
    for lo, blk in padded_blocks(config, T, reps, seed):
        zeta = blk["zeta"]
        dd = np.broadcast_to(nb, zeta.shape)
        out[lo : lo + zeta.shape[0]] = masked_sn_euler(spec, blk["times"], blk["mask"], dd, zeta, T, drift_mesh)[1][-1]
    return out


def two_array_innovation(law, gen, size):
    """rng.draw_innovation as it was before it drew the symmetric signs in
    slices: every magnitude uniform, then every sign uniform as a second
    full-size array."""
    if law.mode == "gaussian":
        return law.scale * gen.standard_normal(size)
    mag = gen.random(size)
    np.power(mag, -1.0 / law.alpha, out=mag)
    if law.mode == "centered":
        mag -= law.alpha / (law.alpha - 1.0)
    mag *= law.scale
    if law.mode == "symmetric":
        sign = gen.random(size)
        sign -= 0.5
        np.copysign(mag, sign, out=mag)
    return mag


def cms_standard(alpha, skew, gen, size):
    # Chambers-Mallows-Stuck transform of (uniform angle, unit exponential);
    # returns S1-parametrised samples with sigma = 1. Computed in place, one
    # ufunc at a time, in the order of the textbook expression
    V = gen.random(size)
    V -= 0.5
    V *= np.pi
    W = gen.exponential(1.0, size)
    if alpha == 2.0:
        return 2.0 * np.sqrt(W) * np.sin(V)
    if alpha == 1.0:
        # skew 0 is the only admissible case here (validated upstream)
        return np.tan(V)
    if skew == 0.0:
        # sin(a V) / cos(V)^(1/a) * (cos((1 - a) V) / W)^((1 - a)/a)
        out = np.multiply(alpha, V)
        np.sin(out, out=out)
        arg = np.multiply(1.0 - alpha, V)
    else:
        # S sin(a (V + B)) / cos(V)^(1/a) * (cos(V - a (V + B)) / W)^((1 - a)/a)
        zeta = skew * math.tan(math.pi * alpha / 2.0)
        B = math.atan(zeta) / alpha
        S = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
        arg = np.add(V, B)
        arg *= alpha
        out = np.sin(arg)
        np.subtract(V, arg, out=arg)
    np.cos(V, out=V)
    V **= 1.0 / alpha
    out /= V
    if skew != 0.0:
        out *= S
    np.cos(arg, out=arg)
    arg /= W
    arg **= (1.0 - alpha) / alpha
    out *= arg
    return out


def tangent_cms_standard(alpha, skew, gen, size):
    # rng._cms_standard as it was before it ran in slices, four full-size
    # arrays at once. Chambers-Mallows-Stuck transform of (uniform angle V,
    # unit exponential W); returns S1-parametrised samples with sigma = 1. Off alpha in {1, 2}
    # it is S sin(a) / cos(V)^(1/a) * (cos(V - a) / W)^((1 - a)/a) with
    # a = alpha (V + B), taken in tangent form: both cosine arguments lie in
    # (-pi/2, pi/2], where cos x = (1 + tan^2 x)^(-1/2), and
    # sin a = 2t / (1 + t^2) with t = tan(a/2). Four arrays, in place; W is
    # never squared, since W^2 underflows where W itself does not
    V = gen.random(size)
    V -= 0.5
    V *= np.pi
    W = gen.standard_exponential(size)
    if alpha == 2.0:
        return 2.0 * np.sqrt(W) * np.sin(V)
    if alpha == 1.0:
        # skew 0 is the only admissible case here (validated upstream)
        return np.tan(V)
    zeta = skew * math.tan(math.pi * alpha / 2.0)
    B = math.atan(zeta) / alpha
    S = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    arg = np.add(V, B)
    arg *= alpha
    out = np.multiply(arg, 0.5)
    np.tan(out, out=out)
    np.subtract(V, arg, out=arg)
    # (1 + tan^2 V)^(1/(2a)) = cos(V)^(-1/a)
    np.tan(V, out=V)
    V *= V
    V += 1.0
    V **= 1.0 / (2.0 * alpha)
    # (sqrt(1 + tan^2 (V - a)) W)^((a - 1)/a) = (cos(V - a) / W)^((1 - a)/a)
    np.tan(arg, out=arg)
    arg *= arg
    arg += 1.0
    np.sqrt(arg, out=arg)
    arg *= W
    arg **= (alpha - 1.0) / alpha
    # 2S t / (1 + t^2) = S sin(a). It is multiplied in first, so a zero sine
    # stays 0 where the product of the two powers alone would overflow. The
    # result goes to the first array drawn, which left a lower peak RSS than
    # the last one did
    np.multiply(out, out, out=W)
    W += 1.0
    out /= W
    out *= 2.0 * S
    np.multiply(out, V, out=V)
    V *= arg
    return V


def scalar_d_j1(x, y):
    """Exact J1 distance between step paths, as metrics.d_j1 computed it
    before its dynamic program ran on lists: numpy scalar indexing, pushing
    each state to its successors.

    inf over increasing bijections lam of max(||lam - id||, ||x o lam - y||).
    For step paths the optimum interleaves the two jump sequences; a jump of
    x placed strictly inside a y-cell pays its displacement to that cell,
    a jump matched to a y-jump pays their time gap, and every level pair that
    becomes visible on the way pays |x_level - y_level|. The min-max dynamic
    program below scans that lattice.
    """
    if not isinstance(x, StepPath) or not isinstance(y, StepPath):
        raise ShapeError("d_j1 is defined for step paths")
    T = _check_common_horizon(x, y)
    x0, sx, dx = _canonical_jumps(x)
    y0, sy, dy = _canonical_jumps(y)
    p, q = dx.size, dy.size
    # levels after consuming i jumps
    lx = x0 + np.concatenate([[0.0], np.cumsum(dx)])
    ly = y0 + np.concatenate([[0.0], np.cumsum(dy)])
    # value cost of visiting state (i, j)
    state = np.abs(lx[:, None] - ly[None, :])
    # slot boundaries on the y timeline: slot j is [t_j, t_{j+1}]
    lo = np.concatenate([[0.0], sy])
    hi = np.concatenate([sy, [T]])
    INF = float("inf")
    dp = np.full((p + 1, q + 1), INF)
    move = np.zeros((p + 1, q + 1), dtype=np.int8)
    dp[0, 0] = state[0, 0]
    for i in range(p + 1):
        for j in range(q + 1):
            base = dp[i, j]
            if base == INF:
                continue
            if i < p:
                # place x-jump i+1 inside slot j: time cost = distance to the slot
                c = max(base, max(0.0, lo[j] - sx[i], sx[i] - hi[j]), state[i + 1, j])
                if c < dp[i + 1, j]:
                    dp[i + 1, j] = c
                    move[i + 1, j] = 1
            if j < q:
                c = max(base, state[i, j + 1])
                if c < dp[i, j + 1]:
                    dp[i, j + 1] = c
                    move[i, j + 1] = 2
            if i < p and j < q:
                # merge the jumps: they fire simultaneously after the warp
                c = max(base, abs(sx[i] - sy[j]), state[i + 1, j + 1])
                if c < dp[i + 1, j + 1]:
                    dp[i + 1, j + 1] = c
                    move[i + 1, j + 1] = 3
    # recover the matching for the witness
    matched = 0
    i, j = p, q
    while i > 0 or j > 0:
        m = move[i, j]
        if m == 3:
            matched += 1
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
    return MetricResult(
        float(dp[p, q]),
        witness=f"{matched} jump pair(s) matched of {p} vs {q}",
        exact=True,
    )



def _allpairs_monotone_values(u, span, dist, floor):
    """Type (c) critical values: for vertices i < k against one segment, the
    eps at which the lower end of i's free interval meets the upper end of
    k's, (x_i,c - x_k,c') / (w_c + w_c') in Alt-Godau's terms, i.e.
    (u_i,c span_c' - u_k,c' span_c) / (span_c + span_c'), which is
    (u_i,c - u_k,c) / 2 for c = c'. Kept only where it is at least `floor`
    and both intervals are open; pairs through a d_c = 0 coordinate are nan
    and drop out."""
    i, k = np.triu_indices(u.shape[0], 1)
    ui, uk = u[i], u[k]
    val = (ui[..., :, None] * span[:, None, :] - uk[..., None, :] * span[:, :, None]) / (
        span[:, :, None] + span[:, None, :]
    )
    val[..., [0, 1], [0, 1]] = (ui - uk) / 2.0
    need = np.maximum(np.maximum(dist[i], dist[k]), floor)[..., None, None]
    return val[val >= need]


def _grid_intervals(params, eps):
    """Free intervals at eps, from _free_space's params, as nested lists
    (lo, hi); empty where lo > hi. A segment too short for the division
    gives +-inf ends, which clamp."""
    u, span, flat, _ = params
    with np.errstate(over="ignore"):
        lo = np.fmax(np.fmax.reduce((u - eps) / span, axis=2), 0.0)
        hi = np.fmin(np.fmin.reduce((u + eps) / span, axis=2), 1.0)
    lo[flat > eps] = np.inf
    return lo.tolist(), hi.tolist()


def _grid_frechet_at_most(eps, pa, pb):
    """Alt-Godau decision: is the Frechet distance <= eps?

    pa holds the free-space parameters of the vertices of a against the
    segments of b (the vertical cell edges), pb those of b against a (the
    horizontal ones). Cells are convex under L-inf, so the reachable part of
    each cell edge is the free interval cut below at one entry point, which
    is all that is propagated (None where nothing is reachable).
    """
    vlo, vhi = _grid_intervals(pa, eps)
    hlo, hhi = _grid_intervals(pb, eps)
    n, m = len(vlo) - 1, len(hlo) - 1
    # an edge on s = 0 or t = 0 is reachable from (0, 0) while it is free at
    # its start and every edge before it is free end to end
    left, ok = [], True
    for j in range(m):
        ok = ok and vlo[0][j] == 0.0 <= vhi[0][j]
        left.append(0.0 if ok else None)
        ok = ok and vhi[0][j] >= 1.0
    ok = True
    for i in range(n):
        ok = ok and hlo[0][i] == 0.0 <= hhi[0][i]
        below = 0.0 if ok else None
        ok = ok and hhi[0][i] >= 1.0
        right = []
        lo_r, hi_r = vlo[i + 1], vhi[i + 1]
        for j in range(m):
            into = left[j]
            if lo_r[j] > hi_r[j]:
                right.append(None)
            elif below is not None:
                right.append(lo_r[j])
            elif into is not None and max(into, lo_r[j]) <= hi_r[j]:
                right.append(max(into, lo_r[j]))
            else:
                right.append(None)
            lo_t, hi_t = hlo[j + 1][i], hhi[j + 1][i]
            if lo_t > hi_t:
                below = None
            elif into is not None:
                below = lo_t
            elif below is not None and max(below, lo_t) <= hi_t:
                below = max(below, lo_t)
            else:
                below = None
        left = right
    return left[m - 1] is not None and vhi[n][m - 1] >= 1.0



def allpairs_d_m1(x, y):
    """Exact M1 distance: the continuous Frechet distance under L-inf between
    the completed graphs of x and y, as metrics.d_m1 computed it before its
    floor-first bracket: every type (c) critical value at once, and the
    decision run over every cell.

    M1 is the infimum over parametric representations of the completed
    graphs of the sup-norm distance in time and space (Whitt,
    Stochastic-Process Limits, 2002, ch. 12), i.e. the Frechet distance
    between the graph polylines under the max norm. It is computed as in
    Alt & Godau, "Computing the Frechet distance between two polygonal
    curves", IJCGA 5 (1995): the distance is one of the critical values
      (a) the distances between the two start and the two end vertices,
      (b) the L-inf distance from a vertex to a segment of the other curve,
      (c) (x_i,c - x_k,c') / (w_c + w_c') for vertices i < k against one
          segment, with x = r/d and w = 1/|d| per coordinate (_free_space,
          _allpairs_monotone_values),
    which are found in closed form, and a binary search over them with the
    reachability decision picks the smallest one that is feasible. The
    decision runs at eps padded by a relative 1e-12 so an exactly critical
    eps lands on the feasible side of rounding.
    """
    for p in (x, y):
        if not isinstance(p, (StepPath, GridPath)):
            raise ShapeError("d_m1 is defined for StepPath and GridPath")
    T = _check_common_horizon(x, y)
    a = _graph_vertices(x, T)
    b = _graph_vertices(y, T)
    witness = f"continuous Frechet on {len(a)} x {len(b)} graph vertices"
    if len(a) == 1 or len(b) == 1:
        # a point is matched to the whole other curve
        val = float(np.abs(a[:, None, :] - b[None, :, :]).max())
        return MetricResult(val, witness=witness)
    pa, pb = _free_space(a, b), _free_space(b, a)
    ends = np.abs(np.array([a[0] - b[0], a[-1] - b[-1]])).max(axis=1)
    # every vertex has to be matched somewhere: a lower bound that is itself critical
    floor = max(ends.max(), pa[3].min(axis=1).max(), pb[3].min(axis=1).max())
    cands = [ends]
    for u, span, _, dist in (pa, pb):
        cands += [dist.ravel(), _allpairs_monotone_values(u, span, dist, floor)]
    cands = np.concatenate(cands)
    cands = np.unique(cands[cands >= floor])
    lo, hi = 0, cands.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _grid_frechet_at_most(float(cands[mid]) * (1.0 + 1e-12), pa, pb):
            hi = mid
        else:
            lo = mid + 1
    return MetricResult(float(cands[lo]), witness=f"{witness}, {cands.size} critical values")
