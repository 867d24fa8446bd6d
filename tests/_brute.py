"""Brute-force oracles for the path functionals, on small step paths.

Each oracle recomputes its functional straight from the definition with
dense enumeration, independent of the library code.
"""

import numpy as np

from ctrwlab import GridPath, StepPath


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
