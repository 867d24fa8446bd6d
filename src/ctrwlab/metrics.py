"""Uniform, J1 and M1 distances between paths on a common horizon.

All three are exact. d_j1 works on step paths: the optimal time warp is
piecewise linear with knots at jump times, so the infimum reduces to a
min-max dynamic program over jump alignments. d_m1 is the continuous
Frechet distance under the max norm between the completed graphs, which
are polylines (staircases for step paths); it is found by a binary search
over closed-form critical values with the Alt-Godau reachability decision.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .paths import GridPath, StepPath


@dataclass(frozen=True)
class MetricResult:
    value: float
    witness: str = ""
    exact: bool = True
    mesh: float = 0.0

    def __float__(self):
        return self.value


def _check_common_horizon(x, y):
    if abs(x.horizon - y.horizon) > 1e-12:
        raise ShapeError("paths must share a horizon")
    return x.horizon


def d_uniform(x, y):
    """sup_t |x(t) - y(t)|, evaluated on the union of breakpoints."""
    _check_common_horizon(x, y)
    grid = np.union1d(np.asarray(x.times), np.asarray(y.times))
    diff = np.abs(np.asarray(x.value(grid)) - np.asarray(y.value(grid)))
    k = int(np.argmax(diff))
    return MetricResult(float(diff[k]), witness=f"attained at t={grid[k]:.6g}", exact=True)


def _canonical_jumps(path):
    """(initial value, jump times, jump sizes) with zero jumps dropped."""
    d = np.diff(path.values)
    keep = d != 0.0
    return float(path.values[0]), path.times[1:][keep], d[keep]


def d_j1(x, y):
    """Exact J1 distance between step paths.

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


def _graph_vertices(path, T):
    """Completed graph of a path as an (N, 2) array of (time, value)
    vertices, closed at T, with repeated vertices dropped: the grid nodes of
    a linear GridPath, else the staircase corners joined by vertical jump
    segments."""
    t = np.asarray(path.times, dtype=float)
    v = np.asarray(path.values, dtype=float)
    if isinstance(path, GridPath) and path.interp == "linear":
        pts = np.column_stack([t, v])
        if t[-1] < T:
            pts = np.vstack([pts, [T, v[-1]]])
    else:
        pts = np.empty((2 * t.size, 2), dtype=float)
        pts[0] = t[0], v[0]
        pts[1:-1:2, 0] = t[1:]
        pts[1:-1:2, 1] = v[:-1]
        pts[2::2, 0] = t[1:]
        pts[2::2, 1] = v[1:]
        pts[-1] = T, v[-1]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def _free_space(a, b):
    """Free-space parameters of every vertex a_i against every segment
    [b_j, b_j+1] of the other curve.

    With d = b_j+1 - b_j, r = a_i - b_j, u = r sign(d) and span = |d|, the
    free interval {t in [0, 1] : |a_i - b_j - t d|_inf <= eps} is
    [max(0, max_c (u_c - eps) / span_c), min(1, min_c (u_c + eps) / span_c)]
    over the coordinates with d_c != 0 (u and span are nan where d_c = 0;
    span depends on the segment only); a coordinate with d_c = 0 instead
    needs |r_c| <= eps, the largest such |r_c| being `flat`. In the x = r/d,
    w = 1/|d| of Alt-Godau the ends are x_c -+ eps w_c; dividing by span
    last keeps short segments from overflowing.
    Returns (u, span, flat, dist), dist the L-inf distance from a_i to the
    segment, i.e. the eps at which the free interval opens.
    """
    lo, hi = np.minimum(b[:-1], b[1:]), np.maximum(b[:-1], b[1:])
    d = b[1:] - b[:-1]
    r = a[:, None, :] - b[None, :-1, :]
    fixed = d == 0.0
    u = np.where(fixed, np.nan, r * np.sign(d))
    span = np.where(fixed, np.nan, np.abs(d))
    flat = np.where(fixed, np.abs(r), 0.0).max(axis=2)
    # distance to the bounding box, and where the segment is diagonal the
    # eps at which the two coordinate windows first overlap
    box = np.maximum(lo - a[:, None, :], a[:, None, :] - hi).max(axis=2)
    tilt = np.abs(u[..., 0] * span[:, 1] - u[..., 1] * span[:, 0]) / (span[:, 0] + span[:, 1])
    dist = np.fmax(np.maximum(box, 0.0), tilt)
    return u, span, flat, dist


def _monotone_values(u, span, dist, floor):
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


def _intervals(params, eps):
    """Free intervals at eps, from _free_space's params, as nested lists
    (lo, hi); empty where lo > hi. A segment too short for the division
    gives +-inf ends, which clamp."""
    u, span, flat, _ = params
    with np.errstate(over="ignore"):
        lo = np.fmax(np.fmax.reduce((u - eps) / span, axis=2), 0.0)
        hi = np.fmin(np.fmin.reduce((u + eps) / span, axis=2), 1.0)
    lo[flat > eps] = np.inf
    return lo.tolist(), hi.tolist()


def _frechet_at_most(eps, pa, pb):
    """Alt-Godau decision: is the Frechet distance <= eps?

    pa holds the free-space parameters of the vertices of a against the
    segments of b (the vertical cell edges), pb those of b against a (the
    horizontal ones). Cells are convex under L-inf, so the reachable part of
    each cell edge is the free interval cut below at one entry point, which
    is all that is propagated (None where nothing is reachable).
    """
    vlo, vhi = _intervals(pa, eps)
    hlo, hhi = _intervals(pb, eps)
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


def d_m1(x, y):
    """Exact M1 distance: the continuous Frechet distance under L-inf between
    the completed graphs of x and y.

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
          _monotone_values),
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
        cands += [dist.ravel(), _monotone_values(u, span, dist, floor)]
    cands = np.concatenate(cands)
    cands = np.unique(cands[cands >= floor])
    lo, hi = 0, cands.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _frechet_at_most(float(cands[mid]) * (1.0 + 1e-12), pa, pb):
            hi = mid
        else:
            lo = mid + 1
    return MetricResult(float(cands[lo]), witness=f"{witness}, {cands.size} critical values")
