"""Uniform, J1 and M1 distances between paths on a common horizon.

All three are exact. d_j1 works on step paths: the optimal time warp is
piecewise linear with knots at jump times, so the infimum reduces to a
min-max dynamic program over jump alignments. d_m1 is the continuous
Frechet distance under the max norm between the completed graphs, which
are polylines (staircases for step paths); it is found by a search over
closed-form critical values with the Alt-Godau reachability decision, which
visits only the reachable cells of the free space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .paths import GridPath, StepPath, sorted_union


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
    grid = sorted_union(x.times, y.times)
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
    state = np.abs(lx[:, None] - ly[None, :]).tolist()
    # slot boundaries on the y timeline: slot j is [t_j, t_{j+1}]
    lo = [0.0] + sy.tolist()
    hi = sy.tolist() + [T]
    sx, sy = sx.tolist(), sy.tolist()
    INF = float("inf")
    # pulled in row order, each state tries its moves in the order 3, 1, 2
    # (the order in which a row-major sweep reaches their sources) and keeps
    # a later one only if it is strictly cheaper
    prev, moves = None, []
    for i in range(p + 1):
        st = state[i]
        cur, move = [INF] * (q + 1), [0] * (q + 1)
        if i == 0:
            cur[0] = st[0]
        s = sx[i - 1] if i else 0.0
        for j in range(q + 1):
            if i and j:
                # merge the jumps: they fire simultaneously after the warp
                c = max(prev[j - 1], abs(s - sy[j - 1]), st[j])
                if c < cur[j]:
                    cur[j], move[j] = c, 3
            if i:
                # place x-jump i inside slot j: time cost = distance to the slot
                c = max(prev[j], max(0.0, lo[j] - s, s - hi[j]), st[j])
                if c < cur[j]:
                    cur[j], move[j] = c, 1
            if j:
                c = max(cur[j - 1], st[j])
                if c < cur[j]:
                    cur[j], move[j] = c, 2
        moves.append(move)
        prev = cur
    # recover the matching for the witness
    matched = 0
    i, j = p, q
    while i > 0 or j > 0:
        m = moves[i][j]
        if m == 3:
            matched += 1
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
    return MetricResult(
        float(prev[q]),
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
    fixed = d == 0.0
    sign = np.sign(d)
    span = np.where(fixed, np.nan, np.abs(d))
    # built one coordinate at a time into the kept arrays, through two
    # (N, M) scratch arrays: no (N, M, 2) temporary
    shape = (a.shape[0], d.shape[0])
    u = np.empty(shape + (2,))
    flat, dist = np.zeros(shape), np.zeros(shape)
    r, s = np.empty(shape), np.empty(shape)
    for c in range(2):
        ac = a[:, c, None]
        np.subtract(ac, b[:-1, c], out=r)
        np.multiply(r, sign[:, c], out=u[..., c])
        u[:, fixed[:, c], c] = np.nan
        np.abs(r, out=r)
        np.maximum(flat, r, out=flat, where=fixed[:, c])
        # distance to the bounding box, floored at 0
        np.subtract(lo[:, c], ac, out=r)
        np.subtract(ac, hi[:, c], out=s)
        np.maximum(r, s, out=r)
        np.maximum(dist, r, out=dist)
    # where the segment is diagonal, the eps at which the two coordinate
    # windows first overlap
    np.multiply(u[..., 0], span[:, 1], out=r)
    np.multiply(u[..., 1], span[:, 0], out=s)
    r -= s
    np.abs(r, out=r)
    r /= span[:, 0] + span[:, 1]
    np.fmax(dist, r, out=dist)
    return u, span, flat, dist


def _segment_values(params, lo, hi):
    """Type (c) critical values in (lo, hi): for vertices i < k against one
    segment, the eps at which the lower end of i's free interval meets the
    upper end of k's, (x_i,c - x_k,c') / (w_c + w_c') in Alt-Godau's terms,
    i.e. (u_i,c span_c' - u_k,c' span_c) / (span_c + span_c'), which is
    (u_i,c - u_k,c) / 2 for c = c'. One counts only once both intervals are
    open, so a segment takes only the vertex pairs whose distances to it are
    both below hi, one segment at a time; pairs through a d_c = 0
    coordinate are nan and drop out."""
    u, span, _, dist = params
    vals = []
    for j, s in enumerate(span):
        near = np.flatnonzero(dist[:, j] < hi)
        i, k = (near[t] for t in np.triu_indices(near.size, 1))
        ui, uk = u[i, j], u[k, j]
        need = np.maximum(dist[i, j], dist[k, j])
        if np.isnan(s).any():
            # one coordinate c moves (a staircase segment): only c = c' counts
            c = int(np.isnan(s[0]))
            val = (ui[:, c] - uk[:, c]) / 2.0
        else:
            val = (ui[:, :, None] * s[None, :] - uk[:, None, :] * s[:, None]) / (s[:, None] + s[None, :])
            val[:, [0, 1], [0, 1]] = (ui - uk) / 2.0
            need = need[:, None, None]
        vals.append(val[(val >= need) & (val > lo) & (val < hi)])
    return np.concatenate(vals)


def _edges(params):
    """_free_space's params for the decision, as flat memoryviews of its
    arrays (no per-float objects): u_c and flat of vertex i against segment
    j at 2 (i m + j) + c and i m + j, (span_0, span_1) per segment, and the
    segment count m."""
    u, span, flat, _ = params
    return memoryview(u.reshape(-1)), memoryview(flat.reshape(-1)), span.tolist(), span.shape[0]


def _free_interval(edges, i, j, eps):
    """The free interval (lo, hi) of vertex i against segment j at eps, or
    None where it is empty: [max(0, max_c (u_c - eps) / span_c),
    min(1, min_c (u_c + eps) / span_c)] over the coordinates with d_c != 0,
    empty where flat > eps (_free_space). A segment too short for the
    division gives +-inf ends, which clamp."""
    u, flat, span, m = edges
    k = i * m + j
    if flat[k] > eps:
        return None
    s0, s1 = span[j]
    if s0 != s0:
        x = u[2 * k + 1]
        lo, hi = (x - eps) / s1, (x + eps) / s1
    elif s1 != s1:
        x = u[2 * k]
        lo, hi = (x - eps) / s0, (x + eps) / s0
    else:
        x, y = u[2 * k], u[2 * k + 1]
        lo, hi = (x - eps) / s0, (x + eps) / s0
        lo_y, hi_y = (y - eps) / s1, (y + eps) / s1
        if lo_y > lo:
            lo = lo_y
        if hi_y < hi:
            hi = hi_y
    # clamped by comparisons rather than max/min calls, which cost as much
    # as the rest of the interval
    if lo < 0.0:
        lo = 0.0
    if hi > 1.0:
        hi = 1.0
    return (lo, hi) if lo <= hi else None


def _frechet_at_most(eps, ea, eb):
    """Alt-Godau decision: is the Frechet distance <= eps?

    ea holds the edges (_edges) of the vertices of a against the segments
    of b (the vertical cell edges), eb those of b against a (the horizontal
    ones). Cells are convex under L-inf, so the reachable part of each cell
    edge is the free interval cut below at one entry point, which is all
    that is propagated. A row of cells is swept only where something enters
    it, from the left or from below, so only reachable cells are visited.
    """
    n, m = eb[-1], ea[-1]
    # an edge on s = 0 or t = 0 is reachable from (0, 0) while it is free at
    # its start and every edge before it is free end to end
    left = []
    for j in range(m):
        iv = _free_interval(ea, 0, j, eps)
        if iv is None or iv[0] != 0.0:
            break
        left.append((j, 0.0))
        if iv[1] < 1.0:
            break
    ok = True
    for i in range(n):
        iv = _free_interval(eb, 0, i, eps) if ok else None
        ok = iv is not None and iv[0] == 0.0
        below = 0.0 if ok else None
        ok = ok and iv[1] >= 1.0
        # (j, entry) of the reachable right edges, in column order
        right, k, j = [], 0, 0
        while True:
            if below is None:
                if k == len(left):
                    break
                j, into = left[k]
                k += 1
            elif j == m:
                break
            elif k < len(left) and left[k][0] == j:
                into = left[k][1]
                k += 1
            else:
                into = None
            iv = _free_interval(ea, i + 1, j, eps)
            if iv is not None:
                if below is not None:
                    right.append((j, iv[0]))
                else:
                    entry = iv[0] if iv[0] > into else into
                    if entry <= iv[1]:
                        right.append((j, entry))
            iv = _free_interval(eb, j + 1, i, eps)
            if iv is None:
                below = None
            elif into is not None:
                below = iv[0]
            else:
                below = iv[0] if iv[0] > below else below
                if below > iv[1]:
                    below = None
            j += 1
        left = right
        if not left and not ok:
            return False
    return bool(left) and left[-1][0] == m - 1 and _free_interval(ea, n, m - 1, eps)[1] >= 1.0


def _first_feasible(vals, feasible, hi):
    """The first index of the sorted vals at which `feasible`, monotone in
    its argument, holds, given that it holds at vals[hi] (or hi = vals.size):
    a gallop from the front, then a binary search."""
    lo, step = -1, 1
    while lo + step < hi:
        if feasible(vals[lo + step]):
            hi = lo + step
            break
        lo += step
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(vals[mid]):
            hi = mid
        else:
            lo = mid
    return hi


def d_m1(x, y):
    """Exact M1 distance: the continuous Frechet distance under L-inf between
    the completed graphs of x and y.

    M1 is the infimum over parametric representations of the completed
    graphs of the sup-norm distance in time and space (Whitt,
    Stochastic-Process Limits, 2002, ch. 12), i.e. the Frechet distance
    between the graph polylines under the max norm. It is computed as in
    Alt & Godau, "Computing the Frechet distance between two polygonal
    curves", IJCGA 5 (1995): the distance is the smallest feasible one of
    the critical values
      (a) the distances between the two start and the two end vertices,
      (b) the L-inf distance from a vertex to a segment of the other curve,
      (c) (x_i,c - x_k,c') / (w_c + w_c') for vertices i < k against one
          segment, with x = r/d and w = 1/|d| per coordinate (_free_space,
          _segment_values),
    all in closed form. A gallop from the lower bound `floor` over the sorted
    (a) and (b) values, with the reachability decision, brackets the answer
    in (lo, hi] between two of them; `floor` itself, the usual answer, takes
    one decision. Only the (c) values in (lo, hi) are then built, and a
    binary search over them picks the smallest feasible one. The decision
    runs at eps padded by a relative 1e-12 so an exactly critical eps lands
    on the feasible side of rounding.
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
    # most distances repeat (a staircase's segments share their levels), so
    # the union is much smaller than its input and is taken before the floor
    crit = sorted_union(ends, pa[3], pb[3])
    crit = crit[crit >= floor]
    ea, eb = _edges(pa), _edges(pb)

    def feasible(eps):
        return _frechet_at_most(float(eps) * (1.0 + 1e-12), ea, eb)

    k = _first_feasible(crit, feasible, crit.size)
    if k > 0:
        lo, hi = crit[k - 1], (crit[k] if k < crit.size else np.inf)
        # hi is feasible and the largest candidate. Past the largest (a)/(b)
        # value the largest (c) value is taken as feasible, as a search over
        # every candidate takes its largest one; crit[-1] then stays in
        # front so that the list is never empty
        top = crit[k : k + 1] if k < crit.size else crit[-1:]
        crit = sorted_union(_segment_values(pa, lo, hi), _segment_values(pb, lo, hi), top)
        k = _first_feasible(crit, feasible, crit.size - 1)
    return MetricResult(float(crit[k]), witness=f"{witness}, {crit.size} critical values in the last search")
