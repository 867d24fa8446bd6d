"""Left-point integrals against the walk blocks, the capped sup-difference
control quantity Upsilon, the look-ahead counterexample, and the limit
integrals summed in operational time.

Integrands come in three kinds, each read strictly before the jump it
weights:
  * deterministic - a continuous function f(t) of time,
  * follower      - a slope-capped tracker of g(X_{t-}),
  * adversarial   - the sign of the innovation behind the last jump.
"""

import dataclasses
import math

import numpy as np

from .errors import DataError, ParameterError
from .paths import sorted_union
from .processes import (
    INNOVATION_LANE,
    LIMIT_BLOCK,
    WAIT_LANE,
    _block_zeta,
    _first_passage,
    _inverse_at,
    _live_slots,
    _row_cumsum,
    _step_law,
    _subordinator,
    iter_ctrw_chunks,
)
from .rng import draw_stable
from .stats import DiagnosticReport, Estimate


def _follower_slope(C, gamma, n):
    """The tracker's slope cap C n^gamma, for C > 0 and a finite gamma."""
    C, gamma = float(C), float(gamma)
    if not (C > 0 and math.isfinite(gamma)):
        raise ParameterError(f"follower needs slope > 0 and a finite gamma, got {C!r} and {gamma!r}")
    try:
        return C * float(n) ** gamma
    except OverflowError:
        raise ParameterError(f"follower slope {C!r} n^{gamma!r} overflows at n = {n}") from None


def _follow(v, target, reach):
    """One step of the slope-capped tracker: v moves toward target by at most
    reach, the slope cap times the elapsed time."""
    gap = v - target
    return target + np.sign(gap) * np.maximum(0.0, np.abs(gap) - reach)


# ---------------------------------------------------------------------------
# the eps-departure partitions behind H^{|m,eps}


def _crossing_times_linear(t0, v0, t1, v1, ref, eps):
    """Exact eps-departure times of a linear segment from the value ref."""
    out = []
    slope = (v1 - v0) / (t1 - t0)
    t, v = t0, v0
    while True:
        if abs(slope) < 1e-300:
            break
        target = ref + math.copysign(eps, slope)
        if (slope > 0 and v1 < target - 1e-300) or (slope < 0 and v1 > target + 1e-300):
            break
        tc = t + (target - v) / slope
        if tc > t1:
            break
        out.append(tc)
        ref = target
        t, v = tc, target
        if len(out) > 10_000_000:
            raise DataError("segment produced an implausible number of crossings")
    return out, ref


def _partition_linear(times, values, eps, grid, T):
    """Sequential partition for a continuous piecewise-linear path."""
    kinks = sorted_union(times, grid)
    kinks = kinks[(kinks >= 0.0) & (kinks <= T)]
    at = np.interp(kinks, times, values).tolist()
    taus = [0.0]
    ref = float(np.interp(0.0, times, values))
    gset = set(grid.tolist())
    for a, b, va, vb in zip(kinks.tolist(), kinks[1:].tolist(), at, at[1:]):
        if b > a:
            seg, ref = _crossing_times_linear(a, va, b, vb, ref, eps)
            taus.extend(seg)
        if b in gset:
            taus.append(b)
            ref = vb
    return taus


def _partition_continuous(fn, eps, grid, T, scan=1 << 16):
    """Sequential partition for a generic continuous function: departures are
    located by scanning ~2^16 points per run and bisecting each bracket."""
    taus = [0.0]
    ref = float(fn(0.0))
    for a, b in zip(grid, grid[1:]):
        cells = max(16, int(scan * (b - a) / T))
        ts = np.linspace(a, b, cells + 1)
        fv = np.asarray(fn(ts), dtype=float)
        i = 0
        while i < cells:
            hit = np.flatnonzero(np.abs(fv[i + 1 :] - ref) >= eps)
            if hit.size == 0:
                break
            j = i + 1 + int(hit[0])
            lo, hi = ts[j - 1], ts[j]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if abs(float(fn(mid)) - ref) >= eps:
                    hi = mid
                else:
                    lo = mid
            taus.append(hi)
            ref = float(fn(hi))
            i = j - 1
        taus.append(float(b))
        ref = float(fn(b))
    return taus


def _cells(taus, grid, T):
    """The left ends of H^{|m,eps}'s cells: the partition joined with the
    grid, up to T."""
    pts = sorted_union(taus, grid)
    return pts[pts <= T]


def _upsilon_params(eps_list, m):
    """(eps values, pieces m) of an Upsilon table: every eps > 0, NaN
    excluded, and m >= 1."""
    eps = [float(e) for e in eps_list]
    if not all(e > 0 for e in eps):
        raise ParameterError(f"upsilon eps_list entries must be > 0, got {eps!r}")
    if not m >= 1:
        raise ParameterError(f"upsilon pieces must be >= 1, got {m!r}")
    return eps, int(m)


def _running_sup(inc, starts):
    """Each row's largest |running sum| of a flat inc whose segments each
    start with a zero slot (_row_cumsum), computed in place."""
    run = np.abs(_row_cumsum(inc, starts), out=inc)
    return np.maximum.reduceat(run, starts[:-1])


# ---------------------------------------------------------------------------
# vectorised terminal/sup samples for the convergence experiments


def deterministic_integral_samples(config, T, reps, seed, fn):
    """Terminal values of the integral of f(t) against X^n, per replication:
    each row's live jumps weighted by f at their times, summed over the
    row's own segment."""
    out = np.empty(reps)
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, True):
        m, inc = rb["counts"].size, _block_zeta(config, rb)
        inc[_live_slots(rb)] *= np.asarray(fn(rb["times"]), dtype=float)
        out[lo : lo + m] = np.add.reduceat(inc, rb["starts"][:-1])
        lo += m
        del rb, inc
    return out


def adversarial_sup_samples(config, T, reps, seed):
    """sup_{t <= T} |integral of the adversarial integrand against X^n|:
    jump k of a row is weighted by sgn(theta_{k-1}), read one slot back in
    its segment, and the running sums are scanned row by row."""
    out = np.empty(reps)
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, False):
        m, starts, inc = rb["counts"].size, rb["starts"], _block_zeta(config, rb)
        # zeta is zero at the past slots, each segment's first one included
        inc[1:] *= np.sign(rb["theta"][:-1])
        del rb
        out[lo : lo + m] = _running_sup(inc, starts)
        lo += m
        del inc
    return out


def _follower_columns(config, rb, base, slope):
    """Set up the slope-capped tracker's steps over each row's own renewals
    in a block rb (iter_ctrw_chunks with keep); rb's theta, waits and times
    are dropped from it.

    The rows are sorted by count, descending and stable, so the rows still
    live at column k are a prefix of ncol[k] rows; their jumps and reaches
    lie column after column in one flat array. Returns (order, columns):
    columns steps column k's prefix of p rows, in `order`, and yields (p,
    v_k, zeta_k), their tracker values at their jump k and the jumps.
    """
    # the live jumps, row after row as the times, gathered once the
    # innovations and waits are dropped
    zeta = _block_zeta(config, rb)
    del rb["theta"], rb["waits"]
    counts, times, zeta = rb["counts"], rb.pop("times"), zeta[_live_slots(rb)]
    m, N = counts.size, int(counts.sum())
    # slope (t_j - t_{j-1}), with t_{-1} = 0 at each row's first event
    firsts = np.cumsum(counts) - counts
    step = np.empty(N)
    np.subtract(times[1:], times[:-1], out=step[1:])
    heads = firsts[counts > 0]
    step[heads] = times[heads]
    step *= slope
    del times, heads
    order = np.argsort(-counts, kind="stable")
    ncol = np.searchsorted(-counts[order], -np.arange(int(counts.max(initial=0))), side="left")
    cols = np.concatenate([[0], np.cumsum(ncol)])
    # event j of row r goes to column j's slot of r's rank in the order
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    at = np.arange(N)
    at -= np.repeat(firsts, counts)
    at = cols[at]
    at += np.repeat(rank, counts)
    z = np.empty(N)
    z[at] = zeta
    del zeta
    reach = np.empty(N)
    reach[at] = step
    del step, at
    v = np.full(m, float(base(0.0)))
    x = np.zeros(m)

    def columns():
        for p, a, b in zip(ncol.tolist(), cols[:-1].tolist(), cols[1:].tolist()):
            vk, zk = _follow(v[:p], base(x[:p]), reach[a:b]), z[a:b]
            v[:p] = vk
            x[:p] += zk
            yield p, vk, zk

    return order, columns()


def follower_integral_samples(config, T, reps, seed, base=np.tanh, C=1.0, gamma=0.5):
    """Terminal integral of the slope-capped tracker against X^n, vectorised:
    each row's tracker value at its jump k times that jump, summed column by
    column over each row's own renewals (_follower_columns). The integrals
    go back in row order."""
    slope = _follower_slope(C, gamma, config.n)
    out = np.empty(reps)
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, True):
        order, columns = _follower_columns(config, rb, base, slope)
        del rb
        acc = np.zeros(order.size)
        for p, vk, zk in columns:
            acc[:p] += vk * zk
        out[lo + order] = acc
        lo += order.size
    return out


def _follower_jumps(config, rb, base, slope):
    """(h, zeta) of a block rb: the tracker's value at each live jump and the
    jump, row after row as rb's times."""
    counts, times = rb["counts"], rb["times"]
    order, columns = _follower_columns(config, rb, base, slope)
    first = (np.cumsum(counts) - counts)[order]
    h, zeta = np.empty(times.size), np.empty(times.size)
    for k, (p, vk, zk) in enumerate(columns):
        h[first[:p] + k], zeta[first[:p] + k] = vk, zk
    return h, zeta


def _held_before(pts, vals, t):
    """H^{|m,eps}(t-) at times t > 0: vals[i] is held on [pts[i], pts[i+1])."""
    return vals[np.searchsorted(pts, t, side="left") - 1]


def _tracker_held(ts, hs, eps, grid, T):
    """H^{|m,eps}(t-) at the jumps ts[1:] of one row's tracker, the
    piecewise-linear path through (ts, hs) from (0, g(0)). The path after
    the last jump moves no cell before it, so it is left flat."""
    pts = _cells(_partition_linear(ts, hs, eps, grid, T), grid, T)
    return _held_before(pts, np.interp(pts, ts, hs), ts[1:])


def upsilon_samples(config, T, reps, seed, eps_list, m, fn=None, base=None, C=1.0, gamma=0.5):
    """min(1, sup_{t <= T} |integral of (H - H^{|m,eps}) against X^n|), one
    row per eps and one column per replication of the walk blocks.

    H is f(t) (fn) or the slope-capped tracker of g(X_{t-}) (base, with
    slope cap C n^gamma); exactly one of fn and base is given. H^{|m,eps}
    holds H's value at the left end of each cell of the sequential
    eps-departure partition joined with the grid {j T / m}: a point is
    placed whenever H has moved eps away from its value at the previous
    point, and every grid point is a forced point, so |H - H^{|m,eps}| <= eps
    on every cell. f's partition does not depend on the walk and is built
    once per eps (~2^16 scan points per grid run, bisected); the tracker's
    is exact, one per row and eps over the row's own piecewise-linear path.
    Each live jump is weighted by H - H^{|m,eps} at its left limit, and
    each row's running sum is scanned.
    """
    if (fn is None) == (base is None):
        raise ParameterError("pass exactly one of fn (time) or base (state)")
    eps_list, m = _upsilon_params(eps_list, m)
    grid = np.arange(m + 1) * (T / m)
    if fn is None:
        slope = _follower_slope(C, gamma, config.n)
        g0 = float(base(0.0))
    else:
        cells = [_cells(_partition_continuous(fn, eps, grid, T), grid, T) for eps in eps_list]
        cells = [(pts, np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape)) for pts in cells]
    out = np.empty((len(eps_list), reps))
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, True):
        counts, starts, times, live = rb["counts"], rb["starts"], rb["times"], _live_slots(rb)
        if fn is None:
            h, zeta = _follower_jumps(config, rb, base, slope)
            ends = np.cumsum(counts)
            paths = [(np.r_[0.0, times[a:b]], np.r_[g0, h[a:b]]) for a, b in zip(ends - counts, ends)]
        else:
            h, zeta = np.asarray(fn(times), dtype=float), _block_zeta(config, rb)[live]
        for i, eps in enumerate(eps_list):
            if fn is None:
                hd = np.concatenate([_tracker_held(ts, hs, eps, grid, T) for ts, hs in paths])
            else:
                hd = _held_before(*cells[i], times)
            inc = np.zeros(int(starts[-1]))
            inc[live] = (h - hd) * zeta
            out[i, lo : lo + counts.size] = np.minimum(1.0, _running_sup(inc, starts))
        lo += counts.size
    return out


def adversarial_experiment(config, n_list, replications, seed, T=1.0):
    """Growth of the adversarial integral across n, with an uncorrelated
    companion run demonstrating boundedness.

    Reports per-n medians and 90th percentiles of the running sup, the
    fitted log-log growth exponent, the large-over-small median ratio, and
    the companion's max/min median spread.
    """
    if not config.correlated:
        raise ParameterError(
            "the look-ahead edge needs a lagged coefficient: pass c with some c_j > 0, j >= 1",
            tag="PARAM_COEFFS",
        )
    if config.innovation.mode not in ("symmetric", "centered"):
        raise ParameterError(
            "adversarial experiment needs symmetric or centered innovations",
            tag="PARAM_MODE",
        )
    report = DiagnosticReport(
        scenario="adversarial",
        params={"n_list": [int(v) for v in n_list], "T": T, **config.to_dict()},
        seed=seed.seed,
    )
    meds = {}
    comp_meds = {}
    for n in n_list:
        cfg_n = dataclasses.replace(config, n=int(n))
        sup = adversarial_sup_samples(cfg_n, T, replications, seed)
        meds[n] = float(np.median(sup))
        report.add(Estimate(f"median_n{n}", meds[n], meds[n], meds[n], replications))
        q90 = float(np.quantile(sup, 0.9))
        report.add(Estimate(f"p90_n{n}", q90, q90, q90, replications))
        comp_cfg = dataclasses.replace(
            cfg_n, coefficients=(config.coefficients[0],), past_horizon=0
        )
        csup = adversarial_sup_samples(comp_cfg, T, replications, seed.with_stream(seed.stream + 1))
        comp_meds[n] = float(np.median(csup))
        report.add(
            Estimate(f"companion_median_n{n}", comp_meds[n], comp_meds[n], comp_meds[n], replications)
        )
    ns = sorted(meds)
    if len(ns) >= 2:
        logs_n = np.log([float(v) for v in ns])
        logs_m = np.log([max(meds[v], 1e-300) for v in ns])
        slope = float(np.polyfit(logs_n, logs_m, 1)[0])
        report.add(Estimate("growth_exponent", slope, slope, slope, replications))
        ratio = meds[ns[-1]] / meds[ns[0]] if meds[ns[0]] > 0 else math.inf
        report.add(Estimate("median_ratio", ratio, ratio, ratio, replications))
        cvals = [comp_meds[v] for v in ns]
        spread = max(cvals) / min(cvals) if min(cvals) > 0 else math.inf
        report.add(Estimate("companion_spread", spread, spread, spread, replications))
    return report


def tc_grid_integral_samples(z_law, d_law, T, reps, seed, grid_step=2.0**-12, fn=None, base=None):
    """Terminal left-point integrals against the time-changed stable path
    W = Z(E), E the inverse of D, summed in operational time.

    fn: integrand f(t) of time; base: integrand g(W_{t-}) of the path itself.
    Exactly one must be given. z_law and d_law are the unit-time laws of Z
    and D, as limit_laws gives them for a walk.

    By Kobayashi's duality (J. Theoret. Probab. 24, 2011) the integral of
    H_{t-} against W = Z(E) up to T equals the integral of H_{D_{s-}} against
    Z up to E_T, summed here as sum_j H_j dZ_j over s-steps of width
    grid_step. For base, H_j = g(Z_{jh}) needs D only through E_T, drawn
    exactly as (T / D_1)^beta; the last step is cut to width E_T - J h, with
    J = floor(E_T / h). For fn, H_j = f(D_{jh}) on the subordinator's grid
    path, over the J + 1 full steps up to its first passage over T.
    """
    if (fn is None) == (base is None):
        raise ParameterError("pass exactly one of fn (time) or base (state)")
    h = float(grid_step)
    if not h > 0:
        raise ParameterError("grid step must be > 0", tag="PARAM_MESH")
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    d_law = _subordinator(d_law)
    z_step = _step_law(z_law, h)
    out = np.empty(reps)
    for start in range(0, reps, LIMIT_BLOCK):
        m = min(LIMIT_BLOCK, reps - start)
        dgen = seed.generator((WAIT_LANE, start))
        if fn is None:
            e = _inverse_at(d_law, T, dgen, m)
            steps = np.floor(e / h).astype(np.intp)
        else:
            D = _first_passage(_step_law(d_law, h), T, m, dgen)
            steps = (D <= T).sum(axis=1)
        counts = steps + 1
        starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        rows = starts[:-1]
        dz = draw_stable(z_step, seed.generator((INNOVATION_LANE, start)), int(starts[-1]))
        if fn is None:
            dz[rows + steps] *= ((e - steps * h) / h) ** (1.0 / z_law.alpha)
            # Z before each step: each row's steps shifted one slot right
            # behind a zero, summed per row
            prev = np.empty_like(dz)
            prev[1:] = dz[:-1]
            prev[rows] = 0.0
            hv = base(_row_cumsum(prev, starts))
        else:
            levels = np.concatenate([np.zeros((m, 1)), D], axis=1)
            hv = fn(levels[np.arange(levels.shape[1]) < counts[:, None]])
        out[start : start + m] = np.add.reduceat(np.asarray(hv, dtype=float) * dz, rows)
    return out
