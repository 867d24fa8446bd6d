"""Ito-sum integration against step paths, integrand discretisation,
the sup-difference control quantity, and the look-ahead counterexample.

Integrands come in five kinds:
  * deterministic  - a continuous function of time,
  * pathwise / pure-jump - a step path given outright,
  * adapted-lipschitz    - a slope-capped tracker of g(X_{t-}),
  * adversarial          - the sign of the innovation behind the last jump.
The adapted kinds read only information available strictly before each jump;
the adversarial constructor accepts a look_ahead offset whose evaluation
(not construction) trips AdaptednessViolation, which is how the tests pin the
filtration discipline.
"""

import dataclasses
import math

import numpy as np

from .errors import AdaptednessViolation, DataError, ParameterError
from .paths import StepPath, sorted_union
from .processes import (
    INNOVATION_LANE,
    LIMIT_BLOCK,
    WAIT_LANE,
    _block_zeta,
    _d_law,
    _first_passage,
    _inverse_at,
    _live_slots,
    _row_cumsum,
    _step_law,
    _z_law,
    iter_ctrw_chunks,
)
from .rng import draw_stable
from .stats import DiagnosticReport, Estimate, mean_estimate


class DeterministicIntegrand:
    """H_t = f(t) with f continuous; left limits equal values."""

    kind = "deterministic"

    def __init__(self, fn):
        self.fn = fn

    def left_values(self, times):
        t = np.asarray(times, dtype=float)
        return np.broadcast_to(np.asarray(self.fn(t), dtype=float), t.shape).copy()


class PathIntegrand:
    """H given outright as a step path (pure-jump or pathwise kind)."""

    kind = "pathwise"

    def __init__(self, path, kind="pathwise"):
        self.path = path
        self.kind = kind

    def left_values(self, times):
        return self.path.value_before(times)


class AdversarialIntegrand:
    """H_t = sgn(theta_k) on [L_k/n, L_{k+1}/n): the direction of the
    innovation behind the most recent jump.

    look_ahead shifts the innovation index; any positive shift peeks at
    innovations the filtration has not delivered yet, so evaluation raises.
    """

    kind = "adversarial"

    def __init__(self, bundle, look_ahead=0):
        self.bundle = bundle
        self.look_ahead = int(look_ahead)
        self._path = None

    def _build(self):
        b = self.bundle
        K = b.jump_count
        first = b.past + self.look_ahead
        signs = np.sign(b.innovations[first : first + K + 1])
        if signs.size != K + 1:
            raise DataError("innovation record does not cover the requested shift")
        jt = b.x.times[1:]
        self._path = StepPath(np.concatenate([[0.0], jt]), signs, b.horizon)

    def left_values(self, times):
        if self.look_ahead > 0:
            raise AdaptednessViolation(
                f"integrand reads theta_{{k+{self.look_ahead}}} before jump k+1"
            )
        if self._path is None:
            self._build()
        return self._path.value_before(times)


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


def _left_eval(H, times):
    if hasattr(H, "left_values"):
        return H.left_values(times)
    if isinstance(H, StepPath):
        return H.value_before(times)
    if callable(H):
        t = np.asarray(times, dtype=float)
        return np.broadcast_to(np.asarray(H(t), dtype=float), t.shape).copy()
    raise ParameterError(f"cannot evaluate integrand of type {type(H).__name__}")


def ito_integral(H, x, T=None):
    """t -> sum over jump times s <= t of H_{s-} * (jump of x at s).

    Exact for step integrators: no quadrature error enters anywhere.
    """
    T = x.horizon if T is None else float(T)
    jt = x.jump_times()
    js = x.jump_sizes()
    keep = jt <= T
    jt, js = jt[keep], js[keep]
    hv = _left_eval(H, jt) if jt.size else np.empty(0)
    return StepPath.from_jumps(jt, hv * js, T)


# ---------------------------------------------------------------------------
# discretisation and the sup-difference control quantity


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


def _partition_step(path, eps, grid, T):
    """Sequential partition for a step path: the reference value resets at
    every emitted point, grid points included, so each cell's deviation from
    its left endpoint stays below eps."""
    events = sorted_union(path.times, grid)
    events = events[(events > 0.0) & (events <= T)]
    taus = [0.0]
    ref = path.values[0]
    gset = set(grid.tolist())
    for e in events:
        v = float(path.value(e))
        if e in gset or abs(v - ref) >= eps:
            taus.append(float(e))
            ref = v
    return taus


def _partition_linear(times, values, eps, grid, T):
    """Sequential partition for a continuous piecewise-linear path."""
    kinks = sorted_union(times, grid)
    kinks = kinks[(kinks >= 0.0) & (kinks <= T)]
    taus = [0.0]
    ref = float(np.interp(0.0, times, values))
    gset = set(grid.tolist())
    for a, b in zip(kinks, kinks[1:]):
        va = float(np.interp(a, times, values))
        vb = float(np.interp(b, times, values))
        if b > a:
            seg, ref = _crossing_times_linear(a, va, b, vb, ref, eps)
            taus.extend(seg)
        if b in gset:
            taus.append(float(b))
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


def discretize_integrand(H, eps, m, T):
    """Piecewise-constant approximation H^{|m,eps} of H on the union of the
    eps-departure stopping partition and the uniform grid {j T / m}.

    The partition is generated sequentially: a new point is placed whenever H
    has moved eps away from its value at the previous point, and every grid
    point is a forced point. The departure reference therefore resets at each
    partition point, which is what makes sup |H - H^{|m,eps}| <= eps hold on
    every cell. Exact for step and piecewise-linear integrands; generic
    continuous integrands are scanned on ~2^16 points and bisected.
    """
    if eps <= 0:
        raise ParameterError("eps must be > 0")
    if int(m) < 1:
        raise ParameterError("m must be >= 1")
    grid = np.arange(int(m) + 1) * (T / int(m))
    if isinstance(H, StepPath):
        H = PathIntegrand(H, kind="pure-jump")
    if isinstance(H, AdversarialIntegrand):
        if H.look_ahead > 0:
            raise AdaptednessViolation(
                f"integrand reads theta_{{k+{H.look_ahead}}} before jump k+1"
            )
        if H._path is None:
            H._build()
        H = PathIntegrand(H._path, kind="pure-jump")
    if isinstance(H, LipschitzFollower):
        taus = _partition_linear(H.times, H.values, eps, grid, T)
    elif isinstance(H, PathIntegrand):
        taus = _partition_step(H.path, eps, grid, T)
    elif isinstance(H, DeterministicIntegrand) or callable(H):
        fn = H.fn if isinstance(H, DeterministicIntegrand) else H
        taus = _partition_continuous(fn, eps, grid, T)
        H = DeterministicIntegrand(fn)
    else:
        raise ParameterError(f"cannot discretise integrand of kind {type(H).__name__}")
    pts = sorted_union(taus, grid)
    pts = pts[pts <= T]
    if isinstance(H, DeterministicIntegrand):
        vals = np.asarray(H.fn(pts), dtype=float)
        vals = np.broadcast_to(vals, pts.shape).copy()
    elif isinstance(H, LipschitzFollower):
        vals = np.interp(pts, H.times, H.values)
    else:
        vals = H.path.value(pts)
    return PathIntegrand(StepPath(pts, vals, T), kind="pure-jump")


def sup_difference_integral(H, Hd, x, T=None):
    """sup_{t <= T} |integral of (H - Hd) against x|, capped at 1."""
    T = x.horizon if T is None else float(T)
    jt = x.jump_times()
    js = x.jump_sizes()
    keep = jt <= T
    jt, js = jt[keep], js[keep]
    if jt.size == 0:
        return 0.0
    diff = (_left_eval(H, jt) - _left_eval(Hd, jt)) * js
    return min(1.0, float(np.max(np.abs(np.cumsum(diff)), initial=0.0)))


def upsilon_estimate(bundles_by_n, integrand_factory, eps_list, m):
    """Monte Carlo estimates of the capped sup-difference quantity per
    (n, eps), with ratio rows tracking the trend in eps at the largest n."""
    if isinstance(bundles_by_n, (list, tuple)):
        bundles_by_n = {0: list(bundles_by_n)}
    if not bundles_by_n or any(len(v) == 0 for v in bundles_by_n.values()):
        raise DataError("need a non-empty ensemble of bundles")
    report = DiagnosticReport(
        scenario="upsilon", params={"m": int(m), "eps": list(map(float, eps_list))}, seed=None
    )
    table = {}
    for n, bundles in sorted(bundles_by_n.items()):
        sups = {e: [] for e in eps_list}
        for b in bundles:
            H = integrand_factory(b)
            for e in eps_list:
                Hd = discretize_integrand(H, e, m, b.horizon)
                sups[e].append(sup_difference_integral(H, Hd, b.x))
        for e in eps_list:
            est = mean_estimate(np.array(sups[e]), name=f"ups_n{n}_eps{e:g}")
            table[(n, e)] = est
            report.add(est)
    ns = sorted(bundles_by_n)
    big = ns[-1]
    for a, b in zip(eps_list, eps_list[1:]):
        va, vb = table[(big, a)].value, table[(big, b)].value
        ratio = vb / va if va > 0 else (0.0 if vb == 0 else math.inf)
        report.add(Estimate(f"eps_ratio_{a:g}_to_{b:g}", ratio, ratio, ratio, len(bundles_by_n[big])))
    return report


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
        run = np.abs(_row_cumsum(inc, starts), out=inc)
        out[lo : lo + m] = np.maximum.reduceat(run, starts[:-1])
        lo += m
        del inc, run
    return out


def follower_integral_samples(config, T, reps, seed, base=np.tanh, C=1.0, gamma=0.5):
    """Terminal integral of the slope-capped tracker against X^n, vectorised.

    Replays the step of LipschitzFollower column by column across each
    ragged replication block, over each row's own renewals only. The rows
    are sorted by count, descending and stable, so the rows still live at
    column k are a prefix of ncol[k] rows; their jumps and reaches lie column
    after column in one flat array, and each column steps that prefix. The
    integrals go back in row order.
    """
    slope = _follower_slope(C, gamma, config.n)
    out = np.empty(reps)
    lo = 0
    g0 = float(base(0.0))
    for rb in iter_ctrw_chunks(config, T, reps, seed, True):
        # the live jumps, row after row as the times, gathered once the
        # innovations and waits are dropped
        zeta = _block_zeta(config, rb)
        del rb["theta"], rb["waits"]
        counts, times, zeta = rb["counts"], rb["times"], zeta[_live_slots(rb)]
        del rb
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
        v = np.full(m, g0)
        xprev = np.zeros(m)
        acc = np.zeros(m)
        for p, a, b in zip(ncol.tolist(), cols[:-1].tolist(), cols[1:].tolist()):
            vk = _follow(v[:p], base(xprev[:p]), reach[a:b])
            v[:p] = vk
            acc[:p] += vk * z[a:b]
            xprev[:p] += z[a:b]
        out[lo + order] = acc
        lo += m
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


def tc_grid_integral_samples(
    alpha,
    beta,
    T,
    reps,
    seed,
    grid_step=2.0**-12,
    fn=None,
    base=None,
    z_params=None,
    increment_scale=None,
    mode="symmetric",
):
    """Terminal left-point integrals against the time-changed stable path,
    summed in operational time.

    fn: integrand f(t) of time; base: integrand g(W_{t-}) of the path itself.
    Exactly one must be given. Defaults for the driving laws match
    gen_time_changed_levy.

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
    z_law = _z_law(alpha, z_params, mode)
    d_law = _d_law(beta, increment_scale)
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
