"""Decompositions of heavy-tailed walks and their convergence diagnostics.

Two exact pathwise splits:
  * truncated martingale split  X = M + A   (zero-order configs only),
  * tail-filter split           psi^{-1} X = U + V  (any finite order),
plus the exact per-lag moment sums of V^{n,i} behind the small-jump/large-jump
diagnostics, and the scalar statistics used to probe whether a given scaling
regime admits a well-behaved decomposition.

All splits are replayed from the innovation record of a SimulationBundle, so
the defining identities hold to machine precision at every breakpoint.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, UnsupportedDecomposition
from .paths import StepPath, sorted_union, total_variation
from .processes import (
    INNOVATION_LANE,
    _block_zeta,
    _counts_at,
    _draw_innovations,
    _live_slots,
    _row_cumsum,
    _zeta,
    iter_ctrw_chunks,
)
from .stats import DiagnosticReport, Estimate, mean_estimate, tail_estimate


def truncate_h(x, a=1.0):
    """Clip x to [-a, a]."""
    if a < 1.0:
        raise ParameterError("truncation level must be >= 1", tag="PARAM_TRUNC")
    return float(np.clip(x, -a, a)) if np.isscalar(x) else np.clip(x, -a, a)


# ---------------------------------------------------------------------------
# truncated martingale split


def truncated_mean(law_mode, alpha, scale, a):
    """E[zeta 1_{|zeta| <= a}] for zeta with the given mode/index/scale."""
    if law_mode in ("symmetric", "gaussian"):
        return 0.0
    m = a / scale
    if law_mode == "raw":
        if m < 1.0:
            return 0.0
        return scale * alpha / (1.0 - alpha) * (m ** (1.0 - alpha) - 1.0)
    if law_mode == "centered":
        mu = alpha / (alpha - 1.0)
        lo = max(1.0, mu - m)
        hi = mu + m
        if hi <= lo:
            return 0.0
        part = alpha / (alpha - 1.0) * (lo ** (1.0 - alpha) - hi ** (1.0 - alpha))
        return scale * (part - mu * (lo**-alpha - hi**-alpha))
    raise ParameterError(f"no closed form for mode {law_mode!r}")


def truncated_clip_mean(law_mode, alpha, scale, a):
    """E[h(zeta)] with h the clip to [-a, a]: adds the +-a mass to the
    truncated mean."""
    core = truncated_mean(law_mode, alpha, scale, a)
    if law_mode in ("symmetric", "gaussian"):
        return 0.0
    m = a / scale
    if law_mode == "raw":
        p_hi = min(1.0, m**-alpha) if m > 0 else 1.0
        return core + a * p_hi
    mu = alpha / (alpha - 1.0)
    p_hi = (mu + m) ** -alpha
    p_lo = 1.0 - (mu - m) ** -alpha if mu - m > 1.0 else 0.0
    return core + a * (p_hi - p_lo)


def clip_mean_limit(law, a, c0=1.0):
    """lim_n n^beta E[h(zeta^n_1)] in closed form for the built-in laws."""
    alpha = law.alpha
    s = c0 * law.scale
    if law.mode in ("symmetric", "gaussian"):
        return 0.0
    if law.mode == "raw":
        return a ** (1.0 - alpha) * s**alpha / (1.0 - alpha)
    return -(a ** (1.0 - alpha)) * s**alpha / (alpha - 1.0)


def _compensator(config, a):
    """E[zeta^n_1 1_{|zeta^n_1| <= a}], the drift removed from every small
    jump; zeta^n_1 = prefactor * c_0 * theta, so zero-order configs only."""
    if config.correlated:
        raise UnsupportedDecomposition(
            "the small-jump compensator is not i.i.d. across renewals once "
            "coefficients overlap; use split_uv for correlated configs"
        )
    law = config.innovation
    scale = config.prefactor * config.coefficients[0] * law.scale
    return truncated_mean(law.mode, law.alpha, scale, a)


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
    zeta = bundle.scaled_jumps()
    dm = np.where(np.abs(zeta) <= a, zeta, 0.0) - kappa
    times = bundle.x.times
    m_vals = np.concatenate([[0.0], np.cumsum(dm)])
    m = StepPath(times, m_vals, bundle.horizon)
    a_path = StepPath(times, bundle.x.values - m_vals, bundle.horizon)
    return TruncatedSplit(m, a_path, float(a), kappa)


@dataclass(frozen=True)
class BnEstimate:
    """Monte Carlo estimate of n^beta E[h(zeta^n_1)] plus its closed form."""

    estimate: Estimate
    closed_form: float
    n: int
    level: float


def estimate_bn(law, n, beta, a, replications, seed, c0=1.0):
    """n^beta E[h(zeta^n_1)] by Monte Carlo, with the analytic value alongside."""
    if replications < 2:
        raise ParameterError("need at least 2 replications")
    n = int(n)
    pref = float(n) ** (-beta / law.alpha)
    gen = seed.generator(INNOVATION_LANE)
    theta = _draw_innovations(law, gen, int(replications))
    zeta = pref * c0 * theta
    est = mean_estimate(n**beta * np.clip(zeta, -a, a), name=f"b_n@{n}")
    closed = n**beta * truncated_clip_mean(law.mode, law.alpha, pref * c0 * law.scale, a)
    return BnEstimate(est, closed, n, float(a))


# ---------------------------------------------------------------------------
# U/V split


def _tail_sums(coeffs):
    """tail_i = sum_{j >= i} c_j for i = 1..order (empty for zero order)."""
    c = np.asarray(coeffs, dtype=float)
    if c.size <= 1:
        return np.empty(0)
    return np.cumsum(c[::-1])[::-1][1:]


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
        acc = sum(bundle.theta(k) for k in range(lo, 1))
        u2_const += cfg.coefficients[j] * acc
    u2_const *= pref / psi
    u2 = StepPath(np.array([0.0]), np.array([u2_const]), bundle.horizon)
    return UVSplit(u, v, psi, u1, u2)


@dataclass(frozen=True)
class TcReport:
    """Summability report for the coefficient tail sums."""

    holds: bool
    tail_sums: tuple
    double_sum: float
    rho: float
    rho_sum: float


def check_tc(coeffs, alpha):
    """Tail-sum summability of the coefficients (always finite here); for
    alpha = 1 the rho-power sums are reported as well."""
    tails = _tail_sums(coeffs)
    rho = 0.5 if alpha == 1.0 else 1.0
    rho_sum = float(np.sum(tails**rho)) if tails.size else 0.0
    return TcReport(
        holds=True,
        tail_sums=tuple(float(v) for v in tails),
        double_sum=float(tails.sum()) if tails.size else 0.0,
        rho=rho,
        rho_sum=rho_sum,
    )


# ---------------------------------------------------------------------------
# scalar diagnostics


def martingale_stop_jump(split, t, c):
    """|jump of M at t ^ tau_c| where tau_c is the first time |M| >= c."""
    m = split.m
    vals = np.abs(m.values)
    hit = np.flatnonzero((vals >= c) & (m.times <= t))
    if hit.size == 0:
        return 0.0
    k = hit[0]
    return float(abs(m.values[k] - m.values[k - 1])) if k > 0 else float(abs(m.values[0]))


def gd_statistics(ensembles, t, r_grid, c_grid):
    """Tail and stopped-jump statistics of truncated splits across n.

    ensembles: {n: [TruncatedSplit, ...]} (or a plain list for a single,
    unlabelled group). Reports P(TV_{[0,t]}(A) > R) with Wilson intervals,
    E|jump of M at t ^ tau_c|, the max |jump of M| / 2a sanity ratio, and
    tv_flat_R* flags comparing the largest n against the middle one.
    """
    if isinstance(ensembles, (list, tuple)):
        ensembles = {0: list(ensembles)}
    if not ensembles or any(len(v) == 0 for v in ensembles.values()):
        raise DataError("need a non-empty ensemble of splits")
    report = DiagnosticReport(scenario="gd", params={"t": t}, seed=None)
    tails = {}
    for n, splits in sorted(ensembles.items()):
        tv = np.array([total_variation(s.a_part, t) for s in splits])
        level = splits[0].level
        worst = max(s.max_jump() for s in splits)
        report.add(
            Estimate(f"max_jump_over_2a_n{n}", worst / (2.0 * level), 0.0, 1.0, len(splits))
        )
        for r in r_grid:
            est = tail_estimate(int((tv > r).sum()), tv.size, name=f"tv_tail_n{n}_R{r:g}")
            tails[(n, r)] = est
            report.add(est)
        for c in c_grid:
            jumps = np.array([martingale_stop_jump(s, t, c) for s in splits])
            report.add(mean_estimate(jumps, name=f"stop_jump_n{n}_c{c:g}"))
    ns = sorted(ensembles)
    if len(ns) >= 3:
        mid, big = ns[len(ns) // 2], ns[-1]
        for r in r_grid:
            a, b = tails[(mid, r)], tails[(big, r)]
            tol = 2.0 * max(a.width(), b.width())
            flat = 1.0 if b.value <= a.value + tol else 0.0
            report.add(Estimate(f"tv_flat_R{r:g}", flat, flat, flat, len(ensembles[big])))
    return report


def gdca_statistic(split, gamma, bundle):
    """n^{-gamma} * sum of |V| over the scaled grid {k n^{-beta} T} joined
    with V's own breakpoints."""
    if gamma <= 0:
        raise ParameterError("gamma must be > 0", tag="PARAM_GAMMA")
    cfg = bundle.config
    n = cfg.n
    T = bundle.horizon
    step = float(n) ** (-cfg.beta_eff) * T
    grid = np.arange(int(math.floor(T / step + 1e-9)) + 1) * step
    pts = sorted_union(grid, split.v.times)
    pts = pts[pts <= T]
    return float(n) ** (-gamma) * float(np.sum(np.abs(split.v.value(pts))))


def default_gdca_gamma(config):
    """(beta - beta/alpha) + 0.1, just above the boundedness threshold."""
    b = config.beta_eff
    return b - b / config.innovation.alpha + 0.1


def default_gdci_gamma(alpha):
    """Keep both moment exponents alpha -+ gamma in the workable range."""
    return min(0.2, (alpha - 1.0) / 2.0) if alpha > 1.0 else 0.2


@functools.cache
def _piece_rule():
    """Nodes and weights on [0, 1]: 64 Gauss-Legendre nodes pushed through
    v = 1/2 + 15/16 (t - 2t^3/3 + t^5/5), whose derivative vanishes to second
    order at both ends. The kink of |x - s|^p at x = s and the branch of
    x = v^(1/q) at x = infinity sit at (or just past) the ends of a piece,
    and the map clusters nodes there. Built on first use, so runs that take
    no moment sum do not import numpy.polynomial."""
    t, w = np.polynomial.legendre.leggauss(64)
    at = 0.5 + 15.0 / 16.0 * (t - 2.0 * t**3 / 3.0 + t**5 / 5.0)
    return at, 15.0 / 16.0 * (1.0 - t**2) ** 2 * w


def _pareto_moment(alpha, c, p, s, lo, hi):
    """int_lo^hi (c |x - s|)^p alpha x^(-alpha-1) dx for lo >= 1 (0 when
    hi <= lo; hi may be infinite).

    v = x^(p - alpha) makes the Pareto weight flat: the integral is
    alpha c^p / (p - alpha) int |1 - s/x|^p dv over the image of [lo, hi],
    which is finite for p < alpha even when hi is infinite.
    """
    if not hi > lo:
        return 0.0
    at, weights = _piece_rule()
    q = p - alpha
    a, b = lo**q, hi**q
    v = a + (b - a) * at
    f = np.abs(1.0 - s * v ** (-1.0 / q)) ** p
    return alpha * c**p / q * (b - a) * float(f @ weights)


def gdci_sums(config, K=1, gamma=None):
    """(large-jump sum, small-jump sum) of the per-lag moment diagnostics.

    Lag i contributes (count_i E|V^{n,i}|^lambda 1{|V^{n,i}| > 1})^(1/lambda)
    to the first sum and the mu analogue over 1{|V^{n,i}| <= 1} to the
    second, with lambda = alpha - gamma, mu = alpha + gamma and count_i the
    number of the first floor(K n^beta) renewals at which lag i is live.
    |V^{n,i}| = c_i |P - s| with c_i = scale prefactor tail_i / psi, P
    Pareto(alpha) on [1, inf) and s its mean (centered) or 0 (symmetric),
    so each expectation is an exact integral, split at s and s -+ 1/c_i.
    """
    law = config.innovation
    alpha = law.alpha
    if law.mode not in ("symmetric", "centered"):
        raise ParameterError(
            "moment sums need symmetric or centered Pareto innovations", tag="PARAM_MODE"
        )
    if gamma is None:
        gamma = default_gdci_gamma(alpha)
    if not 0.0 < gamma < alpha:
        raise ParameterError(f"gamma must lie in (0, alpha), got {gamma!r}", tag="PARAM_GAMMA")
    if not K > 0:
        raise ParameterError(f"window must be > 0, got {K!r}")
    lam = alpha - gamma
    mu = alpha + gamma
    s = alpha / (alpha - 1.0) if law.mode == "centered" else 0.0
    terms = int(math.floor(K * config.n**config.beta_eff + 1e-9))
    big = 0.0
    small = 0.0
    for i, ti in enumerate(_tail_sums(config.coefficients), start=1):
        c = law.scale * config.prefactor * ti / config.psi
        count = max(terms - i + 1, 0)
        left, right, mid = s - 1.0 / c, max(1.0, s + 1.0 / c), max(1.0, s)
        e_big = _pareto_moment(alpha, c, lam, s, 1.0, left)
        e_big += _pareto_moment(alpha, c, lam, s, right, math.inf)
        e_small = _pareto_moment(alpha, c, mu, s, max(1.0, left), mid)
        e_small += _pareto_moment(alpha, c, mu, s, mid, right)
        big += (count * e_big) ** (1.0 / lam)
        small += (count * e_small) ** (1.0 / mu)
    return big, small


# ---------------------------------------------------------------------------
# vectorised ensemble statistics (used by the diagnostics CLI, where per-path
# objects would dominate the runtime)


def truncated_split_samples(config, T, a, c_grid, reps, seed):
    """Statistics of the truncated split X = M + A over replications, from
    one pass over the replication blocks.

    Returns (M_T, TV_{[0,T]}(A), max |jump of M| / 2a, {c: |jump of M at
    T ^ tau_c|}), each an array with one value per replication; tau_c is the
    first time |M| >= c. Zero-order configs only, as for split_martingale.
    """
    kappa = _compensator(config, a)
    mart = np.empty(reps)
    tv = np.empty(reps)
    jump_ratio = np.empty(reps)
    stop = {c: np.empty(reps) for c in c_grid}
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, False):
        starts, live, zeta = rb["starts"], _live_slots(rb), _block_zeta(config, rb)
        del rb
        m, first = starts.size - 1, starts[:-1]
        # the jumps of M and of A, zero at the past slots
        small = np.abs(zeta) <= a
        dm = np.where(small, zeta, 0.0)
        dm[live] -= kappa
        zeta[small] = 0.0
        zeta[live] += kappa
        del small, live
        mart[lo : lo + m] = np.add.reduceat(dm, first)
        tv[lo : lo + m] = np.add.reduceat(np.abs(zeta, out=zeta), first)
        # |jump of M| at each slot, and 0 at slot size for a row that M
        # never takes to c
        jumps = np.abs(np.append(dm, 0.0))
        jump_ratio[lo : lo + m] = np.maximum.reduceat(jumps[:-1], first) / (2.0 * a)
        mv = np.abs(_row_cumsum(dm, starts), out=dm)
        # the first slot of each row where |M| >= c; |M| and the jump of M
        # are zero at the past slots
        for c in c_grid:
            stop[c][lo : lo + m] = jumps[np.minimum.reduceat(np.where(mv >= c, np.arange(mv.size), mv.size), first)]
        lo += m
        del zeta, jumps, dm, mv
    return mart, tv, jump_ratio, stop


def gdca_samples(config, T, reps, seed, gamma=None):
    """The grid statistic n^{-gamma} sum_{pi} |V|, one value per replication."""
    if not config.correlated:
        return np.zeros(reps)
    if gamma is None:
        gamma = default_gdca_gamma(config)
    n = config.n
    tails = _tail_sums(config.coefficients)
    scale = config.prefactor / config.psi
    step = float(n) ** (-config.beta_eff) * T
    grid = np.arange(1, int(math.floor(T / step + 1e-9)) + 1) * step
    out = np.empty(reps)
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, True):
        counts, peff, starts, times = rb["counts"], rb["peff"], rb["starts"], rb["times"]
        live = _live_slots(rb)
        th = np.zeros(rb["theta"].size)
        th[live] = rb["theta"][live]
        del rb, live
        m = counts.size
        # |V_k| at theta_k's slot: the tail sums filter theta with the past
        # slots zeroed, and theta_0's slot holds |V_0| = 0, so the number of
        # jumps at or before a grid point, added to it, is the slot to read
        av = _zeta(th, starts, tails, peff)
        del th
        av *= -scale
        np.abs(av, out=av)
        stat = np.add.reduceat(av, starts[:-1])
        at = _counts_at(times, counts, grid)
        at += (starts[:-1] + peff)[:, None]
        stat += av[at].sum(axis=1)
        out[lo : lo + m] = float(n) ** (-gamma) * stat
        lo += m
        del times, av, at
    return out
