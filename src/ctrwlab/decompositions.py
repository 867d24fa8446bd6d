"""Decompositions of heavy-tailed walks and their convergence diagnostics.

Two exact pathwise splits:
  * truncated martingale split  X = M + A   (zero-order configs only),
  * tail-filter split           psi^{-1} X = U + V  (any finite order),
plus the per-lag family V^{n,i} behind the small-jump/large-jump moment
diagnostics, and the scalar statistics used to probe whether a given scaling
regime admits a well-behaved decomposition.

All splits are replayed from the innovation record of a SimulationBundle, so
the defining identities hold to machine precision at every breakpoint.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, UnsupportedDecomposition
from .paths import StepPath, total_variation
from .processes import INNOVATION_LANE, _draw_innovations, iter_ctrw_chunks
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

    def recenter_residual(self):
        """max |U - (U1 + U2)| over breakpoints (float roundoff only)."""
        return float(
            np.max(np.abs(self.u.values - self.u1.values - self.u2.values[0]))
        )


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
    pts = np.union1d(grid, split.v.times)
    pts = pts[pts <= T]
    return float(n) ** (-gamma) * float(np.sum(np.abs(split.v.value(pts))))


def default_gdca_gamma(config):
    """(beta - beta/alpha) + 0.1, just above the boundedness threshold."""
    b = config.beta_eff
    return b - b / config.innovation.alpha + 0.1


def default_gdci_gamma(alpha):
    """Keep both moment exponents alpha -+ gamma in the workable range."""
    return min(0.2, (alpha - 1.0) / 2.0) if alpha > 1.0 else 0.2


@dataclass(frozen=True)
class VniFamily:
    """Per-lag components V^{n,i}, i = 1..order, sampled at the renewal times.

    values[i-1, k-1] = V^{n,i} at the k-th renewal; row i is zero until k = i
    and afterwards a fixed multiple of theta_{k-i+1}.
    """

    values: np.ndarray
    sigma_times: np.ndarray
    coefs: np.ndarray
    gamma: float
    alpha: float
    n: int
    beta: float

    @property
    def order(self):
        return self.values.shape[0]

    @property
    def lambda_exp(self):
        return self.alpha - self.gamma

    @property
    def mu_exp(self):
        return self.alpha + self.gamma

    def component_sum(self):
        """sum_i V^{n,i} at every renewal time (equals V there)."""
        return self.values.sum(axis=0)


def make_vni_family(bundle, gamma=None):
    """Build the per-lag family from a realisation's innovation record."""
    cfg = bundle.config
    if gamma is None:
        gamma = default_gdci_gamma(cfg.innovation.alpha)
    tails = _tail_sums(cfg.coefficients)
    K = bundle.jump_count
    theta_pos = bundle.innovations[bundle.past + 1 :]
    coefs = -(cfg.prefactor / cfg.psi) * tails
    vals = np.zeros((tails.size, K))
    for i in range(1, tails.size + 1):
        if K >= i:
            vals[i - 1, i - 1 :] = coefs[i - 1] * theta_pos[: K - i + 1]
    if cfg.waiting is None:
        sigma = np.arange(1, K + 1) / cfg.n
    else:
        sigma = np.cumsum(bundle.waits) / cfg.n
    return VniFamily(
        vals, sigma, coefs, float(gamma), cfg.innovation.alpha, cfg.n, cfg.beta_eff
    )


def _check_gdci_law_mode(mode, alpha):
    if mode == "raw":
        raise ParameterError(
            "moment diagnostics need centered or symmetric innovations",
            tag="PARAM_MODE",
        )
    if alpha <= 1.0 and mode not in ("symmetric",):
        raise ParameterError(
            "alpha <= 1 moment diagnostics need symmetric innovations",
            tag="PARAM_MODE",
        )


def _moment_sums(lags, terms, alpha, gamma):
    """(large-jump sum, small-jump sum) over the lags i = 1, 2, ...

    lags yields, per lag, the absolute values whose empirical moments stand
    for E|V^{n,i}|^lambda 1{> 1} and E|V^{n,i}|^mu 1{<= 1}. Each lag
    contributes (number of nonzero terms among the first `terms`) times its
    moment, then the 1/lambda (resp. 1/mu) root; lags are summed.
    """
    lam = alpha - gamma
    mu = alpha + gamma
    if lam <= 0:
        raise ParameterError("gamma too large: alpha - gamma must be > 0", tag="PARAM_GAMMA")
    big = 0.0
    small = 0.0
    for i, av in enumerate(lags, start=1):
        if av.size == 0:
            continue
        count = max(terms - i + 1, 0)
        e_big = float(np.mean(np.where(av > 1.0, av**lam, 0.0)))
        e_small = float(np.mean(np.where(av <= 1.0, av**mu, 0.0)))
        big += (count * e_big) ** (1.0 / lam)
        small += (count * e_small) ** (1.0 / mu)
    return big, small


def gdci_moment_sums(family, K=1, gamma=None, mode="centered"):
    """(large-jump sum, small-jump sum) of the per-lag moment diagnostics,
    with each lag's moments taken over its realised values."""
    _check_gdci_law_mode(mode, family.alpha)
    g = family.gamma if gamma is None else float(gamma)
    terms = int(math.floor(K * family.n**family.beta + 1e-9))
    lags = (np.abs(family.values[i - 1, i - 1 :]) for i in range(1, family.order + 1))
    return _moment_sums(lags, terms, family.alpha, g)


def gdci_sums_mc(config, K=1, gamma=None, pool=200_000, seed=None):
    """Moment sums with the per-lag expectations estimated from a fresh
    innovation pool instead of a single realisation (low-noise variant)."""
    law = config.innovation
    _check_gdci_law_mode(law.mode, law.alpha)
    if gamma is None:
        gamma = default_gdci_gamma(law.alpha)
    tails = _tail_sums(config.coefficients)
    gen = seed.generator(INNOVATION_LANE)
    theta = _draw_innovations(law, gen, int(pool))
    terms = int(math.floor(K * config.n**config.beta_eff + 1e-9))
    lags = (np.abs((config.prefactor / config.psi) * ti * theta) for ti in tails)
    return _moment_sums(lags, terms, law.alpha, gamma)


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
    for blk in iter_ctrw_chunks(config, T, reps, seed):
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
        lo += m
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
    for blk in iter_ctrw_chunks(config, T, reps, seed):
        th = blk["theta"].copy()
        th[:, : blk["peff"] + 1] = 0.0
        m, K = blk["zeta"].shape
        v = np.zeros((m, K))
        for i, ti in enumerate(tails, start=1):
            v += ti * th[:, blk["peff"] + 2 - i : blk["peff"] + 2 - i + K]
        v = np.where(blk["mask"], -scale * v, 0.0)
        stat = np.abs(v).sum(axis=1)
        for r in range(m):
            jt = blk["times"][r, : blk["counts"][r]]
            idx = np.searchsorted(jt, grid, side="right")
            gv = np.where(idx > 0, np.abs(v[r, np.maximum(idx - 1, 0)]), 0.0)
            stat[r] += gv.sum()
        out[lo : lo + m] = float(n) ** (-gamma) * stat
        lo += m
    return out
