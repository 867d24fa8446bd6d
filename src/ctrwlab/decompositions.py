"""Decompositions of heavy-tailed walks and their convergence diagnostics.

Two pathwise splits, each sampled over the replication blocks of
processes.iter_ctrw_chunks, one value per replication:
  * truncated martingale split  X = M + A   (zero-order configs only):
    truncated_split_samples gives M_T, the variation of A and the jumps of M;
  * tail-filter split           psi^{-1} X = U + V  (any finite order):
    gdca_samples sums |V| over a grid joined with V's breakpoints.
Next to them sit the closed-form truncated means behind the compensator and
b_n (estimate_bn), and the exact per-lag moment sums of V^{n,i} behind the
small-jump/large-jump diagnostics (gdci_sums).
"""

import functools
import math

import numpy as np

from .errors import ParameterError, UnsupportedDecomposition
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


def _compensator(config, a):
    """E[zeta^n_1 1_{|zeta^n_1| <= a}], the drift removed from every small
    jump; zeta^n_1 = prefactor * c_0 * theta, so zero-order configs only."""
    if config.correlated:
        raise UnsupportedDecomposition(
            "the small-jump compensator is not i.i.d. across renewals once "
            "coefficients overlap; the gdca and gdci diagnostics cover correlated configs"
        )
    law = config.innovation
    scale = config.prefactor * config.coefficients[0] * law.scale
    return truncated_mean(law.mode, law.alpha, scale, a)


def estimate_bn(law, n, beta, a, replications, seed, c0=1.0):
    """(samples, closed form) of n^beta E[h(zeta^n_1)], h the clip to
    [-a, a]: n^beta h(zeta) for `replications` draws of zeta^n_1 =
    n^(-beta/alpha) c0 theta, and the analytic value of their mean."""
    if replications < 2:
        raise ParameterError("need at least 2 replications")
    n = int(n)
    pref = float(n) ** (-beta / law.alpha)
    gen = seed.generator(INNOVATION_LANE)
    theta = _draw_innovations(law, gen, int(replications))
    zeta = pref * c0 * theta
    closed = n**beta * truncated_clip_mean(law.mode, law.alpha, pref * c0 * law.scale, a)
    return n**beta * np.clip(zeta, -a, a), closed


# ---------------------------------------------------------------------------
# U/V split and its diagnostics


def _tail_sums(coeffs):
    """tail_i = sum_{j >= i} c_j for i = 1..order (empty for zero order)."""
    c = np.asarray(coeffs, dtype=float)
    if c.size <= 1:
        return np.empty(0)
    return np.cumsum(c[::-1])[::-1][1:]


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
# the splits sampled over replication blocks


def truncated_split_samples(config, T, a, c_grid, reps, seed):
    """Statistics of the truncated split X = M + A over replications, from
    one pass over the replication blocks.

    Returns (M_T, TV_{[0,T]}(A), max |jump of M| / 2a, {c: |jump of M at
    T ^ tau_c|}), each an array with one value per replication; tau_c is the
    first time |M| >= c. Zero-order configs only, and a truncation level
    a >= 1 (a NaN level is rejected too), both checked before any draw.
    """
    if not a >= 1.0:
        raise ParameterError(f"truncation level must be >= 1, got {a!r}", tag="PARAM_TRUNC")
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
    """The grid statistic n^{-gamma} sum_{pi} |V|, one value per replication:
    pi is the grid {k n^{-beta} T} joined with V's breakpoints, so a grid
    point that is also a jump time counts once. gamma, given or defaulted,
    must be > 0: the default is <= 0 for alpha <= beta / (beta + 0.1)."""
    if gamma is None:
        gamma = default_gdca_gamma(config)
    if not gamma > 0:
        raise ParameterError(
            f"gdca gamma must be > 0, got {gamma!r} (the default is beta - beta/alpha + 0.1)", tag="PARAM_GAMMA"
        )
    if not config.correlated:
        return np.zeros(reps)
    n = config.n
    tails = _tail_sums(config.coefficients)
    scale = config.prefactor / config.psi
    # k T / n^beta in the arithmetic of the jump times k / n of a moving
    # average (beta = 1), so that at T = 1 each grid point equals its jump
    # time bitwise
    nb = float(n) ** config.beta_eff
    grid = np.arange(1, int(math.floor(nb + 1e-9)) + 1) * T / nb
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
        # a grid point that is a jump time is one point of the union, whose
        # |V| the jump sum holds already
        on_jump = at != _counts_at(times, counts, np.nextafter(grid, -np.inf))
        at += (starts[:-1] + peff)[:, None]
        reads = av[at]
        reads[on_jump] = 0.0
        stat += reads.sum(axis=1)
        out[lo : lo + m] = float(n) ** (-gamma) * stat
        lo += m
        del times, av, at, on_jump, reads
    return out
