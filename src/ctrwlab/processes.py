"""Generators for moving averages, CTRWs, renewal counters, subordinators,
their inverses, and time-changed stable paths.

Pre-limit processes are exact step paths (no discretisation error); limit
paths live on uniform grids, and the terminal laws of D^(-1)_T and
Z_{D^(-1)_T} are drawn exactly by self-similarity. Every generator is a
pure function of (config, seed), with waiting times drawn from substream
lane 0 and innovations from lane 1, so paired processes share streams
reproducibly.

The walk's replication blocks are ragged (_block, yielded by
iter_ctrw_chunks): each row holds its own renewals only, as flat per-row
segments, with its jump times when kept; the waits are summed in place as
drawn and never kept. Every ensemble sampler reads each row's own segment,
where per-path objects would be too slow: terminal_samples sums windows of
its innovations, one per filter lag, and the integral, SDE and
decomposition samplers filter it into jumps (_block_zeta) and sum, scan or
step their live slots (_live_slots).
gen_moving_average and gen_ctrw read a one-row block of the same step, so
all of them draw one recursion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .paths import GridPath, StepPath
from .rng import (
    InnovationLaw,
    SeedSpec,
    StableParams,
    attractor_params,
    draw_innovation,
    draw_stable,
    draw_waiting,
    wait_attractor_scale,
)

WAIT_LANE = 0
INNOVATION_LANE = 1

# Replication block sizes of the ensemble samplers. Each block's generators
# are seeded by the block's first replication index, seed.generator((lane,
# start)), so these fix the layout of the random streams: changing one
# changes every draw of the samplers that use it.
BLOCK = 500
LIMIT_BLOCK = 250
COUNT_BLOCK = 1000
# Subordinator increments per draw round of a row still below its horizon
# (_first_passage); a layout constant of the limit samplers' wait streams.
PASSAGE_ROUND = 256
# Least waits per draw round of a walk row still at or below nT
# (_wait_rounds, _wait_round_widths); a layout constant of the walks' wait
# streams.
WAIT_ROUND_MIN = 64


def _draw(law, gen, size, native):
    """Draws of `law` in shape `size`: a duck-typed law's own draw(gen,
    count), called with the flat count and reshaped, else native(law, gen,
    size)."""
    fn = getattr(law, "draw", None)
    if fn is None:
        return native(law, gen, size)
    return np.asarray(fn(gen, int(np.prod(size))), dtype=float).reshape(size)


def _draw_innovations(law, gen, size):
    return _draw(law, gen, size, draw_innovation)


def _draw_waits(law, gen, size):
    J = _draw(law, gen, size, draw_waiting)
    if not np.all(J > 0):
        raise DataError("waiting times must be > 0")
    return J


@dataclass(frozen=True)
class ProcessConfig:
    """Full specification of a moving-average or CTRW generator.

    waiting=None means deterministic unit waits, i.e. a moving average with
    jumps at k/n and scaling n^(-1/alpha); a waiting law switches to CTRW
    jumps at L_k/n with scaling n^(-beta/alpha).
    """

    innovation: InnovationLaw
    waiting: object = None
    coefficients: tuple = (1.0,)
    past_horizon: int = None
    n: int = 1

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.coefficients))
        if len(c) == 0 or c[0] <= 0.0:
            raise ParameterError("need coefficients with c_0 > 0", tag="PARAM_COEFFS")
        if any(v < 0.0 for v in c):
            raise ParameterError("coefficients must be >= 0", tag="PARAM_COEFFS")
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        object.__setattr__(self, "coefficients", c)
        if self.past_horizon is None:
            object.__setattr__(self, "past_horizon", len(c) - 1)
        if self.past_horizon < 0:
            raise ParameterError("past horizon must be >= 0", tag="PARAM_PAST")
        if int(self.n) < 1:
            raise ParameterError("n must be >= 1", tag="PARAM_N")
        object.__setattr__(self, "n", int(self.n))

    @property
    def order(self):
        return len(self.coefficients) - 1

    @property
    def psi(self):
        return float(sum(self.coefficients))

    @property
    def correlated(self):
        return len(self.coefficients) > 1

    @property
    def beta_eff(self):
        """Time-scaling exponent: waiting beta, or 1 for deterministic waits."""
        return 1.0 if self.waiting is None else float(self.waiting.beta)

    @property
    def prefactor(self):
        """Jump-size normalisation n^(-beta/alpha)."""
        return float(self.n) ** (-self.beta_eff / self.innovation.alpha)


@dataclass(frozen=True)
class SimulationBundle:
    """One realisation plus the information that generated it.

    innovations holds theta_{-past}, ..., theta_0, theta_1, ..., theta_K in
    order, so adapted integrands and the decompositions can replay exactly
    what the filtration knew at each jump.
    """

    x: StepPath
    counting: StepPath
    innovations: np.ndarray
    past: int
    config: ProcessConfig
    seed: SeedSpec
    horizon: float

    @property
    def jump_count(self):
        return self.innovations.size - self.past - 1


def _staircase(times_over_n, K, horizon):
    """Counting path N_{nt}: 0 before the first jump, +1 at each jump time."""
    t = np.concatenate([[0.0], times_over_n[:K]])
    return StepPath(t, np.arange(K + 1, dtype=float), horizon)


def _bundle(config, T, seed):
    """One realisation: the one-row replication block drawn from the
    per-path lanes, waits from seed.generator(WAIT_LANE) and innovations from
    seed.generator(INNOVATION_LANE), read off its one segment."""
    rb = _block(config, T, 1, seed.generator(WAIT_LANE), seed.generator(INNOVATION_LANE), True)
    K, peff, past, times = int(rb["counts"][0]), rb["peff"], config.past_horizon, rb["times"]
    x = StepPath.from_jumps(times, _block_zeta(config, rb)[peff + 1 :], T)
    thetas = rb["theta"][peff - past :]
    return SimulationBundle(x, _staircase(times, K, T), thetas, past, config, seed, float(T))


def gen_moving_average(config, T, seed):
    """Moving average X^n_t = n^(-1/alpha) sum_{k <= floor(nt)} zeta_k."""
    if config.waiting is not None:
        raise ParameterError("moving average takes waiting=None", tag="PARAM_WAITING")
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    return _bundle(config, T, seed)


def gen_ctrw(config, T, seed):
    """CTRW X^n_t = n^(-beta/alpha) sum_{k <= N_nt} zeta_k, N_nt = max{m: L_m <= nt}."""
    if config.waiting is None:
        raise ParameterError("CTRW needs a waiting law", tag="PARAM_WAITING")
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    return _bundle(config, T, seed)


def gen_counting(waiting, n, T, seed):
    """(N_{nt} path, D^n = n^(-beta) N_{nt} path) for one realisation."""
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    n = int(n)
    counts, L = _wait_rounds(waiting, seed.generator(WAIT_LANE), 1, n * T, True)
    counting = _staircase(L / n, int(counts[0]), T)
    dn = StepPath(counting.times, counting.values * float(n) ** (-waiting.beta), T)
    return counting, dn


def driver_paths(bundle):
    """(D^n, Z^n) driver pair for the SDE scheme: D^n = n^(-beta) N, Z^n = X."""
    cfg = bundle.config
    nb = float(cfg.n) ** (-cfg.beta_eff)
    dn = StepPath(bundle.counting.times, bundle.counting.values * nb, bundle.horizon)
    return dn, bundle.x


def _step_law(law, h):
    """Increment law over a grid step h of the strictly stable Levy process
    with unit-time law `law` (self-similarity; any shift is dropped)."""
    return StableParams(law.alpha, law.skew, law.scale * h ** (1.0 / law.alpha))


def limit_laws(config):
    """(z_law, d_law): the unit-time laws of the limit Z_{D^(-1)_t} of the
    walk of a ProcessConfig (Meerschaert & Scheffler, J. Appl. Probab. 41,
    2004). z_law is the stable attractor of one innovation with its scale
    times the coefficient sum psi; d_law is the attractor of the waits, a
    beta-stable subordinator of scale wait_attractor_scale(beta, scale), or
    None for a moving average, whose limit is Z itself."""
    p = attractor_params(config.innovation)
    z_law = StableParams(p.alpha, p.skew, p.scale * config.psi)
    w = config.waiting
    if w is None:
        return z_law, None
    return z_law, StableParams(w.beta, 1.0, wait_attractor_scale(w.beta, getattr(w, "scale", 1.0)))


def _subordinator(d_law):
    """d_law, checked to be the unit-time law of a stable subordinator:
    index in (0, 1) and skew 1."""
    if not (0.0 < d_law.alpha < 1.0 and d_law.skew == 1.0):
        raise ParameterError("a subordinator law needs beta in (0, 1) and skew 1", tag="PARAM_BETA_RANGE")
    return d_law


def _rounds(draw, m, first, later, T):
    """Per-row draws of m rows in rounds, up to each row's first passage
    over T.

    draw(k, width, last) draws one round for k rows whose levels before it
    are `last`, and returns a tuple of (k, width) arrays whose last one
    holds the rows' levels. The first round has `first` columns and covers
    every row; each later round has `later` columns and covers only the rows
    whose level is still at or below T, in row order. Yields (rows, arrays)
    per round; a consumer that keeps no round holds one at a time.
    """
    rows = np.arange(m)
    last = np.zeros(m)
    width = first
    while rows.size:
        arrays = draw(rows.size, width, last[rows])
        edge = arrays[-1][:, -1].copy()
        yield rows, arrays
        del arrays
        last[rows] = edge
        rows = rows[edge <= T]
        width = later


def _first_passage(d_inc, T, m, gen):
    """Levels of m subordinator paths on the s-grid of step h, with
    increments `d_inc` over h, up to each row's first passage over T:
    D[r, i] is row r's level at s = (i + 1) h.

    The levels are drawn in _rounds of PASSAGE_ROUND increments. A row that
    has passed is padded with +inf, so D <= T marks exactly the levels at or
    below T, and D[:, -1] > T holds for every row.
    """

    def draw(k, width, last):
        return (np.cumsum(draw_stable(d_inc, gen, (k, width)), axis=1) + last[:, None],)

    rounds = list(_rounds(draw, m, PASSAGE_ROUND, PASSAGE_ROUND, T))
    D = np.full((m, len(rounds) * PASSAGE_ROUND), np.inf)
    for i, (rows, (levels,)) in enumerate(rounds):
        D[rows, i * PASSAGE_ROUND : (i + 1) * PASSAGE_ROUND] = levels
    return D


def _counts_at(levels, per_row, nodes):
    """counts[r, j] = #{levels of row r <= nodes[j]}, for sorted nodes and
    flat levels, per_row[r] of them for row r, row after row: one flat
    searchsorted, one bincount of (row, bin) and a running sum along the
    nodes. Levels above the last node fall in a dropped spill column."""
    m, k = per_row.size, nodes.size + 1
    key = np.searchsorted(nodes, levels, side="left")
    key += np.repeat(np.arange(m) * k, per_row)
    counts = np.bincount(key, minlength=m * k).reshape(m, k)
    return np.cumsum(counts, axis=1, out=counts)[:, :-1]


def _inverse_at(d_law, T, gen, size):
    """Exact D^(-1)_T = (T / D_1)^beta for `size` replications, one D_1 each
    from gen (see terminal_inverse_subordinator_samples)."""
    return (T / draw_stable(d_law, gen, size)) ** d_law.alpha


def _time_changed_block(d_law, z_law, T, h, m, dgen, zgen, nodes):
    """The grid time change for m replications: (counts, zcum).

    counts[r, j] is the number of subordinator levels at or below nodes[j],
    so counts + 1 is the grid inverse inf{s: D_s > t} in steps of h.
    zcum[r, k] is Z at s = k h (zcum[:, 0] = 0). Row r draws exactly
    J_r + 1 steps of Z, J_r being its number of levels at or below T, so
    it reaches one step past its first passage; the Z steps of all rows are
    one flat draw, row after row, and zcum stays constant past a row's last
    step. D and Z are independent, with unit-time laws d_law and z_law.
    """
    D = _first_passage(_step_law(d_law, h), T, m, dgen)
    keep = D <= T
    steps = keep.sum(axis=1)
    counts = _counts_at(D[keep], steps, nodes)
    steps += 1
    del D, keep
    zcum = np.zeros((m, int(steps.max()) + 1))
    zcum[:, 1:][np.arange(zcum.shape[1] - 1) < steps[:, None]] = draw_stable(
        _step_law(z_law, h), zgen, int(steps.sum())
    )
    return counts, np.cumsum(zcum, axis=1, out=zcum)


def _t_nodes(T, h):
    """The t-grid 0, h, ..., floor(T / h) h."""
    return np.arange(int(math.floor(T / h + 1e-9)) + 1) * h


def gen_subordinator_inverse(d_law, T, grid_step, seed):
    """(D, D_inv): the stable subordinator of unit-time law d_law on an
    s-grid and its exact generalised inverse D_inv_t = inf{s: D_s > t} on
    the t-grid.

    StableParams(beta, 1.0, 1.0) gives the standard subordinator (Laplace
    transform exp(-t * lambda^beta)); the d_law of limit_laws is the limit
    of the package's Pareto renewal counter.
    """
    if not (grid_step > 0 and T > 0):
        raise ParameterError("grid step and horizon must be > 0")
    h = float(grid_step)
    d_inc = _step_law(_subordinator(d_law), h)
    D = _first_passage(d_inc, T, 1, seed.generator(WAIT_LANE))[0]
    d_vals = np.concatenate([[0.0], D[: int(np.searchsorted(D, T, side="right")) + 1]])
    d = GridPath(d_vals, h, interp="const")
    idx = np.searchsorted(d_vals, _t_nodes(T, h), side="right")
    d_inv = GridPath(idx * h, h, horizon=T, interp="linear")
    return d, d_inv


def gen_time_changed_levy(z_law, d_law, T, grid_step, seed):
    """Z_{D^(-1)_t} on the t-grid, Z and D independent, with unit-time laws
    z_law and d_law. With the laws of limit_laws(config) it is the weak
    limit of gen_ctrw(config) as n grows.
    """
    if not (grid_step > 0 and T > 0):
        raise ParameterError("grid step and horizon must be > 0")
    h = float(grid_step)
    counts, zcum = _time_changed_block(
        _subordinator(d_law), z_law, T, h, 1, seed.generator(WAIT_LANE),
        seed.generator(INNOVATION_LANE), _t_nodes(T, h),
    )
    idx = counts[0] + 1
    # the grid inverse rounds D^{-1}_0 up to h, but the composed path starts
    # at Z_{0+} = 0 in the continuum; pin the origin exactly
    idx[0] = 0
    return GridPath(zcum[0, idx], h, horizon=T, interp="const")


# ---------------------------------------------------------------------------
# vectorised replication blocks


def _wait_round_widths(law, target):
    """(first, later): the waits per row of the first draw round of
    _wait_rounds and of each later one, a layout of the walks' wait streams.

    The first round is the renewal function of Pareto(beta) waits, the
    mean renewal count U(t) ~ sin(pi beta) / (pi beta) (t / scale)^beta
    (Feller, An Introduction to Probability Theory II, XIV.3), plus 32; the
    rows still at or below target after it draw `later` = first // 2 more
    at a time. Both are at least WAIT_ROUND_MIN.
    """
    beta, scale = min(law.beta, 1.0), getattr(law, "scale", 1.0)
    renewal = math.sin(math.pi * beta) / (math.pi * beta) * (target / scale) ** beta
    first = max(WAIT_ROUND_MIN, int(renewal) + 32)
    return first, max(WAIT_ROUND_MIN, first // 2)


def _wait_rounds(law, gen, m, target, keep):
    """Waits from `law` on gen for m rows, each drawn in _rounds up to its
    first passage over target: (counts, L). counts[r] is row r's renewal
    count, the number of its running sums L at or below target. Each round's
    running sums are computed in place in its drawn waits, so no wait is
    kept. With keep, L is flat: each row's live running sums, row after row;
    each round gives up its live entries (a prefix of each of its rows) and
    is dropped. Without keep, L is None and each round is dropped once
    counted.

    The rounds have the widths of _wait_round_widths.
    """
    first, later = _wait_round_widths(law, target)

    def draw(k, width, last):
        L = _draw_waits(law, gen, (k, width))
        # seeded with the level before the round, cumsum runs on along the row
        L[:, 0] += last
        return (np.cumsum(L, axis=1, out=L),)

    counts = np.zeros(m, dtype=np.int64)
    pieces = []
    for rows, (L,) in _rounds(draw, m, first, later, target):
        # the running sums rise along each row, so the live entries are a
        # prefix of it and the round's count adds on
        live = L <= target
        got = live.sum(axis=1)
        if keep:
            pieces.append((rows, counts[rows], got, L[live]))
        counts[rows] += got
        del L, live
    if not keep:
        return counts, None
    # a row's entries of a round go after those of its earlier rounds; each
    # round's entries are dropped once placed
    starts = np.cumsum(counts) - counts
    out = np.empty(int(counts.sum()))
    while pieces:
        rows, before, got, sums = pieces.pop()
        at = np.repeat(starts[rows] + before - np.cumsum(got) + got, got)
        at += np.arange(at.size)
        out[at] = sums
        del sums, at
    return counts, out


def _segments(drawn, counts, past, peff):
    """(theta, starts): the flat innovations of a ragged block. `drawn`
    holds each row's theta_{-past}, ..., theta_{counts[r]}, row after row;
    row r's segment theta[starts[r] : starts[r + 1]] is theta_{-peff}, ...,
    theta_{counts[r]}, with the filter's zero past theta_{-peff}, ...,
    theta_{-past-1} in front of the draws when the filter reaches further
    back than the past (peff > past)."""
    m = counts.size
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(peff + 1 + counts, out=starts[1:])
    pad = peff - past
    if pad == 0:
        return drawn, starts
    theta = np.zeros(int(starts[-1]))
    theta[np.arange(drawn.size) + pad * np.repeat(np.arange(1, m + 1), past + 1 + counts)] = drawn
    return theta, starts


def _zeta(theta, starts, coeffs, peff):
    """zeta_i = sum_j c_j theta_{i-j} at theta_i's slot of each segment of
    a flat theta (_segments), summed from the highest lag down, the order
    np.convolve uses for short filters; zero at the slots of theta_{-peff},
    ..., theta_0. peff is at least the filter's order, so the sums of a
    row read only its own segment."""
    size, top = theta.size, len(coeffs) - 1
    z = np.empty(size)
    # the slots before the first full window take the lower lags' adds too
    z[:top] = 0.0
    np.multiply(coeffs[top], theta[: size - top], out=z[top:])
    for j in reversed(range(top)):
        if coeffs[j] != 0.0:
            z[j:] += coeffs[j] * theta[: size - j]
    z[(starts[:-1, None] + np.arange(peff + 1)).ravel()] = 0.0
    return z


def _block(config, T, m, wgen, igen, keep):
    """One ragged replication block of m rows, waits from wgen and
    innovations from igen: a dict with
      counts: per-row number of jumps with L_k <= nT
      peff:   max(past, order), the filter's past
      theta, starts: flat innovations, row r's theta_{-peff}, ...,
              theta_{counts[r]} at theta[starts[r] : starts[r + 1]]
              (_segments)
      times:  with keep, the jump times L_k/n (k/n for a moving average)
              of each row's live renewals, flat and row after row in the
              order of theta's live slots (_live_slots); None without keep.
    The jumps are not built here: _block_zeta filters theta into them, and
    the waits J_k are not kept: _wait_rounds sums them in place as drawn.

    A CTRW row draws its past + 1 + counts innovations only, in one flat
    draw, row after row; a moving average draws the (m, past + 1 + K)
    rectangle.
    """
    n = config.n
    law = config.innovation
    past = config.past_horizon
    target = n * T
    times = None
    if config.waiting is not None:
        counts, times = _wait_rounds(config.waiting, wgen, m, target, keep)
        if keep:
            times /= n
        drawn = _draw_innovations(law, igen, int((past + 1 + counts).sum()))
    else:
        K = int(math.floor(target + 1e-9))
        counts = np.full(m, K)
        drawn = _draw_innovations(law, igen, (m, past + 1 + K)).reshape(-1)
        if keep:
            times = np.tile(np.arange(1, K + 1) / n, m)
    peff = max(past, config.order)
    theta, starts = _segments(drawn, counts, past, peff)
    del drawn
    return {"counts": counts, "peff": peff, "theta": theta, "starts": starts, "times": times}


def _block_zeta(config, rb):
    """The scaled jumps zeta^n_i of a block rb (_block) of config, at
    theta_i's slots and zero at each row's past slots (_zeta)."""
    zeta = _zeta(rb["theta"], rb["starts"], config.coefficients, rb["peff"])
    zeta *= config.prefactor
    return zeta


def _live_slots(rb):
    """The flat indices of each row's theta_1, ..., theta_{counts[r]} in a
    block rb (_block), row after row: the slots of its live jumps, in the
    order of its times. Live entry i of row r sits at i + (peff + 1)(r + 1);
    that is built as a running sum of steps in one index array, since a
    second array of that size beside it raised the follower's peak RSS."""
    counts = rb["counts"]
    rows = np.flatnonzero(counts)
    at = np.ones(int(counts.sum()), dtype=np.int64)
    # a row's first live entry steps over the past slots of every row since
    # the previous live entry
    at[(np.cumsum(counts) - counts)[rows]] += (rb["peff"] + 1) * np.diff(rows, prepend=-1)
    np.cumsum(at, out=at)
    at -= 1
    return at


def _row_cumsum(inc, starts):
    """Running sums of each segment inc[starts[r] : starts[r + 1]] of a
    flat inc whose segments each start with a zero slot, in place: one flat
    cumsum in which each segment's first slot takes back the sum of the
    segment before it, so the running sum and its rounding stay the size of
    one row's, not of the whole block's. The residue left at a segment's
    first slot is then subtracted along the segment."""
    first = starts[:-1]
    inc[first[1:]] = -np.add.reduceat(inc, first)[:-1]
    np.cumsum(inc, out=inc)
    inc -= np.repeat(inc[first], np.diff(starts))
    return inc


def iter_ctrw_chunks(config, T, reps, seed, keep):
    """Yield the ragged replication blocks (_block dicts of the innovations,
    with no jumps, which _block_zeta builds; with `keep`, the jump times
    too) of the CTRW (or moving average) over `reps` replications:
    block b of BLOCK rows draws from seed.generator((lane, b * BLOCK)). The
    per-path generators are the one-row block on seed.generator(lane)."""
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    for lo in range(0, reps, BLOCK):
        wgen, igen = seed.generator((WAIT_LANE, lo)), seed.generator((INNOVATION_LANE, lo))
        yield _block(config, T, min(BLOCK, reps - lo), wgen, igen, keep)


def terminal_samples(config, T, reps, seed):
    """X^n_T over `reps` replications (vectorised), straight from the
    innovations of the ragged blocks: row r gives prefactor sum_j c_j
    sum_{i = 1 - j}^{N_r - j} theta_i, one np.add.reduceat per lag j over a
    window of each row's own segment. No jumps are built, and each block's
    theta is dropped before the next one is drawn."""
    out = np.zeros(reps)
    lo = 0
    for rb in iter_ctrw_chunks(config, T, reps, seed, False):
        theta, counts = rb["theta"], rb["counts"]
        m = counts.size
        # a row with no renewal sums an empty window, for which reduceat
        # would give theta at its index, so it keeps its 0
        rows = np.flatnonzero(counts)
        if rows.size:
            # the lag 0 window of row r runs from theta_1, at starts[r] +
            # peff + 1, to theta_{N_r}; lag j's runs j slots earlier
            first = rb["starts"][rows] + (rb["peff"] + 1)
            edges = np.column_stack((first, first + counts[rows])).ravel()
            total = np.zeros(rows.size)
            for j, c in enumerate(config.coefficients):
                if c == 0.0:
                    continue
                at = edges - j
                # the last window may end at theta.size, not a valid index:
                # reduceat sums its last window up to the end
                if at[-1] == theta.size:
                    at = at[:-1]
                total += c * np.add.reduceat(theta, at)[::2]
            total *= config.prefactor
            out[lo + rows] = total
        lo += m
        del rb, theta
    return out


def terminal_counting_samples(waiting, n, T, reps, seed):
    """n^(-beta) N_{nT} over `reps` replications (vectorised): counts of
    the wait rounds, no running sum kept."""
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    n = int(n)
    out = np.empty(reps)
    for lo in range(0, reps, COUNT_BLOCK):
        m = min(COUNT_BLOCK, reps - lo)
        counts = _wait_rounds(waiting, seed.generator((WAIT_LANE, lo)), m, n * T, False)[0]
        out[lo : lo + m] = counts * float(n) ** (-waiting.beta)
    return out


def terminal_time_changed_samples(z_law, d_law, T, reps, seed):
    """Exact Z_{D^(-1)_T} samples: E^(1/alpha) Z_1 with E drawn as in
    terminal_inverse_subordinator_samples and Z_1, independent of it, on the
    innovation lane (self-similarity of the strictly stable Z; any shift of
    z_law is dropped). z_law and d_law are the unit-time laws of Z and D.
    """
    z_law = _step_law(z_law, 1.0)
    e = terminal_inverse_subordinator_samples(d_law, T, reps, seed)
    return e ** (1.0 / z_law.alpha) * draw_stable(z_law, seed.generator(INNOVATION_LANE), reps)


def terminal_inverse_subordinator_samples(d_law, T, reps, seed):
    """Exact D^(-1)_T samples: (T / D_1)^beta, since D_s =d s^(1/beta) D_1
    gives P(D^(-1)_T <= s) = P(D_s >= T) (Meerschaert & Scheffler, J. Appl.
    Probab. 41, 2004). One D_1 of the subordinator law d_law per replication
    on the wait lane.
    """
    if not T > 0:
        raise ParameterError("horizon must be > 0")
    return _inverse_at(_subordinator(d_law), T, seed.generator(WAIT_LANE), reps)
