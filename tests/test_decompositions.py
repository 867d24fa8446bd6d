import math
from types import SimpleNamespace

import numpy as np
import pytest

from _brute import (
    clip_mean_limit,
    gdca_statistic,
    martingale_stop_jump,
    padded_blocks,
    padded_gdca_samples,
    padded_truncated_split_samples,
    ragged_configs,
    scaled_jumps,
    split_martingale,
    split_uv,
)
from ctrwlab import (
    InnovationLaw,
    ParameterError,
    ProcessConfig,
    SeedSpec,
    StepPath,
    UnsupportedDecomposition,
    WaitingLaw,
    gen_ctrw,
    gen_moving_average,
)
from ctrwlab.decompositions import (
    _compensator,
    default_gdca_gamma,
    default_gdci_gamma,
    estimate_bn,
    gdca_samples,
    gdci_sums,
    truncated_mean,
    truncated_split_samples,
)
from ctrwlab.paths import total_variation
from ctrwlab.stats import mean_estimate
from ctrwlab.processes import BLOCK


def inject_bundle(thetas, coeffs, n=1, T=2.0):
    """Moving-average bundle driven by a fixed innovation sequence."""
    seq = np.asarray(thetas, dtype=float)
    law = SimpleNamespace(
        alpha=1.5, mode="centered", scale=1.0,
        draw=lambda gen, size: seq[:size].copy(),
    )
    return gen_moving_average(ProcessConfig(law, coefficients=coeffs, n=n), T, SeedSpec(0))


def test_truncated_mean_closed_forms():
    assert truncated_mean("symmetric", 1.5, 1.0, 2.0) == 0.0
    assert truncated_mean("gaussian", 2.0, 1.0, 2.0) == 0.0
    rng = np.random.default_rng(7)
    # one-sided Pareto, zeta = 1.3 * theta
    th = (1.0 - rng.random(400_000)) ** (-1.0 / 0.7)
    z = 1.3 * th
    kept = np.where(np.abs(z) <= 2.0, z, 0.0)
    se = kept.std() / math.sqrt(kept.size)
    assert abs(kept.mean() - truncated_mean("raw", 0.7, 1.3, 2.0)) <= 3.0 * se + 1e-4
    # centered Pareto, zeta = 0.9 * (theta - 3)
    th = (1.0 - rng.random(400_000)) ** (-1.0 / 1.5) - 3.0
    z = 0.9 * th
    kept = np.where(np.abs(z) <= 1.2, z, 0.0)
    se = kept.std() / math.sqrt(kept.size)
    assert abs(kept.mean() - truncated_mean("centered", 1.5, 0.9, 1.2)) <= 3.0 * se + 1e-4
    # level below the support floor keeps nothing
    assert truncated_mean("raw", 0.7, 2.0, 1.0) == 0.0


def test_clip_mean_limit_closed_forms():
    symm = InnovationLaw(1.5, "symmetric")
    cent = InnovationLaw(1.5, "centered")
    raw = InnovationLaw(0.7, "raw")
    assert clip_mean_limit(symm, 1.0) == 0.0
    assert clip_mean_limit(cent, 1.0) == -2.0
    assert clip_mean_limit(cent, 4.0) == -1.0
    assert abs(clip_mean_limit(raw, 1.0) - 1.0 / 0.3) < 1e-12
    # c_0 enters through the jump scale to the alpha-th power
    assert abs(clip_mean_limit(cent, 1.0, c0=2.0) + 2.0 * 2.0**1.5) < 1e-12


def test_split_martingale_symmetric():
    law = InnovationLaw(1.5, "symmetric")
    b = gen_moving_average(ProcessConfig(law, n=200), 1.0, SeedSpec(40))
    sp = split_martingale(b, 1.5)
    assert sp.compensator == 0.0
    assert np.array_equal(sp.m.times, b.x.times)
    assert np.max(np.abs(sp.m.values + sp.a_part.values - b.x.values)) <= 1e-12
    assert sp.max_jump() <= 2.0 * 1.5 * (1.0 + 1e-12)
    # replay M straight from the records
    zeta = scaled_jumps(b)
    dm = np.where(np.abs(zeta) <= 1.5, zeta, 0.0)
    assert np.array_equal(sp.m.values, np.concatenate([[0.0], np.cumsum(dm)]))


def test_split_martingale_all_small():
    # truncation level above every jump: A carries only the compensator drift
    law = InnovationLaw(1.5, "symmetric")
    b = gen_moving_average(ProcessConfig(law, n=500), 1.0, SeedSpec(41))
    sp = split_martingale(b, 1e9)
    assert np.max(np.abs(sp.a_part.values)) == 0.0
    cent = InnovationLaw(1.5, "centered")
    bc = gen_moving_average(ProcessConfig(cent, n=500), 1.0, SeedSpec(41))
    spc = split_martingale(bc, 1e9)
    want = spc.compensator * np.arange(bc.jump_count + 1)
    assert np.max(np.abs(spc.a_part.values - want)) <= 1e-10


def test_split_martingale_errors():
    law = InnovationLaw(1.5, "symmetric")
    b = gen_moving_average(ProcessConfig(law, coefficients=(1.0, 0.5), n=50), 1.0, SeedSpec(42))
    with pytest.raises(UnsupportedDecomposition):
        split_martingale(b, 1.0)
    b0 = gen_moving_average(ProcessConfig(law, n=50), 1.0, SeedSpec(42))
    with pytest.raises(ParameterError):
        split_martingale(b0, 0.5)
    with pytest.raises(UnsupportedDecomposition):
        truncated_split_samples(
            ProcessConfig(law, coefficients=(1.0, 0.5), n=50), 1.0, 1.0, (1.0,), 10, SeedSpec(42)
        )
    # a level below 1, NaN too, ran to a report or failed deep in it; it is
    # rejected before any draw
    no_draw = SimpleNamespace(alpha=1.5, mode="centered", scale=1.0, draw=lambda gen, size: pytest.fail("drew"))
    for a in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ParameterError) as ei:
            truncated_split_samples(ProcessConfig(no_draw, WaitingLaw(0.8), n=50), 1.0, a, (1.0,), 10, SeedSpec(0))
        assert ei.value.tag == "PARAM_TRUNC"


def test_martingale_terminal_centering():
    cfg = ProcessConfig(InnovationLaw(1.5, "centered"), waiting=WaitingLaw(0.8), n=300)
    ms = truncated_split_samples(cfg, 1.0, 1.0, (), 4000, SeedSpec(43))[0]
    se = ms.std() / math.sqrt(ms.size)
    assert abs(ms.mean()) <= 3.0 * se
    assert truncated_split_samples(cfg, 1.0, 1.0, (), 500, SeedSpec(44))[2].max() <= 1.0


def test_truncated_split_samples_match_per_path_split():
    # one injected innovation sequence drives both the replication block and
    # the per-path bundle, so every statistic must agree up to summation order
    seq = np.random.default_rng(7).standard_t(1.5, 41) * 2.0
    law = SimpleNamespace(
        alpha=1.5, mode="centered", scale=1.0,
        draw=lambda gen, size: seq[: int(np.prod(size))].reshape(size),
    )
    cfg = ProcessConfig(law, n=8)
    T, a, c_grid = 5.0, 1.0, (0.5, 2.0, 1e9)
    mart, tv, jump_ratio, stop = truncated_split_samples(cfg, T, a, c_grid, 1, SeedSpec(0))
    sp = split_martingale(gen_moving_average(cfg, T, SeedSpec(0)), a)
    assert sp.compensator != 0.0
    assert mart[0] == pytest.approx(sp.m.value(T), rel=1e-12, abs=1e-12)
    assert tv[0] == pytest.approx(total_variation(sp.a_part, T), rel=1e-12)
    assert jump_ratio[0] == pytest.approx(sp.max_jump() / (2.0 * a), rel=1e-12)
    for c in c_grid:
        assert stop[c][0] == pytest.approx(martingale_stop_jump(sp, T, c), rel=1e-12, abs=1e-15)
    assert stop[0.5][0] > 0.0 and stop[1e9][0] == 0.0


def test_truncated_split_samples_without_renewals():
    # with n = 1 and T = 0.5 no row of the block sees a renewal, so the block
    # has no event columns and every statistic, the stopped jumps too, is 0
    cfg = ProcessConfig(InnovationLaw(1.5, "centered"), waiting=WaitingLaw(0.8), n=1)
    mart, tv, jump_ratio, stop = truncated_split_samples(cfg, 0.5, 1.0, [0.5], 3, SeedSpec(1, 0))
    assert list(stop) == [0.5]
    for arr in (mart, tv, jump_ratio, stop[0.5]):
        assert arr.shape == (3,)
        assert np.all(arr == 0.0)


def test_martingale_stop_jump_hand():
    m = StepPath([0.0, 0.2, 0.5, 0.8], [0.0, 0.4, 1.2, 1.0], 1.0)
    sp = SimpleNamespace(m=m)
    assert martingale_stop_jump(sp, 1.0, 1.0) == pytest.approx(0.8)
    assert martingale_stop_jump(sp, 0.4, 1.0) == 0.0  # not hit yet
    assert martingale_stop_jump(sp, 1.0, 5.0) == 0.0  # never hit


def test_estimate_bn():
    def bn(*args):
        samples, closed = estimate_bn(*args)
        return mean_estimate(samples), closed

    cent = InnovationLaw(1.5, "centered")
    results = {n: bn(cent, n, 0.8, 1.0, 40_000, SeedSpec(42)) for n in (100, 1000)}
    for est, closed in results.values():
        assert est.ci_low <= closed <= est.ci_high
    # closed forms march towards the n -> infinity limit
    lim = clip_mean_limit(cent, 1.0)
    assert abs(results[1000][1] - lim) < abs(results[100][1] - lim)
    # successive estimates stabilise within 2 CI widths
    w = results[100][0].ci_high - results[100][0].ci_low
    assert abs(results[100][0].value - results[1000][0].value) <= 2.0 * w
    # symmetric law: the clipped mean vanishes identically
    symm, closed = bn(InnovationLaw(1.5, "symmetric"), 100, 0.8, 1.0, 5000, SeedSpec(42))
    assert closed == 0.0
    assert symm.ci_low <= 0.0 <= symm.ci_high
    # large truncation level drives the limit to 0
    _, closed = bn(cent, 1000, 0.8, 50.0, 5000, SeedSpec(42))
    assert abs(closed) < 0.3
    with pytest.raises(ParameterError):
        estimate_bn(cent, 100, 0.8, 1.0, 1, SeedSpec(42))


def test_split_uv_hand():
    b = inject_bundle([0.0, 0.0, 2.0, 1.0], (1.0, 1.0))
    assert np.array_equal(b.x.values, [0.0, 2.0, 5.0])
    sp = split_uv(b)
    assert sp.psi == 2.0
    assert np.array_equal(sp.v.values, [0.0, -1.0, -0.5])
    assert np.array_equal(sp.u.values, [0.0, 2.0, 3.0])
    assert np.array_equal(sp.u1.values, [0.0, 2.0, 3.0])
    assert sp.u2.values[0] == 0.0
    # nonzero pre-sample innovation shifts only the U side
    b2 = inject_bundle([0.0, 4.0, 2.0, 1.0], (1.0, 1.0))
    sp2 = split_uv(b2)
    assert np.array_equal(sp2.v.values, [0.0, -1.0, -0.5])
    assert sp2.u2.values[0] == 2.0
    assert np.array_equal(sp2.u.values - sp2.u1.values, [0.0, 2.0, 2.0])


def test_split_uv_zero_order():
    law = InnovationLaw(1.5, "symmetric")
    b = gen_moving_average(ProcessConfig(law, n=100), 1.0, SeedSpec(44))
    sp = split_uv(b)
    assert np.all(sp.v.values == 0.0)
    assert np.array_equal(sp.u.values, b.x.values)


def test_split_uv_identity_random():
    law = InnovationLaw(1.5, "symmetric")
    worst = 0.0
    for s in range(10):
        cfg = ProcessConfig(law, coefficients=(1.0, 0.5, 0.25), waiting=WaitingLaw(0.8), n=150)
        b = gen_ctrw(cfg, 1.0, SeedSpec(70 + s))
        sp = split_uv(b)
        gap = np.max(np.abs(sp.u.values + sp.v.values - b.x.values / cfg.psi))
        worst = max(worst, float(gap))
        # V only jumps where N jumps
        assert np.array_equal(sp.v.times, b.x.times)
    assert worst <= 1e-12


def test_gdca_statistic_hand():
    v = StepPath([0.0, 1.0], [0.5, -0.25], 1.0)
    split = SimpleNamespace(v=v)
    bundle = SimpleNamespace(config=SimpleNamespace(n=1, beta_eff=1.0), horizon=1.0)
    assert gdca_statistic(split, 1.0, bundle) == pytest.approx(0.75)
    with pytest.raises(ParameterError):
        gdca_statistic(split, 0.0, bundle)


@pytest.mark.parametrize("n", [7, 20, 100])
def test_gdca_samples_count_each_moving_average_jump_once(n):
    # at T = 1 the grid point k / n of a moving average is its jump time
    # k / n, so the union of the grid and V's breakpoints is the jump set:
    # the statistic is n^-gamma sum_k |V_k|, V_k = -(c / psi) sum_i tail_i
    # theta_{k+1-i} with the past read as 0. The sampler added each |V_k|
    # twice, once as a jump and once as a grid point.
    seq = np.random.default_rng(n).standard_t(1.5, n + 3) * 2.0
    law = SimpleNamespace(alpha=1.5, mode="centered", scale=1.0, draw=lambda gen, size: seq[:size].copy())
    cfg = ProcessConfig(law, coefficients=(1.0, 0.5, 0.25), n=n)
    v = -(cfg.prefactor / cfg.psi) * np.convolve(seq[3:], [0.75, 0.25])[:n]
    want = float(n) ** -0.4 * np.abs(v).sum()
    got = gdca_samples(cfg, 1.0, 1, SeedSpec(0), gamma=0.4)
    assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0)
    b = gen_moving_average(cfg, 1.0, SeedSpec(0))
    assert gdca_statistic(split_uv(b), 0.4, b) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gdca_samples_match_the_per_path_split():
    # injected innovations and waits drive both the one-row block and the
    # per-path walk, so the sampler must read the definition: |V| summed
    # over the grid joined with V's breakpoints
    rng = np.random.default_rng(12)
    walked = 0
    for k in range(24):
        seq = rng.standard_t(1.5, 4096) * 2.0
        waits = (1.0 - rng.random(4096)) ** (-1.0 / 0.8)
        law = SimpleNamespace(alpha=1.5, mode="centered", scale=1.0, draw=lambda gen, size, s=seq: s[:size].copy())
        wait = SimpleNamespace(beta=0.8, draw=lambda gen, size, w=waits: w[:size].copy())
        coeffs = ((1.0, 0.5), (1.0, 0.5, 0.25), (1.0, 0.0, 0.3))[k % 3]
        n, T = (20, 100, 1000)[k % 4 % 3], (1.0, 1.3, 0.7, 2.0)[k % 4]
        cfg = ProcessConfig(law, wait, coefficients=coeffs, past_horizon=k % 2, n=n)
        b = gen_ctrw(cfg, T, SeedSpec(0))
        want = gdca_statistic(split_uv(b), 0.4, b)
        got = gdca_samples(cfg, T, 1, SeedSpec(0), gamma=0.4)
        assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0), (k, n, T)
        walked += b.jump_count > 1
    assert walked >= 20


def test_gdca_samples_trend():
    law = InnovationLaw(1.5, "centered")
    zero = ProcessConfig(law, n=100)
    assert np.all(gdca_samples(zero, 1.0, 20, SeedSpec(45)) == 0.0)
    meds = []
    for n in (100, 2000):
        cfg = ProcessConfig(law, coefficients=(1.0, 0.5), waiting=WaitingLaw(0.8), n=n)
        vals = gdca_samples(cfg, 1.0, 200, SeedSpec(45), gamma=0.4)
        meds.append(float(np.median(vals)))
    assert meds[1] < meds[0]


def test_gdca_samples_match_per_row_grid_reads():
    # V_k = -c sum_i tail_i theta_{k+1-i} at each jump; the grid term reads
    # |V| of the last jump at or before each grid point (0 before the first).
    # Replaying the padded blocks and reading each row with its own
    # searchsorted gives the same values up to summation order, within
    # 1e-12 of the row's sum of |V| terms, also for a block without renewals.
    law = InnovationLaw(1.5, "centered")
    for n, T, reps in ((300, 1.0, 700), (1, 0.5, 3)):
        cfg = ProcessConfig(law, coefficients=(1.0, 0.5, 0.25), waiting=WaitingLaw(0.8), n=n)
        tails = np.cumsum(np.array(cfg.coefficients)[::-1])[::-1][1:]
        nb = float(n) ** cfg.beta_eff
        grid = np.arange(1, int(math.floor(nb + 1e-9)) + 1) * T / nb
        want = []
        for _, blk in padded_blocks(cfg, T, reps, SeedSpec(46)):
            th = blk["theta"].copy()
            th[:, : blk["peff"] + 1] = 0.0
            m, K = blk["zeta"].shape
            v = np.zeros((m, K))
            for i, ti in enumerate(tails, start=1):
                v += ti * th[:, blk["peff"] + 2 - i : blk["peff"] + 2 - i + K]
            v = np.abs(np.where(blk["mask"], -(cfg.prefactor / cfg.psi) * v, 0.0))
            for r in range(m):
                idx = np.searchsorted(blk["times"][r, : blk["counts"][r]], grid, side="right")
                reads = np.array([v[r, j - 1] if j else 0.0 for j in idx])
                want.append(v[r].sum() + reads.sum())
        got = gdca_samples(cfg, T, reps, SeedSpec(46), gamma=0.4)
        want = float(n) ** -0.4 * np.array(want)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert np.all(got == 0.0)


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_gdca_samples_match_the_padded_sampler(n):
    # the statistic is a sum of |V| terms, so its rounding scale is itself
    T, reps = 1.3, BLOCK + 40
    for i, cfg in enumerate(ragged_configs(n)):
        seed = SeedSpec(800 + i, stream=n)
        got = gdca_samples(cfg, T, reps, seed, gamma=0.4)
        want = padded_gdca_samples(cfg, T, reps, seed, gamma=0.4)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        if not cfg.correlated:
            assert np.all(got == 0.0)


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_truncated_split_samples_match_the_padded_sampler(n):
    # M_T and TV(A) round apart from the padded row sums by at most 1e-12
    # sum |jump| per row; the largest jump of M and the jump of M where |M|
    # first reaches c are read, not summed, so they are equal
    T, reps, a, c_grid = 1.3, BLOCK + 40, 1.0, (0.5, 2.0, 1e9)
    for i, cfg in enumerate(ragged_configs(n)):
        seed = SeedSpec(810 + i, stream=n)
        if cfg.correlated:
            with pytest.raises(UnsupportedDecomposition):
                truncated_split_samples(cfg, T, a, c_grid, reps, seed)
            continue
        got = truncated_split_samples(cfg, T, a, c_grid, reps, seed)
        want = padded_truncated_split_samples(cfg, T, a, c_grid, reps, seed)
        kappa = _compensator(cfg, a)
        size = np.concatenate([
            np.where(blk["mask"], np.abs(np.where(np.abs(blk["zeta"]) <= a, blk["zeta"], 0.0) - kappa), 0.0).sum(axis=1)
            for _, blk in padded_blocks(cfg, T, reps, seed)
        ])
        assert np.all(np.abs(got[0] - want[0]) <= 1e-12 * size)
        assert np.all(np.abs(got[1] - want[1]) <= 1e-12 * want[1])
        assert np.array_equal(got[2], want[2])
        for c in c_grid:
            assert np.array_equal(got[3][c], want[3][c])
        assert np.all(got[3][1e9] == 0.0)
        if n > 1:
            assert np.any(got[3][0.5] > 0.0)


def test_default_gammas():
    cfg = ProcessConfig(InnovationLaw(1.5, "centered"), coefficients=(1.0, 0.5), waiting=WaitingLaw(0.8))
    assert default_gdca_gamma(cfg) == pytest.approx(0.8 - 0.8 / 1.5 + 0.1)
    assert default_gdci_gamma(1.5) == 0.2
    assert default_gdci_gamma(1.2) == pytest.approx(0.1)
    assert default_gdci_gamma(0.9) == 0.2


def test_gdca_samples_reject_a_default_gamma_not_above_zero(monkeypatch):
    # beta - beta/alpha + 0.1 reads -0.329 for a raw alpha = 0.7 moving
    # average; it is rejected before anything is drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("a random variate was drawn")

    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    cfg = ProcessConfig(InnovationLaw(0.7, "raw"), coefficients=(1.0, 0.5), n=50)
    assert default_gdca_gamma(cfg) == pytest.approx(1.0 - 1.0 / 0.7 + 0.1)
    with pytest.raises(ParameterError) as ei:
        gdca_samples(cfg, 1.0, 10, SeedSpec(0))
    assert ei.value.tag == "PARAM_GAMMA"


def test_gdci_trivial_and_errors():
    law = InnovationLaw(1.5, "centered")
    assert gdci_sums(ProcessConfig(law, n=50)) == (0.0, 0.0)
    cfg = ProcessConfig(law, coefficients=(1.0, 0.5), n=100)
    for bad_law in (InnovationLaw(0.7, "raw"), InnovationLaw(2.0, "gaussian")):
        with pytest.raises(ParameterError) as ei:
            gdci_sums(ProcessConfig(bad_law, coefficients=(1.0, 0.5), n=100))
        assert ei.value.tag == "PARAM_MODE"
    # the large-jump moment is infinite at gamma <= 0 and lambda <= 0 past alpha
    for gamma in (0.0, -0.3, 1.5, 2.0, math.nan):
        with pytest.raises(ParameterError) as ei:
            gdci_sums(cfg, gamma=gamma)
        assert ei.value.tag == "PARAM_GAMMA"
    for K in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError) as ei:
            gdci_sums(cfg, K=K)
        assert ei.value.tag == "PARAM"


def _quad_gdci_sums(cfg, K, gamma):
    """gdci_sums with each lag's moments integrated by scipy quad against
    the Pareto density, on pieces where the indicator is constant."""
    quad = pytest.importorskip("scipy.integrate").quad
    law = cfg.innovation
    alpha = law.alpha
    lam, mu = alpha - gamma, alpha + gamma
    s = alpha / (alpha - 1.0) if law.mode == "centered" else 0.0
    terms = math.floor(K * cfg.n**cfg.beta_eff + 1e-9)
    tails = np.cumsum(cfg.coefficients[::-1])[::-1][1:]
    big = small = 0.0
    for i, ti in enumerate(tails, start=1):
        c = law.scale * cfg.prefactor * ti / cfg.psi
        cuts = [x for x in (s - 1.0 / c, s, s + 1.0 / c) if x > 1.0]
        edges = [1.0, *cuts, math.inf]
        e_big = e_small = 0.0
        for a, b in zip(edges, edges[1:]):
            probe = a + 1.0 if math.isinf(b) else 0.5 * (a + b)
            p = lam if c * abs(probe - s) > 1.0 else mu
            val = quad(lambda x: (c * abs(x - s)) ** p * alpha * x ** (-alpha - 1.0),
                       a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            if p == lam:
                e_big += val
            else:
                e_small += val
        count = terms - i + 1
        big += (count * e_big) ** (1.0 / lam)
        small += (count * e_small) ** (1.0 / mu)
    return big, small


def test_gdci_sums_match_quad():
    # lag 1 has c = c1 and lag 2 c1 / 3; c1 runs across 1 and, for centered
    # laws, across alpha - 1, where the piece below the shift s - 1/c > 1 opens
    coeffs = (1.0, 0.5, 0.25)
    for alpha, mode in ((0.8, "symmetric"), (1.5, "symmetric"), (1.9, "symmetric"),
                        (1.2, "centered"), (1.5, "centered"), (1.9, "centered")):
        pref = 4.0 ** (-1.0 / alpha)
        c1s = [1e-3, 0.7, 2.5, 40.0]
        if mode == "centered":
            c1s += [0.5 * (alpha - 1.0), 2.0 * (alpha - 1.0)]
        for c1 in c1s:
            law = InnovationLaw(alpha, mode, scale=c1 * 1.75 / (0.75 * pref))
            cfg = ProcessConfig(law, coefficients=coeffs, n=4)
            for gamma in (default_gdci_gamma(alpha), 0.6 * alpha):
                got = gdci_sums(cfg, K=1.5, gamma=gamma)
                want = _quad_gdci_sums(cfg, 1.5, gamma)
                assert got == pytest.approx(want, rel=1e-7, abs=0.0), (alpha, mode, c1, gamma)


def test_gdci_sums_symmetric_closed_form():
    # E (c|theta|)^p over c|theta| > 1 and <= 1 with x0 = max(1, 1/c):
    # c^p alpha x0^(p - alpha) / (alpha - p) and c^p alpha (x0^(p - alpha) - 1) / (p - alpha)
    for alpha in (0.8, 1.5):
        lam, mu = alpha - 0.2, alpha + 0.2
        for c in (1e-3, 0.5, 1.0, 7.0):
            cfg = ProcessConfig(InnovationLaw(alpha, "symmetric", scale=2.0 * c), coefficients=(1.0, 1.0))
            x0 = max(1.0, 1.0 / c)
            e_big = c**lam * alpha * x0 ** (lam - alpha) / (alpha - lam)
            e_small = c**mu * alpha * (x0 ** (mu - alpha) - 1.0) / (mu - alpha)
            big, small = gdci_sums(cfg, K=1, gamma=0.2)
            assert big == pytest.approx(e_big ** (1.0 / lam), rel=1e-12, abs=0.0)
            assert small == pytest.approx(e_small ** (1.0 / mu), rel=1e-12, abs=1e-300)


def test_gdci_bounded_across_n():
    law = InnovationLaw(1.5, "centered")
    sums = []
    for n in (100, 1000):
        cfg = ProcessConfig(law, coefficients=(1.0, 0.5), waiting=WaitingLaw(0.8), n=n)
        sums.append(gdci_sums(cfg, K=1, gamma=0.2))
    (b1, s1), (b2, s2) = sums
    assert b2 <= 1.5 * b1
    assert s2 <= 1.5 * s1
    assert all(v >= 0.0 for v in (b1, s1, b2, s2))
