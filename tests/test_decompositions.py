import math
from types import SimpleNamespace

import numpy as np
import pytest

from ctrwlab import (
    DataError,
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
    check_tc,
    clip_mean_limit,
    default_gdca_gamma,
    default_gdci_gamma,
    estimate_bn,
    gd_statistics,
    gdca_samples,
    gdca_statistic,
    gdci_moment_sums,
    gdci_sums_mc,
    make_vni_family,
    martingale_stop_jump,
    split_martingale,
    split_uv,
    truncate_h,
    truncated_mean,
    truncated_split_samples,
)
from ctrwlab.paths import total_variation


def inject_bundle(thetas, coeffs, n=1, T=2.0):
    """Moving-average bundle driven by a fixed innovation sequence."""
    seq = np.asarray(thetas, dtype=float)
    law = SimpleNamespace(
        alpha=1.5, mode="centered", scale=1.0,
        draw=lambda gen, size: seq[:size].copy(),
    )
    return gen_moving_average(ProcessConfig(law, coefficients=coeffs, n=n), T, SeedSpec(0))


def test_truncate_h():
    assert truncate_h(0.5, 1.0) == 0.5
    assert truncate_h(2.0, 1.0) == 1.0
    assert truncate_h(-3.0, 1.0) == -1.0
    assert np.array_equal(truncate_h(np.array([-5.0, 0.2, 7.0]), 2.0), [-2.0, 0.2, 2.0])
    with pytest.raises(ParameterError):
        truncate_h(1.0, 0.5)


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
    zeta = b.scaled_jumps()
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
    cent = InnovationLaw(1.5, "centered")
    results = {n: estimate_bn(cent, n, 0.8, 1.0, 40_000, SeedSpec(42)) for n in (100, 1000)}
    for r in results.values():
        assert r.estimate.ci_low <= r.closed_form <= r.estimate.ci_high
    # closed forms march towards the n -> infinity limit
    lim = clip_mean_limit(cent, 1.0)
    assert abs(results[1000].closed_form - lim) < abs(results[100].closed_form - lim)
    # successive estimates stabilise within 2 CI widths
    w = results[100].estimate.ci_high - results[100].estimate.ci_low
    assert abs(results[100].estimate.value - results[1000].estimate.value) <= 2.0 * w
    # symmetric law: the clipped mean vanishes identically
    symm = estimate_bn(InnovationLaw(1.5, "symmetric"), 100, 0.8, 1.0, 5000, SeedSpec(42))
    assert symm.closed_form == 0.0
    assert symm.estimate.ci_low <= 0.0 <= symm.estimate.ci_high
    # large truncation level drives the limit to 0
    wide = estimate_bn(cent, 1000, 0.8, 50.0, 5000, SeedSpec(42))
    assert abs(wide.closed_form) < 0.3
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


def test_check_tc():
    r = check_tc((1.0, 0.5), 1.5)
    assert r.holds and r.tail_sums == (0.5,) and r.double_sum == 0.5 and r.rho == 1.0
    r0 = check_tc((1.0,), 1.7)
    assert r0.holds and r0.tail_sums == () and r0.double_sum == 0.0
    r2 = check_tc((1.0, 1.0, 1.0), 1.5)
    assert r2.tail_sums == (2.0, 1.0) and r2.double_sum == 3.0
    r1 = check_tc((1.0, 1.0, 1.0), 1.0)
    assert r1.rho == 0.5
    assert abs(r1.rho_sum - (math.sqrt(2.0) + 1.0)) < 1e-12


def test_vni_family():
    b = inject_bundle([0.0, 0.0, 2.0, 1.0], (1.0, 1.0))
    fam = make_vni_family(b, gamma=0.2)
    assert fam.order == 1
    assert np.array_equal(fam.values[0], [-1.0, -0.5])
    assert np.array_equal(fam.sigma_times, [1.0, 2.0])
    assert fam.lambda_exp == pytest.approx(1.3)
    assert fam.mu_exp == pytest.approx(1.7)
    sp = split_uv(b)
    assert np.array_equal(fam.component_sum(), sp.v.values[1:])
    # higher order: each lag is a shifted copy of the innovation stream
    b3 = inject_bundle(np.arange(1.0, 9.0), (1.0, 0.5, 0.25), T=5.0)
    fam3 = make_vni_family(b3)
    sp3 = split_uv(b3)
    assert fam3.order == 2
    assert np.allclose(fam3.component_sum(), sp3.v.values[1:], rtol=1e-12, atol=0.0)
    assert np.all(fam3.values[1, :1] == 0.0)  # lag 2 is silent before k = 2


def test_vni_centering():
    # conditional mean of each lag row given the sign of its previous value
    cfg = ProcessConfig(InnovationLaw(1.5, "centered"), coefficients=(1.0, 0.5), n=100)
    prev, cur = [], []
    for s in range(40):
        fam = make_vni_family(gen_moving_average(cfg, 1.0, SeedSpec(80 + s)))
        row = fam.values[0]
        prev.append(row[:-1])
        cur.append(row[1:])
    prev = np.concatenate(prev)
    cur = np.concatenate(cur)
    for mask in (prev > 0.0, prev < 0.0):
        vals = cur[mask]
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean()) <= 3.0 * se


def test_gd_statistics_trivial_ensembles():
    law = InnovationLaw(1.5, "symmetric")
    ensembles = {}
    for n in (50, 100, 200):
        splits = [
            split_martingale(gen_moving_average(ProcessConfig(law, n=n), 1.0, SeedSpec(90 + r, stream=n)), 1e9)
            for r in range(40)
        ]
        ensembles[n] = splits
    report = gd_statistics(ensembles, 1.0, r_grid=(0.5, 2.0), c_grid=(1.0,))
    for n in (50, 100, 200):
        assert report.get(f"tv_tail_n{n}_R0.5").value == 0.0
        assert report.get(f"tv_tail_n{n}_R2").value == 0.0
        assert report.get(f"max_jump_over_2a_n{n}").value <= 1.0
    # A identically zero means the tails trivially flatten
    assert report.get("tv_flat_R0.5").value == 1.0
    assert report.get("tv_flat_R2").value == 1.0
    # a bare list is treated as one unlabelled group
    flat = gd_statistics(list(ensembles[50]), 1.0, r_grid=(0.5,), c_grid=(1.0,))
    assert flat.get("tv_tail_n0_R0.5").value == 0.0
    with pytest.raises(DataError):
        gd_statistics({}, 1.0, r_grid=(0.5,), c_grid=(1.0,))
    with pytest.raises(DataError):
        gd_statistics({10: []}, 1.0, r_grid=(0.5,), c_grid=(1.0,))


def test_gdca_statistic_hand():
    v = StepPath([0.0, 1.0], [0.5, -0.25], 1.0)
    split = SimpleNamespace(v=v)
    bundle = SimpleNamespace(config=SimpleNamespace(n=1, beta_eff=1.0), horizon=1.0)
    assert gdca_statistic(split, 1.0, bundle) == pytest.approx(0.75)
    with pytest.raises(ParameterError):
        gdca_statistic(split, 0.0, bundle)


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


def test_default_gammas():
    cfg = ProcessConfig(InnovationLaw(1.5, "centered"), coefficients=(1.0, 0.5), waiting=WaitingLaw(0.8))
    assert default_gdca_gamma(cfg) == pytest.approx(0.8 - 0.8 / 1.5 + 0.1)
    assert default_gdci_gamma(1.5) == 0.2
    assert default_gdci_gamma(1.2) == pytest.approx(0.1)
    assert default_gdci_gamma(0.9) == 0.2


def test_gdci_trivial_and_errors():
    law = InnovationLaw(1.5, "centered")
    zero = gen_moving_average(ProcessConfig(law, n=50), 1.0, SeedSpec(46))
    fam = make_vni_family(zero)
    assert fam.order == 0
    assert gdci_moment_sums(fam, K=1) == (0.0, 0.0)
    # silent family: all-zero innovations give (0, 0) even with lags present
    silent = inject_bundle(np.zeros(16), (1.0, 0.5), T=8.0)
    assert gdci_moment_sums(make_vni_family(silent), K=1) == (0.0, 0.0)
    raw_cfg = ProcessConfig(InnovationLaw(0.7, "raw"), coefficients=(1.0, 0.5), n=100)
    with pytest.raises(ParameterError):
        gdci_sums_mc(raw_cfg, K=1, pool=100, seed=SeedSpec(46))
    fam2 = make_vni_family(inject_bundle([0.0, 0.0, 2.0, 1.0], (1.0, 1.0)))
    with pytest.raises(ParameterError):
        gdci_moment_sums(fam2, K=1, gamma=2.0)  # alpha - gamma < 0
    with pytest.raises(ParameterError):
        gdci_moment_sums(fam2, K=1, mode="raw")
    fam_a1 = SimpleNamespace(alpha=1.0)
    with pytest.raises(ParameterError):
        gdci_moment_sums(fam_a1, K=1, mode="centered")


def test_gdci_bounded_across_n():
    law = InnovationLaw(1.5, "centered")
    sums = []
    for n in (100, 1000):
        cfg = ProcessConfig(law, coefficients=(1.0, 0.5), waiting=WaitingLaw(0.8), n=n)
        sums.append(gdci_sums_mc(cfg, K=1, gamma=0.2, pool=100_000, seed=SeedSpec(46)))
    (b1, s1), (b2, s2) = sums
    assert b2 <= 1.5 * b1
    assert s2 <= 1.5 * s1
    assert all(v >= 0.0 for v in (b1, s1, b2, s2))
