import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from _brute import (
    column_s_limit_euler,
    event_euler_sn,
    grid_terminal_inverse_subordinator,
    ma_delay_recursion,
    padded_sn_terminal_samples,
    ragged_configs,
    rect_s_limit_terminal_samples,
    row_sdd_limit_euler,
    row_sddn_terminal_samples,
    walk_limit,
)
from ctrwlab import (
    GridPath,
    InnovationLaw,
    ParameterError,
    ProcessConfig,
    SeedSpec,
    ShapeError,
    StepPath,
    WaitingLaw,
    gen_ctrw,
    gen_moving_average,
)
from ctrwlab.processes import (
    BLOCK,
    INNOVATION_LANE,
    _block_zeta,
    _live_slots,
    _step_law,
    driver_paths,
    iter_ctrw_chunks,
    terminal_samples,
)
from ctrwlab.rng import StableParams, attractor_params, draw_stable, wait_attractor_scale
from ctrwlab.sde import (
    SddeSpec,
    SdeSpec,
    _s_limit_euler,
    _sn_euler,
    sdd_limit_terminal_samples,
    sddn_terminal_samples,
    s_limit_terminal_samples,
    sn_terminal_samples,
    solve_s_limit,
    solve_sdd_limit,
    solve_sddn,
    solve_sn,
)
from ctrwlab.stats import ks_two_sample, wasserstein1


def inject_bundle(thetas, coeffs, n=4, T=None):
    """Walk bundle with handpicked innovations; alpha=1 keeps the prefactor
    1/n so every value stays exactly representable for dyadic inputs."""
    seq = np.asarray(thetas, dtype=float)
    law = SimpleNamespace(
        alpha=1.0, mode="symmetric", scale=1.0,
        draw=lambda gen, size: seq[:size].copy(),
    )
    cfg = ProcessConfig(law, coefficients=coeffs, n=n)
    horizon = (seq.size - len(cfg.coefficients)) / n if T is None else T
    return gen_moving_average(cfg, horizon, SeedSpec(0))


def flat_segment(value, r=0.5):
    return StepPath([-r], [value], 0.0, origin=-r)


FULL = dict(
    b=lambda t, yt, y: 0.5 * np.tanh(y),
    mu=0.2,
    sigma=lambda t, yt, y: 1.0 / (1.0 + y * y),
)


# reads t in every coefficient and ytilde in mu and sigma, so a kernel that
# reads any of them at the wrong time shows in the values
TIMED = dict(
    b=lambda t, yt, y: 0.5 * np.tanh(y) + 0.3 * np.cos(4.0 * t),
    mu=lambda t, yt, y: 0.2 + 0.1 * np.tanh(yt - y),
    sigma=lambda t, yt, y: 1.0 / (1.0 + y * y) + 0.1 * np.sin(3.0 * t + yt),
)


def test_sde_spec_validation():
    with pytest.raises(ParameterError) as ei:
        SdeSpec(b=0.0, mu=0.0, sigma=1.0, growth=(1.0, 10.0, 1.5))
    assert ei.value.tag == "PARAM_GROWTH"
    with pytest.raises(ParameterError):
        SdeSpec(b=0.0, mu=0.0, sigma=1.0, growth=(1.0, 10.0, 0.0))
    with pytest.raises(ParameterError):
        SdeSpec(b=0.0, mu=0.0, sigma=1.0, growth=(-1.0, 10.0, 0.5))
    # constant 20 exceeds |y|^0.5 + 10 near y = 0: flagged at registration
    with pytest.warns(RuntimeWarning, match="growth bound"):
        SdeSpec(b=0.0, mu=0.0, sigma=20.0)
    # the coefficients used everywhere below satisfy the default certificate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SdeSpec(**FULL)


def test_sdde_spec_validation():
    eta = flat_segment(1.0)
    with pytest.raises(ParameterError) as ei:
        SddeSpec(b=0.0, sigma=1.0, r=-0.5, eta=eta)
    assert ei.value.tag == "PARAM_DELAY"
    with pytest.raises(ParameterError):
        SddeSpec(b=0.0, sigma=1.0, r=0.25, eta=eta)  # segment starts at -0.5
    bad = StepPath([-0.5], [1.0], -0.25, origin=-0.5)
    with pytest.raises(ParameterError):
        SddeSpec(b=0.0, sigma=1.0, r=0.5, eta=bad)  # segment stops short of 0
    with pytest.warns(RuntimeWarning, match="exceeds the declared bound"):
        SddeSpec(b=0.0, sigma=2e6, r=0.5, eta=eta)


def test_solve_sn_pure_jump_reductions_exact():
    b = inject_bundle([1.0, -0.5, 2.0, 0.25, -1.25, 3.0, -2.0, 0.5], (1.0, 0.5))
    drivers = driver_paths(b)
    dn, zn = drivers

    sig = SdeSpec(b=0.0, mu=0.0, sigma=1.0, x0=0.25)
    out = solve_sn(sig, drivers, drift_mesh=None)
    want = 0.25 + np.array([zn.value(t) for t in out.times])
    assert np.array_equal(out.values, want)
    assert out.horizon == b.horizon

    mu = SdeSpec(b=0.0, mu=1.0, sigma=0.0, x0=0.25)
    outm = solve_sn(mu, drivers, drift_mesh=None)
    wantm = 0.25 + np.array([dn.value(t) for t in outm.times])
    assert np.array_equal(outm.values, wantm)

    # horizon truncation keeps the shared prefix bit-identical
    cut = solve_sn(sig, drivers, drift_mesh=None, T=0.75)
    assert cut.horizon == 0.75
    assert cut.value(0.5) == out.value(0.5)

    again = solve_sn(sig, drivers, drift_mesh=None)
    assert np.array_equal(again.values, out.values)

    with pytest.raises(ParameterError) as ei:
        solve_sn(sig, drivers, drift_mesh=0.0)
    assert ei.value.tag == "PARAM_MESH"


def test_solve_sn_drift_ode():
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "symmetric"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=20,
    )
    bun = gen_ctrw(cfg, 1.0, SeedSpec(58))
    spec = SdeSpec(b=1.0, mu=0.0, sigma=0.0, x0=-0.5)
    mesh = 2.0 ** -6
    out = solve_sn(spec, driver_paths(bun), drift_mesh=mesh)
    # left-point Euler is exact for a constant drift at the grid times
    assert np.allclose(out.values, -0.5 + out.times, rtol=0.0, atol=1e-10)
    # between grid times the path is flat, so the ODE error is at most one gap
    for t in np.linspace(0.013, 0.987, 23):
        assert abs(out.value(t) - (-0.5 + t)) <= mesh + 1e-10


def test_solve_sn_growth_warning_at_runtime():
    # passes the registration spot check (|y| <= 50 there) but blows past the
    # certificate once the state actually reaches |y| > 60
    def spiky(t, yt, y):
        return np.where(np.abs(y) > 60.0, 1000.0, 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = SdeSpec(b=0.0, mu=0.0, sigma=spiky, x0=100.0)
    b = inject_bundle([1.0, -0.5, 2.0, 0.25, -1.25, 3.0, -2.0, 0.5], (1.0, 0.5))
    with pytest.warns(RuntimeWarning, match="exceeded the declared growth bound"):
        solve_sn(spec, driver_paths(b), drift_mesh=None)

    # the block sampler runs the same kernel, so it warns too, once per call
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "symmetric"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=50,
    )
    with pytest.warns(RuntimeWarning, match="exceeded the declared growth bound") as rec:
        sn_terminal_samples(spec, cfg, 1.0, 40, SeedSpec(36))
    assert sum("growth bound" in str(w.message) for w in rec) == 1


def test_solve_sn_matches_event_euler_oracle():
    spec = SdeSpec(**TIMED)
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "symmetric"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=1000,
    )
    for i in range(20):
        drivers = driver_paths(gen_ctrw(cfg, 1.0, SeedSpec(400 + i)))
        for mesh, T in ((2.0 ** -10, None), (2.0 ** -12, 0.75), (None, None)):
            out = solve_sn(spec, drivers, drift_mesh=mesh, T=T)
            ref = event_euler_sn(spec, drivers, drift_mesh=mesh, T=T)
            assert out.horizon == ref.horizon
            assert np.array_equal(out.times, ref.times)
            assert np.array_equal(out.values, ref.values)


def test_sn_samples_match_oracle_per_row():
    # rebuild every row's drivers from its block and solve it alone: the CTRW
    # rows carry different event counts (zero included), the moving average
    # puts every event on a mesh point and its last one at T
    spec = SdeSpec(**TIMED)
    ctrw = ProcessConfig(
        innovation=InnovationLaw(1.5, "symmetric"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=50,
    )
    ma = ProcessConfig(
        innovation=InnovationLaw(1.5, "centered"),
        waiting=None,
        coefficients=(1.0, 0.5),
        n=8,
    )
    mesh, reps = 2.0 ** -5, 40
    for cfg, T in ((ctrw, 1.0), (ma, 0.75)):
        out = sn_terminal_samples(spec, cfg, T, reps, SeedSpec(37), drift_mesh=mesh)
        rb = next(iter_ctrw_chunks(cfg, T, reps, SeedSpec(37), True))
        nb = float(cfg.n) ** (-cfg.beta_eff)
        counts, zeta = rb["counts"], _block_zeta(cfg, rb)[_live_slots(rb)]
        ends = np.cumsum(counts)
        for r in range(reps):
            tj, zj = rb["times"][ends[r] - counts[r] : ends[r]], zeta[ends[r] - counts[r] : ends[r]]
            drivers = (
                StepPath.from_jumps(tj, np.full(tj.size, nb), T),
                StepPath.from_jumps(tj, zj, T),
            )
            ref = event_euler_sn(spec, drivers, drift_mesh=mesh, T=T).value(T)
            assert abs(out[r] - ref) <= 1e-12
        if cfg is ctrw:
            assert 0 in counts and len(set(counts.tolist())) > 5
        else:
            assert rb["times"][counts[0] - 1] == T


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_sn_samples_match_the_padded_sampler(n):
    # the kernel takes each row's live events as the padded sampler's masked
    # kernel took them, in the same order, so the values are equal bit for
    # bit; at n = 1 most walk rows have no event. Two full blocks step as
    # one pair and a partial third block steps alone
    spec = SdeSpec(**TIMED)
    T, reps = 1.3, 2 * BLOCK + 40
    for i, cfg in enumerate(ragged_configs(n)):
        seed = SeedSpec(760 + i, stream=n)
        got = sn_terminal_samples(spec, cfg, T, reps, seed, drift_mesh=2.0**-6)
        assert np.array_equal(got, padded_sn_terminal_samples(spec, cfg, T, reps, seed, drift_mesh=2.0**-6))


def test_sn_kernel_events_on_mesh_points_and_at_T():
    # events on mesh points, one off them and the last at T: the merge puts
    # each event before the mesh point at its time, as the oracle steps it
    spec = SdeSpec(**TIMED)
    zt = np.array([0.125, 0.25, 0.3, 0.5, 0.75, 1.0])
    dt = np.array([0.25, 0.75, 1.0])
    drivers = (
        StepPath.from_jumps(dt, np.array([0.5, 0.25, 1.0]), 1.0),
        StepPath.from_jumps(zt, np.array([1.0, -0.5, 2.0, 0.25, -1.25, 0.75]), 1.0),
    )
    for mesh, T in ((0.125, None), (0.25, None), (0.25, 0.75), (None, 0.5)):
        out = solve_sn(spec, drivers, drift_mesh=mesh, T=T)
        ref = event_euler_sn(spec, drivers, drift_mesh=mesh, T=T)
        assert np.array_equal(out.times, ref.times)
        assert np.array_equal(out.values, ref.values)


def test_sn_kernel_masks_coefficients_away_from_live_events():
    # sigma is finite only at row 0's event times and row 1 has no event,
    # so neither row may take a NaN from inf * 0: row 1 stays at x0 on
    # every step, its two time slots filled with T
    def sigma(t, yt, y):
        return np.where(np.isin(t, [0.3, 0.6]), 1.0 + 0.0 * y, np.inf)

    with pytest.warns(RuntimeWarning, match="growth bound"):
        spec = SdeSpec(b=0.0, mu=0.0, sigma=sigma, x0=0.5)
    ev_t = np.array([0.3, 0.6])
    dz = np.array([2.0, -0.75])
    with np.errstate(invalid="ignore"):
        times, x = _sn_euler(spec, [(ev_t, np.array([2, 0]), dz)], np.ones(ev_t.shape), 1.0, 0.25, path=True)
    assert times.shape == x.shape == (2 + 4 + 1 + 1, 2)
    assert np.all(np.diff(times, axis=0) >= 0.0)
    assert np.array_equal(times[:, 1], [0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0])
    assert np.all(x[:, 1] == 0.5)
    assert x[-1, 0] == 0.5 + 2.0 - 0.75


def test_sn_kernel_merges_a_live_time_rounded_past_T():
    # a time can round an ulp above T, ahead of a row's fill at T; the
    # merge still gives every replication its times in order
    spec = SdeSpec(b=1.0, mu=0.0, sigma=1.0, x0=0.0)
    past = np.nextafter(1.0, 2.0)
    ev_t = np.array([0.5, past, 0.5, 0.75, 0.875])
    dz = np.array([1.0, 2.0, 1.0, 2.0, 0.0])
    times, x = _sn_euler(spec, [(ev_t, np.array([2, 3]), dz)], np.ones(ev_t.shape), 1.0, 0.5, path=True)
    assert np.all(np.diff(times, axis=0) >= 0.0)
    assert times[-1, 0] == past
    assert np.isfinite(x).all()
    assert abs(x[-1, 0] - x[-1, 1]) <= 1e-15


def test_sn_samples_block_memory():
    # a kernel call holds one (L + 1, m) float array, the times, over the
    # rows of one block (200 reps) or of a pair of blocks (BLOCK + 200), and
    # five words per event while it steps: the sorted layout, jumps and
    # times, and the left limits of X and D. A second (L + 1, m) array, X's
    # rows kept, would exceed the bound
    spec = SdeSpec(**FULL)
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "symmetric"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=4000,
    )
    mesh = 2.0 ** -9
    for reps in (200, BLOCK + 200):
        K, events, block = 0, 0, 0
        for rb in iter_ctrw_chunks(cfg, 1.0, reps, SeedSpec(38), True):
            block = max(block, sum(a.nbytes for a in rb.values() if isinstance(a, np.ndarray)))
            K, events = max(K, int(rb["counts"].max())), events + int(rb["counts"].sum())
        del rb
        tracemalloc.start()
        try:
            sn_terminal_samples(spec, cfg, 1.0, reps, SeedSpec(38), drift_mesh=mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = (K + round(1.0 / mesh) + 2) * reps * 8
        # measured array + block + 3.0 (200 reps) and 3.24 (700) words per
        # event: the bound's slack is 0.12 and 0.38 MB, an eighth and a
        # tenth of the array (1.04 and 3.79 MB)
        assert peak <= array + block + 5 * 8 * events, reps


def test_sn_samples_match_reductions():
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "symmetric"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=50,
    )
    T, reps = 1.0, 600
    sig = SdeSpec(b=0.0, mu=0.0, sigma=1.0, x0=0.25)
    out = sn_terminal_samples(sig, cfg, T, reps, SeedSpec(33))
    ref = terminal_samples(cfg, T, reps, SeedSpec(33))
    assert np.allclose(out, 0.25 + ref, rtol=1e-12, atol=1e-12)

    mu = SdeSpec(b=0.0, mu=1.0, sigma=0.0, x0=0.25)
    outm = sn_terminal_samples(mu, cfg, T, reps, SeedSpec(33))
    counts = (outm - 0.25) * float(cfg.n) ** cfg.beta_eff
    assert np.max(np.abs(counts - np.round(counts))) <= 1e-9
    assert np.all(counts >= -1e-9) and counts.max() > 0

    ode = SdeSpec(b=1.0, mu=0.0, sigma=0.0, x0=0.25)
    outb = sn_terminal_samples(ode, cfg, T, reps, SeedSpec(33), drift_mesh=2.0 ** -6)
    assert np.allclose(outb, 1.25, rtol=0.0, atol=1e-9)


def test_sn_samples_vs_per_path_law():
    spec = SdeSpec(**FULL)
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "symmetric"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=50,
    )
    big = sn_terminal_samples(spec, cfg, 1.0, 1200, SeedSpec(301), drift_mesh=2.0 ** -5)
    small = np.empty(400)
    for i in range(400):
        bun = gen_ctrw(cfg, 1.0, SeedSpec(9000 + i))
        small[i] = solve_sn(spec, driver_paths(bun), drift_mesh=2.0 ** -5).value(1.0)
    stat, _ = ks_two_sample(big, small)
    assert stat <= 0.06  # measured 0.036 with these seeds


def test_solve_s_limit_ode_error_is_first_order():
    spec = SdeSpec(b=lambda t, yt, y: t, mu=0.0, sigma=0.0)
    errs = {}
    for h in (2.0 ** -6, 2.0 ** -7):
        zeros = GridPath(np.zeros(int(round(1.0 / h)) + 1), h)
        out = solve_s_limit(spec, (zeros, zeros))
        errs[h] = abs(out.values[-1] - 0.5)
        # left-point Euler on x' = t accumulates exactly h*T/2
        assert abs(errs[h] - h / 2.0) <= 1e-12
    assert errs[2.0 ** -7] < errs[2.0 ** -6]

    with pytest.raises(ShapeError):
        solve_s_limit(spec, (GridPath(np.zeros(65), 2.0 ** -6), GridPath(np.zeros(129), 2.0 ** -7)))


def test_solve_s_limit_driver_channels_exact():
    h = 0.125
    dv = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 5.0, 5.0, 5.0, 7.0]) / 8.0
    wv = np.array([0.0, 2.0, -1.0, -1.0, 3.0, 3.0, 0.0, 4.0, 4.0]) / 4.0
    both = SdeSpec(b=0.0, mu=1.0, sigma=1.0, x0=0.25)
    out = solve_s_limit(both, (GridPath(dv, h), GridPath(wv, h)))
    assert np.array_equal(out.values, 0.25 + (dv - dv[0]) + (wv - wv[0]))
    assert out.step == h

    cut = solve_s_limit(both, (GridPath(dv, h), GridPath(wv, h)), T=0.5)
    assert cut.values.size == 5
    assert np.array_equal(cut.values, out.values[:5])


def test_s_limit_kernel_matches_column_loop():
    # the (nodes, m) kernel against the (m, nodes) loop it replaced, on
    # coefficients that read t, D^{-1} and X
    spec = SdeSpec(**TIMED)
    rng = np.random.default_rng(20261018)
    h, m, nodes = 2.0 ** -6, 37, 65
    dinv = np.cumsum(rng.integers(0, 3, size=(m, nodes)), axis=1) * h
    w = np.cumsum(draw_stable(StableParams(1.5, 0.0, h ** (1 / 1.5)), rng, (m, nodes)), axis=1)
    out = _s_limit_euler(spec, np.ascontiguousarray(dinv.T), np.ascontiguousarray(w.T), h)
    assert np.array_equal(out.T, column_s_limit_euler(spec, dinv, w, h))


def test_s_limit_full_spec_mesh_halving():
    # same driver realisation solved on a grid and on its half-step
    # refinement, so the Wasserstein gap is the scheme error, not MC noise
    spec = SdeSpec(**FULL)
    zp = attractor_params(InnovationLaw(2.0, "gaussian"))
    isc = wait_attractor_scale(0.5)
    hf = 2.0 ** -7
    Nf = int(round(1.0 / hf))
    nodes = np.arange(Nf + 1) * hf
    dpar = StableParams(0.5, 1.0, isc * hf ** 2.0)
    zpar = StableParams(zp.alpha, zp.skew, zp.scale * hf ** (1.0 / zp.alpha))
    rng = np.random.default_rng(20260803)
    reps = 800
    tc = np.empty(reps)
    tf = np.empty(reps)
    for r in range(reps):
        D = np.cumsum(draw_stable(dpar, rng, 4 * Nf))
        while D[-1] <= 1.0:
            D = np.concatenate([D, D[-1] + np.cumsum(draw_stable(dpar, rng, Nf))])
        idx = np.searchsorted(D, nodes, side="right") + 1
        dinv = idx * hf
        zcum = np.concatenate([[0.0], np.cumsum(draw_stable(zpar, rng, int(idx.max()) + 1))])
        w = zcum[idx]
        tf[r] = solve_s_limit(spec, (GridPath(dinv, hf), GridPath(w, hf))).values[-1]
        tc[r] = solve_s_limit(
            spec, (GridPath(dinv[::2], 2 * hf), GridPath(w[::2], 2 * hf))
        ).values[-1]
    assert wasserstein1(tc, tf) <= 0.02  # measured 0.0099


def test_s_limit_samples_time_change_only():
    spec = SdeSpec(b=0.0, mu=1.0, sigma=0.0)
    h = 2.0 ** -8
    z_law, d_law = walk_limit(1.5, 0.5)
    out = s_limit_terminal_samples(spec, z_law, d_law, 1.0, 1500, SeedSpec(303), grid_step=h)
    # with mu = 1 the scheme telescopes the inverse-subordinator increments,
    # so every terminal value is an exact grid multiple
    assert np.all(out == h * np.round(out / h))
    ref = grid_terminal_inverse_subordinator(
        StableParams(0.5, 1.0, wait_attractor_scale(0.5)), 1.0, 1500, SeedSpec(304), grid_step=h
    )
    stat, _ = ks_two_sample(out + h, ref)  # off by the origin cell only
    assert stat <= 0.06  # measured 0.037

    rerun = s_limit_terminal_samples(spec, z_law, d_law, 1.0, 1500, SeedSpec(303), grid_step=h)
    assert np.array_equal(out, rerun)


def test_s_limit_samples_law_matches_rectangle_oracle():
    # drawing each row's drivers only up to its own first passage changes
    # the streams, not the law: against the sampler that drew every row to
    # the slowest row's passage, on independent seeds
    spec = SdeSpec(**FULL)
    n, h = 4000, 2.0**-8
    for laws, seeds in ((walk_limit(1.5, 0.5), (311, 312)), (walk_limit(2.0, 0.8, "gaussian"), (313, 314))):
        new = s_limit_terminal_samples(spec, *laws, 1.0, n, SeedSpec(seeds[0]), grid_step=h)
        old = rect_s_limit_terminal_samples(spec, *laws, 1.0, n, SeedSpec(seeds[1]), grid_step=h)
        # measured 0.0130 and 0.0155
        assert ks_two_sample(new, old)[0] <= 1.36 * math.sqrt(2.0 / n)


def test_solve_sddn_pure_jump_exact():
    bun = inject_bundle([2.0, -1.0, 1.5, 0.75], (1.0, 1.0), T=0.5)
    zn = bun.x
    spec = SddeSpec(b=0.0, sigma=1.0, r=0.5, eta=flat_segment(1.0))
    out = solve_sddn(spec, bun)
    want = 1.0 + np.array([zn.value(t) for t in out.times]) / 2.0
    assert np.array_equal(out.values, want)

    # sigma reading the delayed state sees the flat segment on [0, r]
    spec_x = SddeSpec(b=0.0, sigma=lambda t, xd: xd, r=0.5, eta=flat_segment(1.0))
    outx = solve_sddn(spec_x, bun)
    assert np.array_equal(outx.values, out.values)


def test_solve_sddn_drift_quadrature():
    bun = inject_bundle([2.0, -1.0, 1.5, 0.75], (1.0, 1.0), T=0.5)
    # delayed argument constant 1 on [0, r]: X = 1 + t, exactly
    spec = SddeSpec(b=lambda t, xd: xd, sigma=0.0, r=0.5, eta=flat_segment(1.0))
    out = solve_sddn(spec, bun)
    assert np.array_equal(out.values, 1.0 + out.times)
    # the cell rule is midpoint in t, hence exact for linear t-dependence too
    spec_t = SddeSpec(b=lambda t, xd: t, sigma=0.0, r=0.5, eta=flat_segment(1.0))
    outt = solve_sddn(spec_t, bun)
    assert np.array_equal(outt.values, 1.0 + outt.times ** 2 / 2.0)


def test_solve_sddn_delay_causality():
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "centered"),
        waiting=None,
        coefficients=(1.0,),
        n=8,
    )
    bun = gen_moving_average(cfg, 1.0, SeedSpec(60))
    times = [-0.5, -0.2, -0.1]
    base = SddeSpec(
        b=lambda t, xd: np.sin(xd), sigma=lambda t, xd: np.cos(xd),
        r=0.5, eta=StepPath(times, [1.0, 1.0, 1.0], 0.0, origin=-0.5),
    )
    bumped = SddeSpec(
        b=base.b, sigma=base.sigma,
        r=0.5, eta=StepPath(times, [1.0, 3.0, 1.0], 0.0, origin=-0.5),
    )
    out1 = solve_sddn(base, bun)
    out2 = solve_sddn(bumped, bun)
    assert np.array_equal(out1.times, out2.times)
    # the segments differ only on [-0.2, -0.1), which the delayed argument
    # first reads at t = 0.3: everything up to there is bit-identical
    head = out1.times <= 0.3
    assert np.array_equal(out1.values[head], out2.values[head])
    tail = out1.times >= 0.45
    assert np.max(np.abs(out1.values[tail] - out2.values[tail])) > 1e-6


def test_solve_sddn_matches_delay_recursion_per_row():
    # at n = 100 a delayed time v - r can round above the event time it
    # stands for (0.51 - 0.5 = 0.010000000000000009); the solver must still
    # read the state before that event, as the recursion does by index, and
    # inside the initial segment the left limit before eta's jump at -0.25
    n = 100
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "centered"),
        waiting=None,
        coefficients=(1.0, 0.5),
        n=n,
    )
    eta = StepPath([-0.5, -0.25], [0.3, -0.2], 0.0, origin=-0.5)
    spec = SddeSpec(b=lambda t, xd: np.sin(xd) + 0.2 * t, sigma=lambda t, xd: np.cos(xd), r=0.5, eta=eta)
    for i in range(4):
        bun = gen_moving_average(cfg, 1.0, SeedSpec(820 + i))
        ev = bun.x.jump_times()
        want = ma_delay_recursion(spec, bun.x.value(ev) - bun.x.value_before(ev), n, cfg.psi)
        out = solve_sddn(spec, bun)
        got = np.append(out.value(0.0), [out.value(t) for t in ev])
        # measured 0 here, and up to 1.7e-2 with the unsnapped read
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


def test_solve_sdd_limit_exact_and_mesh_check():
    h = 0.125
    zv = np.array([0.0, 1.0, -2.0, 4.0, 3.0, 3.0, -1.0, 0.0, 2.0]) / 8.0
    spec = SddeSpec(b=0.0, sigma=1.0, r=0.5, eta=flat_segment(2.0))
    out = solve_sdd_limit(spec, GridPath(zv, h))
    assert np.array_equal(out.values, 2.0 + zv - zv[0])

    with pytest.raises(ParameterError) as ei:
        solve_sdd_limit(spec, GridPath(np.zeros(12), 0.3))
    assert ei.value.tag == "PARAM_MESH"


def test_solve_sdd_limit_method_of_steps():
    # b(t,x)=x, sigma=0, eta=1, r=1/2: X = 1+t on [0,r] and
    # 1 + r + (t-r) + (t-r)^2/2 on [r, 2r]
    spec = SddeSpec(b=lambda t, xd: xd, sigma=0.0, r=0.5, eta=flat_segment(1.0))
    errs = {}
    for h in (2.0 ** -6, 2.0 ** -7):
        n = int(round(1.0 / h)) + 1
        out = solve_sdd_limit(spec, GridPath(np.zeros(n), h))
        m = int(round(0.5 / h))
        assert np.array_equal(out.values[: m + 1], 1.0 + np.arange(m + 1) * h)
        errs[h] = abs(out.values[-1] - 2.125)
        assert errs[h] <= h * np.e
    assert errs[2.0 ** -7] < errs[2.0 ** -6]

    half = solve_sdd_limit(spec, GridPath(np.zeros(65), 2.0 ** -6), T=0.5)
    assert half.values.size == 33


def test_sdd_limit_mesh_halving_w1():
    eta = flat_segment(0.0)
    spec = SddeSpec(b=lambda t, xd: np.sin(xd), sigma=lambda t, xd: np.cos(xd), r=0.5, eta=eta)
    zp = attractor_params(InnovationLaw(1.5, "centered"))
    hf = 2.0 ** -9
    Nf = int(round(1.0 / hf))
    zpar = StableParams(zp.alpha, zp.skew, zp.scale * hf ** (1.0 / zp.alpha))
    rng = np.random.default_rng(20260802)
    reps = 1000
    tc = np.empty(reps)
    tf = np.empty(reps)
    for r in range(reps):
        zf = np.concatenate([[0.0], np.cumsum(draw_stable(zpar, rng, Nf))])
        tf[r] = solve_sdd_limit(spec, GridPath(zf, hf)).values[-1]
        tc[r] = solve_sdd_limit(spec, GridPath(zf[::2], 2 * hf)).values[-1]
    assert wasserstein1(tc, tf) <= 0.02  # measured 0.0187, same driver per path


def test_sddn_samples_initial_segment_replay():
    # eta jumps at 0, so reads strictly before time r see 2.0 while the
    # starting value is eta(0) = 5.0; replay the recursion by hand
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "centered"),
        waiting=None,
        coefficients=(1.0,),
        n=8,
    )
    eta = StepPath([-0.5, 0.0], [2.0, 5.0], 0.0, origin=-0.5)
    spec = SddeSpec(b=lambda t, xd: xd, sigma=lambda t, xd: xd, r=0.5, eta=eta)
    out = sddn_terminal_samples(spec, cfg, 1.0, 1, SeedSpec(777))
    rb = next(iter_ctrw_chunks(cfg, 1.0, 1, SeedSpec(777), False))
    zeta = _block_zeta(cfg, rb)[rb["peff"] + 1 :]
    hist = [5.0]
    for k in range(8):
        xd = 2.0 if k < 4 else hist[k - 4]
        hist.append(hist[-1] + xd / 8.0 + xd * zeta[k])
    assert abs(out[0] - hist[-1]) <= 1e-13 * max(1.0, abs(hist[-1]))


def test_delayed_left_reads_inside_the_initial_segment():
    # the walk sampler reads sigma at the left limit at (k + 1)/8 - 1/2,
    # which is eta's jump time -0.25 at k = 1, so the read there is eta's
    # value before that jump; replay the recursion by hand
    cfg = ProcessConfig(innovation=InnovationLaw(1.5, "centered"), waiting=None, n=8)
    eta = StepPath([-0.5, -0.25], [2.0, 7.0], 0.0, origin=-0.5)
    spec = SddeSpec(b=lambda t, xd: xd, sigma=lambda t, xd: xd, r=0.5, eta=eta)
    out = sddn_terminal_samples(spec, cfg, 1.0, 1, SeedSpec(778))
    rb = next(iter_ctrw_chunks(cfg, 1.0, 1, SeedSpec(778), False))
    zeta = _block_zeta(cfg, rb)[rb["peff"] + 1 :]
    seg = [2.0, 2.0, 7.0, 7.0]
    x = [7.0]
    for k in range(8):
        xd = seg[k] if k < 4 else x[k - 4]
        x.append(x[-1] + xd / 8.0 + xd * zeta[k])
    assert abs(out[0] - x[-1]) <= 1e-13 * max(1.0, abs(x[-1]))


def test_sddn_samples_trivial_and_validation():
    cfg = ProcessConfig(
        innovation=InnovationLaw(1.5, "centered"),
        waiting=None,
        coefficients=(1.0,),
        n=8,
    )
    spec = SddeSpec(b=0.0, sigma=1.0, r=0.5, eta=flat_segment(1.0))
    out = sddn_terminal_samples(spec, cfg, 1.0, 600, SeedSpec(34))
    ref = terminal_samples(cfg, 1.0, 600, SeedSpec(34))
    assert np.allclose(out, 1.0 + ref, rtol=1e-12, atol=1e-12)

    ctrw = ProcessConfig(
        innovation=InnovationLaw(1.5, "centered"),
        waiting=WaitingLaw(0.5),
        coefficients=(1.0,),
        n=8,
    )
    with pytest.raises(ParameterError) as ei:
        sddn_terminal_samples(spec, ctrw, 1.0, 10, SeedSpec(35))
    assert ei.value.tag == "PARAM_WAITING"

    crooked = SddeSpec(b=0.0, sigma=1.0, r=0.3, eta=flat_segment(1.0, r=0.3))
    with pytest.raises(ParameterError) as ei:
        sddn_terminal_samples(crooked, cfg, 1.0, 10, SeedSpec(35))
    assert ei.value.tag == "PARAM_DELAY"

    # the per-path solver is the sampler's one-row call and rejects the same
    with pytest.raises(ParameterError) as ei:
        solve_sddn(spec, gen_ctrw(ctrw, 1.0, SeedSpec(35)))
    assert ei.value.tag == "PARAM_WAITING"
    with pytest.raises(ParameterError) as ei:
        solve_sddn(crooked, gen_moving_average(cfg, 1.0, SeedSpec(35)))
    assert ei.value.tag == "PARAM_DELAY"


# the r = 0.25 spec reads t in both coefficients, and its segment jumps
# inside (-r, 0), so the initial-segment reads differ between drift and jump
DELAY_TIMED = dict(
    b=lambda t, xd: np.sin(xd) + 0.3 * t,
    sigma=lambda t, xd: np.cos(xd) * (1.0 + t),
    r=0.25,
    eta=StepPath([-0.25, -0.1], [0.4, -0.2], 0.0, origin=-0.25),
)


def test_sddn_samples_match_row_oracle():
    spec = SddeSpec(**DELAY_TIMED)
    cfg = ProcessConfig(innovation=InnovationLaw(1.5, "centered"), waiting=None, coefficients=(1.0, 0.5), n=100)
    # 700 reps span a full block and a partial one
    out = sddn_terminal_samples(spec, cfg, 1.0, 700, SeedSpec(830))
    assert np.array_equal(out, row_sddn_terminal_samples(spec, cfg, 1.0, 700, SeedSpec(830)))


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_sddn_samples_match_row_oracle_on_ragged_configs(n):
    # the moving averages of the ragged configs, with a delay of one time
    # unit (n r = n); at n = 1 every delayed read is in the initial segment
    spec = SddeSpec(**{**DELAY_TIMED, "r": 1.0, "eta": StepPath([-1.0, -0.4], [0.4, -0.2], 0.0, origin=-1.0)})
    T, reps = 1.3, BLOCK + 40
    for i, cfg in enumerate(ragged_configs(n)):
        if cfg.waiting is None:
            seed = SeedSpec(770 + i, stream=n)
            got = sddn_terminal_samples(spec, cfg, T, reps, seed)
            assert np.array_equal(got, row_sddn_terminal_samples(spec, cfg, T, reps, seed))


def test_sddn_samples_vs_per_path_law():
    # the per-path law row by row, bitwise: every row of the sampler is
    # solve_sddn on that row's driver. A duck law hands row i's innovations
    # to both, and dyadic innovations at alpha = 1, n = 16 keep the bundle's
    # jumps, differences of its cumulative sums, equal to the block's
    spec = SddeSpec(**DELAY_TIMED)
    rows, width = 3, 18  # theta_-1, ..., theta_16 a row
    seq = np.random.default_rng(840).integers(-64, 65, rows * width) / 8.0

    def config(thetas):
        law = SimpleNamespace(
            alpha=1.0, mode="symmetric", scale=1.0,
            draw=lambda gen, size: thetas[:size].copy(),
        )
        return ProcessConfig(law, coefficients=(1.0, 0.5), n=16)

    out = sddn_terminal_samples(spec, config(seq), 1.0, rows, SeedSpec(841))
    for i in range(rows):
        bun = gen_moving_average(config(seq[i * width : (i + 1) * width]), 1.0, SeedSpec(842))
        path = solve_sddn(spec, bun)
        assert path.times.size == 17 and path.value(1.0) == out[i]


def test_sdd_limit_matches_row_oracle():
    spec = SddeSpec(**DELAY_TIMED)
    h, reps = 2.0**-6, 300
    z_law = attractor_params(InnovationLaw(1.5, "centered"))
    out = sdd_limit_terminal_samples(spec, z_law, 1.0, reps, SeedSpec(831), grid_step=h)
    zinc = draw_stable(_step_law(z_law, h), SeedSpec(831).generator((INNOVATION_LANE, 0)), (reps, 64))
    want = row_sdd_limit_euler(spec, zinc, h)
    assert np.array_equal(out, want[:, -1])
    # the per-path solver is the one-row call, on the increments of its path
    for i in range(3):
        z = np.append(0.0, np.cumsum(zinc[i]))
        path = solve_sdd_limit(spec, GridPath(z, h))
        assert np.array_equal(path.values, row_sdd_limit_euler(spec, np.diff(z)[None, :], h)[0])


def test_solve_sdd_limit_non_dyadic_step():
    # the kernel scales the drift by 1/(1/h), which is b h up to an ulp
    # when 1/h is not exact
    spec = SddeSpec(b=lambda t, xd: np.sin(xd) + t, sigma=lambda t, xd: np.cos(xd), r=0.5, eta=flat_segment(0.3))
    h = 0.1
    zinc = draw_stable(StableParams(1.5, 0.0, h ** (1.0 / 1.5)), np.random.default_rng(832), (1, 20))
    z = np.append(0.0, np.cumsum(zinc[0]))
    got = solve_sdd_limit(spec, GridPath(z, h)).values
    want = row_sdd_limit_euler(spec, np.diff(z)[None, :], h)[0]
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


def test_limit_samplers_reject_bad_horizons():
    sde = SdeSpec(**FULL)
    sdde = SddeSpec(b=0.0, sigma=1.0, r=0.5, eta=flat_segment(1.0))
    z_law, d_law = walk_limit(1.5, 0.5)
    for T in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="horizon"):
            s_limit_terminal_samples(sde, z_law, d_law, T, 10, SeedSpec(833))
        with pytest.raises(ParameterError, match="horizon"):
            sdd_limit_terminal_samples(sdde, z_law, T, 10, SeedSpec(833))


def test_sdd_limit_samples_trivial_law():
    spec = SddeSpec(b=0.0, sigma=1.0, r=0.5, eta=flat_segment(1.0))
    h = 2.0 ** -8
    zp = attractor_params(InnovationLaw(1.5, "centered"))
    out = sdd_limit_terminal_samples(spec, zp, 1.0, 2000, SeedSpec(305), grid_step=h)
    direct = draw_stable(zp, np.random.default_rng(306), 2000)
    stat, _ = ks_two_sample(out - 1.0, direct)
    assert stat <= 0.06  # measured 0.030

    rerun = sdd_limit_terminal_samples(spec, zp, 1.0, 2000, SeedSpec(305), grid_step=h)
    assert np.array_equal(out, rerun)

    with pytest.raises(ParameterError) as ei:
        sdd_limit_terminal_samples(spec, zp, 1.0, 10, SeedSpec(305), grid_step=0.3)
    assert ei.value.tag == "PARAM_MESH"
