import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from _brute import (
    LipschitzFollower,
    adversarial_running_sum,
    grid_terminal_time_changed,
    operational_integral_rows,
    padded_adversarial_sup_samples,
    padded_blocks,
    padded_deterministic_integral_samples,
    padded_follower_integral_samples,
    ragged_configs,
    tgrid_integral_samples,
    upsilon_rows,
    walk_limit,
)
from ctrwlab import (
    InnovationLaw,
    ParameterError,
    ProcessConfig,
    SeedSpec,
    StepPath,
    WaitingLaw,
    gen_moving_average,
)
from ctrwlab.integrals import (
    _cells,
    _held_before,
    _partition_continuous,
    _partition_linear,
    adversarial_experiment,
    adversarial_sup_samples,
    deterministic_integral_samples,
    follower_integral_samples,
    tc_grid_integral_samples,
    upsilon_samples,
)
from ctrwlab.exprs import make_expr
from ctrwlab.processes import (
    BLOCK,
    _block_zeta,
    iter_ctrw_chunks,
    terminal_samples,
    terminal_time_changed_samples,
)
from ctrwlab.stats import ks_two_sample


def inject_bundle(thetas, coeffs, n=1, T=None):
    seq = np.asarray(thetas, dtype=float)
    law = SimpleNamespace(
        alpha=1.5, mode="symmetric", scale=1.0,
        draw=lambda gen, size: seq[:size].copy(),
    )
    cfg = ProcessConfig(law, coefficients=coeffs, n=n)
    horizon = (seq.size - len(cfg.coefficients)) / n if T is None else T
    return gen_moving_average(cfg, horizon, SeedSpec(0))


def test_discretize_constant_and_ramp():
    # f's partition is the grid where f is constant, and lands on each eps
    # step of a ramp; H^{|m,eps} holds f at each left end
    grid = np.array([0.0, 1.0])
    const = _cells(_partition_continuous(lambda t: 3.0 + 0.0 * t, 0.25, grid, 1.0), grid, 1.0)
    assert np.array_equal(const, grid)
    ramp = _cells(_partition_continuous(lambda t: t, 0.25, grid, 1.0), grid, 1.0)
    assert np.allclose(ramp, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-6)
    probe = np.linspace(1e-9, 1.0, 1001)
    assert np.all(np.abs(probe - _held_before(ramp, ramp, probe)) <= 0.25 + 1e-6)
    cfg = ProcessConfig(InnovationLaw(1.5, "symmetric"), n=20)
    for eps, m in (((0.0,), 4), ((0.1, -1.0), 4), ((math.nan,), 4), ((0.1,), 0)):
        with pytest.raises(ParameterError):
            upsilon_samples(cfg, 1.0, 4, SeedSpec(207), eps, m, fn=lambda t: t)
    for kw in ({}, {"fn": lambda t: t, "base": np.tanh}):
        with pytest.raises(ParameterError):
            upsilon_samples(cfg, 1.0, 4, SeedSpec(207), (0.1,), 4, **kw)


def test_discretize_lipschitz_follower():
    law = InnovationLaw(1.5, "symmetric")
    b = gen_moving_average(ProcessConfig(law, n=100), 1.0, SeedSpec(201))
    H = LipschitzFollower(b, C=1.0, gamma=0.3)
    grid = np.arange(5) * 0.25
    pts = _cells(_partition_linear(H.times, H.values, 0.1, grid, 1.0), grid, 1.0)
    hd = StepPath(pts, H.left_values(pts), 1.0)
    probe = np.union1d(H.times, hd.times)
    probe = np.union1d(probe, np.minimum(1.0, probe + 1e-9))
    gap = np.abs(H.left_values(probe) - hd.value(probe))
    assert gap.max() <= 0.1 + 1e-9


def test_lipschitz_follower_slope_cap():
    law = InnovationLaw(1.5, "symmetric")
    b = gen_moving_average(ProcessConfig(law, n=200), 1.0, SeedSpec(202))
    H = LipschitzFollower(b, C=2.0, gamma=0.5)
    dv = np.abs(np.diff(H.values))
    dt = np.diff(H.times)
    assert np.all(dv <= H.slope * dt * (1.0 + 1e-12) + 1e-15)
    assert H.slope == pytest.approx(2.0 * 200.0**0.5)
    with pytest.raises(ParameterError):
        LipschitzFollower(b, C=0.0)


def test_lipschitz_follower_hand_recursion():
    b = inject_bundle([0.0, 1.0, -2.0, 3.0], (1.0,), T=3.0)
    H = LipschitzFollower(b, base=lambda v: np.asarray(v, dtype=float), C=1.0, gamma=0.0)
    assert np.array_equal(H.times, [0.0, 1.0, 2.0, 3.0, 3.0])
    assert np.array_equal(H.values, [0.0, 0.0, 1.0, 0.0, 0.0])
    # the integral 0 * 1 + 1 * (-2) + 0 * 3, sampled on the same draws
    (got,) = follower_integral_samples(b.config, 3.0, 1, SeedSpec(0), base=H.base, C=1.0, gamma=0.0)
    assert got == -2.0


def test_follower_vectorised_matches_streams():
    # fn = 1 deterministic integral equals the plain terminal sampler on the
    # very same replication stream
    law = InnovationLaw(1.5, "symmetric")
    cfg = ProcessConfig(law, n=300)
    det = deterministic_integral_samples(cfg, 1.0, 80, SeedSpec(203), lambda t: np.ones_like(t))
    term = terminal_samples(cfg, 1.0, 80, SeedSpec(203))
    # terminal_samples sums the innovations, not the jumps, so the two may
    # round apart: within 1e-12 sum |zeta| per row
    size = np.concatenate(
        [
            np.add.reduceat(np.abs(_block_zeta(cfg, rb)), rb["starts"][:-1])
            for rb in iter_ctrw_chunks(cfg, 1.0, 80, SeedSpec(203), False)
        ]
    )
    assert np.all(np.abs(det - term) <= 1e-12 * size)
    vals = follower_integral_samples(cfg, 1.0, 40, SeedSpec(204), C=1.0, gamma=0.3)
    assert np.all(np.isfinite(vals))
    again = follower_integral_samples(cfg, 1.0, 40, SeedSpec(204), C=1.0, gamma=0.3)
    assert np.array_equal(vals, again)


def _follower_configs(n):
    """An uncorrelated CTRW, a correlated one with a past shorter than its
    filter, one with a past longer than its filter and a moving average."""
    yield ProcessConfig(InnovationLaw(1.5, "symmetric"), WaitingLaw(0.8), n=n)
    yield ProcessConfig(
        InnovationLaw(1.5, "centered"), WaitingLaw(0.6), coefficients=(1.0, 0.5, 0.25), past_horizon=1, n=n
    )
    yield ProcessConfig(InnovationLaw(1.2, "centered"), WaitingLaw(0.6), past_horizon=2, n=n)
    yield ProcessConfig(InnovationLaw(1.0, "symmetric"), coefficients=(1.0, 0.5), n=n)


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_follower_steps_the_padded_recursion(n):
    # each row steps its own renewals only, with the padded sampler's
    # arithmetic in its order, so the integrals are equal bit for bit; the
    # last block is partial, and at n = 1 most walk rows have no renewal
    T, reps = 1.3, BLOCK + 40
    base = make_expr("tanh(x)", ("x",))
    for i, cfg in enumerate(_follower_configs(n)):
        seed = SeedSpec(740 + i, stream=n)
        for kw in ({"C": 1.0, "gamma": 0.3}, {"base": base, "C": 0.7, "gamma": 0.4}):
            got = follower_integral_samples(cfg, T, reps, seed, **kw)
            assert np.array_equal(got, padded_follower_integral_samples(cfg, T, reps, seed, **kw))
        if n == 1 and cfg.waiting is not None:
            assert np.any(next(iter_ctrw_chunks(cfg, T, reps, seed, False))["counts"] == 0)


def test_follower_block_allocates_no_padded_array():
    # at beta = 0.5 a block's largest count K is about four times the mean,
    # so one (m, K) float array weighs about four flat arrays of N = sum of
    # 1 + counts slots; a follower block holds a few flat arrays at a time
    cfg = ProcessConfig(InnovationLaw(1.5, "symmetric"), WaitingLaw(0.5), n=10**5)
    seed = SeedSpec(730)
    counts = next(iter_ctrw_chunks(cfg, 1.0, BLOCK, seed, False))["counts"]
    padded = BLOCK * int(counts.max()) * 8
    flat = int((1 + counts).sum()) * 8
    tracemalloc.start()
    try:
        follower_integral_samples(cfg, 1.0, BLOCK, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert padded > 3.5 * flat  # measured 3.8
    assert peak <= 5.0 * flat  # measured 4.4, so no (m, K) array fits on top
    assert peak < 1.3 * padded  # measured 1.1


def _padded_row_sizes(cfg, T, reps, seed, weight):
    """Per row, the sum of |weight(block) * zeta| over the padded blocks'
    live jumps: the scale of a row's rounding."""
    return np.concatenate([
        np.where(blk["mask"], np.abs(weight(blk) * blk["zeta"]), 0.0).sum(axis=1)
        for _, blk in padded_blocks(cfg, T, reps, seed)
    ])


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_deterministic_integral_samples_match_the_padded_sampler(n):
    # each row sums its own live jumps, so the values may round apart from
    # the padded sampler's: within 1e-12 sum |f(t) zeta| per row
    T, reps = 1.3, BLOCK + 40

    def fn(t):
        return np.cos(3.0 * t) + t

    for i, cfg in enumerate(ragged_configs(n)):
        seed = SeedSpec(780 + i, stream=n)
        got = deterministic_integral_samples(cfg, T, reps, seed, fn)
        want = padded_deterministic_integral_samples(cfg, T, reps, seed, fn)
        size = _padded_row_sizes(cfg, T, reps, seed, lambda blk: fn(blk["times"]))
        assert np.all(np.abs(got - want) <= 1e-12 * size)


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_adversarial_sup_samples_match_the_padded_sampler(n):
    # the running sums of each row's own segment round apart from the
    # padded cumsum by at most 1e-12 sum |zeta| per row
    T, reps = 1.3, BLOCK + 40
    for i, cfg in enumerate(ragged_configs(n)):
        seed = SeedSpec(790 + i, stream=n)
        got = adversarial_sup_samples(cfg, T, reps, seed)
        want = padded_adversarial_sup_samples(cfg, T, reps, seed)
        size = _padded_row_sizes(cfg, T, reps, seed, lambda blk: 1.0)
        assert np.all(np.abs(got - want) <= 1e-12 * size)
        if n == 1 and cfg.waiting is not None:
            assert np.any(got == 0.0)


def test_adversarial_sup_samples_match_the_per_path_integral():
    # one injected innovation sequence drives the replication block and the
    # per-path bundle of a correlated moving average: the sampler's value is
    # sup_t |integral of sgn(theta_{k-1}) against X|, the running Ito sum
    seq = np.random.default_rng(11).standard_t(1.5, 43) * 2.0
    law = SimpleNamespace(
        alpha=1.5, mode="symmetric", scale=1.0,
        draw=lambda gen, size: seq[: int(np.prod(size))].reshape(size),
    )
    cfg = ProcessConfig(law, coefficients=(1.0, 0.5, 0.25), past_horizon=1, n=8)
    T = 5.0  # 40 jumps behind theta_-1, theta_0
    (got,) = adversarial_sup_samples(cfg, T, 1, SeedSpec(0))
    b = gen_moving_average(cfg, T, SeedSpec(0))
    want = np.max(np.abs(adversarial_running_sum(b)))
    assert b.jump_count == 40 and want > 0.0
    assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_follower_rejects_a_bad_slope():
    b = gen_moving_average(ProcessConfig(InnovationLaw(1.5, "symmetric"), n=20), 1.0, SeedSpec(205))
    cfg = b.config
    for C, gamma in ((0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ParameterError):
            upsilon_samples(cfg, 1.0, 10, SeedSpec(206), (0.5,), 4, base=np.tanh, C=C, gamma=gamma)
        with pytest.raises(ParameterError):
            follower_integral_samples(cfg, 1.0, 10, SeedSpec(206), C=C, gamma=gamma)
    # n^gamma past the float range
    with pytest.raises(ParameterError):
        follower_integral_samples(cfg, 1.0, 10, SeedSpec(206), C=1.0, gamma=1e3)


def test_upsilon_constant_and_lipschitz():
    law = InnovationLaw(1.5, "symmetric")
    for n in (100, 400):
        cfg = ProcessConfig(law, n=n)
        ups = upsilon_samples(cfg, 1.0, 60, SeedSpec(200, stream=n), (0.2,), 4, fn=lambda t: 2.0 + 0.0 * t)
        assert np.all(ups == 0.0)
    # slope-capped integrand: estimates shrink as eps halves
    ups = upsilon_samples(cfg, 1.0, 60, SeedSpec(200, stream=n), (0.2, 0.1, 0.05), 8, base=np.tanh, C=1.0, gamma=0.3)
    means = ups.mean(axis=1)
    assert means[1] / means[0] <= 0.8
    assert means[2] / means[1] <= 0.8


@pytest.mark.parametrize("n", [1, 7, 100])
def test_upsilon_samples_match_the_row_replay(n):
    # each row's running sum rounds apart from np.cumsum over x's jumps by
    # at most 1e-12 sum |zeta| per row; the last block is partial
    T, reps = 1.3, BLOCK + 40
    kws = ({"fn": lambda t: np.cos(3.0 * t) + t}, {"base": make_expr("tanh(x)", ("x",)), "C": 0.7, "gamma": 0.4})
    for i, cfg in enumerate(ragged_configs(n)):
        seed = SeedSpec(800 + i, stream=n)
        size = np.concatenate(
            [np.add.reduceat(np.abs(_block_zeta(cfg, rb)), rb["starts"][:-1]) for rb in iter_ctrw_chunks(cfg, T, reps, seed, False)]
        )
        for kw in kws:
            got = upsilon_samples(cfg, T, reps, seed, (0.5, 0.1), 4, **kw)
            want = upsilon_rows(cfg, T, reps, seed, (0.5, 0.1), 4, **kw)
            assert np.all(np.abs(got - want) <= 1e-12 * size)
            assert np.any(got > 0.0) or n == 1


def test_adversarial_experiment_light():
    law = InnovationLaw(1.5, "symmetric")
    cfg = ProcessConfig(law, coefficients=(1.0, 1.0))
    rep = adversarial_experiment(cfg, (50, 400), 200, SeedSpec(48))
    assert rep.get("median_ratio").value >= 1.5
    assert rep.get("companion_spread").value <= 1.5
    assert rep.get("growth_exponent").value > 0.1
    with pytest.raises(ParameterError):
        adversarial_experiment(ProcessConfig(law), (50,), 10, SeedSpec(48))
    raw_cfg = ProcessConfig(InnovationLaw(0.7, "raw"), coefficients=(1.0, 0.5))
    with pytest.raises(ParameterError):
        adversarial_experiment(raw_cfg, (50,), 10, SeedSpec(48))


def test_tc_grid_integral_samples():
    laws = walk_limit(1.5, 0.8)
    with pytest.raises(ParameterError):
        tc_grid_integral_samples(*laws, 1.0, 10, SeedSpec(49), fn=lambda t: t, base=np.tanh)
    with pytest.raises(ParameterError):
        tc_grid_integral_samples(*laws, 1.0, 10, SeedSpec(49))
    for kw in ({"fn": np.tanh}, {"base": np.tanh}):
        for h in (0.0, -2.0**-9, math.nan):
            with pytest.raises(ParameterError) as ei:
                tc_grid_integral_samples(*laws, 1.0, 10, SeedSpec(49), grid_step=h, **kw)
            assert ei.value.tag == "PARAM_MESH"
        for T in (0.0, -1.0):
            with pytest.raises(ParameterError, match="horizon must be > 0"):
                tc_grid_integral_samples(*laws, T, 10, SeedSpec(49), **kw)
    # fn = 1 telescopes to the time-changed terminal value
    a = tc_grid_integral_samples(
        *laws, 1.0, 2000, SeedSpec(49), grid_step=2.0**-9, fn=lambda t: np.ones_like(t)
    )
    b = grid_terminal_time_changed(*laws, 1.0, 2000, SeedSpec(50), grid_step=2.0**-9)
    stat, _ = ks_two_sample(a, b)
    assert stat <= 0.05
    # state-dependent integrand: finite and reproducible
    c1 = tc_grid_integral_samples(*laws, 0.5, 50, SeedSpec(52), grid_step=2.0**-8, base=np.tanh)
    c2 = tc_grid_integral_samples(*laws, 0.5, 50, SeedSpec(52), grid_step=2.0**-8, base=np.tanh)
    assert np.array_equal(c1, c2)
    assert np.all(np.isfinite(c1))


@pytest.mark.parametrize(
    "alpha, mode, T, h",
    [
        (1.5, "centered", 1.0, 2.0**-10),
        (1.0, "symmetric", 0.7, 2.0**-9),
        # steps wider than most E_T: many rows take only the cut step
        (1.5, "symmetric", 1.0, 0.5),
    ],
)
def test_tc_grid_integral_samples_match_row_oracle(alpha, mode, T, h):
    # 600 rows: two full blocks and a partial one. The oracle sums in the
    # sampler's order and cuts the last step with the sampler's vector power,
    # so it reads equal bit for bit and the bound does not rest on the draws:
    # a per-row cumsum and dot read 7.09e-9 on a row of value -1977 under
    # plain PCG64 streams
    for kw in ({"base": lambda x: np.cos(x) * x}, {"fn": lambda t: np.sin(3.0 * t)}):
        laws = walk_limit(alpha, 0.8, mode)
        got = tc_grid_integral_samples(*laws, T, 600, SeedSpec(53), grid_step=h, **kw)
        want = operational_integral_rows(*laws, T, 600, SeedSpec(53), h, **kw)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("h", [2.0**-10, 2.0**-3])
def test_tc_grid_integral_unit_state_integrand_is_exact(h):
    # with base = 1 the sum telescopes to Z at E_T: J full steps plus one of
    # width E_T - J h, which is exactly E_T^(1/alpha) Z_1 in law at any h
    N = 4000
    one = lambda x: np.ones_like(x)
    laws = walk_limit(1.5, 0.8)
    a = tc_grid_integral_samples(*laws, 1.0, N, SeedSpec(60), grid_step=h, base=one)
    b = terminal_time_changed_samples(*laws, 1.0, N, SeedSpec(61))
    stat, _ = ks_two_sample(a, b)
    assert stat <= 1.36 * math.sqrt(2.0 / N)


def test_tc_grid_integral_law_matches_tgrid_oracle():
    # operational time against the old t-grid sum, on independent streams
    N = 2000
    h = 2.0**-9
    floor = 1.36 * math.sqrt(2.0 / N)
    for kw in ({"base": np.tanh}, {"fn": lambda t: np.cos(2.0 * t)}):
        laws = walk_limit(1.5, 0.8, "centered")
        a = tc_grid_integral_samples(*laws, 1.0, N, SeedSpec(56), grid_step=h, **kw)
        b = tgrid_integral_samples(*laws, 1.0, N, SeedSpec(57), grid_step=h, **kw)
        stat, _ = ks_two_sample(a, b)
        assert stat <= floor
