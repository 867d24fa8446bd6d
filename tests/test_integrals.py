import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from _brute import (
    grid_terminal_time_changed,
    operational_integral_rows,
    padded_adversarial_sup_samples,
    padded_blocks,
    padded_deterministic_integral_samples,
    padded_follower_integral_samples,
    ragged_configs,
    random_step_path,
    tgrid_integral_samples,
)
from ctrwlab import (
    AdaptednessViolation,
    DataError,
    InnovationLaw,
    ParameterError,
    ProcessConfig,
    SeedSpec,
    StepPath,
    WaitingLaw,
    gen_moving_average,
)
from ctrwlab.integrals import (
    AdversarialIntegrand,
    DeterministicIntegrand,
    LipschitzFollower,
    PathIntegrand,
    adversarial_experiment,
    adversarial_sup_samples,
    deterministic_integral_samples,
    discretize_integrand,
    follower_integral_samples,
    ito_integral,
    sup_difference_integral,
    tc_grid_integral_samples,
    upsilon_estimate,
)
from ctrwlab.exprs import make_expr
from ctrwlab.processes import BLOCK, _block_zeta, iter_ctrw_chunks, terminal_samples, terminal_time_changed_samples
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


def test_ito_hand_values():
    h = PathIntegrand(StepPath([0.0, 0.5], [1.0, 2.0], 1.0))
    x = StepPath.from_jumps([0.3, 0.7], [1.0, 1.0], 1.0)
    out = ito_integral(h, x)
    assert out.value(1.0) == 3.0
    assert out.value(0.5) == 1.0
    const = StepPath([0.0], [5.0], 1.0)
    zero = ito_integral(h, const)
    assert np.all(zero.values == 0.0)
    ramp = ito_integral(lambda t: t, StepPath.from_jumps([0.5], [2.0], 1.0))
    assert ramp.value(1.0) == 1.0
    # the integrand is read at the left limit: a jump of H at the very same
    # time as a jump of X must not be seen
    h2 = PathIntegrand(StepPath([0.0, 0.5], [0.0, 7.0], 1.0))
    out2 = ito_integral(h2, StepPath.from_jumps([0.5], [1.0], 1.0))
    assert out2.value(1.0) == 0.0


def _dyadic_step(rng, horizon=1.0):
    k = int(rng.integers(1, 7))
    times = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 32), k, replace=False)) / 32.0])
    values = rng.integers(-8, 9, k + 1) / 4.0
    return StepPath(times, values.astype(float), horizon)


def test_ito_linearity_exact():
    # dyadic integrand and jump values keep every product and sum exact
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = _dyadic_step(rng)
        f1 = lambda t: np.round(8.0 * np.sin(3.0 * t)) / 8.0
        f2 = lambda t: np.round(16.0 * np.cos(2.0 * t)) / 16.0
        combo = ito_integral(lambda t: 2.0 * f1(t) + 0.5 * f2(t), x)
        i1 = ito_integral(f1, x)
        i2 = ito_integral(f2, x)
        assert np.array_equal(combo.values, 2.0 * i1.values + 0.5 * i2.values)


def test_integration_by_parts():
    # sum-by-parts identity on pure-jump pairs with shared breakpoints
    rng = np.random.default_rng(6)
    for _ in range(200):
        h = _dyadic_step(rng)
        x = _dyadic_step(rng)
        T = 1.0
        ix = ito_integral(PathIntegrand(h), x).value(T)
        ih = ito_integral(PathIntegrand(x), h).value(T)
        common = np.union1d(h.times, x.times)
        dh = h.value(common) - h.value_before(common)
        dx = x.value(common) - x.value_before(common)
        cross = float(np.sum(dh * dx))
        lhs = ix + ih + cross
        rhs = h.value(T) * x.value(T) - h.value(0.0) * x.value(0.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_adversarial_integrand():
    seq = np.array([5.0, -3.0, 2.0, -1.0])  # theta_{-1}, theta_0, theta_1, theta_2
    law = SimpleNamespace(
        alpha=1.5, mode="symmetric", scale=1.0,
        draw=lambda gen, size: seq[:size].copy(),
    )
    cfg = ProcessConfig(law, coefficients=(1.0,), past_horizon=1, n=1)
    b = gen_moving_average(cfg, 2.0, SeedSpec(0))
    h = AdversarialIntegrand(b)
    out = ito_integral(h, b.x)
    # sign path (-1, +1, -1) against jumps (2, -1)
    assert out.value(2.0) == -3.0
    assert np.array_equal(h.left_values(np.array([0.5, 1.0, 1.5, 2.0])), [-1.0, -1.0, 1.0, 1.0])
    peek = AdversarialIntegrand(b, look_ahead=1)
    with pytest.raises(AdaptednessViolation):
        ito_integral(peek, b.x)
    with pytest.raises(AdaptednessViolation):
        discretize_integrand(peek, 0.5, 4, b.horizon)
    # looking backwards is allowed: it only uses older information
    lag = AdversarialIntegrand(b, look_ahead=-1)
    assert np.array_equal(lag.left_values(np.array([1.5, 2.0])), [-1.0, -1.0])


def test_discretize_constant_and_ramp():
    const = discretize_integrand(DeterministicIntegrand(lambda t: 3.0 + 0.0 * t), 0.25, 1, 1.0)
    assert np.all(const.path.values == 3.0)
    ramp = discretize_integrand(lambda t: t, 0.25, 1, 1.0)
    assert np.allclose(ramp.path.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-6)
    assert np.allclose(ramp.path.values, ramp.path.times, atol=1e-6)
    with pytest.raises(ParameterError):
        discretize_integrand(lambda t: t, 0.0, 4, 1.0)
    with pytest.raises(ParameterError):
        discretize_integrand(lambda t: t, 0.1, 0, 1.0)


def test_discretize_sup_error_random_step():
    rng = np.random.default_rng(8)
    for _ in range(800):
        h = random_step_path(rng)
        eps = float(rng.uniform(0.05, 2.0))
        m = int(rng.integers(1, 6))
        hd = discretize_integrand(PathIntegrand(h), eps, m, 1.0)
        probe = np.union1d(h.times, hd.path.times)
        probe = np.union1d(probe, np.minimum(1.0, probe + 1e-9))
        gap = np.abs(h.value(probe) - hd.path.value(probe))
        gap_left = np.abs(h.value_before(probe) - hd.path.value_before(probe))
        assert max(gap.max(), gap_left.max()) <= eps + 1e-9


def test_discretize_lipschitz_follower():
    law = InnovationLaw(1.5, "symmetric")
    b = gen_moving_average(ProcessConfig(law, n=100), 1.0, SeedSpec(201))
    H = LipschitzFollower(b, C=1.0, gamma=0.3)
    hd = discretize_integrand(H, 0.1, 4, 1.0)
    probe = np.union1d(H.times, hd.path.times)
    probe = np.union1d(probe, np.minimum(1.0, probe + 1e-9))
    gap = np.abs(H.left_values(probe) - hd.path.value(probe))
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
    out = ito_integral(H, b.x)
    assert out.value(3.0) == -2.0


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
    filter, a magnitude-coupled walk and a moving average."""
    yield ProcessConfig(InnovationLaw(1.5, "symmetric"), WaitingLaw(0.8), n=n)
    yield ProcessConfig(
        InnovationLaw(1.5, "centered"), WaitingLaw(0.6), coefficients=(1.0, 0.5, 0.25), past_horizon=1, n=n
    )
    yield ProcessConfig(
        InnovationLaw(1.2, "centered"), WaitingLaw(0.6), past_horizon=2, n=n, coupling="magnitude-coupled"
    )
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
    want = np.max(np.abs(ito_integral(AdversarialIntegrand(b), b.x).values))
    assert b.jump_count == 40 and want > 0.0
    assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_follower_rejects_a_bad_slope():
    b = gen_moving_average(ProcessConfig(InnovationLaw(1.5, "symmetric"), n=20), 1.0, SeedSpec(205))
    cfg = b.config
    for C, gamma in ((0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ParameterError):
            LipschitzFollower(b, C=C, gamma=gamma)
        with pytest.raises(ParameterError):
            follower_integral_samples(cfg, 1.0, 10, SeedSpec(206), C=C, gamma=gamma)
    # n^gamma past the float range
    with pytest.raises(ParameterError):
        follower_integral_samples(cfg, 1.0, 10, SeedSpec(206), C=1.0, gamma=1e3)


def test_sup_difference_cap():
    h = PathIntegrand(StepPath([0.0], [10.0], 1.0))
    hd = PathIntegrand(StepPath([0.0], [0.0], 1.0))
    x = StepPath.from_jumps([0.5], [5.0], 1.0)
    assert sup_difference_integral(h, hd, x) == 1.0  # capped
    assert sup_difference_integral(h, h, x) == 0.0
    assert sup_difference_integral(h, hd, StepPath([0.0], [1.0], 1.0)) == 0.0


def test_upsilon_constant_and_lipschitz():
    law = InnovationLaw(1.5, "symmetric")
    bundles = {
        n: [gen_moving_average(ProcessConfig(law, n=n), 1.0, SeedSpec(200 + r, stream=n)) for r in range(60)]
        for n in (100, 400)
    }
    rep = upsilon_estimate(bundles, lambda b: DeterministicIntegrand(lambda t: 2.0 + 0.0 * t), (0.2,), 4)
    assert rep.get("ups_n100_eps0.2").value == 0.0
    assert rep.get("ups_n400_eps0.2").value == 0.0
    # slope-capped integrand: estimates shrink as eps halves
    rep2 = upsilon_estimate(bundles, lambda b: LipschitzFollower(b, C=1.0, gamma=0.3), (0.2, 0.1, 0.05), 8)
    assert rep2.get("eps_ratio_0.2_to_0.1").value <= 0.8
    assert rep2.get("eps_ratio_0.1_to_0.05").value <= 0.8
    with pytest.raises(DataError):
        upsilon_estimate({}, lambda b: None, (0.1,), 4)


def test_upsilon_adversarial_saturates():
    law = InnovationLaw(1.5, "symmetric")
    bundles = {
        n: [
            gen_moving_average(ProcessConfig(law, coefficients=(1.0, 1.0), n=n), 1.0, SeedSpec(230 + r, stream=n))
            for r in range(60)
        ]
        for n in (100, 400)
    }
    # below the sign-flip size every flip forces a partition point, so the
    # discretisation is exact and the control quantity vanishes
    rep_lo = upsilon_estimate(bundles, lambda b: AdversarialIntegrand(b), (0.2,), 8)
    assert rep_lo.get("ups_n100_eps0.2").value == 0.0
    # above it the partition goes blind between grid points and the capped
    # quantity pins at 1 for every n: no decrease anywhere
    rep_hi = upsilon_estimate(bundles, lambda b: AdversarialIntegrand(b), (2.5,), 8)
    u1 = rep_hi.get("ups_n100_eps2.5").value
    u2 = rep_hi.get("ups_n400_eps2.5").value
    assert u1 >= 0.99 and u2 >= 0.99
    assert u2 / u1 >= 0.9


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
    with pytest.raises(ParameterError):
        tc_grid_integral_samples(1.5, 0.8, 1.0, 10, SeedSpec(49), fn=lambda t: t, base=np.tanh)
    with pytest.raises(ParameterError):
        tc_grid_integral_samples(1.5, 0.8, 1.0, 10, SeedSpec(49))
    for kw in ({"fn": np.tanh}, {"base": np.tanh}):
        for h in (0.0, -2.0**-9, math.nan):
            with pytest.raises(ParameterError) as ei:
                tc_grid_integral_samples(1.5, 0.8, 1.0, 10, SeedSpec(49), grid_step=h, **kw)
            assert ei.value.tag == "PARAM_MESH"
        for T in (0.0, -1.0):
            with pytest.raises(ParameterError, match="horizon must be > 0"):
                tc_grid_integral_samples(1.5, 0.8, T, 10, SeedSpec(49), **kw)
    # fn = 1 telescopes to the time-changed terminal value
    a = tc_grid_integral_samples(
        1.5, 0.8, 1.0, 2000, SeedSpec(49), grid_step=2.0**-9, fn=lambda t: np.ones_like(t)
    )
    b = grid_terminal_time_changed(1.5, 0.8, 1.0, 2000, SeedSpec(50), grid_step=2.0**-9)
    stat, _ = ks_two_sample(a, b)
    assert stat <= 0.05
    # state-dependent integrand: finite and reproducible
    c1 = tc_grid_integral_samples(1.5, 0.8, 0.5, 50, SeedSpec(52), grid_step=2.0**-8, base=np.tanh)
    c2 = tc_grid_integral_samples(1.5, 0.8, 0.5, 50, SeedSpec(52), grid_step=2.0**-8, base=np.tanh)
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
    # 600 rows: two full blocks and a partial one
    for kw in ({"base": lambda x: np.cos(x) * x}, {"fn": lambda t: np.sin(3.0 * t)}):
        got = tc_grid_integral_samples(alpha, 0.8, T, 600, SeedSpec(53), grid_step=h, mode=mode, **kw)
        want = operational_integral_rows(alpha, 0.8, T, 600, SeedSpec(53), h, mode=mode, **kw)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("h", [2.0**-10, 2.0**-3])
def test_tc_grid_integral_unit_state_integrand_is_exact(h):
    # with base = 1 the sum telescopes to Z at E_T: J full steps plus one of
    # width E_T - J h, which is exactly E_T^(1/alpha) Z_1 in law at any h
    N = 4000
    one = lambda x: np.ones_like(x)
    a = tc_grid_integral_samples(1.5, 0.8, 1.0, N, SeedSpec(60), grid_step=h, base=one)
    b = terminal_time_changed_samples(1.5, 0.8, 1.0, N, SeedSpec(61))
    stat, _ = ks_two_sample(a, b)
    assert stat <= 1.36 * math.sqrt(2.0 / N)


def test_tc_grid_integral_law_matches_tgrid_oracle():
    # operational time against the old t-grid sum, on independent streams
    N = 2000
    h = 2.0**-9
    floor = 1.36 * math.sqrt(2.0 / N)
    for kw in ({"base": np.tanh}, {"fn": lambda t: np.cos(2.0 * t)}):
        a = tc_grid_integral_samples(1.5, 0.8, 1.0, N, SeedSpec(56), grid_step=h, mode="centered", **kw)
        b = tgrid_integral_samples(1.5, 0.8, 1.0, N, SeedSpec(57), grid_step=h, mode="centered", **kw)
        stat, _ = ks_two_sample(a, b)
        assert stat <= floor
