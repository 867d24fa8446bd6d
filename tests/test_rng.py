import math
import tracemalloc

import numpy as np
import pytest
from _brute import cms_standard, tangent_cms_standard, two_array_innovation

from ctrwlab import (
    InnovationLaw,
    ParameterError,
    SeedSpec,
    StableParams,
    WaitingLaw,
    attractor_params,
    sample_innovation,
    sample_stable,
    sample_waiting,
    wait_attractor_scale,
)
from ctrwlab.rng import CMS_SLICE, CMS_U_FLOOR, _cms_standard, draw_innovation


def symmetric_stable_cdf(xs, alpha, umax=12.0, nu=6000):
    """Gil-Pelaez inversion of exp(-|u|^alpha), unit scale."""
    xs = np.asarray(xs, dtype=float)
    u0 = umax / nu
    u = np.linspace(u0, umax, nu)
    w = np.exp(-u ** alpha) / u
    s = np.sin(np.outer(xs, u)) * w
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    vals = trapezoid(s, u, axis=1)
    # the dropped [0, u0) segment, where the integrand is x - u^2 x^3 / 6
    vals += xs * u0 - (u0 ** 3) * (xs ** 3) / 18.0
    return np.clip(0.5 + vals / np.pi, 0.0, 1.0)


def test_cdf_oracle_matches_cauchy():
    xs = np.linspace(-30, 30, 401)
    got = symmetric_stable_cdf(xs, 1.0)
    want = 0.5 + np.arctan(xs) / np.pi
    assert np.max(np.abs(got - want)) < 2e-4


def test_stable_parameter_validation():
    with pytest.raises(ParameterError) as err:
        StableParams(alpha=2.5)
    assert err.value.tag == "PARAM_ALPHA_RANGE"
    with pytest.raises(ParameterError):
        StableParams(alpha=0.0)
    with pytest.raises(ParameterError) as err:
        StableParams(alpha=1.5, skew=1.2)
    assert err.value.tag == "PARAM_SKEW_RANGE"
    with pytest.raises(ParameterError):
        StableParams(alpha=1.5, scale=-0.1)
    with pytest.raises(ParameterError):
        StableParams(alpha=2.0, skew=0.5)
    with pytest.raises(ParameterError) as err:
        sample_stable(StableParams(1.5), SeedSpec(1), 0)
    assert err.value.tag == "PARAM_COUNT"


def test_scale_zero_is_degenerate_at_shift():
    x = sample_stable(StableParams(1.5, 0.3, 0.0, shift=2.5), SeedSpec(7), 200)
    assert x.shape == (200,)
    assert np.all(x == 2.5)


def test_cauchy_quartiles():
    x = sample_stable(StableParams(1.0, 0.0, 1.0), SeedSpec(11), 200_000)
    q1, q3 = np.quantile(x, [0.25, 0.75])
    assert abs(q1 + 1.0) < 0.03
    assert abs(q3 - 1.0) < 0.03


def test_levy_half_median():
    # alpha=1/2, skew=1, scale=1 has median scale/(2 erfcinv(1/2)^2) = 1.09905
    x = sample_stable(StableParams(0.5, 1.0, 1.0), SeedSpec(13), 200_000)
    assert np.all(x > 0)
    assert abs(np.median(x) - 1.09905) < 0.03


def test_one_sided_laplace_transform():
    lams = np.array([0.5, 1.0, 2.0])
    for alpha in (0.5, 0.8):
        x = sample_stable(StableParams(alpha, 1.0, 1.3), SeedSpec(17), 400_000)
        emp = np.mean(np.exp(-np.outer(lams, x)), axis=1)
        want = np.exp(-((1.3 * lams) ** alpha))
        assert np.max(np.abs(emp - want)) < 0.01


def test_symmetric_cf_inversion_ks():
    n = 100_000
    x = np.sort(sample_stable(StableParams(1.5, 0.0, 1.0), SeedSpec(19), n))
    grid = np.linspace(-40.0, 40.0, 4001)
    cdf_grid = symmetric_stable_cdf(grid, 1.5)
    cdf = np.interp(x, grid, cdf_grid, left=0.0, right=1.0)
    ks = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
    assert ks < 0.02


CMS_ALPHAS = (0.1, 0.3, 0.5, 2.0 / 3.0, 0.9, 0.999, 1.001, 1.2, 1.5, 1.8, 1.99)
CMS_SKEWS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def test_tangent_cms_matches_the_trigonometric_oracle():
    # same uniforms and exponentials, same transform; only sin/cos are
    # rewritten through tangents, so draws agree to rounding
    for i, alpha in enumerate(CMS_ALPHAS):
        for j, skew in enumerate(CMS_SKEWS):
            seed = SeedSpec(67 + i, stream=j)
            gen, oracle_gen = seed.generator(), seed.generator()
            with np.errstate(all="ignore"):
                got = _cms_standard(alpha, skew, gen, 100_000)
                want = cms_standard(alpha, skew, oracle_gen, 100_000)
            assert gen.random() == oracle_gen.random()
            fin = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), fin), (alpha, skew)
            rel = np.abs(got[fin] - want[fin]) <= 1e-13 * np.abs(want[fin])
            assert np.all(rel), (alpha, skew)


def test_sliced_cms_is_bitwise_the_whole_array_transform():
    # sizes below, at and across the slice length, and a 2-d block
    sizes = (5, CMS_SLICE, CMS_SLICE + 1, 40_000, (37, 1000))
    for i, alpha in enumerate((0.1, 0.5, 0.7, 1.2, 1.5, 1.99)):
        for j, skew in enumerate((-1.0, 0.0, 0.5, 1.0)):
            for size in sizes:
                seed = SeedSpec(79 + i, stream=j)
                gen, oracle_gen = seed.generator(), seed.generator()
                with np.errstate(all="ignore"):
                    got = _cms_standard(alpha, skew, gen, size)
                    want = tangent_cms_standard(alpha, skew, oracle_gen, size)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (alpha, skew, size)
                assert gen.random() == oracle_gen.random()


def test_sliced_cms_holds_two_full_arrays():
    # V and W at full size and two slice-sized scratch arrays; the whole
    # array transform held four
    size = 200_000
    gen = SeedSpec(83).generator()
    _cms_standard(1.5, 1.0, gen, 10)
    tracemalloc.start()
    try:
        _cms_standard(1.5, 1.0, gen, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * size  # measured 2.16 arrays


class EdgeDraws:
    """Stub generator that returns fixed uniforms and exponentials."""

    def __init__(self, u, w):
        self.u, self.w = u, w

    def random(self, size):
        return self.u.copy()

    def standard_exponential(self, size):
        return self.w.copy()

    def exponential(self, scale, size):
        return scale * self.w


def test_tangent_cms_edge_draws():
    # u = 0 and u = 1 - 2^-53 are drawn as u = CMS_U_FLOOR and 1 -
    # CMS_U_FLOOR (the endpoint tests below), so the oracle gets the clipped
    # uniforms
    u = np.repeat([0.0, 1.0 - 2.0**-53, 0.5], 2)
    w = np.tile([0.0, 1.0], 3)
    clipped = np.clip(u, CMS_U_FLOOR, 1.0 - CMS_U_FLOOR)
    for alpha in CMS_ALPHAS:
        for skew in CMS_SKEWS:
            with np.errstate(all="ignore"):
                got = _cms_standard(alpha, skew, EdgeDraws(u, w), u.size)
                want = cms_standard(alpha, skew, EdgeDraws(clipped, w), u.size)
            fin = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), fin), (alpha, skew)
            assert np.all(np.abs(got[fin] - want[fin]) <= 1e-13 * np.abs(want[fin])), (alpha, skew)


def test_cms_draws_keep_their_limit_at_u_zero():
    # for a totally skewed law with 1 < alpha < 2 the draw tends to a finite
    # limit as u -> 0, -alpha S (alpha - 1)^((1 - alpha)/alpha) at W = 1,
    # which is -1.5 * 2^(2/3) at (1.5, 1); unfloored, u = 0 drew +3.592 and
    # u = 2^-53 drew -2.520
    u = np.array([0.0, 2.0**-53, 2.0**-52, 2.0**-40])
    w = np.ones(u.size)
    for alpha, skew in ((1.5, 1.0), (1.5, 0.0)):
        with np.errstate(all="ignore"):
            got = _cms_standard(alpha, skew, EdgeDraws(u, w), u.size)
        assert np.all(np.sign(got) == np.sign(got[-1])), (alpha, skew, got)
        if skew:
            assert np.all(np.abs(got - got[-1]) <= 1e-6 * abs(got[-1])), got
            limit = -1.5 * 2.0 ** (2.0 / 3.0)
            assert abs(got[-1] - limit) <= 1e-7 * abs(limit)  # measured 1e-8


def test_cms_draws_keep_their_limit_at_u_one():
    # the mirror of u -> 0: at skew = -1 the draw tends to the finite limit
    # +alpha S (alpha - 1)^((1 - alpha)/alpha) as u -> 1 at W = 1, which is
    # +1.5 * 2^(2/3) at (1.5, -1); unclipped, u = 1 - 2^-53 drew 2.5198
    u = np.array([1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-40])
    with np.errstate(all="ignore"):
        got = _cms_standard(1.5, -1.0, EdgeDraws(u, np.ones(u.size)), u.size)
    assert np.all(np.abs(got - got[-1]) <= 1e-6 * abs(got[-1])), got
    limit = 1.5 * 2.0 ** (2.0 / 3.0)
    assert np.all(np.abs(got - limit) <= 1e-7 * limit), got


def test_skewed_s1_characteristic_function():
    # E exp(iuX) = exp(-|u|^a (1 - i skew sgn(u) tan(pi a / 2))) at sigma = 1;
    # the noise of a 2e5-draw mean of exp(iuX) is about 0.0022
    us = np.array([0.3, 1.0, 2.0])
    for k, (alpha, skew) in enumerate(((1.5, 1.0), (1.2, -0.7), (0.7, 0.4))):
        x = sample_stable(StableParams(alpha, skew, 1.0), SeedSpec(73, stream=k), 200_000)
        emp = np.array([np.mean(np.exp(1j * u * x)) for u in us])
        want = np.exp(-(us**alpha) * (1.0 - 1j * skew * math.tan(math.pi * alpha / 2.0)))
        assert np.max(np.abs(emp - want)) < 0.01, (alpha, skew)


def test_gaussian_case():
    # alpha=2 draws are N(0, 2 scale^2); scale 1/sqrt(2) gives unit variance
    x = sample_stable(StableParams(2.0, 0.0, 1.0 / math.sqrt(2.0)), SeedSpec(23), 200_000)
    assert abs(np.std(x) - 1.0) < 0.02
    assert abs(np.mean(x)) < 0.02
    y = sample_stable(StableParams(2.0, 0.0, 1.0), SeedSpec(29), 200_000)
    assert abs(np.std(y) - math.sqrt(2.0)) < 0.02


def test_stability_under_convolution():
    k = 100
    reps = 100_000
    for alpha, skew in ((0.7, 1.0), (1.5, 0.0)):
        params = StableParams(alpha, skew, 1.0)
        pool = sample_stable(params, SeedSpec(31), k * reps)
        summed = pool.reshape(reps, k).sum(axis=1) * k ** (-1.0 / alpha)
        direct = sample_stable(params, SeedSpec(31, stream=1), reps)
        a, b = np.sort(summed), np.sort(direct)
        grid = np.concatenate([a, b])
        ks = np.max(
            np.abs(
                np.searchsorted(a, grid, side="right") / reps
                - np.searchsorted(b, grid, side="right") / reps
            )
        )
        assert ks < 0.03, (alpha, ks)


def test_determinism_and_stream_separation():
    p = StableParams(1.3, 0.2, 0.7)
    a = sample_stable(p, SeedSpec(101), 1000)
    b = sample_stable(p, SeedSpec(101), 1000)
    assert np.array_equal(a, b)
    c = sample_stable(p, SeedSpec(101, stream=1), 1000)
    assert not np.array_equal(a, c)
    d = sample_stable(p, SeedSpec(102), 1000)
    assert not np.array_equal(a, d)


def test_stream_cross_correlation():
    n = 100_000
    law = InnovationLaw(2.0, mode="gaussian")
    a = sample_innovation(law, SeedSpec(37), n)
    b = sample_innovation(law, SeedSpec(37, stream=1), n)
    corr = np.dot(a - a.mean(), b - b.mean()) / (n * a.std() * b.std())
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_symmetric_innovation_properties():
    for alpha in (0.7, 1.5):
        x = sample_innovation(InnovationLaw(alpha, mode="symmetric"), SeedSpec(41), 100_000)
        assert np.all(np.abs(x) >= 1.0)
        assert abs(np.mean(x > 0) - 0.5) < 0.01
        tail = np.mean(np.abs(x) > 2.0)
        assert abs(tail - 2.0 ** (-alpha)) < 0.01


def test_sliced_signs_are_bitwise_the_two_array_draw():
    # sizes below, at and across the slice length, and a 2-d block: the
    # values, the signs of any zeros and the stream position after the draw
    sizes = (1, CMS_SLICE - 1, CMS_SLICE, CMS_SLICE + 1, 3 * CMS_SLICE + 7, (37, 1000))
    for i, alpha in enumerate((0.7, 1.5)):
        law = InnovationLaw(alpha, "symmetric", scale=1.3)
        for j, size in enumerate(sizes):
            seed = SeedSpec(89 + i, stream=j)
            gen, oracle_gen = seed.generator(), seed.generator()
            got = draw_innovation(law, gen, size)
            want = two_array_innovation(law, oracle_gen, size)
            assert got.shape == want.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (alpha, size)
            assert gen.random() == oracle_gen.random()


def test_centered_innovation_properties():
    alpha = 1.5
    x = sample_innovation(InnovationLaw(alpha, mode="centered"), SeedSpec(43), 200_000)
    # adding back the Pareto mean must recover the support [1, inf)
    shift = alpha / (alpha - 1.0)
    assert np.all(x + shift >= 1.0 - 1e-12)
    assert abs(np.mean(x)) < 3.0 * np.std(x) / math.sqrt(x.size)


def test_raw_innovation_properties():
    x = sample_innovation(InnovationLaw(0.7, mode="raw"), SeedSpec(47), 100_000)
    assert np.all(x >= 1.0)
    assert abs(np.mean(x > 10.0) - 10.0 ** (-0.7)) < 0.005


def test_gaussian_innovation_is_standard_normal():
    x = sample_innovation(InnovationLaw(2.0, mode="gaussian"), SeedSpec(53), 200_000)
    assert abs(np.std(x) - 1.0) < 0.01
    assert abs(np.mean(x)) < 0.01


def test_innovation_mode_validation():
    with pytest.raises(ParameterError):
        InnovationLaw(1.0, mode="centered")
    with pytest.raises(ParameterError):
        InnovationLaw(0.8, mode="centered")
    with pytest.raises(ParameterError):
        InnovationLaw(1.5, mode="gaussian")
    with pytest.raises(ParameterError):
        InnovationLaw(2.0, mode="symmetric")
    with pytest.raises(ParameterError):
        InnovationLaw(1.5, mode="raw")
    with pytest.raises(ParameterError):
        InnovationLaw(1.5, mode="bogus")


def test_waiting_properties():
    law = WaitingLaw(0.6)
    x = sample_waiting(law, SeedSpec(59), 100_000)
    assert np.all(x >= 1.0)
    assert abs(np.mean(x > 10.0) - 10.0 ** (-0.6)) < 0.005
    with pytest.raises(ParameterError):
        WaitingLaw(1.0)
    with pytest.raises(ParameterError):
        WaitingLaw(0.0)


def test_waiting_mean_diverges():
    # infinite-mean check: the running mean at 1e5 exceeds the one at 1e3
    # for most seeds.  The true win rate is 86% +- 2% (400-seed MC): a
    # finite-mean law would sit near 50%, so >= 75 of 100 separates cleanly.
    wins = 0
    law = WaitingLaw(0.8)
    for s in range(100):
        x = sample_waiting(law, SeedSpec(1000 + s), 100_000)
        if np.mean(x) > np.mean(x[:1000]):
            wins += 1
    assert wins >= 75


def test_attractor_params_closed_forms():
    def pareto_scale(alpha):
        return (math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (1.0 - alpha)) ** (1.0 / alpha)

    p = attractor_params(InnovationLaw(1.5, mode="symmetric"))
    assert p.alpha == 1.5 and p.skew == 0.0
    assert abs(p.scale - pareto_scale(1.5)) < 1e-12
    assert abs(p.scale - 1.84527) < 1e-4

    p = attractor_params(InnovationLaw(1.0, mode="symmetric"))
    assert abs(p.scale - math.pi / 2.0) < 1e-12

    # one-sided alpha<1 sums live in the Laplace-transform convention:
    # 1 - E exp(-lam theta) ~ Gamma(1-alpha) lam^alpha
    p = attractor_params(InnovationLaw(0.7, mode="raw"))
    assert p.alpha == 0.7 and p.skew == 1.0
    assert abs(p.scale - math.gamma(0.3) ** (1.0 / 0.7)) < 1e-12

    p = attractor_params(InnovationLaw(1.5, mode="centered"))
    assert p.skew == 1.0
    assert abs(p.scale - pareto_scale(1.5)) < 1e-12

    p = attractor_params(InnovationLaw(2.0, mode="gaussian"))
    assert p.alpha == 2.0 and abs(p.scale - 1.0 / math.sqrt(2.0)) < 1e-12

    assert abs(wait_attractor_scale(0.5) - math.pi) < 1e-12
    assert abs(wait_attractor_scale(0.8) - math.gamma(0.2) ** 1.25) < 1e-12
    assert abs(wait_attractor_scale(0.5, scale=2.0) - 2.0 * math.pi) < 1e-12
    # outside (0, 1) Gamma(1 - beta)^(1/beta) is complex, or undefined
    for beta in (1.5, 1.0, 0.0, -0.2):
        with pytest.raises(ParameterError) as err:
            wait_attractor_scale(beta)
        assert err.value.tag == "PARAM_BETA_RANGE"


def test_attractor_laws_match_sampling():
    # n^{-1/alpha} sums of symmetric Pareto innovations vs the declared
    # attractor, two-sample KS at moderate size
    law = InnovationLaw(1.5, mode="symmetric")
    n, reps = 2000, 20_000
    pool = sample_innovation(law, SeedSpec(61), n * reps).reshape(reps, n)
    sums = pool.sum(axis=1) * n ** (-1.0 / 1.5)
    direct = sample_stable(attractor_params(law), SeedSpec(61, stream=1), reps)
    a, b = np.sort(sums), np.sort(direct)
    grid = np.concatenate([a, b])
    ks = np.max(
        np.abs(
            np.searchsorted(a, grid, side="right") / reps
            - np.searchsorted(b, grid, side="right") / reps
        )
    )
    assert ks < 0.025
