import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from _brute import (
    grid_terminal_inverse_subordinator,
    grid_terminal_time_changed,
    invert_monotone_grid,
    walk_limit,
)
from ctrwlab import (
    DataError,
    GridPath,
    InnovationLaw,
    ParameterError,
    ProcessConfig,
    SeedSpec,
    StableParams,
    StepPath,
    WaitingLaw,
    avci_functional,
    gen_counting,
    gen_ctrw,
    gen_moving_average,
    gen_subordinator_inverse,
    gen_time_changed_levy,
    ks_two_sample,
    limit_laws,
    wait_attractor_scale,
)
from ctrwlab.processes import (
    BLOCK,
    INNOVATION_LANE,
    PASSAGE_ROUND,
    WAIT_LANE,
    WAIT_ROUND_MIN,
    _block,
    _block_zeta,
    _first_passage,
    _live_slots,
    _step_law,
    _t_nodes,
    _time_changed_block,
    _wait_round_widths,
    _wait_rounds,
    iter_ctrw_chunks,
    terminal_counting_samples,
    terminal_inverse_subordinator_samples,
    terminal_samples,
    terminal_time_changed_samples,
)
from ctrwlab.rng import attractor_params, draw_innovation, draw_stable, draw_waiting


def const_innovation(seq, alpha=1.0):
    seq = np.asarray(seq, dtype=float)

    def draw(gen, size):
        if size > seq.size:
            raise AssertionError(f"injection exhausted: asked {size}")
        return seq[:size].copy()

    return SimpleNamespace(alpha=alpha, mode="symmetric", scale=1.0, draw=draw)


def const_waits(seq, beta=0.5, pad=1000.0):
    seq = np.asarray(seq, dtype=float)

    def draw(gen, size):
        out = np.full(size, pad)
        k = min(size, seq.size)
        out[:k] = seq[:k]
        return out

    return SimpleNamespace(beta=beta, scale=1.0, draw=draw)


def test_config_validation():
    law = InnovationLaw(1.5, "symmetric")
    cfg = ProcessConfig(law, coefficients=(1.0, 0.5, 0.0))
    assert cfg.coefficients == (1.0, 0.5)  # trailing zeros trimmed
    assert cfg.past_horizon == 1
    assert cfg.psi == 1.5
    assert cfg.correlated
    assert ProcessConfig(law, coefficients=(2.0, 0.0)).correlated is False
    with pytest.raises(ParameterError):
        ProcessConfig(law, coefficients=(0.0, 1.0))
    with pytest.raises(ParameterError):
        ProcessConfig(law, coefficients=(1.0, -0.5))
    with pytest.raises(ParameterError):
        ProcessConfig(law, n=0)
    # a walk's waits never depend on its innovations: there is no coupling
    for kw in ({"coupling": "weird"}, {"coupling": "magnitude-coupled"},
               {"waiting": WaitingLaw(0.8), "coupling": "magnitude-coupled"},
               {"waiting": WaitingLaw(0.8), "coupling": "uncoupled"}):
        with pytest.raises(TypeError):
            ProcessConfig(law, **kw)


def test_moving_average_hand_example():
    # c=(1, 0.5), theta_0=-1, theta_1=3, theta_2=1, n=1, alpha=1
    law = const_innovation([9.0, -1.0, 3.0, 1.0])  # theta_{-1} unused
    cfg = ProcessConfig(law, coefficients=(1.0, 0.5), n=1)
    b = gen_moving_average(cfg, 2.0, SeedSpec(1))
    assert np.array_equal(b.x.times, [0.0, 1.0, 2.0])
    assert np.allclose(b.x.values, [0.0, 2.5, 5.0])
    assert np.allclose(b.x.jump_sizes(), [2.5, 2.5])
    assert _brute.theta(b, 0) == -1.0
    assert _brute.theta(b, 2) == 1.0
    assert _brute.theta(b, -1) == 9.0
    assert b.jump_count == 2
    with pytest.raises(DataError):
        _brute.theta(b, 3)
    # the theta_{-1} slot is beyond the c support: changing it cannot move X
    law2 = const_innovation([-100.0, -1.0, 3.0, 1.0])
    b2 = gen_moving_average(ProcessConfig(law2, coefficients=(1.0, 0.5), n=1), 2.0, SeedSpec(1))
    assert np.array_equal(b.x.values, b2.x.values)
    # counting path of a moving average is the unit staircase
    assert b.counting.value(0.99) == 0.0
    assert b.counting.value(1.0) == 1.0
    assert b.counting.value(2.0) == 2.0


def test_moving_average_zero_innovations():
    law = const_innovation(np.zeros(16))
    b = gen_moving_average(ProcessConfig(law, n=8), 1.0, SeedSpec(2))
    assert np.all(b.x.values == 0.0)
    assert b.jump_count == 8


def test_moving_average_validation():
    law = InnovationLaw(1.5, "symmetric")
    with pytest.raises(ParameterError):
        gen_moving_average(ProcessConfig(law, waiting=WaitingLaw(0.5)), 1.0, SeedSpec(3))
    with pytest.raises(ParameterError):
        gen_moving_average(ProcessConfig(law), 0.0, SeedSpec(3))


def test_moving_average_gaussian_clt():
    cfg = ProcessConfig(InnovationLaw(2.0, "gaussian"), n=10_000)
    samples = terminal_samples(cfg, 1.0, 10_000, SeedSpec(103))
    oracle = np.random.default_rng(104).normal(size=10_000)
    stat, _ = ks_two_sample(samples, oracle)
    assert stat <= 0.02


def test_ctrw_hand_counting():
    wait = const_waits([0.5, 1.2, 0.3], beta=0.5)
    law = const_innovation(np.ones(8), alpha=1.5)
    cfg = ProcessConfig(law, waiting=wait, n=1)
    b = gen_ctrw(cfg, 2.0, SeedSpec(4))
    # L = (0.5, 1.7, 2.0) so N_2 = 3
    assert b.counting.value(2.0) == 3.0
    assert b.counting.value(0.49) == 0.0
    assert b.x.value(0.49) == 0.0  # zero before the first renewal
    assert np.array_equal(b.x.jump_times(), [0.5, 1.7, 2.0])
    # the counting path's jump times are the running sums of the waits
    assert np.array_equal(b.counting.times[1:], np.cumsum([0.5, 1.2, 0.3]))
    with pytest.raises(ParameterError):
        gen_ctrw(ProcessConfig(law), 1.0, SeedSpec(4))


def test_ctrw_with_unit_waits_matches_moving_average():
    # deterministic J = 1 and beta = 1 scaling reproduce the moving average
    # from the same innovation stream, bit for bit
    law = InnovationLaw(1.5, "symmetric")
    unit = SimpleNamespace(beta=1.0, scale=1.0, draw=lambda gen, size: np.ones(size))
    seed = SeedSpec(5)
    ctrw = gen_ctrw(ProcessConfig(law, waiting=unit, coefficients=(1.0, 0.5), n=7), 1.0, seed)
    ma = gen_moving_average(ProcessConfig(law, coefficients=(1.0, 0.5), n=7), 1.0, seed)
    assert np.array_equal(ctrw.x.times, ma.x.times)
    assert np.array_equal(ctrw.x.values, ma.x.values)


def test_reconstruction_exact():
    seeds = SeedSpec(6)
    law = InnovationLaw(1.5, "symmetric")
    configs = [
        ProcessConfig(law, n=50),
        ProcessConfig(law, coefficients=(1.0, 0.5, 0.25), n=31),
        ProcessConfig(law, waiting=WaitingLaw(0.8), coefficients=(1.0, 0.5), n=40),
        ProcessConfig(law, waiting=WaitingLaw(0.6), past_horizon=2, n=25),
    ]
    for cfg in configs:
        gen = gen_moving_average if cfg.waiting is None else gen_ctrw
        b = gen(cfg, 1.0, seeds)
        rebuilt = _brute.rebuild_x(b)
        assert np.array_equal(rebuilt.times, b.x.times)
        assert np.array_equal(rebuilt.values, b.x.values)
        # independent reconstruction straight from the records
        zeta = np.convolve(b.innovations, cfg.coefficients)[
            b.past + 1 : b.past + 1 + b.jump_count
        ]
        # the stored values are the running sum of the scaled filter output
        want = np.concatenate([[0.0], np.cumsum(cfg.prefactor * zeta)])
        assert np.array_equal(b.x.values, want)


def assert_same_bundle(got, oracle, edge=False):
    # oracle: the (bundle, waits) of a _brute generator. edge: np.convolve
    # sums the partial overlaps at its left edge with a BLAS dot, which may
    # round differently from a plain sum; those are the first order - past -
    # 1 jumps when past < order - 1
    want, waits = oracle
    for a, b in (
        (got.x.times, want.x.times),
        (got.counting.times, want.counting.times),
        (got.counting.values, want.counting.values),
        (got.innovations, want.innovations),
        (got.counting.times[1:], np.cumsum(waits) / got.config.n),
    ):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert got.past == want.past
    if edge:
        assert np.allclose(got.x.values, want.x.values, rtol=1e-13, atol=1e-13)
    else:
        assert np.array_equal(got.x.values, want.x.values)


PER_PATH_FILTERS = [((1.0,), None), ((1.0, 0.5), None), ((1.0, 0.5), 0),
                    ((0.7, 0.2, 0.9), None), ((0.7, 0.2, 0.9), 1), ((1.0, 0.0, 0.3), 1),
                    ((0.7, 0.2, 0.9), 0)]


def test_per_path_generators_match_their_own_loops():
    # the one-row block on the per-path lanes is bitwise the old per-path
    # draw loops with their np.convolve filter, past horizon below the order
    # included
    laws = (InnovationLaw(1.5, "symmetric"), InnovationLaw(1.2, "centered"), InnovationLaw(2.0, "gaussian"))
    for i, (coeffs, past) in enumerate(PER_PATH_FILTERS):
        edge = past is not None and past < len(coeffs) - 2
        for j, law in enumerate(laws):
            seed = SeedSpec(600 + i, stream=j)
            for n, T in ((7, 1.0), (40, 2.5)):
                cfg = ProcessConfig(law, coefficients=coeffs, past_horizon=past, n=n)
                want = _brute.gen_moving_average(cfg, T, seed)
                assert_same_bundle(gen_moving_average(cfg, T, seed), want, edge)
            for beta, n, T in ((0.6, 50, 1.0), (0.9, 300, 0.7)):
                cfg = ProcessConfig(law, WaitingLaw(beta), coefficients=coeffs, past_horizon=past, n=n)
                assert_same_bundle(gen_ctrw(cfg, T, seed), _brute.gen_ctrw(cfg, T, seed), edge)
    for k, beta in enumerate((0.3, 0.8)):
        got = gen_counting(WaitingLaw(beta), 200, 1.5, SeedSpec(650 + k))
        want = _brute.gen_counting(WaitingLaw(beta), 200, 1.5, SeedSpec(650 + k))
        for a, b in zip(got, want):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)


@pytest.mark.parametrize("bad", [-0.2, 0.0, math.nan])
def test_block_samplers_reject_waits_not_positive(bad):
    wait = const_waits([0.5, bad, 0.3], beta=0.5)
    cfg = ProcessConfig(InnovationLaw(1.5, "symmetric"), waiting=wait, n=10)
    with pytest.raises(DataError):
        next(iter_ctrw_chunks(cfg, 1.0, 5, SeedSpec(14), True))
    with pytest.raises(DataError):
        terminal_counting_samples(wait, 10, 1.0, 5, SeedSpec(14))
    with pytest.raises(DataError):
        gen_ctrw(cfg, 1.0, SeedSpec(14))


def test_first_passage_matches_fixed_round_loop():
    # the shared round loop keeps the subordinator levels bitwise, with rows
    # that pass in the first round and, on the slow law, in later ones
    for i, (beta, T, h, m, share) in enumerate(
        ((0.7, 1.0, 2.0**-8, 300, None), (0.4, 2.5, 2.0**-6, 40, 0.05), (0.9, 0.3, 2.0**-10, 1, None))
    ):
        if share is None:
            d_inc = _step_law(walk_limit(1.5, beta)[1], h)
        else:
            d_inc = _step_law(StableParams(beta, 1.0, share * T / (PASSAGE_ROUND * h) ** (1.0 / beta)), h)
        for s in range(3):
            spec = SeedSpec(680 + i, stream=s)
            got = _first_passage(d_inc, T, m, spec.generator(0))
            want = _brute.fixed_round_first_passage(d_inc, T, m, spec.generator(0))
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "beta, scale, n, T", [(0.8, 1.0, 10**4, 1.0), (0.8, 0.05, 10**3, 1.0), (0.5, 1.0, 200, 2.0)]
)
def test_wait_rounds_stop_at_each_rows_passage(beta, scale, n, T):
    law, target, m = WaitingLaw(beta, scale), n * T, 200
    first, later = _wait_round_widths(law, target)
    spec = SeedSpec(690, stream=int(n))
    gen, oracle = spec.generator(0), spec.generator(0)
    counts, Lf = _wait_rounds(law, gen, m, target, True)
    # the rounds side by side, +inf after a row's last round
    J, L = _brute.padded_grow_wait_matrix(law, oracle, m, target)
    assert np.array_equal(L, np.cumsum(J, axis=1))
    live = L <= target
    assert np.array_equal(counts, live.sum(axis=1))
    # the flat running sums are each row's live cumsum of the oracle's
    # waits, row after row, and the rounds leave the generator where the
    # oracle's leave it
    assert np.array_equal(Lf, np.cumsum(J, axis=1)[live])
    assert gen.random() == oracle.random()
    # without kept entries the counts are the same draws'
    bare, Lb = _wait_rounds(law, spec.generator(0), m, target, False)
    assert np.array_equal(bare, counts) and Lb is None
    finite = np.isfinite(J).sum(axis=1)
    # +inf only after a row's finite waits, which are whole rounds
    assert np.array_equal(np.isfinite(J), np.arange(J.shape[1]) < finite[:, None])
    assert np.all(finite >= first) and np.all((finite - first) % later == 0)
    # every row's finite waits pass the target, and no row got a round
    # after the one in which it passed
    rows = np.arange(m)
    assert np.all(L[rows, finite - 1] > target)
    more = finite > first
    assert np.all(L[rows[more], finite[more] - later - 1] <= target)
    if scale < 1.0:
        assert np.any(finite > first + later)
    # the rounds are the law's draws for the rows still at or below the
    # target, in row order
    replay = spec.generator(0)
    lo, width = 0, first
    while lo < J.shape[1]:
        live = np.flatnonzero(finite > lo)
        assert np.array_equal(J[live, lo : lo + width], draw_waiting(law, replay, (live.size, width)))
        lo, width = lo + width, later


def test_first_wait_round_is_sized_by_the_renewal_function():
    # the first round is the renewal function U(t) ~ sin(pi b)/(pi b) t^b of
    # Pareto(b) waits; a first round of twice U, as 0.5 t^b + 32 is at
    # b = 0.8, draws about two waits per renewal counted and throws half away
    beta, target, m = 0.8, 10**4, 2000
    law = WaitingLaw(beta)
    share = math.sin(math.pi * beta) / (math.pi * beta)
    renewal = share * target**beta
    assert _wait_round_widths(law, target) == (int(renewal) + 32, (int(renewal) + 32) // 2)
    assert _wait_round_widths(WaitingLaw(beta, 0.05), target)[0] == int(share * (target / 0.05) ** beta) + 32
    assert _wait_round_widths(law, 10) == (WAIT_ROUND_MIN, WAIT_ROUND_MIN)
    drawn = []

    def draw(gen, size):
        drawn.append(int(np.prod(size)))
        return draw_waiting(law, gen, size)

    counting = SimpleNamespace(beta=beta, scale=1.0, draw=draw)
    counts = _wait_rounds(counting, SeedSpec(695).generator(0), m, target, False)[0]
    assert sum(drawn) / counts.sum() <= 1.5
    assert abs(counts.mean() / renewal - 1.0) <= 0.2


def test_block_draws_innovations_up_to_each_rows_count():
    law = InnovationLaw(1.5, "symmetric")
    cfg = ProcessConfig(law, WaitingLaw(0.8), coefficients=(1.0, 0.5, 0.25), past_horizon=1, n=1000)
    n, T, past, reps, seed = cfg.n, 0.7, cfg.past_horizon, 600, SeedSpec(695)
    for lo, rb in zip((0, BLOCK), iter_ctrw_chunks(cfg, T, reps, seed, True)):
        counts, peff, starts = rb["counts"], rb["peff"], rb["starts"]
        m = counts.size
        J, L = _brute.padded_grow_wait_matrix(cfg.waiting, seed.generator((WAIT_LANE, lo)), m, n * T)
        live = L <= n * T
        assert np.array_equal(counts, live.sum(axis=1)) and counts.min() < counts.max()
        # theta_{-past}, ..., theta_{counts} of every row are one flat draw,
        # row after row, behind the filter's zero past
        assert np.array_equal(starts, np.concatenate([[0], np.cumsum(peff + 1 + counts)]))
        pad = (starts[:-1, None] + np.arange(peff - past)).ravel()
        assert np.all(rb["theta"][pad] == 0.0)
        flat = draw_innovation(law, seed.generator((INNOVATION_LANE, lo)), int((past + 1 + counts).sum()))
        assert np.array_equal(np.delete(rb["theta"], pad), flat)
        # the jump times of each row's renewals, row after row, are its
        # live cumsum of the oracle's waits; the waits are not kept
        assert np.array_equal(rb["times"], L[live] / n)
        assert np.array_equal(rb["times"], np.cumsum(J, axis=1)[live] / n) and "waits" not in rb
        # without keep, the same draws
        bare = _block(cfg, T, m, seed.generator((WAIT_LANE, lo)), seed.generator((INNOVATION_LANE, lo)), False)
        assert bare["times"] is None and "waits" not in bare
        for key in ("counts", "theta", "starts"):
            assert np.array_equal(bare[key], rb[key])
        assert "zeta" not in rb
    # a moving average draws the rectangle, as before the per-row rounds,
    # and jumps at k/n
    ma = ProcessConfig(law, coefficients=(1.0, 0.5, 0.25), past_horizon=1, n=100)
    rb = next(iter_ctrw_chunks(ma, T, 300, seed, True))
    want = _brute.rect_block(ma, T, 300, None, seed.generator((INNOVATION_LANE, 0)))[0]
    rows = (300, -1)
    assert np.array_equal(rb["counts"], want["counts"])
    assert np.array_equal(rb["theta"].reshape(rows), want["theta"])
    assert np.array_equal(_block_zeta(ma, rb).reshape(rows)[:, rb["peff"] + 1 :], want["zeta"])
    assert np.array_equal(rb["times"].reshape(rows), want["times"]) and "waits" not in rb


def test_kept_block_holds_no_flat_waits():
    # a kept n = 10^4, beta = 0.8 block holds its flat times and theta, two
    # arrays of about N = sum of counts floats each; flat waits J_k beside
    # them would make three, and their gather a fourth at the peak
    cfg = ProcessConfig(InnovationLaw(1.5, "symmetric"), WaitingLaw(0.8), n=10**4)
    seed = SeedSpec(731)
    flat = int(next(iter_ctrw_chunks(cfg, 1.0, BLOCK, seed, False))["counts"].sum()) * 8
    tracemalloc.start()
    try:
        rb = next(iter_ctrw_chunks(cfg, 1.0, BLOCK, seed, True))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "waits" not in rb
    assert held <= 2.5 * flat  # measured 2.01; 3.01 with the waits kept
    assert peak <= 3.75 * flat  # measured 3.26; 4.51 with the waits kept


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_padded_blocks_keep_the_padded_oracle_live_entries(n):
    # the ragged blocks hold the live entries of the padded oracle's blocks
    T, reps = 1.3, BLOCK + 40
    for i, cfg in enumerate(_brute.ragged_configs(n)):
        seed = SeedSpec(710 + i, stream=n)
        oracle = _brute.padded_blocks(cfg, T, reps, seed)
        for rb, (lo, want) in zip(iter_ctrw_chunks(cfg, T, reps, seed, True), oracle, strict=True):
            mask, counts, peff = want["mask"], want["counts"], want["peff"]
            assert rb["peff"] == peff and np.array_equal(rb["counts"], counts)
            # theta_{-peff}, ..., theta_{counts} of every row, the zero past
            # included, and zeta and the times at the live slots
            drawn = np.arange(peff + 1 + mask.shape[1]) < (peff + 1 + counts)[:, None]
            assert np.array_equal(rb["theta"], want["theta"][:, : drawn.shape[1]][drawn])
            live, zeta = _live_slots(rb), _block_zeta(cfg, rb)
            assert np.array_equal(zeta[live], want["zeta"][mask])
            assert not np.any(np.delete(zeta, live))
            assert np.array_equal(rb["times"], want["times"][mask])
            if n == 1 and cfg.waiting is not None:
                assert np.any(counts == 0)


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_bundles_are_the_padded_one_row_block(n):
    # gen_moving_average and gen_ctrw read the one-row block on the
    # per-path lanes: its innovations, jumps and jump times equal the padded
    # oracle's row, bit for bit, rows without a renewal included, and the
    # jump times are the live cumsum of the oracle's waits
    T = 1.3
    for i, cfg in enumerate(_brute.ragged_configs(n)):
        gen = gen_ctrw if cfg.waiting is not None else gen_moving_average
        for s in range(4):
            seed = SeedSpec(750 + i, stream=4 * n + s)
            b = gen(cfg, T, seed)
            blk, J = _brute.padded_block(cfg, T, 1, seed.generator(WAIT_LANE), seed.generator(INNOVATION_LANE))
            K, peff, past = int(blk["counts"][0]), blk["peff"], cfg.past_horizon
            assert np.array_equal(b.innovations, blk["theta"][0, peff - past : peff + 1 + K])
            x = StepPath.from_jumps(blk["times"][0, :K], blk["zeta"][0, :K], T)
            assert np.array_equal(b.x.times, x.times) and np.array_equal(b.x.values, x.values)
            assert np.array_equal(b.counting.times[1:], np.cumsum(np.ones(K) if J is None else J[0, :K]) / cfg.n)
            assert np.array_equal(b.counting.times[1:], blk["times"][0, :K])


@pytest.mark.parametrize("n", [1, 7, 100, 1000])
def test_terminal_samples_match_padded_sum(n):
    # the row sums run over each row's own renewals, so they may round
    # apart from the padded ones: within 1e-12 sum |zeta| per row
    T, reps = 1.3, BLOCK + 40
    for i, cfg in enumerate(_brute.ragged_configs(n)):
        seed = SeedSpec(720 + i, stream=n)
        got = terminal_samples(cfg, T, reps, seed)
        want = _brute.padded_terminal_samples(cfg, T, reps, seed)
        size = np.concatenate(
            [
                np.add.reduceat(np.abs(_block_zeta(cfg, rb)), rb["starts"][:-1])
                for rb in iter_ctrw_chunks(cfg, T, reps, seed, False)
            ]
        )
        assert np.all(np.abs(got - want) <= 1e-12 * size)


def test_terminal_block_allocates_no_padded_array():
    # at beta = 0.5 a block's largest count K is about four times the mean,
    # so one (m, K) float array outweighs all that a terminal block holds:
    # its flat theta (N = sum of peff + 1 + counts slots), one slice of
    # sign uniforms and one round of waits at a time. No jumps are built,
    # so a correlated walk and a moving average hold no more than theta
    # either
    sym = InnovationLaw(1.5, "symmetric")
    configs = (
        ProcessConfig(sym, WaitingLaw(0.5), n=10**5),
        ProcessConfig(sym, WaitingLaw(0.8), coefficients=(1.0, 0.5), n=10**4),
        ProcessConfig(sym, n=10**4),
    )
    for i, cfg in enumerate(configs):
        seed = SeedSpec(730 + i)
        rb = next(iter_ctrw_chunks(cfg, 1.0, BLOCK, seed, False))
        padded = BLOCK * int(rb["counts"].max()) * 8
        flat = rb["theta"].nbytes
        del rb
        tracemalloc.start()
        try:
            terminal_samples(cfg, 1.0, BLOCK, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * flat, i  # measured 1.42, 1.08, 1.00
        if i == 0:
            assert peak <= 2.5 * flat
            assert peak < 0.75 * padded  # measured 0.39


def test_per_row_draws_keep_the_walk_laws():
    # new against the rectangular draw on independent seeds, at the
    # two-sample KS floor 1.36 sqrt(2 / N)
    N = 4000
    floor = 1.36 * math.sqrt(2.0 / N)
    cfg = ProcessConfig(InnovationLaw(1.5, "centered"), WaitingLaw(0.8), coefficients=(1.0, 0.5), n=1000)
    new = terminal_samples(cfg, 1.0, N, SeedSpec(700))
    old = _brute.rect_terminal_samples(cfg, 1.0, N, SeedSpec(701))
    assert ks_two_sample(new, old)[0] <= floor
    new = terminal_counting_samples(WaitingLaw(0.6), 1000, 1.0, N, SeedSpec(702))
    old = _brute.rect_terminal_counting_samples(WaitingLaw(0.6), 1000, 1.0, N, SeedSpec(703))
    assert ks_two_sample(new, old)[0] <= floor


def test_counting_deterministic_staircase():
    unit = SimpleNamespace(beta=0.5, scale=1.0, draw=lambda gen, size: np.ones(size))
    counting, dn = gen_counting(unit, 4, 1.0, SeedSpec(8))
    for t in (0.0, 0.1, 0.25, 0.5, 0.74, 0.75, 1.0):
        assert counting.value(t) == math.floor(4 * t + 1e-12)
    assert dn.value(0.0) == 0.0
    assert np.allclose(dn.values, counting.values * 4.0 ** (-0.5))


def test_counting_attraction_beta07():
    # KS against the exact inverse-subordinator law decreases in n; the
    # residual at n=1e4 is 0.040 +- 0.004 (renewal correction ~ n^{-0.3}),
    # so a 0.03 bound is out of reach at this n
    dinv = terminal_inverse_subordinator_samples(
        StableParams(0.7, 1.0, wait_attractor_scale(0.7)), 1.0, 10_000, SeedSpec(102)
    )
    stats = []
    for n in (1000, 10_000):
        a = terminal_counting_samples(WaitingLaw(0.7), n, 1.0, 10_000, SeedSpec(101))
        stat, _ = ks_two_sample(a, dinv)
        stats.append(stat)
    assert stats[1] < stats[0]
    assert stats[1] <= 0.05


def test_subordinator_inverse_injected_single_jump():
    vals = np.concatenate([np.zeros(4), np.full(7, 1.5)])
    d = GridPath(vals, 0.1, interp="const")
    dinv = invert_monotone_grid(d)
    assert abs(dinv.value(0.0) - 0.4) < 1e-12
    assert abs(dinv.value(1.0) - 0.4) < 1e-12


def test_subordinator_inverse_staircase_identity():
    vals = np.array([0.0, 0.15, 0.32, 0.41, 0.77, 0.93])
    d = GridPath(vals, 0.1, interp="const")
    dinv = invert_monotone_grid(d)
    for k, s in enumerate(d.times):
        lvl = vals[k]
        if lvl <= dinv.horizon:
            assert dinv.value(lvl) >= s - 1e-12


def test_gen_subordinator_inverse_properties():
    d, dinv = gen_subordinator_inverse(StableParams(0.6, 1.0, 1.0), 1.0, 2.0**-8, SeedSpec(9))
    assert np.all(np.diff(d.values) > 0.0)
    assert np.all(np.diff(dinv.values) >= 0.0)
    assert d.values[0] == 0.0
    assert d.values[-1] > 1.0  # simulated past the horizon
    # generalised inverse against its own subordinator: D(dinv_t) > t
    h = 2.0**-8
    for t in (0.0, 0.25, 0.5, 0.75):  # grid-aligned so dinv reads are exact
        s = dinv.value(t)
        k = int(round(s / h))
        assert d.values[k] > t
        assert k == 0 or d.values[k - 1] <= t
    with pytest.raises(ParameterError):
        gen_subordinator_inverse(StableParams(1.2, 1.0, 1.0), 1.0, 0.01, SeedSpec(9))
    with pytest.raises(ParameterError):
        gen_subordinator_inverse(StableParams(0.5, 1.0, 1.0), 1.0, 0.0, SeedSpec(9))


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(0.2, 0.95),
    k=st.integers(4, 8),
    m=st.integers(1, 4),
    T=st.floats(0.05, 2.0),
    on_grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_changed_block_matches_brute_force(beta, k, m, T, on_grid, seed):
    h = 2.0**-k
    if on_grid:
        T = max(1, round(T / h)) * h
    nodes = _t_nodes(T, h)
    z_law, d_law = walk_limit(1.5, beta)
    z_step = _step_law(z_law, h)
    spec = SeedSpec(seed)
    zgen = spec.generator(1)
    counts, zcum = _time_changed_block(d_law, z_law, T, h, m, spec.generator(0), zgen, nodes)
    # the same generator state replays the levels the kernel counted
    D = _first_passage(_step_law(d_law, h), T, m, spec.generator(0))
    assert np.all(D[:, -1] > T)
    at_T = (D <= T).sum(axis=1)
    assert np.array_equal(counts, (D[:, :, None] <= nodes).sum(axis=1))
    # a per-row searchsorted on the finite levels gives the same counts, so
    # the +inf padding is never counted
    for r in range(m):
        row = D[r][np.isfinite(D[r])]
        assert np.array_equal(counts[r], np.searchsorted(row, nodes, side="right"))
    assert np.all(counts <= at_T[:, None])
    # Z starts at zero and has a column for every row's first passage,
    # counts-at-T + 1, and no more
    assert zcum.shape == (m, int(at_T.max()) + 2)
    assert np.all(zcum[:, 0] == 0.0)
    # each row draws exactly J_r + 1 Z steps, row after row, from one flat
    # draw, and stays put after them
    replay = spec.generator(1)
    flat = draw_stable(z_step, replay, int((at_T + 1).sum()))
    assert zgen.random() == replay.random()
    lo = 0
    for r, J in enumerate(at_T):
        assert np.array_equal(zcum[r, 1 : J + 2], np.cumsum(flat[lo : lo + J + 1]))
        assert np.all(zcum[r, J + 2 :] == zcum[r, J + 1])
        lo += J + 1

    # a slow subordinator, whose level after one round is 0.05 T times a
    # unit-scale level, mostly passes T only in the extension rounds; each
    # round draws for the rows still at or below T and for no other
    slow_inc = _step_law(StableParams(beta, 1.0, 0.05 * T / (PASSAGE_ROUND * h) ** (1.0 / beta)), h)
    slow = _first_passage(slow_inc, T, m, spec.generator(2))
    assert np.all(slow[:, -1] > T)
    finite = np.isfinite(slow).sum(axis=1)
    assert np.all(finite % PASSAGE_ROUND == 0)
    replay = spec.generator(2)
    last = np.zeros((m, 1))
    for lo in range(0, slow.shape[1], PASSAGE_ROUND):
        live = np.flatnonzero(finite > lo)
        if lo:
            assert np.array_equal(live, np.flatnonzero(slow[:, lo - 1] <= T))
        lv = np.cumsum(draw_stable(slow_inc, replay, (live.size, PASSAGE_ROUND)), axis=1) + last[live]
        assert np.array_equal(slow[live, lo : lo + PASSAGE_ROUND], lv)
        last[live] = lv[:, -1:]
        assert np.all(slow[finite <= lo, lo : lo + PASSAGE_ROUND] == np.inf)
    for r in range(m):
        row = slow[r, : finite[r]]
        assert np.all(np.diff(row) >= 0.0)
        assert finite[r] == PASSAGE_ROUND or row[-PASSAGE_ROUND - 1] <= T

    d, dinv = gen_subordinator_inverse(StableParams(beta, 1.0, 1.0), T, h, spec)
    inv = invert_monotone_grid(d)
    j = min(dinv.values.size, inv.values.size)
    assert np.array_equal(dinv.values[:j], inv.values[:j])
    assert d.values[-1] > T >= d.values[-2]


def test_inverse_subordinator_mean_beta06():
    reps = 4000
    vals = terminal_inverse_subordinator_samples(StableParams(0.6, 1.0, 1.0), 1.0, reps, SeedSpec(10))
    want = 1.0 / math.gamma(1.6)
    se = vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - want) <= 3.0 * se


def _max_window_mass(x, width):
    """Largest share of the sample in a closed window [x_i, x_i + width]."""
    s = np.sort(x)
    return float((np.searchsorted(s, s + width, side="right") - np.arange(s.size)).max()) / s.size


def test_exact_terminal_laws_match_grid_oracle():
    # The grid first passage G satisfies E <= G <= E + h, so KS(G, E) is at
    # most the largest mass of E in an h-window, which is at most the mass of
    # two adjacent grid atoms of G. Z_G against Z_E, with Z independent of the
    # time change, obeys the same bound.
    n, h = 4000, 2.0**-8
    floor = 1.36 * math.sqrt(2.0 / n)
    for beta in (0.5, 0.8):
        for scale in (1.0, wait_attractor_scale(beta)):
            d_law = StableParams(beta, 1.0, scale)
            grid = grid_terminal_inverse_subordinator(d_law, 1.0, n, SeedSpec(61), grid_step=h)
            bound = floor + _max_window_mass(grid, h)
            exact = terminal_inverse_subordinator_samples(d_law, 1.0, n, SeedSpec(62))
            assert ks_two_sample(grid, exact)[0] <= bound
            for alpha, mode in ((1.5, "symmetric"), (2.0, "gaussian")):
                z_law = attractor_params(InnovationLaw(alpha, mode))
                grid = grid_terminal_time_changed(z_law, d_law, 1.0, n, SeedSpec(63), grid_step=h)
                exact = terminal_time_changed_samples(z_law, d_law, 1.0, n, SeedSpec(64))
                assert ks_two_sample(grid, exact)[0] <= bound
    # reruns are bitwise equal, and E_T = T^beta E_1 on the same draws
    tc = terminal_time_changed_samples(*walk_limit(1.5, 0.8), 1.0, n, SeedSpec(64))
    assert np.array_equal(tc, terminal_time_changed_samples(*walk_limit(1.5, 0.8), 1.0, n, SeedSpec(64)))
    d_law = walk_limit(1.5, 0.5)[1]
    e1 = terminal_inverse_subordinator_samples(d_law, 1.0, n, SeedSpec(62))
    assert np.array_equal(e1, terminal_inverse_subordinator_samples(d_law, 1.0, n, SeedSpec(62)))
    e2 = terminal_inverse_subordinator_samples(d_law, 2.0, n, SeedSpec(62))
    assert np.allclose(e2, 2.0**0.5 * e1, rtol=1e-12, atol=0.0)


def test_terminal_samplers_reject_bad_parameters():
    # a d_law that is not a subordinator's: index outside (0, 1) or skew not 1
    z_law, d_law = walk_limit(1.5, 0.6)
    for bad in (StableParams(1.5, 1.0), StableParams(2.0, 0.0), StableParams(1.0, 0.0),
                StableParams(0.6, 0.0), StableParams(0.6, -1.0), StableParams(0.6, 0.5)):
        for call in (
            lambda: terminal_inverse_subordinator_samples(bad, 1.0, 10, SeedSpec(65)),
            lambda: terminal_time_changed_samples(z_law, bad, 1.0, 10, SeedSpec(65)),
            lambda: gen_subordinator_inverse(bad, 1.0, 0.01, SeedSpec(65)),
            lambda: gen_time_changed_levy(z_law, bad, 1.0, 0.01, SeedSpec(65)),
        ):
            with pytest.raises(ParameterError) as err:
                call()
            assert err.value.tag == "PARAM_BETA_RANGE"
    for T in (0.0, -1.0):
        for call in (
            lambda: terminal_inverse_subordinator_samples(d_law, T, 10, SeedSpec(65)),
            lambda: terminal_time_changed_samples(z_law, d_law, T, 10, SeedSpec(65)),
            lambda: terminal_counting_samples(WaitingLaw(0.5), 10, T, 10, SeedSpec(65)),
        ):
            with pytest.raises(ParameterError) as err:
                call()
            assert err.value.tag == "PARAM"


def test_time_changed_levy_origin_and_validation():
    z = gen_time_changed_levy(*walk_limit(1.5, 0.8), 1.0, 2.0**-8, SeedSpec(11))
    assert z.value(0.0) == 0.0
    assert z.horizon >= 1.0
    with pytest.raises(ParameterError):
        gen_time_changed_levy(*walk_limit(1.5, 0.8), 1.0, 0.0, SeedSpec(11))


def test_time_changed_gaussian_two_stage():
    z_law, d_law = walk_limit(2.0, 0.7, "gaussian")
    tc = terminal_time_changed_samples(z_law, d_law, 1.0, 10_000, SeedSpec(105))
    dinv = terminal_inverse_subordinator_samples(d_law, 1.0, 10_000, SeedSpec(106))
    oracle = np.random.default_rng(107).normal(size=10_000) * np.sqrt(dinv)
    stat, _ = ks_two_sample(tc, oracle)
    assert stat <= 0.03


def test_limit_laws_of_a_walk():
    # Z's law is one innovation's attractor with its scale times psi, D's
    # the waits' attractor at their scale; a moving average has no D
    cfg = ProcessConfig(InnovationLaw(1.5, "centered", 2.0), waiting=WaitingLaw(0.8, 4.0), coefficients=(1.0, 0.5))
    one = attractor_params(cfg.innovation)
    assert one.scale == 2.0 * attractor_params(InnovationLaw(1.5, "centered")).scale
    assert limit_laws(cfg) == (
        StableParams(1.5, 1.0, one.scale * 1.5), StableParams(0.8, 1.0, 4.0 * wait_attractor_scale(0.8))
    )
    ma = ProcessConfig(InnovationLaw(2.0, "gaussian"), coefficients=(1.0, 0.5))
    assert limit_laws(ma) == (StableParams(2.0, 0.0, 1.5 * attractor_params(ma.innovation).scale), None)


def test_ctrw_terminal_vs_time_changed_light():
    # light version of the weak-limit check; acceptance runs it at n=1e4
    cfg = ProcessConfig(InnovationLaw(1.5, "symmetric"), waiting=WaitingLaw(0.8), n=2000)
    a = terminal_samples(cfg, 1.0, 3000, SeedSpec(12))
    b = terminal_time_changed_samples(*limit_laws(cfg), 1.0, 3000, SeedSpec(13))
    stat, _ = ks_two_sample(a, b)
    assert stat <= 0.06


def test_m1_not_j1_signature():
    # adjacent correlated jumps keep the aligned-increment functional alive;
    # independent jumps let it die as n grows
    law = InnovationLaw(1.5, "symmetric")
    reps = 40
    med = {}
    for label, coeffs in (("corr", (1.0, 1.0)), ("zero", (1.0, 0.0))):
        for n in (50, 400):
            cfg = ProcessConfig(law, coefficients=coeffs, n=n)
            vals = [
                avci_functional(b.x, b.x, 2.0 / n)
                for b in (
                    gen_moving_average(cfg, 1.0, SeedSpec(500 + r, stream=n))
                    for r in range(reps)
                )
            ]
            med[label, n] = float(np.median(vals))
    # frozen seeds: corr medians 0.93 / 1.14, zero medians 0.38 -> 0.16
    assert med["corr", 400] >= 0.6
    assert med["corr", 50] >= 0.6
    assert med["zero", 400] < med["zero", 50]
    assert med["zero", 400] < 0.5 * med["corr", 400]
