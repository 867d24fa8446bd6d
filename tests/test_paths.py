import io

import numpy as np
import pytest

from ctrwlab import (
    GridPath,
    ParameterError,
    RangeError,
    ShapeError,
    StepPath,
    avci_functional,
    jump_stats,
    m1_modulus,
    max_eps_increments,
    total_variation,
    write_path_csv,
)
from _brute import (
    brute_avci,
    brute_jump_stats,
    brute_m1_modulus,
    brute_max_eps_increments,
    brute_total_variation,
    random_step_path,
)


def test_step_path_construction_and_reads():
    p = StepPath([0.0, 0.3, 0.7], [0.0, 1.0, -1.0], 1.0)
    assert p.value(0.0) == 0.0
    assert p.value(0.29) == 0.0
    assert p.value(0.3) == 1.0  # right continuity
    assert p.value_before(0.3) == 0.0
    assert p.value_before(0.0) == 0.0
    assert p.value(1.0) == -1.0
    assert np.array_equal(p.jump_times(), [0.3, 0.7])
    assert np.array_equal(p.jump_sizes(), [1.0, -2.0])
    with pytest.raises(RangeError):
        p.value(1.0001)
    with pytest.raises(RangeError):
        p.value(-0.1)


def test_step_path_validation():
    with pytest.raises(ShapeError):
        StepPath([0.1, 0.5], [1.0, 2.0], 1.0)  # must start at origin
    with pytest.raises(ShapeError):
        StepPath([0.0, 0.5, 0.5], [0.0, 1.0, 2.0], 1.0)  # strictly increasing
    with pytest.raises(ShapeError):
        StepPath([0.0, 0.5], [0.0], 1.0)  # length mismatch
    with pytest.raises(ShapeError):
        StepPath([0.0, 1.5], [0.0, 1.0], 1.0)  # beyond horizon


def test_step_path_from_jumps():
    p = StepPath.from_jumps([0.3, 0.7], [1.0, -2.0], 1.0)
    assert np.array_equal(p.times, [0.0, 0.3, 0.7])
    assert np.array_equal(p.values, [0.0, 1.0, -1.0])
    with pytest.raises(ShapeError):
        StepPath.from_jumps([0.7, 0.3], [1.0, 1.0], 1.0)


def test_grid_path_reads():
    g = GridPath([0.0, 1.0, 4.0], 0.5, interp="const")
    assert g.horizon == 1.0
    assert g.value(0.49) == 0.0
    assert g.value(0.5) == 1.0
    assert g.value(1.0) == 4.0
    lin = GridPath([0.0, 1.0, 4.0], 0.5, interp="linear")
    assert lin.value(0.25) == 0.5
    assert lin.value(0.75) == 2.5
    with pytest.raises(RangeError):
        g.value(1.01)
    with pytest.raises(ParameterError):
        GridPath([0.0, 1.0], 0.0)
    with pytest.raises(ParameterError):
        GridPath([0.0, 1.0], 0.5, interp="cubic")


def test_total_variation_hand_values():
    p = StepPath.from_jumps([0.3, 0.7], [1.0, -2.0], 1.0)
    assert total_variation(p) == 3.0
    assert total_variation(p, 0.5) == 1.0
    const = StepPath([0.0], [2.0], 1.0)
    assert total_variation(const) == 0.0
    q = StepPath([0.0, 0.2, 0.4, 0.6], [0.0, 1.0, 0.5, 2.0], 1.0)
    assert total_variation(q) == 3.0  # |1| + |0.5| + |1.5|


def test_total_variation_additive_over_splits():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = random_step_path(rng)
        for s in p.times[1:]:
            left = total_variation(p, s)
            ts, vs = p.restricted(p.horizon)
            after = np.abs(np.diff(vs))[ts[1:] > s].sum()
            assert abs(left + after - total_variation(p)) < 1e-12


def test_jump_stats_hand_values():
    p = StepPath.from_jumps([0.2, 0.5, 0.8], [1.0, -2.0, 0.5], 1.0)
    max_jump, count, sup = jump_stats(p, a=0.8)
    assert max_jump == 2.0
    assert count == 2
    assert sup == 1.0  # path is 0,1,-1,-0.5; sup |.| = 1
    const = StepPath([0.0], [-3.0], 1.0)
    assert jump_stats(const, a=1.0) == (0.0, 0, 3.0)
    assert jump_stats(p, a=10.0)[1] == 0
    with pytest.raises(ParameterError):
        jump_stats(p, a=0.0)


def test_m1_modulus_hand_values():
    mono = StepPath([0.0, 0.2, 0.5, 0.9], [0.0, 0.5, 1.5, 2.0], 1.0)
    for delta in (0.05, 0.3, 1.0):
        assert m1_modulus(mono, delta) == 0.0
    spike = StepPath([0.0, 0.05, 0.1], [0.0, 1.0, 0.0], 1.0)
    assert m1_modulus(spike, 0.2) == 1.0
    wide = StepPath([0.0, 0.4, 0.5], [0.0, 1.0, 0.0], 1.0)
    # triples are taken on the breakpoint skeleton, so the enclosing
    # plateau breakpoint must fall inside the delta window too
    assert m1_modulus(wide, 0.5) == 1.0
    assert m1_modulus(wide, 0.05) == 0.0  # delta below the breakpoint gap
    with pytest.raises(ParameterError):
        m1_modulus(wide, 0.0)


def test_max_eps_increments_hand_values():
    p = StepPath.from_jumps([0.3, 0.5, 0.7], [1.0, 1.0, 1.0], 1.0)
    assert max_eps_increments(p, 0.9) == 3
    assert max_eps_increments(p, 3.5) == 0  # above the total range
    const = StepPath([0.0], [1.0], 1.0)
    assert max_eps_increments(const, 0.1) == 0
    with pytest.raises(ParameterError):
        max_eps_increments(p, 0.0)


def test_max_eps_increments_vs_tv():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = random_step_path(rng)
        for eps in (0.2, 0.7, 1.5):
            n = max_eps_increments(p, eps)
            assert n * eps <= total_variation(p) + 1e-12


def test_avci_hand_values():
    x = StepPath([0.0, 0.5], [0.0, 1.0], 1.0)
    y = StepPath([0.0, 0.6], [0.0, 1.0], 1.0)
    assert avci_functional(x, y, 0.2) == 1.0
    assert avci_functional(x, y, 0.05) == 0.0
    const = StepPath([0.0], [0.7], 1.0)
    assert avci_functional(const, y, 0.5) == 0.0
    with pytest.raises(ShapeError):
        avci_functional(x, StepPath([0.0], [0.0], 2.0), 0.1)
    with pytest.raises(ParameterError):
        avci_functional(x, y, 0.0)


def test_avci_bounded_by_max_jumps_and_monotone_in_delta():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = random_step_path(rng)
        y = random_step_path(rng)
        jx = np.abs(x.jump_sizes())
        jy = np.abs(y.jump_sizes())
        cap = min(jx.max() if jx.size else 0.0, jy.max() if jy.size else 0.0)
        # the single-jump cap applies when a delta window cannot span two
        # breakpoints of the same path
        gaps = np.concatenate([np.diff(x.times), np.diff(y.times), [x.horizon]])
        small = 0.9 * float(gaps.min())
        if small > 0:
            assert avci_functional(x, y, small) <= cap + 1e-12
        prev = 0.0
        for delta in (0.05, 0.2, 0.5, 1.0):
            w = avci_functional(x, y, delta)
            assert w >= prev - 1e-12
            prev = w


def test_m1_monotone_in_delta():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = random_step_path(rng)
        prev = 0.0
        for delta in (0.05, 0.2, 0.5, 1.0):
            v = m1_modulus(p, delta)
            assert v >= prev - 1e-12
            prev = v


def test_functionals_match_brute_force():
    # light version of the acceptance sweep; full 1e4 runs there
    rng = np.random.default_rng(7)
    for _ in range(1500):
        p = random_step_path(rng)
        t = p.horizon if rng.random() < 0.5 else float(rng.uniform(0.1, p.horizon))
        assert abs(total_variation(p, t) - brute_total_variation(p, t)) < 1e-12
        a = float(rng.uniform(0.1, 2.0))
        assert jump_stats(p, t, a) == brute_jump_stats(p, t, a)
        delta = float(rng.uniform(0.02, 1.0))
        assert abs(m1_modulus(p, delta, t) - brute_m1_modulus(p, delta, t)) < 1e-12
        eps = float(rng.uniform(0.1, 2.0))
        assert max_eps_increments(p, eps, t) == brute_max_eps_increments(p, eps, t)
        q = random_step_path(rng)
        got = avci_functional(p, q, delta)
        want = brute_avci(p, q, delta, p.horizon)
        assert abs(got - want) < 1e-12


def test_csv_round_trip():
    p = StepPath([0.0, 0.25, 0.75], [0.5, -1.5, 2.0], 1.0)
    buf = io.StringIO()
    write_path_csv(p, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,value"
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert np.array_equal([float(t) for t, _ in rows], p.times)
    assert np.array_equal([float(v) for _, v in rows], p.values)
