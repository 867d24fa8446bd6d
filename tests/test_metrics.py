import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrwlab import GridPath, ShapeError, StepPath, d_j1, d_m1, d_uniform
from _brute import discrete_m1, random_step_path

STEP = StepPath([0.0, 0.5], [0.0, 1.0], 1.0)
LATE = StepPath([0.0, 0.6], [0.0, 1.0], 1.0)
HALF = StepPath([0.0, 0.5], [0.0, 0.5], 1.0)


def test_uniform_hand_values():
    assert d_uniform(STEP, STEP).value == 0.0
    zero = StepPath([0.0], [0.0], 1.0)
    assert d_uniform(STEP, zero).value == 1.0
    assert d_uniform(STEP, LATE).value == 1.0  # disagree on [0.5, 0.6)
    with pytest.raises(ShapeError):
        d_uniform(STEP, StepPath([0.0], [0.0], 2.0))


def test_j1_hand_values():
    assert d_j1(STEP, STEP).value == 0.0
    r = d_j1(STEP, LATE)
    assert abs(r.value - 0.1) < 1e-12
    assert r.exact
    assert abs(d_j1(STEP, HALF).value - 0.5) < 1e-12


def test_m1_hand_values():
    assert d_m1(STEP, STEP).value == 0.0
    # linear ramp 0 -> 1 over [0.5, 0.55]: the step's corner (0.5, 1) meets
    # the ramp at height u with max(0.05 u, 1 - u) smallest, u = 1/1.05
    vals = np.concatenate([np.zeros(11), np.ones(10)])
    ramp = GridPath(vals, 0.05, interp="linear")
    r = d_m1(STEP, ramp)
    assert r.exact
    assert r.mesh == 0.0
    assert abs(r.value - 0.05 / 1.05) < 1e-12
    # the late step only moves the jump in time
    assert abs(d_m1(STEP, LATE).value - 0.1) < 1e-12
    with pytest.raises(ShapeError):
        d_m1(STEP, vals)
    with pytest.raises(ShapeError):
        d_m1(STEP, StepPath([0.0], [0.0], 2.0))


# half-integer levels and times on a 1/16 grid make ties (equal levels,
# equal critical values) common
_LEVEL = st.one_of(st.integers(-4, 4).map(lambda k: k / 2), st.floats(-3.0, 3.0))


def _step_paths():
    times = st.sets(st.integers(1, 15), max_size=5).map(lambda s: [0.0] + sorted(k / 16 for k in s))
    return times.flatmap(
        lambda ts: st.lists(_LEVEL, min_size=len(ts), max_size=len(ts)).map(lambda vs: StepPath(ts, vs, 1.0))
    )


def _linear_paths():
    return st.tuples(st.lists(_LEVEL, min_size=2, max_size=6), st.sampled_from([1.0, 0.75])).map(
        lambda a: GridPath(a[0], a[1] / (len(a[0]) - 1), horizon=1.0, interp="linear")
    )


@settings(max_examples=80, deadline=None)
@given(x=st.one_of(_step_paths(), _linear_paths()), y=st.one_of(_step_paths(), _linear_paths()))
def test_m1_refinement_tightens(x, y):
    # the exact value against the discrete Frechet oracle, which sits within
    # its sampling mesh above the continuous distance and tightens as the
    # sample sets nest
    r = d_m1(x, y)
    assert r.exact and r.mesh == 0.0
    assert r.value == d_m1(y, x).value
    coarse, coarse_mesh = discrete_m1(x, y, 8)
    fine, fine_mesh = discrete_m1(x, y, 64)
    for disc, mesh in ((coarse, coarse_mesh), (fine, fine_mesh)):
        assert r.value <= disc + 1e-12
        assert disc <= r.value + mesh + 1e-12
    assert fine <= coarse + 1e-12
    if isinstance(x, StepPath) and isinstance(y, StepPath):
        assert r.value <= d_j1(x, y).value + 1e-12


def test_m1_exact_tie():
    # the answer is a type (c) critical value, half the gap between y's
    # adjacent levels 1.368 and -1.379; a decision without the 1e-12 pad
    # rejects it by rounding and returns 1.38940 instead
    x = StepPath(
        [0.0, 0.45601996250238896, 0.46500201997347745, 0.46575648726549546, 0.5732298655883219, 0.9937137320016336],
        [-0.49112225976161433, -0.34578319353339354, -0.32941072716347025, -0.5937285927874277,
         -0.43713834540950797, 1.49031218205848],
        1.0,
    )
    y = StepPath(
        [0.0, 0.11079152544923598, 0.21994441277776566, 0.40073174433375935, 0.5321770201840587, 0.7491289485876884],
        [-0.4654404286731788, 0.8982731343145942, 1.3680062422523533, -1.3792125173005982,
         1.3160930034524234, 0.27604596202629295],
        1.0,
    )
    half_gap = (y.values[2] - y.values[3]) / 2.0
    assert d_m1(x, y).value == half_gap
    assert d_m1(y, x).value == half_gap
    disc, mesh = discrete_m1(x, y, 512)
    assert half_gap <= disc <= half_gap + mesh
    assert disc < 1.3894


def test_exact_metric_axioms():
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = random_step_path(rng)
        y = random_step_path(rng)
        z = random_step_path(rng)
        for metric in (d_uniform, d_j1, d_m1):
            assert metric(x, x).value == 0.0
            dxy = metric(x, y).value
            assert abs(dxy - metric(y, x).value) < 1e-12
            assert dxy >= 0.0
            assert metric(x, z).value <= dxy + metric(y, z).value + 1e-12


def test_m1_triangle_with_mesh_slack():
    rng = np.random.default_rng(10)
    for _ in range(60):
        x = random_step_path(rng)
        y = random_step_path(rng)
        z = random_step_path(rng)
        rxz = d_m1(x, z)
        rxy = d_m1(x, y)
        ryz = d_m1(y, z)
        slack = rxz.mesh + rxy.mesh + ryz.mesh
        assert slack == 0.0  # exact values report no sampling mesh
        assert rxz.value <= rxy.value + ryz.value + slack + 1e-12


def test_topology_ordering():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = random_step_path(rng)
        y = random_step_path(rng)
        rm = d_m1(x, y)
        rj = d_j1(x, y)
        ru = d_uniform(x, y)
        assert rm.value <= rj.value + 1e-12
        assert rj.value <= ru.value + 1e-12


def test_separation_witness():
    # two half-jumps converging in M1 but not in J1
    x = StepPath([0.0, 0.5], [0.0, 1.0], 1.0)
    prev_m1 = np.inf
    for n in (10, 100):
        xn = StepPath([0.0, 0.5 - 1.0 / n, 0.5], [0.0, 0.5, 1.0], 1.0)
        rm = d_m1(xn, x)
        rj = d_j1(xn, x)
        assert rj.value >= 0.25
        assert rm.value <= 1.0 / n + 1e-12
        assert rm.value < prev_m1
        prev_m1 = rm.value


def test_witness_strings_present():
    r = d_j1(STEP, LATE)
    assert "matched" in r.witness
    r = d_uniform(STEP, LATE)
    assert "attained" in r.witness
