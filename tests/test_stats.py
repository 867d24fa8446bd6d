import math
from statistics import NormalDist

import numpy as np
import pytest

from ctrwlab import (
    DataError,
    DiagnosticReport,
    Estimate,
    ks_two_sample,
    mean_estimate,
    wasserstein1,
)
from ctrwlab.stats import _Z95


def test_ks_hand_values():
    stat, p = ks_two_sample(np.array([0.0, 1.0]), np.array([0.5, 1.5]))
    assert abs(stat - 0.5) < 1e-12
    a = np.array([0.3, -1.2, 0.7, 2.0])
    stat, p = ks_two_sample(a, a.copy())
    assert stat == 0.0
    assert 0.0 <= stat <= 1.0 and 0.0 <= p <= 1.0
    with pytest.raises(DataError):
        ks_two_sample(np.array([]), a)


def test_ks_symmetry():
    rng = np.random.default_rng(12)
    a = rng.normal(size=500)
    b = rng.normal(1.0, 2.0, size=700)
    sab, pab = ks_two_sample(a, b)
    sba, pba = ks_two_sample(b, a)
    assert sab == sba
    assert pab == pba
    assert 0.0 <= sab <= 1.0


def test_ks_null_rate():
    # independent standard normals of 1e4: statistic <= 0.03 for >= 95 of
    # 100 seeds (0.03 is ~ the 99.99% null quantile, so failures are rare)
    ok = 0
    for s in range(100):
        rng = np.random.default_rng(900 + s)
        stat, _ = ks_two_sample(rng.normal(size=10_000), rng.normal(size=10_000))
        if stat <= 0.03:
            ok += 1
    assert ok >= 95


def test_ks_detects_separation():
    rng = np.random.default_rng(13)
    stat, p = ks_two_sample(rng.normal(size=5000), rng.normal(2.0, 1.0, size=5000))
    assert stat > 0.5
    assert p < 1e-6


def test_wasserstein_hand_values():
    assert wasserstein1(np.array([0.0, 1.0]), np.array([1.0, 2.0])) == 1.0
    a = np.array([0.4, -0.3, 2.0])
    assert wasserstein1(a, a.copy()) == 0.0
    c = 0.7
    assert abs(wasserstein1(a, a + c) - c) < 1e-12
    with pytest.raises(DataError):
        wasserstein1(np.array([]), a)


def test_wasserstein_unequal_sizes():
    rng = np.random.default_rng(14)
    a = rng.normal(size=4000)
    b = rng.normal(size=7919)
    w = wasserstein1(a, b)
    assert 0.0 <= w < 0.05
    # against a genuinely shifted law the distance approximates the shift
    w = wasserstein1(a, rng.normal(1.0, 1.0, size=7919))
    assert abs(w - 1.0) < 0.05


def test_wasserstein_triangle():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=300)
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=300)
        c = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=300)
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-12


def test_mean_estimate():
    rng = np.random.default_rng(17)
    x = rng.normal(2.0, 1.0, size=10_000)
    e = mean_estimate(x)
    assert abs(e.value - 2.0) < 0.05
    assert e.ci_low < e.value < e.ci_high
    half = (e.ci_high - e.ci_low) / 2.0
    assert abs(half - 1.96 / math.sqrt(10_000)) < 0.002
    assert e.n_samples == 10_000
    # the interval's literal quantile is the 95% normal one, bit for bit
    assert _Z95 == NormalDist().inv_cdf(0.5 + 0.95 / 2.0)
    se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    assert (e.ci_low, e.ci_high) == (e.value - _Z95 * se, e.value + _Z95 * se)


def test_estimate_bracket_validation():
    with pytest.raises(DataError):
        Estimate("x", 0.5, 0.6, 0.7, 10)
    with pytest.raises(DataError):
        Estimate("x", 0.5, 0.4, 0.45, 10)
    with pytest.raises(DataError):
        Estimate("x", 0.5, 0.4, 0.6, 0)


def test_diagnostic_report_round_trip():
    rep = DiagnosticReport("demo", {"alpha": 1.5}, seed=42)
    rep.add(Estimate("stat", 0.5, 0.4, 0.6, 100))
    rep.add(Estimate("other", -1.0, -1.5, -0.5, 50))
    assert rep.names() == ["stat", "other"]
    assert rep.get("stat").value == 0.5
    d = rep.to_dict()
    assert d["scenario"] == "demo"
    assert d["params"]["alpha"] == 1.5
    assert [e["name"] for e in d["estimates"]] == rep.names()
    assert d["estimates"][1] == {"name": "other", "value": -1.0, "ci_low": -1.5, "ci_high": -0.5, "n_samples": 50}
    with pytest.raises(KeyError):
        rep.get("missing")
