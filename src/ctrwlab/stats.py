"""Distributional comparison and Monte Carlo estimation utilities.

Weak-convergence statements are tested through fixed-time marginals, so the
workhorses are a two-sample Kolmogorov-Smirnov statistic (limit laws are
themselves simulated, hence two-sample), an exact empirical Wasserstein-1
distance, and normal confidence intervals for Monte Carlo means, collected
as named estimates in a diagnostic report.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import DataError


def _as_values(a):
    v = np.asarray(a, dtype=float)
    if v.size == 0:
        raise DataError("empty sample")
    return v


def _ks_pvalue(d, n1, n2):
    # asymptotic Kolmogorov survival function with the usual finite-size tweak
    ne = n1 * n2 / (n1 + n2)
    x = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if x < 1e-12:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * x * x)
        total += term
        if abs(term) < 1e-10 * abs(total) + 1e-16:
            break
    return min(max(total, 0.0), 1.0)


def ks_two_sample(a, b):
    """(sup |F_a - F_b|, asymptotic two-sided p-value).

    The p-value is asymptotic; below ~50 samples per side treat it as rough.
    """
    av = np.sort(_as_values(a))
    bv = np.sort(_as_values(b))
    if av.size < 2 or bv.size < 2:
        raise DataError("need at least 2 samples per side")
    allv = np.concatenate([av, bv])
    cdf_a = np.searchsorted(av, allv, side="right") / av.size
    cdf_b = np.searchsorted(bv, allv, side="right") / bv.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    return d, _ks_pvalue(d, av.size, bv.size)


def wasserstein1(a, b):
    """Exact W1 between the empirical laws: integral of |F_a - F_b|.

    For equal sizes this equals the mean absolute difference of the sorted
    samples; unequal sizes are handled by the same CDF integral rather than
    quantile interpolation (exact, and agrees in the equal-size case).
    """
    av = np.sort(_as_values(a))
    bv = np.sort(_as_values(b))
    if av.size == bv.size:
        return float(np.mean(np.abs(av - bv)))
    allv = np.sort(np.concatenate([av, bv]))
    cdf_a = np.searchsorted(av, allv[:-1], side="right") / av.size
    cdf_b = np.searchsorted(bv, allv[:-1], side="right") / bv.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * np.diff(allv)))


@dataclass(frozen=True)
class Estimate:
    """One named Monte Carlo estimate with a confidence interval."""

    name: str
    value: float
    ci_low: float
    ci_high: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise DataError("n_samples must be >= 1")
        if not (self.ci_low <= self.value <= self.ci_high):
            raise DataError(f"estimate {self.name}: CI must bracket the value")

    def width(self):
        return self.ci_high - self.ci_low


def mean_estimate(values, level=0.95, name="mean"):
    """Sample mean with a normal confidence interval."""
    v = _as_values(values)
    m = float(np.mean(v))
    if v.size == 1:
        return Estimate(name, m, m, m, 1)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    se = float(np.std(v, ddof=1)) / math.sqrt(v.size)
    return Estimate(name, m, m - z * se, m + z * se, v.size)


@dataclass
class DiagnosticReport:
    """Named estimates plus the scenario context that produced them."""

    scenario: str
    params: dict
    seed: int
    estimates: list = field(default_factory=list)

    def add(self, estimate):
        self.estimates.append(estimate)
        return estimate

    def get(self, name):
        for e in self.estimates:
            if e.name == name:
                return e
        raise KeyError(name)

    def names(self):
        return [e.name for e in self.estimates]

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "estimates": [
                {
                    "name": e.name,
                    "value": e.value,
                    "ci_low": e.ci_low,
                    "ci_high": e.ci_high,
                    "n_samples": e.n_samples,
                }
                for e in self.estimates
            ],
        }
