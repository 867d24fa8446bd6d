"""Samplers for strictly stable laws and Pareto-tailed pre-limit laws.

All randomness in the package flows through PCG64DXSM generators addressed
by an explicit (seed, stream) pair and, within it, a lane: each generator is
seeded from SeedSequence(seed, spawn_key=(stream, lane...)), and the spawn
keys are what make the streams independent, so Monte Carlo replications can
be drawn in any order and still reproduce bit-exactly. PCG64DXSM is numpy's
recommended bit generator for many parallel streams.

Scale conventions for the stable sampler (documented because the literature
disagrees and the package's oracles depend on the choice):

* symmetric (skew = 0, including alpha = 2): characteristic function
  E exp(iuX) = exp(-(scale * |u|)**alpha).  For alpha = 2 this is a centered
  Gaussian with variance 2 * scale**2; for alpha = 1 a Cauchy law with
  quartiles at shift -/+ scale.
* totally skewed with alpha < 1 (skew = +1): one-sided Laplace transform
  E exp(-lambda * X) = exp(-(scale * lambda)**alpha), the natural unit for
  subordinator increments; skew = -1 is the mirror image.
* every other admissible (alpha, skew): the common S1 parametrisation with
  sigma = scale.

alpha = 1 with skew != 0 is rejected: those laws need a logarithmic drift
and are not strictly stable, so no generator in this package can use them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

INNOVATION_MODES = ("symmetric", "centered", "raw", "gaussian")


@dataclass(frozen=True)
class SeedSpec:
    """Address of one reproducible random stream.

    seed is the 64-bit master key of an experiment; stream separates
    replications (or independent components) within it.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError("seed must fit in 64 bits", tag="PARAM_SEED")
        if int(self.stream) < 0:
            raise ParameterError("stream id must be >= 0", tag="PARAM_SEED")

    def generator(self, lane=None):
        """PCG64DXSM generator for this stream; lane (an int or tuple of
        ints) picks an independent substream. The generator is seeded from
        SeedSequence(seed, spawn_key=(stream, lane...)): distinct spawn keys
        give independent streams, whatever order they are drawn in."""
        if lane is None:
            key = (self.stream,)
        elif isinstance(lane, tuple):
            key = (self.stream,) + tuple(int(v) for v in lane)
        else:
            key = (self.stream, int(lane))
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
        return np.random.Generator(np.random.PCG64DXSM(ss))

    def with_stream(self, stream):
        return SeedSpec(self.seed, stream)


@dataclass(frozen=True)
class StableParams:
    """Strictly stable law: index alpha, skewness, scale, shift."""

    alpha: float
    skew: float = 0.0
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError("alpha must lie in (0, 2]", tag="PARAM_ALPHA_RANGE")
        if not (-1.0 <= self.skew <= 1.0):
            raise ParameterError("skew must lie in [-1, 1]", tag="PARAM_SKEW_RANGE")
        # scale = 0 is the degenerate point mass at shift (the scale -> 0+ limit)
        if self.scale < 0.0:
            raise ParameterError("scale must be >= 0", tag="PARAM_SCALE")
        if self.alpha == 1.0 and self.skew != 0.0:
            raise ParameterError(
                "alpha = 1 with nonzero skew is not strictly stable",
                tag="PARAM_STABLE_DRIFT",
            )
        if self.alpha == 2.0 and self.skew != 0.0:
            raise ParameterError("alpha = 2 is symmetric; skew must be 0", tag="PARAM_SKEW_RANGE")


@dataclass(frozen=True)
class InnovationLaw:
    """Jump-size law theta with Pareto tail P(|theta| > x) = (x/scale)^-alpha.

    modes:
      symmetric: fair random sign on a Pareto magnitude, any alpha in (0, 2)
      centered:  one-sided Pareto minus its mean, needs 1 < alpha < 2
      raw:       one-sided Pareto with no centering, needs alpha < 1
      gaussian:  standard normal (the alpha = 2 member of the family)
    """

    alpha: float
    mode: str = "symmetric"
    scale: float = 1.0

    def __post_init__(self):
        if self.mode not in INNOVATION_MODES:
            raise ParameterError(f"unknown innovation mode {self.mode!r}", tag="PARAM_MODE")
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError("alpha must lie in (0, 2]", tag="PARAM_ALPHA_RANGE")
        if self.scale <= 0.0:
            raise ParameterError("scale must be > 0", tag="PARAM_SCALE")
        if self.mode == "gaussian" and self.alpha != 2.0:
            raise ParameterError("gaussian mode forces alpha = 2", tag="PARAM_MODE")
        if self.mode != "gaussian" and self.alpha == 2.0:
            # a Pareto tail x^-2 is outside the *normal* domain of attraction
            # (the variance truncates logarithmically); alpha = 2 must be gaussian
            raise ParameterError("alpha = 2 requires gaussian mode", tag="PARAM_MODE")
        if self.mode == "centered" and self.alpha <= 1.0:
            raise ParameterError("centered mode needs alpha > 1 (finite mean)", tag="PARAM_MODE")
        if self.mode == "raw" and self.alpha >= 1.0:
            # an uncentered one-sided law with alpha >= 1 violates the standing
            # zero-mean / symmetry assumptions every limit theorem relies on
            raise ParameterError("raw mode needs alpha < 1", tag="PARAM_MODE")


@dataclass(frozen=True)
class WaitingLaw:
    """Waiting-time law with Pareto tail P(J > x) = (x/scale)^-beta, beta in (0,1)."""

    beta: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ParameterError("beta must lie in (0, 1)", tag="PARAM_BETA_RANGE")
        if self.scale <= 0.0:
            raise ParameterError("scale must be > 0", tag="PARAM_SCALE")


# entries per slice of the CMS transform, whose two slice-sized scratch
# arrays (256 KB) stay in L2 while the slice passes through its ufuncs, and
# of the symmetric innovation signs, drawn into one
CMS_SLICE = 16384

# CMS uniforms are clipped to [CMS_U_FLOOR, 1 - CMS_U_FLOOR]. For a totally
# skewed law with 1 < alpha < 2, a = alpha (V + B) tends to -pi as u -> 0
# (skew 1) or to +pi as u -> 1 (skew -1), and the draw is a 0 * inf product
# with a finite limit: at u = 0 its sine rounds to either sign, and at
# (alpha, skew) = (1.5, 1) the draw at u = 2^-53 is 6% off the limit, which
# u = 2^-40 gives to 1e-8; (1.5, -1) at u = 1 - 2^-53 mirrors it. The
# draws it moves have probability 2^-39 together
CMS_U_FLOOR = 2.0**-40


def _cms_standard(alpha, skew, gen, size):
    # Chambers-Mallows-Stuck transform of (uniform angle V, unit exponential
    # W); returns S1-parametrised samples with sigma = 1. Off alpha in {1, 2}
    # it is S sin(a) / cos(V)^(1/a) * (cos(V - a) / W)^((1 - a)/a) with
    # a = alpha (V + B), taken in tangent form: both cosine arguments lie in
    # (-pi/2, pi/2], where cos x = (1 + tan^2 x)^(-1/2), and
    # sin a = 2t / (1 + t^2) with t = tan(a/2). V and W are the only
    # full-size arrays: the transform runs over CMS_SLICE entries at a time
    # with two slice-sized scratch arrays, elementwise as on whole arrays,
    # and writes the result into V. W is never squared, since W^2
    # underflows where W itself does not
    V = gen.random(size)
    np.clip(V, CMS_U_FLOOR, 1.0 - CMS_U_FLOOR, out=V)
    V -= 0.5
    V *= np.pi
    W = gen.standard_exponential(size)
    if alpha == 2.0:
        return 2.0 * np.sqrt(W) * np.sin(V)
    if alpha == 1.0:
        # skew 0 is the only admissible case here (validated upstream)
        return np.tan(V)
    zeta = skew * math.tan(math.pi * alpha / 2.0)
    B = math.atan(zeta) / alpha
    S = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    flat_v, flat_w = V.reshape(-1), W.reshape(-1)
    scratch = np.empty((2, min(CMS_SLICE, V.size)))
    for lo in range(0, V.size, CMS_SLICE):
        v, w = flat_v[lo : lo + CMS_SLICE], flat_w[lo : lo + CMS_SLICE]
        arg, out = scratch[:, : v.size]
        np.add(v, B, out=arg)
        arg *= alpha
        np.multiply(arg, 0.5, out=out)
        np.tan(out, out=out)
        np.subtract(v, arg, out=arg)
        # (1 + tan^2 V)^(1/(2a)) = cos(V)^(-1/a)
        np.tan(v, out=v)
        v *= v
        v += 1.0
        v **= 1.0 / (2.0 * alpha)
        # (sqrt(1 + tan^2 (V - a)) W)^((a - 1)/a) = (cos(V - a) / W)^((1 - a)/a)
        np.tan(arg, out=arg)
        arg *= arg
        arg += 1.0
        np.sqrt(arg, out=arg)
        arg *= w
        arg **= (alpha - 1.0) / alpha
        # 2S t / (1 + t^2) = S sin(a). It is multiplied in first, so a zero
        # sine stays 0 where the product of the two powers alone would
        # overflow
        np.multiply(out, out, out=w)
        w += 1.0
        out /= w
        out *= 2.0 * S
        np.multiply(out, v, out=v)
        v *= arg
    return V


def _stable_sigma(params):
    """S1 sigma realising the scale convention in the module docstring."""
    if params.alpha < 1.0 and abs(params.skew) == 1.0:
        # Laplace-transform unit: E exp(-l X) = exp(-(scale l)^alpha) at skew +1
        return params.scale * math.cos(math.pi * params.alpha / 2.0) ** (1.0 / params.alpha)
    return params.scale


def draw_stable(params, gen, size):
    """Stable samples from an existing Generator (bulk/ensemble entry point)."""
    if params.scale == 0.0:
        return np.full(size, params.shift, dtype=float)
    x = _cms_standard(params.alpha, params.skew, gen, size)
    x *= _stable_sigma(params)
    x += params.shift
    return x


def sample_stable(params, seed, count):
    """i.i.d. strictly stable samples; see the module docstring for conventions."""
    if count < 1:
        raise ParameterError("count must be >= 1", tag="PARAM_COUNT")
    return draw_stable(params, seed.generator(), int(count))


def draw_innovation(law, gen, size):
    """Innovation samples from an existing Generator: the magnitudes
    U^(-1/alpha) are built in place in the array of their uniforms, and a
    symmetric law draws its sign uniforms after all of them (negative below
    1/2), CMS_SLICE at a time into one slice-sized scratch array; the
    slices continue one stream, so the signs are those of one full-size
    draw."""
    if law.mode == "gaussian":
        return law.scale * gen.standard_normal(size)
    mag = gen.random(size)
    np.power(mag, -1.0 / law.alpha, out=mag)
    if law.mode == "centered":
        mag -= law.alpha / (law.alpha - 1.0)
    mag *= law.scale
    if law.mode == "symmetric":
        flat = mag.reshape(-1)
        scratch = np.empty(min(CMS_SLICE, flat.size))
        for lo in range(0, flat.size, CMS_SLICE):
            part = flat[lo : lo + CMS_SLICE]
            sign = scratch[: part.size]
            gen.random(out=sign)
            # mag > 0, so copying the sign of u - 1/2 negates exactly where
            # u < 1/2; u = 1/2 gives +0 and keeps mag positive
            sign -= 0.5
            np.copysign(part, sign, out=part)
    return mag


def sample_innovation(law, seed, count):
    if count < 1:
        raise ParameterError("count must be >= 1", tag="PARAM_COUNT")
    return draw_innovation(law, seed.generator(), int(count))


def draw_waiting(law, gen, size):
    u = gen.random(size)
    np.power(u, -1.0 / law.beta, out=u)
    u *= law.scale
    return u


def sample_waiting(law, seed, count):
    if count < 1:
        raise ParameterError("count must be >= 1", tag="PARAM_COUNT")
    return draw_waiting(law, seed.generator(), int(count))


def _pareto_sum_scale(alpha):
    # scale of the stable attractor of n^(-1/alpha) * sum of symmetric unit
    # Pareto innovations, in the symmetric CF convention above
    if alpha == 1.0:
        return math.pi / 2.0
    return (math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (1.0 - alpha)) ** (
        1.0 / alpha
    )


def attractor_params(law):
    """Stable law of the weak limit of n^(-1/alpha) * (theta_1 + ... + theta_n).

    The returned StableParams feed sample_stable directly, so empirical sums
    of sample_innovation output can be KS-compared against exact stable draws
    with no further normalisation.
    """
    a = law.alpha
    if law.mode == "gaussian":
        # unit normal equals the alpha = 2 stable with scale 1/sqrt(2)
        return StableParams(2.0, 0.0, law.scale / math.sqrt(2.0), 0.0)
    if law.mode == "symmetric":
        return StableParams(a, 0.0, law.scale * _pareto_sum_scale(a), 0.0)
    if law.mode == "centered":
        return StableParams(a, 1.0, law.scale * _pareto_sum_scale(a), 0.0)
    # raw, alpha < 1: one-sided limit with Laplace transform exp(-Gamma(1-a) l^a),
    # which is scale Gamma(1-a)^(1/a) in the subordinator convention
    return StableParams(a, 1.0, law.scale * math.gamma(1.0 - a) ** (1.0 / a), 0.0)


def wait_attractor_scale(beta, scale=1.0):
    """Subordinator-increment scale of the attractor of Pareto(beta) waits.

    Partial sums k^(-1/beta) * (J_1 + ... + J_k) of unit Pareto waits converge
    to the positive stable law with Laplace transform exp(-Gamma(1-beta) l^beta);
    in the sampler's subordinator convention that is scale Gamma(1-beta)^(1/beta).
    """
    if not (0.0 < beta < 1.0):
        raise ParameterError("beta must lie in (0, 1)", tag="PARAM_BETA_RANGE")
    return scale * math.gamma(1.0 - beta) ** (1.0 / beta)
