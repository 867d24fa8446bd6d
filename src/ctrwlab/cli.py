"""Scenario runner: JSON configs in, canonical JSON reports (and optional
path CSVs) out.

Exit codes: 0 success, 2 config/parameter problems, 3 runtime/data problems.
Errors print exactly one machine-readable line on stderr, "TAG: message".
Reports are canonical JSON: sorted keys, floats normalised to 12 significant
digits, and a "timestamp" field that comparison tooling must strip.
"""

import argparse
import json
import math
import numbers
import sys
import time
from pathlib import Path

import numpy as np

from .decompositions import (
    default_gdca_gamma,
    estimate_bn,
    gdca_samples,
    gdci_sums,
    truncated_split_samples,
)
from .errors import CtrwlabError, DataError, ParameterError, RangeError, ShapeError
from .exprs import make_expr
from .integrals import (
    _follower_slope,
    _upsilon_params,
    adversarial_experiment,
    deterministic_integral_samples,
    follower_integral_samples,
    tc_grid_integral_samples,
    upsilon_samples,
)
from .metrics import d_j1, d_m1, d_uniform
from .paths import StepPath, write_path_csv
from .processes import (
    ProcessConfig,
    gen_ctrw,
    gen_moving_average,
    limit_laws,
    terminal_counting_samples,
    terminal_inverse_subordinator_samples,
    terminal_samples,
    terminal_time_changed_samples,
)
from .rng import (
    InnovationLaw,
    SeedSpec,
    WaitingLaw,
    attractor_params,
    draw_stable,
)
from .sde import (
    SddeSpec,
    SdeSpec,
    _limit_lag,
    _walk_lag,
    s_limit_terminal_samples,
    sdd_limit_terminal_samples,
    sddn_terminal_samples,
    sn_terminal_samples,
)
from .stats import DiagnosticReport, Estimate, ks_two_sample, mean_estimate, wasserstein1

_COMMON_KEYS = {"kind", "label", "seed", "stream", "replications", "horizon"}


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ParameterError(f"{where} must be an object", tag="PARAM_CONFIG")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ParameterError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}",
            tag="PARAM_UNKNOWN_KEY",
        )


def _number(value, name, kind=float):
    """A config value that must be a number, as `kind` (float, or int for a
    whole number); a string, bool, null, list or a fraction where a whole
    number is due is a PARAM error naming its key."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = kind(value)
        except (OverflowError, ValueError):
            out = None
        if out is not None and (kind is float or out == value):
            return out
    what = "a whole number" if kind is int else "a number"
    raise ParameterError(f"{name} must be {what}, got {value!r}")


def _numbers(value, name, kind=float):
    """A config value that must be a list of numbers (_number)."""
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"{name} must be a list of numbers, got {value!r}")
    return [_number(v, name, kind) for v in value]


def _build_innovation(d):
    _check_keys(d, {"alpha", "mode", "scale"}, "innovation")
    return InnovationLaw(
        _number(d.get("alpha", 2.0), "alpha"),
        d.get("mode", "symmetric"),
        _number(d.get("scale", 1.0), "scale"),
    )


def _build_waiting(d):
    if d is None:
        return None
    _check_keys(d, {"beta", "scale"}, "waiting")
    return WaitingLaw(_number(d.get("beta", 0.5), "beta"), _number(d.get("scale", 1.0), "scale"))


def _build_process(d, n):
    _check_keys(d, {"innovation", "waiting", "coefficients", "past_horizon"}, "process")
    if "innovation" not in d:
        raise ParameterError("process needs an innovation block", tag="PARAM_CONFIG")
    past = d.get("past_horizon")
    return ProcessConfig(
        innovation=_build_innovation(d["innovation"]),
        waiting=_build_waiting(d.get("waiting")),
        coefficients=tuple(_numbers(d.get("coefficients", [1.0]), "coefficients")),
        past_horizon=None if past is None else _number(past, "past_horizon", int),
        n=_number(n, "n", int),
    )


def _driver(cfg, key):
    """The driver block `key` of a config, which its kind cannot run
    without: a missing or null block is a PARAM_CONFIG error."""
    d = cfg.get(key)
    if d is None:
        raise ParameterError(f"config needs a {key} block", tag="PARAM_CONFIG")
    return d


def _n_list(cfg):
    ns = cfg.get("n_list", [100])
    if not isinstance(ns, (list, tuple)) or not ns:
        raise ParameterError("n_list must be a non-empty list", tag="PARAM_CONFIG")
    return _numbers(ns, "n_list", int)


def _flag(report, name, ok, n=1):
    v = 1.0 if ok else 0.0
    report.add(Estimate(name, v, v, v, n))


def _scalar(report, name, value, n=1):
    v = float(value)
    report.add(Estimate(name, v, v, v, n))


def _ladder(rep, seed, ns, sample, ref, stat, bound, reps):
    """Compare the law at each n, sample(n, s) drawn on s = stream + 1 + i,
    with the reference law ref(s) drawn on s = stream + 900.

    stat "ks" adds the KS distance and p-value of each law against the
    reference, ks_n* and ks_p_n*, then ks_decreasing and
    ks_final_within_bound. stat "w1" adds W1 between the laws at
    consecutive n, w1_n*_n*, and from the last one to the reference,
    w1_limit_n*, then w1_decreasing and w1_limit_within_bound.
    """
    # A KS ladder draws its reference before the laws, and a W1 ladder after
    # them. The order moves peak RSS, not the draws: sde_full at 1000 reps
    # with its limit drawn first read 58.3 MB against 50.3 MB, as glibc's
    # dynamic mmap threshold does once a large freed array has raised it.
    law_seeds = [SeedSpec(seed.seed, seed.stream + 1 + i) for i in range(len(ns))]
    ref_seed = SeedSpec(seed.seed, seed.stream + 900)
    if stat == "ks":
        limit = ref(ref_seed)
        stats = []
        for n, s in zip(ns, law_seeds):
            ks, p = ks_two_sample(sample(n, s), limit)
            stats.append(ks)
            _scalar(rep, f"ks_n{n}", ks, reps)
            _scalar(rep, f"ks_p_n{n}", p, reps)
        _flag(rep, "ks_decreasing", all(b <= a for a, b in zip(stats, stats[1:])), reps)
        _flag(rep, "ks_final_within_bound", stats[-1] <= bound, reps)
        return
    laws = [sample(n, s) for n, s in zip(ns, law_seeds)]
    limit = ref(ref_seed)
    stats = [wasserstein1(a, b) for a, b in zip(laws, laws[1:])]
    for na, nb, w in zip(ns, ns[1:], stats):
        _scalar(rep, f"w1_n{na}_n{nb}", w, reps)
    wl = wasserstein1(laws[-1], limit)
    _scalar(rep, f"w1_limit_n{ns[-1]}", wl, reps)
    _flag(rep, "w1_decreasing", all(b <= a for a, b in zip(stats, stats[1:])), reps)
    _flag(rep, "w1_limit_within_bound", wl <= bound, reps)


# ---------------------------------------------------------------------------
# scenario handlers (config dict -> DiagnosticReport)


def _run_simulate(cfg, seed, reps, T, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n", "csv_paths"}, "config")
    proc = _build_process(_driver(cfg, "process"), cfg.get("n", 100))
    rep = DiagnosticReport("simulate", cfg, seed.seed)
    term = terminal_samples(proc, T, reps, seed)
    rep.add(mean_estimate(term, name="terminal_mean"))
    _scalar(rep, "terminal_std", float(np.std(term, ddof=1)) if reps > 1 else 0.0, reps)
    _scalar(rep, "terminal_median", float(np.median(term)), reps)
    k = _number(cfg.get("csv_paths", min(3, reps)), "csv_paths", int)
    gen = gen_ctrw if proc.waiting is not None else gen_moving_average

    def one(i):
        b = gen(proc, T=T, seed=SeedSpec(seed.seed, seed.stream + 1 + i))
        p = Path(out_dir) / f"path_{i:04d}.csv"
        with open(p, "w") as fh:
            write_path_csv(b.x, fh)
        return b.jump_count

    if k > 0:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        counts = [one(i) for i in range(k)]
        _scalar(rep, "csv_paths_written", k, k)
        _scalar(rep, "csv_mean_jumps", float(np.mean(counts)), k)
    return rep


# the driver block of each attraction target
_TARGETS = {"stable": "innovation", "counting": "waiting", "ctrw": "process"}


def _run_attraction(cfg, seed, reps, T, out_dir):
    target = cfg.get("target", "stable")
    if target not in _TARGETS:
        raise ParameterError(f"unknown attraction target {target!r}", tag="PARAM_CONFIG")
    key = _TARGETS[target]
    _check_keys(cfg, _COMMON_KEYS | {"target", key, "n_list", "ks_bound"}, "config")
    if T != 1.0:
        raise ParameterError("attraction scenarios run at horizon 1", tag="PARAM_CONFIG")
    block = _driver(cfg, key)
    ns = _n_list(cfg)
    bound = _number(cfg.get("ks_bound", 0.03), "ks_bound")
    rep = DiagnosticReport("attraction", cfg, seed.seed)

    if target == "stable":
        law = _build_innovation(block)
        ref = lambda s: draw_stable(attractor_params(law), s.generator(0), reps)
        sample = lambda n, s: terminal_samples(ProcessConfig(innovation=law, n=n), T, reps, s)
    elif target == "counting":
        wait = _build_waiting(block)
        # the counter's limit is the D^(-1) of any walk on these waits; the
        # innovation law is a placeholder
        d_law = limit_laws(ProcessConfig(InnovationLaw(2.0, "gaussian"), wait))[1]
        ref = lambda s: terminal_inverse_subordinator_samples(d_law, T, reps, s)
        sample = lambda n, s: terminal_counting_samples(wait, n, T, reps, s)
    else:
        proc0 = _build_process(block, ns[0])
        if proc0.waiting is None:
            raise ParameterError("ctrw target needs a waiting law", tag="PARAM_CONFIG")
        z_law, d_law = limit_laws(proc0)
        ref = lambda s: terminal_time_changed_samples(z_law, d_law, T, reps, s)
        sample = lambda n, s: terminal_samples(_build_process(block, n), T, reps, s)

    _ladder(rep, seed, ns, sample, ref, "ks", bound, reps)
    return rep


def _run_gd(cfg, seed, reps, T, out_dir):
    _check_keys(
        cfg, _COMMON_KEYS | {"process", "n_list", "a", "r_grid", "c_grid"}, "config"
    )
    a = _number(cfg.get("a", 1.0), "a")
    r_grid = _numbers(cfg.get("r_grid", [1.0, 2.0]), "r_grid")
    c_grid = _numbers(cfg.get("c_grid", [1.0]), "c_grid")
    if not all(c > 0 for c in c_grid):
        # a stop level <= 0 stops every path at once: tau_c = 0 and each
        # stop_jump estimate reads a constant 0
        raise ParameterError(f"c_grid levels must be > 0, got {c_grid!r}")
    block = _driver(cfg, "process")
    ns = _n_list(cfg)
    rep = DiagnosticReport("gd", cfg, seed.seed)
    tails = {r: [] for r in r_grid}
    for i, n in enumerate(ns):
        proc = _build_process(block, n)
        sd = SeedSpec(seed.seed, seed.stream + 1 + i)
        mart, tv, jump_ratio, stop = truncated_split_samples(proc, T, a, c_grid, reps, sd)
        rep.add(mean_estimate(mart, name=f"mart_mean_n{n}"))
        _scalar(rep, f"max_jump_over_2a_n{n}", float(np.max(jump_ratio, initial=0.0)), reps)
        for r in r_grid:
            e = mean_estimate((tv > r).astype(float), name=f"tv_tail_n{n}_R{r:g}")
            rep.add(e)
            tails[r].append(e)
        for c in c_grid:
            _scalar(rep, f"stop_jump_max_n{n}_c{c:g}", float(np.max(stop[c], initial=0.0)), reps)
        if proc.waiting is not None:
            bn = estimate_bn(
                proc.innovation, n, proc.waiting.beta, a, reps, sd, c0=proc.coefficients[0]
            )
            rep.add(Estimate(f"bn_n{n}", bn.estimate.value, bn.estimate.ci_low, bn.estimate.ci_high, reps))
            _scalar(rep, f"bn_closed_form_n{n}", bn.closed_form, reps)
    for r in r_grid:
        es = tails[r]
        width = max(e.width() for e in es)
        _flag(rep, f"tv_flat_R{r:g}", abs(es[-1].value - es[len(es) // 2].value) <= 2 * width, reps)
    return rep


def _run_gdca(cfg, seed, reps, T, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n_list", "gamma"}, "config")
    block = _driver(cfg, "process")
    ns = _n_list(cfg)
    rep = DiagnosticReport("gdca", cfg, seed.seed)
    gamma = cfg.get("gamma")
    # the default depends on alpha and beta, not on n; gdca_samples rejects
    # a gamma <= 0, given or defaulted, before its first draw
    if gamma is None:
        gamma = default_gdca_gamma(_build_process(block, ns[0]))
    else:
        gamma = _number(gamma, "gamma")
    meds = []
    for i, n in enumerate(ns):
        proc = _build_process(block, n)
        vals = gdca_samples(proc, T, reps, SeedSpec(seed.seed, seed.stream + 1 + i), gamma=gamma)
        m = float(np.median(vals))
        meds.append(m)
        _scalar(rep, f"gdca_median_n{n}", m, reps)
    _scalar(rep, "gamma", gamma, reps)
    _flag(rep, "gdca_median_decreasing", all(b <= a for a, b in zip(meds, meds[1:])), reps)
    return rep


def _run_gdci(cfg, seed, reps, T, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n_list", "gamma", "window"}, "config")
    if T != 1.0:
        raise ParameterError(
            "gdci moment sums run at horizon 1; window sets their range", tag="PARAM_CONFIG"
        )
    block = _driver(cfg, "process")
    ns = _n_list(cfg)
    K = _number(cfg.get("window", 1.0), "window")
    gamma = cfg.get("gamma")
    rep = DiagnosticReport("gdci", cfg, seed.seed)
    bigs, smalls = [], []
    for n in ns:
        proc = _build_process(block, n)
        g = _number(gamma, "gamma") if gamma is not None else None
        big, small = gdci_sums(proc, K=K, gamma=g)
        bigs.append(big)
        smalls.append(small)
        _scalar(rep, f"gdci_tail_sum_n{n}", big)
        _scalar(rep, f"gdci_small_sum_n{n}", small)
    for name, vals in (("tail", bigs), ("small", smalls)):
        lo, hi = min(vals), max(vals)
        ratio = hi / lo if lo > 0 else (1.0 if hi == 0 else math.inf)
        _scalar(rep, f"gdci_{name}_ratio", ratio)
    return rep


def _run_integrals(cfg, seed, reps, T, out_dir):
    _check_keys(
        cfg,
        _COMMON_KEYS | {"process", "n_list", "integrand", "grid_step", "ks_bound", "upsilon"},
        "config",
    )
    block = _driver(cfg, "process")
    ns = _n_list(cfg)
    proc0 = _build_process(block, ns[0])
    z_law, d_law = limit_laws(proc0)
    if d_law is None:
        raise ParameterError("integrals needs a process with a waiting law", tag="PARAM_WAITING")
    grid_step = _number(cfg.get("grid_step", 2.0**-12), "grid_step")
    bound = _number(cfg.get("ks_bound", 0.05), "ks_bound")
    spec = cfg.get("integrand", {"type": "deterministic", "expr": "tanh(t)"})
    _check_keys(spec, {"type", "expr", "slope", "gamma"}, "integrand")
    kind = spec.get("type", "deterministic")
    ups = cfg.get("upsilon")
    if ups:
        _check_keys(ups, {"eps_list", "pieces", "replications"}, "upsilon")
        eps_list, m = _upsilon_params(
            _numbers(ups.get("eps_list", [0.5, 0.25]), "eps_list"), _number(ups.get("pieces", 8), "pieces", int)
        )
        ureps = _number(ups.get("replications", 60), "replications", int)
        if ureps < 1:
            raise ParameterError(f"upsilon replications must be >= 1, got {ureps!r}")
    rep = DiagnosticReport("integrals", cfg, seed.seed)

    if kind == "deterministic":
        fn = make_expr(spec.get("expr", "tanh(t)"), ("t",))
        sample = lambda p, s: deterministic_integral_samples(p, T, reps, s, fn)
        limit = lambda s: tc_grid_integral_samples(z_law, d_law, T, reps, s, grid_step=grid_step, fn=fn)
    elif kind == "follower":
        base = make_expr(spec.get("expr", "tanh(x)"), ("x",))
        C = _number(spec.get("slope", 1.0), "slope")
        gamma = _number(spec.get("gamma", 0.5 * proc0.waiting.beta / proc0.innovation.alpha), "gamma")
        # a bad slope fails before the limit law is drawn
        _follower_slope(C, gamma, max(ns))
        _scalar(rep, "gamma", gamma, reps)
        sample = lambda p, s: follower_integral_samples(p, T, reps, s, base=base, C=C, gamma=gamma)
        limit = lambda s: tc_grid_integral_samples(z_law, d_law, T, reps, s, grid_step=grid_step, base=base)
    else:
        raise ParameterError(f"unknown integrand type {kind!r}", tag="PARAM_CONFIG")

    walk = lambda n, s: sample(_build_process(block, n), s)
    _ladder(rep, seed, ns, walk, limit, "ks", bound, reps)

    if ups:
        kw = {"fn": fn} if kind == "deterministic" else {"base": base, "C": C, "gamma": gamma}
        sups = {
            n: upsilon_samples(
                _build_process(block, n), T, ureps, SeedSpec(seed.seed, seed.stream + 500 + i), eps_list, m, **kw
            )
            for i, n in enumerate(ns)
        }
        for n in sorted(sups):
            means = [rep.add(mean_estimate(row, name=f"ups_n{n}_eps{e:g}")).value for e, row in zip(eps_list, sups[n])]
        # the trend in eps at the largest n
        for a, b, va, vb in zip(eps_list, eps_list[1:], means, means[1:]):
            ratio = vb / va if va > 0 else (0.0 if vb == 0 else math.inf)
            _scalar(rep, f"eps_ratio_{a:g}_to_{b:g}", ratio, ureps)
    return rep


def _run_adversarial(cfg, seed, reps, T, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n_list"}, "config")
    ns = _n_list(cfg)
    proc = _build_process(_driver(cfg, "process"), ns[0])
    inner = adversarial_experiment(proc, ns, reps, seed, T=T)
    rep = DiagnosticReport("adversarial", cfg, seed.seed, list(inner.estimates))
    return rep


def _sde_samplers(cfg, proc, ns, T, reps, h):
    """The sde kind's (walk, limit) terminal samplers: the walk-driven scheme
    of dX = b dt + mu dD + sigma dZ on a CTRW of proc's laws, and its limit
    scheme driven by the CTRW's limit laws (limit_laws)."""
    if proc.waiting is None:
        raise ParameterError("sde needs a process with a waiting law", tag="PARAM_WAITING")
    g = _numbers(cfg.get("growth", [1.0, 10.0, 0.5]), "growth")
    if len(g) != 3:
        raise ParameterError(f"growth must be [K, C, p], got {g!r}", tag="PARAM_GROWTH")
    spec = SdeSpec(
        b=make_expr(cfg.get("drift", "0"), ("t", "ytilde", "y")),
        mu=make_expr(cfg.get("time_drift", "0"), ("t", "ytilde", "y")),
        sigma=make_expr(cfg.get("diffusion", "1"), ("t", "ytilde", "y")),
        x0=_number(cfg.get("x0", 0.0), "x0"),
        growth=tuple(g),
    )
    z_law, d_law = limit_laws(proc)
    walk = lambda p, s: sn_terminal_samples(spec, p, T, reps, s, drift_mesh=h)
    limit = lambda s: s_limit_terminal_samples(spec, z_law, d_law, T, reps, s, grid_step=h)
    return walk, limit


def _sdde_samplers(cfg, proc, ns, T, reps, h):
    """The sdde kind's (walk, limit) terminal samplers: the delay scheme on
    a moving average of proc's laws and its limit scheme. The scheme divides
    sigma by the coefficient sum, so the limit is driven by the attractor of
    one innovation. The lags of the limit grid and of the walk at every n
    in ns are checked here, before any draw."""
    if proc.waiting is not None:
        raise ParameterError("sdde needs a process with no waiting law", tag="PARAM_WAITING")
    r = _number(cfg.get("delay", 0.5), "delay")
    eta0 = _number(cfg.get("eta", 0.0), "eta")
    spec = SddeSpec(
        b=make_expr(cfg.get("drift", "sin(xdel)"), ("t", "xdel")),
        sigma=make_expr(cfg.get("diffusion", "cos(xdel)"), ("t", "xdel")),
        r=r,
        eta=StepPath([-r], [eta0], 0.0, origin=-r),
    )
    _limit_lag(spec, h)
    for n in ns:
        _walk_lag(spec, n)
    walk = lambda p, s: sddn_terminal_samples(spec, p, T, reps, s)
    limit = lambda s: sdd_limit_terminal_samples(spec, attractor_params(proc.innovation), T, reps, s, grid_step=h)
    return walk, limit


# each equation kind's own config keys and its samplers' builder
_EQUATIONS = {
    "sde": ({"time_drift", "x0", "growth"}, _sde_samplers),
    "sdde": ({"delay", "eta"}, _sdde_samplers),
}


def _run_equation(cfg, seed, reps, T, out_dir):
    kind = cfg["kind"]
    keys, samplers = _EQUATIONS[kind]
    _check_keys(
        cfg,
        _COMMON_KEYS | {"process", "n_list", "drift", "diffusion", "grid_step", "w1_bound"} | keys,
        "config",
    )
    block = _driver(cfg, "process")
    ns = _n_list(cfg)
    h = _number(cfg.get("grid_step", 2.0**-10), "grid_step")
    if not h > 0:
        raise ParameterError("grid step must be > 0", tag="PARAM_MESH")
    bound = _number(cfg.get("w1_bound", 0.05), "w1_bound")
    walk, limit = samplers(cfg, _build_process(block, ns[0]), ns, T, reps, h)
    rep = DiagnosticReport(kind, cfg, seed.seed)
    _ladder(rep, seed, ns, lambda n, s: walk(_build_process(block, n), s), limit, "w1", bound, reps)
    return rep


def _random_step_path(gen, T, max_breaks):
    k = int(gen.integers(1, max_breaks + 1))
    times = np.sort(gen.uniform(0.0, T, k))
    times[0] = 0.0
    vals = gen.normal(0.0, 1.0, k)
    return StepPath(times, vals, T)


def _run_metrics(cfg, seed, reps, T, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"breakpoints", "witness_n"}, "config")
    kmax = _number(cfg.get("breakpoints", 6), "breakpoints", int)
    if kmax < 1:
        raise ParameterError(f"breakpoints must be >= 1, got {kmax!r}")
    # the witness path steps at 1/2 - 1/n, which must lie in (0, 1/2)
    witness = _numbers(cfg.get("witness_n", [10, 100]), "witness_n", int)
    if not all(n >= 3 for n in witness):
        raise ParameterError(f"witness_n entries must be >= 3, got {witness!r}")
    gen = seed.generator(0)
    rep = DiagnosticReport("metrics", cfg, seed.seed)
    order_ok = 0
    tri_ok = 0
    for _ in range(reps):
        x = _random_step_path(gen, T, kmax)
        y = _random_step_path(gen, T, kmax)
        z = _random_step_path(gen, T, kmax)
        du = d_uniform(x, y).value
        dj = d_j1(x, y).value
        dm = d_m1(x, y).value
        if dm <= dj + 1e-12 and dj <= du + 1e-12:
            order_ok += 1
        djxz = d_j1(x, z).value
        djzy = d_j1(z, y).value
        if dj <= djxz + djzy + 1e-9:
            tri_ok += 1
    _scalar(rep, "ordering_holds", order_ok / reps, reps)
    _scalar(rep, "triangle_holds", tri_ok / reps, reps)
    jump = StepPath([0.0, 0.5], [0.0, 1.0], 1.0)
    for n in witness:
        halves = StepPath([0.0, 0.5 - 1.0 / n, 0.5], [0.0, 0.5, 1.0], 1.0)
        _scalar(rep, f"witness_j1_n{n}", d_j1(halves, jump).value, 1)
        _scalar(rep, f"witness_m1_n{n}", d_m1(halves, jump).value, 1)
    return rep


_HANDLERS = {
    "simulate": _run_simulate,
    "attraction": _run_attraction,
    "gd": _run_gd,
    "gdca": _run_gdca,
    "gdci": _run_gdci,
    "integrals": _run_integrals,
    "adversarial": _run_adversarial,
    "sde": _run_equation,
    "sdde": _run_equation,
    "metrics": _run_metrics,
}

# which config kinds each subcommand accepts
_SUBCOMMAND_KINDS = {
    "simulate": {"simulate", "attraction"},
    "diagnose": {"gd", "gdca", "gdci"},
    "integrals": {"integrals"},
    "adversarial": {"adversarial"},
    "sde": {"sde"},
    "sdde": {"sdde"},
    "metrics": {"metrics"},
}


def _canon(x):
    if isinstance(x, dict):
        return {str(k): _canon(x[k]) for k in sorted(x, key=str)}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            return repr(x)
        return float(f"{x:.12g}")
    return str(x)


def emit_report(report, path, timestamp=True):
    """Write the report as canonical JSON: sorted keys, floats at 12
    significant digits. The timestamp field is informational only and is
    excluded from byte-comparison by consumers."""
    doc = _canon(report.to_dict())
    if timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write report: {exc}", tag="IO_WRITE") from None


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config: {exc}", tag="PARAM_CONFIG") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config does not parse: {exc}", tag="PARAM_CONFIG") from None
    if not isinstance(cfg, dict):
        raise ParameterError("config must be a JSON object", tag="PARAM_CONFIG")
    return cfg


def run_scenario(cfg, seed=None, reps=None, out=None):
    """Run one scenario dict and write its report; returns the report."""
    kind = cfg.get("kind")
    if kind not in _HANDLERS:
        raise ParameterError(f"unknown scenario kind {kind!r}", tag="PARAM_KIND")
    seed_spec = SeedSpec(
        _number(cfg.get("seed", 0) if seed is None else seed, "seed", int),
        _number(cfg.get("stream", 0), "stream", int),
    )
    reps = _number(cfg.get("replications", 100) if reps is None else reps, "replications", int)
    if reps < 1:
        raise ParameterError("replications must be >= 1", tag="PARAM_CONFIG")
    T = _number(cfg.get("horizon", 1.0), "horizon")
    if not T > 0:
        raise ParameterError(f"horizon must be > 0, got {T!r}")
    out = Path(out) if out else Path(f"{kind}_report.json")
    report = _HANDLERS[kind](cfg, seed_spec, reps, T, out.parent)
    emit_report(report, out)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ctrwlab", description="heavy-tailed walk simulation scenarios"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KINDS:
        p = sub.add_parser(name)
        if name == "diagnose":
            p.add_argument("what", choices=sorted(_SUBCOMMAND_KINDS["diagnose"]))
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        kind = cfg.get("kind")
        allowed = _SUBCOMMAND_KINDS[args.command]
        if kind not in allowed:
            raise ParameterError(
                f"config kind {kind!r} does not belong to subcommand {args.command!r}",
                tag="PARAM_KIND",
            )
        if args.command == "diagnose" and kind != args.what:
            raise ParameterError(
                f"config kind {kind!r} does not match diagnose target {args.what!r}",
                tag="PARAM_KIND",
            )
        run_scenario(cfg, seed=args.seed, reps=args.reps, out=args.out)
        return 0
    except (ParameterError, RangeError, ShapeError) as exc:
        print(f"{exc.tag}: {exc}", file=sys.stderr)
        return 2
    except CtrwlabError as exc:
        print(f"{exc.tag}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # last resort: keep stderr machine-readable
        print(f"INTERNAL: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
