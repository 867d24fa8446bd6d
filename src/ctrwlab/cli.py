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
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .decompositions import (
    default_gdca_gamma,
    estimate_bn,
    gdca_samples,
    gdci_sums_mc,
    truncated_split_samples,
)
from .errors import CtrwlabError, DataError, ParameterError, RangeError, ShapeError
from .exprs import make_expr
from .integrals import (
    DeterministicIntegrand,
    LipschitzFollower,
    adversarial_experiment,
    deterministic_integral_samples,
    follower_integral_samples,
    tc_grid_integral_samples,
    upsilon_estimate,
)
from .metrics import d_j1, d_m1, d_uniform
from .paths import StepPath, write_path_csv
from .processes import (
    ProcessConfig,
    gen_ctrw,
    gen_moving_average,
    terminal_counting_samples,
    terminal_inverse_subordinator_samples,
    terminal_samples,
    terminal_time_changed_samples,
)
from .rng import (
    InnovationLaw,
    SeedSpec,
    StableParams,
    WaitingLaw,
    attractor_params,
    draw_stable,
    wait_attractor_scale,
)
from .sde import (
    SddeSpec,
    SdeSpec,
    s_limit_terminal_samples,
    sdd_limit_terminal_samples,
    sddn_terminal_samples,
    sn_terminal_samples,
)
from .stats import DiagnosticReport, Estimate, ks_two_sample, mean_estimate, wasserstein1

_KINDS = {
    "simulate",
    "attraction",
    "gd",
    "gdca",
    "gdci",
    "integrals",
    "adversarial",
    "sde",
    "sdde",
    "metrics",
}

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


def _build_innovation(d):
    _check_keys(d, {"alpha", "mode", "scale"}, "innovation")
    return InnovationLaw(
        float(d.get("alpha", 2.0)),
        d.get("mode", "symmetric"),
        float(d.get("scale", 1.0)),
    )


def _build_waiting(d):
    if d is None:
        return None
    _check_keys(d, {"beta", "scale"}, "waiting")
    return WaitingLaw(float(d.get("beta", 0.5)), float(d.get("scale", 1.0)))


def _build_process(d, n):
    _check_keys(
        d, {"innovation", "waiting", "coefficients", "past_horizon", "coupling"}, "process"
    )
    if "innovation" not in d:
        raise ParameterError("process needs an innovation block", tag="PARAM_CONFIG")
    return ProcessConfig(
        innovation=_build_innovation(d["innovation"]),
        waiting=_build_waiting(d.get("waiting")),
        coefficients=tuple(float(c) for c in d.get("coefficients", (1.0,))),
        past_horizon=d.get("past_horizon"),
        n=int(n),
        coupling=d.get("coupling", "uncoupled"),
    )


def _n_list(cfg):
    ns = cfg.get("n_list", [100])
    if not isinstance(ns, (list, tuple)) or not ns:
        raise ParameterError("n_list must be a non-empty list", tag="PARAM_CONFIG")
    return [int(v) for v in ns]


def _flag(report, name, ok, n=1):
    v = 1.0 if ok else 0.0
    report.add(Estimate(name, v, v, v, n))


def _scalar(report, name, value, n=1):
    v = float(value)
    report.add(Estimate(name, v, v, v, n))


def _ks_table(rep, seed, samplers, ref, bound, reps):
    """KS of each (n, sampler) law, sampled on stream + 1 + i, against ref,
    plus the "decreasing in n" and "last within bound" flags."""
    stats = []
    for i, (n, sampler) in enumerate(samplers):
        vals = sampler(SeedSpec(seed.seed, seed.stream + 1 + i))
        ks, p = ks_two_sample(vals, ref)
        stats.append(ks)
        _scalar(rep, f"ks_n{n}", ks, reps)
        _scalar(rep, f"ks_p_n{n}", p, reps)
    _flag(rep, "ks_decreasing", all(b <= a for a, b in zip(stats, stats[1:])), reps)
    _flag(rep, "ks_final_within_bound", stats[-1] <= bound, reps)


def _w1_table(rep, ns, laws, limit, bound, reps):
    """W1 between the laws at consecutive n and from the last one to the
    limit, plus the "decreasing in n" and "limit within bound" flags."""
    w1s = [wasserstein1(a, b) for a, b in zip(laws, laws[1:])]
    for (na, nb), w in zip(zip(ns, ns[1:]), w1s):
        _scalar(rep, f"w1_n{na}_n{nb}", w, reps)
    wl = wasserstein1(laws[-1], limit)
    _scalar(rep, f"w1_limit_n{ns[-1]}", wl, reps)
    _flag(rep, "w1_decreasing", all(b <= a for a, b in zip(w1s, w1s[1:])), reps)
    _flag(rep, "w1_limit_within_bound", wl <= bound, reps)


# ---------------------------------------------------------------------------
# scenario handlers (config dict -> DiagnosticReport)


def _run_simulate(cfg, seed, reps, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n", "csv_paths"}, "config")
    T = float(cfg.get("horizon", 1.0))
    proc = _build_process(cfg["process"], cfg.get("n", 100))
    rep = DiagnosticReport("simulate", cfg, seed.seed)
    term = terminal_samples(proc, T, reps, seed)
    rep.add(mean_estimate(term, name="terminal_mean"))
    _scalar(rep, "terminal_std", float(np.std(term, ddof=1)) if reps > 1 else 0.0, reps)
    _scalar(rep, "terminal_median", float(np.median(term)), reps)
    k = int(cfg.get("csv_paths", min(3, reps)))
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


def _run_attraction(cfg, seed, reps, out_dir):
    _check_keys(
        cfg,
        _COMMON_KEYS
        | {"target", "innovation", "waiting", "process", "n_list", "ks_bound", "grid_step"},
        "config",
    )
    target = cfg.get("target", "stable")
    ns = _n_list(cfg)
    bound = float(cfg.get("ks_bound", 0.03))
    h = float(cfg.get("grid_step", 2.0**-12))
    rep = DiagnosticReport("attraction", cfg, seed.seed)
    ref_seed = SeedSpec(seed.seed, seed.stream + 900)

    if target == "stable":
        law = _build_innovation(cfg["innovation"])
        ref = draw_stable(attractor_params(law), ref_seed.generator(0), reps)
        samplers = [
            (n, lambda s, n=n: terminal_samples(ProcessConfig(innovation=law, n=n), 1.0, reps, s))
            for n in ns
        ]
    elif target == "counting":
        wait = _build_waiting(cfg.get("waiting", {}))
        ref = terminal_inverse_subordinator_samples(
            wait.beta, 1.0, reps, ref_seed, grid_step=h,
            increment_scale=wait.scale * wait_attractor_scale(wait.beta),
        )
        samplers = [
            (n, lambda s, n=n: terminal_counting_samples(wait, n, 1.0, reps, s)) for n in ns
        ]
    elif target == "ctrw":
        proc0 = _build_process(cfg["process"], ns[0])
        if proc0.waiting is None:
            raise ParameterError("ctrw target needs a waiting law", tag="PARAM_CONFIG")
        ref = terminal_time_changed_samples(
            proc0.innovation.alpha, proc0.waiting.beta, 1.0, reps, ref_seed,
            grid_step=h, z_params=_limit_z_params(proc0),
            increment_scale=proc0.waiting.scale * wait_attractor_scale(proc0.waiting.beta),
        )
        samplers = [
            (
                n,
                lambda s, n=n: terminal_samples(_build_process(cfg["process"], n), 1.0, reps, s),
            )
            for n in ns
        ]
    else:
        raise ParameterError(f"unknown attraction target {target!r}", tag="PARAM_CONFIG")

    _ks_table(rep, seed, samplers, ref, bound, reps)
    return rep


def _run_gd(cfg, seed, reps, out_dir):
    _check_keys(
        cfg, _COMMON_KEYS | {"process", "n_list", "a", "r_grid", "c_grid"}, "config"
    )
    T = float(cfg.get("horizon", 1.0))
    a = float(cfg.get("a", 1.0))
    r_grid = [float(r) for r in cfg.get("r_grid", [1.0, 2.0])]
    c_grid = [float(c) for c in cfg.get("c_grid", [1.0])]
    ns = _n_list(cfg)
    rep = DiagnosticReport("gd", cfg, seed.seed)
    tails = {r: [] for r in r_grid}
    for i, n in enumerate(ns):
        proc = _build_process(cfg["process"], n)
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


def _run_gdca(cfg, seed, reps, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n_list", "gamma"}, "config")
    T = float(cfg.get("horizon", 1.0))
    ns = _n_list(cfg)
    rep = DiagnosticReport("gdca", cfg, seed.seed)
    gamma = cfg.get("gamma")
    meds = []
    for i, n in enumerate(ns):
        proc = _build_process(cfg["process"], n)
        g = float(gamma) if gamma is not None else default_gdca_gamma(proc)
        vals = gdca_samples(proc, T, reps, SeedSpec(seed.seed, seed.stream + 1 + i), gamma=g)
        m = float(np.median(vals))
        meds.append(m)
        _scalar(rep, f"gdca_median_n{n}", m, reps)
    _scalar(rep, "gamma", g, reps)
    _flag(rep, "gdca_median_decreasing", all(b <= a for a, b in zip(meds, meds[1:])), reps)
    return rep


def _run_gdci(cfg, seed, reps, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n_list", "gamma", "window", "pool"}, "config")
    ns = _n_list(cfg)
    K = float(cfg.get("window", 1.0))
    pool = int(cfg.get("pool", 200_000))
    gamma = cfg.get("gamma")
    rep = DiagnosticReport("gdci", cfg, seed.seed)
    bigs, smalls = [], []
    for i, n in enumerate(ns):
        proc = _build_process(cfg["process"], n)
        g = float(gamma) if gamma is not None else None
        big, small = gdci_sums_mc(
            proc, K=K, gamma=g, pool=pool, seed=SeedSpec(seed.seed, seed.stream + 1 + i)
        )
        bigs.append(big)
        smalls.append(small)
        _scalar(rep, f"gdci_tail_sum_n{n}", big, pool)
        _scalar(rep, f"gdci_small_sum_n{n}", small, pool)
    for name, vals in (("tail", bigs), ("small", smalls)):
        lo, hi = min(vals), max(vals)
        ratio = hi / lo if lo > 0 else (1.0 if hi == 0 else math.inf)
        _scalar(rep, f"gdci_{name}_ratio", ratio, pool)
    return rep


def _limit_z_params(proc):
    """Attractor of one filtered innovation, scaled by the coefficient sum."""
    p = attractor_params(proc.innovation)
    return StableParams(p.alpha, p.skew, p.scale * proc.psi)


def _run_integrals(cfg, seed, reps, out_dir):
    _check_keys(
        cfg,
        _COMMON_KEYS | {"process", "n_list", "integrand", "grid_step", "ks_bound", "upsilon"},
        "config",
    )
    T = float(cfg.get("horizon", 1.0))
    ns = _n_list(cfg)
    grid_step = float(cfg.get("grid_step", 2.0**-12))
    bound = float(cfg.get("ks_bound", 0.05))
    spec = cfg.get("integrand", {"type": "deterministic", "expr": "tanh(t)"})
    _check_keys(spec, {"type", "expr", "slope", "gamma"}, "integrand")
    kind = spec.get("type", "deterministic")
    rep = DiagnosticReport("integrals", cfg, seed.seed)
    proc0 = _build_process(cfg["process"], ns[0])
    alpha = proc0.innovation.alpha
    beta = proc0.beta_eff
    zp = _limit_z_params(proc0)

    if kind == "deterministic":
        fn = make_expr(spec.get("expr", "tanh(t)"), ("t",))
        sample = lambda p, s: deterministic_integral_samples(p, T, reps, s, fn)
        limit = tc_grid_integral_samples(
            alpha, beta, T, reps, SeedSpec(seed.seed, seed.stream + 900),
            grid_step=grid_step, fn=fn, z_params=zp,
        )
    elif kind == "follower":
        base = make_expr(spec.get("expr", "tanh(x)"), ("x",))
        C = float(spec.get("slope", 1.0))
        gamma = float(spec.get("gamma", 0.5 * beta / alpha))
        _scalar(rep, "gamma", gamma, reps)
        sample = lambda p, s: follower_integral_samples(p, T, reps, s, base=base, C=C, gamma=gamma)
        limit = tc_grid_integral_samples(
            alpha, beta, T, reps, SeedSpec(seed.seed, seed.stream + 900),
            grid_step=grid_step, base=base, z_params=zp,
        )
    else:
        raise ParameterError(f"unknown integrand type {kind!r}", tag="PARAM_CONFIG")

    samplers = [(n, lambda s, n=n: sample(_build_process(cfg["process"], n), s)) for n in ns]
    _ks_table(rep, seed, samplers, limit, bound, reps)

    ups = cfg.get("upsilon")
    if ups:
        _check_keys(ups, {"eps_list", "pieces", "replications"}, "upsilon")
        eps_list = [float(e) for e in ups.get("eps_list", [0.5, 0.25])]
        m = int(ups.get("pieces", 8))
        ureps = int(ups.get("replications", 60))

        def bundles_for(i_n):
            i, n = i_n
            proc = _build_process(cfg["process"], n)
            gen = gen_ctrw if proc.waiting is not None else gen_moving_average
            return n, [
                gen(proc, T=T, seed=SeedSpec(seed.seed, seed.stream + 500 + 37 * i + j))
                for j in range(ureps)
            ]

        bundles_by_n = dict(map(bundles_for, enumerate(ns)))
        if kind == "deterministic":
            factory = lambda b: DeterministicIntegrand(lambda t: fn(t))
        else:
            factory = lambda b: LipschitzFollower(b, base=base, C=C, gamma=gamma)
        urep = upsilon_estimate(bundles_by_n, factory, eps_list, m)
        for e in urep.estimates:
            rep.add(e)
    return rep


def _run_adversarial(cfg, seed, reps, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"process", "n_list"}, "config")
    T = float(cfg.get("horizon", 1.0))
    proc = _build_process(cfg["process"], _n_list(cfg)[0])
    inner = adversarial_experiment(proc, _n_list(cfg), reps, seed, T=T)
    rep = DiagnosticReport("adversarial", cfg, seed.seed, list(inner.estimates))
    return rep


def _run_sde(cfg, seed, reps, out_dir):
    _check_keys(
        cfg,
        _COMMON_KEYS
        | {"alpha", "beta", "mode", "n_list", "drift", "time_drift", "diffusion",
           "x0", "growth", "grid_step", "substep", "w1_bound"},
        "config",
    )
    T = float(cfg.get("horizon", 1.0))
    alpha = float(cfg.get("alpha", 1.5))
    beta = float(cfg.get("beta", 0.5))
    mode = cfg.get("mode", "symmetric")
    ns = _n_list(cfg)
    g = cfg.get("growth", [1.0, 10.0, 0.5])
    spec = SdeSpec(
        b=make_expr(cfg.get("drift", "0"), ("t", "ytilde", "y")),
        mu=make_expr(cfg.get("time_drift", "0"), ("t", "ytilde", "y")),
        sigma=make_expr(cfg.get("diffusion", "1"), ("t", "ytilde", "y")),
        x0=float(cfg.get("x0", 0.0)),
        growth=(float(g[0]), float(g[1]), float(g[2])),
    )
    rep = DiagnosticReport("sde", cfg, seed.seed)
    laws = []
    for i, n in enumerate(ns):
        proc = ProcessConfig(
            innovation=InnovationLaw(alpha, mode), waiting=WaitingLaw(beta), n=n
        )
        laws.append(
            sn_terminal_samples(
                spec, proc, T, reps, SeedSpec(seed.seed, seed.stream + 1 + i),
                substep=float(cfg.get("substep", 2.0**-10)),
            )
        )
    limit = s_limit_terminal_samples(
        spec, alpha, beta, T, reps, SeedSpec(seed.seed, seed.stream + 900),
        grid_step=float(cfg.get("grid_step", 2.0**-10)), mode=mode,
    )
    _w1_table(rep, ns, laws, limit, float(cfg.get("w1_bound", 0.05)), reps)
    return rep


def _run_sdde(cfg, seed, reps, out_dir):
    _check_keys(
        cfg,
        _COMMON_KEYS
        | {"alpha", "mode", "n_list", "drift", "diffusion", "delay", "eta",
           "coefficients", "grid_step", "w1_bound"},
        "config",
    )
    T = float(cfg.get("horizon", 1.0))
    alpha = float(cfg.get("alpha", 1.5))
    mode = cfg.get("mode", "centered")
    r = float(cfg.get("delay", 0.5))
    eta0 = float(cfg.get("eta", 0.0))
    coeffs = tuple(float(c) for c in cfg.get("coefficients", (1.0, 0.5)))
    ns = _n_list(cfg)
    spec = SddeSpec(
        b=make_expr(cfg.get("drift", "sin(xdel)"), ("t", "xdel")),
        sigma=make_expr(cfg.get("diffusion", "cos(xdel)"), ("t", "xdel")),
        r=r,
        eta=StepPath([-r], [eta0], 0.0, origin=-r),
    )
    rep = DiagnosticReport("sdde", cfg, seed.seed)
    laws = []
    for i, n in enumerate(ns):
        proc = ProcessConfig(innovation=InnovationLaw(alpha, mode), coefficients=coeffs, n=n)
        laws.append(
            sddn_terminal_samples(spec, proc, T, reps, SeedSpec(seed.seed, seed.stream + 1 + i))
        )
    limit = sdd_limit_terminal_samples(
        spec, alpha, T, reps, SeedSpec(seed.seed, seed.stream + 900),
        grid_step=float(cfg.get("grid_step", 2.0**-10)), mode=mode,
    )
    _w1_table(rep, ns, laws, limit, float(cfg.get("w1_bound", 0.05)), reps)
    return rep


def _random_step_path(gen, T, max_breaks):
    k = int(gen.integers(1, max_breaks + 1))
    times = np.sort(gen.uniform(0.0, T, k))
    times[0] = 0.0
    vals = gen.normal(0.0, 1.0, k)
    return StepPath(times, vals, T)


def _run_metrics(cfg, seed, reps, out_dir):
    _check_keys(cfg, _COMMON_KEYS | {"breakpoints", "witness_n"}, "config")
    T = float(cfg.get("horizon", 1.0))
    kmax = int(cfg.get("breakpoints", 6))
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
    for n in cfg.get("witness_n", [10, 100]):
        n = int(n)
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
    "sde": _run_sde,
    "sdde": _run_sdde,
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
    if kind not in _KINDS:
        raise ParameterError(f"unknown scenario kind {kind!r}", tag="PARAM_KIND")
    seed_spec = SeedSpec(
        int(cfg.get("seed", 0) if seed is None else seed), int(cfg.get("stream", 0))
    )
    reps = int(cfg.get("replications", 100) if reps is None else reps)
    if reps < 1:
        raise ParameterError("replications must be >= 1", tag="PARAM_CONFIG")
    out = Path(out) if out else Path(f"{kind}_report.json")
    report = _HANDLERS[kind](cfg, seed_spec, reps, out.parent)
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
