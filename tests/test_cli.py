"""Scenario runner: config validation, exit codes, canonical reports."""

import ast
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctrwlab import cli, exprs
from ctrwlab.cli import emit_report, load_config, run_scenario
from ctrwlab.errors import DataError, ParameterError
from ctrwlab.exprs import make_expr
from ctrwlab.processes import ProcessConfig, limit_laws
from ctrwlab.rng import InnovationLaw, SeedSpec, WaitingLaw
from ctrwlab.stats import DiagnosticReport, Estimate

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SRC = Path(__file__).resolve().parents[1] / "src"


CTRWLAB = shutil.which("ctrwlab")


def run_cli(args, cwd):
    assert CTRWLAB, "ctrwlab console script not on PATH"
    return subprocess.run(
        [CTRWLAB, *map(str, args)],
        capture_output=True,
        text=True,
        cwd=str(cwd),
    )


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def report_names(path):
    doc = json.loads(Path(path).read_text())
    return [e["name"] for e in doc["estimates"]]


def sim_cfg(**over):
    cfg = {
        "kind": "simulate",
        "process": {"innovation": {"alpha": 1.5, "mode": "symmetric"}},
        "n": 50,
        "replications": 6,
        "csv_paths": 2,
        "seed": 7,
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------- expressions


def test_make_expr_grammar():
    f = make_expr("0.5*tanh(y)", ("t", "ytilde", "y"))
    assert f(0.0, 1.0, 2.0) == pytest.approx(0.5 * math.tanh(2.0))
    assert f.source == "0.5*tanh(y)"
    assert f.variables == ("t", "ytilde", "y")

    # caret is accepted as exponentiation
    g = make_expr("t^2 + 1", ("t",))
    assert g(3.0) == pytest.approx(10.0)

    h = make_expr("min(t, 2) + max(t, 0)", ("t",))
    assert h(3.0) == pytest.approx(5.0)
    assert h(-1.0) == pytest.approx(-1.0)

    k = make_expr("exp(-t) + sqrt(t) + log(t) + abs(-t)", ("t",))
    assert k(1.0) == pytest.approx(math.exp(-1.0) + 2.0)

    c = make_expr("pi - e", ("t",))
    assert c(0.0) == pytest.approx(math.pi - math.e)

    u = make_expr("-t + +1", ("t",))
    assert u(0.25) == pytest.approx(0.75)

    d = make_expr("1/(1+y*y)", ("y",))
    assert d(2.0) == pytest.approx(0.2)


# the expressions of test_make_expr_grammar
GRAMMAR = (
    "0.5*tanh(y)",
    "t^2 + 1",
    "min(t, 2) + max(t, 0)",
    "exp(-t) + sqrt(t) + log(t) + abs(-t)",
    "pi - e",
    "-t + +1",
    "1/(1+y*y)",
)

_VALUES = st.one_of(
    st.floats(),
    hnp.arrays(np.float64, st.integers(0, 6), elements=st.floats()),
)


def _eval_per_call(source, variables, args):
    """A make_expr call as an eval of the parsed tree, the variables bound
    in a fresh locals dict each time."""
    code = compile(ast.parse(source.replace("^", "**"), mode="eval"), "<expr>", "eval")
    return eval(code, exprs._NAMESPACE, dict(zip(variables, args)))


def _outcome(fn, *args):
    """fn's value, or the type of the arithmetic error it raised (a Python
    float squared can overflow)."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(source=st.sampled_from(GRAMMAR), args=st.tuples(_VALUES, _VALUES, _VALUES))
def test_make_expr_matches_eval_per_call(source, args):
    variables = ("t", "ytilde", "y")
    f = make_expr(source, variables)
    got, want = _outcome(f, *args), _outcome(_eval_per_call, source, variables, args)
    assert type(got) is type(want)
    if isinstance(want, type):
        assert got is want
        return
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize(
    "src",
    [
        "q + 1",          # unknown variable
        "gamma(t)",       # unknown function
        "min(t)",         # min needs exactly two arguments
        "min(t, 1, 2)",
        "sin(t, 1)",      # sin takes one
        "sin(t=1)",       # keyword arguments rejected
        "t + 'a'",        # string literal
        "None",
        "t < 1",          # comparisons are not expressions here
        "lambda t: t",
        "t.real",         # attribute access
        "t(1)",           # calling a variable
        "",
        "t +",            # syntax error
    ],
)
def test_make_expr_rejects(src):
    with pytest.raises(ParameterError) as ei:
        make_expr(src, ("t",))
    assert ei.value.tag == "PARAM_EXPR"


def test_make_expr_call_arity_and_type():
    with pytest.raises(ParameterError) as ei:
        make_expr(3.0, ("t",))
    assert ei.value.tag == "PARAM_EXPR"
    f = make_expr("t", ("t",))
    with pytest.raises(ParameterError) as ei:
        f(1.0, 2.0)
    assert ei.value.tag == "PARAM_EXPR"
    g = make_expr("0.5*tanh(y)", ("t", "ytilde", "y"))
    for args in ((), (1.0,), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0)):
        with pytest.raises(ParameterError) as ei:
            g(*args)
        assert ei.value.tag == "PARAM_EXPR"


# ---------------------------------------------------------------- happy paths


def test_cli_simulate_writes_report_and_csv(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json", sim_cfg())
    out = tmp_path / "rep" / "sim_report.json"
    r = run_cli(["simulate", "--config", cfg, "--out", out], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out)
    for want in ("terminal_mean", "terminal_std", "terminal_median",
                 "csv_paths_written", "csv_mean_jumps"):
        assert want in names
    for i in range(2):
        csv = out.parent / f"path_{i:04d}.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "t,value"


def test_cli_simulate_deterministic_rerun(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json", sim_cfg())
    out_a = tmp_path / "a" / "r.json"
    out_b = tmp_path / "b" / "r.json"
    assert run_cli(["simulate", "--config", cfg, "--out", out_a], tmp_path).returncode == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out_b], tmp_path).returncode == 0
    da = json.loads(out_a.read_text())
    db = json.loads(out_b.read_text())
    da.pop("timestamp")
    db.pop("timestamp")
    assert da == db
    assert (out_a.parent / "path_0000.csv").read_bytes() == (
        out_b.parent / "path_0000.csv"
    ).read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "s.json", sim_cfg(csv_paths=0))
    out_a, out_b = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run_cli(["simulate", "--config", cfg, "--out", out_a], tmp_path).returncode == 0
    assert run_cli(["simulate", "--config", cfg, "--seed", 2, "--out", out_b],
                   tmp_path).returncode == 0
    da = json.loads(out_a.read_text())
    db = json.loads(out_b.read_text())
    assert da["seed"] != db["seed"]
    va = {e["name"]: e["value"] for e in da["estimates"]}
    vb = {e["name"]: e["value"] for e in db["estimates"]}
    assert any(va[n] != vb[n] for n in va)


def test_cli_attraction_under_simulate(tmp_path):
    cfg = write_cfg(tmp_path, "att.json", {
        "kind": "attraction",
        "innovation": {"alpha": 1.5, "mode": "symmetric"},
        "target": "stable",
        "n_list": [50, 100],
        "ks_bound": 1.0,
        "replications": 300,
        "seed": 3,
    })
    out = tmp_path / "att_report.json"
    r = run_cli(["simulate", "--config", cfg, "--reps", 300, "--out", out], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out)
    assert "ks_n50" in names and "ks_n100" in names
    assert "ks_decreasing" in names and "ks_final_within_bound" in names


def test_cli_diagnose_kinds(tmp_path):
    gd = write_cfg(tmp_path, "gd.json", {
        "kind": "gd",
        "process": {"innovation": {"alpha": 1.5, "mode": "centered"},
                    "waiting": {"beta": 0.8}},
        "n_list": [50],
        "a": 1.0,
        "r_grid": [1.0],
        "c_grid": [0.5],
        "replications": 60,
        "seed": 4,
    })
    out = tmp_path / "gd.out.json"
    r = run_cli(["diagnose", "gd", "--config", gd, "--out", out], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out)
    assert "mart_mean_n50" in names
    assert "bn_n50" in names and "bn_closed_form_n50" in names

    gdca = write_cfg(tmp_path, "gdca.json", {
        "kind": "gdca",
        "process": {"coefficients": [1.0, 0.5],
                    "innovation": {"alpha": 1.5, "mode": "centered"},
                    "waiting": {"beta": 0.8}},
        "n_list": [20, 40],
        "replications": 40,
        "seed": 5,
    })
    out2 = tmp_path / "gdca.out.json"
    r = run_cli(["diagnose", "gdca", "--config", gdca, "--out", out2], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out2)
    assert "gdca_median_n20" in names and "gdca_median_n40" in names
    assert "gamma" in names and "gdca_median_decreasing" in names

    gdci = write_cfg(tmp_path, "gdci.json", {
        "kind": "gdci",
        "process": {"coefficients": [1.0, 0.5],
                    "innovation": {"alpha": 1.5, "mode": "centered"},
                    "waiting": {"beta": 0.8}},
        "n_list": [30, 60],
        "replications": 1,
        "seed": 6,
    })
    out3 = tmp_path / "gdci.out.json"
    r = run_cli(["diagnose", "gdci", "--config", gdci, "--out", out3], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out3)
    assert "gdci_tail_sum_n30" in names and "gdci_small_sum_n60" in names
    assert "gdci_tail_ratio" in names and "gdci_small_ratio" in names


def test_cli_integrals_and_adversarial(tmp_path):
    integ = write_cfg(tmp_path, "integ.json", {
        "kind": "integrals",
        "process": {"innovation": {"alpha": 1.5, "mode": "symmetric"},
                    "waiting": {"beta": 0.8}},
        "n_list": [50],
        "integrand": {"type": "deterministic", "expr": "tanh(t)"},
        "grid_step": 0.015625,
        "ks_bound": 1.0,
        "upsilon": {"eps_list": [0.5], "pieces": 4, "replications": 8},
        "replications": 40,
        "seed": 8,
    })
    out = tmp_path / "integ.out.json"
    r = run_cli(["integrals", "--config", integ, "--out", out], tmp_path)
    assert r.returncode == 0, r.stderr
    assert len(report_names(out)) > 0

    adv = write_cfg(tmp_path, "adv.json", {
        "kind": "adversarial",
        "process": {"coefficients": [1.0, 1.0],
                    "innovation": {"alpha": 1.5, "mode": "symmetric"},
                    "waiting": {"beta": 0.8}},
        "n_list": [30, 60],
        "replications": 20,
        "seed": 9,
    })
    out2 = tmp_path / "adv.out.json"
    r = run_cli(["adversarial", "--config", adv, "--out", out2], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out2)
    assert "median_n30" in names and "companion_median_n60" in names
    assert "growth_exponent" in names


def test_cli_sde_and_sdde(tmp_path):
    sde = write_cfg(tmp_path, "sde.json", {
        "kind": "sde",
        "process": {"innovation": {"alpha": 2.0, "mode": "gaussian"}, "waiting": {"beta": 0.5}},
        "n_list": [20, 40],
        "drift": "0.0",
        "time_drift": "0.1",
        "diffusion": "1.0",
        "x0": 0.0,
        "grid_step": 0.03125,
        "w1_bound": 10.0,
        "replications": 40,
        "seed": 10,
    })
    out = tmp_path / "sde.out.json"
    r = run_cli(["sde", "--config", sde, "--out", out], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out)
    assert "w1_n20_n40" in names and "w1_limit_n40" in names
    assert "w1_decreasing" in names and "w1_limit_within_bound" in names

    sdde = write_cfg(tmp_path, "sdde.json", {
        "kind": "sdde",
        "process": {"innovation": {"alpha": 1.5, "mode": "centered"}, "coefficients": [1.0, 0.5]},
        "n_list": [8, 16],
        "drift": "sin(xdel)",
        "diffusion": "cos(xdel)",
        "delay": 0.5,
        "eta": 0.0,
        "grid_step": 0.0625,
        "w1_bound": 10.0,
        "replications": 30,
        "seed": 11,
    })
    out2 = tmp_path / "sdde.out.json"
    r = run_cli(["sdde", "--config", sdde, "--out", out2], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out2)
    assert "w1_n8_n16" in names and "w1_limit_n16" in names


def test_cli_metrics(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", {"kind": "metrics", "breakpoints": 4,
                                         "witness_n": [8], "replications": 40,
                                         "seed": 2})
    out = tmp_path / "m.out.json"
    r = run_cli(["metrics", "--config", cfg, "--out", out], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out)
    assert "ordering_holds" in names and "triangle_holds" in names
    assert "witness_j1_n8" in names and "witness_m1_n8" in names


# ----------------------------------------------------------------- exit codes


def check_fails(tmp_path, args, tag):
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    err = r.stderr.strip()
    assert err.startswith(tag + ":")
    # one machine-readable line on stderr, nothing else
    assert "\n" not in err


def test_gd_rejects_stop_levels_at_or_below_zero(tmp_path):
    # a stop level c <= 0 stops every path at once, so each stop_jump
    # estimate read a constant 0 in a report that exited 0
    base = {
        "kind": "gd",
        "process": {"innovation": {"alpha": 1.5, "mode": "centered"}, "waiting": {"beta": 0.8}},
        "n_list": [20],
        "replications": 10,
    }
    for i, c_grid in enumerate(([-1.0, 0.0], [0.0], [0.5, -0.5], [math.nan])):
        with pytest.raises(ParameterError) as err:
            run_scenario({**base, "c_grid": c_grid}, out=tmp_path / f"r{i}.json")
        assert err.value.tag == "PARAM" and "c_grid" in str(err.value)
    cfg = write_cfg(tmp_path, "gd.json", {**base, "c_grid": [-1.0, 0.0]})
    check_fails(tmp_path, ["diagnose", "gd", "--config", cfg, "--out", tmp_path / "gd.out.json"], "PARAM")


def test_cli_module_entry_point_keeps_stderr_empty(tmp_path):
    # `python -m ctrwlab.cli` runs the module the package has not imported
    # yet, so runpy has nothing to warn about
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cfg = write_cfg(tmp_path, "sim.json", sim_cfg(csv_paths=0))
    r = subprocess.run(
        [sys.executable, "-m", "ctrwlab.cli", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "sim.out.json")],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
    )
    assert r.returncode == 0
    assert r.stderr == ""
    assert len(report_names(tmp_path / "sim.out.json")) > 0


def test_metrics_scenario_leaves_numpy_ma_unimported(tmp_path):
    # np.unique and np.union1d import numpy.ma on their first call (numpy
    # 2.4 asks np.ma.is_masked), 16 ms of a metrics run's start-up; the
    # package takes its sorted unions without them
    code = (
        "import sys\n"
        "from ctrwlab.cli import load_config, run_scenario\n"
        f"run_scenario(load_config({str(SCENARIO_DIR / 'metrics_axioms.json')!r}), reps=20, out='r.json')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"]


def test_cli_parameter_errors(tmp_path):
    bad_alpha = write_cfg(tmp_path, "a.json",
                          sim_cfg(process={"innovation": {"alpha": 2.5}}))
    check_fails(tmp_path, ["simulate", "--config", bad_alpha], "PARAM_ALPHA_RANGE")

    stray = write_cfg(tmp_path, "b.json", sim_cfg(bogus=1))
    check_fails(tmp_path, ["simulate", "--config", stray], "PARAM_UNKNOWN_KEY")

    nested = write_cfg(tmp_path, "c.json", sim_cfg(
        process={"innovation": {"alpha": 1.5, "mode": "symmetric", "skew": 0.0}}))
    check_fails(tmp_path, ["simulate", "--config", nested], "PARAM_UNKNOWN_KEY")

    metrics = write_cfg(tmp_path, "d.json", {"kind": "metrics"})
    check_fails(tmp_path, ["simulate", "--config", metrics], "PARAM_KIND")

    gdca = write_cfg(tmp_path, "e.json", {
        "kind": "gdca",
        "process": {"innovation": {"alpha": 1.5, "mode": "centered"},
                    "waiting": {"beta": 0.8}},
        "n_list": [20],
    })
    check_fails(tmp_path, ["diagnose", "gd", "--config", gdca], "PARAM_KIND")

    check_fails(tmp_path, ["metrics", "--config", tmp_path / "missing.json"],
                "PARAM_CONFIG")

    garbage = tmp_path / "g.json"
    garbage.write_text("{not json")
    check_fails(tmp_path, ["metrics", "--config", garbage], "PARAM_CONFIG")

    toplist = tmp_path / "l.json"
    toplist.write_text("[1, 2]")
    check_fails(tmp_path, ["metrics", "--config", toplist], "PARAM_CONFIG")

    ok = write_cfg(tmp_path, "m.json", {"kind": "metrics", "breakpoints": 4,
                                        "witness_n": [8], "replications": 40})
    check_fails(tmp_path, ["metrics", "--config", ok, "--reps", 0], "PARAM_CONFIG")

    gaussian_walk = {"innovation": {"alpha": 2.0, "mode": "gaussian"}, "waiting": {"beta": 0.5}}
    bad_expr = write_cfg(tmp_path, "s.json", {
        "kind": "sde", "process": gaussian_walk,
        "n_list": [20], "drift": "q + 1", "diffusion": "1.0",
        "replications": 10, "w1_bound": 10.0,
    })
    check_fails(tmp_path, ["sde", "--config", bad_expr], "PARAM_EXPR")

    # sde configs take the walk's drift mesh from grid_step; substep is unknown
    substep = write_cfg(tmp_path, "t.json", {
        "kind": "sde", "process": gaussian_walk,
        "n_list": [20], "substep": 0.0625, "replications": 10, "w1_bound": 10.0,
    })
    check_fails(tmp_path, ["sde", "--config", substep], "PARAM_UNKNOWN_KEY")

    mesh = write_cfg(tmp_path, "u.json", {
        "kind": "integrals",
        "process": {"innovation": {"alpha": 1.5, "mode": "symmetric"},
                    "waiting": {"beta": 0.8}},
        "n_list": [20], "grid_step": 0, "replications": 10,
    })
    check_fails(tmp_path, ["integrals", "--config", mesh], "PARAM_MESH")

    # the limit schemes of both SDE kinds step on grid_step
    inn = {"alpha": 1.5, "mode": "centered"}
    for kind, extra in (("sde", {"process": {"innovation": inn, "waiting": {"beta": 0.5}}}),
                        ("sdde", {"process": {"innovation": inn}, "delay": 0.5})):
        for i, h in enumerate((0.0, -0.001, math.nan)):
            bad = write_cfg(tmp_path, f"{kind}{i}.json", {
                "kind": kind, "n_list": [20],
                "grid_step": h, "replications": 10, "w1_bound": 10.0, **extra,
            })
            check_fails(tmp_path, [kind, "--config", bad], "PARAM_MESH")

    # a horizon that is not > 0, NaN included, is a parameter error
    kinds = ((["simulate"], sim_cfg(csv_paths=0)),
             (["sde"], {"kind": "sde", "process": {"innovation": {"alpha": 1.5}, "waiting": {"beta": 0.5}},
                        "n_list": [20], "replications": 10, "w1_bound": 10.0}),
             (["sdde"], {"kind": "sdde", "process": {"innovation": {"alpha": 1.5}}, "n_list": [20],
                         "replications": 10, "w1_bound": 10.0}))
    for cmd, cfg in kinds:
        for i, T in enumerate((0.0, -1.0, math.nan)):
            bad = write_cfg(tmp_path, f"{cmd[-1]}_T{i}.json", {**cfg, "horizon": T})
            check_fails(tmp_path, [*cmd, "--config", bad], "PARAM")
    # the gdca and metrics kinds ended in untagged errors (ValueError or
    # ZeroDivisionError, OverflowError or ShapeError) before the horizon was
    # checked once for every kind
    kinds = ((["diagnose", "gdca"], {"kind": "gdca", "n_list": [20], "replications": 10,
                                     "process": {"innovation": {"alpha": 1.5, "mode": "centered"},
                                                 "coefficients": [1.0, 0.5],
                                                 "waiting": {"beta": 0.8}}}),
             (["metrics"], {"kind": "metrics", "breakpoints": 4, "witness_n": [8],
                            "replications": 10}))
    for cmd, cfg in kinds:
        for i, T in enumerate((0.0, math.nan)):
            bad = write_cfg(tmp_path, f"{cmd[-1]}_T{i}.json", {**cfg, "horizon": T})
            check_fails(tmp_path, [*cmd, "--config", bad], "PARAM")

    # gdci: the sums do not depend on the horizon, a NaN window ended in an
    # untagged ValueError, gamma <= 0 gave finite sums of infinite moments,
    # and the exact sums are for Pareto laws only; the Monte Carlo pool is gone
    gdci = {"kind": "gdci", "n_list": [20],
            "process": {"innovation": {"alpha": 1.5, "mode": "centered"},
                        "coefficients": [1.0, 0.5], "waiting": {"beta": 0.8}}}
    gaussian = {**gdci["process"], "innovation": {"alpha": 2.0, "mode": "gaussian"}}
    cases = [({"horizon": 2.0}, "PARAM_CONFIG"), ({"horizon": 0.5}, "PARAM_CONFIG"),
             ({"window": 0.0}, "PARAM"), ({"window": math.nan}, "PARAM"),
             ({"gamma": 0.0}, "PARAM_GAMMA"), ({"gamma": -0.3}, "PARAM_GAMMA"),
             ({"gamma": 1.5}, "PARAM_GAMMA"), ({"gamma": math.nan}, "PARAM_GAMMA"),
             ({"process": gaussian}, "PARAM_MODE"), ({"pool": 3000}, "PARAM_UNKNOWN_KEY")]
    for i, (extra, tag) in enumerate(cases):
        bad = write_cfg(tmp_path, f"gdci{i}.json", {**gdci, **extra})
        check_fails(tmp_path, ["diagnose", "gdci", "--config", bad], tag)

    # a follower slope that is not > 0, or a gamma that is not finite, ran
    # to a normal report
    follower = {"kind": "integrals", "n_list": [20], "replications": 10,
                "process": {"innovation": {"alpha": 1.5, "mode": "centered"},
                            "coefficients": [1.0, 0.5], "waiting": {"beta": 0.8}}}
    for i, over in enumerate(({"slope": 0.0}, {"slope": -1.0}, {"slope": math.nan},
                              {"gamma": math.nan})):
        bad = write_cfg(tmp_path, f"follower{i}.json",
                        {**follower, "integrand": {"type": "follower", **over}})
        check_fails(tmp_path, ["integrals", "--config", bad], "PARAM")


WALK = {"innovation": {"alpha": 1.5, "mode": "centered"}, "waiting": {"beta": 0.8}}


def test_gd_rejects_truncation_levels_below_one(tmp_path):
    # a = 0.5 ran to a report, a = 0 exited 3 on a CI that did not bracket
    # its value and a = -1 on a complex power in the closed-form mean
    for i, a in enumerate((0.5, 0.0, -1.0, math.nan)):
        bad = write_cfg(tmp_path, f"gd{i}.json", {"kind": "gd", "process": WALK, "n_list": [20],
                                                 "replications": 10, "a": a})
        check_fails(tmp_path, ["diagnose", "gd", "--config", bad], "PARAM_TRUNC")


def test_metrics_rejects_breakpoints_below_one(tmp_path):
    # exited 3 on numpy's "low >= high" from the random path draw
    for i, k in enumerate((0, -2)):
        bad = write_cfg(tmp_path, f"metrics{i}.json", {"kind": "metrics", "breakpoints": k,
                                                      "witness_n": [8], "replications": 10})
        check_fails(tmp_path, ["metrics", "--config", bad], "PARAM")


def test_integrals_reject_an_empty_upsilon_ensemble(tmp_path):
    # exited 3 with a DATA error once the KS tables had run
    bad = write_cfg(tmp_path, "ups.json", {"kind": "integrals", "process": WALK, "n_list": [20],
                                           "replications": 10, "upsilon": {"replications": 0}})
    check_fails(tmp_path, ["integrals", "--config", bad], "PARAM")


def no_draws(*args, **kwargs):
    raise AssertionError("a random variate was drawn")


def test_upsilon_keys_are_checked_before_any_draw(tmp_path, monkeypatch):
    # eps_list [NaN] ran to ups_n20_epsnan rows, and eps 0 or -1 and pieces
    # 0 failed only once the KS samplers and the bundles had been drawn
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    cfg = {"kind": "integrals", "process": WALK, "n_list": [20], "replications": 10}
    for i, ups in enumerate(({"eps_list": [math.nan]}, {"eps_list": [0.5, 0.0]}, {"eps_list": [-1.0]},
                             {"pieces": 0}, {"pieces": -3})):
        with pytest.raises(ParameterError) as err:
            run_scenario({**cfg, "upsilon": ups}, out=tmp_path / f"u{i}.json")
        assert err.value.tag == "PARAM" and str(err.value).startswith("upsilon"), (ups, err.value)


def test_gdca_rejects_a_gamma_not_above_zero(tmp_path, monkeypatch):
    # -1 and 0 ran to a report, and NaN exited 3 on a CI that did not
    # bracket its value
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    proc = {**WALK, "coefficients": [1.0, 0.5]}
    for i, g in enumerate((-1.0, 0.0, math.nan)):
        cfg = {"kind": "gdca", "process": proc, "n_list": [20], "replications": 10, "gamma": g}
        with pytest.raises(ParameterError) as err:
            run_scenario(cfg, out=tmp_path / f"g{i}.json")
        assert err.value.tag == "PARAM_GAMMA"
    # the default beta - beta/alpha + 0.1 reads -0.329 for a raw alpha = 0.7
    # moving average, and ran to a report
    raw = {"innovation": {"alpha": 0.7, "mode": "raw"}, "coefficients": [1.0, 0.5]}
    with pytest.raises(ParameterError) as err:
        run_scenario({"kind": "gdca", "process": raw, "n_list": [20], "replications": 10}, out=tmp_path / "d.json")
    assert err.value.tag == "PARAM_GAMMA"


def test_metrics_rejects_witness_n_below_three(tmp_path, monkeypatch):
    # [0] exited 3 on a float division by zero, and [1] and [2] exited 2 on
    # SHAPE errors about the witness path's breakpoints
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    for i, w in enumerate(([0], [1], [2], [8, 2])):
        cfg = {"kind": "metrics", "breakpoints": 4, "witness_n": w, "replications": 10}
        with pytest.raises(ParameterError, match="witness_n") as err:
            run_scenario(cfg, out=tmp_path / f"w{i}.json")
        assert err.value.tag == "PARAM"


def test_cli_integrals_follower_upsilon(tmp_path):
    cfg = write_cfg(tmp_path, "follower.json", {
        "kind": "integrals", "process": {**WALK, "coefficients": [1.0, 0.5]}, "n_list": [20, 40],
        "integrand": {"type": "follower", "expr": "tanh(x)", "slope": 1.0, "gamma": 0.3},
        "grid_step": 0.015625, "ks_bound": 1.0, "replications": 30, "seed": 10,
        "upsilon": {"eps_list": [0.5, 0.25], "pieces": 4, "replications": 6},
    })
    out = tmp_path / "follower.out.json"
    r = run_cli(["integrals", "--config", cfg, "--out", out], tmp_path)
    assert r.returncode == 0, r.stderr
    names = report_names(out)
    assert names[names.index("ups_n20_eps0.5"):] == [
        "ups_n20_eps0.5", "ups_n20_eps0.25", "ups_n40_eps0.5", "ups_n40_eps0.25", "eps_ratio_0.5_to_0.25",
    ]


def test_upsilon_streams_are_their_own(tmp_path, monkeypatch):
    # bundle j at the i-th n drew from stream + 500 + 37 i + j, so with 40
    # replications bundles 37-39 at one n replayed bundles 0-2 at the next.
    # Every generator is now built from its own (stream, lane), the upsilon
    # rows of the i-th n on stream + 500 + i, apart from the KS samplers'
    # stream + 1 + i and the limit's stream + 900
    lanes = []
    generator = SeedSpec.generator

    def record(self, lane=None):
        lanes.append((self.stream, lane))
        return generator(self, lane)

    monkeypatch.setattr(SeedSpec, "generator", record)
    cfg = {"kind": "integrals", "process": WALK, "n_list": [20, 30, 40], "replications": 10,
           "seed": 11, "stream": 3, "grid_step": 0.015625, "upsilon": {"pieces": 2, "replications": 40}}
    run_scenario(cfg, out=tmp_path / "streams.json")
    assert len(lanes) == len(set(lanes))
    assert {s for s, _ in lanes} == {4, 5, 6, 503, 504, 505, 903}


def test_numeric_config_values_given_as_strings(tmp_path):
    # float("tight") raised a ValueError that the CLI reported as INTERNAL
    # with exit 3
    attraction = {"kind": "attraction", "target": "stable", "n_list": [20], "replications": 10,
                  "innovation": {"alpha": 1.5, "mode": "symmetric"}, "ks_bound": "tight"}
    check_fails(tmp_path, ["simulate", "--config", write_cfg(tmp_path, "a.json", attraction)], "PARAM")
    gdci = {"kind": "gdci", "n_list": [20], "window": "wide",
            "process": {"innovation": {"alpha": 1.5, "mode": "centered"}, "waiting": {"beta": 0.8}}}
    check_fails(tmp_path, ["diagnose", "gdci", "--config", write_cfg(tmp_path, "g.json", gdci)], "PARAM")
    # every per-kind numeric key, at the top level, in a nested block or in
    # a list, and a number given as a string even when it would parse
    proc = {"innovation": {"alpha": 1.5, "mode": "centered"}, "waiting": {"beta": 0.8}}
    base = {
        "simulate": {"process": proc, "n": 20, "csv_paths": 0},
        "gd": {"process": proc, "n_list": [20]},
        "gdca": {"process": proc, "n_list": [20]},
        "integrals": {"process": proc, "n_list": [20],
                      "integrand": {"type": "follower"}},
        "sde": {"process": {"innovation": {"alpha": 1.5}, "waiting": {"beta": 0.5}}, "n_list": [20]},
        "sdde": {"process": {"innovation": {"alpha": 1.5}}, "n_list": [20]},
        "metrics": {"breakpoints": 4, "witness_n": [8]},
    }
    cases = [
        ("simulate", {"n": "20"}), ("simulate", {"csv_paths": "2"}),
        ("simulate", {"process": {**proc, "innovation": {"alpha": "1.5"}}}),
        ("simulate", {"process": {**proc, "waiting": {"beta": "0.8"}}}),
        ("simulate", {"process": {**proc, "coefficients": [1.0, "0.5"]}}),
        ("simulate", {"process": {**proc, "coefficients": 1.0}}),
        ("simulate", {"process": {**proc, "past_horizon": "1"}}),
        ("simulate", {"seed": "7"}), ("simulate", {"replications": "10"}),
        ("simulate", {"horizon": "1"}), ("simulate", {"stream": None}),
        ("gd", {"a": "1"}), ("gd", {"r_grid": [1.0, "2"]}), ("gd", {"c_grid": "1"}),
        ("gdca", {"gamma": "0.1"}), ("gdca", {"n_list": ["20"]}),
        ("integrals", {"grid_step": "0.01"}), ("integrals", {"ks_bound": True}),
        ("integrals", {"integrand": {"type": "follower", "slope": "1"}}),
        ("integrals", {"integrand": {"type": "follower", "gamma": "0.2"}}),
        ("integrals", {"upsilon": {"eps_list": ["0.5"]}}),
        ("integrals", {"upsilon": {"pieces": "8"}}),
        ("integrals", {"upsilon": {"replications": [4]}}),
        ("sde", {"process": {"innovation": {"alpha": "1.5"}, "waiting": {"beta": 0.5}}}),
        ("sde", {"process": {"innovation": {"alpha": 1.5}, "waiting": {"beta": "0.5"}}}),
        ("sde", {"grid_step": "0.01"}),
        ("sde", {"x0": "0"}), ("sde", {"growth": [1.0, "10", 0.5]}), ("sde", {"w1_bound": "0.1"}),
        ("sdde", {"process": {"innovation": {"alpha": "1.5"}}}), ("sdde", {"delay": "0.5"}),
        ("sdde", {"eta": "0"}),
        ("sdde", {"process": {"innovation": {"alpha": 1.5}, "coefficients": ["1", 0.5]}}),
        ("sdde", {"grid_step": "0.01"}),
        ("sdde", {"w1_bound": "0.1"}),
        ("metrics", {"breakpoints": "4"}), ("metrics", {"witness_n": ["8"]}),
        # a fraction where a whole number is due was cut to its integer part
        ("simulate", {"n": 20.5}), ("gd", {"n_list": [20, 40.5]}), ("simulate", {"replications": 9.5}),
        ("metrics", {"witness_n": [math.inf]}),
    ]
    for i, (kind, over) in enumerate(cases):
        cfg = {"kind": kind, "replications": 10, **base[kind], **over}
        with pytest.raises(ParameterError) as err:
            run_scenario(cfg, out=tmp_path / f"r{i}.json")
        assert err.value.tag == "PARAM" and "number" in str(err.value), (kind, over, err.value)


MOVING_AVERAGE = {"innovation": {"alpha": 1.5, "mode": "centered"}, "coefficients": [1.0, 0.5]}

# a config of each kind that takes a driver block, without that block: the
# subcommand, the config and the block's key
DRIVERLESS = (
    (["simulate"], {"kind": "simulate", "n": 20, "csv_paths": 0}, "process"),
    (["simulate"], {"kind": "attraction", "target": "stable", "n_list": [20]}, "innovation"),
    (["simulate"], {"kind": "attraction", "target": "counting", "n_list": [20]}, "waiting"),
    (["simulate"], {"kind": "attraction", "target": "ctrw", "n_list": [20]}, "process"),
    (["diagnose", "gd"], {"kind": "gd", "n_list": [20]}, "process"),
    (["diagnose", "gdca"], {"kind": "gdca", "n_list": [20]}, "process"),
    (["diagnose", "gdci"], {"kind": "gdci", "n_list": [20]}, "process"),
    (["integrals"], {"kind": "integrals", "n_list": [20]}, "process"),
    (["adversarial"], {"kind": "adversarial", "n_list": [20]}, "process"),
    (["sde"], {"kind": "sde", "n_list": [20]}, "process"),
    (["sdde"], {"kind": "sdde", "n_list": [20]}, "process"),
)


def test_a_missing_driver_block_is_a_config_error(tmp_path, monkeypatch):
    # a config with no process block printed "INTERNAL: 'process'" and
    # exited 3, and so did attraction's stable target with no innovation;
    # its counting target with "waiting": null met an AttributeError
    for i, (cmd, cfg, key) in enumerate(DRIVERLESS):
        r = run_cli([*cmd, "--config", write_cfg(tmp_path, f"d{i}.json", {**cfg, "replications": 10})], tmp_path)
        assert r.returncode == 2, (cfg, r.stderr)
        assert r.stderr.startswith("PARAM_CONFIG:") and key in r.stderr, (cfg, r.stderr)
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    for i, (_, cfg, key) in enumerate(DRIVERLESS):
        with pytest.raises(ParameterError) as err:
            run_scenario({**cfg, key: None, "replications": 10}, out=tmp_path / f"n{i}.json")
        assert err.value.tag == "PARAM_CONFIG" and key in str(err.value), (cfg, err.value)


def test_equation_kinds_check_their_driver_before_any_draw(tmp_path, monkeypatch):
    # an sde on a moving average met an AttributeError at its limit law, and
    # an sdde on a CTRW could draw its whole limit before the delay kernel
    # refused the walk
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    for kind, proc in (("sde", MOVING_AVERAGE), ("sdde", WALK)):
        cfg = {"kind": kind, "process": proc, "n_list": [20], "replications": 10}
        with pytest.raises(ParameterError) as err:
            run_scenario(cfg, out=tmp_path / f"{kind}.json")
        assert err.value.tag == "PARAM_WAITING", (kind, err.value)


def test_limit_grid_and_lag_checks_run_before_any_draw(tmp_path, monkeypatch):
    # each case drew walks before it failed: sdde built all three walk
    # streams before its limit grid was read, and drew the n = 100 and 1000
    # walks before n r = 3.5 was refused; sde drew its first walk block
    # before the drift mesh was; integrals on a moving average failed on a
    # beta the config never set
    sdde = load_config(SCENARIO_DIR / "sdde_full.json")
    sde = load_config(SCENARIO_DIR / "sde_full.json")
    integrals = {"kind": "integrals", "process": MOVING_AVERAGE, "n_list": [20], "replications": 10}
    cases = (
        ({**sdde, "grid_step": 0.0}, "PARAM_MESH"),
        ({**sdde, "n_list": [100, 1000, 7]}, "PARAM_DELAY"),
        ({**sdde, "grid_step": 0.3}, "PARAM_MESH"),
        ({**sde, "grid_step": 0.0}, "PARAM_MESH"),
        (integrals, "PARAM_WAITING"),
    )
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    for i, (cfg, tag) in enumerate(cases):
        with pytest.raises(ParameterError) as err:
            run_scenario({**cfg, "replications": 10}, out=tmp_path / f"c{i}.json")
        assert err.value.tag == tag, (i, err.value)


def test_every_limit_reference_takes_the_walks_limit_laws(tmp_path, monkeypatch):
    # integrals passed no waiting scale, so its limit ignored waiting.scale:
    # at scale 4 its KS read 0.103-0.113 at n = 10^2-10^4 where the
    # attraction ctrw target on the same walk read 0.025-0.041
    block = {"innovation": {"alpha": 1.5, "mode": "centered", "scale": 2.0},
             "waiting": {"beta": 0.8, "scale": 4.0}, "coefficients": [1.0, 0.5]}
    proc = ProcessConfig(InnovationLaw(1.5, "centered", 2.0), WaitingLaw(0.8, 4.0), coefficients=(1.0, 0.5))
    got = []

    def record(z_law, d_law, reps):
        got.append((z_law, d_law))
        return np.zeros(reps)

    monkeypatch.setattr(cli, "terminal_time_changed_samples", lambda z, d, T, reps, s: record(z, d, reps))
    monkeypatch.setattr(cli, "tc_grid_integral_samples", lambda z, d, T, reps, s, **kw: record(z, d, reps))
    monkeypatch.setattr(cli, "s_limit_terminal_samples", lambda spec, z, d, T, reps, s, **kw: record(z, d, reps))
    base = {"process": block, "n_list": [20], "replications": 10}
    configs = (
        {"kind": "attraction", "target": "ctrw", **base},
        {"kind": "integrals", **base, "integrand": {"type": "deterministic", "expr": "tanh(t)"}},
        {"kind": "integrals", **base, "integrand": {"type": "follower", "expr": "tanh(x)"}},
        {"kind": "sde", **base},
    )
    for i, cfg in enumerate(configs):
        run_scenario(cfg, out=tmp_path / f"r{i}.json")
    assert got == [limit_laws(proc)] * len(configs)


def test_attraction_takes_only_its_targets_driver(tmp_path, monkeypatch):
    # another target's driver block passed the key check and was ignored
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    blocks = {"innovation": WALK["innovation"], "waiting": WALK["waiting"], "process": WALK}
    for target, key in (("stable", "innovation"), ("counting", "waiting"), ("ctrw", "process")):
        for other in sorted(set(blocks) - {key}):
            cfg = {"kind": "attraction", "target": target, "n_list": [20], "replications": 10,
                   key: blocks[key], other: blocks[other]}
            with pytest.raises(ParameterError) as err:
                run_scenario(cfg, out=tmp_path / "r.json")
            assert err.value.tag == "PARAM_UNKNOWN_KEY" and other in str(err.value), (target, other)


def test_flat_driver_keys_and_coupling_are_unknown(tmp_path, monkeypatch):
    # sde and sdde read their driver from the process block that every other
    # kind reads, and the magnitude-coupled walk is gone
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    equations = {"sde": {"process": WALK}, "sdde": {"process": MOVING_AVERAGE}}
    for kind, cfg in equations.items():
        for key, value in (("alpha", 1.5), ("beta", 0.5), ("mode", "centered"), ("coefficients", [1.0, 0.5])):
            with pytest.raises(ParameterError) as err:
                run_scenario({"kind": kind, "n_list": [20], "replications": 10, **cfg, key: value},
                             out=tmp_path / "r.json")
            assert err.value.tag == "PARAM_UNKNOWN_KEY" and key in str(err.value), (kind, key)
    coupled = {**WALK, "coupling": "magnitude-coupled"}
    for _, cfg, key in DRIVERLESS:
        if key != "process":
            continue
        with pytest.raises(ParameterError) as err:
            run_scenario({**cfg, "process": coupled, "replications": 10}, out=tmp_path / "r.json")
        assert err.value.tag == "PARAM_UNKNOWN_KEY" and "coupling" in str(err.value), cfg


def test_gdci_report_reads_no_random_stream(tmp_path, monkeypatch):
    # the moment sums are exact: no generator is built, and two seeds write
    # the same report apart from the seed field itself
    cfg = load_config(SCENARIO_DIR / "gdci_moment_sums.json")
    monkeypatch.setattr(SeedSpec, "generator", no_draws)
    docs = []
    for seed in (1, 2):
        out = tmp_path / f"gdci{seed}.json"
        run_scenario(cfg, seed=seed, out=out)
        doc = json.loads(out.read_text())
        assert doc.pop("seed") == seed
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_attraction_runs_at_horizon_one_only(tmp_path):
    # the attraction references are laws at T = 1; any other horizon was
    # silently a T = 1 report
    cfgs = (
        {"target": "stable", "innovation": {"alpha": 1.5, "mode": "symmetric"}},
        {"target": "counting", "waiting": {"beta": 0.8}},
        {"target": "ctrw", "process": {"innovation": {"alpha": 1.5, "mode": "symmetric"},
                                       "waiting": {"beta": 0.8}}},
    )
    for extra in cfgs:
        cfg = {"kind": "attraction", "n_list": [20], "replications": 10, **extra}
        for T, tag in ((2.0, "PARAM_CONFIG"), (0.5, "PARAM_CONFIG"), (0.0, "PARAM"), (math.nan, "PARAM")):
            with pytest.raises(ParameterError) as ei:
                run_scenario({**cfg, "horizon": T}, out=tmp_path / "r.json")
            assert ei.value.tag == tag
        report = run_scenario({**cfg, "horizon": 1.0}, out=tmp_path / "r.json")
        assert report.names() == run_scenario(cfg, out=tmp_path / "r.json").names()


def test_run_scenario_rejects_unknown_kind(tmp_path):
    with pytest.raises(ParameterError) as ei:
        run_scenario({"kind": "zzz"}, out=tmp_path / "r.json")
    assert ei.value.tag == "PARAM_KIND"


# ------------------------------------------------------------ report emission


def test_emit_report_canonical_json(tmp_path):
    rep = DiagnosticReport("demo", {"alpha": 1.5}, 1)
    rep.add(Estimate("x", 0.1 + 0.2, 0.0, 1.0, 3))
    rep.add(Estimate("unbounded", math.inf, 0.0, math.inf, 1))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit_report(rep, p1, timestamp=False)
    emit_report(rep, p2, timestamp=False)
    assert p1.read_bytes() == p2.read_bytes()

    doc = json.loads(p1.read_text())
    assert "timestamp" not in doc
    assert list(doc) == sorted(doc)
    vals = {e["name"]: e["value"] for e in doc["estimates"]}
    # floats are canonicalised to 12 significant digits
    assert vals["x"] == 0.3
    # non-finite values survive as their repr string
    assert vals["unbounded"] == "inf"

    p3 = tmp_path / "r3.json"
    emit_report(rep, p3)
    assert "timestamp" in json.loads(p3.read_text())


def test_emit_report_unwritable_path(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rep = DiagnosticReport("demo", {}, 0)
    with pytest.raises(DataError) as ei:
        emit_report(rep, blocker / "r.json", timestamp=False)
    assert ei.value.tag == "IO_WRITE"


# ------------------------------------------------------------------ scenarios


def test_shipped_scenarios_all_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(files) >= 15
    for f in files:
        cfg = load_config(f)
        out = tmp_path / f"{f.stem}.out.json"
        report = run_scenario(cfg, reps=2, out=out)
        assert out.exists(), f.name
        assert len(report.names()) > 0, f.name
        assert len(set(report.names())) == len(report.names()), f.name
        doc = json.loads(out.read_text())
        assert doc["scenario"] == cfg["kind"]
