"""Repository scripts, run as a user runs them."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "scripts" / "report_digests.py"
TRACER = ROOT / "bench" / "tracer.py"


def run_digests(args, cwd):
    return subprocess.run(
        [sys.executable, str(DIGESTS), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=str(cwd),
    )


def test_report_digests_check(tmp_path):
    printed = run_digests(["--reps", 12, "simulate_minimal"], tmp_path)
    assert printed.returncode == 0, printed.stderr
    name, sha = printed.stdout.split()
    assert name == "simulate_minimal" and len(sha) == 64

    good = tmp_path / "good.txt"
    good.write_text(printed.stdout)
    r = run_digests(["--reps", 12, "--check", good], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "simulate_minimal same\n"

    bad = tmp_path / "bad.txt"
    flipped = "0" if sha[0] != "0" else "1"
    bad.write_text(f"{name} {flipped}{sha[1:]}\n")
    r = run_digests(["--reps", 12, "--check", bad], tmp_path)
    assert r.returncode == 1
    assert r.stdout == "simulate_minimal DIFFERS\n"

    # --reps reaches the re-run: another replication count, another report
    r = run_digests(["--reps", 13, "--check", good], tmp_path)
    assert r.returncode == 1


def check_committed_digests(tmp_path, wanted, count):
    """Re-run the scenarios of scripts/digests.txt whose names start with
    one of `wanted` at --reps 300 and require `same` for each. Those digests
    hold for the numpy build they were made with; one whose draws round
    otherwise fails here as it fails the full --check."""
    lines = [
        line for line in (ROOT / "scripts" / "digests.txt").read_text().splitlines()
        if line.startswith(wanted)
    ]
    assert len(lines) == count
    listed = tmp_path / "listed.txt"
    listed.write_text("\n".join(lines) + "\n")
    r = run_digests(["--reps", 300, "--check", listed], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.split() == [w for line in lines for w in (line.split()[0], "same")]


def test_terminal_sum_scenarios_keep_their_digests(tmp_path):
    # the scenarios whose reports sum each walk row's jumps (X^n_T) or count
    # its renewals: a rounding move in a row sum changes their digests
    check_committed_digests(tmp_path, ("attraction_ctrw_", "attraction_counting_", "simulate_minimal"), 5)


def test_walk_kernel_scenarios_keep_their_digests(tmp_path):
    # the scenarios that step the follower over each row's renewals and the
    # walk-driven SDE over its live events: a rounding move in either
    # kernel changes their digests
    check_committed_digests(tmp_path, ("integrals_follower_", "sde_full"), 3)


def test_delay_kernel_scenarios_keep_their_digests(tmp_path):
    # the one scenario that steps the walk delay scheme (and the limit one)
    # through sde._sdd_steps: a rounding move in the kernel or in its
    # initial-segment reads changes its digest
    check_committed_digests(tmp_path, ("sdde_full",), 1)


def test_metric_scenarios_keep_their_digests(tmp_path):
    # the scenario that computes the exact J1 and M1 distances: a changed
    # distance moves its ordering share or its witness values
    check_committed_digests(tmp_path, ("metrics_axioms",), 1)


def test_stable_limit_scenarios_keep_their_digests(tmp_path):
    # the other scenarios that draw CMS stable limits or references (and
    # sdde_full, guarded above): a rounding move in the stable sampler
    # changes their digests
    check_committed_digests(tmp_path, ("integrals_deterministic", "attraction_alpha"), 5)


def test_ensemble_sampler_scenarios_keep_their_digests(tmp_path):
    # the scenarios that run the adversarial sup, the truncated split, the
    # gdca statistic and the exact GDCI sums: a rounding move in a row's
    # running sum or in its |V| terms changes their digests
    check_committed_digests(
        tmp_path, ("adversarial_correlated", "gd_diagnostics", "gdca_grid_statistic", "gdci_moment_sums"), 4
    )


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_names_resolve():
    # the tracer wraps public functions by name; a renamed function would
    # leave its per-layer metric silently at zero
    tracer = load_tracer()
    names = {n for group in tracer.INCLUSIVE.values() for n in group} | set(tracer.COUNTERS)
    # exprs.expr names the callables that make_expr returns, not a function
    names.discard("exprs.expr")
    assert names
    for name in sorted(names):
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS, name
        mod = importlib.import_module(f"ctrwlab.{layer}")
        obj = getattr(mod, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == mod.__name__, name
    assert inspect.isfunction(importlib.import_module("ctrwlab.exprs").make_expr)


def test_tracer_sees_the_ragged_blocks():
    # the follower draws its walk through processes.iter_ctrw_chunks, which
    # the tracer wraps as a public generator, so the block assembly is
    # processes time rather than integrals time
    import ctrwlab.cli  # noqa: F401  (every traced layer)
    from ctrwlab import InnovationLaw, ProcessConfig, SeedSpec, WaitingLaw, integrals

    saved = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "ctrwlab" or name.startswith("ctrwlab.")
    }
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        cfg = ProcessConfig(InnovationLaw(1.5, "symmetric"), WaitingLaw(0.8), (1.0, 0.5), n=1000)
        integrals.follower_integral_samples(cfg, 1.0, 600, SeedSpec(5))
    finally:
        for name, names in saved.items():
            vars(sys.modules[name]).update(names)
    layers = tracer.summarize()
    assert layers["processes.s"] > 0.0
    assert layers["integrals.walk_s"] > layers["processes.s"]


def test_coupled_distances_smoke():
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "coupled_distances.py"), "--n", "100", "--pairs", "2"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    (line,) = r.stdout.splitlines()
    row = json.loads(line)
    assert row["n"] == 100 and row["pairs"] == 2
    for name in ("d_m1", "d_j1", "d_u"):
        assert row[name]["q25"] <= row[name]["median"] <= row[name]["q75"]
        assert row[f"{name}_slowest_s"] >= 0.0
    # M1 <= J1 <= U holds pair by pair, so it holds for the medians of two
    assert row["d_m1"]["median"] <= row["d_j1"]["median"] + 1e-12
    assert row["d_j1"]["median"] <= row["d_u"]["median"] + 1e-12


def test_committed_digests_name_every_scenario_once():
    # scripts/digests.txt is `report_digests.py --reps 300` over every
    # shipped scenario. The digests themselves depend on the machine, so
    # only the names and the line format are checked here.
    lines = [line.split() for line in (ROOT / "scripts" / "digests.txt").read_text().splitlines()]
    assert all(len(fields) == 2 and len(fields[1]) == 64 for fields in lines)
    names = [fields[0] for fields in lines]
    assert sorted(names) == sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is deleted breaks
    # `from ctrwlab import *` only when someone runs it
    ctrwlab = importlib.import_module("ctrwlab")
    assert len(set(ctrwlab.__all__)) == len(ctrwlab.__all__)
    for name in ctrwlab.__all__:
        assert getattr(ctrwlab, name) is not None, name


def test_readme_quick_start_runs(tmp_path):
    # the Python block under "Quick start", run as written from this
    # checkout's src
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Quick start")) + len("```python\n")
    code = readme[start : readme.index("```", start)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert r.returncode == 0, r.stderr
    assert len(r.stdout.split()) == 2 and r.stderr == ""
