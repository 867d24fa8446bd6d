"""ctrwlab benchmark: shipped scenarios run end to end in fresh interpreters.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --summary [--seed N] [--seconds S]
    python3 bench/run.py --sweep

A workload is one shipped scenario at a fixed replication count. Each run
of it starts `bench/child.py` again and again, one process at a time with
one BLAS thread, until SECONDS have passed (at least three times untraced,
or twice untraced and twice traced). Every child runs the scenario with the
scenario seed `committed seed + N`, so `--seed 0` reproduces the committed
configuration and every child of one run must write the same report bytes.

Each child's report is checked: exit status 0 and an empty stderr, a report
that parses, the workload's expected estimates present, every estimate
value finite, and canonical bytes (the report as `emit_report` writes it
without `timestamp`) whose sha256 equals the first child's. A child that
fails any of these counts in `failed`. Traced children must also repeat
every exact counter of tracer.py.

The last line of stdout is the result: with `--trace 0` the end-to-end
metrics (medians over the run's children), with `--trace 1` the per-layer
metrics (medians over its traced children) and the tracing overhead. The
line before it gives each child's figures and report sha256.

`--summary` runs every workload untraced and traced and prints every
metric with its unit, next to the machine, library versions, BLAS thread
setting, git commit and seed. `--sweep` runs each shipped scenario once at
its committed size and records wall time, peak RSS and exit status; it is a
baseline record, not a workload. Both write JSON under `.bench_out/`, where
a traced run also leaves the spans of its last traced child
(`spans-<workload>.npz`). Children write under `.bench_work/`, which each
run removes.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says


@dataclass(frozen=True)
class Workload:
    scenario: str
    reps: int  # one child takes 3-8 s on a 2-core VM, so a run holds several


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "attraction_ctrw": Workload("attraction_ctrw_correlated", 4000),
    "sde_walk": Workload("sde_full", 1000),
    "follower_integrals": Workload("integrals_follower_alpha15", 3000),
    "metric_axioms": Workload("metrics_axioms", 150),
}

END_TO_END_UNITS = {
    "scenario_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

PER_LAYER_UNITS = {
    "rng.s": "s",
    "rng.stable_variates": "count",
    "rng.pareto_variates": "count",
    "processes.s": "s",
    "processes.walk_s": "s",
    "processes.limit_s": "s",
    "processes.chunks": "count",
    "sde.s": "s",
    "sde.walk_scheme_s": "s",
    "sde.limit_scheme_s": "s",
    "exprs.s": "s",
    "exprs.calls": "count",
    "integrals.s": "s",
    "integrals.walk_s": "s",
    "integrals.limit_s": "s",
    "metrics.s": "s",
    "metrics.d_m1_s": "s",
    "metrics.d_m1_calls": "count",
    "metrics.d_j1_s": "s",
    "stats.s": "s",
    "cli.s": "s",
    "cli.io_s": "s",
    "trace.scenario_s": "s",
    "trace.overhead_s": "s",
}
COUNTERS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


def expected_estimates(cfg):
    """Report estimates a run of this scenario must contain."""
    kind = cfg["kind"]
    if kind in ("attraction", "integrals"):
        return [f"ks_n{n}" for n in cfg["n_list"]] + ["ks_final_within_bound"]
    if kind == "sde":
        return [f"w1_limit_n{cfg['n_list'][-1]}"]
    if kind == "metrics":
        return ["ordering_holds", "triangle_holds"]
    return []


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(argv, workdir, timeout):
    """Start argv with stdout/stderr in workdir and reap it.

    Returns (exit code, or None when it was killed at the timeout; rusage).
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        sys.executable, argv, child_env(),
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(workdir / "stdout.txt"), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(workdir / "stderr.txt"), flags, 0o644),
        ],
    )
    deadline = time.monotonic() + timeout
    try:
        while True:
            done, status, rusage = os.wait4(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status), rusage
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                return None, os.wait4(pid, 0)[2]
            time.sleep(0.01)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise


def run_child(path, seed, reps, trace, workdir, timeout):
    """One scenario run in a fresh interpreter; returns its checked record."""
    workdir.mkdir()
    t_spawn = time.monotonic()
    argv = [sys.executable, str(CHILD), repr(t_spawn), str(path), str(seed), str(reps),
            str(workdir), "1" if trace else "0"]
    code, ru = spawn(argv, workdir, timeout)
    rec = {
        "trace": bool(trace),
        "exit": code,
        "wall_s": time.monotonic() - t_spawn,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "problems": [],
    }
    if code != 0:
        rec["problems"].append("killed at timeout" if code is None else f"exit status {code}")
    err = (workdir / "stderr.txt").read_text(errors="replace").strip()
    if err:
        rec["problems"].append("stderr: " + err.splitlines()[-1][:200])
    try:
        rec.update(json.loads((workdir / "result.json").read_text()))
    except (OSError, ValueError):
        rec["problems"].append("no timings written")
    return rec


def check_report(rec, report_path, expected):
    """Add the report's canonical sha256 to rec, or the reasons it fails."""
    try:
        doc = json.loads(report_path.read_text())
    except (OSError, ValueError):
        rec["problems"].append("report missing or does not parse")
        return
    estimates = {e.get("name"): e for e in doc.get("estimates", [])}
    for name in expected:
        if name not in estimates:
            rec["problems"].append(f"missing estimate {name}")
    for name, e in estimates.items():
        for key in ("value", "ci_low", "ci_high"):
            v = e.get(key)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                rec["problems"].append(f"{name}.{key} is not finite: {v!r}")
    doc.pop("timestamp", None)
    canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    rec["sha256"] = hashlib.sha256(canonical.encode()).hexdigest()


def remove_if_empty(directory):
    try:
        directory.rmdir()
    except OSError:
        pass


def median_of(recs, key):
    return statistics.median(r[key] for r in recs)


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (result object, per-child details)."""
    wl = WORKLOADS[name]
    path = SCENARIOS / f"{wl.scenario}.json"
    cfg = json.loads(path.read_text())
    scenario_seed = int(cfg["seed"]) + seed
    expected = expected_estimates(cfg)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        warm = work / "warmup"
        warm.mkdir()
        code, _ = spawn([sys.executable, "-c", "import ctrwlab.cli"], warm, 120.0)
        if code != 0:
            err = (warm / "stderr.txt").read_text(errors="replace").strip()
            raise RuntimeError(f"cannot import ctrwlab from {ROOT / 'src'}: {err[-300:]}")
        recs = []
        t0 = time.monotonic()
        min_children = 4 if trace else 3
        while True:
            elapsed = time.monotonic() - t0
            if len(recs) >= min_children and (
                elapsed + median_of(recs, "wall_s") > seconds or recs[-1]["problems"]
            ):
                break
            if elapsed > RUN_LIMIT_S - 5.0:
                break
            child_trace = trace and len(recs) % 2 == 1
            d = work / f"child{len(recs):03d}"
            rec = run_child(path, scenario_seed, wl.reps, child_trace, d, RUN_LIMIT_S - elapsed)
            if not rec["problems"]:
                check_report(rec, d / "report.json", expected)
            recs.append(rec)
            if (d / "spans.npz").exists():
                OUT.mkdir(exist_ok=True)
                os.replace(d / "spans.npz", OUT / f"spans-{name}.npz")
            shutil.rmtree(d)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        remove_if_empty(WORK)

    ref = next((r["sha256"] for r in recs if "sha256" in r), None)
    for r in recs:
        if "sha256" in r and r["sha256"] != ref:
            r["problems"].append("report bytes differ from the first child's")
    traced = [r for r in recs if r["trace"] and "layers" in r]
    for c in COUNTERS:
        values = {r["layers"][c] for r in traced}
        if len(values) > 1:
            for r in traced:
                r["problems"].append(f"counter {c} drifts: {sorted(values)}")
    ok = [r for r in recs if not r["problems"]]
    failed = len(recs) - len(ok)
    plain = [r for r in ok if not r["trace"]] or [r for r in recs if "scenario_s" in r]
    if not plain:
        raise RuntimeError("no child produced timings: " + "; ".join(recs[-1]["problems"]))

    if trace:
        good_traced = [r for r in ok if r["trace"]] or traced
        if not good_traced:
            raise RuntimeError("no traced child produced spans")
        values = {m: good_traced[0]["layers"][m] if unit == "count"
                  else statistics.median(r["layers"][m] for r in good_traced)
                  for m, unit in PER_LAYER_UNITS.items() if not m.startswith("trace.")}
        values["trace.scenario_s"] = median_of(good_traced, "scenario_s")
        values["trace.overhead_s"] = values["trace.scenario_s"] - median_of(plain, "scenario_s")
        units = PER_LAYER_UNITS
    else:
        values = {m: median_of(plain, m) for m in ("scenario_s", "setup_s", "cpu_s", "peak_rss_mb")}
        values["ok_share"] = len(ok) / len(recs)
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    details = {
        "workload": name,
        "scenario": wl.scenario,
        "seed": seed,
        "scenario_seed": scenario_seed,
        "reps": wl.reps,
        "trace": bool(trace),
        "sha256": ref,
        "children": [{k: v for k, v in r.items() if k != "layers"} for r in recs],
    }
    return result, details


def environment(seed):
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def write_out(name, doc):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def summary(seed, seconds):
    env = environment(seed)
    for k, v in env.items():
        print(f"{k:>14}: {v}")
    doc = {"environment": env, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            result, details = run_workload(name, seed, seconds, trace)
            entry["traced" if trace else "end_to_end"] = {**result, "details": details}
            print(f"\n{name} ({'traced' if trace else 'untraced'}): attempted "
                  f"{result['attempted']}, failed {result['failed']}, report sha256 "
                  f"{details['sha256']}")
            for m, v in result["metrics"].items():
                print(f"  {m:<22} {v['value']:>16.6g} {v['unit']}")
        layers = entry["traced"]["metrics"]
        self_s = sum(v["value"] for m, v in layers.items() if m.endswith(".s"))
        print(f"  layer self times sum to {self_s:.4g} s of traced scenario_s "
              f"{layers['trace.scenario_s']['value']:.4g} s")
        doc["workloads"][name] = entry
    print(f"\nwritten to {write_out(f'summary-seed{seed}.json', doc)}")


def sweep():
    env = environment(None)
    rows = []
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK))
    try:
        for path in sorted(SCENARIOS.glob("*.json")):
            cfg = json.loads(path.read_text())
            d = work / path.stem
            rec = run_child(path, int(cfg.get("seed", 0)), int(cfg.get("replications", 100)),
                            False, d, 900.0)
            row = {"scenario": path.stem, **{k: rec.get(k) for k in (
                "exit", "wall_s", "setup_s", "scenario_s", "cpu_s", "peak_rss_mb", "problems")}}
            rows.append(row)
            print(f"{path.stem:<32} exit {row['exit']}  wall {row['wall_s']:8.2f} s  "
                  f"peak RSS {row['peak_rss_mb']:7.1f} MB", flush=True)
            shutil.rmtree(d)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        remove_if_empty(WORK)
    total = sum(r["wall_s"] for r in rows)
    print(f"{'total':<32}         wall {total:8.2f} s")
    print(f"written to {write_out('sweep.json', {'environment': env, 'scenarios': rows})}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--summary", action="store_true")
    mode.add_argument("--sweep", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ctrwlab").is_dir() or not SCENARIOS.is_dir():
        print(f"no ctrwlab sources or scenarios under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.sweep:
            sweep()
        elif args.summary:
            summary(args.seed, args.seconds)
        else:
            result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(details))
            print(json.dumps(result))
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
