"""Run one ctrwlab scenario in a fresh interpreter and record its timings.

    python3 bench/child.py SPAWN_T SCENARIO SEED REPS WORKDIR TRACE

SPAWN_T is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers interpreter start, `import ctrwlab` (and numpy)
and `load_config`. `scenario_s` is the wall time of `cli.run_scenario`, from
the loaded config to the written report. The report goes to
WORKDIR/report.json and the timings to WORKDIR/result.json. With TRACE=1
every call into the package is traced (see tracer.py); the spans are written
to WORKDIR/spans.npz and their per-layer summary is added to result.json.
The parent puts `src` on PYTHONPATH, so ctrwlab is imported without install.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    spawn_t, scenario, seed, reps, workdir, trace = argv[1:]
    workdir = Path(workdir)
    from ctrwlab import cli

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = cli.load_config(scenario)
    t0 = time.monotonic()
    cli.run_scenario(cfg, seed=int(seed), reps=int(reps), out=workdir / "report.json")
    t1 = time.monotonic()
    result = {"setup_s": t0 - float(spawn_t), "scenario_s": t1 - t0}
    if tracer is not None:
        tracer.write(workdir / "spans.npz")
        result["layers"] = tracer.summarize()
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
