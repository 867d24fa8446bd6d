"""Print the exact M1, J1 and uniform distances of a correlated CTRW from
its coupled limit-scale walk, one JSON line per n.

    python3 scripts/coupled_distances.py [--n 100 1000 10000] [--pairs P]

Pair p draws, on SeedSpec(20260406, stream=p), the walk of the
`attraction_ctrw_correlated` scenario (symmetric alpha = 1.5 innovations,
Pareto(0.8) waits, coefficients c = (1, 0.5)) on [0, 1], and psi = c_0 + c_1
times the uncorrelated walk (c = (1,)) on the same seed and the same past
horizon, so that both walks jump at the same renewals L_k/n with the same
innovations theta. The correlated walk converges to psi Z(E_t) in M1 but not
in J1 (Whitt, Stochastic-Process Limits (2002), ch. 12-13), so d_M1 should
fall with n while d_J1 need not.

Each line gives n, the number of pairs, the median jump count of the
correlated walk, the median and interquartile range (q25, q75) of d_M1,
d_J1 and d_U over the pairs, and the wall time in seconds of the slowest
pair for each distance. ctrwlab is imported from this checkout's `src`, and
the coupling from `tests/_brute.py`, which the metric tests share, so no
install is needed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from ctrwlab import SeedSpec, d_j1, d_m1, d_uniform  # noqa: E402
from _brute import coupled_pair  # noqa: E402

SEED = 20260406  # the committed seed of attraction_ctrw_correlated


def summary(n, pairs):
    metrics = {"d_m1": d_m1, "d_j1": d_j1, "d_u": d_uniform}
    values = {name: [] for name in metrics}
    slowest = dict.fromkeys(metrics, 0.0)
    jumps = []
    for p in range(pairs):
        x, y = coupled_pair(n, SeedSpec(SEED, stream=p))
        jumps.append(x.times.size - 1)
        for name, metric in metrics.items():
            t0 = time.perf_counter()
            values[name].append(metric(x, y).value)
            slowest[name] = max(slowest[name], time.perf_counter() - t0)
    out = {"n": n, "pairs": pairs, "jumps_median": float(np.median(jumps))}
    for name, vals in values.items():
        q25, med, q75 = np.quantile(vals, [0.25, 0.5, 0.75])
        out[name] = {"median": float(med), "q25": float(q25), "q75": float(q75)}
        out[f"{name}_slowest_s"] = round(slowest[name], 4)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[100, 1000, 10000])
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args(argv)
    if args.pairs < 1 or min(args.n) < 1:
        parser.error("--pairs and every --n must be >= 1")
    for n in args.n:
        print(json.dumps(summary(n, args.pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
