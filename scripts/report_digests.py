"""Print the sha256 of each shipped scenario's canonical report.

    python3 scripts/report_digests.py [--reps N] [scenario ...]

Each scenario in `scenarios/` (all of them by default; names with or without
`.json`) runs through `ctrwlab.cli.run_scenario` in a temporary directory.
The digest is taken over the bytes that `emit_report` writes with
`timestamp=False`, so two checkouts that print the same line for a scenario
produce byte-identical reports for it. `--reps` overrides the committed
replication count for cheap runs. ctrwlab is imported from this checkout's
`src`, so no install is needed.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ctrwlab.cli import emit_report, load_config, run_scenario  # noqa: E402


def digest(config_path, reps=None):
    """sha256 hex digest of one scenario's timestamp-free canonical report."""
    with tempfile.TemporaryDirectory() as tmp:
        report = run_scenario(load_config(config_path), reps=reps, out=Path(tmp) / "report.json")
        canon = Path(tmp) / "canonical.json"
        emit_report(report, canon, timestamp=False)
        return hashlib.sha256(canon.read_bytes()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("scenarios", nargs="*")
    args = parser.parse_args(argv)
    names = [s.removesuffix(".json") for s in args.scenarios] or sorted(
        p.stem for p in (ROOT / "scenarios").glob("*.json")
    )
    for name in names:
        print(name, digest(ROOT / "scenarios" / f"{name}.json", args.reps), flush=True)


if __name__ == "__main__":
    main()
