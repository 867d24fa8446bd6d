"""Print the sha256 of each shipped scenario's canonical report.

    python3 scripts/report_digests.py [--reps N] [scenario ...]
    python3 scripts/report_digests.py [--reps N] --check FILE

Each scenario in `scenarios/` (all of them by default; names with or without
`.json`) runs through `ctrwlab.cli.run_scenario` in a temporary directory.
The digest is taken over the bytes that `emit_report` writes with
`timestamp=False`, so two checkouts that print the same line for a scenario
produce byte-identical reports for it. `--reps` overrides the committed
replication count for cheap runs. ctrwlab is imported from this checkout's
`src`, so no install is needed.

`--check FILE` reads lines of `<scenario> <sha256>` (this script's own
output, say from another checkout), re-runs those scenarios here and prints
`<scenario> same` or `<scenario> DIFFERS` for each; the exit status is 1 if
any digest differs.
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
    parser.add_argument("--check", metavar="FILE", default=None)
    parser.add_argument("scenarios", nargs="*")
    args = parser.parse_args(argv)
    if args.check is not None:
        if args.scenarios:
            parser.error("--check takes its scenarios from FILE")
        lines = Path(args.check).read_text().splitlines()
        expected = [line.split() for line in lines if line.strip()]
        if any(len(fields) != 2 for fields in expected):
            parser.error(f"{args.check}: every line must be '<scenario> <sha256>'")
        differs = False
        for name, want in expected:
            same = digest(ROOT / "scenarios" / f"{name}.json", args.reps) == want
            differs |= not same
            print(name, "same" if same else "DIFFERS", flush=True)
        return 1 if differs else 0
    names = [s.removesuffix(".json") for s in args.scenarios] or sorted(
        p.stem for p in (ROOT / "scenarios").glob("*.json")
    )
    for name in names:
        print(name, digest(ROOT / "scenarios" / f"{name}.json", args.reps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
