"""Repository scripts, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"


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
