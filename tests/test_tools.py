"""The scripts under tools/ import qwave and the benchmark's workloads by
name. A change in either must fail here, not only when a script is run
by hand."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the digest of the seed-0 stream's first pass: its written transforms
# and wavelet coefficients, bit for bit
STREAM_DIGEST = ("6a4506774f937dc196ea38ec06b784cd"
                 "66cc06960299af9b2e48a00b3efe643c")


def test_stream_split_runs_one_pass():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stream_split.py"),
         "--passes", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert f"digest {STREAM_DIGEST}" in done.stdout.splitlines()


def test_sweep_rows_runs():
    # the 81 sweep probes build 7481 rows and sum 7128: a change to the
    # gate or to the plane's rows moves these counts
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep_rows.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    totals = [line for line in done.stdout.splitlines()
              if line.startswith("rows built: ")]
    assert len(totals) == 1
    assert totals[0].startswith("rows built: 7481 of 38637 ")
    assert totals[0].endswith("rows summed: 7128")
