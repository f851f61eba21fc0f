"""Smoke test of ``scripts/ab.py``, the in-process A/B timer of two
checkouts on one benchmark workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_times_two_checkouts_on_the_grid_scans():
    # this checkout against itself: both sides load, run their rounds
    # without a failed operation and give one paired ratio per pair
    bench = sorted(p.name for p in (ROOT / "bench").iterdir())
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "price-scan", "--pairs", "2"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    lines = out.splitlines()
    assert lines[0] == "price-scan, seed 101, 2 pairs, process CPU time per round"
    assert lines[1].startswith("  A ") and lines[1].endswith(", 0 failed operations")
    assert lines[2].startswith("  B ") and lines[2].endswith(", 0 failed operations")
    assert lines[3].startswith("  B / A: median ") and lines[3].endswith(" of 2 pairs")
    # each side's median minor page faults per round, counts of this process
    a_faults, b_faults = re.fullmatch(
        r"  minor page faults per round, median: A (\S+), B (\S+)", lines[4]
    ).groups()
    assert float(a_faults) >= 0 and float(b_faults) >= 0
    assert len(lines) == 5
    # bench/ is only read
    assert sorted(p.name for p in (ROOT / "bench").iterdir()) == bench
