"""``scripts/loc.py``, the per-module line count of ``src/typedfisher``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("loc", ROOT / "scripts" / "loc.py")
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)

SAMPLE = '''"""Module docstring,
over two lines."""

import numpy as np  # a trailing comment leaves the line code

# a comment line


def f(a,
      b):
    """Function docstring."""
    text = """a string that is no docstring
spans two lines"""
    return np.hypot(a, b), text


class C:
    """Class docstring."""

    x = 1
'''


def test_counts_on_a_sample_module():
    # code: the import, both lines of f's header, both of the string, the
    # return, the class line and x; 20 lines in all
    assert loc.counts(SAMPLE) == (20, 8)


def test_prints_each_module_and_the_totals():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "loc.py")],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    modules = sorted(p.name for p in (ROOT / "src" / "typedfisher").glob("*.py"))
    assert out[0].split() == ["module", "wc", "-l", "code"]
    rows = [line.split() for line in out[1:-1]]
    assert [row[0] for row in rows] == modules
    total = out[-1].split()
    assert total[0] == "total"
    assert [int(v) for v in total[1:]] == [sum(int(row[k]) for row in rows) for k in (1, 2)]
