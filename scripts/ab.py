"""Time two checkouts against each other on one benchmark workload, in one
process, with their operations interleaved.

    python3 scripts/ab.py A B --workload experiment-fp --pairs 40 --seed 101

A and B are the roots of two source checkouts (``.`` for this one; a
``git archive`` or ``git worktree`` of another commit for the other).
Each checkout's ``src/typedfisher`` is imported under a name of its own,
``typedfisher_a`` and ``typedfisher_b``, and each gets a fresh copy of
this checkout's ``bench/workloads.py`` bound to it, built at ``--seed``.
``bench/`` is only read.  After one untimed warm-up round per side, each
pair runs one round of the workload's operations on A and one on B,
alternating which side goes first, and times each round with
``time.process_time``, the CPU time of this process alone.

It prints each side's median round time, the median of the paired ratios
B / A with their quartiles and interquartile range, in how many pairs B
was faster, and each side's median count of minor page faults per round,
the change in ``resource.getrusage(RUSAGE_SELF).ru_minflt`` of this
process over the round.  Both sides share this process's heap, so a
side's faults depend on what the other left mapped or gave back to the
OS: they show how often a side's rounds fault their memory back in here,
not what the side would take in a process of its own.  Both sides run at the same stretch of the machine's speed,
so a ratio whose quartiles lie below 1 shows a gain of a few percent that
the machine's speed steps hide from separate runs of ``bench/run.py``.
A round with a failed operation is counted, per side, and still timed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, as bench/run.py runs: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# bench/ is only read: no bytecode cache is written beside its modules
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load(path: Path, name: str, package: bool = False):
    """Import the file ``path`` as a new module ``name``; a package's
    ``__init__.py`` with its directory as the package's path."""
    locations = [str(path.parent)] if package else None
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def side(root: Path, tag: str, workload: str, seed: int):
    """The workload built by a fresh ``bench/workloads.py`` bound to the
    ``typedfisher`` of the checkout at ``root``, and that module."""
    init = root / "src" / "typedfisher" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no program source at {init.parent}")
    program = load(init, f"typedfisher_{tag}", package=True)
    # workloads.py imports ``typedfisher`` by that name: bind it to this
    # side's package while the module runs, then restore the name
    saved = sys.modules.get("typedfisher")
    sys.modules["typedfisher"] = program
    try:
        module = load(BENCH / "workloads.py", f"workloads_{tag}")
    finally:
        if saved is None:
            del sys.modules["typedfisher"]
        else:
            sys.modules["typedfisher"] = saved
    return module.build(workload, seed), module


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def round_seconds(wl) -> tuple[float, int, int]:
    """CPU seconds of one round of ``wl``'s operations, how many failed,
    and the minor page faults this process took over the round."""
    failed = 0
    faults = minor_faults()
    t0 = time.process_time()
    for op in wl.ops:
        ok, _ = op.run()
        failed += not ok
    seconds = time.process_time() - t0
    return seconds, failed, minor_faults() - faults


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].replace("\n", " "))
    ap.add_argument("a", type=Path, help="root of checkout A, the reference")
    ap.add_argument("b", type=Path, help="root of checkout B, the change")
    ap.add_argument("--workload", required=True,
                    choices=("experiment-fp", "wide-slack", "tall-slack", "price-scan"))
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sys.path.insert(0, str(BENCH))  # workloads.py imports checks.py
    sides = {}
    for tag, root in (("a", args.a), ("b", args.b)):
        wl, module = side(root.resolve(), tag, args.workload, args.seed)
        module.warm_up()
        round_seconds(wl)
        sides[tag] = wl

    times = {"a": [], "b": []}
    faults = {"a": [], "b": []}
    failed = {"a": 0, "b": 0}
    for k in range(args.pairs):
        for tag in ("ab" if k % 2 == 0 else "ba"):
            seconds, fails, round_faults = round_seconds(sides[tag])
            times[tag].append(seconds)
            faults[tag].append(round_faults)
            failed[tag] += fails

    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    q1, median, q3 = quartiles(ratios)
    faster = sum(b < a for a, b in zip(times["a"], times["b"]))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, process CPU time per round")
    for tag, root in (("a", args.a), ("b", args.b)):
        print(f"  {tag.upper()} {root}: median {statistics.median(times[tag]):.4f} s, "
              f"{failed[tag]} failed operations")
    print(f"  B / A: median {median:.4f}, quartiles {q1:.4f}-{q3:.4f}, IQR {q3 - q1:.4f}; "
          f"B faster in {faster} of {args.pairs} pairs")
    print(f"  minor page faults per round, median: A {statistics.median(faults['a']):g}, "
          f"B {statistics.median(faults['b']):g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
