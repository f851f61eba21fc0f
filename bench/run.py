"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload experiment-fp --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run repeats whole rounds of the workload's operations until
``--seconds`` have passed, then checks every output with the independent
checks in ``checks.py``, and prints one JSON object as its last line:

    {"correct": true, "attempted": 12, "failed": 4, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``op_ref``, ``peak_rss_mb``); with ``--trace 1`` the program's public
functions are wrapped and the metrics are per layer.  Per-operation
records go to ``bench/out/``, and the spans of a traced run with them.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the Newton step's batched inverses are small, and extra
# threads only add run-to-run spread.  Set before numpy is first imported;
# the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("experiment-fp", "wide-slack", "tall-slack", "price-scan")
SETUP_SAMPLES = 5
# Set-up time is reported in seconds on a machine where one pass of the
# reference kernel takes this long: the raw median is scaled by this over
# the mean reference time around the set-ups (see README.md).
REF_NOMINAL_S = 0.05


def _import_program():
    """Put the checkout's ``src`` first on the path and import the workloads."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import typedfisher
    import workloads

    if Path(typedfisher.__file__).resolve().parent != SRC / "typedfisher":
        raise ImportError(f"typedfisher imported from {typedfisher.__file__}, not {SRC}")
    return workloads


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import the program, build the inputs and validate each market."""
    t0 = time.perf_counter()
    wl_mod = _import_program()
    from typedfisher import instances

    wl = wl_mod.build(workload, seed)
    for inst in wl.markets:
        instances.validate_instance(inst)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, reference) -> tuple[list[float], list[float]]:
    """Set-up times, each measured in a fresh interpreter, and reference times.

    The reference runs before the first set-up and after each one, so that
    both are timed at the same stretch of the machine's speed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    setups, refs = [], [reference()]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        setups.append(float(proc.stdout.split()[-1]))
        refs.append(reference())
    return setups, refs


def reference_kernel():
    """A fixed computation whose time stands for the machine's current speed.

    A Python loop and small batched numpy inverses, the two kinds of work
    the program does.  It uses nothing from the program, so no change to
    the program changes its time.  Returns a function that times one pass.
    """
    import numpy as np

    blocks = np.random.default_rng(0).random((100, 20, 20)) + 20.0 * np.eye(20)

    def seconds() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i % 7
        for _ in range(40):
            inv = np.linalg.inv(blocks)
            np.einsum("nab,nb->na", inv, blocks[:, 0, :])
        return time.perf_counter() - t0

    return seconds


def measure(wl, seconds: float, reference) -> tuple[list[dict], list[float], int]:
    """Run whole rounds of ``wl.ops`` until ``seconds`` have passed.

    Returns one record per operation, the reference times and the number of
    rounds.  The ``reference`` timer runs once before the first operation
    and once after each operation.  An operation that raises counts as
    failed; its traceback goes to stderr.
    """
    records, refs, rounds = [], [], 0
    t_start = time.perf_counter()
    refs.append(reference())
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                ok, output = op.run()
            except Exception:  # a crash in the program is a failed operation
                traceback.print_exc()
                ok, output = False, {}
            elapsed = time.perf_counter() - t0
            scalars = {k: v for k, v in output.items() if isinstance(v, (str, int, float))}
            records.append({"op": op.name, "round": rounds, "ok": ok, "s": elapsed,
                            **scalars, "kept": op.keep(output) if ok else None})
            refs.append(reference())
        rounds += 1
    return records, refs, rounds


def check_outputs(wl, records) -> list[str]:
    """Independent checks of every successful operation's output."""
    by_name = {op.name: op for op in wl.ops}
    errors = []
    for rec in records:
        if rec["ok"]:
            errors += [f"round {rec['round']} {rec['op']}: {e}"
                       for e in by_name[rec["op"]].check(rec["kept"])]
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print one set-up time and exit (used by the set-up probes)")
    args = ap.parse_args(argv)

    if not (SRC / "typedfisher" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_once(args.workload, args.seed)))
        return 0

    reference = reference_kernel()
    setup, setup_refs = setup_seconds(args.workload, args.seed, reference)
    wl_mod = _import_program()
    wl = wl_mod.build(args.workload, args.seed)
    wl_mod.warm_up()

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        records, refs, rounds = measure(wl, args.seconds, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = check_outputs(wl, records)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    op_s = statistics.fmean(rec["s"] for rec in records)
    op_ref = op_s / statistics.fmean(refs)

    if tracer is not None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics(rounds).items()}
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(setup) * REF_NOMINAL_S / statistics.fmean(setup_refs),
                "unit": "s",
            },
            "op_ref": {"value": op_ref, "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(OUT / f"spans-{stem}.npz")
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "op_s": op_s, "op_ref": op_ref, "setup_s": setup,
        "setup_ref_s": setup_refs, "peak_rss_mb": peak_rss_mb, "ref_s": refs,
        "check_errors": errors, "metrics": metrics,
        "ops": [{k: v for k, v in rec.items() if k != "kept"} for rec in records],
    }, indent=1) + "\n")

    print(f"{args.workload}: {rounds} rounds, {len(records)} operations, "
          f"mean {op_s:.4f} s or {op_ref:.4f} ref per operation, trace {args.trace}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(1 for rec in records if not rec["ok"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
