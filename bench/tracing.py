"""Spans around the program's public functions, for the traced run.

A ``Tracer`` replaces each traced function with a wrapper in the module
where its caller looks it up (``fixedpoint.solve_bpsop``,
``verify.demand``, ``numpy.linalg.inv``, ...), records one span per call,
and puts the original functions back when its ``with`` block ends.  Spans
stay in memory until the run ends.  A span's parent is the span that was
open when it started, so a layer's self time is its span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from importlib import import_module
from pathlib import Path

import numpy as np

from typedfisher import fixedpoint, solver, verify

# the package re-exports the function ``demand`` under the module's name
demand = import_module("typedfisher.demand")

SOLVE = "solver.solve_bpsop"
VALIDATE = "instances.validate_instance"
INV = "numpy.linalg.inv"
LSTSOLVE = "numpy.linalg.solve"
RUN = "fixedpoint.run"
CHECK = "verify.check_equilibrium"
SCAN = "verify.grid_nonexistence"
DEMAND = "demand.demand"
FRONTIER = "frontier.build_frontier"

# (module, attribute, span name): every place a traced function is looked up
SITES = (
    (fixedpoint, "run", RUN),
    (fixedpoint, "solve_bpsop", SOLVE),
    (solver, "solve_bpsop", SOLVE),
    (solver, "validate_instance", VALIDATE),
    (np.linalg, "inv", INV),
    (np.linalg, "solve", LSTSOLVE),
    (verify, "check_equilibrium", CHECK),
    (verify, "grid_nonexistence", SCAN),
    (verify, "demand", DEMAND),
    (demand, "build_frontier", FRONTIER),
)


class Tracer:
    """Records (name, parent, start, end) for every call of a traced function.

    Solver spans also keep the Newton iteration count and whether the
    solve succeeded, read from the returned ``SolveStats``.
    """

    def __init__(self):
        self.names: list[str] = []
        # four doubles per span: name index, parent span (-1 for none), start, end
        self.spans = array("d")
        self.solves: dict[int, tuple[int, bool]] = {}  # span -> (iters, success)
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, name in SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, opened, solves = self.spans, self._open, self.solves

        def traced(*args, **kwargs):
            idx = len(spans) // 4
            spans.extend((name_id, opened[-1] if opened else -1, time.perf_counter(), 0.0))
            opened.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 3] = time.perf_counter()
                opened.pop()
            if name == SOLVE:
                solves[idx] = (out[2].iterations, out[2].success)
            return out

        traced.__wrapped__ = fn
        return traced

    def save(self, path: Path) -> None:
        """Write the spans as compressed arrays (one row per span)."""
        rows = np.frombuffer(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=rows[:, 0].astype(np.int16),
            parent=rows[:, 1].astype(np.int64),
            start=rows[:, 2],
            end=rows[:, 3],
        )

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, per round of the workload unless named per call."""
        dur = defaultdict(float)  # name -> total duration
        count = defaultdict(int)
        child = defaultdict(float)  # name -> time covered by direct children
        under_solve = defaultdict(lambda: [0, 0.0])  # child name -> [calls, s]
        fp_solves = 0
        spans = self.spans
        for k in range(0, len(spans), 4):
            name = self.names[int(spans[k])]
            parent = int(spans[k + 1])
            d = spans[k + 3] - spans[k + 2]
            dur[name] += d
            count[name] += 1
            if parent >= 0:
                pname = self.names[int(spans[4 * parent])]
                child[pname] += d
                if pname == SOLVE:
                    under_solve[name][0] += 1
                    under_solve[name][1] += d
                if name == SOLVE and pname == RUN:
                    fp_solves += 1
        iters = sum(it for it, _ in self.solves.values())
        failed = sum(1 for _, ok in self.solves.values() if not ok)

        def per_call(name, scale):
            return scale * dur[name] / count[name] if count[name] else 0.0

        r = float(rounds)
        return {
            "solver.calls": (count[SOLVE] / r, "count"),
            "solver.failed_calls": (failed / r, "count"),
            "solver.busy_s": (dur[SOLVE] / r, "s"),
            "solver.newton_iters": (iters / count[SOLVE] if count[SOLVE] else 0.0, "count"),
            "solver.self_s": ((dur[SOLVE] - child[SOLVE]) / r, "s"),
            "solver.factor_calls": (under_solve[INV][0] / r, "count"),
            "solver.factor_s": (under_solve[INV][1] / r, "s"),
            "solver.schur_s": (under_solve[LSTSOLVE][1] / r, "s"),
            "instances.validate_calls": (count[VALIDATE] / r, "count"),
            "instances.validate_s": (dur[VALIDATE] / r, "s"),
            "fixedpoint.outer_iters": (fp_solves / count[RUN] if count[RUN] else 0.0, "count"),
            "fixedpoint.step_s": (dur[RUN] / fp_solves if fp_solves else 0.0, "s"),
            "fixedpoint.self_s": ((dur[RUN] - child[RUN]) / r, "s"),
            "verify.check_s": (dur[CHECK] / r, "s"),
            "demand.calls": (count[DEMAND] / r, "count"),
            "demand.call_us": (per_call(DEMAND, 1e6), "us"),
            "frontier.calls": (count[FRONTIER] / r, "count"),
            "frontier.call_us": (per_call(FRONTIER, 1e6), "us"),
            "verify.scan_self_s": ((dur[SCAN] - child[SCAN]) / r, "s"),
        }
