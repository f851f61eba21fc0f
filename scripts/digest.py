"""Print a SHA-256 digest of the outputs of a fixed set of solver runs.

    python3 scripts/digest.py

Run from anywhere; the program is imported from this checkout's ``src/``.
Two commits give the same digests exactly when their runs give the same
floats, so a change meant to keep every output bit for bit is checked by
running this at both commits on one machine and comparing the lines.
The digests depend on the machine's numpy build and BLAS, so only lines
printed on one machine are compared.

Each run prints one line: its name and the SHA-256 of its outputs, taken
over the bytes of x, p, r and s, the objective, lam, the statuses, the
Newton counts and ``direction_residual``.  A fixed point adds its whole
trace: every iterate lam and its residual, and each inner solve's status,
start and Newton count.  Wall times are left out.  The last line is the
SHA-256 of all the runs' digests, in order.

The set is 123 runs: ``fixedpoint.run`` on the ``experiment`` market at
seeds 1-20, on ``prop1`` and ``prop2`` and on the untyped 100 x 7 markets
with capacities from (5, 14) at seeds 1-4; ``solve_sop1`` on the untyped
1000 x 7 markets with capacities from (50, 300) at seeds 1-20 and on the
200 x 60 markets of 18 three-good types at seeds 1-16; 30 markets of
40 x 7 whose agents each join each type with probability 0.7, each
solved by ``solve_sop1`` and run to its fixed point; and
``partly_joined_market``'s fixed point (from ``robustness.py``).  It
takes about 7 s on a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robustness import TYPES, partly_joined_market  # noqa: E402
from typedfisher import (  # noqa: E402
    MarketInstance,
    builtin_instance,
    random_instance,
    solve_sop1,
)
from typedfisher import fixedpoint  # noqa: E402


def partial_participation_market(seed: int) -> MarketInstance:
    """40 x 7, three slack types; each agent joins each type w.p. 0.7."""
    base = random_instance(seed, 40, 7, TYPES, capacity_range=(2, 12))
    return MarketInstance(
        utilities=base.utilities,
        budgets=base.budgets,
        capacities=base.capacities,
        types=base.types,
        participation=np.random.default_rng(100 + seed).random((40, 3)) < 0.7,
    )


def runs():
    """(name, kind, market) of every run, in printed order; kind is
    ``fixed_point`` or ``solve``."""
    for seed in range(1, 21):
        yield f"experiment seed {seed}", "fixed_point", builtin_instance("experiment", seed)
    for name in ("prop1", "prop2"):
        yield name, "fixed_point", builtin_instance(name)
    for seed in range(1, 5):
        inst = random_instance(seed, 100, 7, TYPES, capacity_range=(5, 14))
        yield f"untyped 100x7 (5,14) seed {seed}", "fixed_point", inst
    for g in range(1, 21):
        inst = random_instance(g, 1000, 7, TYPES, capacity_range=(50, 300))
        yield f"slack 1000x7 g={g}", "solve", inst
    wide = [tuple(range(3 * t, 3 * t + 3)) for t in range(18)]
    for g in range(1, 17):
        inst = random_instance(g, 200, 60, wide, capacity_range=(10.0, 60.0))
        yield f"slack 200x60 g={g}", "solve", inst
    for seed in range(1, 31):
        inst = partial_participation_market(seed)
        yield f"partial 40x7 seed {seed}", "solve", inst
        yield f"partial 40x7 seed {seed}", "fixed_point", inst
    yield "partly_joined_market", "fixed_point", partly_joined_market()


class Digest:
    """SHA-256 over arrays and scalars, each fed with its kind and shape."""

    def __init__(self):
        self._h = hashlib.sha256()

    def array(self, a) -> None:
        a = np.ascontiguousarray(a, dtype=float)
        self._h.update(f"a{a.shape}".encode())
        self._h.update(a.tobytes())

    def scalar(self, v) -> None:
        text = float(v).hex() if isinstance(v, float) else repr(v)
        self._h.update(f"s{text};".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def outputs(digest: Digest, x, duals, stats, lam) -> None:
    for a in (x, duals.p, duals.r, duals.s, lam):
        digest.array(a)
    for v in (duals.objective, stats.status, stats.iterations, stats.direction_residual):
        digest.scalar(v)


def run_digest(kind: str, inst: MarketInstance) -> str:
    digest = Digest()
    if kind == "solve":
        x, duals, stats = solve_sop1(inst)
        outputs(digest, x, duals, stats, np.zeros(inst.n_agents))
        return digest.hexdigest()
    res = fixedpoint.run(inst)
    outputs(digest, res.allocation, res.duals, res.solve_stats, res.lam)
    trace = res.trace
    digest.scalar(trace.status)
    digest.scalar(trace.failure_iteration)
    for lam, residual, d in zip(trace.iterates, trace.residuals, trace.duals_per_iter):
        digest.array(lam)
        digest.scalar(residual)
        for v in (d.solver_status, d.solver_start, d.solver_iterations):
            digest.scalar(v)
    return digest.hexdigest()


def main() -> None:
    total = hashlib.sha256()
    count = 0
    for name, kind, inst in runs():
        h = run_digest(kind, inst)
        total.update(h.encode())
        count += 1
        print(f"{kind:<12}{name:<34}{h}", flush=True)
    print(f"{'all':<12}{f'{count} runs':<34}{total.hexdigest()}")


if __name__ == "__main__":
    main()
