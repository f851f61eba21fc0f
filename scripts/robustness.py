"""Print the fixed-point robustness table of a fixed set of markets.

    python3 scripts/robustness.py

Run from anywhere; the program is imported from this checkout's ``src/``.
For each market it runs ``fixedpoint.run`` and prints one row: the status,
the outer steps, the Newton steps summed over the inner solves, how those
solves started (cold, warm, fallback), and the seconds the run took.  A
converged run is also checked: ``check_equilibrium`` at 1e-5 for clearing,
budgets and optimality, and the largest ``kkt_residuals`` entry.  After
each group of markets a line sums its outer and Newton steps.

The set is the one the repository's performance and robustness notes
quote (README, ROADMAP): the ``experiment`` market at seeds 1-20, the same
market with every capacity times 1 - 1e-8 (no type exactly tight), the
untyped 100 x 7 markets with capacities drawn from (5, 14) and with the
default capacities (three tight types), two untyped 1000 x 7 markets, a
market with a partly joined type, and ``prop2`` and ``prop1``.  The
script only prints; a run that does not converge is a row, not an error.
It takes about 20 s on one core of a 2-vCPU machine.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from typedfisher import (  # noqa: E402
    MarketInstance,
    builtin_instance,
    check_equilibrium,
    kkt_residuals,
    random_instance,
)
from typedfisher import fixedpoint  # noqa: E402

TYPES = ((0, 1), (2, 3), (4, 5))


def partly_joined_market() -> MarketInstance:
    """Six agents and goods; type 1 is tight, agents 2 and 5 ignore type 2."""
    rng = np.random.default_rng(5)
    return MarketInstance(
        utilities=rng.uniform(0.1, 1.0, (6, 6)),
        budgets=rng.uniform(1.0, 5.0, 6),
        capacities=[2.0, 4.0, 0.8, 1.2, 0.5, 3.0],
        types=((0, 1), (2, 3, 4)),
        participation=np.column_stack([np.ones(6, bool), ~np.isin(np.arange(6), [1, 4])]),
    )


def markets():
    """(group, name, market, max_iter) of every row, in printed order."""
    for seed in range(1, 21):
        yield "experiment", f"seed {seed}", builtin_instance("experiment", seed), 500
    base = builtin_instance("experiment")
    near = MarketInstance(base.utilities, base.budgets, base.capacities * (1 - 1e-8), base.types)
    yield "near-tight", "experiment x (1 - 1e-8)", near, 500
    for seed in range(1, 5):
        inst = random_instance(seed, 100, 7, TYPES, capacity_range=(5, 14))
        yield "untyped 100x7 (5,14)", f"seed {seed}", inst, 500
    for seed in range(1, 5):
        inst = random_instance(seed, 100, 7, TYPES)
        yield "untyped 100x7 default", f"seed {seed}", inst, 1500
    for seed in (1, 2):
        inst = random_instance(seed, 1000, 7, TYPES)
        yield "untyped 1000x7 default", f"seed {seed}", inst, 1500
    yield "other", "partly_joined_market", partly_joined_market(), 500
    yield "other", "prop2", builtin_instance("prop2"), 500
    yield "other", "prop1", builtin_instance("prop1"), 500


def row(inst: MarketInstance, max_iter: int) -> dict:
    """One fixed point and what the table prints of it."""
    t0 = time.perf_counter()
    res = fixedpoint.run(inst, max_iter=max_iter)
    seconds = time.perf_counter() - t0
    trace = res.trace
    starts = [d.solver_start for d in trace.duals_per_iter]
    out = {
        "status": trace.status,
        "outer": trace.iterations,
        "newton": sum(d.solver_iterations for d in trace.duals_per_iter),
        "starts": {kind: starts.count(kind) for kind in ("cold", "warm", "fallback")},
        "seconds": seconds,
        "check": None,
        "kkt": None,
    }
    if trace.status == "converged":
        rep = check_equilibrium(
            inst, res.prices, res.allocation, tol_clearing=1e-5, tol_budget=1e-5, tol_opt=1e-5
        )
        out["check"] = rep.passed
        out["kkt"] = kkt_residuals(inst, res.lam, res.allocation, res.duals).max_residual
    return out


def main() -> None:
    header = (
        f"{'group':<24}{'market':<26}{'status':<16}{'outer':>6}{'newton':>8}"
        f"{'cold/warm/fallback':>20}{'check':>7}{'kkt':>10}{'s':>8}"
    )
    print(header)
    totals: dict[str, list[int]] = {}
    last = None
    for group, name, inst, max_iter in markets():
        if last is not None and group != last:
            print(f"{'':<24}{'total':<26}{'':<16}{totals[last][0]:>6}{totals[last][1]:>8}")
        last = group
        r = row(inst, max_iter)
        total = totals.setdefault(group, [0, 0])
        total[0] += r["outer"]
        total[1] += r["newton"]
        s = r["starts"]
        starts = f"{s['cold']}/{s['warm']}/{s['fallback']}"
        check = "-" if r["check"] is None else ("pass" if r["check"] else "FAIL")
        kkt = "-" if r["kkt"] is None else f"{r['kkt']:.1e}"
        print(
            f"{group:<24}{name:<26}{r['status']:<16}{r['outer']:>6}{r['newton']:>8}"
            f"{starts:>20}{check:>7}{kkt:>10}{r['seconds']:>8.2f}",
            flush=True,
        )
    print(f"{'':<24}{'total':<26}{'':<16}{totals[last][0]:>6}{totals[last][1]:>8}")


if __name__ == "__main__":
    main()
