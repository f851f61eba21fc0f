"""The benchmark's workloads: fixed markets, the operations run on them,
and the independent check of each operation's output.

Every market is fixed; ``--seed`` permutes the agents of each market
whose operation succeeds.  The program must give the same answer for any
order of agents, so a permutation is a new input with the same expected
result and the same amount of work.  Markets whose solve fails (the
absolute stopping test of the interior-point solver) are kept exactly as
generated, so that the same operations fail in every run whatever the
seed.  See README.md for why the markets themselves are not drawn from
the seed.

The program is called through module attributes (``solver.solve_sop1``,
``fixedpoint.run``, ...) so that a traced run can wrap those functions
where they are looked up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import (
    Market,
    clearing_residuals,
    equilibrium_allocation,
    grid_size,
    kkt_residuals,
    optimality_gaps,
    unbounded_grid_points,
)
from typedfisher import fixedpoint, instances, solver, verify

# Check tolerances.  KKT residuals are absolute, as the program's own
# kkt_residuals reports them; every market here has budgets of order 1-10.
KKT_TOL = 1e-6
EQUILIBRIUM_TOL = 1e-5
FIXED_POINT_TOL = 1e-6

# Coarser than the acceptance grids (step 0.05 for prop1).
PROP1_GRID = (30.0, 0.5)  # p_max, step: 61^2 points
PROP2_GRID = (12.0, 1.0)  # 13^3 points
PROP2_RECORD_BELOW = 1e-9
PROP1_MIN_RESIDUAL = 0.1
PROP2_KNOWN_EQUILIBRIA = ((11.0, 10.0, 9.0), (10.0, 10.0, 10.0))


@dataclass
class Op:
    """One timed call into the program.

    ``run`` returns (ok, output).  ``keep``, applied right after the timed
    call, reduces the output to what ``check`` needs, so that a long run
    does not hold every output in memory.  ``check`` takes what was kept
    of a successful call and returns the failed checks (none when the
    output is correct); it runs after the measured part of the run.
    """

    name: str
    run: Callable[[], tuple[bool, dict]]
    check: Callable[[dict], list[str]]
    keep: Callable[[dict], dict] = lambda out: out


@dataclass
class Workload:
    name: str
    markets: list = field(default_factory=list)  # validated once at set-up
    ops: list[Op] = field(default_factory=list)  # one round, in order


def permuted(inst, seed: int):
    """The same market with its agents in a seeded order."""
    perm = np.random.default_rng(seed).permutation(inst.n_agents)
    return instances.MarketInstance(
        utilities=inst.utilities[perm],
        budgets=inst.budgets[perm],
        capacities=inst.capacities,
        types=inst.types,
        participation=inst.participation[perm],
    )


def _failures(residuals: dict[str, float], tol: float, label: str) -> list[str]:
    return [
        f"{label}: {key} {val:.3g} > {tol:g}"
        for key, val in residuals.items()
        if not val <= tol
    ]


# --- experiment-fp ------------------------------------------------------


def _fixed_point_op(inst) -> Op:
    def run():
        res = fixedpoint.run(inst, eps=FIXED_POINT_TOL)
        rep = verify.check_equilibrium(
            inst, res.prices, res.allocation,
            tol_clearing=EQUILIBRIUM_TOL, tol_budget=EQUILIBRIUM_TOL,
            tol_opt=EQUILIBRIUM_TOL,
        )
        ok = res.trace.status == "converged" and rep.passed
        return ok, {
            "status": res.trace.status, "outer_iters": res.trace.iterations,
            "lam": res.lam, "p": res.prices, "x": res.allocation,
            "r": res.duals.r, "s": res.duals.s,
        }

    def check(out):
        mkt = Market.of(inst)
        errors = [] if out["status"] == "converged" else [f"status {out['status']}"]
        drift = float(np.linalg.norm(out["lam"] - out["r"].sum(axis=1)))
        if not drift <= FIXED_POINT_TOL:
            errors.append(f"||lam - sum_t r|| {drift:.3g} > {FIXED_POINT_TOL:g}")
        errors += _failures(clearing_residuals(mkt, out["p"], out["x"]), EQUILIBRIUM_TOL, "equilibrium")
        gap = float(optimality_gaps(mkt, out["p"], out["x"]).max())
        if not gap <= EQUILIBRIUM_TOL:
            errors.append(f"LP optimality gap {gap:.3g} > {EQUILIBRIUM_TOL:g}")
        kkt = kkt_residuals(mkt, out["lam"], out["x"], out["p"], out["r"], out["s"])
        return errors + _failures(kkt, KKT_TOL, "kkt")

    return Op("fixed_point", run, check)


def experiment_fp(seed: int) -> Workload:
    """The paper's headline run: the 200 x 6 experiment market, 3 tight types."""
    inst = permuted(instances.builtin_instance("experiment", 1), seed)
    return Workload("experiment-fp", [inst], [_fixed_point_op(inst)])


# --- wide-slack and tall-slack -------------------------------------------


def _solve_op(label: str, inst) -> Op:
    def run():
        x, duals, stats = solver.solve_sop1(inst)
        return stats.success, {
            "status": stats.status, "iters": stats.iterations,
            "x": x, "p": duals.p, "r": duals.r, "s": duals.s,
        }

    def keep(out):
        lam = np.zeros(inst.n_agents)
        return kkt_residuals(Market.of(inst), lam, out["x"], out["p"], out["r"], out["s"])

    def check(kkt):
        return _failures(kkt, KKT_TOL, label)

    return Op(label, run, check, keep)


def _slack_market(gen_seed: int, n: int, m: int, k: int, n_types: int, cap_share):
    """``n_types`` disjoint types of ``k`` goods; the other goods untyped.

    Capacities are uniform in ``cap_share`` times n, so every type is slack.
    """
    types = tuple(tuple(range(t * k, (t + 1) * k)) for t in range(n_types))
    lo, hi = cap_share
    return instances.random_instance(gen_seed, n, m, types, capacity_range=(lo * n, hi * n))


def _slack_workload(name: str, failing: list, passing: list, seed: int) -> Workload:
    markets = [mk for _, mk in failing] + [permuted(mk, seed) for _, mk in passing]
    labels = [label for label, _ in failing + passing]
    return Workload(name, markets, [_solve_op(lb, mk) for lb, mk in zip(labels, markets)])


def wide_slack(seed: int) -> Workload:
    """200 agents x 60 goods, 18 slack types of 3 plus 6 untyped goods."""
    def mk(gen_seed):
        return _slack_market(gen_seed, 200, 60, 3, 18, (0.05, 0.3))

    return _slack_workload(
        "wide-slack", [("wide_g1", mk(1))], [("wide_g2", mk(2)), ("wide_g7", mk(7))], seed
    )


def tall_slack(seed: int) -> Workload:
    """1000-4000 agents x 7 goods, 3 slack types of 2 plus 1 untyped good."""
    def mk(gen_seed, n):
        return _slack_market(gen_seed, n, 7, 2, 3, (0.05, 0.3))

    return _slack_workload(
        "tall-slack",
        [("tall_1000_g9", mk(9, 1000))],
        [("tall_2000_g1", mk(1, 2000)), ("tall_4000_g3", mk(3, 4000))],
        seed,
    )


# --- price-scan ------------------------------------------------------------


def _scan_op(prop1, prop2) -> Op:
    def run():
        s1 = verify.grid_nonexistence(prop1, *PROP1_GRID)
        s2 = verify.grid_nonexistence(prop2, *PROP2_GRID, record_below=PROP2_RECORD_BELOW)
        return True, {"prop1": s1, "prop2": s2}

    def check(out):
        errors = []
        for key, inst, (p_max, step) in (("prop1", prop1, PROP1_GRID), ("prop2", prop2, PROP2_GRID)):
            scan, mkt = out[key], Market.of(inst)
            total = grid_size(p_max, step, inst.n_goods)
            if scan.points_evaluated + scan.points_skipped != total:
                errors.append(f"{key}: {scan.points_evaluated} + {scan.points_skipped} != {total} points")
            skipped = unbounded_grid_points(mkt, p_max, step)
            if scan.points_skipped != skipped:
                errors.append(f"{key}: {scan.points_skipped} points skipped, expected {skipped}")
        s1, s2 = out["prop1"], out["prop2"]
        if not s1.min_residual >= PROP1_MIN_RESIDUAL:
            errors.append(f"prop1: min residual {s1.min_residual:.3g} < {PROP1_MIN_RESIDUAL}")
        if equilibrium_allocation(Market.of(prop1), s1.argmin_price) is not None:
            errors.append(f"prop1: best grid price {list(s1.argmin_price)} clears the market")
        recorded = {tuple(float(v) for v in p) for p in s2.near_clearing}
        for p in PROP2_KNOWN_EQUILIBRIA:
            if p not in recorded:
                errors.append(f"prop2: equilibrium {list(p)} not recorded")
        mkt2 = Market.of(prop2)
        for p in sorted(recorded):
            if equilibrium_allocation(mkt2, p) is None:
                errors.append(f"prop2: recorded price {list(p)} is not an equilibrium")
        return errors

    return Op("scan", run, check)


def price_scan(seed: int) -> Workload:
    """Grid scans of the two counterexample markets; demand only, no solver."""
    prop1 = permuted(instances.builtin_instance("prop1"), seed)
    prop2 = permuted(instances.builtin_instance("prop2"), seed)
    return Workload("price-scan", [prop1, prop2], [_scan_op(prop1, prop2)])


def build(name: str, seed: int) -> Workload:
    builders = {
        "experiment-fp": experiment_fp,
        "wide-slack": wide_slack,
        "tall-slack": tall_slack,
        "price-scan": price_scan,
    }
    return builders[name](seed)


def warm_up() -> None:
    """Touch every code path once so lazy set-up is not timed."""
    inst = instances.builtin_instance("prop2")
    res = fixedpoint.run(inst)
    verify.check_equilibrium(inst, res.prices, res.allocation)
    verify.grid_nonexistence(inst, 2.0, 1.0)
