"""Print a SHA-256 digest of the outputs of a fixed set of solver runs,
grid scans and demand calls.

    python3 scripts/digest.py

Run from anywhere; the program is imported from this checkout's ``src/``.
Two commits give the same digests exactly when their runs give the same
floats, so a change meant to keep every output bit for bit is checked by
running this at both commits on one machine and comparing the lines.
The digests depend on the machine's numpy build and BLAS, so only lines
printed on one machine are compared.

Each run prints one line: its kind, its name and the SHA-256 of its
outputs.  A solve's outputs are the bytes of x, p, r and s, the
objective, lam, the statuses, the Newton counts and
``direction_residual``.  A fixed point adds its whole trace: every
iterate lam and its residual, and each inner solve's status, start and
Newton count.  Wall times are left out.  A grid scan's are every field
of its ``GridScanResult``; a demand run's are ``demand_all``'s X and
excess demand at each of its price vectors, or the agent and good that
its UnboundedDemandError names.  A per-agent run's are, for every agent,
``demand_prices``' X, spend and unbounded at all its price vectors as one
array, then at each vector the scalar ``demand``'s x, spend and every
ledger row's floats, ``type_id``, ``lo`` and ``hi``, or the agent and good
that its UnboundedDemandError names.  A warm-start run solves a market at
lam = 0 with an empty ``start``, then at a second lam from the first
solve's ``stats.path``; its outputs are both solves', and its line also
prints each solve's ``start`` and Newton count.  Each solve run and each
fixed-point run that converges is followed by an ``audit`` line: the
floats of ``kkt_residuals`` at the run's lam and, at a fixed point, the
``y`` and floats of ``kkt_crosscheck``'s report, or the error it raises.
The last line is the SHA-256 of all the runs' and audits' digests, in
order.

The set is 168 runs and 122 audits.  The runs are ``fixedpoint.run`` on
the ``experiment`` market at seeds 1-20, on ``prop1`` and ``prop2`` and
on the untyped 100 x 7 markets with capacities from (5, 14) at seeds
1-4; ``solve_sop1`` on the untyped 1000 x 7 markets with capacities from
(50, 300) at seeds 1-20 and on the 200 x 60 markets of 18 three-good
types at seeds 1-16; 30 markets of 40 x 7 whose agents each join each
type with probability 0.7, each solved by ``solve_sop1`` and run to its
fixed point; ``partly_joined_market``'s fixed point (from
``robustness.py``); the ``price-scan`` benchmark's grid scans of
``prop1`` and ``prop2``; and ``demand_all`` on 20 of those partly joined
40 x 7 markets with zero and repeated utilities, each at 8 seeded price
vectors, then per-agent runs of ``demand_prices`` and ``demand`` on the
same markets and vectors, and one on ``six_good_type_market`` at 320
seeded price vectors, so that the buy order of many slots, with zero
and repeated utilities, is compared; and two warm-start runs: the
``experiment`` market at seed 1, warm at lam = 1e-3 U(0, 1) drawn with
seed 0, and the untyped 1000 x 7 market at seed 1 with the default
capacities, at the fixed point's next lam = q, where the warm solve
falls back to a cold one.  The audits follow the 66 solve runs and the
56 fixed-point runs that converge (``prop1`` ends ``oscillating``).  It
takes about 6 s on a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robustness import TYPES, partly_joined_market  # noqa: E402
from typedfisher import (  # noqa: E402
    CentralPath,
    MarketInstance,
    NotAtFixedPointError,
    UnboundedDemandError,
    builtin_instance,
    demand,
    demand_all,
    demand_prices,
    kkt_crosscheck,
    kkt_residuals,
    random_instance,
    solve_bpsop,
    solve_sop1,
)
from typedfisher import fixedpoint, verify  # noqa: E402

# the price-scan benchmark's grids: p_max, step, record_below
SCAN_GRIDS = {"prop1": (30.0, 0.5, None), "prop2": (12.0, 1.0, 1e-9)}


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


def demand_market(seed: int) -> MarketInstance:
    """``partial_participation_market(seed)`` with a fifth of its utilities
    zero and the rest rounded to one decimal, so many repeat."""
    base = partial_participation_market(seed)
    rng = np.random.default_rng(200 + seed)
    u = np.where(rng.random(base.utilities.shape) < 0.2, 0.0, np.round(base.utilities, 1))
    return MarketInstance(u, base.budgets, base.capacities, base.types, base.participation)


def seeded_prices(seed: int, m: int) -> np.ndarray:
    """8 price vectors: uniform, integer (ties), zero-heavy and rounded,
    two of each."""
    rng = np.random.default_rng(300 + seed)
    return np.array([
        row
        for _ in range(2)
        for row in (
            rng.uniform(0.0, 5.0, m),
            rng.integers(1, 4, m).astype(float),
            np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 5.0, m)),
            np.round(rng.uniform(0.0, 3.0, m), 1),
        )
    ])


def six_good_type_market() -> MarketInstance:
    """20 x 9: a type of six goods, one of two and an untyped good, each
    agent joining each type with probability 0.7, and utilities drawn
    from {0, 1, 2, 3}, so that zeros and repeats are common."""
    rng = np.random.default_rng(400)
    return MarketInstance(
        utilities=rng.integers(0, 4, (20, 9)).astype(float),
        budgets=rng.uniform(1.0, 5.0, 20),
        capacities=np.ones(9),
        types=((0, 1, 2, 3, 4, 5), (6, 7)),
        participation=rng.random((20, 2)) < 0.7,
    )


def runs():
    """(name, kind, subject) of every run, in printed order.  The subject
    of kind ``fixed_point`` or ``solve`` is a market, of ``scan`` a market
    and its grid, of ``demand`` and ``per_agent`` a market and its price
    vectors, of ``warm_start`` a market and the second lam as a function
    of the first solve's duals."""
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
    for name, grid in SCAN_GRIDS.items():
        yield name, "scan", (builtin_instance(name), grid)
    for seed in range(1, 21):
        yield f"zeros and repeats 40x7 seed {seed}", "demand", (
            demand_market(seed), seeded_prices(seed, 7))
    for seed in range(1, 21):
        yield f"zeros and repeats 40x7 seed {seed}", "per_agent", (
            demand_market(seed), seeded_prices(seed, 7))
    yield "six-good type 20x9", "per_agent", (
        six_good_type_market(), np.concatenate([seeded_prices(seed, 9) for seed in range(40)]))
    lam = 1e-3 * np.random.default_rng(0).uniform(0.0, 1.0, 200)
    yield "experiment seed 1", "warm_start", (builtin_instance("experiment", 1), lambda _: lam)
    yield "untyped 1000x7 default seed 1", "warm_start", (
        random_instance(1, 1000, 7, TYPES), lambda duals: duals.r.sum(axis=1))


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


def audit_digest(inst, lam, x, duals, fixed_point: bool) -> str:
    """The digest of the KKT audits of a run's output (module docstring)."""
    digest = Digest()
    res = kkt_residuals(inst, lam, x, duals)
    for v in (res.stationarity, res.complementarity, res.feasibility, res.dual_sign):
        digest.scalar(v)
    if fixed_point:
        try:
            rep = kkt_crosscheck(inst, lam, x, duals)
        except NotAtFixedPointError as err:
            digest.scalar(("not at a fixed point", str(err)))
        else:
            digest.array(rep.y)
            for v in (rep.stationarity, rep.complementarity, rep.budget_residual,
                      rep.sign_violation, rep.max_residual, rep.passed):
                digest.scalar(v)
    return digest.hexdigest()


def run_digest(kind: str, subject):
    """The run's digest and its audit's, or None where it has no audit."""
    digest = Digest()
    if kind == "scan":
        inst, (p_max, step, record_below) = subject
        scan = verify.grid_nonexistence(inst, p_max, step, record_below=record_below)
        digest.scalar(scan.min_residual)
        digest.array(scan.argmin_price)
        digest.scalar(scan.points_evaluated)
        digest.scalar(scan.points_skipped)
        digest.scalar(len(scan.near_clearing))
        for p in scan.near_clearing:
            digest.array(p)
        return digest.hexdigest(), None
    if kind == "demand":
        inst, prices = subject
        for p in prices:
            try:
                for a in demand_all(inst, p):
                    digest.array(a)
            except UnboundedDemandError as err:
                digest.scalar(("unbounded", err.agent, err.good))
        return digest.hexdigest(), None
    if kind == "per_agent":
        inst, prices = subject
        for i in range(inst.n_agents):
            for a in demand_prices(inst, i, prices):
                digest.array(a)
            for p in prices:
                try:
                    d = demand(inst, i, p)
                except UnboundedDemandError as err:
                    digest.scalar(("unbounded", err.agent, err.good))
                    continue
                digest.array(d.x)
                digest.scalar(d.spend)
                for row in d.ledger:
                    for v in (row.slope, row.units, row.cost, row.type_id, row.lo, row.hi):
                        digest.scalar(v)
        return digest.hexdigest(), None
    if kind == "warm_start":
        inst, second_lam = subject
        lam = np.zeros(inst.n_agents)
        x, duals, first = solve_bpsop(inst, lam, start=CentralPath())
        outputs(digest, x, duals, first, lam)
        lam = second_lam(duals)
        x, duals, second = solve_bpsop(inst, lam, start=first.path)
        outputs(digest, x, duals, second, lam)
        starts = " ".join(f"{stats.start} {stats.iterations}" for stats in (first, second))
        return f"{starts:<20}{digest.hexdigest()}", None
    inst = subject
    if kind == "solve":
        lam = np.zeros(inst.n_agents)
        x, duals, stats = solve_sop1(inst)
        outputs(digest, x, duals, stats, lam)
        return digest.hexdigest(), audit_digest(inst, lam, x, duals, fixed_point=False)
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
    if trace.status != "converged":
        return digest.hexdigest(), None
    audit = audit_digest(inst, res.lam, res.allocation, res.duals, fixed_point=True)
    return digest.hexdigest(), audit


def main() -> None:
    total = hashlib.sha256()
    runs_done = audits = 0
    for name, kind, subject in runs():
        h, audit = run_digest(kind, subject)
        runs_done += 1
        audits += audit is not None
        for label, line in ((kind, h), ("audit", audit)):
            if line is not None:
                total.update(line.encode())
                print(f"{label:<12}{name:<34}{line}", flush=True)
    summary = f"{runs_done} runs {audits} audits"
    print(f"{'all':<12}{summary:<34}{total.hexdigest()}")


if __name__ == "__main__":
    main()
