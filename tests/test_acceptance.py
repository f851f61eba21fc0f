"""Acceptance gate: one test per release criterion, each at its stated
tolerance and runtime budget, printing one PASS/FAIL line (run with -s to
see the table on a green suite)."""

import time

import numpy as np
import pytest

from typedfisher import (
    MarketInstance,
    build_frontier,
    builtin_instance,
    check_equilibrium,
    demand,
    grid_nonexistence,
    kkt_crosscheck,
    solve_bpsop,
    sop1_budget_gap,
)
from typedfisher.cli import IOP_EXAMPLE_PRICES
from typedfisher.fixedpoint import run as run_fixed_point

from helpers import brute_force_demand, random_feasible_market, refine_grid_objective


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail} [{elapsed:.2f}s / {budget:.0f}s]"
    print(line)
    assert ok, line
    assert elapsed < budget, f"{criterion} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def experiment_fixed_point():
    inst = builtin_instance("experiment")
    t0 = time.monotonic()
    result = run_fixed_point(inst, eps=1e-6, max_iter=100)
    return inst, result, time.monotonic() - t0


def test_criterion_1_demand_example_one():
    t0 = time.monotonic()
    inst = builtin_instance("iop_ex1")
    d = demand(inst, 0, IOP_EXAMPLE_PRICES)
    err = float(np.max(np.abs(d.x - np.array([0.0, 0.0, 0.5, 1.0, 0.5, 0.0]))))
    ledger = [(pu.slope, pu.units, pu.cost) for pu in d.ledger]
    expect = [(0.1, 1.0, 0.1), (0.2, 1.0, 0.4), (0.3, 1.0, 0.6),
              (0.4, 1.0, 0.8), (0.5, 0.5, 0.5)]
    ledger_ok = len(ledger) == len(expect) and all(
        abs(a - b) <= 1e-9 for got, exp in zip(ledger, expect) for a, b in zip(got, exp)
    )
    ok = err <= 1e-9 and ledger_ok
    report(
        "criterion 1 (six-good demand example, both caps)",
        ok,
        f"allocation error {err:.1e}, ledger {'exact' if ledger_ok else 'WRONG'}",
        time.monotonic() - t0,
        1.0,
    )


def test_criterion_2_demand_example_two():
    t0 = time.monotonic()
    inst = builtin_instance("iop_ex2")
    d = demand(inst, 0, IOP_EXAMPLE_PRICES)
    err = float(np.max(np.abs(d.x - np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0]))))
    free = [pu for pu in d.ledger if pu.type_id is None]
    theta5 = free[0].slope if free else float("nan")
    ok = err <= 1e-9 and abs(theta5 - 0.34) <= 1e-12
    report(
        "criterion 2 (demand example with a cap-free good)",
        ok,
        f"allocation error {err:.1e}, cap-free rate {theta5:g}",
        time.monotonic() - t0,
        1.0,
    )


def test_criterion_3_two_equilibrium_price_vectors():
    t0 = time.monotonic()
    inst = builtin_instance("prop2")
    x_star = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    worst = 0.0
    ok = True
    for p in ([11.0, 10.0, 9.0], [10.0, 10.0, 10.0]):
        rep = check_equilibrium(
            inst, p, x_star, tol_clearing=1e-9, tol_budget=1e-9, tol_opt=1e-9
        )
        ok &= rep.passed
        worst = max(worst, rep.max_clearing, rep.max_budget, abs(rep.max_gap))
    report(
        "criterion 3 (two distinct equilibrium price vectors verify)",
        ok,
        f"worst residual {worst:.1e} <= 1e-9",
        time.monotonic() - t0,
        1.0,
    )


def test_criterion_4_nonexistence_grid_scan():
    t0 = time.monotonic()
    inst = builtin_instance("prop1")
    scan = grid_nonexistence(inst, p_max=30.0, step=0.05)
    ok = scan.min_residual >= 0.1
    report(
        "criterion 4 (no near-clearing price on the [0,30]^2 grid)",
        ok,
        f"min residual {scan.min_residual:.4f} at p={scan.argmin_price.tolist()} "
        f"over {scan.points_evaluated} points",
        time.monotonic() - t0,
        120.0,
    )
    # the full result, over several scan chunks; the argmin is grid point
    # 297 of the axis, printed 14.85
    assert scan.min_residual == 0.16329966329966328
    assert scan.argmin_price.tolist() == [297 * 0.05, 0.0]
    assert (scan.points_evaluated, scan.points_skipped) == (361201, 0)


def test_criterion_5_experiment_fixed_point(experiment_fixed_point):
    inst, result, elapsed = experiment_fixed_point
    t0 = time.monotonic()
    trace = result.trace
    converged = trace.status == "converged" and trace.iterations <= 100

    rep = check_equilibrium(
        inst, result.prices, result.allocation,
        tol_clearing=1e-5, tol_budget=1e-5, tol_opt=1e-5,
    )
    tsum_dev = max(
        float(np.max(np.abs(result.allocation[:, list(g)].sum(axis=1) - 1.0)))
        for g in inst.types
    )
    ok = converged and rep.passed and tsum_dev <= 1e-5
    report(
        "criterion 5 (200-agent fixed point converges and clears)",
        ok,
        f"{trace.status} in {trace.iterations} iters; clearing {rep.max_clearing:.1e}, "
        f"budget {rep.max_budget:.1e}, gap {rep.max_gap:.1e}, type sums off by {tsum_dev:.1e}",
        elapsed + (time.monotonic() - t0),
        300.0,
    )


def test_criterion_6_unperturbed_budget_gap():
    t0 = time.monotonic()
    inst = builtin_instance("experiment")
    bg = sop1_budget_gap(inst, tol=1e-6)
    ok = bool(np.any(bg.gaps > 1e-3)) and bg.max_identity_residual <= 1e-6
    report(
        "criterion 6 (unperturbed program leaves budgets unspent)",
        ok,
        f"max gap {float(bg.gaps.max()):.3f} > 1e-3, identity residual "
        f"{bg.max_identity_residual:.1e} <= 1e-6",
        time.monotonic() - t0,
        60.0,
    )


def test_criterion_7_dual_cross_mapping(experiment_fixed_point):
    inst, result, _ = experiment_fixed_point
    t0 = time.monotonic()
    rep = kkt_crosscheck(inst, result.lam, result.allocation, result.duals, tol=1e-6)
    report(
        "criterion 7 (individual-problem duals built from social duals)",
        rep.passed,
        f"max residual {rep.max_residual:.1e} <= 1e-6",
        time.monotonic() - t0,
        60.0,
    )


def test_criterion_8_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_demand = 0.0
    n_instances = 0
    while n_instances < 200:
        inst = random_feasible_market(rng)
        p = rng.uniform(0.05, 20.0, size=inst.n_goods)
        n_instances += 1
        for agent in range(inst.n_agents):
            greedy = demand(inst, agent, p)
            exact = brute_force_demand(inst, agent, p)
            worst_demand = max(worst_demand, abs(greedy.utility - exact.utility))
    worst_obj = 0.0
    for k in range(30):
        kind = k % 3
        if kind == 2:
            total = rng.uniform(0.5, 1.6)
            frac = rng.uniform(0.2, 0.8)
            caps = [total * frac, total * (1 - frac)]
            types = ((0, 1),)
        elif kind == 1:
            caps = [rng.uniform(0.3, 1.6), rng.uniform(0.3, 2.5)]
            types = ((0,),)
        else:
            caps = rng.uniform(0.3, 2.5, 2).tolist()
            types = ()
        inst = MarketInstance(
            utilities=rng.uniform(0.2, 5.0, (2, 2)),
            budgets=rng.uniform(0.5, 10.0, 2),
            capacities=caps,
            types=types,
        )
        lam = rng.uniform(0.0, 3.0, 2)
        x, duals, stats = solve_bpsop(inst, lam)
        assert stats.success
        worst_obj = max(worst_obj, abs(duals.objective - refine_grid_objective(inst, lam)))
    ok = worst_demand <= 1e-6 and worst_obj <= 1e-4
    report(
        "criterion 8 (oracle equivalence on random instances)",
        ok,
        f"200 markets: worst demand-utility gap {worst_demand:.1e} <= 1e-6; "
        f"30 solves: worst objective gap {worst_obj:.1e} <= 1e-4",
        time.monotonic() - t0,
        600.0,
    )


def test_criterion_9_invariant_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    failures = []

    # hull slopes strictly increase
    for _ in range(200):
        k = int(rng.integers(1, 8))
        fr = build_frontier(
            rng.uniform(0.01, 50.0, k), rng.uniform(0.0, 50.0, k), range(k)
        )
        sl = [pr.slope for pr in fr]
        if not all(b > a for a, b in zip(sl, sl[1:])):
            failures.append("hull slope monotonicity")
            break

    # the greedy optimum splits across two goods in at most one type
    for _ in range(200):
        inst = random_feasible_market(rng)
        p = rng.uniform(0.05, 20.0, size=inst.n_goods)
        d = demand(inst, 0, p)
        split = sum(
            1
            for t, goods in enumerate(inst.types)
            if inst.participation[0, t]
            and sum(1 for j in goods if d.x[j] > 1e-9) >= 2
        )
        if split > 1:
            failures.append("demand split structure")
            break

    # scaling all budgets and perturbations scales the duals, not x
    for _ in range(20):
        inst = random_feasible_market(rng)
        lam = rng.uniform(0.0, 2.0, inst.n_agents)
        cmult = rng.uniform(0.1, 10.0)
        x1, d1, s1 = solve_bpsop(inst, lam)
        scaled = MarketInstance(
            utilities=inst.utilities,
            budgets=inst.budgets * cmult,
            capacities=inst.capacities,
            types=inst.types,
            participation=inst.participation,
        )
        x2, d2, s2 = solve_bpsop(scaled, lam * cmult)
        pscale = max(1.0, float(np.abs(d1.p).max()) * cmult)
        if not (
            np.allclose(x1, x2, atol=1e-5)
            and np.allclose(d2.p, cmult * d1.p, atol=1e-6 * pscale + 1e-6)
        ):
            failures.append("budget-scaling homogeneity")
            break

    # identical runs give identical traces
    inst = builtin_instance("prop2")
    a = run_fixed_point(inst, eps=1e-6)
    b = run_fixed_point(inst, eps=1e-6)
    if a.trace.residuals != b.trace.residuals or not all(
        np.array_equal(x, y) for x, y in zip(a.trace.iterates, b.trace.iterates)
    ):
        failures.append("trace determinism")

    report(
        "criterion 9 (invariant suite)",
        not failures,
        "zero failures" if not failures else f"failed: {failures}",
        time.monotonic() - t0,
        600.0,
    )
