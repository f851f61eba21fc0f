from dataclasses import replace

import numpy as np
import pytest

from typedfisher import (
    MarketInstance,
    UnboundedDemandError,
    builtin_instance,
    check_equilibrium,
    demand,
    existence_condition,
    grid_nonexistence,
    kkt_crosscheck,
    random_instance,
    solve_sop1,
    sop1_budget_gap,
)
from typedfisher import verify
from typedfisher.fixedpoint import run
from typedfisher.verify import NotAtFixedPointError

from helpers import check_equilibrium_by_agent, later_free_good_market

PROP2_ALLOC = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


def test_check_equilibrium_checks_prices_like_demand():
    inst = builtin_instance("prop2")
    for p in ([11.0, 10.0], [-1.0, 10.0, 9.0]):
        with pytest.raises(ValueError) as want:
            demand(inst, 0, p)
        with pytest.raises(ValueError) as got:
            check_equilibrium(inst, p, PROP2_ALLOC)
        assert str(got.value) == str(want.value)


def test_cited_equilibria_pass_exactly():
    inst = builtin_instance("prop2")
    for p in ([11.0, 10.0, 9.0], [10.0, 10.0, 10.0]):
        rep = check_equilibrium(
            inst, p, PROP2_ALLOC, tol_clearing=1e-9, tol_budget=1e-9, tol_opt=1e-9
        )
        assert rep.passed, (p, rep)


def test_constructed_violation_fails():
    inst = builtin_instance("prop2")
    x = PROP2_ALLOC.copy()
    x[0, 0] = 0.5
    rep = check_equilibrium(inst, [11.0, 10.0, 9.0], x)
    assert not rep.passed
    assert rep.clearing_residuals[0] == pytest.approx(0.5)


def test_check_is_solver_agnostic():
    # hand-built candidate for a one-agent one-good market
    inst = MarketInstance(utilities=[[5.0]], budgets=[10.0], capacities=[2.0])
    rep = check_equilibrium(inst, [5.0], [[2.0]])
    assert rep.passed


def test_check_flags_type_overconsumption():
    inst = builtin_instance("prop2")
    x = PROP2_ALLOC.copy()
    x[0, 1] = 0.6  # agent 1 now holds 1.6 units of the capped type
    rep = check_equilibrium(inst, [11.0, 10.0, 9.0], x)
    assert not rep.passed
    assert any("type" in v for v in rep.feasibility_violations)


def test_check_flags_negative_allocation():
    inst = builtin_instance("prop2")
    x = PROP2_ALLOC.copy()
    x[1, 0] = -1e-3  # agent 2, good 1
    rep = check_equilibrium(inst, [11.0, 10.0, 9.0], x)
    assert not rep.passed
    assert "negative allocation x[2][1] = -0.001" in rep.feasibility_violations


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("name", ["tol_clearing", "tol_budget", "tol_opt"])
def test_check_rejects_bad_tolerance(name, tol):
    # an infinite tolerance would certify any allocation as an equilibrium
    x = PROP2_ALLOC.copy()
    x[0, 0] = 0.5
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        check_equilibrium(builtin_instance("prop2"), [11.0, 10.0, 9.0], x, **{name: tol})


def test_check_propagates_unbounded_demand():
    inst = builtin_instance("prop2")
    with pytest.raises(UnboundedDemandError) as err:
        check_equilibrium(inst, [11.0, 10.0, 0.0], PROP2_ALLOC)
    assert (err.value.agent, err.value.good) == (0, 2)


def test_check_names_the_agent_and_good_a_scalar_loop_names():
    inst = later_free_good_market()
    p = [1.0, 0.0, 1.0]
    with pytest.raises(UnboundedDemandError) as want:
        check_equilibrium_by_agent(inst, p, PROP2_ALLOC)
    with pytest.raises(UnboundedDemandError) as got:
        check_equilibrium(inst, p, PROP2_ALLOC)
    assert (got.value.agent, got.value.good) == (want.value.agent, want.value.good) == (2, 1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_refuses_non_finite_allocation(bad):
    x = PROP2_ALLOC.copy()
    x[1, 2] = bad
    with pytest.raises(ValueError, match="allocation must be finite"):
        check_equilibrium(builtin_instance("prop2"), [11.0, 10.0, 9.0], x)


def assert_reports_equal(got, want):
    assert np.array_equal(got.clearing_residuals, want.clearing_residuals)
    assert np.array_equal(got.budget_residuals, want.budget_residuals)
    assert np.array_equal(got.optimality_gaps, want.optimality_gaps)
    assert got.feasibility_violations == want.feasibility_violations
    assert got.passed == want.passed


def test_check_matches_the_per_agent_loop():
    """Equal reports, gaps included, on passing and failing candidates."""
    rng = np.random.default_rng(5)
    cases = []
    inst = builtin_instance("experiment", seed=1)
    res = run(inst)
    cases.append((inst, res.prices, res.allocation))
    inst = random_instance(1, 300, 7, ((0, 1), (2, 3), (4, 5)), capacity_range=(15, 90))
    x, duals, _ = solve_sop1(inst)
    cases.append((inst, duals.p, x))
    inst = later_free_good_market()
    cases.append((inst, [0.5, 1.0, 2.0], rng.uniform(0.0, 0.6, (3, 3))))
    for inst, p, x in list(cases):
        # a perturbed allocation fails, with negative entries and full types
        bumped = x + rng.normal(0.0, 0.3, x.shape)
        cases.append((inst, p * rng.uniform(0.5, 2.0, len(p)), bumped))
    for inst, p, x in cases:
        want = check_equilibrium_by_agent(inst, p, x)
        got = check_equilibrium(inst, p, x)
        assert_reports_equal(got, want)
    # only the fixed point is an equilibrium: the social optimum leaves budgets unspent
    assert [check_equilibrium(*case).passed for case in cases] == [True] + [False] * 5


def test_existence_condition():
    assert existence_condition(builtin_instance("prop2"))
    assert not existence_condition(builtin_instance("prop1"))
    inst = MarketInstance(
        utilities=[[0.0, 1.0], [1.0, 1.0]],
        budgets=[1.0, 1.0],
        capacities=[1.0, 1.0],
    )
    assert not existence_condition(inst)  # a zero utility entry


def test_budget_gap_identity_on_three_buyers():
    rep = sop1_budget_gap(builtin_instance("prop2"))
    assert rep.max_identity_residual <= 1e-7
    assert rep.unspent_witness  # constrained buyers retain budget


def test_budget_gap_no_types_clears():
    inst = random_instance(seed=4, n=3, m=3)
    rep = sop1_budget_gap(inst)
    assert np.all(np.abs(rep.gaps) <= 1e-6)
    assert not rep.unspent_witness


def test_budget_gap_refuses_failed_solve(monkeypatch):
    def failed_solve(inst):
        x, duals, stats = solve_sop1(inst)
        return x, duals, replace(stats, status="max_iter")

    monkeypatch.setattr(verify, "solve_sop1", failed_solve)
    with pytest.raises(RuntimeError, match="failed with status max_iter"):
        sop1_budget_gap(builtin_instance("prop2"))


def test_crosscheck_classical_market():
    inst = random_instance(seed=4, n=3, m=3)
    x, duals, stats = solve_sop1(inst)
    rep = kkt_crosscheck(inst, np.zeros(3), x, duals)
    assert rep.passed
    # budget duals are marginal utility of money: (u.x)/w
    expect_y = np.einsum("ij,ij->i", inst.utilities, x) / inst.budgets
    assert np.allclose(rep.y, expect_y)


def test_crosscheck_refuses_non_fixed_point():
    inst = builtin_instance("prop2")
    x, duals, stats = solve_sop1(inst)  # lam=0 is not a fixed point here
    with pytest.raises(NotAtFixedPointError):
        kkt_crosscheck(inst, np.zeros(3), x, duals)


def test_crosscheck_at_three_buyer_fixed_point():
    inst = builtin_instance("prop2")
    res = run(inst, eps=1e-7)
    rep = kkt_crosscheck(inst, res.lam, res.allocation, res.duals, tol=1e-5)
    assert rep.passed


def test_grid_scan_single_good():
    # price must be budget/capacity; the grid contains it exactly
    inst = MarketInstance(utilities=[[5.0]], budgets=[2.0], capacities=[2.0])
    scan = grid_nonexistence(inst, p_max=3.0, step=0.25)
    assert scan.min_residual == pytest.approx(0.0, abs=1e-12)
    assert scan.argmin_price[0] == pytest.approx(1.0)


def test_grid_scan_finds_both_equilibria():
    inst = builtin_instance("prop2")
    scan = grid_nonexistence(inst, p_max=15.0, step=0.5, record_below=1e-9)
    assert scan.min_residual <= 1e-9
    near = {tuple(p) for p in scan.near_clearing}
    assert (11.0, 10.0, 9.0) in near
    assert (10.0, 10.0, 10.0) in near
    assert len(near) >= 2  # the equilibrium is not unique
    # zero-price faces for the cap-free good are skipped, not crashed
    assert scan.points_skipped > 0


def test_grid_scan_two_buyer_market_has_gap():
    inst = builtin_instance("prop1")
    scan = grid_nonexistence(inst, p_max=30.0, step=0.5)
    assert scan.min_residual >= 0.1
    # the full result, as an exact target for any faster scan
    assert scan.min_residual == pytest.approx(0.16666666666666674, abs=1e-12)
    assert scan.argmin_price.tolist() == [15.0, 0.0]
    assert (scan.points_evaluated, scan.points_skipped) == (3721, 0)
    # the argmin is unique: nothing else comes within 1e-12 of the minimum
    below = grid_nonexistence(
        inst, p_max=30.0, step=0.5, record_below=scan.min_residual + 1e-12
    )
    assert [q.tolist() for q in below.near_clearing] == [[15.0, 0.0]]


def test_grid_scan_three_buyer_market_pinned():
    inst = builtin_instance("prop2")
    scan = grid_nonexistence(inst, p_max=12.0, step=1.0, record_below=1e-9)
    # nine grid prices clear exactly; the argmin is the first of them in
    # lexicographic order, which pins the tie-break
    assert scan.min_residual == 0.0
    assert scan.argmin_price.tolist() == [8.0, 10.0, 12.0]
    assert (scan.points_evaluated, scan.points_skipped) == (2028, 169)
    assert [q.tolist() for q in scan.near_clearing] == [
        [8.0, 10.0, 12.0],
        [9.0, 10.0, 11.0],
        [10.0, 9.0, 12.0],
        [10.0, 10.0, 10.0],
        [11.0, 9.0, 11.0],
        [11.0, 10.0, 9.0],
        [12.0, 8.0, 12.0],
        [12.0, 9.0, 10.0],
        [12.0, 10.0, 8.0],
    ]


@pytest.mark.parametrize("chunk", [7, 500])
def test_grid_scan_result_does_not_depend_on_chunk(monkeypatch, chunk):
    inst = builtin_instance("prop2")
    whole = grid_nonexistence(inst, p_max=12.0, step=1.0, record_below=20.0)
    monkeypatch.setattr(verify, "SCAN_CHUNK", chunk)
    split = grid_nonexistence(inst, p_max=12.0, step=1.0, record_below=20.0)
    # the first of the nine tied minima, and the first 1000 recorded prices
    assert split.argmin_price.tolist() == whole.argmin_price.tolist() == [8.0, 10.0, 12.0]
    assert split.min_residual == whole.min_residual
    assert (split.points_evaluated, split.points_skipped) == (2028, 169)
    assert len(whole.near_clearing) == 1000
    assert [q.tolist() for q in split.near_clearing] == [q.tolist() for q in whole.near_clearing]


def test_grid_scan_guards():
    inst = random_instance(seed=1, n=2, m=4)
    with pytest.raises(ValueError):
        grid_nonexistence(inst, p_max=1.0, step=0.1)  # m > 3
    inst3 = random_instance(seed=1, n=2, m=3)
    with pytest.raises(ValueError):
        grid_nonexistence(inst3, p_max=10.0, step=1e-4)  # too many points
    for step in (0.0, -0.5):
        with pytest.raises(ValueError, match="p_max and step must be positive"):
            grid_nonexistence(inst3, p_max=10.0, step=step)


def test_converged_runs_with_existence_condition_verify():
    """Whenever the scheme converges on a market satisfying the existence
    condition, the result must survive the full equilibrium audit."""
    rng = np.random.default_rng(42)
    converged = 0
    for _ in range(6):
        n = int(rng.integers(2, 5))
        total = rng.uniform(0.3, 0.85 * n)  # keep the type strictly feasible
        frac = rng.uniform(0.25, 0.75)
        inst = MarketInstance(
            utilities=rng.uniform(0.2, 5.0, (n, 3)),
            budgets=rng.uniform(1.0, 8.0, n),
            capacities=[total * frac, total * (1 - frac), rng.uniform(0.5, 2.0 * n)],
            types=((0, 1),),
        )
        assert existence_condition(inst)
        res = run(inst, eps=1e-7, max_iter=150)
        if res.trace.status != "converged":
            continue
        converged += 1
        rep = check_equilibrium(inst, res.prices, res.allocation)
        assert rep.passed, rep
    assert converged >= 1  # the claim must actually get exercised


def test_prop2_grid_residual_zero_at_cited_prices():
    inst = builtin_instance("prop2")
    from typedfisher import demand_all

    for p in ([11.0, 10.0, 9.0], [10.0, 10.0, 10.0]):
        X, excess = demand_all(inst, p)
        spends = X @ np.asarray(p)
        assert np.max(np.abs(excess)) <= 1e-12
        assert np.allclose(spends, inst.budgets, atol=1e-12)
