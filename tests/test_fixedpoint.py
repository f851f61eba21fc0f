import csv
from types import SimpleNamespace

import numpy as np
import pytest

from typedfisher import (
    DualBundle,
    MarketInstance,
    SolveStats,
    builtin_instance,
    check_equilibrium,
    existence_condition,
    kkt_residuals,
    random_instance,
    write_trace_csv,
)
from typedfisher import fixedpoint
from typedfisher.fixedpoint import DEFAULT_EPS, STALL_WINDOW, run

from helpers import spy_on_solves


def test_no_types_converges_immediately():
    inst = random_instance(seed=2, n=2, m=2)  # classical market, no types
    res = run(inst)
    assert res.trace.status == "converged"
    assert res.trace.iterations == 1
    assert res.trace.residuals == [0.0]
    assert np.array_equal(res.lam, np.zeros(2))


def test_three_buyer_market_reaches_equilibrium():
    inst = builtin_instance("prop2")
    res = run(inst, eps=1e-7)
    assert res.trace.status == "converged"
    rep = check_equilibrium(inst, res.prices, res.allocation)
    assert rep.passed
    # the price family: p2 pinned, p1 + p3 equal to buyer 1's budget
    assert res.prices[1] == pytest.approx(10.0, abs=1e-5)
    assert res.prices[0] + res.prices[2] == pytest.approx(20.0, abs=1e-5)


def test_final_lambda_is_self_consistent():
    inst = builtin_instance("prop2")
    res = run(inst, eps=1e-7)
    assert np.linalg.norm(res.lam - res.duals.r.sum(axis=1)) <= 1e-7


def test_trace_is_deterministic():
    inst = builtin_instance("prop2")
    a = run(inst, eps=1e-6)
    b = run(inst, eps=1e-6)
    assert a.trace.residuals == b.trace.residuals
    for la, lb in zip(a.trace.iterates, b.trace.iterates):
        assert np.array_equal(la, lb)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.allocation, b.allocation)


def test_trace_records_each_step_wall_time():
    res = run(builtin_instance("prop2"), eps=1e-6)
    seconds = res.trace.step_seconds
    assert len(seconds) == res.trace.iterations > 1
    assert all(isinstance(s, float) and s > 0.0 for s in seconds)


def test_trace_duals_satisfy_solver_contract():
    inst = builtin_instance("prop2")
    res = run(inst, eps=1e-6)
    assert all(
        s.solver_status in ("converged", "degenerate_tight")
        for s in res.trace.duals_per_iter
    )
    # spot check the last iterate against the independent residual audit
    audit = kkt_residuals(inst, res.lam, res.allocation, res.duals)
    assert audit.max_residual <= 1e-7


def test_nonconvergent_market_reports_trace():
    # the two-buyer market with no equilibrium: the scheme must not claim
    # convergence, and the trace must still be usable.  The perturbations
    # grow without bound there, so the run ends in a stall, the iteration
    # cap, or an inner solve giving up; all are honest outcomes.
    inst = builtin_instance("prop1")
    res = run(inst, eps=1e-6, max_iter=40)
    assert res.trace.status in ("max_iter", "oscillating", "solver_failure")
    assert res.trace.iterations >= 10
    assert all(r > 1e-6 for r in res.trace.residuals)
    assert res.allocation is not None and res.prices is not None
    if res.trace.status == "solver_failure":
        assert res.trace.failure_iteration is not None


@pytest.mark.parametrize("max_iter", [40, 500])
def test_unbounded_extrapolation_stays_finite(max_iter):
    # prop1 has no equilibrium and its perturbations grow along one
    # direction, so the doubling step drives them to about 5e9; the run
    # must still end in an honest status with finite, nonnegative iterates
    trace = run(builtin_instance("prop1"), max_iter=max_iter).trace
    assert trace.status != "converged"
    assert max(s.max() for s in trace.step_scales) > 1e6
    for lam in trace.iterates:
        assert np.all(np.isfinite(lam)) and np.all(lam >= 0)


@pytest.mark.parametrize("seed", [11, 13, 17, 18])
def test_extrapolation_settles_stalled_markets(seed):
    # 11 and 13 stop oscillating under the plain map lam <- q (after 43 and
    # 61 iterations), 17 and 18 also under one step scale shared by all
    # agents, where one agent's crawl was reset by the others' turns;
    # extrapolating each agent's crawl reaches a fixed point
    inst = builtin_instance("experiment", seed)
    res = run(inst)
    assert res.trace.status == "converged"
    rep = check_equilibrium(
        inst, res.prices, res.allocation,
        tol_clearing=1e-5, tol_budget=1e-5, tol_opt=1e-5,
    )
    assert rep.passed
    assert kkt_residuals(inst, res.lam, res.allocation, res.duals).max_residual <= 1e-6


@pytest.mark.parametrize(
    "seed",
    [
        2,
        pytest.param(1, marks=pytest.mark.slow),
        pytest.param(3, marks=[pytest.mark.slow, pytest.mark.xfail(
            strict=True, reason="oscillating after 34 outer steps, residual 67.5")]),
        pytest.param(4, marks=pytest.mark.slow),
    ],
)
def test_untyped_default_capacity_markets_converge(seed):
    # every agent may buy the untyped last good, so the paper's theorem
    # gives each market an equilibrium; seeds 1, 2 and 4 reach it in 480,
    # 238 and 441 outer steps
    inst = random_instance(seed, 100, 7, ((0, 1), (2, 3), (4, 5)))
    assert existence_condition(inst)
    res = run(inst, max_iter=1500)
    assert res.trace.status == "converged"
    rep = check_equilibrium(
        inst, res.prices, res.allocation,
        tol_clearing=1e-5, tol_budget=1e-5, tol_opt=1e-5,
    )
    assert rep.passed
    assert kkt_residuals(inst, res.lam, res.allocation, res.duals).max_residual <= 1e-6


def test_bad_arguments_rejected():
    inst = builtin_instance("prop2")
    for kwargs in ({"max_iter": 0}, {"eps": -1e-6}, {"eps": np.nan}, {"eps": np.inf}):
        with pytest.raises(ValueError):
            run(inst, **kwargs)


@pytest.mark.parametrize("solver_tol", [0.0, -1e-8, np.nan, np.inf])
def test_bad_solver_tol_rejected_before_solving(monkeypatch, solver_tol):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with a bad tolerance")

    monkeypatch.setattr(fixedpoint, "solve_bpsop", no_solve)
    with pytest.raises(ValueError, match="solver_tol must be finite and positive"):
        run(builtin_instance("prop2"), solver_tol=solver_tol)


def fake_solver(q_of):
    """A stand-in for ``solve_bpsop`` whose dual sums are ``q_of(lam)``."""

    def solve(inst, lam, tol, start=None):
        q = q_of(np.asarray(lam, dtype=float))
        duals = DualBundle(p=np.ones(1), r=q[:, None], s=np.zeros((q.size, 1)), objective=0.0)
        stats = SolveStats(1, 0.0, 0.0, 0.0, "converged")
        return np.zeros((q.size, 1)), duals, stats

    return solve


def test_crawl_is_covered_by_doubling(monkeypatch):
    # after a first jump, agent 0 crawls up by 1e-3 and agent 1 down by
    # 9.9e-4 per plain step until agent 0 passes 1, where q turns constant;
    # the plain map takes L = 1000 steps, the doubling step about log2(L)
    start, crawl, end = np.array([0.0, 1.0, 0.2]), np.array([1e-3, -9.9e-4, 0.0]), np.array([1.0, 0.5, 0.2])

    def q_of(lam):
        if not lam.any():
            return start
        return lam + crawl if lam[0] < 1.0 else end

    monkeypatch.setattr(fixedpoint, "solve_bpsop", fake_solver(q_of))
    trace = run(SimpleNamespace(n_agents=3)).trace
    assert trace.status == "converged"
    assert trace.iterations <= np.log2(1000) + 4
    # the jump, one plain crawl step, doubling until agent 0 passes 1,
    # then a plain step onto the constant q; agent 2 never moves after the
    # jump and keeps the plain step
    crawling = [1.0, 1.0] + [2.0**k for k in range(1, 10)] + [1.0]
    assert np.array_equal(trace.step_scales, np.column_stack([crawling, crawling, np.ones(12)]))
    for lam in trace.iterates:
        assert np.all(np.isfinite(lam)) and np.all(lam >= 0)
    # the last doubling overshoots agent 1 past zero, where it is held
    assert trace.iterates[-2][1] == 0.0


def test_geometric_tail_is_summed(monkeypatch):
    # q = a + rho (lam - a) contracts by rho per plain step; each agent's
    # secant through its last step is exact, so the step lands on a once
    # the doubling cap no longer binds: s = 1, 2, 4, 8, then 10 = 8 / 0.8
    a, rho = np.array([1.0, 2.0, 0.5]), 0.9
    monkeypatch.setattr(fixedpoint, "solve_bpsop", fake_solver(lambda lam: a + rho * (lam - a)))
    trace = run(SimpleNamespace(n_agents=3)).trace
    assert trace.status == "converged"
    assert trace.iterations <= 6
    assert np.array_equal(trace.step_scales[:4], np.repeat([[1.0], [2.0], [4.0], [8.0]], 3, axis=1))
    assert trace.step_scales[-1] == pytest.approx(np.full(3, 10.0), rel=1e-9)
    for lam in trace.iterates:
        assert np.all(np.isfinite(lam)) and np.all(lam >= 0)
    assert trace.iterates[-1] == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("rise", [False, True])
def test_crawling_run_ends_oscillating(monkeypatch, rise):
    # after a first jump the residual falls by 1e-5 of its size per step,
    # too slowly to improve by 0.1% within the window, while every
    # component changes sign at each step, so no agent is extrapolated;
    # the run ends oscillating whether or not it rises once inside the window
    calls = []

    def q_of(lam):
        k = len(calls)
        calls.append(k)
        if k == 0:
            return np.array([5.0, 5.0])
        size = 0.01 * (1 - 1e-5 * k) * (1 + 1e-4 * (rise and k == 10))
        return lam + size * (-1.0) ** k * np.array([0.6, 0.8])

    monkeypatch.setattr(fixedpoint, "solve_bpsop", fake_solver(q_of))
    trace = run(SimpleNamespace(n_agents=2)).trace
    assert trace.status == "oscillating"
    # the best residual is the first after the jump
    assert trace.iterations == STALL_WINDOW + 2
    assert np.array_equal(trace.step_scales, np.ones((STALL_WINDOW + 1, 2)))
    falls = np.diff(trace.residuals[1:]) < 0
    assert falls.all() != rise


def test_one_crawling_agent_doubles_alone(monkeypatch):
    # after a first jump agent 0 crawls up by 1e-3 per plain step until it
    # passes 1, while agents 1 and 2 are reflected through 0.9 and 0.5, so
    # their components change sign at every step and the whole vector never
    # repeats; agent 0 alone doubles and covers its L = 1000 steps in about
    # log2(L), then every q turns to its fixed point
    start, centre = np.array([0.0, 1.0, 0.6]), np.array([0.0, 0.9, 0.5])

    def q_of(lam):
        if not lam.any():
            return start
        if lam[0] < 1.0:
            return np.array([lam[0] + 1e-3, *(2.0 * centre[1:] - lam[1:])])
        return np.array([lam[0], *centre[1:]])

    monkeypatch.setattr(fixedpoint, "solve_bpsop", fake_solver(q_of))
    trace = run(SimpleNamespace(n_agents=3)).trace
    assert trace.status == "converged"
    assert trace.iterations <= np.log2(1000) + 4
    scales = np.array(trace.step_scales)
    assert scales[:, 0].tolist() == [1.0, 1.0] + [2.0**k for k in range(1, 10)] + [1.0]
    assert np.all(scales[:, 1:] == 1.0)
    assert trace.iterates[-1] == pytest.approx([1.023, 0.9, 0.5], abs=1e-12)


def test_failed_solve_ends_the_run(monkeypatch):
    # q runs one ahead of lam, so no step reaches it; the fourth solve
    # fails, and the run returns the perturbations it was solved at
    solve = fake_solver(lambda lam: lam + 1.0)
    calls = []

    def failing(inst, lam, tol, start=None):
        x, duals, stats = solve(inst, lam, tol, start)
        calls.append(None)
        if len(calls) == 4:
            stats = SolveStats(200, 1.0, 1.0, 1.0, "max_iter")
        return x, duals, stats

    monkeypatch.setattr(fixedpoint, "solve_bpsop", failing)
    res = run(SimpleNamespace(n_agents=2))
    assert res.trace.status == "solver_failure"
    assert res.trace.failure_iteration == 3
    assert res.trace.iterations == 4
    assert res.trace.duals_per_iter[-1].solver_status == "max_iter"
    assert np.array_equal(res.lam, res.trace.iterates[-1])


def test_iteration_limit_ends_the_run():
    res = run(builtin_instance("experiment"), max_iter=2)
    assert res.trace.status == "max_iter"
    assert res.trace.iterations == 2
    assert len(res.trace.step_scales) == 1
    assert res.trace.residuals[-1] > DEFAULT_EPS
    assert np.array_equal(res.lam, res.trace.iterates[-1])


def test_trace_csv_round_trip(tmp_path):
    inst = builtin_instance("prop2")
    res = run(inst, eps=1e-6)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "residual", "lambda_1", "lambda_2", "lambda_3"]
    assert len(rows) == res.trace.iterations + 1
    assert float(rows[1][1]) == pytest.approx(res.trace.residuals[0], rel=1e-10)
    final = [float(v) for v in rows[-1][2:]]
    assert final == pytest.approx(res.trace.iterates[-1].tolist(), rel=1e-10)


# prices of the experiment's seed-1 fixed point, pinned so that a change to
# the solver that moves the fixed point shows
EXPERIMENT_PRICES = [
    1.5921300027914504, 3.3616201836517337, 1.840483438149168,
    4.133288604580924, 1.234005557932111, 2.822745370889628,
]
# the same fixed point reached by the plain step lam <- q (32 iterations,
# 391 Newton steps); the extrapolated path stops at a different point
# within eps of it, so the two agree to about 1e-8
PLAIN_STEP_PRICES = [
    1.5921300088629295, 3.36162019647148, 1.8404834451665613,
    4.1332886203388615, 1.234005562638265, 2.8227453816547547,
]


def test_experiment_converges_fast():
    inst = builtin_instance("experiment")
    res = run(inst, eps=1e-6, max_iter=100)
    assert res.trace.status == "converged"
    assert res.trace.iterations == 17
    assert sum(d.solver_iterations for d in res.trace.duals_per_iter) == 127
    assert np.abs(res.prices - EXPERIMENT_PRICES).max() <= 1e-9
    assert np.abs(res.prices - PLAIN_STEP_PRICES).max() <= 1e-7
    assert len(res.trace.step_scales) == res.trace.iterations - 1
    assert max(s.max() for s in res.trace.step_scales) == 16.0
    assert res.trace.residuals[-1] <= 1e-6 < res.trace.residuals[0]
    # strictly positive residual at every pre-convergence iterate
    assert all(r > 1e-6 for r in res.trace.residuals[:-1])


def test_warm_solves_start_late_but_not_at_the_last_iterate(monkeypatch):
    # a warm solve starts from an iterate of the previous solve's path near
    # its end, so it skips the early steps, but never from its last,
    # converged iterate
    calls = spy_on_solves(monkeypatch)
    assert run(builtin_instance("experiment")).trace.status == "converged"
    warm = [(start, stats) for start, stats in calls if stats.start == "warm"]
    assert 2 * len(warm) > len(calls)
    for start, stats in warm:
        mus = [mu for *_, mu in start.iterates]
        assert stats.start_mu in mus[:-1] and stats.start_mu != mus[-1]
    # the first step's solve starts far below the cold start's mu of 1.5
    assert calls[1][1].start == "warm" and calls[1][1].start_mu < 1e-3


@pytest.mark.parametrize("perm_seed", [7, 31])
def test_warm_started_fixed_point_ignores_agent_order(perm_seed):
    # every solve after the first starts warm from the previous solve's
    # path, and none falls back; the agents' order changes nothing
    inst = builtin_instance("experiment")
    perm = np.random.default_rng(perm_seed).permutation(inst.n_agents)
    res = run(
        MarketInstance(
            utilities=inst.utilities[perm],
            budgets=inst.budgets[perm],
            capacities=inst.capacities,
            types=inst.types,
            participation=inst.participation[perm],
        )
    )
    assert res.trace.status == "converged"
    assert res.trace.iterations == 17
    assert np.abs(res.prices - EXPERIMENT_PRICES).max() <= 1e-9
    starts = [d.solver_start for d in res.trace.duals_per_iter]
    assert starts[0] == "cold" and "warm" in starts and "fallback" not in starts
    for d in res.trace.duals_per_iter:
        assert np.isfinite(d.solver_start_mu) and d.solver_start_mu > 0
