import gc
import pickle
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typedfisher import (
    CentralPath,
    InfeasibleInstanceError,
    MarketInstance,
    ZeroUtilityError,
    builtin_instance,
    check_equilibrium,
    fixedpoint,
    kkt_residuals,
    random_instance,
    solve_bpsop,
    solve_sop1,
    solver,
    validate_instance,
)

from helpers import (
    duals_pinned_by_union_find,
    finite_floats,
    max_step_by_where,
    neighborhood_step_by_loop,
    rebuilt,
    refine_grid_objective,
    small_markets,
    spy_on_solves,
)


def test_single_agent_single_good():
    # stationarity forces the price to budget / capacity
    inst = MarketInstance(utilities=[[5.0]], budgets=[10.0], capacities=[2.0])
    x, duals, stats = solve_bpsop(inst, [0.0])
    assert stats.status == "converged"
    assert x[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert duals.p[0] == pytest.approx(5.0, abs=1e-6)


def test_sop1_equals_bpsop_at_zero():
    inst = builtin_instance("prop2")
    x1, d1, s1 = solve_sop1(inst)
    x2, d2, s2 = solve_bpsop(inst, np.zeros(3))
    assert np.array_equal(x1, x2)
    assert np.array_equal(d1.p, d2.p)


def test_classical_fisher_budgets_exhausted():
    rng = np.random.default_rng(5)
    inst = MarketInstance(
        utilities=rng.uniform(0.5, 3.0, (3, 3)),
        budgets=rng.uniform(1.0, 5.0, 3),
        capacities=rng.uniform(0.5, 2.0, 3),
    )
    x, duals, stats = solve_sop1(inst)
    assert stats.status == "converged"
    assert np.allclose(x @ duals.p, inst.budgets, atol=1e-6)


def test_solver_residuals_within_tolerance():
    for name in ("prop1", "prop2"):
        x, duals, stats = solve_sop1(builtin_instance(name))
        assert stats.success
        assert stats.stationarity_residual <= 1e-8
        assert stats.primal_feasibility_residual <= 1e-8
        assert stats.complementarity_residual <= 1e-8


def test_degenerate_tight_status_and_duals():
    inst = builtin_instance("prop2")  # type capacity 3 == 3 agents
    x, duals, stats = solve_sop1(inst)
    assert stats.status == "degenerate_tight"
    assert stats.tight_types == (0,)
    # normalized type duals: nonnegative with a zero minimum per tight type
    assert duals.r.min() >= 0.0
    assert duals.r[:, 0].min() == pytest.approx(0.0, abs=1e-12)
    # every agent holds exactly one unit of the tight type
    assert np.allclose(x[:, [0, 1]].sum(axis=1), 1.0, atol=1e-9)


def test_validation_warns_the_solver_tight_types():
    base = builtin_instance("experiment")
    caps = base.capacities.copy()
    caps[0] -= 1e-8  # within the relative tolerance, so type 1 stays tight
    inst = MarketInstance(base.utilities, base.budgets, caps, base.types)
    warned = tuple(
        int(w.split()[2]) - 1
        for w in validate_instance(inst).warnings
        if w.startswith("degenerate-tight")
    )
    _, _, stats = solve_sop1(inst)
    assert warned == stats.tight_types == (0, 1, 2)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-5, 1e-8])
def test_near_tight_types_solve(eps):
    # each type falls eps short of tight, so it keeps its barrier row,
    # whose slack at the cold start x = capacity / n is only eps; the
    # solve still converges to the full tolerance
    base = builtin_instance("experiment")
    inst = MarketInstance(base.utilities, base.budgets, base.capacities * (1 - eps), base.types)
    x, duals, stats = solve_sop1(inst)
    assert inst.tight_types == stats.tight_types == ()
    assert stats.status == "converged"
    assert kkt_residuals(inst, np.zeros(inst.n_agents), x, duals).max_residual <= 1e-6


def test_partial_participation():
    # agent 2 ignores the type; agent 1's cap binds on good 1
    inst = MarketInstance(
        utilities=[[4.0, 1.0], [1.0, 4.0]],
        budgets=[2.0, 1.0],
        capacities=[1.0, 1.0],
        types=((0,),),
        participation=[[True], [False]],
    )
    lam = np.zeros(2)
    x, duals, stats = solve_bpsop(inst, lam)
    assert stats.status == "converged"
    assert kkt_residuals(inst, lam, x, duals).max_residual <= 1e-6
    assert duals.r[1, 0] == 0.0
    assert duals.r[0, 0] > 0.1
    assert duals.objective == pytest.approx(refine_grid_objective(inst, lam), abs=1e-4)


def partly_joined_market():
    """Type 1 is tight; agents 2 and 5 ignore type 2."""
    rng = np.random.default_rng(5)
    inst = MarketInstance(
        utilities=rng.uniform(0.1, 1.0, (6, 6)),
        budgets=rng.uniform(1.0, 5.0, 6),
        capacities=[2.0, 4.0, 0.8, 1.2, 0.5, 3.0],
        types=((0, 1), (2, 3, 4)),
        participation=np.column_stack([np.ones(6, bool), ~np.isin(np.arange(6), [1, 4])]),
    )
    return inst, rng.uniform(0.0, 1.0, 6)


def test_tight_type_beside_partially_joined_slack_type():
    inst, lam = partly_joined_market()
    x, duals, stats = solve_bpsop(inst, lam)
    assert stats.status == "degenerate_tight"
    assert stats.tight_types == (0,)
    assert kkt_residuals(inst, lam, x, duals).max_residual <= 1e-6
    assert np.all(duals.r[[1, 4], 1] == 0.0)
    assert fixedpoint.run(inst).trace.status == "converged"


def tight_market(seed, n, capacities, types):
    rng = np.random.default_rng(seed)
    inst = MarketInstance(
        utilities=rng.uniform(0.1, 1.0, (n, len(capacities))),
        budgets=rng.uniform(1.0, 5.0, n),
        capacities=capacities,
        types=types,
    )
    return inst, rng.uniform(0.0, 1.0, n)


TIGHT_MARKETS = {
    # type 1 keeps no good once its only one is substituted out
    "single_good_type": tight_market(1, 4, [4.0, 1.0, 1.5], ((0,), (1, 2))),
    # no good is left, so the program solved has no capacity row
    "every_good_substituted": tight_market(2, 3, [3.0, 3.0], ((0,), (1,))),
    "three_good_type": tight_market(3, 5, [1.5, 2.0, 1.5, 2.0], ((0, 1, 2),)),
    "one_agent": tight_market(4, 1, [0.3, 0.7, 2.0], ((0, 1),)),
    "beside_partly_joined_slack_type": partly_joined_market(),
}


@pytest.mark.parametrize("name", TIGHT_MARKETS)
def test_tight_substitution_maps_back(name):
    # each tight type's last good is substituted out of the program solved,
    # and the allocation and duals are mapped back to the full program
    inst, lam = TIGHT_MARKETS[name]
    assert inst.tight_types
    x, duals, stats = solve_bpsop(inst, lam)
    assert stats.status == "degenerate_tight"
    assert kkt_residuals(inst, lam, x, duals).max_residual <= 1e-6
    assert np.all(x >= 0.0)
    for t in inst.tight_types:
        assert np.abs(x[:, list(inst.types[t])].sum(axis=1) - 1.0).max() <= 1e-9
        assert duals.r.min(axis=0)[t] == 0.0


@pytest.mark.parametrize("name", [*TIGHT_MARKETS, "slack_1000x7"])
def test_cold_start_is_interior(name):
    # one entry of v = (x, xi) and of w = (z, r) per kept (good, agent) pair
    # and per slack row, each strictly positive, and one price per kept good
    if name == "slack_1000x7":
        inst = random_instance(9, 1000, 7, ((0, 1), (2, 3), (4, 5)), capacity_range=(50.0, 300.0))
        lam = np.zeros(inst.n_agents)
    else:
        inst, lam = TIGHT_MARKETS[name]
    kept = inst.n_goods - len(inst.tight_types)
    v, w, p = solver._cold_start(solver._program(inst), inst.budgets + lam)
    assert len(v) == len(w) == kept * inst.n_agents + int(inst.participation.sum())
    assert np.all(v > 0.0) and np.all(w > 0.0)
    assert np.array_equal(p, np.zeros(kept))


@pytest.mark.parametrize("n, m, size, count", [(2000, 7, 2, 3), (200, 60, 3, 18)])
def test_solve_memory_stays_within_budget(n, m, size, count):
    # a solve allocates its Newton storage once, pools it and drops it on
    # return, so its traced peak, once the market's program is built, stays
    # at 32 arrays of n x m doubles (31.4 and 31.0 for these two markets;
    # 33.4 and 33.6 when every iterate allocated its own arrays)
    types = tuple(tuple(range(t * size, (t + 1) * size)) for t in range(count))
    inst = random_instance(1, n, m, types, capacity_range=(0.05 * n, 0.3 * n))
    assert solve_sop1(inst)[2].success
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, _, stats = solve_sop1(inst)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert stats.success
    assert peak <= 32 * n * m * 8


def test_divergence_is_reported_as_such(monkeypatch):
    # from the sixth Newton step on, every direction moves the prices 1e6
    # off, so the residuals grow and the divergence guard ends the solve
    inst = random_instance(3, 30, 5, ((0, 1), (2, 3)), capacity_range=(2.0, 9.0))
    lam = np.zeros(inst.n_agents)
    x_best, duals_best, stats_best = solve_bpsop(inst, lam, max_iter=6)
    original = solver.structured_newton

    def kicked(U, A):
        newton = original(U, A)
        calls = []

        def kicked_system(extra):
            system = newton(extra)
            factor = system.factor

            def kicked_factor(beta, d, gamma):
                solve, apply = factor(beta, d, gamma)
                calls.append(None)
                if len(calls) < 6:
                    return solve, apply

                def kicked_solve(rhs, rhs_cap):
                    sol, dp = solve(rhs, rhs_cap)
                    return sol, dp + 1e6

                return kicked_solve, apply

            system.factor = kicked_factor
            return system

        return kicked_system

    monkeypatch.setattr(solver, "structured_newton", kicked)
    x, duals, stats = solve_bpsop(rebuilt(inst), lam)
    assert stats.status == "diverged"
    assert stats.iterations == 7
    assert not stats.success
    # the best of the first six iterates, as a solve stopped there returns it
    assert np.array_equal(x, x_best)
    assert np.array_equal(duals.p, duals_best.p)
    assert np.array_equal(duals.r, duals_best.r)
    assert stats.stationarity_residual == stats_best.stationarity_residual


@pytest.mark.parametrize(
    "inst",
    [
        random_instance(
            9, 1000, 7, ((0, 1), (2, 3), (4, 5)), capacity_range=(50.0, 300.0)
        ),
        random_instance(
            1, 200, 60, [tuple(range(3 * t, 3 * t + 3)) for t in range(18)],
            capacity_range=(10.0, 60.0),
        ),
    ],
    ids=["tall_g9", "wide_g1"],
)
def test_slack_markets_that_diverged_with_dense_blocks_converge(inst):
    # the batched dense inverses lost the Newton direction's accuracy near
    # the optimum of these markets, and the solves ended diverged
    x, duals, stats = solve_sop1(inst)
    assert stats.status == "converged"
    assert kkt_residuals(inst, np.zeros(inst.n_agents), x, duals).max_residual <= 1e-6


def permuted(inst, perm):
    """The same market with its agents in the order ``perm``."""
    return MarketInstance(
        utilities=inst.utilities[perm],
        budgets=inst.budgets[perm],
        capacities=inst.capacities,
        types=inst.types,
        participation=inst.participation[perm],
    )


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e150, 1e200])
def test_solve_is_invariant_to_the_utility_scale(scale):
    # each agent's utilities are scaled by a power of two inside the solve,
    # so beta = c / yhat^2 and the Schur matrix stay finite at any scale
    inst = builtin_instance("experiment")
    _, ref, ref_stats = solve_sop1(inst)
    scaled = replace(inst, utilities=inst.utilities * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, duals, stats = solve_sop1(scaled)
    assert (stats.status, stats.iterations) == (ref_stats.status, ref_stats.iterations)
    assert np.abs(duals.p - ref.p).max() <= 1e-12
    # the objective is that of the unscaled utilities
    shift = inst.budgets.sum() * np.log(scale)
    assert duals.objective == pytest.approx(ref.objective + shift, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_slack_solve_is_invariant_to_agent_order(seed):
    # a solve sums over agents in their order, so reordering them moves
    # only the rounding, never the Newton path
    inst = random_instance(9, 1000, 7, ((0, 1), (2, 3), (4, 5)), capacity_range=(50.0, 300.0))
    perm = np.random.default_rng(seed).permutation(inst.n_agents)
    x, duals, stats = solve_sop1(inst)
    x_perm, duals_perm, stats_perm = solve_sop1(permuted(inst, perm))
    assert stats_perm.status == stats.status == "converged"
    assert stats_perm.iterations == stats.iterations
    assert np.abs(duals_perm.p - duals.p).max() <= 1e-10
    assert np.abs(x_perm - x[perm]).max() <= 1e-10
    assert np.abs(duals_perm.r - duals.r[perm]).max() <= 1e-10


def test_summed_complementarity_identity():
    # w_i + lam_i - p.x_i - sum_t r_it = 0 at any converged solve
    inst = builtin_instance("prop2")
    lam = np.array([2.0, 0.5, 0.0])
    x, duals, stats = solve_bpsop(inst, lam)
    ident = inst.budgets + lam - x @ duals.p - duals.r.sum(axis=1)
    assert np.max(np.abs(ident)) <= 1e-7


def test_infeasible_capacity_raises():
    inst = MarketInstance(
        utilities=[[1.0, 1.0], [1.0, 1.0]],
        budgets=[1.0, 1.0],
        capacities=[1.5, 1.0],
        types=((0, 1),),
    )
    with pytest.raises(InfeasibleInstanceError):
        solve_sop1(inst)


def test_invalid_instance_raises():
    inst = MarketInstance(utilities=[[1.0, 1.0]], budgets=[-1.0], capacities=[1.0, 1.0])
    with pytest.raises(ValueError) as err:
        solve_sop1(inst)
    assert not isinstance(err.value, InfeasibleInstanceError)
    assert str(err.value) == "invalid instance: budget of agent 1 is not positive"


def test_bad_lam_rejected():
    inst = builtin_instance("prop2")
    with pytest.raises(ValueError):
        solve_bpsop(inst, [1.0])
    with pytest.raises(ValueError):
        solve_bpsop(inst, [-1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "kwargs", [{"tol": -1.0}, {"tol": 0.0}, {"tol": np.nan}, {"tol": np.inf}, {"max_iter": 0}]
)
def test_bad_tol_and_max_iter_rejected(kwargs):
    # these used to run 46 Newton steps and report diverged, or return the
    # starting point as max_iter
    with pytest.raises(ValueError, match="tol must be finite and positive|max_iter must be at least 1"):
        solve_sop1(builtin_instance("experiment"), **kwargs)


def test_kkt_residuals_accept_solver_output():
    inst = builtin_instance("experiment")
    x, duals, stats = solve_sop1(inst)
    res = kkt_residuals(inst, np.zeros(200), x, duals)
    assert res.max_residual <= 1e-8


def test_kkt_residuals_detect_perturbation():
    inst = builtin_instance("prop2")
    x, duals, stats = solve_sop1(inst)
    x_bad = x.copy()
    x_bad[0, 2] += 0.1
    res = kkt_residuals(inst, np.zeros(3), x_bad, duals)
    assert max(res.feasibility, res.complementarity) > 0.01


def test_kkt_residuals_reject_zero_utility():
    inst = builtin_instance("prop2")
    x, duals, stats = solve_sop1(inst)
    x_bad = x.copy()
    x_bad[1] = 0.0
    with pytest.raises(ZeroUtilityError, match="^agent 2 was forced to zero utility$") as err:
        kkt_residuals(inst, np.zeros(3), x_bad, duals)
    assert err.value.agent == 1


def test_kkt_residuals_hand_built_solution():
    inst = MarketInstance(utilities=[[5.0]], budgets=[10.0], capacities=[2.0])
    from typedfisher import DualBundle

    duals = DualBundle(
        p=np.array([5.0]),
        r=np.zeros((1, 0)),
        s=np.zeros((1, 1)),
        objective=10.0 * np.log(10.0),
    )
    res = kkt_residuals(inst, [0.0], np.array([[2.0]]), duals)
    assert res.max_residual <= 1e-12


def test_objective_matches_grid_search():
    rng = np.random.default_rng(11)
    for trial in range(6):
        types = ((), ((0,),), ((0, 1),))[trial % 3]
        if types == ((0, 1),):
            total = rng.uniform(0.5, 1.6)
            frac = rng.uniform(0.2, 0.8)
            caps = [total * frac, total * (1 - frac)]
        else:
            caps = rng.uniform(0.3, 1.6, 2).tolist()
        inst = MarketInstance(
            utilities=rng.uniform(0.2, 5.0, (2, 2)),
            budgets=rng.uniform(0.5, 10.0, 2),
            capacities=caps,
            types=types,
        )
        lam = rng.uniform(0.0, 3.0, 2)
        x, duals, stats = solve_bpsop(inst, lam)
        assert stats.success
        oracle = refine_grid_objective(inst, lam)
        assert duals.objective == pytest.approx(oracle, abs=1e-4)


def test_budget_scaling_homogeneity():
    rng = np.random.default_rng(3)
    inst = MarketInstance(
        utilities=rng.uniform(0.2, 5.0, (3, 3)),
        budgets=rng.uniform(1.0, 5.0, 3),
        capacities=[0.4, 0.5, 1.1],
        types=((0, 1),),
    )
    lam = np.array([0.3, 0.0, 1.2])
    x1, d1, _ = solve_bpsop(inst, lam)
    c = 4.2
    scaled = MarketInstance(
        utilities=inst.utilities,
        budgets=inst.budgets * c,
        capacities=inst.capacities,
        types=inst.types,
    )
    x2, d2, _ = solve_bpsop(scaled, lam * c)
    assert np.allclose(x1, x2, atol=1e-6)
    assert np.allclose(d2.p, c * d1.p, atol=1e-5)
    assert np.allclose(d2.r, c * d1.r, atol=1e-5)


def test_feasible_perturbations_never_beat_reported_objective():
    rng = np.random.default_rng(9)
    inst = builtin_instance("prop2")
    x, duals, stats = solve_sop1(inst)
    c = inst.budgets
    for _ in range(50):
        # random capacity-preserving transfer between two agents, projected
        # back into the type caps
        xp = x.copy()
        j = rng.integers(0, 3)
        a, b = rng.choice(3, size=2, replace=False)
        eps = rng.uniform(0.0, 0.05)
        move = min(eps, xp[a, j])
        xp[a, j] -= move
        xp[b, j] += move
        if np.any(xp[:, [0, 1]].sum(axis=1) > 1.0 + 1e-12):
            continue
        vals = xp @ inst.utilities.T
        util = np.einsum("ij,ij->i", inst.utilities, xp)
        if np.any(util <= 0):
            continue
        obj = float(c @ np.log(util))
        assert obj <= duals.objective + 1e-8


def test_solver_is_deterministic():
    inst = builtin_instance("experiment")
    x1, d1, s1 = solve_sop1(inst)
    x2, d2, s2 = solve_sop1(inst)
    assert np.array_equal(x1, x2)
    assert np.array_equal(d1.p, d2.p)
    assert s1.iterations == s2.iterations


@settings(deadline=None, max_examples=40)
@given(small_markets(), st.data())
def test_random_instances_solve_clean(inst, data):
    lam = np.array(
        data.draw(
            st.lists(
                finite_floats(0.0, 5.0),
                min_size=inst.n_agents,
                max_size=inst.n_agents,
            ),
            label="lam",
        )
    )
    x, duals, stats = solve_bpsop(inst, lam, max_iter=300)
    # adversarially degenerate draws (identical utilities) may stall just
    # short of the formal 1e-8 gate; the solution itself must still be good
    assert stats.success or max(
        stats.stationarity_residual,
        stats.primal_feasibility_residual,
        stats.complementarity_residual,
    ) <= 1e-6
    res = kkt_residuals(inst, lam, x, duals)
    assert res.max_residual <= 1e-6
    ident = inst.budgets + lam - x @ duals.p - duals.r.sum(axis=1)
    assert np.max(np.abs(ident)) <= 1e-6


def test_warm_start_matches_cold_solve_in_fewer_steps():
    # solved to 1e-10, so that the two solves' own errors lie well inside
    # the 1e-8 they are compared at
    inst = builtin_instance("experiment")
    lam = 1e-3 * np.random.default_rng(0).uniform(0.0, 1.0, inst.n_agents)
    zero = np.zeros(inst.n_agents)
    _, _, first = solve_bpsop(inst, zero, tol=1e-10, start=CentralPath())
    assert first.start == "cold" and len(first.path.iterates) == first.iterations
    # each iterate is the complementary pair (v, w), p and their mean product
    for v, w, p, mu in first.path.iterates:
        assert len(v) == len(w) and len(p) == 3
        assert mu == (v * w).sum() / len(v)
    x, duals, stats = solve_bpsop(inst, lam, tol=1e-10, start=first.path)
    x_cold, duals_cold, stats_cold = solve_bpsop(inst, lam, tol=1e-10)
    assert stats.start == "warm" and stats.success
    assert 0.0 < stats.start_mu < first.start_mu
    assert stats.iterations < stats_cold.iterations
    assert np.abs(x - x_cold).max() <= 1e-8
    assert np.abs(duals.p - duals_cold.p).max() <= 1e-8
    assert np.abs(duals.r - duals_cold.r).max() <= 1e-8
    # a solve without a start records no path and checks no support
    assert stats_cold.start == "cold" and stats_cold.path is None
    assert stats_cold.duals_pinned is None


def test_warm_start_never_takes_the_converged_iterate():
    # solved again at the same lam, the stored path's last iterate would
    # pass the start test, but the solve starts from the one before it
    inst = builtin_instance("experiment")
    zero = np.zeros(inst.n_agents)
    _, _, first = solve_bpsop(inst, zero, start=CentralPath())
    _, _, again = solve_bpsop(inst, zero, start=first.path)
    mus = [mu for *_, mu in first.path.iterates]
    assert again.start == "warm" and again.start_mu == mus[-2]
    assert again.success and again.duals_pinned
    # a path of the converged iterate alone offers no start
    alone = replace(first.path, iterates=first.path.iterates[-1:])
    assert solve_bpsop(inst, zero, start=alone)[2].start == "cold"


def test_warm_start_falls_back_where_duals_are_not_unique():
    # the cold solve at lam = 0 is pinned and offers its path; from it, the
    # solve at the fixed point's next lam = q leaves its duals unpinned, so
    # the cold solve runs as well and is returned
    inst = random_instance(1, 1000, 7, ((0, 1), (2, 3), (4, 5)))
    _, at_zero, first = solve_bpsop(inst, np.zeros(inst.n_agents), start=CentralPath())
    assert first.duals_pinned
    lam = at_zero.r.sum(axis=1)
    x, duals, stats = solve_bpsop(inst, lam, start=first.path)
    x_cold, duals_cold, stats_cold = solve_bpsop(inst, lam)
    assert stats.start == "fallback"
    assert stats.iterations > stats_cold.iterations
    assert np.array_equal(x, x_cold)
    for name in ("p", "r", "s"):
        assert np.array_equal(getattr(duals, name), getattr(duals_cold, name))
    # the fallback reports its cold solve's pinned check, and offers that
    # solve's path only when it holds, which here it does not
    assert stats.duals_pinned is False
    assert stats.path.iterates == ()


def assert_warm_only_after_pinned(calls):
    """Each solve starts from the previous one's path when that solve's
    duals were pinned, and cold from an empty path otherwise."""
    for (_, prev), (start, stats) in zip(calls, calls[1:]):
        if prev.duals_pinned:
            assert start is prev.path
        else:
            assert start.iterates == () and stats.start == "cold"


@pytest.mark.parametrize(
    "name, newton, iterations",
    [("partly_joined", 652, 55), ("prop2", 24, 3)],
)
def test_fixed_point_solves_cold_after_unpinned_solves(monkeypatch, name, newton, iterations):
    # no solve of these markets has its duals pinned, the first cold one
    # included, so no solve starts warm and none has to fall back
    calls = spy_on_solves(monkeypatch)
    inst = partly_joined_market()[0] if name == "partly_joined" else builtin_instance(name)
    res = fixedpoint.run(inst)
    starts = [d.solver_start for d in res.trace.duals_per_iter]
    assert res.trace.status == "converged" and res.trace.iterations == iterations
    assert starts == ["cold"] * iterations
    assert sum(d.solver_iterations for d in res.trace.duals_per_iter) == newton
    assert not any(stats.duals_pinned for _, stats in calls)
    assert_warm_only_after_pinned(calls)


def test_warm_starts_resume_after_a_fallback(monkeypatch):
    # the default-capacity untyped market falls back once early in the run,
    # and starts warm again once a later cold solve's duals are pinned
    calls = spy_on_solves(monkeypatch)
    inst = random_instance(2, 100, 7, ((0, 1), (2, 3), (4, 5)))
    assert fixedpoint.run(inst, max_iter=1500).trace.status == "converged"
    starts = [stats.start for _, stats in calls]
    assert "warm" in starts[starts.index("fallback") :]
    assert_warm_only_after_pinned(calls)


def solved(inst, lam):
    x, duals, stats = solve_bpsop(inst, lam)
    return x, duals.p, duals.r, duals.s, stats.iterations, stats.direction_residual


def assert_same_solve(a, b):
    assert all(np.array_equal(u, v) for u, v in zip(a[:4], b[:4]))
    assert a[4:] == b[4:]


def test_reduced_program_is_not_seen_from_outside():
    # each market's program is set up on its first solve and reused: a
    # second solve of one object, a solve of an equal new object and solves
    # that alternate between markets, two of them of one shape, match a
    # first solve bit for bit
    half = np.full(200, 0.5)
    markets = [
        (builtin_instance("experiment", 3), half),
        (builtin_instance("experiment", 4), half),
        partly_joined_market(),
    ]
    alone = [solved(rebuilt(inst), lam) for inst, lam in markets]
    for _ in range(2):
        for (inst, lam), ref in zip(markets, alone):
            assert_same_solve(solved(inst, lam), ref)
            assert_same_solve(solved(rebuilt(inst), lam), ref)


def partial_40x7(gen_seed):
    """A 40 x 7 market of three two-good types, each of which each agent
    joins with probability 0.7."""
    base = random_instance(gen_seed, 40, 7, ((0, 1), (2, 3), (4, 5)), capacity_range=(2, 12))
    return MarketInstance(
        utilities=base.utilities,
        budgets=base.budgets,
        capacities=base.capacities,
        types=base.types,
        participation=np.random.default_rng(100 + gen_seed).random((40, 3)) < 0.7,
    )


@pytest.mark.parametrize("name", ["experiment", "slack_1000x7", "partly_joined", "partial_40x7"])
def test_slack_rows_of_a_full_grid_are_views(name):
    # when every (type, agent) cell is a slack row, by_pair is a reshape of
    # its argument and row_sums a ravel of the type sums; a partly joined
    # grid scatters and gathers through its mask.  Both give the same values
    inst = {
        "experiment": lambda: builtin_instance("experiment"),
        "slack_1000x7": lambda: random_instance(9, 1000, 7, ((0, 1), (2, 3), (4, 5))),
        "partly_joined": lambda: partly_joined_market()[0],
        "partial_40x7": lambda: partial_40x7(1),
    }[name]()
    program = solver._program(inst)
    full = name in ("experiment", "slack_1000x7")
    assert program.full is full and inst.participation.all() == full
    rng = np.random.default_rng(0)
    v = rng.random(int(program.rows.sum()))
    x = rng.random(program.U.shape)
    scattered = np.zeros(program.rows.shape)
    scattered[program.rows] = v
    grid = program.by_pair(v)
    assert np.array_equal(grid, scattered)
    assert np.shares_memory(grid, v) is full
    sums = program.row_sums(x)
    assert np.array_equal(sums, (program.A @ x)[program.rows])
    assert (sums.base is not None) is full


def test_no_caller_writes_a_by_pair_grid(monkeypatch):
    # with a full grid by_pair returns a view of its argument, so nothing
    # may write what it returns: the cold start's r, which gains the
    # substituted goods' gradient at the tight types, is an array of its
    # own.  Solves whose grids are read-only match plain solves bit for bit
    markets = [(builtin_instance("experiment", 2), np.full(200, 0.5)), partly_joined_market()]
    plain = [solved(rebuilt(inst), lam) for inst, lam in markets]
    cold = [solver._cold_start(solver._program(inst), inst.budgets + lam) for inst, lam in markets]
    by_pair = solver._Program.by_pair

    def read_only(program, v):
        grid = by_pair(program, v).view()
        grid.setflags(write=False)
        return grid

    monkeypatch.setattr(solver._Program, "by_pair", read_only)
    for (inst, lam), ref, start in zip(markets, plain, cold):
        assert_same_solve(solved(rebuilt(inst), lam), ref)
        again = solver._cold_start(solver._program(inst), inst.budgets + lam)
        assert all(np.array_equal(a, b) for a, b in zip(again, start))


def test_reduced_program_is_freed_with_its_market():
    inst = random_instance(4, 30, 5, ((0, 1), (2, 3)), capacity_range=(2.0, 9.0))
    gc.collect()
    solve_sop1(inst)
    program = weakref.ref(solver._PROGRAMS[inst])
    market = weakref.ref(inst)
    kept = len(solver._PROGRAMS)
    del inst
    gc.collect()
    assert market() is None
    assert program() is None
    assert len(solver._PROGRAMS) == kept - 1


def test_stored_path_is_not_written_by_the_next_solve():
    inst = builtin_instance("experiment")
    _, _, first = solve_bpsop(inst, np.zeros(inst.n_agents), start=CentralPath())
    saved = [[np.copy(a) for a in state[:3]] for state in first.path.iterates]
    _, _, second = solve_bpsop(inst, np.full(inst.n_agents, 1e-3), start=first.path)
    assert second.start == "warm"
    for state, copy in zip(first.path.iterates, saved):
        for a, b in zip(state[:3], copy):
            assert np.array_equal(a, b)


def test_start_from_another_market_rejected():
    _, _, first = solve_sop1(builtin_instance("prop2"))
    _, _, other = solve_bpsop(
        builtin_instance("prop1"), np.zeros(2), start=CentralPath()
    )
    assert first.path is None and other.duals_pinned
    # refused whatever its length, also where the search for a start, which
    # skips the last iterate, reads none of it
    for length in (1, 2, len(other.path.iterates)):
        with pytest.raises(ValueError, match="not a path of this market"):
            solve_bpsop(
                builtin_instance("experiment"),
                np.zeros(200),
                start=replace(other.path, iterates=other.path.iterates[:length]),
            )
    # the same goods and types, one agent fewer, so every iterate is short
    full = builtin_instance("experiment")
    cut = MarketInstance(
        utilities=full.utilities[:199],
        budgets=full.budgets[:199],
        capacities=np.full(6, 99.5),
        types=full.types,
    )
    _, _, shorter = solve_bpsop(cut, np.zeros(199), start=CentralPath())
    assert shorter.success
    with pytest.raises(ValueError, match="not a path of this market"):
        solve_bpsop(full, np.zeros(200), start=shorter.path)


def test_start_of_a_same_shape_market_rejected():
    # seeds 1 and 2 of the experiment share every length, and a rebuilt
    # copy of seed 2 holds its very arrays, yet the path of seed 2 belongs
    # to that market object alone
    seed1, seed2 = builtin_instance("experiment", 1), builtin_instance("experiment", 2)
    zero = np.zeros(200)
    _, _, other = solve_bpsop(seed2, zero, start=CentralPath())
    assert other.duals_pinned and other.path.iterates
    for inst in (seed1, rebuilt(seed2)):
        with pytest.raises(ValueError, match="not a path of this market"):
            solve_bpsop(inst, zero, start=other.path)
    assert other.path.market is seed2
    assert solve_bpsop(seed2, zero, start=other.path)[2].start == "warm"


def test_unpinned_solve_offers_an_empty_path():
    # prop2's duals are not pinned by its support, so its cold solve, which
    # records 8 iterates, offers none of them
    _, _, stats = solve_bpsop(builtin_instance("prop2"), np.zeros(3), start=CentralPath())
    assert stats.start == "cold" and stats.success and stats.iterations == 8
    assert stats.duals_pinned is False
    assert stats.path.iterates == ()


def test_fixed_point_result_pickles_with_its_path():
    # the path holds its market, not the market's reduced program, whose
    # Newton closure does not pickle; the market and its path unpickle
    # together, so the copy's path starts a solve of the copy's market
    res = fixedpoint.run(builtin_instance("experiment"))
    back = pickle.loads(pickle.dumps(res))
    assert np.array_equal(back.prices, res.prices)
    path = back.solve_stats.path
    assert len(path.iterates) == len(res.solve_stats.path.iterates) > 0
    _, duals, stats = solve_bpsop(path.market, back.lam, start=path)
    assert stats.start == "warm" and np.array_equal(duals.p, res.prices)


def max_step(v, dv):
    """The step bound of v alone, as the solver takes it."""
    return solver._least_step(v, dv, np.empty_like(v))


def pair_step(v, dv, w, dw):
    """The step bound of the pair (v, w), as the solver takes it: on the
    two joined into one array."""
    y, dy = np.concatenate([v, w]), np.concatenate([dv, dw])
    return solver._least_step(y, dy, np.empty_like(y))


def test_max_step_to_the_boundary():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # no entry decreases: nothing bounds the step
        v = np.array([1.0, 0.0, 2.0])
        assert max_step(v, np.array([0.0, 1.0, 0.0])) == np.inf
        assert max_step(np.zeros(0), np.zeros(0)) == np.inf
        # an entry already at zero that decreases allows no step
        assert max_step(np.array([0.0, 1.0]), np.array([-1.0, -1.0])) == 0.0
        # the smallest ratio over the decreasing entries, the others ignored
        v = np.array([3.0, 1.0, 0.5, 2.0, 0.0])
        dv = np.array([-2.0, 4.0, -0.25, -8.0, 0.0])
        assert max_step(v, dv) == 0.25


def test_pair_step_is_the_smaller_max_step():
    # the same fuzz as below, plus vectors of no entries and inf entries
    # in v and dv, each bound tied with the other's in some cases
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5_000):
            pair = []
            for _ in range(2):
                n = int(rng.integers(0, 12))
                v = 10.0 ** rng.uniform(-30, 30, n) * (rng.random(n) < 0.8)
                dv = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n)
                dv *= rng.random(n) < 0.8
                v[rng.random(n) < 0.05] = np.inf
                dv[rng.random(n) < 0.05] = -np.inf
                pair += [v, dv]
            v, dv, w, dw = pair
            if len(v) and len(w) and rng.random() < 0.3:
                i, j = rng.integers(0, len(v)), rng.integers(0, len(w))
                w[j], dw[j] = 2.0 * v[i], 2.0 * dv[i]
            expected = min(max_step(v, dv), max_step(w, dw))
            assert pair_step(v, dv, w, dw) == expected
            tau = rng.uniform(0.99, 0.9995)
            assert min(1.0, tau * pair_step(v, dv, w, dw)) == min(
                1.0, tau * max_step(v, dv), tau * max_step(w, dw)
            )


def test_joined_pair_bound_is_the_smaller_half_bound():
    # halves of one length, as the solver's v and w are: zero directions,
    # halves where nothing decreases (bound inf), and halves that share
    # their least ratio, exactly or one ulp apart, at bounds of 1e-30 to 1e30
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5_000):
            n = int(rng.integers(1, 20))
            v, w = 10.0 ** rng.uniform(-30, 30, (2, n)) * (rng.random((2, n)) < 0.9)
            dv, dw = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-30, 30, (2, n))
            kind = rng.integers(0, 4)
            if kind == 0:
                (dv if rng.random() < 0.5 else dw)[:] = 0.0
            elif kind == 1:
                np.abs(dv, out=dv)
                if rng.random() < 0.5:
                    np.abs(dw, out=dw)
            elif kind == 2:
                # w's least ratio is v's, at a bound scaled by a power of two
                with np.errstate(divide="ignore", invalid="ignore"):
                    i = int(np.nanargmin(np.where(dv < 0, dv / v, np.inf)))
                j = int(rng.integers(0, n))
                scale = 2.0 ** rng.integers(-4, 5)
                w[j], dw[j] = scale * v[i], scale * dv[i]
                if w[j] > 0 and rng.random() < 0.3:
                    w[j] = np.nextafter(w[j], rng.choice([0.0, np.inf]))
            bound = pair_step(v, dv, w, dw)
            assert bound == min(max_step(v, dv), max_step(w, dw))
            if kind == 1 and (dw >= 0).all():
                assert bound == np.inf


def test_neighborhood_step_matches_the_loop():
    cases = [
        # a product stuck at zero fails every test: all 50 back-offs run,
        # and the last alpha, 0.75^50 > 1e-8, is never tested
        (np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, -0.5]), np.array([1.0, 1.0, 1.0]),
         np.array([0.0, -0.2, 0.3]), 1.0),
        # the same from alpha 1e-7: the back-offs stop at alpha <= 1e-8
        (np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.zeros(2), 1e-7),
        # the full step is taken
        (np.ones(3), np.full(3, 0.5), np.ones(3), np.full(3, -0.5), 1.0),
    ]
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 20))
        v, w = 10.0 ** rng.uniform(-6, 2, (2, n))
        dv, dw = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-3, 2, (2, n))
        cases.append((v, dv, w, dw, float(rng.uniform(0.1, 1.0))))
    exhausted = []
    for k, (v, dv, w, dw, alpha) in enumerate(cases):
        # the solver holds the pair (v, w) and its direction as one array each
        y, dy = np.concatenate([v, w]), np.concatenate([dv, dw])
        y_new, a = solver._neighborhood_step(y, dy, alpha, np.empty_like(y))
        v_ref, w_ref, a_ref = neighborhood_step_by_loop(v, dv, w, dw, alpha)
        assert a == a_ref
        assert np.array_equal(y_new[: len(v)], v_ref) and np.array_equal(y_new[len(v) :], w_ref)
        last = alpha
        for _ in range(50):
            last *= 0.75
        if a == last:
            exhausted.append(k)
    assert exhausted[0] == 0


def test_max_step_matches_where_reference():
    # random lengths and magnitudes 1e-30 to 1e30, zeros in v and in dv,
    # 0 / 0, and an entry that is another scaled by 3, exactly or one ulp
    # off, so that ratios and bounds tie or nearly tie
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5_000):
            n = int(rng.integers(1, 30))
            v = 10.0 ** rng.uniform(-30, 30, n) * (rng.random(n) < 0.9)
            dv = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n)
            dv *= rng.random(n) < 0.9
            i, j = rng.integers(0, n, 2)
            v[j], dv[j] = 3.0 * v[i], 3.0 * dv[i]
            if v[j] > 0 and rng.random() < 0.5:
                v[j] = np.nextafter(v[j], rng.choice([0.0, np.inf]))
            assert max_step(v, dv) == max_step_by_where(v, dv)


# One type over good 0 (good 1 untyped).  Agent 0 holds good 0 and fills
# its row (xi 0 < r 1), so good 0 and row 0 share a component; agent 1
# holds good 1, which fixes p_1.  Good 0's component is anchored only
# through agent 1's pair (1, 0): by a slack row in "slack_row", by a pair
# outside every row of agent 1 in "outside_rows".  x and z list one agent
# per line; ``rows`` is the (T, n) participation grid.
PINNED_SUPPORTS = {
    "unanchored": ([[1.0, 0.5], [0.0, 0.5]], [[0, 0], [1, 0]], [0.0, 1.0], [1.0, 0.0], [[1, 1]], False),
    "slack_row": ([[1.0, 0.5], [0.5, 0.5]], [[0, 0], [0, 0]], [0.0, 0.5], [1.0, 0.0], [[1, 1]], True),
    "outside_rows": ([[1.0, 0.5], [0.5, 0.5]], [[0, 0], [0, 0]], [0.0], [1.0], [[1, 0]], True),
}


@pytest.mark.parametrize("name", PINNED_SUPPORTS)
def test_duals_pinned_by_support(name):
    x, z, xi, r, rows, pinned = PINNED_SUPPORTS[name]
    A = np.array([[1.0, 0.0]])
    result = solver._duals_pinned(
        np.array(x).T, np.array(z, float).T, np.array(xi), np.array(r),
        A, np.array(rows, bool),
    )
    assert result is pinned


def test_duals_pinned_matches_union_find():
    # random supports over random disjoint types and participation masks
    rng = np.random.default_rng(7)
    outcomes = []
    for _ in range(2000):
        m, n, T = rng.integers(1, 7), rng.integers(1, 6), rng.integers(0, 4)
        # each good's type, or T for an untyped good; a type may keep no good
        A = (rng.integers(0, T + 1, m) == np.arange(T)[:, None]).astype(float)
        rows = rng.random((T, n)) < rng.random()
        K = int(rows.sum())
        density = rng.random()
        x = rng.random((m, n)) * (rng.random((m, n)) < density)
        z = rng.random((m, n)) * (x == 0)
        xi, r = rng.random(K), rng.random(K)
        r[rng.random(K) < 0.5] = 0.0
        if rng.random() < 0.5:  # complementary, as at a solution
            xi[r > 0] = 0.0
        tie = rng.random(K) < 0.1  # xi = r fixes nothing
        xi[tie] = r[tie]
        expected = duals_pinned_by_union_find(x, z, xi, r, A, rows)
        assert solver._duals_pinned(x, z, xi, r, A, rows) is expected
        outcomes.append(expected)
    # both answers are common
    assert 0.2 < np.mean(outcomes) < 0.8


def test_step_backs_off_into_the_neighborhood():
    # a cold solve at the fourth outer iterate of this market takes a full
    # fraction-to-the-boundary step that would collapse a complementarity
    # product below 1e-4 mu, and must shorten it
    inst = random_instance(3, 100, 7, ((0, 1), (2, 3), (4, 5)))
    lam = fixedpoint.run(inst, max_iter=4).trace.iterates[3]
    _, _, stats = solve_bpsop(inst, lam, start=CentralPath())
    assert stats.status == "degenerate_tight"
    for v, w, _, mu in stats.path.iterates[1:]:
        assert (v * w).min() >= 1e-4 * mu


@pytest.mark.parametrize("gen_seed", range(1, 11))
def test_partial_participation_markets(gen_seed):
    # each agent joins each type with probability 0.7
    inst = partial_40x7(gen_seed)
    x, duals, stats = solve_sop1(inst)
    assert stats.status == "converged"
    assert kkt_residuals(inst, np.zeros(40), x, duals).max_residual <= 1e-6
    assert np.all(duals.r[~inst.participation] == 0.0)
    res = fixedpoint.run(inst)
    assert res.trace.status == "converged"
    assert check_equilibrium(inst, res.prices, res.allocation).passed
