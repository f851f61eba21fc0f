import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typedfisher import (
    CentralPath,
    InfeasibleInstanceError,
    MarketInstance,
    builtin_instance,
    fixedpoint,
    kkt_residuals,
    random_instance,
    solve_bpsop,
    solve_sop1,
    solver,
    validate_instance,
)

from helpers import finite_floats, refine_grid_objective, small_markets


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
    # raw duals and shift reproduce the returned ones
    assert np.allclose(duals.r_raw[:, 0] - duals.tight_shift[0], duals.r[:, 0])


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
    assert np.array_equal(duals.r_raw - duals.tight_shift, duals.r)


def test_divergence_is_reported_as_such(monkeypatch):
    # from the sixth Newton step on, every direction moves the prices 1e6
    # off, so the residuals grow and the divergence guard ends the solve
    inst = random_instance(3, 30, 5, ((0, 1), (2, 3)), capacity_range=(2.0, 9.0))
    lam = np.zeros(inst.n_agents)
    x_best, duals_best, stats_best = solve_bpsop(inst, lam, max_iter=6)
    original = solver.structured_newton

    def kicked(U, A):
        factor = original(U, A)
        calls = []

        def kicked_factor(beta, d, gamma):
            solve, apply = factor(beta, d, gamma)
            calls.append(None)
            if len(calls) < 6:
                return solve, apply

            def kicked_solve(rhs, rhs_cap):
                sol, dp = solve(rhs, rhs_cap)
                return sol, dp + 1e6

            return kicked_solve, apply

        return kicked_factor

    monkeypatch.setattr(solver, "structured_newton", kicked)
    x, duals, stats = solve_bpsop(inst, lam)
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


def test_kkt_residuals_hand_built_solution():
    inst = MarketInstance(utilities=[[5.0]], budgets=[10.0], capacities=[2.0])
    from typedfisher import DualBundle

    duals = DualBundle(
        p=np.array([5.0]),
        r=np.zeros((1, 0)),
        s=np.zeros((1, 1)),
        objective=10.0 * np.log(10.0),
        r_raw=np.zeros((1, 0)),
        tight_shift=np.zeros(0),
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
    # a solve without a start records no path
    assert stats_cold.start == "cold" and stats_cold.path is None


def test_warm_start_falls_back_where_duals_are_not_unique():
    # every agent holds good 0 at 0 or 1, so p_0 lies in an interval; the
    # warm solve's duals are not pinned and the cold solve is returned
    inst, lam = partly_joined_market()
    _, _, first = solve_bpsop(inst, np.zeros(inst.n_agents), start=CentralPath())
    x, duals, stats = solve_bpsop(inst, lam, start=first.path)
    x_cold, duals_cold, stats_cold = solve_bpsop(inst, lam)
    assert stats.start == "fallback"
    assert stats.iterations > stats_cold.iterations
    assert np.array_equal(x, x_cold)
    for name in ("p", "r", "s", "r_raw", "tight_shift"):
        assert np.array_equal(getattr(duals, name), getattr(duals_cold, name))
    assert len(stats.path.iterates) == stats_cold.iterations


@pytest.mark.parametrize(
    "name, newton, iterations",
    [("partly_joined", 647, 54), ("prop2", 28, 3)],
)
def test_fixed_point_solves_cold_after_a_fallback(name, newton, iterations):
    # the second solve's warm start falls back, so the duals are not unique
    # and every later solve starts cold, without trying a warm start first
    inst = partly_joined_market()[0] if name == "partly_joined" else builtin_instance(name)
    res = fixedpoint.run(inst)
    starts = [d.solver_start for d in res.trace.duals_per_iter]
    assert res.trace.status == "converged" and res.trace.iterations == iterations
    assert starts == ["cold", "fallback"] + ["cold"] * (iterations - 2)
    assert sum(d.solver_iterations for d in res.trace.duals_per_iter) == newton


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
        builtin_instance("prop2"), np.zeros(3), start=CentralPath()
    )
    assert first.path is None
    with pytest.raises(ValueError, match="not a path of this market"):
        solve_bpsop(builtin_instance("experiment"), np.zeros(200), start=other.path)
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


def test_max_step_to_the_boundary():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # no entry decreases: nothing bounds the step
        v = np.array([1.0, 0.0, 2.0])
        assert solver._max_step(v, np.array([0.0, 1.0, 0.0])) == np.inf
        assert solver._max_step(np.zeros(0), np.zeros(0)) == np.inf
        # an entry already at zero that decreases allows no step
        assert solver._max_step(np.array([0.0, 1.0]), np.array([-1.0, -1.0])) == 0.0
        # the smallest ratio over the decreasing entries, the others ignored
        v = np.array([3.0, 1.0, 0.5, 2.0, 0.0])
        dv = np.array([-2.0, 4.0, -0.25, -8.0, 0.0])
        assert solver._max_step(v, dv) == 0.25


# One type over good 0 (good 1 untyped).  Agent 0 holds good 0 and fills
# its row (xi 0 < r 1), so good 0 and row 0 share a component; agent 1
# holds good 1, which fixes p_1.  Good 0's component is anchored only
# through agent 1's pair (1, 0): by a slack row in "slack_row", by a pair
# outside every row of agent 1 in "outside_rows".
PINNED_SUPPORTS = {
    "unanchored": ([[1.0, 0.5], [0.0, 0.5]], [[0, 0], [1, 0]], [0.0, 1.0], [1.0, 0.0], [0, 1], False),
    "slack_row": ([[1.0, 0.5], [0.5, 0.5]], [[0, 0], [0, 0]], [0.0, 0.5], [1.0, 0.0], [0, 1], True),
    "outside_rows": ([[1.0, 0.5], [0.5, 0.5]], [[0, 0], [0, 0]], [0.0], [1.0], [0], True),
}


@pytest.mark.parametrize("name", PINNED_SUPPORTS)
def test_duals_pinned_by_support(name):
    x, z, xi, r, agents, pinned = PINNED_SUPPORTS[name]
    A = np.array([[1.0, 0.0]])
    agents = np.array(agents)
    result = solver._duals_pinned(
        np.array(x), np.array(z, float), np.array(xi), np.array(r),
        A, agents, np.zeros_like(agents),
    )
    assert result is pinned
