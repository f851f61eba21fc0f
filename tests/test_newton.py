"""The structured Newton step against dense block inverses.

``structured_newton`` takes every market, with its tight types substituted
out; ``dense_newton`` in ``helpers`` is the reference.  Both are handed the
same iterates, captured from real solves, and full solves are repeated
with the dense path swapped in.  The refinement that both paths share is
checked on every direction of those solves.
"""

import numpy as np
import pytest

from typedfisher import MarketInstance, kkt_residuals, random_instance, solve_sop1, solver

from helpers import dense_newton, rebuilt

EPS = np.finfo(float).eps


def slack_market(seed, n, m, types, log_scale, participation=0.7):
    """A market whose types are all slack, with some goods untyped.

    Budgets and utilities are log-uniform over 10**[-log_scale, log_scale];
    each agent joins each type with probability ``participation``, and
    every type's capacity stays below 0.6 of its participants.
    """
    rng = np.random.default_rng(seed)
    U = 10.0 ** rng.uniform(-log_scale, log_scale, (n, m))
    w = 10.0 ** rng.uniform(-log_scale, log_scale, n)
    part = rng.random((n, len(types))) < participation
    part[0] = True  # every type keeps a participant
    caps = rng.uniform(0.1 * n, n, m)
    for t, goods in enumerate(types):
        share = rng.uniform(0.1, 1.0, len(goods))
        caps[list(goods)] = rng.uniform(0.1, 0.6) * part[:, t].sum() * share / share.sum()
    return MarketInstance(U, w, caps, types, participation=part)


MARKETS = {
    "untyped_only": slack_market(1, 40, 5, (), 1.0),
    "interleaved_types": slack_market(2, 40, 9, ((0, 3, 5), (1, 4), (7,)), 1.0),
    "full_participation": slack_market(3, 60, 8, ((0, 1, 2), (3, 4)), 0.5, participation=1.0),
    "wide_scales": slack_market(4, 30, 12, ((0, 1, 2, 3), (4, 5), (8, 9, 10)), 3.0),
    "wide_scales_sparse": slack_market(5, 50, 7, ((1, 2), (4, 5, 6)), 3.0, participation=0.4),
    "tall": slack_market(6, 300, 6, ((0, 1), (2, 3)), 2.0),
}


# and one with three degenerate-tight types, each substituted down to one good
ALL_MARKETS = {**MARKETS, "tight": random_instance(1, 40, 7, ((0, 1), (2, 3), (4, 5)))}


def kkt_matrix_apply(U, A, beta, d, gamma, sol, dp):
    """The Newton system's product, assembled densely and independently;
    U, d, sol and the product are goods-major (m, n), gamma is (T, n)."""
    K = beta[:, None, None] * U.T[:, :, None] * U.T[:, None, :]
    K += np.einsum("ti,tj,tk->ijk", gamma, A, A)
    idx = np.arange(U.shape[0])
    K[:, idx, idx] += d.T
    return np.einsum("ijk,ki->ji", K, sol) + dp[:, None], sol.sum(axis=1), K


def backward_error(iterate, rhs, rhs_cap, sol, dp):
    lhs, cap, K = kkt_matrix_apply(*iterate, sol, dp)
    residual = max(np.abs(lhs - rhs).max(), np.abs(cap - rhs_cap).max())
    k_norm = np.abs(K).sum(axis=2).max() + 1.0  # + 1 for the capacity rows
    x_norm = max(np.abs(sol).max(), np.abs(dp).max())
    b_norm = max(np.abs(rhs).max(), np.abs(rhs_cap).max())
    return residual / (k_norm * x_norm + b_norm)


def captured_iterates(inst, monkeypatch):
    """Every Newton iterate of a solve of (a rebuilt) ``inst``, with the
    first system it solved."""
    seen = []
    original = solver.structured_newton

    def recording(U, A):
        newton = original(U, A)

        def recording_system(extra):
            system = newton(extra)
            factor = system.factor

            def recording_factor(beta, d, gamma):
                solve, apply = factor(beta, d, gamma)

                def first_solve(rhs, rhs_cap):
                    if not seen or seen[-1][0][3] is not d:
                        seen.append(((U, A, beta, d, gamma), rhs.copy(), rhs_cap.copy()))
                    return solve(rhs, rhs_cap)

                return first_solve, apply

            system.factor = recording_factor
            return system

        return recording_system

    with monkeypatch.context() as mp:
        mp.setattr(solver, "structured_newton", recording)
        solve_sop1(rebuilt(inst))
    return seen


@pytest.mark.parametrize("name", ALL_MARKETS)
def test_structured_direction_is_as_accurate_as_dense(name, monkeypatch):
    inst = ALL_MARKETS[name]
    assert (name == "tight") == bool(inst.tight_types)
    iterates = captured_iterates(inst, monkeypatch)
    assert len(iterates) >= 5
    worst = {"dense": 0.0, "structured": 0.0}
    for iterate, rhs, rhs_cap in iterates:
        U, A, beta, d, gamma = iterate
        errors = {}
        for label, solve in (
            ("dense", dense_newton(U, A)(0).factor(beta, d, gamma)[0]),
            ("structured", solver.structured_newton(U, A)(0).factor(beta, d, gamma)[0]),
        ):
            sol, dp = solve(rhs, rhs_cap)
            errors[label] = backward_error(iterate, rhs, rhs_cap, sol, dp)
            worst[label] = max(worst[label], errors[label])
        # no worse than dense, up to a few roundings where both are at that level
        assert errors["structured"] <= max(errors["dense"], 16 * EPS)
    assert worst["structured"] <= max(worst["dense"], 16 * EPS)


@pytest.mark.parametrize("name", ALL_MARKETS)
def test_structured_solve_matches_dense_solve(name, monkeypatch):
    inst = ALL_MARKETS[name]
    with monkeypatch.context() as mp:
        mp.setattr(solver, "structured_newton", dense_newton)
        x_ref, d_ref, s_ref = solve_sop1(rebuilt(inst))
    x, duals, stats = solve_sop1(inst)
    lam = np.zeros(inst.n_agents)
    if s_ref.success:
        assert stats.status == s_ref.status
        assert stats.iterations == s_ref.iterations
        assert np.abs(duals.p - d_ref.p).max() <= 1e-9
        assert np.max(np.abs(duals.r - d_ref.r), initial=0.0) <= 1e-9
    if stats.success:
        assert kkt_residuals(inst, lam, x, duals).max_residual <= 1e-6


def test_direction_residual_is_reported():
    inst = MARKETS["interleaved_types"]
    _, _, stats = solve_sop1(inst)
    assert 0.0 < stats.direction_residual <= 1e-8


def backward_error_bound(inst):
    """The refinement's stop: (row length + 1) eps, the row length being
    the number of goods the reduced program keeps, one per block row."""
    return (inst.n_goods - len(inst.tight_types) + 1) * EPS


def componentwise_backward_error(apply, rhs, rhs_cap, sol, dp):
    """max_k |res|_k / (|K| |sol| + |rhs|)_k over agent and capacity rows,
    and the residual's infinity norm."""
    lhs, cap = apply(sol, dp, np.empty_like(sol))
    lhs_abs, cap_abs = apply(np.abs(sol), np.abs(dp), np.empty_like(sol))
    res, res_cap = np.abs(rhs - lhs), np.abs(rhs_cap - cap)
    with np.errstate(invalid="ignore"):
        ratios = [res / (lhs_abs + np.abs(rhs)), res_cap / (cap_abs + np.abs(rhs_cap))]
    # a row that is zero throughout has no error
    omega = max(float(np.nan_to_num(v, nan=0.0).max()) for v in ratios)
    return omega, max(res.max(), res_cap.max())


def recorded_directions(inst, monkeypatch):
    """Every refined direction of a solve: the right-hand side of each
    ``solve`` call refinement made, the componentwise backward error of
    the first solve, that of what ``refined_solve`` returned with its
    residual's infinity norm, and the residual it reported; and the
    solve's stats.  The errors are measured at once, while the pair that
    refinement used is valid, before the solve's next factor."""
    records = []
    original = solver.refined_solve

    def recording(solve, apply, rhs, rhs_cap, work):
        calls = []

        def counted(b, b_cap):
            calls.append((b.copy(), b_cap.copy()))
            return solve(b, b_cap)

        sol, dp, err = original(counted, apply, rhs, rhs_cap, work)
        first, _ = componentwise_backward_error(apply, rhs, rhs_cap, *solve(rhs, rhs_cap))
        omega, last = componentwise_backward_error(apply, rhs, rhs_cap, sol, dp)
        records.append((calls, first, omega, last, err))
        return sol, dp, err

    with monkeypatch.context() as mp:
        mp.setattr(solver, "refined_solve", recording)
        _, _, stats = solve_sop1(inst)
    return records, stats


@pytest.mark.parametrize("name", ALL_MARKETS)
def test_refinement_stops_once_backward_stable(name, monkeypatch):
    inst = ALL_MARKETS[name]
    assert (name == "tight") == bool(inst.tight_types)
    records, stats = recorded_directions(inst, monkeypatch)
    # only the direction a step takes is refined, one per Newton step, and
    # the converged last iterate takes no step
    assert stats.success and len(records) == stats.iterations - 1 >= 5
    for calls, first, omega, last, err in records:
        bound = backward_error_bound(inst)
        # refinement solves take the residual of the solution before them
        residuals = [max(np.abs(b).max(), np.abs(b_cap).max()) for b, b_cap in calls[1:]]
        residuals.append(last)
        assert err == residuals[-1]  # the residual last measured is reported
        stalled = len(residuals) > 1 and not residuals[-1] < 0.5 * residuals[-2]
        assert omega <= bound or stalled
        # a direction that is backward stable after its first solve is not refined
        if first <= bound:
            assert len(calls) == 1
    assert any(first <= backward_error_bound(inst) for _, first, *_ in records)


@pytest.mark.parametrize("name", ["tight", "interleaved_types"])
def test_block_solve_returns_new_arrays(name, monkeypatch):
    # every type row of ``tight`` holds one good, so L_T = I and its
    # solves hand back their argument; what ``solve`` returns must still
    # be free to write into.  The kernels write their temporaries in place,
    # and must leave their arguments, the factor's inputs and the results
    # of earlier calls bit for bit as they were.  One solve's system is
    # refactored at each iterate in turn, as the solver does, and the
    # results and inputs of every earlier iterate must outlive the refactor
    iterates = captured_iterates(ALL_MARKETS[name], monkeypatch)
    U, A = iterates[0][0][:2]
    system = solver.structured_newton(U, A)(0)
    earlier = []
    for (U, A, beta, d, gamma), rhs, rhs_cap in iterates:
        assert (A.sum(axis=1).max() == 1) == (name == "tight")
        inputs = (U, beta, d, gamma, rhs, rhs_cap)
        kept = [a.copy() for a in inputs]
        solve, apply = system.factor(beta, d, gamma)
        for arrays, copies in earlier:
            for a, b in zip(arrays, copies):
                assert np.array_equal(a, b)
        sol, dp, _ = solver.refined_solve(solve, apply, rhs, rhs_cap, system.spare)
        omega, _ = componentwise_backward_error(apply, rhs, rhs_cap, sol, dp)
        assert omega <= backward_error_bound(ALL_MARKETS[name])
        results = (sol, dp)
        kept_results = [a.copy() for a in results]
        outs = (*solve(rhs, rhs_cap), *apply(sol, dp, np.empty_like(sol)), *solve(sol, dp))
        for a, b in zip(results, kept_results):
            assert np.array_equal(a, b)
        for out in outs:
            out[...] = np.nan
        for a, b in zip(results + inputs, kept_results + kept):
            assert np.array_equal(a, b)
        earlier.append((results + inputs, kept_results + kept))
    assert len(earlier) >= 2


def test_refinement_stop_counts_goods_not_agents(monkeypatch):
    # the stop is (m + 1) eps for the m goods of a block row; with n = 300
    # agents and m = 6 goods, a first solve whose backward error lies
    # between (m + 1) eps and (n + 1) eps must still be refined
    inst = MARKETS["tall"]
    n, m = inst.n_agents, inst.n_goods
    (U, A, beta, d, gamma), rhs, rhs_cap = captured_iterates(inst, monkeypatch)[-1]
    assert U.shape == (m, n)
    system = solver.structured_newton(U, A)(0)
    solve, apply = system.factor(beta, d, gamma)
    sol, dp, _ = solver.refined_solve(solve, apply, rhs, rhs_cap, system.spare)
    rough = sol * (1.0 + 64 * EPS)
    omega, _ = componentwise_backward_error(apply, rhs, rhs_cap, rough, dp)
    assert (m + 1) * EPS < omega <= (n + 1) * EPS
    calls = []

    def stand_in(b, b_cap):
        calls.append(None)
        return (rough.copy(), dp.copy()) if len(calls) == 1 else solve(b, b_cap)

    sol, dp, _ = solver.refined_solve(stand_in, apply, rhs, rhs_cap, system.spare)
    assert len(calls) > 1
    omega, _ = componentwise_backward_error(apply, rhs, rhs_cap, sol, dp)
    assert omega <= backward_error_bound(inst)
