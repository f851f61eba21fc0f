"""The structured Newton step against the dense saddle path it replaces.

Markets without tight types take ``structured_newton``; ``dense_newton``
stays as the reference.  Both are handed the same iterates, captured from
real solves, and full solves are repeated with the dense path swapped in.
"""

import numpy as np
import pytest

from typedfisher import MarketInstance, kkt_residuals, solve_sop1, solver

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


def dense_as_structured(U, A):
    return solver.dense_newton(U, A, ())


def kkt_matrix_apply(U, A, beta, d, gamma, sol, dp):
    """The Newton system's product, assembled densely and independently."""
    K = beta[:, None, None] * U[:, :, None] * U[:, None, :]
    K += np.einsum("it,tj,tk->ijk", gamma, A, A)
    idx = np.arange(U.shape[1])
    K[:, idx, idx] += d
    return np.einsum("ijk,ik->ij", K, sol) + dp, sol.sum(axis=0), K


def backward_error(iterate, rhs, rhs_cap, sol, dp):
    lhs, cap, K = kkt_matrix_apply(*iterate, sol, dp)
    residual = max(np.abs(lhs - rhs).max(), np.abs(cap - rhs_cap).max())
    k_norm = np.abs(K).sum(axis=2).max() + 1.0  # + 1 for the capacity rows
    x_norm = max(np.abs(sol).max(), np.abs(dp).max())
    b_norm = max(np.abs(rhs).max(), np.abs(rhs_cap).max())
    return residual / (k_norm * x_norm + b_norm)


def captured_iterates(inst, monkeypatch):
    """Every Newton iterate of a solve, with the first system it solved."""
    seen = []
    original = solver.structured_newton

    def recording(U, A):
        factor = original(U, A)

        def recording_factor(beta, d, gamma):
            solve, apply = factor(beta, d, gamma)

            def first_solve(rhs, rhs_cap):
                if not seen or seen[-1][0][3] is not d:
                    seen.append(((U, A, beta, d, gamma), rhs.copy(), rhs_cap.copy()))
                return solve(rhs, rhs_cap)

            return first_solve, apply

        return recording_factor

    with monkeypatch.context() as mp:
        mp.setattr(solver, "structured_newton", recording)
        solve_sop1(inst)
    return seen


@pytest.mark.parametrize("name", MARKETS)
def test_structured_direction_is_as_accurate_as_dense(name, monkeypatch):
    inst = MARKETS[name]
    assert inst.layout.tight == ()
    iterates = captured_iterates(inst, monkeypatch)
    assert len(iterates) >= 5
    worst = {"dense": 0.0, "structured": 0.0}
    for iterate, rhs, rhs_cap in iterates:
        U, A, beta, d, gamma = iterate
        errors = {}
        for label, solve in (
            ("dense", solver.dense_newton(U, A, ())(beta, d, gamma)[0]),
            ("structured", solver.structured_newton(U, A)(beta, d, gamma)[0]),
        ):
            sol, dp = solve(rhs, rhs_cap)
            errors[label] = backward_error(iterate, rhs, rhs_cap, sol, dp)
            worst[label] = max(worst[label], errors[label])
        # no worse than dense, up to a few roundings where both are at that level
        assert errors["structured"] <= max(errors["dense"], 16 * EPS)
    assert worst["structured"] <= max(worst["dense"], 16 * EPS)


@pytest.mark.parametrize("name", MARKETS)
def test_structured_solve_matches_dense_solve(name, monkeypatch):
    inst = MARKETS[name]
    with monkeypatch.context() as mp:
        mp.setattr(solver, "structured_newton", dense_as_structured)
        x_ref, d_ref, s_ref = solve_sop1(inst)
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
