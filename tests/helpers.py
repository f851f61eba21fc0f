"""Shared test utilities: hypothesis strategies and reference implementations."""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from typedfisher import (
    DemandResult,
    EquilibriumReport,
    MarketInstance,
    UnboundedDemandError,
    demand,
    fixedpoint,
    solve_bpsop,
)
from typedfisher.demand import _check_prices


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def type_patterns(draw, m: int, require_untyped: bool = False):
    """Partition a prefix of the goods 0..m-1 into consecutive types."""
    limit = m - 1 if require_untyped else m
    sizes = []
    used = 0
    while used < limit:
        if not draw(st.booleans()):
            break
        sz = draw(st.integers(min_value=1, max_value=limit - used))
        sizes.append(sz)
        used += sz
    types = []
    start = 0
    for sz in sizes:
        types.append(tuple(range(start, start + sz)))
        start += sz
    return tuple(types)


@st.composite
def small_markets(
    draw,
    max_n: int = 3,
    max_m: int = 4,
    require_untyped: bool = False,
    tight_ok: bool = False,
):
    """Valid small instances with strictly positive utilities.

    Typed capacities are drawn so each type's total stays below the
    participant count (strict feasibility) unless tight_ok is set.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    u = np.array(
        draw(
            st.lists(
                st.lists(finite_floats(0.05, 10.0), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )
    w = np.array(draw(st.lists(finite_floats(0.2, 20.0), min_size=n, max_size=n)))
    types = draw(type_patterns(m, require_untyped=require_untyped))
    caps = np.empty(m)
    typed = set()
    for goods in types:
        hi_frac = 1.0 if tight_ok else 0.85
        total = draw(finite_floats(0.1, hi_frac * n))
        weights = np.array(
            [draw(finite_floats(0.1, 1.0)) for _ in goods]
        )
        caps[list(goods)] = total * weights / weights.sum()
        typed.update(goods)
    for j in range(m):
        if j not in typed:
            caps[j] = draw(finite_floats(0.1, 2.0 * n))
    return MarketInstance(utilities=u, budgets=w, capacities=caps, types=types)


@st.composite
def price_vectors(draw, m: int, lo: float = 0.05, hi: float = 20.0):
    return np.array(draw(st.lists(finite_floats(lo, hi), min_size=m, max_size=m)))


def refine_grid_objective(inst: MarketInstance, lam, rounds: int = 7, grid: int = 81):
    """Brute-force optimum of the two-agent, two-good social program.

    Grids over agent 1's allocation (agent 2 takes the capacity remainder)
    and refines the box around the incumbent; independent of the solver.
    """
    assert inst.n_agents == 2 and inst.n_goods == 2
    s = inst.capacities
    c = inst.budgets + np.asarray(lam, dtype=float)
    U = inst.utilities
    lo = np.zeros(2)
    hi = s.copy()
    best = -np.inf
    best_pt = None
    for _ in range(rounds):
        xs = np.linspace(lo[0], hi[0], grid)
        ys = np.linspace(lo[1], hi[1], grid)
        X0, X1 = np.meshgrid(xs, ys, indexing="ij")
        x1 = np.stack([X0.ravel(), X1.ravel()], axis=1)
        x2 = s[None, :] - x1
        feas = np.ones(len(x1), dtype=bool)
        for t, goods in enumerate(inst.types):
            g = list(goods)
            if inst.participation[0, t]:
                feas &= x1[:, g].sum(axis=1) <= 1 + 1e-12
            if inst.participation[1, t]:
                feas &= x2[:, g].sum(axis=1) <= 1 + 1e-12
        u1 = x1 @ U[0]
        u2 = x2 @ U[1]
        feas &= (u1 > 1e-12) & (u2 > 1e-12)
        vals = np.full(len(x1), -np.inf)
        vals[feas] = c[0] * np.log(u1[feas]) + c[1] * np.log(u2[feas])
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_pt = x1[k].copy()
        span = (hi - lo) * (4.0 / (grid - 1))
        lo = np.maximum(best_pt - span, 0.0)
        hi = np.minimum(best_pt + span, s)
    return best


def random_feasible_market(rng, n=None, m=None, allow_types=True):
    """Seeded random valid instance; plain-rng counterpart of small_markets."""
    n = n or int(rng.integers(1, 4))
    m = m or int(rng.integers(1, 5))
    u = rng.uniform(0.05, 10.0, size=(n, m))
    w = rng.uniform(0.2, 20.0, size=n)
    types = []
    used = 0
    while allow_types and used < m and rng.random() < 0.6:
        sz = int(rng.integers(1, m - used + 1))
        types.append(tuple(range(used, used + sz)))
        used += sz
    caps = np.empty(m)
    for goods in types:
        total = rng.uniform(0.1, 0.85 * n)
        weights = rng.uniform(0.1, 1.0, size=len(goods))
        caps[list(goods)] = total * weights / weights.sum()
    for j in range(used, m):
        caps[j] = rng.uniform(0.1, 2.0 * n)
    return MarketInstance(utilities=u, budgets=w, capacities=caps, types=tuple(types))


def later_free_good_market() -> MarketInstance:
    """Three agents; only agent 3 ignores the type of goods 1 and 2.

    At prices [1, 0, 1] only agent 3's demand is unbounded: of its valued
    cap-free goods 1, 2 and 3, only good 2 is priced zero.
    """
    return MarketInstance(
        utilities=[[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [2.0, 3.0, 1.0]],
        budgets=[1.0, 1.0, 1.0], capacities=[0.5, 0.5, 2.0],
        types=((0, 1),), participation=[[True], [True], [False]],
    )


def check_equilibrium_by_agent(
    inst: MarketInstance, p, x, tol_clearing=1e-5, tol_budget=1e-5, tol_opt=1e-6
) -> EquilibriumReport:
    """Reference for ``check_equilibrium``: the same report, with each
    agent's gap from one call of the scalar ``demand``."""
    p = _check_prices(p, inst.n_goods)
    x = np.asarray(x, dtype=float)
    clearing = np.abs(x.sum(axis=0) - inst.capacities)
    budget = np.abs(x @ p - inst.budgets)
    gaps = np.array([
        demand(inst, i, p).utility - float(inst.utilities[i] @ x[i])
        for i in range(inst.n_agents)
    ])
    violations = []
    if np.any(x < -tol_clearing):
        i, j = np.argwhere(x < -tol_clearing)[0]
        violations.append(f"negative allocation x[{i + 1}][{j + 1}] = {x[i, j]:g}")
    sums = x @ inst.incidence.T
    for t, i in np.argwhere(inst.participation.T & (sums.T > 1.0 + tol_clearing)):
        violations.append(f"agent {i + 1} holds {sums[i, t]:g} units of type {t + 1}")
    passed = (
        not violations
        and bool(np.all(clearing <= tol_clearing))
        and bool(np.all(budget <= tol_budget))
        and bool(np.all(gaps <= tol_opt))
    )
    return EquilibriumReport(
        clearing, budget, gaps, violations, passed, tol_clearing, tol_budget, tol_opt
    )


def brute_force_demand(
    inst: MarketInstance, agent: int, p, grid_step: float | None = None
) -> DemandResult:
    """Reference demand by enumeration, for testing the greedy oracle.

    With ``grid_step=None`` every basic feasible point of the LP
    (budget row, participating type rows, nonnegativity) is enumerated
    and the best kept; the optimum of a bounded LP sits at one of them.
    With a positive ``grid_step`` a dense grid over the feasible box is
    swept instead.  Intended for small m; raises on larger problems.
    """
    p = _check_prices(p, inst.n_goods)
    u = inst.utilities[agent]
    w = float(inst.budgets[agent])

    active = [j for j in range(inst.n_goods) if u[j] > 0.0]
    for j in inst.unbounded_goods(agent):
        if u[j] > 0.0 and p[j] == 0.0:
            raise UnboundedDemandError(agent, j)

    type_rows: list[list[int]] = []
    for t in inst.participating_types(agent):
        goods = [j for j in inst.types[t] if j in active]
        if goods:
            type_rows.append(goods)

    if grid_step is None:
        x_active = _vertex_enumeration(p, u, w, active, type_rows)
    else:
        x_active = _grid_search(p, u, w, active, type_rows, inst, agent, grid_step)

    x = np.zeros(inst.n_goods)
    x[active] = x_active
    spend = float(p @ x)
    return DemandResult(
        x=x,
        spend=spend,
        utility=float(u @ x),
        alpha_star=float("nan"),
        budget_exhausted=spend >= w - 1e-9 * max(1.0, w),
    )


def _vertex_enumeration(p, u, w, active, type_rows) -> np.ndarray:
    k = len(active)
    if k == 0:
        return np.zeros(0)
    if k > 6:
        raise ValueError(f"dimension too large for vertex enumeration ({k} goods)")
    col = {j: idx for idx, j in enumerate(active)}

    rows = [(np.array([p[j] for j in active]), w)]  # budget
    for goods in type_rows:
        a = np.zeros(k)
        for j in goods:
            a[col[j]] = 1.0
        rows.append((a, 1.0))
    for idx in range(k):
        a = np.zeros(k)
        a[idx] = -1.0
        rows.append((a, 0.0))

    A = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    scale = max(1.0, w, float(np.max(np.abs(A))))
    feas_tol = 1e-9 * scale

    best_val = 0.0
    best_x = np.zeros(k)  # origin is always feasible
    uvec = np.array([u[j] for j in active])
    for combo in itertools.combinations(range(len(rows)), k):
        M = A[list(combo)]
        try:
            x = np.linalg.solve(M, b[list(combo)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.any(A @ x > b + feas_tol):
            continue
        val = float(uvec @ x)
        if val > best_val:
            best_val = val
            best_x = x
    return np.maximum(best_x, 0.0)


def _grid_search(p, u, w, active, type_rows, inst, agent, step) -> np.ndarray:
    if step <= 0:
        raise ValueError("grid_step must be positive")
    k = len(active)
    if k == 0:
        return np.zeros(0)
    unbounded = set(inst.unbounded_goods(agent))
    axes = []
    total = 1
    for j in active:
        hi = w / p[j] if j in unbounded else 1.0
        axis = np.arange(0.0, hi + step / 2, step)
        total *= len(axis)
        if total > 10_000_000:
            raise ValueError("grid too large; reduce dimensions or enlarge step")
        axes.append(axis)
    grids = np.meshgrid(*axes, indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)

    pvec = np.array([p[j] for j in active])
    mask = X @ pvec <= w + 1e-12 * max(1.0, w)
    col = {j: idx for idx, j in enumerate(active)}
    for goods in type_rows:
        mask &= X[:, [col[j] for j in goods]].sum(axis=1) <= 1.0 + 1e-12
    X = X[mask]
    if X.shape[0] == 0:
        return np.zeros(k)
    uvec = np.array([u[j] for j in active])
    return X[int(np.argmax(X @ uvec))]


def rebuilt(inst: MarketInstance) -> MarketInstance:
    """A new market object with ``inst``'s arrays, types and participation.

    Markets compare and hash by identity, so the rebuilt one is a market
    of its own, unequal to ``inst``, with none of its caches.  The solver
    keeps each market object's reduced program, Newton structure
    included, from its first solve, so a solver function patched in a
    test takes effect on a market solved first under the patch: solve a
    rebuilt one.
    """
    return MarketInstance(
        utilities=inst.utilities,
        budgets=inst.budgets,
        capacities=inst.capacities,
        types=inst.types,
        participation=inst.participation,
    )


def dense_newton(U, A):
    """Reference Newton systems by batched dense block inverses.

    Same ``factor(beta, d, gamma)`` contract as
    ``typedfisher.solver.structured_newton``, goods-major: U, d and every
    right-hand side and solution are (m, n), gamma is (T, n).  Agent i's
    block K_i = diag(d_i) + sum_t gamma_it a_t a_t^T + beta_i u_i u_i^T is
    assembled as an m x m matrix and inverted, and the capacity rows
    couple the blocks through the Schur matrix sum_i K_i^{-1}.
    """
    m = U.shape[0]
    diag = np.arange(m)
    # the (good, good) pairs that share a type, where the type rows enter
    ta, tb = np.nonzero(A.T @ A)

    def factor(beta, d, gamma):
        Kb = beta[:, None, None] * (U.T[:, :, None] * U.T[:, None, :])
        Kb[:, diag, diag] += d.T
        Kb[:, ta, tb] += (gamma.T @ A)[:, ta]
        Kinv = np.linalg.inv(Kb)
        S = Kinv.sum(axis=0)

        def solve(rhs, rhs_cap):
            sol0 = np.einsum("nab,bn->an", Kinv, rhs)
            dp = np.linalg.solve(S, sol0.sum(axis=1) - rhs_cap)
            return sol0 - np.einsum("nab,b->an", Kinv, dp), dp

        def apply(sol, dp):
            return np.einsum("nab,bn->an", Kb, sol) + dp[:, None], sol.sum(axis=1)

        return solve, apply

    return factor


def duals_pinned_by_union_find(x, z, xi, r, A, rows) -> bool:
    """Reference for ``typedfisher.solver._duals_pinned``, same arguments.

    The nodes are the goods and the slack rows, the True cells of the
    (T, n) grid ``rows`` in type-major order.  Each held pair (x_ij > z_ij)
    joins good j to agent i's row over j, or anchors good j when no row of
    agent i holds j; a row with xi > r is an anchor too.  The duals are
    pinned when every component of the union-find forest holds an anchor.
    """
    m, n = x.shape
    cells = list(zip(*np.nonzero(rows)))
    node = {cell: m + k for k, cell in enumerate(cells)}
    parent = list(range(m + len(cells)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    anchors = [node[cell] for k, cell in enumerate(cells) if xi[k] > r[k]]
    for j, i in itertools.product(range(m), range(n)):
        if x[j, i] > z[j, i]:
            row = [t for t in range(len(A)) if A[t, j] > 0 and rows[t, i]]
            if row:
                parent[find(j)] = find(node[(row[0], i)])
            else:
                anchors.append(j)
    fixed = {find(a) for a in anchors}
    return all(find(a) in fixed for a in range(len(parent)))


def max_step_by_where(v, dv) -> float:
    """Reference for the step bound of ``typedfisher.solver._pair_step``
    on one vector, ``_pair_step(v, dv, v, dv)``: -v / dv over every
    entry with dv < 0, inf elsewhere, and its minimum."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(dv < 0, -v / dv, np.inf).min(initial=np.inf))


def neighborhood_step_by_loop(v, dv, w, dw, alpha):
    """Reference for ``typedfisher.solver._neighborhood_step``: the back-off
    loop, which forms the iterate again after it, whether or not its last
    alpha was tested."""
    for _ in range(50):
        vwn = (v + alpha * dv) * (w + alpha * dw)
        if vwn.min(initial=np.inf) >= 1e-4 * (vwn.sum() / len(v)) or alpha <= 1e-8:
            break
        alpha *= 0.75
    return v + alpha * dv, w + alpha * dw, alpha


def spy_on_solves(monkeypatch) -> list:
    """Record ``(start, stats)`` of every solve that ``fixedpoint.run``
    makes, in order, in the returned list."""
    calls = []

    def spy(inst, lam, tol, start):
        x, duals, stats = solve_bpsop(inst, lam, tol=tol, start=start)
        calls.append((start, stats))
        return x, duals, stats

    monkeypatch.setattr(fixedpoint, "solve_bpsop", spy)
    return calls


def buy_order_by_lexsort(slope, rank, hi, valid) -> np.ndarray:
    """Reference for ``typedfisher.demand._buy_order``: each row's slots
    sorted on four keys, the valid ones first, then by ``agent_products``'
    (slope, type rank, high good), rank ``n_types`` marking the cap-free
    products."""
    return np.lexsort((hi, rank, slope, ~valid), axis=1)
