"""Exact per-agent demand at given prices, and aggregate excess demand.

An agent's optimal bundle under budget, type, and nonnegativity
constraints is obtained greedily: merge every participating type's
frontier products with the unbounded products of cap-free goods, then
spend the budget in ascending slope order (descending bang-per-buck).
Bounded products cap at one unit; an unbounded product absorbs whatever
budget remains.  A partially bought segment leaves the agent mixed
between its two endpoint goods; everything bought earlier sits at a
frontier vertex.

``brute_force_demand`` is an independent oracle for tests: it either
enumerates the basic feasible points of the demand polytope exactly, or
sweeps a dense grid when a step is given.  It shares no code path with
the greedy beyond instance plumbing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .frontier import VirtualProduct, build_frontier, untyped_rate
from .instances import MarketInstance


class UnboundedDemandError(ValueError):
    """A cap-free good with positive utility has price zero."""

    def __init__(self, agent: int, good: int):
        self.agent = agent
        self.good = good
        super().__init__(
            f"agent {agent + 1} demands unbounded quantity of free good {good + 1}"
        )


@dataclass
class Purchase:
    """One ledger row: ``units`` of the product bought at total ``cost``."""

    slope: float
    type_id: int | None
    lo: int | None
    hi: int
    units: float
    cost: float


@dataclass
class DemandResult:
    x: np.ndarray
    spend: float
    utility: float
    alpha_star: float            # slope of the last product bought, 0 if none
    budget_exhausted: bool
    ledger: tuple[Purchase, ...] = ()


def _check_prices(p, m: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (m,):
        raise ValueError(f"price vector must have length {m}")
    if not np.all(np.isfinite(p)):
        raise ValueError("prices must be finite")
    if np.any(p < -1e-9):
        raise ValueError(f"negative price {p.min():g}")
    return np.maximum(p, 0.0)


def agent_products(
    inst: MarketInstance, agent: int, p: np.ndarray
) -> list[VirtualProduct]:
    """All products available to one agent, in deterministic buy order.

    Sorted by (slope, type rank, high-endpoint good); unbounded products
    rank after every type.  Slopes within one type are strictly
    increasing, so the global order respects each frontier's own order.
    """
    products: list[VirtualProduct] = []
    for t in inst.participating_types(agent):
        products.extend(
            build_frontier(inst.utilities[agent], p, inst.types[t], type_id=t)
        )
    for j in inst.unbounded_goods(agent):
        pr = untyped_rate(inst.utilities[agent, j], p[j], good=j)
        if pr is not None:
            products.append(pr)
    rank = len(inst.types)
    products.sort(
        key=lambda pr: (pr.slope, rank if pr.type_id is None else pr.type_id, pr.hi)
    )
    return products


def demand(inst: MarketInstance, agent: int, p) -> DemandResult:
    """Optimal bundle for one agent at prices ``p``.

    Raises UnboundedDemandError when a cap-free positively valued good is
    priced at zero; demand is then infinite for any budget.
    """
    if not 0 <= agent < inst.n_agents:
        raise IndexError(f"agent index {agent} outside 0..{inst.n_agents - 1}")
    p = _check_prices(p, inst.n_goods)

    products = agent_products(inst, agent, p)
    for pr in products:
        if pr.unbounded and pr.delta_p == 0.0:
            raise UnboundedDemandError(agent, pr.hi)

    x = np.zeros(inst.n_goods)
    w = float(inst.budgets[agent])
    budget = w
    ledger: list[Purchase] = []
    for pr in products:
        if not pr.unbounded and pr.delta_p <= budget:
            # full unit: move this type's position from lo to hi
            if pr.lo is not None:
                x[pr.lo] -= 1.0
            x[pr.hi] += 1.0
            budget -= pr.delta_p
            ledger.append(Purchase(pr.slope, pr.type_id, pr.lo, pr.hi, 1.0, pr.delta_p))
            continue
        # the rest of the budget buys a fraction of a bounded product, or
        # any quantity of an unbounded one (whose lo is None)
        if budget > 0.0:
            frac = budget / pr.delta_p
            if pr.lo is not None:
                x[pr.lo] -= frac
            x[pr.hi] += frac
            ledger.append(Purchase(pr.slope, pr.type_id, pr.lo, pr.hi, frac, budget))
            budget = 0.0
        break

    x = np.maximum(x, 0.0)  # clip float dust from the +-1 bookkeeping
    return DemandResult(
        x=x,
        spend=w - budget,
        utility=float(inst.utilities[agent] @ x),
        alpha_star=ledger[-1].slope if ledger else 0.0,
        budget_exhausted=budget <= 1e-12 * max(1.0, w),
        ledger=tuple(ledger),
    )


def demand_all(inst: MarketInstance, p) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-agent demands; excess demand is column sums minus capacity."""
    p = _check_prices(p, inst.n_goods)
    X = np.zeros((inst.n_agents, inst.n_goods))
    for i in range(inst.n_agents):
        X[i] = demand(inst, i, p).x
    return X, X.sum(axis=0) - inst.capacities


# --- independent oracle ------------------------------------------------------


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
