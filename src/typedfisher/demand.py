"""Exact per-agent demand at given prices, and aggregate excess demand.

An agent's optimal bundle under budget, type, and nonnegativity
constraints is obtained greedily: merge every participating type's
frontier products with the unbounded products of cap-free goods, then
spend the budget in ascending slope order (descending bang-per-buck).
Bounded products cap at one unit; an unbounded product absorbs whatever
budget remains.  A partially bought segment leaves the agent mixed
between its two endpoint goods; everything bought earlier sits at a
frontier vertex.

``demand_prices`` runs the same greedy for one agent at many price rows
at once, and ``demand_all`` for every agent at one price vector.  Both
build each type's hulls as arrays with one row per (agent, prices) pair
and share one masked purchase loop, with the same float operations in
the same order, so each row equals the scalar ``demand`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontier import VirtualProduct, build_frontier
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


def _check_prices(p, m: int, ndim: int = 1) -> np.ndarray:
    """A price vector (``ndim=1``) or a stack of price rows (``ndim=2``)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != ndim or p.shape[-1:] != (m,):
        what = "price vector" if ndim == 1 else "each price row"
        raise ValueError(f"{what} must have length {m}")
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
        u_ij, p_j = float(inst.utilities[agent, j]), float(p[j])
        if u_ij > 0.0:
            products.append(
                VirtualProduct(
                    type_id=None, lo=None, hi=j, delta_u=u_ij, delta_p=p_j,
                    slope=p_j / u_ij, unbounded=True,
                )
            )
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
    with np.errstate(over="ignore"):  # an overflowing utility is inf
        utility = float(inst.utilities[agent] @ x)
    return DemandResult(
        x=x,
        spend=w - budget,
        utility=utility,
        alpha_star=ledger[-1].slope if ledger else 0.0,
        budget_exhausted=budget <= 1e-12 * max(1.0, w),
        ledger=tuple(ledger),
    )


def demand_all(inst: MarketInstance, p) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's ``demand`` at prices ``p``, and the excess demand.

    Returns ``(X, excess)``: ``X[i]`` is ``==`` to ``demand(inst, i, p).x``
    and ``excess`` is the column sums minus the capacities.  Raises
    UnboundedDemandError for the lowest agent whose demand is unbounded,
    naming that agent's lowest such good, as a loop over ``demand`` would.
    """
    p = _check_prices(p, inst.n_goods)
    X, _, unbounded = _demand_agents(inst, p)
    if unbounded.any():
        i = int(np.argmax(unbounded))
        raise UnboundedDemandError(i, int(np.argmax(_free_goods(inst)[i] & (p == 0.0))))
    return X, X.sum(axis=0) - inst.capacities


# float overflow gives inf silently, as Python float arithmetic does in demand
@np.errstate(over="ignore", invalid="ignore")
def _demand_agents(inst: MarketInstance, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``demand`` of every agent at one checked price vector ``p``.

    The transpose of ``demand_prices``, with its contract: ``X[i]`` and
    ``spend[i]`` are ``==`` to ``demand(inst, i, p)``'s ``x`` and
    ``spend``, and ``unbounded[i]`` is True exactly where that call raises
    UnboundedDemandError (``X[i]`` and ``spend[i]`` are zero there).
    """
    U = inst.utilities
    slots = [
        _segments(*_agent_hulls(U, p, goods, inst.participation[:, t]), t)
        for t, goods in enumerate(inst.types)
    ]
    free = _free_goods(inst)
    shape = U.shape
    slots.append((
        np.divide(p, U, out=np.zeros(shape), where=free), np.full(shape, inst.n_types),
        np.full(shape, -1), np.broadcast_to(np.arange(inst.n_goods), shape),
        np.broadcast_to(p, shape), free,
    ))
    return _buy(inst, slots, inst.budgets, np.any(free & (p == 0.0), axis=1))


# float overflow gives inf silently, as Python float arithmetic does in demand
@np.errstate(over="ignore", invalid="ignore")
def demand_prices(
    inst: MarketInstance, agent: int, P
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``demand`` of one agent at every row of the (K, m) price array ``P``.

    Returns ``(X, spend, unbounded)``: ``X[k]`` and ``spend[k]`` are ``==``
    to ``demand(inst, agent, P[k])``'s ``x`` and ``spend``, and
    ``unbounded[k]`` is True exactly where that call raises
    UnboundedDemandError (``X[k]`` and ``spend[k]`` are zero there).
    """
    if not 0 <= agent < inst.n_agents:
        raise IndexError(f"agent index {agent} outside 0..{inst.n_agents - 1}")
    P = _check_prices(P, inst.n_goods, ndim=2)
    u = inst.utilities[agent]
    slots = [
        _segments(*_hulls(u, P, inst.types[t]), t) for t in inst.participating_types(agent)
    ]
    free = [j for j in inst.unbounded_goods(agent) if u[j] > 0.0]
    shape = (len(P), len(free))
    slots.append((
        P[:, free] / u[free], np.full(shape, inst.n_types), np.full(shape, -1),
        np.broadcast_to(np.array(free, dtype=int), shape), P[:, free],
        np.ones(shape, dtype=bool),
    ))
    unbounded = np.any(P[:, free] == 0.0, axis=1)
    return _buy(inst, slots, float(inst.budgets[agent]), unbounded)


def _free_goods(inst: MarketInstance) -> np.ndarray:
    """(n, m) mask of the valued goods each agent may buy without a type cap."""
    return (inst.participation @ inst.incidence == 0) & (inst.utilities > 0.0)


def _segments(hu, hp, hj, size, t) -> tuple[np.ndarray, ...]:
    """One type's frontier products as slot columns, one row per hull.

    Returns ``(slope, rank, lo, hi, cost, valid)`` from the vertices that
    ``_hulls`` or ``_agent_hulls`` returns; a row's segments past its
    vertex count are not valid.
    """
    dp = np.diff(hp, axis=1)
    ok = np.arange(1, hu.shape[1]) < size[:, None]
    slope = np.divide(dp, np.diff(hu, axis=1), out=np.zeros_like(dp), where=ok)
    return slope, np.full(dp.shape, t), hj[:, :-1], hj[:, 1:], dp, ok


def _buy(inst: MarketInstance, slots, w, unbounded) -> tuple[np.ndarray, ...]:
    """``demand``'s greedy purchase, one row per (agent, prices) pair.

    ``slots`` lists every product as column blocks ``(slope, rank, lo, hi,
    cost, valid)`` in any order: lexsort puts every row in agent_products'
    (slope, type rank, hi) order, rank ``n_types`` marking the cap-free
    products and lo -1 the hull origin.  ``w`` is the budget of every row,
    or of each; rows in ``unbounded`` buy nothing.  Each step of the scalar
    path runs as a masked array operation over the rows, with the same
    float operations in the same order.  Returns ``(X, spend,
    unbounded)`` as ``demand_prices`` does.
    """
    slope, rank, lo, hi, cost, valid = (np.concatenate(c, axis=1) for c in zip(*slots))
    order = np.lexsort((hi, rank, slope, ~valid), axis=1)
    rank, lo, hi, cost, valid = (
        np.take_along_axis(a, order, axis=1) for a in (rank, lo, hi, cost, valid)
    )
    capped = rank < inst.n_types

    rows = np.arange(len(unbounded))
    X = np.zeros((len(unbounded), inst.n_goods))
    budget = np.full(len(unbounded), w)
    active = ~unbounded
    for s in range(order.shape[1]):
        active &= valid[:, s]
        if not active.any():
            break
        full = active & capped[:, s] & (cost[:, s] <= budget)
        part = active & ~full & (budget > 0.0)
        r = rows[full]
        _move(X, r, lo[r, s], hi[r, s], np.ones(len(r)))
        budget[r] -= cost[r, s]
        r = rows[part]
        _move(X, r, lo[r, s], hi[r, s], budget[r] / cost[r, s])
        budget[r] = 0.0
        active = full

    X = np.maximum(X, 0.0)  # clip float dust, as the scalar path does
    return X, w - budget, unbounded


def _move(X, r, lo, hi, units) -> None:
    """Shift ``units`` of row r's position from good lo (-1: none) to hi."""
    has_lo = lo >= 0
    X[r[has_lo], lo[has_lo]] -= units[has_lo]
    X[r, hi] += units


def _hulls(u: np.ndarray, P: np.ndarray, type_goods) -> tuple[np.ndarray, ...]:
    """``build_frontier``'s hull vertices for one type at every price row.

    Returns utilities, prices and goods of the vertices as (K, D + 1)
    arrays, the origin first (good -1), and each row's vertex count.  D is
    the number of distinct positive utilities in the type; they keep their
    order at every price, so the per-utility dedup is an argmin over fixed
    groups of goods and the chain visits the levels in a fixed order.  As
    in ``build_frontier``, the chain itself drops equal-price points, so
    every row appends each level's point.
    """
    goods = [j for j in sorted(int(j) for j in type_goods) if u[j] > 0.0]
    levels = sorted({float(u[j]) for j in goods})
    K, D = len(P), len(levels)
    # per utility the cheapest good, lowest index on a price tie
    good = np.empty((K, D), dtype=int)
    for g, level in enumerate(levels):
        group = np.array([j for j in goods if u[j] == level])
        good[:, g] = group[np.argmin(P[:, group], axis=1)]
    price = np.take_along_axis(P, good, axis=1)

    hull = (np.zeros((K, D + 1)), np.zeros((K, D + 1)), np.full((K, D + 1), -1))
    size = np.ones(K, dtype=int)
    rows = np.arange(K)
    for g, level in enumerate(levels):
        _push(hull, size, rows, level, price[:, g], good[:, g])
    return (*hull, size)


def _agent_hulls(U: np.ndarray, p: np.ndarray, type_goods, part) -> tuple[np.ndarray, ...]:
    """``build_frontier``'s hull vertices for one type at one price vector,
    one row per agent.

    Same return as ``_hulls``, with D the type's size; rows outside the
    mask ``part`` keep only the origin.  One stable lexsort orders each
    row's goods by (u, p, j).  Zero utilities are skipped, and so is every
    good but the first of a run of equal utilities, which is the cheapest,
    the lowest index on a price tie: the chain then sees the points that
    ``build_frontier``'s dedup keeps, in its order.
    """
    goods = np.array(sorted(int(j) for j in type_goods), dtype=int)
    u = U[:, goods]
    order = np.lexsort((np.broadcast_to(p[goods], u.shape), u), axis=1)
    u = np.take_along_axis(u, order, axis=1)
    q, j = p[goods][order], goods[order]
    keep = (u > 0.0) & part[:, None]
    keep[:, 1:] &= u[:, 1:] != u[:, :-1]

    n, D = u.shape
    hull = (np.zeros((n, D + 1)), np.zeros((n, D + 1)), np.full((n, D + 1), -1))
    size = np.ones(n, dtype=int)
    for k in range(D):
        r = np.flatnonzero(keep[:, k])
        _push(hull, size, r, u[r, k], q[r, k], j[r, k])
    return (*hull, size)


def _push(hull, size, rows, level, q, good) -> None:
    """Append the point (level, q, good) to the hull of each listed row.

    First pops, row by row, the vertices the point hides, with
    ``build_frontier``'s test and its float operations in its order.
    ``level`` is one utility for every row or one per row.
    """
    hu, hp, hj = hull
    s = size[rows]
    pop = s >= 2
    while pop.any():
        a, b = np.maximum(s - 2, 0), s - 1
        au, ap = hu[rows, a], hp[rows, a]
        bu, bp = hu[rows, b], hp[rows, b]
        # rows with a single vertex divide by zero here but are already out
        # of ``pop``, and an overflowing slope is inf, as in the scalar path
        with np.errstate(all="ignore"):
            pop &= ((bu - au) * (q - ap) - (bp - ap) * (level - au) <= 0.0) | (
                (q - bp) / (level - bu) <= (bp - ap) / (bu - au)
            )
        s -= pop
        pop &= s >= 2
    hu[rows, s] = level
    hp[rows, s] = q
    hj[rows, s] = good
    size[rows] = s + 1
