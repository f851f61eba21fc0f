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
at once, with the same float operations in the same order, so each row
equals the scalar ``demand`` exactly.
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


# float overflow gives inf silently, as Python float arithmetic does in demand
@np.errstate(over="ignore", invalid="ignore")
def demand_prices(
    inst: MarketInstance, agent: int, P
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``demand`` of one agent at every row of the (K, m) price array ``P``.

    Returns ``(X, spend, unbounded)``: ``X[k]`` and ``spend[k]`` are ``==``
    to ``demand(inst, agent, P[k])``'s ``x`` and ``spend``, and
    ``unbounded[k]`` is True exactly where that call raises
    UnboundedDemandError (``X[k]`` and ``spend[k]`` are zero there).  Each
    step of the scalar path runs as a masked array operation over the rows,
    with the same float operations in the same order.
    """
    if not 0 <= agent < inst.n_agents:
        raise IndexError(f"agent index {agent} outside 0..{inst.n_agents - 1}")
    P = _check_prices(P, inst.n_goods, ndim=2)
    K = len(P)
    u = inst.utilities[agent]

    # product slots, one column each, in any order: lexsort below puts
    # every row in agent_products' (slope, type rank, hi) order
    slots = []
    for t in inst.participating_types(agent):
        hu, hp, hj, size = _hulls(u, P, inst.types[t])
        dp = np.diff(hp, axis=1)
        ok = np.arange(1, hu.shape[1]) < size[:, None]
        slope = np.divide(dp, np.diff(hu, axis=1), out=np.zeros_like(dp), where=ok)
        slots.append((slope, np.full(dp.shape, t), hj[:, :-1], hj[:, 1:], dp, ok))
    free = [j for j in inst.unbounded_goods(agent) if u[j] > 0.0]
    shape = (K, len(free))
    slots.append((
        P[:, free] / u[free], np.full(shape, inst.n_types), np.full(shape, -1),
        np.broadcast_to(np.array(free, dtype=int), shape), P[:, free],
        np.ones(shape, dtype=bool),
    ))
    slope, rank, lo, hi, cost, valid = (np.concatenate(c, axis=1) for c in zip(*slots))
    order = np.lexsort((hi, rank, slope, ~valid), axis=1)
    rank, lo, hi, cost, valid = (
        np.take_along_axis(a, order, axis=1) for a in (rank, lo, hi, cost, valid)
    )
    capped = rank < inst.n_types
    unbounded = np.any(P[:, free] == 0.0, axis=1)

    rows = np.arange(K)
    X = np.zeros((K, inst.n_goods))
    w = float(inst.budgets[agent])
    budget = np.full(K, w)
    active = ~unbounded
    for s in range(order.shape[1]):
        active &= valid[:, s]
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

    rows = np.arange(K)
    hu = np.zeros((K, D + 1))
    hp = np.zeros((K, D + 1))
    hj = np.full((K, D + 1), -1)
    size = np.ones(K, dtype=int)
    for g, level in enumerate(levels):
        q = price[:, g]
        pop = size >= 2
        while pop.any():
            a, b = np.maximum(size - 2, 0), size - 1
            au, ap = hu[rows, a], hp[rows, a]
            bu, bp = hu[rows, b], hp[rows, b]
            # build_frontier's test; rows with a single vertex divide by
            # zero here but are already out of ``pop``, and an overflowing
            # slope is inf, as in the scalar path
            with np.errstate(all="ignore"):
                pop &= ((bu - au) * (q - ap) - (bp - ap) * (level - au) <= 0.0) | (
                    (q - bp) / (level - bu) <= (bp - ap) / (bu - au)
                )
            size -= pop
            pop &= size >= 2
        hu[rows, size] = level
        hp[rows, size] = q
        hj[rows, size] = good[:, g]
        size += 1
    return hu, hp, hj, size
