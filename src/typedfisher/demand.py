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
build each type's hulls as arrays and share one masked purchase loop,
with the same float operations in the same order, so each returned row
equals the scalar ``demand`` exactly.  Inside, the arrays are
slot-major: one row per hull vertex or product slot and one column per
(agent, prices) pair, so each array operation runs along a contiguous
row of all the pairs, not over thousands of rows a few slots wide.  The
slots are the products in a fixed layout: each participating type by
ascending id, its hull segments by strictly increasing slope, then the
cap-free goods by ascending index.  Among equal slopes that layout
already is ``agent_products``' (type rank, high good) order, so one
stable sort of each column on the slope alone orders every pair.
"""

from __future__ import annotations

import operator
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
    """A price vector (``ndim=1``) or (m, K) price columns (``ndim=2``),
    returned C-contiguous."""
    p = np.asarray(p, dtype=float)
    if p.ndim != ndim or p.shape[:1] != (m,):
        what = "price vector" if ndim == 1 else "each price row"
        raise ValueError(f"{what} must have length {m}")
    if not np.all(np.isfinite(p)):
        raise ValueError("prices must be finite")
    if np.any(p < -1e-9):
        raise ValueError(f"negative price {p.min():g}")
    return np.maximum(p, 0.0, order="C")


def _check_agent(inst: MarketInstance, agent) -> int:
    """``agent`` as an int in 0..n-1: TypeError when it is no integer,
    IndexError when it is out of range."""
    if not 0 <= (i := operator.index(agent)) < inst.n_agents:
        raise IndexError(f"agent index {i} outside 0..{inst.n_agents - 1}")
    return i


def agent_products(
    inst: MarketInstance, agent: int, p: np.ndarray
) -> list[VirtualProduct]:
    """All products available to one agent, in deterministic buy order.

    Sorted by (slope, type rank, high-endpoint good); unbounded products
    rank after every type.  Slopes within one type are strictly
    increasing, so the global order respects each frontier's own order.
    """
    products: list[VirtualProduct] = []
    for t in np.flatnonzero(inst.participation[agent]).tolist():
        products.extend(
            build_frontier(inst.utilities[agent], p, inst.types[t], type_id=t)
        )
    for j in np.flatnonzero(_free_goods(inst, agent)).tolist():
        u_ij, p_j = float(inst.utilities[agent, j]), float(p[j])
        products.append(
            VirtualProduct(
                type_id=None, lo=None, hi=j, delta_u=u_ij, delta_p=p_j, slope=p_j / u_ij
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
    agent = _check_agent(inst, agent)
    p = _check_prices(p, inst.n_goods)

    products = agent_products(inst, agent, p)
    for pr in products:
        if pr.type_id is None and pr.delta_p == 0.0:
            raise UnboundedDemandError(agent, pr.hi)

    x = np.zeros(inst.n_goods)
    w = float(inst.budgets[agent])
    budget = w
    ledger: list[Purchase] = []
    for pr in products:
        if pr.type_id is not None and pr.delta_p <= budget:
            # full unit: move this type's position from lo to hi
            if pr.lo is not None:
                x[pr.lo] -= 1.0
            x[pr.hi] += 1.0
            budget -= pr.delta_p
            ledger.append(Purchase(pr.slope, pr.type_id, pr.lo, pr.hi, 1.0, pr.delta_p))
            continue
        # the rest of the budget buys a fraction of a bounded product, or
        # any quantity of an unbounded one (whose type_id is None)
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
        raise UnboundedDemandError(i, int(np.argmax(_free_goods(inst, i) & (p == 0.0))))
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
        _segments(*_agent_hulls(U, p, goods, part))
        for goods, part in zip(inst.types, inst.participation.T)
    ]
    free = _free_goods(inst).T
    shape = free.shape
    slots.append((
        np.divide(p[:, None], U.T, out=np.zeros(shape), where=free), np.zeros(shape, dtype=bool),
        np.full(shape, -1), np.broadcast_to(np.arange(inst.n_goods)[:, None], shape),
        np.broadcast_to(p[:, None], shape), free,
    ))
    return _buy(inst.n_goods, slots, inst.budgets, np.any(free & (p[:, None] == 0.0), axis=0))


def demand_prices(
    inst: MarketInstance, agent: int, P
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``demand`` of one agent at every row of the (K, m) price array ``P``.

    Returns ``(X, spend, unbounded)``: ``X[k]`` and ``spend[k]`` are ``==``
    to ``demand(inst, agent, P[k])``'s ``x`` and ``spend``, and
    ``unbounded[k]`` is True exactly where that call raises
    UnboundedDemandError (``X[k]`` and ``spend[k]`` are zero there).
    """
    agent = _check_agent(inst, agent)
    P = _check_prices(np.asarray(P, dtype=float).T, inst.n_goods, ndim=2)
    return _demand_prices(inst, agent, P)


# float overflow gives inf silently, as Python float arithmetic does in demand
@np.errstate(over="ignore", invalid="ignore")
def _demand_prices(inst: MarketInstance, agent: int, P) -> tuple[np.ndarray, ...]:
    """``demand_prices`` at the checked (m, K) price columns ``P``."""
    u = inst.utilities[agent]
    joined = np.flatnonzero(inst.participation[agent])
    slots = [_segments(*_hulls(u, P, inst.types[t])) for t in joined]
    free = np.flatnonzero(_free_goods(inst, agent))
    price, shape = P[free], (len(free), P.shape[1])
    slots.append((
        price / u[free, None], np.zeros(shape, dtype=bool), np.full(shape, -1),
        np.broadcast_to(free[:, None], shape), price, np.ones(shape, dtype=bool),
    ))
    unbounded = np.any(price == 0.0, axis=0)
    return _buy(inst.n_goods, slots, float(inst.budgets[agent]), unbounded)


def _free_goods(inst: MarketInstance, agents=slice(None)) -> np.ndarray:
    """Mask of the valued goods that the ``agents`` rows (all by default,
    or one agent's row) may buy without a type cap.

    The one record of that rule, which every demand path reads: a good is
    cap-free for an agent that values it when it lies in no type the agent
    joins, untyped goods included.  Only these goods make demand
    unbounded, at price zero.
    """
    return (inst.participation[agents] @ inst.incidence == 0) & (inst.utilities[agents] > 0.0)


def _segments(hu, hp, hj, size) -> tuple[np.ndarray, ...]:
    """One type's frontier products as slots, one column per hull.

    Returns ``(slope, capped, lo, hi, cost, valid)`` as (D, R) arrays from
    the (D + 1, R) vertices that ``_hulls`` or ``_agent_hulls`` returns; a
    column's segments past its vertex count are not valid.  A column's
    valid slopes strictly increase: ``_push`` pops every vertex after
    which the slope, computed with the float operations used here, would
    not rise.
    """
    dp = hp[1:] - hp[:-1]
    ok = np.arange(1, len(hu))[:, None] < size
    slope = np.divide(dp, hu[1:] - hu[:-1], out=np.zeros_like(dp), where=ok)
    return slope, np.ones(dp.shape, dtype=bool), hj[:-1], hj[1:], dp, ok


def _buy(m: int, slots, w, unbounded) -> tuple[np.ndarray, ...]:
    """``demand``'s greedy purchase, one column per (agent, prices) pair.

    ``slots`` lists every product as blocks of slot rows ``(slope, capped,
    lo, hi, cost, valid)``, each (slots, R), lo -1 marking the hull
    origin, in a fixed layout: each participating type by ascending id,
    its segments by strictly increasing slope, then the cap-free products
    (``capped`` False) by ascending good.  Among equal slopes that layout
    already is agent_products' (type rank, hi) order, so ``_buy_order``'s
    stable sort on the slope alone puts each column's valid slots in that
    order, ahead of the invalid ones, which the loop never reads.  ``m``
    is the number of goods; ``w`` is the budget of every column, or of
    each; columns in ``unbounded`` buy nothing.  Each step of the scalar
    path runs as masked operations along whole slot rows, with the same
    float operations in the same order.

    X is written once, from the slots bought in nonzero units alone: a
    good is the high end of at most one of them and the low end of at
    most one, bought later, so its units in minus its units out is the
    scalar path's ``(0 + in) - out``, and a fraction that underflows to
    zero changes nothing there either.  Slots past a hull's vertex count
    may name goods of popped vertices, so the unbought ones are never
    written.  Returns ``(X, spend, unbounded)`` as ``demand_prices``
    does, X as (R, m).
    """
    slope, capped, lo, hi, cost, valid = (np.concatenate(c) for c in zip(*slots))
    R = len(unbounded)
    order = _buy_order(slope, valid)
    flat = order * R + np.arange(R)
    capped, cost, valid = (a.ravel()[flat] for a in (capped, cost, valid))

    budget = np.full(R, w)
    units = np.zeros(flat.shape)
    active = ~unbounded
    for s in range(len(flat)):
        active &= valid[s]
        if not active.any():
            break
        full = active & capped[s] & (cost[s] <= budget)
        part = active & ~full & (budget > 0.0)
        np.subtract(budget, cost[s], out=budget, where=full)
        units[s] = full
        np.divide(budget, cost[s], out=units[s], where=part)
        budget[part] = 0.0
        active = full

    b = np.flatnonzero(units)
    at, units, r = flat.ravel()[b], units.ravel()[b], b % R
    X = np.zeros((R, m))
    x = X.reshape(-1)
    x[r * m + hi.ravel()[at]] = units
    lo = lo.ravel()[at]
    has_lo = lo >= 0
    x[r[has_lo] * m + lo[has_lo]] -= units[has_lo]
    X = np.maximum(X, 0.0)  # clip float dust, as the scalar path does
    return X, w - budget, unbounded


def _buy_order(slope: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Each column's slots in buy order: a stable sort on the slope, with
    the invalid slots as NaN, which sorts after every number, +inf
    included."""
    return np.argsort(np.where(valid, slope, np.nan), axis=0, kind="stable")


def _hulls(u: np.ndarray, P: np.ndarray, type_goods) -> tuple[np.ndarray, ...]:
    """``build_frontier``'s hull vertices for one type at every price column.

    ``P`` holds the (m, K) price columns.  Returns utilities, prices and
    goods of the vertices as (D + 1, K) arrays, the origin first (good
    -1), and each column's vertex count.  D is the number of distinct
    positive utilities in the type; they keep their order at every price,
    so the per-utility dedup is a running minimum over fixed groups of
    goods and the chain visits the levels in a fixed order.  As in
    ``build_frontier``, the chain itself drops equal-price points, so
    every column appends each level's point.
    """
    goods = [j for j in sorted(int(j) for j in type_goods) if u[j] > 0.0]
    levels = sorted({float(u[j]) for j in goods})
    K, D = P.shape[1], len(levels)
    hull = (np.zeros((D + 1, K)), np.zeros((D + 1, K)), np.full((D + 1, K), -1))
    size = np.ones(K, dtype=int)
    cols = np.arange(K)
    for level in levels:
        # per utility the cheapest good, the lowest index on a price tie
        first, *rest = (j for j in goods if u[j] == level)
        good, price = np.full(K, first), P[first]
        for j in rest:
            cheaper = P[j] < price
            good[cheaper] = j
            price = np.where(cheaper, P[j], price)
        _push(hull, size, cols, level, price, good)
    return (*hull, size)


def _agent_hulls(U: np.ndarray, p: np.ndarray, type_goods, part) -> tuple[np.ndarray, ...]:
    """``build_frontier``'s hull vertices for one type at one price vector,
    one column per agent.

    Same return as ``_hulls``, with D the type's size; columns outside the
    mask ``part`` keep only the origin.  Each column's goods are ordered
    by (u, p, j): the goods, ascending, are stable-sorted once by price,
    which every column shares, then each column stable-sorted by u.  Zero
    utilities are skipped, and so is every good but the first of a run of
    equal utilities, which is the cheapest, the lowest index on a price
    tie: the chain then sees the points that ``build_frontier``'s dedup
    keeps, in its order.
    """
    goods = np.array(sorted(int(j) for j in type_goods), dtype=int)
    goods = goods[np.argsort(p[goods], kind="stable")]
    u = U[:, goods].T
    order = np.argsort(u, axis=0, kind="stable")
    u = np.take_along_axis(u, order, axis=0)
    q, j = p[goods][order], goods[order]
    keep = (u > 0.0) & part
    keep[1:] &= u[1:] != u[:-1]

    D, n = u.shape
    hull = (np.zeros((D + 1, n)), np.zeros((D + 1, n)), np.full((D + 1, n), -1))
    size = np.ones(n, dtype=int)
    for k in range(D):
        r = np.flatnonzero(keep[k])
        _push(hull, size, r, u[k, r], q[k, r], j[k, r])
    return (*hull, size)


def _push(hull, size, cols, level, q, good) -> None:
    """Append the point (level, q, good) to the hull of each listed column.

    First pops, column by column, the vertices the point hides, with
    ``build_frontier``'s test and its float operations in its order.
    ``level`` is one utility for every column or one per column.
    """
    # flat views of the C-contiguous (vertex, column) hull arrays
    hu, hp, hj = (h.reshape(-1) for h in hull)
    width = hull[0].shape[1]
    s = size[cols]
    pop = s >= 2
    while pop.any():
        a, b = np.maximum(s - 2, 0) * width + cols, (s - 1) * width + cols
        au, ap = hu[a], hp[a]
        bu, bp = hu[b], hp[b]
        # columns with a single vertex divide by zero here but are already
        # out of ``pop``, and an overflowing slope is inf, as in the scalar path
        with np.errstate(all="ignore"):
            pop &= ((bu - au) * (q - ap) - (bp - ap) * (level - au) <= 0.0) | (
                (q - bp) / (level - bu) <= (bp - ap) / (bu - au)
            )
        s -= pop
        pop &= s >= 2
    at = s * width + cols
    hu[at] = level
    hp[at] = q
    hj[at] = good
    size[cols] = s + 1
