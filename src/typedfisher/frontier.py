"""Lower convex hulls of price-utility points and the segments they induce.

For one agent and one resource type, plot each positively valued good at
(utility, price) together with the origin.  Any feasible within-type bundle
(nonnegative weights summing to at most one) lands inside the convex hull
of those points, so the cheapest way to reach a given utility runs along
the hull's lower frontier.  Each frontier segment is a purchasable
"virtual product": one unit of it moves the agent from the segment's low
endpoint to its high endpoint, costing the price difference and gaining
the utility difference.  Goods without a type cap reduce to a single
unbounded product with per-unit rate price/utility
(``demand.agent_products``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class VirtualProduct:
    """One purchasable frontier segment.

    ``lo`` is the good at the low-utility endpoint (None for the hull
    origin); ``hi`` the good at the high endpoint.  ``slope`` is cost per
    unit utility; bang-per-buck is its reciprocal.  Unbounded products
    (goods without a type cap for this agent) may be bought in any
    quantity; bounded ones cap at one unit.
    """

    type_id: int | None
    lo: int | None
    hi: int
    delta_u: float
    delta_p: float
    slope: float
    unbounded: bool = False


def build_frontier(
    u_row: Sequence[float] | np.ndarray,
    p: Sequence[float] | np.ndarray,
    type_goods: Iterable[int],
    type_id: int = 0,
) -> tuple[VirtualProduct, ...]:
    """Slope-ascending products along the lower hull of one type's
    (utility, price) points, from the origin to the highest-utility vertex.

    Zero-utility goods are dropped up front (they are never purchased).
    Among equal-utility points only the cheapest survives; among
    equal-price points only the highest utility.  Collinear hull points
    merge into a single segment.  All remaining ties break toward the
    lowest good index, so the result is deterministic.
    """
    u_row = np.asarray(u_row, dtype=float)
    p = np.asarray(p, dtype=float)
    goods = sorted(int(j) for j in type_goods)
    pts = [(float(u_row[j]), float(p[j]), j) for j in goods if u_row[j] > 0.0]
    if not pts:
        return ()

    # Deduplicate: per utility keep the cheapest (lowest index on a price
    # tie).  The chain below drops equal-price points by itself.
    by_u: dict[float, tuple[float, float, int]] = {}
    for pt in sorted(pts, key=lambda q: (q[0], q[1], q[2])):
        if pt[0] not in by_u:
            by_u[pt[0]] = pt
    points = sorted(by_u.values())

    # Monotone chain from the origin, utility ascending.  Keep strictly
    # increasing slopes: b stays only when slope(a->b) < slope(a->c) by the
    # cross-multiplied test and the slopes the products carry, computed as
    # below, also increase (two segments can round to one slope).  Prices
    # never fall along the chain, so a point priced like vertex b pops b:
    # with q == bp both products share the factor bp - ap, and rounding
    # cannot flip the sign of the test.
    hull: list[tuple[float, float, int | None]] = [(0.0, 0.0, None)]
    for u, q, j in points:
        while len(hull) >= 2:
            au, ap, _ = hull[-2]
            bu, bp, _ = hull[-1]
            if (
                (bu - au) * (q - ap) - (bp - ap) * (u - au) <= 0.0
                or (q - bp) / (u - bu) <= (bp - ap) / (bu - au)
            ):
                hull.pop()
            else:
                break
        hull.append((u, q, j))

    return tuple(
        VirtualProduct(
            type_id=type_id,
            lo=lj,
            hi=hj,
            delta_u=hu - lu,
            delta_p=hp - lp,
            slope=(hp - lp) / (hu - lu),
        )
        for (lu, lp, lj), (hu, hp, hj) in zip(hull, hull[1:])
    )
