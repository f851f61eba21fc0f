"""Independent checks of the program's outputs.

Nothing here imports ``typedfisher``: every check recomputes its
conclusion from plain arrays (utilities, budgets, capacities, type sets,
participation) and the candidate output, with numpy and
``scipy.optimize.linprog``.  A check returns its residuals; the caller
compares them with a tolerance.  scipy is imported only by the LP checks,
so that the numpy-only checks can run between timed operations without
adding scipy to the run's peak memory.

Sign conventions follow the optimality system of the budget-weighted
log-utility social program:

    (w_i + lam_i) u_ij / (u_i . x_i) - p_j - sum_{t : j in t} r_it = s_ij,
    s <= 0,  r >= 0,  x_ij s_ij = 0,  r_it (1 - sum_{j in t} x_ij) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Market:
    """Plain-array copy of one market."""

    U: np.ndarray  # (n, m) utilities
    w: np.ndarray  # (n,) budgets
    cap: np.ndarray  # (m,) capacities
    types: tuple[tuple[int, ...], ...]
    part: np.ndarray  # (n, T) bool participation

    @classmethod
    def of(cls, inst) -> "Market":
        return cls(
            U=np.array(inst.utilities, dtype=float),
            w=np.array(inst.budgets, dtype=float),
            cap=np.array(inst.capacities, dtype=float),
            types=tuple(tuple(int(j) for j in t) for t in inst.types),
            part=np.array(inst.participation, dtype=bool).reshape(
                len(inst.budgets), len(inst.types)
            ),
        )

    @property
    def incidence(self) -> np.ndarray:
        """(T, m) 0/1 matrix, row t marks the goods of type t."""
        A = np.zeros((len(self.types), self.U.shape[1]))
        for t, goods in enumerate(self.types):
            A[t, list(goods)] = 1.0
        return A


def kkt_residuals(mkt: Market, lam, x, p, r, s) -> dict[str, float]:
    """Largest absolute residual of each block of the optimality system.

    ``budget_gap`` is the per-agent identity w_i + lam_i - p . x_i =
    sum_t r_it, which follows from stationarity and both complementarity
    conditions.
    """
    x, p, r, s = (np.asarray(a, dtype=float) for a in (x, p, r, s))
    c = mkt.w + np.asarray(lam, dtype=float)
    A = mkt.incidence
    r_part = np.where(mkt.part, r, 0.0)
    y = (mkt.U * x).sum(axis=1)
    if np.any(y <= 0.0):
        return {"utility_positive": float("inf")}
    margin = (c / y)[:, None] * mkt.U - p[None, :] - r_part @ A
    type_sums = x @ A.T
    slack = np.where(mkt.part, 1.0 - type_sums, 0.0)
    return {
        "stationarity": float(np.abs(margin - s).max()),
        "complementarity_x": float(np.abs(x * s).max()),
        "complementarity_r": float(np.abs(r_part * slack).max(initial=0.0)),
        "capacity": float(np.abs(x.sum(axis=0) - mkt.cap).max()),
        "type_caps": float(np.maximum(-slack, 0.0).max(initial=0.0)),
        "nonnegativity": float(np.maximum(-x, 0.0).max()),
        "dual_sign": max(
            float(np.maximum(s, 0.0).max()),
            float(np.maximum(-r_part, 0.0).max(initial=0.0)),
            float(np.abs(np.where(mkt.part, 0.0, r)).max(initial=0.0)),
        ),
        "budget_gap": float(np.abs(c - x @ p - r_part.sum(axis=1)).max()),
    }


def clearing_residuals(mkt: Market, p, x) -> dict[str, float]:
    """Market clearing, budget exhaustion and feasibility of (p, x)."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    type_sums = x @ mkt.incidence.T
    return {
        "clearing": float(np.abs(x.sum(axis=0) - mkt.cap).max()),
        "budget": float(np.abs(x @ p - mkt.w).max()),
        "type_caps": float(
            np.maximum(np.where(mkt.part, type_sums - 1.0, 0.0), 0.0).max(initial=0.0)
        ),
        "nonnegativity": float(np.maximum(-x, 0.0).max()),
        "price_sign": float(np.maximum(-p, 0.0).max()),
    }


def _agent_matrix(n: int, m: int, values):
    """(n, n*m) matrix whose row i holds ``values[i]`` over agent i's goods.

    Variable (i, j) of the stacked allocation sits at column i * m + j.
    """
    from scipy.sparse import csr_matrix

    cols = np.arange(n * m)
    return csr_matrix((np.ravel(values), (cols // m, cols)), shape=(n, n * m))


def _type_rows(mkt: Market):
    """One row sum_{j in t} x_ij per participating (agent, type) pair."""
    from scipy.sparse import csr_matrix

    m = mkt.U.shape[1]
    rows, cols = [], []
    for k, (i, t) in enumerate(zip(*np.nonzero(mkt.part))):
        goods = mkt.types[t]
        rows += [k] * len(goods)
        cols += [i * m + j for j in goods]
    shape = (int(mkt.part.sum()), mkt.U.size)
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)


def optimal_utilities(mkt: Market, p) -> np.ndarray:
    """Each agent's best utility at prices ``p``, by linear programming.

    The agents' demand problems are independent, so they are solved as one
    block-separable LP; every block of an optimum is optimal for its agent.
    Returns +inf for every agent when some agent's demand is unbounded.
    """
    from scipy.optimize import linprog
    from scipy.sparse import vstack

    p = np.asarray(p, dtype=float)
    n, m = mkt.U.shape
    types = _type_rows(mkt)
    res = linprog(
        -mkt.U.ravel(),
        A_ub=vstack([_agent_matrix(n, m, np.tile(p, (n, 1))), types]),
        b_ub=np.concatenate([mkt.w, np.ones(types.shape[0])]),
        bounds=(0, None),
        method="highs",
    )
    if res.status == 3:
        return np.full(n, np.inf)
    if res.status != 0:
        raise RuntimeError(f"demand LP failed: {res.message}")
    return (mkt.U * res.x.reshape(n, m)).sum(axis=1)


def optimality_gaps(mkt: Market, p, x) -> np.ndarray:
    """Per agent, best utility at ``p`` minus the utility of its bundle."""
    x = np.asarray(x, dtype=float)
    return optimal_utilities(mkt, p) - (mkt.U * x).sum(axis=1)


def equilibrium_allocation(mkt: Market, p, tol: float = 1e-7):
    """An allocation that makes ``p`` an equilibrium, or None if none exists.

    Finds x >= 0 with every good sold to capacity, every budget spent and
    every agent's utility within ``tol`` of its optimum at ``p``, by one
    feasibility LP.  Uses no demand oracle.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, vstack

    p = np.asarray(p, dtype=float)
    n, m = mkt.U.shape
    best = optimal_utilities(mkt, p)
    if not np.all(np.isfinite(best)):
        return None
    types = _type_rows(mkt)
    sold = csr_matrix(
        (np.ones(n * m), (np.tile(np.arange(m), n), np.arange(n * m))), shape=(m, n * m)
    )
    res = linprog(
        np.zeros(n * m),
        A_ub=vstack([types, -_agent_matrix(n, m, mkt.U)]),
        b_ub=np.concatenate([np.ones(types.shape[0]), tol - best]),
        A_eq=vstack([_agent_matrix(n, m, np.tile(p, (n, 1))), sold]),
        b_eq=np.concatenate([mkt.w, mkt.cap]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        return None
    return res.x.reshape(n, m)


def grid_size(p_max: float, step: float, m: int) -> int:
    """Number of points of the grid {0, step, ..., p_max}^m."""
    return (int(np.floor(p_max / step + 1e-9)) + 1) ** m


def unbounded_grid_points(mkt: Market, p_max: float, step: float) -> int:
    """Grid points at which some agent values a cap-free good priced zero."""
    n, m = mkt.U.shape
    k = grid_size(p_max, step, 1)
    free = np.zeros(m, dtype=bool)  # good j is cap-free and valued by someone
    typed = {j: t for t, goods in enumerate(mkt.types) for j in goods}
    for i in range(n):
        for j in range(m):
            capped = j in typed and mkt.part[i, typed[j]]
            free[j] |= mkt.U[i, j] > 0.0 and not capped
    # points where every free good has a positive price
    priced = (k - 1) ** int(free.sum()) * k ** int(m - free.sum())
    return k**m - priced
