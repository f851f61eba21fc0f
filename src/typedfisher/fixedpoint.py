"""Fixed-point iteration on the budget perturbations.

Clearing prices require each agent's budget perturbation to equal the sum
of that agent's type-constraint duals, which are only known after
solving.  The scheme starts from zero perturbations, solves the social
program, reads off the dual sums q_i = sum_t r_it, and repeats with
lam = q until ||lam - q||_2 falls below the tolerance.  Convergence is an
empirical property of the instance, so non-convergence is a first-class
outcome: the full trace is always returned for diagnosis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .instances import MarketInstance
from .solver import DEFAULT_TOL, DualBundle, SolveStats, solve_bpsop

DEFAULT_EPS = 1e-6
DEFAULT_MAX_ITER = 500

# Residual plateaus of 15-25 iterations occur while near-tied agents get
# reassigned, and such runs still converge; only declare oscillation after
# a longer window with no relative improvement.
STALL_WINDOW = 30


@dataclass
class DualSummary:
    """Per-iteration snapshot kept in the trace."""

    p: np.ndarray
    q: np.ndarray  # sum_t r_it per agent
    objective: float
    solver_iterations: int
    solver_status: str


@dataclass
class FixedPointTrace:
    iterates: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    duals_per_iter: list[DualSummary] = field(default_factory=list)
    status: str = "max_iter"  # converged | max_iter | solver_failure | oscillating
    failure_iteration: int | None = None

    @property
    def iterations(self) -> int:
        return len(self.iterates)


@dataclass
class FixedPointResult:
    lam: np.ndarray
    prices: np.ndarray
    allocation: np.ndarray
    trace: FixedPointTrace
    duals: DualBundle
    solve_stats: SolveStats


def residual(lam, duals) -> float:
    """Euclidean distance between lam and the dual sums it should equal."""
    lam = np.asarray(lam, dtype=float)
    q = duals.r.sum(axis=1) if isinstance(duals, DualBundle) else np.asarray(duals, float)
    if q.shape != lam.shape:
        raise ValueError(f"dimension mismatch: lam {lam.shape} vs duals {q.shape}")
    return float(np.linalg.norm(lam - q))


def run(
    inst: MarketInstance,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    solver_tol: float = DEFAULT_TOL,
) -> FixedPointResult:
    """Iterate lam <- sum_t r_it over successive solves until self-consistent.

    Returns the last solve's perturbations, prices, and allocation together
    with the full trace.  Status ``solver_failure`` propagates a failed
    inner solve (with the iteration index); ``oscillating`` fires when the
    best residual has not improved by 0.1% within STALL_WINDOW
    iterations while still above eps.
    """
    n = inst.n_agents
    lam = np.zeros(n)
    trace = FixedPointTrace()

    best = np.inf
    best_iter = 0
    x = prices = duals = stats = None
    lam_solved = lam
    for k in range(max_iter):
        lam_solved = lam
        x, duals, stats = solve_bpsop(inst, lam, tol=solver_tol)
        q = duals.r.sum(axis=1)
        res = float(np.linalg.norm(lam - q))
        trace.iterates.append(lam.copy())
        trace.residuals.append(res)
        trace.duals_per_iter.append(
            DualSummary(
                p=duals.p.copy(),
                q=q,
                objective=duals.objective,
                solver_iterations=stats.iterations,
                solver_status=stats.status,
            )
        )
        prices = duals.p
        if not stats.success:
            trace.status = "solver_failure"
            trace.failure_iteration = k
            break
        if res <= eps:
            trace.status = "converged"
            break
        if res < best * 0.999:
            best = res
            best_iter = k
        if k - best_iter >= STALL_WINDOW:
            trace.status = "oscillating"
            break
        lam = q
    return FixedPointResult(
        lam=lam_solved,
        prices=prices,
        allocation=x,
        trace=trace,
        duals=duals,
        solve_stats=stats,
    )


def write_trace_csv(trace: FixedPointTrace, path: str | Path) -> None:
    """Columns: iter, residual, lambda_1..lambda_n."""
    n = len(trace.iterates[0]) if trace.iterates else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "residual"] + [f"lambda_{i + 1}" for i in range(n)])
        for k, (lam, res) in enumerate(zip(trace.iterates, trace.residuals)):
            writer.writerow([k, f"{res:.12g}"] + [f"{v:.12g}" for v in lam])
