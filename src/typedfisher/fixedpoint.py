"""Fixed-point iteration on the budget perturbations.

Clearing prices require each agent's budget perturbation to equal the sum
of that agent's type-constraint duals, which are only known after
solving.  The scheme starts from zero perturbations, solves the social
program, reads off the dual sums q_i = sum_t r_it, and steps along
d = q - lam until ||lam - q||_2 falls below the tolerance.

The paper's step is lam <- q, a unit step along d.  Near a fixed point
single agents often crawl: an agent holding a vertex bundle (one good per
type, every type row binding) gains as much in q_i as in lam_i, so its
d_i repeats over many solves while other agents' components keep
turning.  So each agent's step is extrapolated on its own, by a secant on
its own component (Barzilai & Borwein, 1988, one secant per agent):
lam <- max(lam + s * d, 0).  With rho_i = d_i / d_prev,i:

* s_i = min(s_prev,i / (1 - rho_i), 2 s_prev,i) when 0 < rho_i < 1: the
  root of agent i's secant through its last step s_prev,i d_prev,i,
  capped at a doubling (after a plain step, 1 / (1 - rho_i) sums a
  geometric tail);
* s_i = 2 s_prev,i when 1 <= rho_i <= 1 + CRAWL_TOL, so a crawl of
  length L is covered in about log2(L) solves;
* s_i = 1, the plain step, otherwise: a sign change, growth,
  d_prev,i = 0 or NaN.

Each step still costs exactly one solve, and a run only converges where
||lam - q(lam)|| <= eps at the lam that was solved, so only the path to
a fixed point changes.  Convergence is an empirical property of the
instance, so non-convergence is a first-class outcome: the full trace is
always returned for diagnosis.

Consecutive solves differ only in lam, so each solve after the first
starts warm from the iterates of the one before (``solve_bpsop``'s
``start``), and falls back to a cold solve where the warm one would not
return the same duals.  A market where that happens once has optimal
duals that are not unique, so once a solve of a run falls back, the rest
of the run's solves start cold and record no path.  The trace records how
each solve started.  A
warm solve stops within the solver tolerance at a slightly different
point than a cold one, and the dual sums q move with it: on the
``experiment`` market they moved by up to 1.4e-5 between a warm and a
cold solve that both met the default tolerance.  The path to a fixed
point can therefore differ from that of cold solves by a step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .instances import MarketInstance
from .solver import DEFAULT_TOL, CentralPath, DualBundle, SolveStats, solve_bpsop

DEFAULT_EPS = 1e-6
DEFAULT_MAX_ITER = 500

# Residual plateaus of 15-25 iterations occur while near-tied agents get
# reassigned, and such runs still converge; only declare oscillation after
# a longer window with no relative improvement.
STALL_WINDOW = 30

# agent i crawls when 1 <= d_i / d_prev,i <= 1 + CRAWL_TOL
CRAWL_TOL = 1e-2


@dataclass
class DualSummary:
    """Per-iteration snapshot kept in the trace."""

    p: np.ndarray
    q: np.ndarray  # sum_t r_it per agent
    objective: float
    solver_iterations: int
    solver_status: str
    # how the solve started (SolveStats.start) and the mu it started from
    solver_start: str
    solver_start_mu: float


@dataclass
class FixedPointTrace:
    iterates: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    duals_per_iter: list[DualSummary] = field(default_factory=list)
    # converged | max_iter | solver_failure | oscillating | stalled
    status: str = "max_iter"
    failure_iteration: int | None = None
    # the per-agent multipliers s of each step taken, one (n,) array per
    # non-final iterate (all 1.0 for the plain step lam <- q)
    step_scales: list[np.ndarray] = field(default_factory=list)

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


def _step_scale(d: np.ndarray, d_prev: np.ndarray, s_prev: np.ndarray) -> np.ndarray:
    """Per-agent multipliers of the step d given the previous step and its
    multipliers (module docstring)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = d / d_prev
        secant = np.minimum(s_prev / (1.0 - rho), 2.0 * s_prev)
    crawl = (rho >= 1.0) & (rho <= 1.0 + CRAWL_TOL)
    return np.where((rho > 0.0) & (rho < 1.0), secant, np.where(crawl, 2.0 * s_prev, 1.0))


def run(
    inst: MarketInstance,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    solver_tol: float = DEFAULT_TOL,
) -> FixedPointResult:
    """Step lam along d = sum_t r_it - lam over successive solves until
    self-consistent.

    Each step is lam <- max(lam + s * d, 0), with per-agent s from
    ``_step_scale``: 1 for the plain step, larger where an agent crawls.
    Returns the last solved perturbations with their prices and
    allocation, and the full trace.  Status ``converged`` means
    ||lam - q(lam)|| <= eps at the returned lam; ``solver_failure``
    propagates a failed inner solve (with the iteration index);
    ``oscillating`` fires when the best residual has not improved by 0.1%
    within STALL_WINDOW iterations while still above eps, and ``stalled``
    in its place when the residual fell at every one of those iterations:
    the run crawls toward a point it does not reach in reasonable time
    rather than cycling.  Each solve after the first may start warm from
    the previous solve's path, until one falls back (module docstring).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    if not (np.isfinite(solver_tol) and solver_tol > 0):
        raise ValueError(f"solver_tol must be finite and positive, got {solver_tol}")
    lam = np.zeros(inst.n_agents)
    trace = FixedPointTrace()

    best = np.inf
    best_iter = 0
    # a zero previous step gives every agent the plain step first
    d_prev, scale = np.zeros(inst.n_agents), np.ones(inst.n_agents)
    # each solve starts warm from the previous solve's path, and cold from
    # the first fallback on
    path = CentralPath()
    for k in range(max_iter):
        x, duals, stats = solve_bpsop(inst, lam, tol=solver_tol, start=path)
        path = None if stats.start == "fallback" else stats.path
        q = duals.r.sum(axis=1)
        d = q - lam
        res = float(np.linalg.norm(d))
        trace.iterates.append(lam.copy())
        trace.residuals.append(res)
        trace.duals_per_iter.append(
            DualSummary(
                p=duals.p.copy(),
                q=q,
                objective=duals.objective,
                solver_iterations=stats.iterations,
                solver_status=stats.status,
                solver_start=stats.start,
                solver_start_mu=stats.start_mu,
            )
        )
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
            window = np.diff(trace.residuals[-STALL_WINDOW - 1 :])
            trace.status = "stalled" if np.all(window < 0) else "oscillating"
            break
        if k + 1 == max_iter:
            break
        scale = _step_scale(d, d_prev, scale)
        trace.step_scales.append(scale)
        # the plain step is exactly the paper's lam <- q
        lam = q if np.all(scale == 1.0) else np.maximum(lam + scale * d, 0.0)
        d_prev = d
    return FixedPointResult(
        lam=lam,
        prices=duals.p,
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
