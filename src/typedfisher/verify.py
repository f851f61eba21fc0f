"""Independent numerical verification of equilibrium claims.

Everything here recomputes its conclusions from the instance alone; no
check trusts the provenance of a candidate (p, x).  An equilibrium means
three residual families vanish: every good sells exactly its capacity,
every budget is spent exactly, and each agent's bundle attains the
optimal utility at the posted prices (checked against the exact greedy
demand oracle).  Further checks cover the budget-gap identity of the
unperturbed social program, the first-order (KKT) system of the social
program at any candidate (x, duals), the cross-mapping from social-program
duals to individual-problem duals at a fixed point, and a brute-force price
grid scan used to certify non-existence on small markets.  The two KKT
audits share one check of their inputs and one kernel of the algebra both
optimality systems hold (``_kkt_terms``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ``demand`` stays bound here, where the benchmark's tracer wraps it
from .demand import _check_prices, demand, demand_all, demand_prices
from .instances import MarketInstance
from .solver import DualBundle, ZeroUtilityError, solve_sop1

FIXED_POINT_EPS = 1e-5  # kkt_crosscheck's limit on ||lam - sum_t r_it||
MAX_GRID_POINTS = 10_000_000  # largest grid grid_nonexistence scans
SCAN_CHUNK = 65_536  # grid prices per demand_prices call


@dataclass
class EquilibriumReport:
    clearing_residuals: np.ndarray      # per good |demand - capacity|
    budget_residuals: np.ndarray        # per agent |spend - budget|
    optimality_gaps: np.ndarray         # per agent greedy minus achieved utility
    feasibility_violations: list[str]
    passed: bool
    tol_clearing: float
    tol_budget: float
    tol_opt: float

    @property
    def max_clearing(self) -> float:
        return float(self.clearing_residuals.max())

    @property
    def max_budget(self) -> float:
        return float(self.budget_residuals.max())

    @property
    def max_gap(self) -> float:
        return float(self.optimality_gaps.max())


def check_equilibrium(
    inst: MarketInstance,
    p,
    x,
    tol_clearing: float = 1e-5,
    tol_budget: float = 1e-5,
    tol_opt: float = 1e-6,
) -> EquilibriumReport:
    """Test a candidate (p, x) against the definition of equilibrium.

    Optimality gaps compare each agent's achieved utility with the utility
    of its exact greedy demand at p, taken for all agents at once by
    ``demand_all``; a gap within tol_opt certifies the bundle optimal
    (slightly negative gaps are float noise).  tol_opt is absolute, in
    utility units: with utilities times 1e150 a fixed point's gaps reach
    1e140-1e142 (ROADMAP.md, item 4, plans a scaled optimality error).
    Prices must pass the demand oracle's own check (length, finite,
    nonnegative), the allocation must be a finite (n, m) array, and each
    tolerance must be finite and nonnegative, else ValueError.  Unbounded
    demand at p propagates as UnboundedDemandError, naming the same agent
    and good as ``demand`` called agent by agent.
    """
    tols = {"tol_clearing": tol_clearing, "tol_budget": tol_budget, "tol_opt": tol_opt}
    for name, tol in tols.items():
        if not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {tol}")
    p = _check_prices(p, inst.n_goods)
    x = _allocation(inst, x)

    clearing = np.abs(x.sum(axis=0) - inst.capacities)
    budget = np.abs(x @ p - inst.budgets)
    gaps = _utilities(inst, demand_all(inst, p)[0]) - _utilities(inst, x)

    violations: list[str] = []
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
        clearing_residuals=clearing,
        budget_residuals=budget,
        optimality_gaps=gaps,
        feasibility_violations=violations,
        passed=passed,
        tol_clearing=tol_clearing,
        tol_budget=tol_budget,
        tol_opt=tol_opt,
    )


def _allocation(inst: MarketInstance, x) -> np.ndarray:
    """x as a float array, once it is a finite (n, m) allocation."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n_agents, inst.n_goods):
        raise ValueError(f"allocation must have shape ({inst.n_agents}, {inst.n_goods})")
    if not np.all(np.isfinite(x)):
        raise ValueError("allocation must be finite")
    return x


def _utilities(inst: MarketInstance, x: np.ndarray) -> np.ndarray:
    """Each agent's utility u_i @ x_i, rounded as that one product is;
    an overflowing utility is inf."""
    with np.errstate(over="ignore"):
        return np.matmul(inst.utilities[:, None, :], x[:, :, None])[:, 0, 0]


@dataclass
class KKTResiduals:
    """Independent residuals of the social program's first-order system."""

    stationarity: float
    complementarity: float
    feasibility: float
    dual_sign: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.complementarity, self.feasibility, self.dual_sign)


def kkt_residuals(inst: MarketInstance, lam, x, duals: DualBundle) -> KKTResiduals:
    """Residuals of the social program's first-order system at perturbations
    ``lam`` for any (x, duals) pair.

    Recomputes everything from the instance; independent of how the
    candidate solution was produced.  lam must be a finite, nonnegative
    (n,) array (entries down to -1e-12 pass, as in the solver), x a
    finite (n, m) allocation and the duals' p, r and s of shapes (m,),
    (n, T) and (n, m), else ValueError.  Raises ZeroUtilityError when some
    agent's aggregate utility is nonpositive (the objective gradient is
    then undefined).
    """
    lam, x = _kkt_inputs(inst, lam, x, duals)
    _, margin, slack, comp, sign = _kkt_terms(inst, lam, x, duals, own=False)
    return KKTResiduals(
        stationarity=float(np.max(np.abs(margin - duals.s))),
        complementarity=comp,
        # a type row's excess, sum_{j in t} x_ij - 1, is -slack exactly
        feasibility=max(
            float(np.max(np.abs(x.sum(axis=0) - inst.capacities))),
            float(np.max(-slack, initial=0.0)),
            float(np.max(np.maximum(-x, 0.0))),
        ),
        dual_sign=max(float(np.max(np.maximum(duals.s, 0.0))), sign),
    )


@dataclass
class BudgetGapReport:
    """Unspent budget vs type-dual sums under the unperturbed program."""

    gaps: np.ndarray              # w_i - p . x_i
    r_sums: np.ndarray            # sum_t r_it
    identity_residuals: np.ndarray  # |gap - r_sum|
    unspent_witness: bool            # some agent retains budget beyond tol
    max_identity_residual: float


def sop1_budget_gap(inst: MarketInstance, tol: float = 1e-6) -> BudgetGapReport:
    """Solve the unperturbed program and audit the per-agent identity
    w_i - sum_j p_j x_ij = sum_t r_it implied by its optimality system."""
    x, duals, stats = solve_sop1(inst)
    if not stats.success:
        raise RuntimeError(f"social program solve failed with status {stats.status}")
    gaps = inst.budgets - x @ duals.p
    r_sums = duals.r.sum(axis=1)
    ident = np.abs(gaps - r_sums)
    return BudgetGapReport(
        gaps=gaps,
        r_sums=r_sums,
        identity_residuals=ident,
        unspent_witness=bool(np.any(r_sums > tol)),
        max_identity_residual=float(ident.max()),
    )


class NotAtFixedPointError(ValueError):
    """The supplied perturbations are not self-consistent with the duals."""


@dataclass
class CrossCheckReport:
    """Residuals of the individual problem's optimality system built from
    social-program duals at a fixed point."""

    y: np.ndarray                 # budget duals, one per agent
    stationarity: float           # positive part of u_ij - y_i p_j - sum r~ A
    complementarity: float        # |x * stationarity margin|, |r~ * type slack|
    budget_residual: float        # |p . x_i - w_i|
    sign_violation: float
    max_residual: float
    passed: bool


def kkt_crosscheck(
    inst: MarketInstance, lam, x, duals: DualBundle, tol: float = 1e-6
) -> CrossCheckReport:
    """Verify that scaled social duals solve each agent's own problem.

    At a fixed point the scalings y_i = (u_i . x_i)/(w_i + lam_i) and
    r~_it = y_i r_it turn the social stationarity system into each
    individual problem's system; this check rebuilds those duals and
    measures every residual.  Its inputs must be as ``kkt_residuals``
    asks, else ValueError.  Refuses (NotAtFixedPointError) when
    ||lam - sum_t r_it|| > FIXED_POINT_EPS, since the construction is only
    valid at a fixed point.
    """
    lam, x = _kkt_inputs(inst, lam, x, duals)
    drift = float(np.linalg.norm(lam - duals.r.sum(axis=1)))
    if drift > FIXED_POINT_EPS:
        raise NotAtFixedPointError(
            f"perturbations are {drift:g} from the dual sums "
            f"(limit {FIXED_POINT_EPS:g})"
        )

    y, margin, _, comp, sign = _kkt_terms(inst, lam, x, duals, own=True)
    stationarity = float(np.max(np.maximum(margin, 0.0)))
    budget_residual = float(np.max(np.abs(x @ duals.p - inst.budgets)))
    sign = max(float(np.max(np.maximum(-y, 0.0))), sign)
    worst = max(stationarity, comp, budget_residual, sign)
    return CrossCheckReport(
        y=y,
        stationarity=stationarity,
        complementarity=comp,
        budget_residual=budget_residual,
        sign_violation=sign,
        max_residual=worst,
        passed=worst <= tol,
    )


def _kkt_inputs(inst: MarketInstance, lam, x, duals: DualBundle):
    """lam and x as float arrays, once the inputs of a KKT audit are as
    ``kkt_residuals`` asks."""
    n, m = inst.n_agents, inst.n_goods
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n,) or not np.all(np.isfinite(lam)):
        raise ValueError(f"lam must be a finite array of length {n}")
    if np.any(lam < -1e-12):  # the solver's rule
        raise ValueError("lam must be nonnegative")
    x = _allocation(inst, x)
    for name, shape in (("p", (m,)), ("r", (n, inst.n_types)), ("s", (n, m))):
        if np.shape(getattr(duals, name)) != shape:
            raise ValueError(f"duals.{name} must have shape {shape}")
    return lam, x


def _kkt_terms(inst: MarketInstance, lam, x, duals: DualBundle, own: bool):
    """The algebra both KKT audits share, at checked inputs:
    ``(y, margin, slack, comp, sign)``.

    With c = w + lam and yhat_i = u_i . x_i, the margin is the social
    program's (c_i / yhat_i) u_ij - p_j - sum_t r_it A_tj and y is None; with
    ``own``, it is agent i's own problem's u_ij - y_i p_j - sum_t r~_it A_tj,
    with budget duals y_i = yhat_i / c_i and type duals r~ = y r.  The type
    duals (r or r~) and slack, each type row's 1 - sum_{j in t} x_ij, are zero
    off the participating pairs.  comp is the largest |x * margin| or
    |duals * slack|, sign the largest negative type dual.  The social margin
    divides by yhat, so there a nonpositive yhat raises ZeroUtilityError.
    """
    U, A, part = inst.utilities, inst.incidence, inst.participation
    c = inst.budgets + lam
    yhat = np.einsum("ij,ij->i", U, x)
    r = np.where(part, duals.r, 0.0)
    if own:
        y = yhat / c
        r = y[:, None] * r
        margin = U - y[:, None] * duals.p[None, :] - r @ A
    else:
        if np.any(yhat <= 0.0):
            raise ZeroUtilityError(int(np.argmin(yhat)))
        y = None
        margin = (c / yhat)[:, None] * U - duals.p[None, :] - r @ A
    slack = np.where(part, 1.0 - x @ A.T, 0.0)
    comp = max(
        float(np.max(np.abs(x * margin))),
        float(np.max(np.abs(r * slack), initial=0.0)),
    )
    return y, margin, slack, comp, float(np.max(-r, initial=0.0))


@dataclass
class GridScanResult:
    min_residual: float
    argmin_price: np.ndarray
    points_evaluated: int
    points_skipped: int
    near_clearing: list = field(default_factory=list)  # prices under record_below


def grid_nonexistence(
    inst: MarketInstance,
    p_max: float,
    step: float,
    record_below: float | None = None,
) -> GridScanResult:
    """Scan the price grid {0, step, ..., p_max}^m for near-equilibria.

    At each grid price the residual is the worse of the clearing and
    budget deviations under the deterministic greedy demand; the minimum
    over the grid (ties resolved to the lexicographically smallest price)
    bounds how close any grid price comes to clearing the market.  Grid
    points whose demand is unbounded (free valued cap-free goods on the
    zero faces) are skipped and counted.  With ``record_below`` set, every
    grid price whose residual falls below it is kept (up to 1000, in
    lexicographic order), which is how non-uniqueness shows up in a scan.
    Demand comes from ``demand_prices``, SCAN_CHUNK grid prices at a time.
    """
    m = inst.n_goods
    if m > 3:
        raise ValueError("grid scan supports at most 3 goods")
    if not (0 < step < np.inf and 0 < p_max < np.inf):
        raise ValueError("p_max and step must be positive and finite")
    with np.errstate(over="ignore"):  # arange's length, before the axis is built
        size = np.ceil((p_max + step / 2) / step) ** m
    if size > MAX_GRID_POINTS:
        raise ValueError(f"grid too large ({size:.3g} points > {MAX_GRID_POINTS:g})")
    axis = np.arange(0.0, p_max + step / 2, step)
    size = len(axis) ** m

    best = np.inf
    argmin = None
    evaluated = skipped = 0
    near: list[np.ndarray] = []
    for start in range(0, size, SCAN_CHUNK):
        # flat indices in itertools.product order: the last coordinate runs fastest
        flat = np.arange(start, min(start + SCAN_CHUNK, size))
        P = axis[np.stack(np.unravel_index(flat, (len(axis),) * m), axis=1)]
        total = np.zeros((len(P), m))
        spends = np.empty((len(P), inst.n_agents))
        skip = np.zeros(len(P), dtype=bool)
        for i in range(inst.n_agents):
            X, spends[:, i], unbounded = demand_prices(inst, i, P)
            total += X
            skip |= unbounded
        P = P[~skip]
        res = np.maximum(
            np.max(np.abs(total[~skip] - inst.capacities), axis=1),
            np.max(np.abs(spends[~skip] - inst.budgets), axis=1),
        )
        evaluated += len(P)
        skipped += int(skip.sum())
        if len(P) and res.min() < best:
            k = int(np.argmin(res))
            best, argmin = float(res[k]), P[k].copy()
        if record_below is not None:
            near.extend(P[res <= record_below][: 1000 - len(near)])
    return GridScanResult(
        min_residual=best,
        argmin_price=argmin,
        points_evaluated=evaluated,
        points_skipped=skipped,
        near_clearing=near,
    )


def existence_condition(inst: MarketInstance) -> bool:
    """Sufficient condition for an equilibrium to exist: some good is
    outside every type and every agent values every good strictly."""
    return bool(inst.untyped_goods) and bool(np.all(inst.utilities > 0))
