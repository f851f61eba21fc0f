"""Primal-dual interior-point solver for the social allocation programs.

Solves, for perturbations lam >= 0 (the plain social program is lam = 0):

    maximize    sum_i (w_i + lam_i) * log(u_i . x_i)
    subject to  sum_i x_ij = capacity_j          for every good j
                sum_{j in t} x_ij <= 1           for participating (i, t)
                x >= 0

and returns the allocation together with the dual variables the mechanism
needs: capacity duals p (the candidate prices), type-constraint duals
r[i, t], and nonnegativity duals s[i, j] <= 0, all satisfying stationarity
and complementary slackness to the requested tolerance.

The Newton systems decouple: the objective Hessian is block diagonal per
agent (rank one per block) and every type row touches a single agent, so
each step solves one block per agent plus one m-by-m Schur system for the
capacity duals.  Agent i's block is its barrier diagonal plus one rank-one
term per type row it holds plus beta_i u_i u_i^T; ``structured_newton``
factors it as LDL^T by rank-one updates, kept as O(m) numbers per agent.
Each step solves for two directions with one factor (Mehrotra, SIAM J.
Optim. 1992).  The predictor only sets the centering and the corrector's
second-order term, so it is solved once.  The corrector is the direction
the step takes, and ``refined_solve`` refines it in working precision
only until its componentwise backward error is at the rounding level of
one block row, so an accurate first solve is not repeated.  A type row of a
single good is only a diagonal term, so when no type row holds two goods,
as in a market of two-good tight types once each has one good substituted
out (below), the factor's type part is the identity and is skipped.

Layout: the reduced program's iterate is one complementary pair, the
primal v = (x, xi) and the dual w = (z, r), each a flat vector of length
N, the kept goods times the agents plus the slack rows (Wright,
Primal-Dual Interior-Point Methods, 1997).  So mu, the step bound, the
neighborhood test and the update each act once on v and w.  x and z are
goods-major views of the first entries, and so is the whole Newton
system: every (good, agent) array is (m, n), m the kept goods and n the
agents, contiguous along agents.  The slack rows are the True cells of
the participation mask's (T, n) grid, in its type-major order.  Sums
over agents (the capacity rows and the Schur matrix's diagonal) run
along contiguous rows, where numpy sums pairwise (Higham, SIAM J. Sci.
Comput. 1993) rather than one agent after another, and the per-agent
scalings and the Schur diagonal's gathers act on whole rows.  Only the
returned x, s and r are agent-major, transposed once at the end.

Set-up: solves of one market differ only in the objective weights
c = w + lam, so all else is built once per market object, on its first
solve, as its reduced program (``_Program``): each agent's power-of-two
utility scale, the tight-type substitution below (the kept and
substituted goods, the reduced utilities U and the substituted goods'
utility), the kept goods' type incidence A and capacities, the
participation grid of the slack rows, and the Newton structure that
``structured_newton`` sets up; its methods hold the iterate's algebra.
It is weakly keyed by that object, freed with it and written by no solve;
``validate_instance`` likewise checks a market once and hands each call a
copy of its report.  Once per solve come c, the start (``_warm_start`` or
``_cold_start``, below), the Newton loop of ``_solve`` and the map back
to the unreduced program, ``_unreduce``; once per iterate, in that loop,
the Newton factor, the predictor and the refined corrector, one step
bound for the pair (v, w) and the search for a step inside the
neighborhood.

Degenerate-tight types: when a type's goods have total capacity exactly
equal to its participating-agent count and every agent participates, the
type inequalities are implied equalities with zero slack, which a barrier
cannot hold.  Every agent then holds exactly one unit of the type, so its
last good is one minus the type's other goods, and it is substituted out
once per market (exact elimination of the equality rows; Nocedal & Wright,
Numerical Optimization, section 15.3).  The type becomes an ordinary slack
row over its other goods whose slack is the substituted good, and that
good's capacity row, implied by the others, is dropped.  The type duals
of the unreduced program are then determined only up to a per-type shift
moved between p and r, so the returned duals are normalized by shifting
along that direction until min_i r[i, t] = 0, which keeps every Karush-
Kuhn-Tucker identity intact and r nonnegative.

Warm starts: programs at different lam share their feasible set and
differ only in the objective weights c = w + lam, so a solve can start
from an iterate (v, w, p) of an earlier solve's reduced program
(Gondzio & Grothey, SIAM J. Optim. 2002; Yildirim & Wright, SIAM J.
Optim. 2002).  Its primal residuals carry over exactly, and it is taken
when its stationarity residual under the new c is at most WARM_START_GAP
times its mu, so that it lies near enough to the new central path.  The
latest such iterate of the path is used, which skips the early steps,
but never the last, the converged one: its mu is below the solver
tolerance while the dual sums it gives are good only to about 6e-5, and
a fixed point whose solves start there wanders within that error for
extra solves.  The optimal duals need not be unique, and where they are
not a warm path can end elsewhere on the face of optimal duals than the
cold path.  So every converged solve given a ``start`` reports whether
its duals are pinned by its support (``_duals_pinned``), and a warm
solve is kept only when they are; otherwise the cold solve runs as well
and its result is returned, bit for bit that of a solve without
``start``.  The solver decides which paths are offered: a solve given a
``start`` offers its path (a fallback's cold one) only when its duals are
pinned, and the path belongs to that market object alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .instances import MarketInstance, validate_instance

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# a stored iterate other than the last may start a solve whose objective
# weights moved when its stationarity residual under the new weights is at
# most this times its mu, which lets a warm solve skip its early steps
WARM_START_GAP = 1e4


class InfeasibleInstanceError(ValueError):
    """A type that every agent joins has more capacity than agents."""


class ZeroUtilityError(RuntimeError):
    """An agent's aggregate utility hit zero inside the log domain."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"agent {agent + 1} was forced to zero utility")


@dataclass
class DualBundle:
    """Dual variables of one converged solve.

    p: (m,) capacity duals (candidate prices).
    r: (n, T) type duals, nonnegative after tight-type normalization;
       zero at non-participating pairs.
    s: (n, m) nonnegativity duals, nonpositive.
    objective: attained value of the budget-weighted log objective.
    """

    p: np.ndarray
    r: np.ndarray
    s: np.ndarray
    objective: float


@dataclass(frozen=True, eq=False)
class CentralPath:
    """The iterates of one solve's reduced program, first to last.

    Each is ``(v, w, p, mu)``: the primal v = (x, xi) and the dual
    w = (z, r), flat and of one length, the capacity duals p, and
    mu = v . w / len(v) (module docstring).  The arrays are never written
    after they are stored.  Only a solve whose duals are pinned offers its
    path, bound to its ``market`` object.  Pass it back to ``solve_bpsop``
    as ``start`` to solve that object at other perturbations; a non-empty
    path of another object is refused, and an empty path starts cold.
    """

    iterates: tuple = ()
    market: MarketInstance | None = None


@dataclass
class SolveStats:
    iterations: int
    stationarity_residual: float
    primal_feasibility_residual: float
    complementarity_residual: float
    # converged | degenerate_tight, or why the solve stopped short:
    # diverged (residuals grew 1e4-fold over the best iterate) or max_iter
    status: str
    tight_types: tuple[int, ...] = ()
    # largest infinity-norm residual of the linear system of a direction a
    # step took (the refined corrector, not the predictor) over the solve,
    # measured on the direction that refinement returned; refinement stops
    # once the direction is backward stable, so an accurate step keeps it
    # near rounding level
    direction_residual: float = 0.0
    # cold (the default interior point), warm (an iterate of ``start``) or
    # fallback (warm, then cold because the warm solve failed or left its
    # duals unpinned; ``iterations`` counts both), and the mu of the
    # iterate the solve started from
    start: str = "cold"
    start_mu: float = float("nan")
    # given a ``start``: this solve's path (a fallback's: its cold solve's)
    # when its duals are pinned, else an empty one; None without a ``start``
    path: CentralPath | None = field(default=None, repr=False, compare=False)
    # whether the support of the returned iterate pins its duals; checked
    # only on a converged solve given a ``start``, else None
    duals_pinned: bool | None = None

    @property
    def success(self) -> bool:
        return self.status in ("converged", "degenerate_tight")


@dataclass(frozen=True, eq=False)
class _Program:
    """One market's reduced program: all of a solve that the objective
    weights c = w + lam do not enter (module docstring), and the algebra of
    its iterate (v, w) = ((x, xi), (z, r)), with x and z goods-major (m', n)
    and xi and r on the slack rows.  ``_program`` builds it once per market;
    no solve writes it."""

    power: np.ndarray  # (n,) agent i's utilities are scaled by 2^-power_i
    U_full: np.ndarray  # (n, m) the scaled utilities, agent-major
    incidence: np.ndarray  # (T, m) the market's type incidence
    tight: list  # the degenerate-tight types
    sub: np.ndarray  # the good substituted out of each tight type
    keep: np.ndarray  # (m,) mask of the goods kept
    U: np.ndarray  # (m', n) reduced utilities of the kept goods, goods-major
    y_sub: np.ndarray  # (n,) utility of the substituted goods, one unit each
    A: np.ndarray  # (T, m') type incidence of the kept goods
    sbar: np.ndarray  # (m',) capacities of the kept goods
    rows: np.ndarray  # (T, n) participation grid; its True cells are the slack rows
    newton: Callable  # structured_newton(U, A)

    def split(self, u):
        """The (m', n) view and the slack-row entries of a flat v or w."""
        nx = self.U.size
        return u[:nx].reshape(self.U.shape), u[nx:]

    def by_pair(self, v):
        """(T, n) array of slack-row values v."""
        out = np.zeros(self.rows.shape)
        out[self.rows] = v
        return out

    def row_sums(self, v):
        """Sums of v over the goods of each slack row."""
        return (self.A @ v)[self.rows]

    def utility(self, x):
        """yhat, each agent's aggregate utility in the unreduced program."""
        return (self.U * x).sum(axis=0) + self.y_sub

    def dual_residual(self, c, z, r, p, yhat):
        """The stationarity residual at objective weights c."""
        # types are disjoint, so each (good, agent) carries at most one dual
        return -(c / yhat) * self.U + p[:, None] + self.A.T @ self.by_pair(r) - z


# each market's reduced program, keyed weakly by the market (``_program``)
_PROGRAMS = weakref.WeakKeyDictionary()


@dataclass
class KKTResiduals:
    """Independent residuals of the first-order optimality system."""

    stationarity: float
    complementarity: float
    feasibility: float
    dual_sign: float

    @property
    def max_residual(self) -> float:
        return max(
            self.stationarity, self.complementarity, self.feasibility, self.dual_sign
        )


def solve_sop1(
    inst: MarketInstance, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
):
    """Social program without budget perturbation (lam = 0)."""
    return solve_bpsop(inst, np.zeros(inst.n_agents), tol=tol, max_iter=max_iter)


def solve_bpsop(
    inst: MarketInstance,
    lam,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: CentralPath | None = None,
) -> tuple[np.ndarray, DualBundle, SolveStats]:
    """Solve the program at perturbations ``lam`` (module docstring).

    ``start``, the ``stats.path`` of an earlier solve of the same market
    object or an empty ``CentralPath()``, lets the solve start warm, with
    the cold fallback of the module docstring, checks
    ``stats.duals_pinned`` and offers ``stats.path`` only when it holds.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    rep = validate_instance(inst)
    if rep.errors:
        if any("clearing infeasible" in e for e in rep.errors):
            raise InfeasibleInstanceError("; ".join(rep.errors))
        raise ValueError("invalid instance: " + "; ".join(rep.errors))

    lam = np.asarray(lam, dtype=float)
    if lam.shape != (inst.n_agents,):
        raise ValueError(f"lam must have length {inst.n_agents}")
    if not np.all(np.isfinite(lam)) or np.any(lam < -1e-12):
        raise ValueError("lam must be finite and nonnegative")
    if start is not None and start.iterates and start.market is not inst:
        raise ValueError("start is not a path of this market")

    c = inst.budgets + np.maximum(lam, 0.0)
    x, duals, stats = _solve(inst, c, tol, max_iter, start)
    if stats.start == "warm" and not stats.duals_pinned:
        x, duals, cold = _solve(inst, c, tol, max_iter, CentralPath())
        stats = replace(
            cold,
            iterations=stats.iterations + cold.iterations,
            start="fallback",
            start_mu=stats.start_mu,
        )
    return x, duals, stats


def _program(inst: MarketInstance) -> _Program:
    """``inst``'s reduced program, built on its first solve.

    It is weakly keyed by that market object and freed with it.  It holds
    no reference to the market, so it does not keep its key alive.
    """
    program = _PROGRAMS.get(inst)
    if program is None:
        program = _PROGRAMS[inst] = _reduce(inst)
    return program


def _reduce(inst: MarketInstance) -> _Program:
    """Build the reduced program of a valid market (``_Program``)."""
    m = inst.n_goods

    # Each agent's utilities are scaled by the power of two that brings
    # their largest into [0.5, 1).  That scales yhat_i by the same power
    # and leaves c_i u_ij / yhat_i, so the program's solution, exactly, and
    # every rounding of the Newton step; but beta = c / yhat^2 and the
    # Schur matrix no longer overflow or underflow at extreme scales.
    _, power = np.frexp(inst.utilities.max(axis=1))
    U_full = np.ldexp(inst.utilities, -power[:, None])

    # Substitute out each tight type t's last good k (module docstring):
    # x_ik = 1 - sum_{j in t \ k} x_ij is the slack of t's row, the utilities
    # on t \ k become u_j - u_k, and the constant u_ik moves into yhat_i.
    # Every (good, agent) array of the reduced program is goods-major.
    incidence = inst.incidence
    tight = list(inst.tight_types)
    sub = (incidence[tight] * np.arange(m)).argmax(axis=1)  # the k of each type
    keep = np.ones(m, dtype=bool)
    keep[sub] = False
    U = U_full.T[keep] - incidence[np.ix_(tight, keep)].T @ U_full.T[sub]
    A = np.ascontiguousarray(incidence[:, keep])
    sbar = inst.capacities[keep]
    y_sub = U_full[:, sub].sum(axis=1)
    # slack rows: the participating cells of the (T, n) grid, type-major
    rows = np.ascontiguousarray(inst.participation.T)
    for a in (power, U_full, sub, keep, U, y_sub, A, sbar, rows):
        a.setflags(write=False)
    newton = structured_newton(U, A)
    return _Program(power, U_full, incidence, tight, sub, keep, U, y_sub, A, sbar, rows, newton)


def _solve(inst: MarketInstance, c, tol, max_iter, start):
    """One solve of ``inst``'s reduced program at objective weights ``c``:
    ``solve_bpsop`` for valid arguments, without the cold fallback."""
    program = _program(inst)
    warm = _warm_start(program, c, start)
    v, w, p = warm if warm is not None else _cold_start(program, c)
    N = len(v)

    stat = pfeas = comp = np.inf
    status = "max_iter"
    direction_residual = 0.0
    best_metric = np.inf
    best_state = None
    path = [] if start is not None else None

    # the Newton loop's lookups, bound once; its structure is the program's
    A, sbar, newton = program.A, program.sbar, program.newton
    split, by_pair, row_sums = program.split, program.by_pair, program.row_sums
    utility, dual_residual = program.utility, program.dual_residual

    for it in range(1, max_iter + 1):
        (x, xi), (z, r) = split(v), split(w)
        yhat = utility(x)
        if np.any(yhat <= 0.0):
            raise ZeroUtilityError(int(np.argmin(yhat)))
        r_dual = dual_residual(c, z, r, p, yhat)
        r_cap = x.sum(axis=1) - sbar
        r_ineq = row_sums(x) + xi - 1.0
        vw = v * w
        mu = vw.sum() / N
        if it == 1:
            start_mu = float(mu)
        if path is not None:
            # the iterates are rebound at each step, never written in place
            path.append((v, w, p, mu))
        # a market whose goods were all substituted keeps no capacity row
        stat = float(np.max(np.abs(r_dual), initial=0.0))
        pfeas = max(
            float(np.max(np.abs(r_cap), initial=0.0)),
            float(np.max(np.abs(r_ineq), initial=0.0)),
        )
        comp = float(vw.max(initial=0.0))
        metric = max(stat, pfeas, comp)
        if metric <= best_metric:
            best_metric = metric
            # the iterates are rebound at each step, never written in place
            best_state = (v, w, p, stat, pfeas, comp)
        if stat <= tol and pfeas <= tol and comp <= tol:
            status = "converged"
            break
        if it > 5 and metric > 1e4 * best_metric:
            status = "diverged"  # fall back to the best iterate seen
            break
        min_prod = float(vw.min(initial=np.inf))

        beta = c / yhat**2
        d = z / x
        gamma = by_pair(r / xi)
        solve = apply = None  # let the last iterate's system go first
        solve, apply = newton(beta, d, gamma)

        def _direction(target, refine):
            """The Newton step (dv, dw, dp) toward v * w = target, and the
            residual of its linear system if it was refined, else 0."""
            target_x, target_xi = split(target)
            b = -r_dual + target_x / x
            b -= A.T @ by_pair((target_xi + r * r_ineq) / xi)
            if refine:
                dx, dp, err = refined_solve(solve, apply, b, -r_cap)
            else:
                (dx, dp), err = solve(b, -r_cap), 0.0
            dv = np.concatenate([dx.ravel(), -r_ineq - row_sums(dx)])
            dw = (target - w * dv) / v
            return (dv, dw, dp), err

        # predictor: it only sets sigma and the corrector's second-order
        # term, so it is solved once with the factor
        (dva, dwa, _), _ = _direction(-vw, refine=False)
        alpha_aff = min(1.0, _pair_step(v, dva, w, dwa))
        mu_aff = ((v + alpha_aff * dva) * (w + alpha_aff * dwa)).sum() / N
        sigma = min(0.99, max(1e-8, (mu_aff / mu) ** 3))
        if min_prod < 1e-2 * mu:
            sigma = max(sigma, 0.5)  # recenter when products are unbalanced
        if mu < 0.1 * (stat + pfeas):
            sigma = max(sigma, 0.9)  # hold mu while other residuals catch up

        # corrector with centering, the direction the step takes: the blocks
        # are badly conditioned near degenerate optima, so it is refined
        # until it is backward stable
        (dv, dw, dp), err = _direction(sigma * mu - vw - dva * dwa, refine=True)
        direction_residual = max(direction_residual, err)
        tau = min(0.9995, max(0.99, 1.0 - mu))
        # fraction to the boundary: alpha = min(1, tau alpha_max); rounding
        # is monotone, so tau times the pair's bound is the smaller of tau
        # times each vector's
        alpha = min(1.0, tau * _pair_step(v, dv, w, dw))
        v, w, alpha = _neighborhood_step(v, dv, w, dw, alpha)
        p = p + alpha * dp

    if status != "converged" and best_state is not None:
        v, w, p, stat, pfeas, comp = best_state
    pinned = None
    if start is not None and status == "converged":
        (x, xi), (z, r) = split(v), split(w)
        pinned = _duals_pinned(x, z, xi, r, A, program.rows)
    if path is not None:
        path = CentralPath(tuple(path), inst) if pinned else CentralPath()
    x_full, duals = _unreduce(program, c, v, w, p)
    if status == "converged" and program.tight:
        status = "degenerate_tight"
    stats = SolveStats(
        iterations=it,
        stationarity_residual=stat,
        primal_feasibility_residual=pfeas,
        complementarity_residual=comp,
        status=status,
        tight_types=tuple(program.tight),
        direction_residual=direction_residual,
        start="cold" if warm is None else "warm",
        start_mu=start_mu,
        path=path,
        duals_pinned=pinned,
    )
    return x_full, duals, stats


def _warm_start(program: _Program, c, start):
    """``(v, w, p)`` of the latest iterate of the path ``start`` but its
    converged last one whose stationarity residual under the weights ``c``
    is within WARM_START_GAP of its mu, else None (module docstring): a
    path of this market object, checked by ``solve_bpsop``."""
    for vs, ws, ps, mu_s in reversed(start.iterates[:-1] if start is not None else ()):
        (xs, _), (zs, rs) = program.split(vs), program.split(ws)
        gap = program.dual_residual(c, zs, rs, ps, program.utility(xs))
        if np.abs(gap).max(initial=0.0) <= WARM_START_GAP * mu_s:
            return vs, ws, ps
    return None


def _cold_start(program: _Program, c):
    """``(v, w, p)`` of the default interior point at the weights ``c``:
    every agent holds an equal share of each kept good, z and r are the
    unreduced objective's gradient (a substituted good's on its type row's
    r) plus 0.1 max(1, its largest entry), and p = 0."""
    sbar = program.sbar
    n = program.U_full.shape[0]
    x = np.repeat((sbar / n)[:, None], n, axis=1)
    grad_scale = (c / program.utility(x)) * program.U_full.T
    delta0 = 0.1 * max(1.0, float(grad_scale.max()))
    z = grad_scale[program.keep] + delta0
    r = program.by_pair(delta0)
    r[program.tight] += grad_scale[program.sub]
    r = r[program.rows]
    xi = np.maximum(1.0 - program.row_sums(x), 0.005)
    v = np.concatenate([x.ravel(), xi])
    w = np.concatenate([z.ravel(), r])
    return v, w, np.zeros(len(sbar))


def _unreduce(program: _Program, c, v, w, p):
    """The agent-major allocation and ``DualBundle`` of the unreduced
    program at the reduced iterate (v, w, p) and the weights ``c``."""
    (x, xi), (z, r) = program.split(v), program.split(w)
    tight, sub, keep, rows = program.tight, program.sub, program.keep, program.rows
    n, m = program.U_full.shape
    yhat = program.utility(x)
    objective = float(c @ np.log(np.ldexp(yhat, program.power)))

    # the substitution maps back: x_ik is the row's slack and z_ik its dual,
    # and the row's dual gains c_i u_ik / yhat_i, which leaves good k's
    # price at zero until the shift to min_i r[i, t] = 0 (module docstring)
    r_raw = np.zeros((n, len(rows)))
    r_raw.T[rows] = r
    x_full = np.zeros((n, m))
    z_full = np.zeros((n, m))
    x_full[:, keep] = x.T
    z_full[:, keep] = z.T
    x_full[:, sub] = program.by_pair(xi)[tight].T
    z_full[:, sub] = r_raw[:, tight]
    r_raw[:, tight] += (c / yhat)[:, None] * program.U_full[:, sub]
    p_full = np.zeros(m)
    p_full[keep] = p

    shift = np.zeros(len(rows))
    shift[tight] = r_raw[:, tight].min(axis=0)
    p_full += shift @ program.incidence
    return x_full, DualBundle(p=p_full, r=r_raw - shift, s=-z_full, objective=objective)


def _duals_pinned(x, z, xi, r, A, rows) -> bool:
    """Whether the support of a converged iterate pins its duals.

    ``x`` and ``z`` are goods-major (m, n); ``xi`` and ``r`` lie on the
    True cells of the (T, n) participation grid ``rows`` (module
    docstring).  Where x_ij > z_ij, stationarity is the equation p_j +
    r_ti = c_i u_ij / yhat_i, with t the type of good j, or p_j alone when
    cell (t, i) is no slack row: such a pair fixes p_j, an anchor.  A row
    with xi > r has r = 0, also an anchor.  In the graph over the goods and
    the slack rows with an edge for each held pair that links a good to a
    row, an anchor fixes every dual of its connected component; a
    component without one can shift its p up and its r down along a face
    of optimal duals.  The duals are pinned when every component holds an
    anchor: the anchors are spread along the edges, over every good and
    cell at once, until nothing changes.
    """
    held = x > z
    good_fixed = (held & ~(A.T @ rows > 0)).any(axis=1)
    row_fixed = np.zeros(rows.shape, dtype=bool)
    row_fixed[rows] = xi > r
    while True:
        goods = good_fixed | (held & (A.T @ row_fixed > 0)).any(axis=1)
        grid = row_fixed | (rows & (A @ (held & goods[:, None]) > 0))
        if np.array_equal(goods, good_fixed) and np.array_equal(grid, row_fixed):
            return bool(goods.all() and grid[rows].all())
        good_fixed, row_fixed = goods, grid


def _pair_step(v, dv, w, dw):
    """The largest step s with v + s dv >= 0 and w + s dw >= 0: the
    smaller of ``_least_step(v, dv)`` and ``_least_step(w, dw)``, under one
    ``errstate``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return min(_least_step(v, dv), _least_step(w, dw))


def _least_step(v, dv):
    """The largest step s with v + s dv >= 0, inf when no dv_k < 0, under
    the caller's ``errstate``.  v >= 0.  The bound is -v_k / dv_k =
    -1 / (dv_k / v_k) at the most negative ratio dv_k / v_k; ``fmin``
    skips the NaN of 0 / 0, where the step is free.  Rounding is monotone
    and -1 / rho grows with rho < 0, so an entry whose rounded ratio lies
    above the least has a rounded bound no smaller than those at the
    least.  Only those are divided, and the result is that of dividing
    every decreasing entry.
    """
    ratio = dv / v
    least = np.fmin.reduce(ratio, initial=np.inf)
    if not least < 0:
        return np.inf
    near = ratio == least
    return float((-v[near] / dv[near]).min())


def _neighborhood_step(v, dv, w, dw, alpha):
    """The step from (v, w) along (dv, dw) that stays inside a wide
    central-path neighborhood: ``(v + alpha dv, w + alpha dw, alpha)``.

    No complementarity product may collapse far below the average, so
    alpha is backed off by 0.75, at most 50 times, until every product is
    at least 1e-4 times their mean or alpha <= 1e-8.  The iterate that
    passed the test is the one returned; after the 50th back-off, whose
    alpha is never tested, the iterate is formed from it.
    """
    for _ in range(50):
        v_new = v + alpha * dv
        w_new = w + alpha * dw
        vw = v_new * w_new
        if vw.min(initial=np.inf) >= 1e-4 * (vw.sum() / len(v)) or alpha <= 1e-8:
            return v_new, w_new, alpha
        alpha *= 0.75
    return v + alpha * dv, w + alpha * dw, alpha


def refined_solve(solve, apply, rhs, rhs_cap):
    """Solve one Newton system, refined until it is backward stable.

    ``solve`` and ``apply`` are those of a ``factor`` of
    ``structured_newton``.  After every solve the componentwise backward
    error of the block system (Oettli & Prager 1964; the stopping rule of
    LAPACK's xGERFS)

        omega = max_k |res|_k / (|K| |sol| + |rhs|)_k,

    over the agent rows and the capacity rows, is measured.  Refinement
    stops once omega is within (row length + 1) eps, the rounding bound of
    one block row's product (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 12.1-12.2), once the infinity norm of the
    residual no longer halves, or after 3 refinement steps.  ``rhs`` is
    goods-major (m, n) and ``rhs_cap`` (m,), so the row length is the
    block rows' m, ``rhs.shape[0]``, and the capacity rows, n entries each,
    are held to the same (m + 1) eps on purpose: refinement gets every
    refined direction below it (55 of the 149 directions of the
    ``experiment`` fixed point, 18 of 58 and 13 of 50 of the benchmark's
    200 x 60 and 1000-4000 x 7 slack solves, counting the correctors that
    ``_solve`` refines), while an (n + 1) eps bound there moves
    the duals of a structured solve away from a dense one's by more than
    1e-9 (``test_structured_solve_matches_dense_solve``).  |K| |sol| is
    taken as ``apply(|sol|, |dp|)``.  Every block entry is >= 0 except
    those of beta u u^T once a tight type is substituted out, whose
    utilities u_j - u_k can be negative; there ``apply(|sol|)`` can fall
    below |K| |sol|, so omega can only read high and the stop can only
    refine more, never less.

    Returns ``(sol, dp, residual)``, the residual's infinity norm as last
    measured (inf when it is not finite).
    """
    stable = (rhs.shape[0] + 1) * _EPS
    rhs_abs, rhs_cap_abs = np.abs(rhs), np.abs(rhs_cap)
    sol, dp = solve(rhs, rhs_cap)
    err = np.inf
    for refined in range(4):
        res, res_cap = apply(sol, dp)
        scale, scale_cap = apply(np.abs(sol), np.abs(dp))
        np.subtract(rhs, res, out=res)
        np.subtract(rhs_cap, res_cap, out=res_cap)
        res_abs, res_cap_abs = np.abs(res), np.abs(res_cap)
        # omega's ratios |res| / max(|K| |sol| + |rhs|, tiny), formed in the
        # scale arrays; a row that is zero throughout has no error, and a
        # program whose goods were all substituted out has no rows
        scale += rhs_abs
        scale_cap += rhs_cap_abs
        np.maximum(scale, _TINY, out=scale)
        np.maximum(scale_cap, _TINY, out=scale_cap)
        omega = max(
            np.divide(res_abs, scale, out=scale).max(initial=0.0),
            np.divide(res_cap_abs, scale_cap, out=scale_cap).max(initial=0.0),
        )
        new_err = max(
            float(res_abs.max(initial=0.0)), float(res_cap_abs.max(initial=0.0))
        )
        halved = new_err < 0.5 * err
        err = new_err if np.isfinite(new_err) else np.inf
        if omega <= stable or not halved or refined == 3:
            break
        dsol, ddp = solve(res, res_cap)
        sol += dsol
        dp += ddp
    return sol, dp, err


def structured_newton(U, A):
    """The Newton systems of a program without tight types, by an LDL^T
    factor of every block kept as O(m) numbers per agent.

    Every (good, agent) array is goods-major (module docstring): ``U`` is
    (m, n), agent i's utilities its column i, and ``A`` the (T, m) type
    incidence.  Returns ``factor(beta, d, gamma)``, which builds the system
    of one iterate from beta (n,), the barrier diagonals d (m, n) and the
    type-row weights gamma (T, n).  Agent i's block K_i = diag(d_i) +
    sum_t gamma_it a_t a_t^T + beta_i u_i u_i^T, with a_t row t of ``A``;
    the capacity rows couple the blocks.  ``factor`` returns
    ``solve(rhs, rhs_cap) -> (sol, dp)``, which solves the system for
    per-agent right-hand sides ``rhs`` (m, n) and the capacity right-hand
    side ``rhs_cap`` (m,), and ``apply(sol, dp) -> (lhs, cap)``, its
    product, with ``sol`` and ``lhs`` (m, n).

    K_i is factored by positive rank-one updates (method C1 of Gill,
    Golub, Murray & Saunders, Math. Comp. 1974), which stay accurate where
    a Sherman-Morrison inverse of the same matrix does not.  Starting from
    diag(d_i), the disjoint type terms give a unit lower triangular factor
    L_T that couples each good only with the earlier goods of its type, and
    beta_i u_i u_i^T then gives one more, L_u, over all goods:

        K_i = L_T L_u D_i L_u^T L_T^T.

    A type of one good only adds gamma_it to that good's diagonal, so when
    no type row of ``A`` holds two goods, L_T = I exactly: its solves return
    their argument, and the products with the in-type pairs, all zero, are
    not taken.

    An update of a diagonal c by weight alpha along v gives the factor
    I + strictly-lower(v b^T), with the update weight before good j,
    alpha_j = alpha / (1 + alpha sum_{k<j} v_k^2 / c_k), and
    b_j = v_j alpha_j / (c_j + alpha_j v_j^2).  A triangular solve with it
    is a running sum that each good scales by alpha_{j+1} / alpha_j, so it
    takes the closed form

        (L^{-1} y)_j   = y_j - v_j alpha_j sum_{k<j} v_k y_k / c_k
        (L^{-T} y)_j   = y_j - (v_j / c_j) sum_{k>j} alpha_k v_k y_k,

    a product with a fixed 0/1 triangular matrix, ``earlier.T @ v``.  Those
    products cost O(m^2) per agent but run as one (m, m) by (m, n) matrix
    product over all agents, which is faster than O(m) running sums over
    the goods up to about a hundred goods.  Nothing of size n x m x m is
    formed.  The capacity Schur matrix sum_i K_i^{-1} is summed from the
    same quantities, along the rows.
    """
    m = U.shape[0]
    # earlier[k, j] = 1 when good k comes before good j; in_type keeps the
    # pairs within one type (types are disjoint)
    same_type = A.T @ A
    in_type = np.triu(same_type, 1)
    earlier = np.triu(np.ones((m, m)), 1)
    chain, gap = _type_chains(A)
    # masks of the goods k that have an (i + 1)-th later good in their type
    later = [nxt < m for nxt in chain.T[1:]]
    chained = in_type.any()  # else L_T = I

    def factor(beta, d, gamma):
        # L_T: each type's update along a_t from diag(d)
        dinv = 1.0 / d
        g = A.T @ gamma
        aT = g / (1.0 + g * (in_type.T @ dinv)) if chained else g
        dT = d + aT

        # The kernels below write their temporaries in place, with the same
        # roundings in the same order as the plain expressions in their
        # docstrings; none writes its argument or a factor array.

        def type_solve(v):
            """L_T^{-1} v = v - aT * (in_type.T @ (v * dinv)); v itself when
            L_T = I."""
            if not chained:
                return v
            t = in_type.T @ np.multiply(v, dinv)
            t *= aT
            return np.subtract(v, t, out=t)

        def type_solve_t(v):
            """L_T^{-T} v = v - dinv * (in_type @ (aT * v)); v itself when
            L_T = I."""
            if not chained:
                return v
            t = in_type @ np.multiply(aT, v)
            t *= dinv
            return np.subtract(v, t, out=t)

        # L_u: beta u u^T = L_T (beta w w^T) L_T^T with w = L_T^{-1} u, an
        # update of diag(dT)
        w = type_solve(U)
        wd = w / dT
        cum = earlier.T @ (w * wd)
        aw = w * (beta / (1.0 + beta * cum))
        D = dT + aw * w

        def solve_block(v):
            """K_i^{-1} v_i for every agent, through the factors:
            y = (y - aw * (earlier.T @ (wd * y))) / D, then
            y -= wd * (earlier @ (aw * y)), between the type solves."""
            y = type_solve(v)
            t = earlier.T @ np.multiply(wd, y)
            t *= aw
            y = np.subtract(y, t, out=t)
            y /= D
            t = earlier @ np.multiply(aw, y)
            t *= wd
            y -= t
            return type_solve_t(y)

        # S = sum_i K_i^{-1}.  Off the diagonal, with
        # M_i = K_i - beta_i u_i u_i^T,
        # M_i^{-1} = diag(1 / d_i) - sum_t coef_it (a_t / d_i)(a_t / d_i)^T,
        # coef_it the type update weight after its last good, and
        # K_i^{-1} = M_i^{-1} - omega_i h_i h_i^T with h_i = M_i^{-1} u_i and
        # omega_i = beta_i / (1 + beta_i u_i . h_i), the last weight of L_u
        # u_i . h_i, the weight sum through the last good, taken by slices
        # so that it is zero when every good was substituted out
        last = (cum[-1:] + w[-1:] * wd[-1:]).sum(axis=0)
        omega = beta / (1.0 + beta * last)
        h = type_solve_t(wd) * np.sqrt(omega)
        S = -(h @ h.T)
        if chained:  # else the type terms lie on the diagonal, summed below
            coef = g / (1.0 + g * (same_type @ dinv))
            S -= same_type * ((dinv * coef) @ dinv.T)
        # On the diagonal those terms cancel where d is tiny, so it is summed
        # from the factors instead: (K_i^{-1})_kk = sum_j G_jk^2 / D_j with
        # G = (L_T L_u)^{-1}.  Column k of L_T^{-1} is 1 at k and -aT_j / d_k
        # at the later goods j of k's type; L_u^{-1} turns it into
        # x_j - aw_j sig_j, where sig_j = sum_{l<j} wd_l x_l is constant
        # between those goods.
        tail = aw * aw / D
        sig = wd.copy()
        diag = 1.0 / D
        for i, k in enumerate(later):
            diag += sig * sig * (gap[i].T @ tail)
            if not k.any():
                break
            j = chain[k, i + 1]
            x = -aT[j] * dinv[k]
            step = x - aw[j] * sig[k]
            diag[k] += step * step / D[j]
            sig[k] += wd[j] * x
        S[np.diag_indices(m)] = diag.sum(axis=1)

        def solve(rhs, rhs_cap):
            sol = solve_block(rhs)
            dp = np.linalg.solve(S, sol.sum(axis=1) - rhs_cap)
            sol -= solve_block(dp[:, None])
            return sol, dp

        def apply(sol, dp):
            """lhs = d * sol + typed + beta * (U * sol).sum(axis=0) * U + dp,
            where typed, sum_t gamma_it a_t a_t^T sol_i, is g_i * sol_i when
            every type row holds one good."""
            lhs = d * sol
            t = np.multiply(U, sol)
            s = t.sum(axis=0)
            s *= beta
            if chained:
                lhs += A.T @ (gamma * (A @ sol))
            else:
                lhs += np.multiply(g, sol, out=t)
            lhs += np.multiply(U, s, out=t)
            lhs += dp[:, None]
            return lhs, sol.sum(axis=1)

        return solve, apply

    return factor


def _type_chains(A):
    """For every good k, the goods of its type from k on, and the gaps.

    ``chain[k, i]`` is the good i places after k in k's type (k itself at
    i = 0; an untyped good is its own type) or m past the type's last good.
    ``gap[i, j, k]`` is 1 when good j lies strictly between ``chain[k, i]``
    and ``chain[k, i + 1]``.
    """
    m = A.shape[1]
    size = int(A.sum(axis=1).max(initial=1))
    chain = np.full((m, size + 1), m)
    chain[:, 0] = np.arange(m)
    for row in A:
        goods = np.arange(m)[row > 0]
        for p, k in enumerate(goods):
            chain[k, 1 : len(goods) - p] = goods[p + 1 :]
    j = np.arange(m)[None, :, None]
    lo, hi = chain.T[:-1, None, :], chain.T[1:, None, :]
    gap = ((j > lo) & (j < hi) & (lo < m)).astype(float)
    return chain, gap


def kkt_residuals(inst: MarketInstance, lam, x, duals: DualBundle) -> KKTResiduals:
    """Residuals of the first-order system for any (x, duals) pair.

    Recomputes everything from the instance; independent of how the
    candidate solution was produced.  Raises ZeroUtilityError when some
    agent's aggregate utility is nonpositive (the objective gradient is
    then undefined).
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    U = inst.utilities
    A = inst.incidence
    c = inst.budgets + lam
    yhat = np.einsum("ij,ij->i", U, x)
    if np.any(yhat <= 0.0):
        raise ZeroUtilityError(int(np.argmin(yhat)))

    # a type's dual only exists for participating agents
    r_eff = np.where(inst.participation, duals.r, 0.0)
    type_sums = x @ A.T

    margin = (c / yhat)[:, None] * U - duals.p[None, :] - r_eff @ A
    stationarity = float(np.max(np.abs(margin - duals.s)))
    comp_x = float(np.max(np.abs(x * margin)))
    slack = np.where(inst.participation, 1.0 - type_sums, 0.0)
    comp_r = float(np.max(np.abs(r_eff * slack), initial=0.0))
    viol = np.where(inst.participation, type_sums - 1.0, 0.0)
    feasibility = max(
        float(np.max(np.abs(x.sum(axis=0) - inst.capacities))),
        float(np.max(viol, initial=0.0)),
        float(np.max(np.maximum(-x, 0.0))),
    )
    dual_sign = max(
        float(np.max(np.maximum(duals.s, 0.0))),
        float(np.max(-r_eff, initial=0.0)),
    )
    return KKTResiduals(
        stationarity=stationarity,
        complementarity=max(comp_x, comp_r),
        feasibility=feasibility,
        dual_sign=dual_sign,
    )
