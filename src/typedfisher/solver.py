"""Primal-dual interior-point solver for the social allocation programs.

Solves, for perturbations lam >= 0 (the plain social program is lam = 0):

    maximize    sum_i (w_i + lam_i) * log(u_i . x_i)
    subject to  sum_i x_ij = capacity_j          for every good j
                sum_{j in t} x_ij <= 1           for participating (i, t)
                x >= 0

and returns the allocation together with the dual variables the mechanism
needs: capacity duals p (the candidate prices), type-constraint duals
r[i, t], and nonnegativity duals s[i, j] <= 0, all satisfying stationarity
and complementary slackness to the requested tolerance.  The audit of that
first-order system at any candidate, ``kkt_residuals``, lives with the
other independent checks in ``verify``.

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
Primal-Dual Interior-Point Methods, 1997).  The pair is held as one
array y = (v, w) of length 2N, v and w its halves, and each Newton
direction is written into one array dy = (dv, dw) of the same layout.
So mu is one product of the halves, and the step bound, the
neighborhood test and the update each act once on y.  x and z are
goods-major views of the first entries of v and w, and so is the whole
Newton system: every (good, agent) array is (m, n), m the kept goods and
n the agents, contiguous along agents.  The slack rows are the True
cells of the participation mask's (T, n) grid, in its type-major order;
when every cell is True, as when every agent joins every type, a (T, n)
array of slack-row values is a reshape of the flat one, with no
scatter or gather.  Sums over agents (the capacity rows and the Schur
matrix's diagonal) run along contiguous rows, where numpy sums pairwise
(Higham, SIAM J. Sci. Comput. 1993) rather than one agent after
another, and the per-agent scalings and the Schur diagonal's gathers
act on whole rows.  Only the returned x, s and r are agent-major,
transposed once at the end.

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
``_cold_start``, below), the solve's storage, the Newton loop
(``_newton_loop``) and the map back to the unreduced program,
``_unreduce``.  The storage is one block that the solve's Newton system
(``newton._Newton``) allocates when the loop starts and that is dropped when it
returns, before the map back: the factor's arrays, a pool of work arrays
that the factor, the block solves, the product and the refinement share,
and the loop's direction, targets, step-bound ratios, trial iterates,
products v w, stationarity residual and right-hand side.  Each iterate
writes over it, so the heap neither grows nor shrinks inside the loop,
and no two solves share it.
Once per iterate, in that loop, come the Newton factor, in place, the
parts of the right-hand side that both directions share, the predictor
and the refined corrector, one step bound for the pair y = (v, w) per
direction and the search for a step inside the neighborhood; the
accepted iterate and what ``solve`` returns are new arrays, because the
path and the best iterate keep them.

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
from .newton import refined_solve, structured_newton

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
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
    w = (z, r), flat and of one length (the two halves of the solver's
    array y), the capacity duals p, and mu = v . w / len(v) (module
    docstring).  The arrays are never written
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
    full: bool  # every cell of ``rows`` is True, so the slack rows are the grid
    newton: Callable  # structured_newton(U, A); newton(extra) is one solve's system

    def split(self, u):
        """The (m', n) view and the slack-row entries of a flat v or w."""
        nx = self.U.size
        return u[:nx].reshape(self.U.shape), u[nx:]

    def by_pair(self, v):
        """(T, n) array of slack-row values v, zero off the slack rows; a
        view of v when the grid is full, so no caller writes it."""
        if self.full:
            return v.reshape(self.rows.shape)
        out = np.zeros(self.rows.shape)
        out[self.rows] = v
        return out

    def row_sums(self, v):
        """Sums of v over the goods of each slack row."""
        return (self.A @ v).ravel() if self.full else (self.A @ v)[self.rows]

    def utility(self, x):
        """yhat, each agent's aggregate utility in the unreduced program."""
        return (self.U * x).sum(axis=0) + self.y_sub

    def dual_residual(self, c, z, r, p, yhat, out):
        """The stationarity residual at objective weights c,
        -(c / yhat) * U + p + A.T @ by_pair(r) - z, written into ``out``."""
        # types are disjoint, so each (good, agent) carries at most one dual
        np.multiply(-(c / yhat), self.U, out=out)
        out += p[:, None]
        out += self.A.T @ self.by_pair(r)
        out -= z
        return out


# each market's reduced program, keyed weakly by the market (``_program``)
_PROGRAMS = weakref.WeakKeyDictionary()


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
    full = bool(rows.all())
    return _Program(
        power, U_full, incidence, tight, sub, keep, U, y_sub, A, sbar, rows, full, newton
    )


def _solve(inst: MarketInstance, c, tol, max_iter, start):
    """One solve of ``inst``'s reduced program at objective weights ``c``:
    ``solve_bpsop`` for valid arguments, without the cold fallback."""
    program = _program(inst)
    warm = _warm_start(program, c, start)
    path = [] if start is not None else None
    y, p, stats = _newton_loop(program, c, warm, tol, max_iter, path)
    N = len(y) // 2
    pinned = None
    if start is not None and stats.status == "converged":
        (x, xi), (z, r) = program.split(y[:N]), program.split(y[N:])
        pinned = _duals_pinned(x, z, xi, r, program.A, program.rows)
    if path is not None:
        path = CentralPath(tuple(path), inst) if pinned else CentralPath()
    x_full, duals = _unreduce(program, c, y[:N], y[N:], p)
    if stats.status == "converged" and program.tight:
        stats.status = "degenerate_tight"
    stats.tight_types = tuple(program.tight)
    stats.start = "cold" if warm is None else "warm"
    stats.path, stats.duals_pinned = path, pinned
    return x_full, duals, stats


def _newton_loop(program: _Program, c, warm, tol, max_iter, path):
    """The Newton loop of one solve from the iterate ``warm``, else from
    the cold start: the converged iterate, else the best one, as
    ``(y, p, stats)`` with y = (v, w) one array and stats' status
    converged, diverged or max_iter.  Each iterate is appended to ``path``
    unless it is None.  The loop's storage is dropped when it returns,
    before the map back allocates, so that the next solve finds the heap's
    space for its block whole; the start's pair, held only here, goes once
    the loop holds it as y."""
    v, w, p = warm if warm is not None else _cold_start(program, c)
    # the pair y = (v, w), and the solve's storage, one block that the
    # Newton system allocates with its own: each direction dy = (dv, dw),
    # a work array of y's length for the targets, the step bounds' ratios
    # and the trial iterates, the products v * w, and the stationarity
    # residual and the right-hand side b, both (m', n)
    N = len(v)
    y = np.concatenate([v, w])
    system = program.newton(5 * N + 2 * program.U.size)
    dy, work = system.extra[: 4 * N].reshape(2, 2 * N)
    vw = system.extra[4 * N : 5 * N]
    r_dual, b = system.extra[5 * N :].reshape((2,) + program.U.shape)
    dv, dw = dy[:N], dy[N:]
    dv_x, dv_xi = program.split(dv)
    target = work[:N]

    stat = pfeas = comp = np.inf
    status = "max_iter"
    direction_residual = 0.0
    best_metric = np.inf
    best_state = None

    # the Newton loop's lookups, bound once; its structure is the program's
    A, sbar = program.A, program.sbar
    split, by_pair, row_sums = program.split, program.by_pair, program.row_sums
    utility, dual_residual = program.utility, program.dual_residual

    for it in range(1, max_iter + 1):
        v, w = y[:N], y[N:]
        (x, xi), (z, r) = split(v), split(w)
        yhat = utility(x)
        if yhat.min() <= 0.0:
            raise ZeroUtilityError(int(np.argmin(yhat)))
        dual_residual(c, z, r, p, yhat, r_dual)
        r_cap = x.sum(axis=1) - sbar
        r_ineq = row_sums(x) + xi - 1.0
        np.multiply(v, w, out=vw)
        mu = vw.sum() / N
        if it == 1:
            start_mu = float(mu)
        if path is not None:
            # the iterates are rebound at each step, never written in place
            path.append((v, w, p, mu))
        # a market whose goods were all substituted keeps no capacity row
        stat = float(np.abs(r_dual).max(initial=0.0))
        pfeas = max(
            float(np.abs(r_cap).max(initial=0.0)), float(np.abs(r_ineq).max(initial=0.0))
        )
        comp = float(vw.max(initial=0.0))
        metric = max(stat, pfeas, comp)
        if metric <= best_metric:
            best_metric = metric
            # the iterates are rebound at each step, never written in place
            best_state = (y, p, stat, pfeas, comp)
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
        solve, apply = system.factor(beta, d, gamma)
        # the right-hand sides' parts that both directions share
        r_r_ineq, neg_r_cap, neg_r_ineq = r * r_ineq, -r_cap, -r_ineq

        def _direction(refine):
            """The Newton step toward v * w = target, written into dy =
            (dv, dw), with dp, and the residual of its linear system if it
            was refined, else 0; dy is free while b is formed."""
            target_x, target_xi = split(target)
            np.divide(target_x, x, out=b)
            np.subtract(b, r_dual, out=b)
            grid = by_pair((target_xi + r_r_ineq) / xi)
            np.subtract(b, np.matmul(A.T, grid, out=dv_x), out=b)
            if refine:
                dx, dp, err = refined_solve(solve, apply, b, neg_r_cap, system.spare)
            else:
                (dx, dp), err = solve(b, neg_r_cap), 0.0
            dv_x[...] = dx
            np.subtract(neg_r_ineq, row_sums(dx), out=dv_xi)
            # dw = (target - w * dv) / v
            np.multiply(w, dv, out=dw)
            np.subtract(target, dw, out=dw)
            np.divide(dw, v, out=dw)
            return dp, err

        # predictor: it only sets sigma and the corrector's second-order
        # term, so it is solved once with the factor; y_aff = y + step * dy
        np.negative(vw, out=target)
        _direction(refine=False)
        step = min(1.0, _least_step(y, dy, work))
        y_aff = np.add(y, np.multiply(dy, step, out=work), out=work)
        mu_aff = np.multiply(y_aff[:N], y_aff[N:], out=work[:N]).sum() / N
        sigma = min(0.99, max(1e-8, (mu_aff / mu) ** 3))
        if min_prod < 1e-2 * mu:
            sigma = max(sigma, 0.5)  # recenter when products are unbalanced
        if mu < 0.1 * (stat + pfeas):
            sigma = max(sigma, 0.9)  # hold mu while other residuals catch up

        # corrector with centering, the direction the step takes: the blocks
        # are badly conditioned near degenerate optima, so it is refined
        # until it is backward stable; its target sigma mu - vw - dv dw is
        # formed from the predictor before the corrector overwrites dy
        np.subtract(sigma * mu, vw, out=target)
        target -= np.multiply(dv, dw, out=dv)
        dp, err = _direction(refine=True)
        direction_residual = max(direction_residual, err)
        tau = min(0.9995, max(0.99, 1.0 - mu))
        # fraction to the boundary: alpha = min(1, tau alpha_max); rounding
        # is monotone, so tau times the pair's bound is the smaller of tau
        # times each vector's
        alpha = min(1.0, tau * _least_step(y, dy, work))
        y, alpha = _neighborhood_step(y, dy, alpha, work)
        p = p + alpha * dp

    if status != "converged" and best_state is not None:
        y, p, stat, pfeas, comp = best_state
    return y, p, SolveStats(
        iterations=it,
        stationarity_residual=stat,
        primal_feasibility_residual=pfeas,
        complementarity_residual=comp,
        status=status,
        direction_residual=direction_residual,
        start_mu=start_mu,
    )


def _warm_start(program: _Program, c, start):
    """``(v, w, p)`` of the latest iterate of the path ``start`` but its
    converged last one whose stationarity residual under the weights ``c``
    is within WARM_START_GAP of its mu, else None (module docstring): a
    path of this market object, checked by ``solve_bpsop``."""
    for vs, ws, ps, mu_s in reversed(start.iterates[:-1] if start is not None else ()):
        (xs, _), (zs, rs) = program.split(vs), program.split(ws)
        gap = program.dual_residual(c, zs, rs, ps, program.utility(xs), np.empty_like(xs))
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
    r = np.where(program.rows, delta0, 0.0)
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


def _least_step(v, dv, work):
    """The largest step s with v + s dv >= 0, inf when no dv_k < 0.
    v >= 0, and the ratios are formed in ``work``, an array of v's length.
    The bound is -v_k / dv_k = -1 / (dv_k / v_k) at the most negative
    ratio dv_k / v_k; ``fmin`` skips the NaN of 0 / 0, where the step is
    free.  Rounding is monotone and -1 / rho grows with rho < 0,
    so an entry whose rounded ratio lies above the least has a rounded
    bound no smaller than those at the least.  Only those are divided, and
    the result is that of dividing every decreasing entry.  For the same
    reason the bound of a pair (v, w) held as one array is the smaller of
    the bounds of v and of w.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.divide(dv, v, out=work)
        least = np.fmin.reduce(ratio, initial=np.inf)
        if not least < 0:
            return np.inf
        near = ratio == least
        return float((-v[near] / dv[near]).min())


def _neighborhood_step(y, dy, alpha, work):
    """The step from the pair y = (v, w) along dy = (dv, dw), each one
    array of two equal halves, that stays inside a wide central-path
    neighborhood: ``(y + alpha dy, alpha)``, the iterate a new array.
    ``work``, an array of y's length, holds alpha dy and the products.

    No complementarity product v w may collapse far below the average, so
    alpha is backed off by 0.75, at most 50 times, until every product is
    at least 1e-4 times their mean or alpha <= 1e-8.  The iterate that
    passed the test is the one returned; after the 50th back-off, whose
    alpha is never tested, the iterate is formed from it.
    """
    N = len(y) // 2
    for _ in range(50):
        y_new = np.add(y, np.multiply(dy, alpha, out=work))
        vw = np.multiply(y_new[:N], y_new[N:], out=work[:N])
        if vw.min(initial=np.inf) >= 1e-4 * (vw.sum() / N) or alpha <= 1e-8:
            return y_new, alpha
        alpha *= 0.75
    return np.add(y, np.multiply(dy, alpha, out=work)), alpha

