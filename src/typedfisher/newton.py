"""The structured Newton systems of the solver's reduced program.

Each interior-point iterate of ``solver`` solves one block-structured
Newton system: a block per agent, its barrier diagonal plus one rank-one
term per type row and one for the utilities, coupled by the capacity
rows (the ``solver`` module docstring).  ``structured_newton`` sets that
structure up once per market and allocates each solve's system, whose
factor, block solves and product reuse one block of storage over the
solve's iterates; ``refined_solve`` refines a direction until it is
backward stable.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def refined_solve(solve, apply, rhs, rhs_cap, work):
    """Solve one Newton system, refined until it is backward stable.

    ``solve`` and ``apply`` are the pair of one ``factor`` of a
    ``structured_newton`` system, and ``work`` is three (m, n) arrays that
    the pair does not touch, that system's ``spare``: the refinement
    writes the residual, the scale and the residual's magnitude there at
    each step, so the solve owns them and no step allocates them.  After
    every solve the componentwise backward error of the block system
    (Oettli & Prager 1964; the stopping rule of LAPACK's xGERFS)

        omega = max_k |res|_k / (|K| |sol| + |rhs|)_k,

    over the agent rows and the capacity rows, is measured.  Refinement
    stops once omega is within (row length + 1) eps, the rounding bound of
    one block row's product (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 12.1-12.2), once the infinity norm of the
    residual no longer halves, or after 3 refinement steps.  ``rhs`` is
    goods-major (m, n) and ``rhs_cap`` (m,), so the row length is the
    block rows' m, ``rhs.shape[0]``, and the capacity rows, n entries each,
    are held to the same (m + 1) eps on purpose: refinement gets every
    refined direction below it (74 of the 110 directions of the
    ``experiment`` fixed point at seed 1, 18 of 58 and 13 of 50 of the
    benchmark's 200 x 60 and 1000-4000 x 7 slack solves, counting the
    correctors that ``solver._newton_loop`` refines), while an (n + 1) eps
    bound there moves the duals of a structured solve away from a dense
    one's by more than 1e-9 (``test_structured_solve_matches_dense_solve``).  |K| |sol| is
    taken as ``apply(|sol|, |dp|)``, and |rhs| is taken again at each
    step, with the same floats, so that no fourth array is held.  Every
    block entry is >= 0 except those of beta u u^T once a tight type is
    substituted out, whose utilities u_j - u_k can be negative; there
    ``apply(|sol|)`` can fall below |K| |sol|, so omega can only read high
    and the stop can only refine more, never less.

    Returns ``(sol, dp, residual)``, the new arrays of ``solve`` refined in
    place, and the residual's infinity norm as last measured (inf when it
    is not finite).
    """
    stable = (rhs.shape[0] + 1) * _EPS
    res, scale, res_abs = work
    rhs_cap_abs = np.abs(rhs_cap)
    sol, dp = solve(rhs, rhs_cap)
    err = np.inf
    for refined in range(4):
        _, res_cap = apply(sol, dp, res)
        _, scale_cap = apply(np.abs(sol, out=res_abs), np.abs(dp), scale)
        np.subtract(rhs, res, out=res)
        np.subtract(rhs_cap, res_cap, out=res_cap)
        # omega's ratios |res| / max(|K| |sol| + |rhs|, tiny), formed in the
        # scale arrays; a row that is zero throughout has no error, and a
        # program whose goods were all substituted out has no rows
        scale += np.abs(rhs, out=res_abs)
        scale_cap += rhs_cap_abs
        np.abs(res, out=res_abs)
        res_cap_abs = np.abs(res_cap)
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

    Every (good, agent) array is goods-major (``solver``'s module
    docstring): ``U`` is
    (m, n), agent i's utilities its column i, and ``A`` the (T, m) type
    incidence.  This is the set-up of one market.  It returns
    ``system(extra)``, which allocates one solve's storage as a
    ``_Newton``: the system's arrays and, in the same block, ``extra``
    doubles for the caller, ``system(extra).extra``.  The solve refactors
    that system in place at each iterate, and no two solves share one.
    ``system(extra).factor(beta, d, gamma)`` builds the system of one
    iterate from beta (n,), the barrier diagonals d (m, n) and the
    type-row weights gamma (T, n).  Agent i's block K_i = diag(d_i) +
    sum_t gamma_it a_t a_t^T + beta_i u_i u_i^T, with a_t row t of ``A``;
    the capacity rows couple the blocks.  ``factor`` returns the pair
    ``(solve, apply)``: ``solve(rhs, rhs_cap) -> (sol, dp)`` solves the
    system for per-agent right-hand sides ``rhs`` (m, n) and the capacity
    right-hand side ``rhs_cap`` (m,), and ``apply(sol, dp, out) -> (lhs,
    cap)`` is its product, with ``lhs`` written into the (m, n) array
    ``out``.  The pair reads the factor's arrays in the
    solve's storage, so it is valid until the next ``factor`` of its
    solve; the ``sol`` and ``dp`` it returns are new arrays, the caller's.

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
    # the goods k that have an (i + 1)-th later good in their type, and
    # those goods, for i = 0, 1, ... while there are any
    links = []
    for nxt in chain.T[1:]:
        k = np.flatnonzero(nxt < m)
        if not len(k):
            break
        links.append((k, nxt[k]))
    setup = (U, A, same_type, in_type, earlier, gap, tuple(links))
    return lambda extra: _Newton(*setup, extra)


class _Newton:
    """One solve's Newton systems (``structured_newton``).

    The solve's storage is one block, allocated here and dropped with the
    solve: the factor's (m, n) arrays that its solves read (g, wd, aw and
    D, and dinv and aT when L_T is not I), a pool of six (m, n) work arrays
    and the caller's ``extra`` doubles.  One block keeps the heap from
    growing and shrinking between solves too: glibc's malloc gives the top
    of its heap back to the OS once more than twice its largest freed
    mapped block lies free there, and a solve's one block is most of what
    it frees.  ``factor`` overwrites the factor's arrays and uses the
    whole pool for its scratch, which is dead once the Schur matrix S is
    formed.  Between factors, ``solve`` and ``apply`` use the first three
    work arrays, and ``spare``, the last three, is free for the caller:
    ``refined_solve``'s residual and scale arrays.
    """

    def __init__(self, U, A, same_type, in_type, earlier, gap, links, extra):
        self.U, self.A, self.same_type, self.in_type = U, A, same_type, in_type
        self.earlier, self.gap, self.links = earlier, gap, links
        self.chained = chained = bool(in_type.any())  # else L_T = I
        arrays = 12 if chained else 10
        block = np.empty(arrays * U.size + extra)
        store = block[: arrays * U.size].reshape((arrays,) + U.shape)
        self.extra = block[arrays * U.size :]
        self.g, self.wd, self.aw, self.D = store[:4]
        # dinv is read only where L_T is not I; there aT is g
        self.dinv, self.aT = store[4:6] if chained else (None, self.g)
        self.work = store[-6:]
        self.spare = self.work[3:]

    def factor(self, beta, d, gamma):
        """Refactor in place at one iterate; returns ``(solve, apply)``.

        Every kernel writes its temporaries into the solve's storage, with
        the same roundings in the same order as the plain expressions in
        the comments and docstrings; none writes its argument.
        """
        A, in_type, chained = self.A, self.in_type, self.chained
        g, wd, aw, D, dinv, aT = self.g, self.wd, self.aw, self.D, self.dinv, self.aT
        w0, w1, w2, w3, w4, w5 = self.work
        self.beta, self.d, self.gamma = beta, d, gamma

        # L_T: each type's update along a_t from diag(d):
        # aT = g / (1 + g * (in_type.T @ dinv)), dT = d + aT
        np.matmul(A.T, gamma, out=g)
        if chained:
            np.divide(1.0, d, out=dinv)
            np.matmul(in_type.T, dinv, out=aT)
            aT *= g
            aT += 1.0
            np.divide(g, aT, out=aT)
        dT = np.add(d, aT, out=w1)

        # L_u: beta u u^T = L_T (beta w w^T) L_T^T with w = L_T^{-1} u, an
        # update of diag(dT): wd = w / dT, cum = earlier.T @ (w * wd),
        # aw = w * (beta / (1 + beta * cum)), D = dT + aw * w
        w = self._type_solve(self.U, w2)
        np.divide(w, dT, out=wd)
        cum = np.matmul(self.earlier.T, np.multiply(w, wd, out=w0), out=w3)
        np.multiply(beta, cum, out=aw)
        aw += 1.0
        np.divide(beta, aw, out=aw)
        aw *= w
        np.multiply(aw, w, out=D)
        D += dT

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
        # h = L_T^{-T} wd * sqrt(omega), where dT was
        h = np.multiply(self._type_solve_t(wd, w1), np.sqrt(omega), out=w1)
        S = -(h @ h.T)
        if chained:  # else the type terms lie on the diagonal, summed below
            # coef = g / (1 + g * (same_type @ dinv)), where w was
            coef = np.matmul(self.same_type, dinv, out=w2)
            coef *= g
            coef += 1.0
            np.divide(g, coef, out=coef)
            S -= self.same_type * (np.multiply(dinv, coef, out=w0) @ dinv.T)
        # On the diagonal those terms cancel where d is tiny, so it is summed
        # from the factors instead: (K_i^{-1})_kk = sum_j G_jk^2 / D_j with
        # G = (L_T L_u)^{-1}.  Column k of L_T^{-1} is 1 at k and -aT_j / d_k
        # at the later goods j of k's type; L_u^{-1} turns it into
        # x_j - aw_j sig_j, where sig_j = sum_{l<j} wd_l x_l is constant
        # between those goods.  With tail = aw * aw / D, sig = wd and
        # diag = 1 / D at the start, each link i, the goods k that have an
        # (i + 1)-th later good j, takes
        #     diag += sig * sig * (gap[i].T @ tail)
        #     x = -aT[j] * dinv[k];  step = x - aw[j] * sig[k]
        #     diag[k] += step * step / D[j];  sig[k] += wd[j] * x
        # and the gaps after the last link are added at the end, with the
        # gathers of k and j written into work arrays
        tail = np.multiply(aw, aw, out=w1)
        tail /= D
        sig = w2
        sig[...] = wd
        diag = np.divide(1.0, D, out=w3)
        for i, (k, j) in enumerate(self.links):
            self._add_gap(diag, sig, tail, i)
            x = np.negative(_rows(aT, j, w0), out=w0[: len(k)])
            x *= _rows(dinv, k, w5)
            step = np.multiply(_rows(aw, j, w4), _rows(sig, k, w5), out=w4[: len(k)])
            np.subtract(x, step, out=step)
            step *= step
            diag[k] += np.divide(step, _rows(D, j, w5), out=step)
            sig[k] += np.multiply(_rows(wd, j, w4), x, out=w4[: len(k)])
        self._add_gap(diag, sig, tail, len(self.links))
        S.flat[:: len(S) + 1] = diag.sum(axis=1)
        self.S = S
        return self.solve, self.apply

    def _add_gap(self, diag, sig, tail, i):
        """diag += sig * sig * (gap[i].T @ tail), through the work arrays
        that the links take for x and step."""
        t, gap_tail = self.work[0], self.work[4]
        np.multiply(sig, sig, out=t)
        t *= np.matmul(self.gap[i].T, tail, out=gap_tail)
        diag += t

    def _type_solve(self, v, out):
        """L_T^{-1} v = v - aT * (in_type.T @ (v * dinv)), written into
        ``out``, which must not be v; v itself when L_T = I."""
        if not self.chained:
            return v
        np.matmul(self.in_type.T, np.multiply(v, self.dinv, out=self.work[0]), out=out)
        out *= self.aT
        return np.subtract(v, out, out=out)

    def _type_solve_t(self, v, out):
        """L_T^{-T} v = v - dinv * (in_type @ (aT * v)), written into
        ``out``, which may be v; v itself when L_T = I."""
        if not self.chained:
            return v
        t = np.matmul(self.in_type, np.multiply(self.aT, v, out=self.work[0]), out=self.work[1])
        t *= self.dinv
        return np.subtract(v, t, out=out)

    def solve_block(self, v, out):
        """K_i^{-1} v_i for every agent, through the factors, written into
        ``out``, which must not be v: y = (y - aw * (earlier.T @ (wd * y)))
        / D, then y -= wd * (earlier @ (aw * y)), between the type solves."""
        t, t2 = self.work[0], self.work[1]
        y = self._type_solve(v, out)
        np.matmul(self.earlier.T, np.multiply(self.wd, y, out=t), out=t2)
        t2 *= self.aw
        y = np.subtract(y, t2, out=out)
        y /= self.D
        np.matmul(self.earlier, np.multiply(self.aw, y, out=t), out=t2)
        t2 *= self.wd
        y -= t2
        return self._type_solve_t(y, y)

    def solve(self, rhs, rhs_cap):
        """``(sol, dp)``, new arrays, solving the system of the last factor."""
        sol = self.solve_block(rhs, np.empty(self.U.shape))
        # looked up at each call, so that a tracer sees the Schur solve
        dp = np.linalg.solve(self.S, sol.sum(axis=1) - rhs_cap)
        sol -= self.solve_block(dp[:, None], self.work[2])
        return sol, dp

    def apply(self, sol, dp, out):
        """``(lhs, cap)``, the product of the system of the last factor with
        ``(sol, dp)``: lhs = d * sol + typed + beta * (U * sol).sum(axis=0)
        * U + dp, written into ``out``, where typed, sum_t gamma_it a_t
        a_t^T sol_i, is g_i * sol_i when every type row holds one good."""
        U, t = self.U, self.work[2]
        lhs = np.multiply(self.d, sol, out=out)
        s = np.multiply(U, sol, out=t).sum(axis=0)
        s *= self.beta
        if self.chained:
            lhs += np.matmul(self.A.T, self.gamma * (self.A @ sol), out=t)
        else:
            lhs += np.multiply(self.g, sol, out=t)
        lhs += np.multiply(U, s, out=t)
        lhs += dp[:, None]
        return lhs, sol.sum(axis=1)


def _rows(a, index, out):
    """``a[index]`` along the first axis, written into the first rows of
    ``out``.  The indices are in range, so mode "clip" changes nothing but
    spares ``np.take`` the buffer that its default mode allocates."""
    return np.take(a, index, axis=0, out=out[: len(index)], mode="clip")


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
