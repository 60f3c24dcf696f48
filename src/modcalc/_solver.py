"""Solvers for the weighted p-power programs behind modulus, minimal
gradients and capacity.

Every program is the one shape

    minimize    sum_j m_j z_j^p      over lo <= z <= hi   (0 <= lo),
    subject to  G z >= rhs,

modulus and gradients with ``G = A`` (nonnegative rows) and the box
``[0, inf)``, capacity with ``z = (f, rho)``, ``G = [[S, C], [-S, C]]`` and
the capacity box on ``f``.  One preconditioning serves both cores: the
substitution ``u = m^(1/p) z`` makes the objective isotropic, every row is
divided by its largest coefficient and the instance is normalized by its
largest right-hand side or lower bound.  All three are exact
reformulations that map back by the column, row and global scales.

For p > 1 the Lagrange dual is smooth and concave; ``_ascent`` maximizes it
by projected gradient ascent with backtracking and Nesterov momentum, and
every 250 iterations tries Newton steps on the active rows.  The dual
Hessian there is ``-B B^T`` with ``B = G_act diag(dz)^(1/2)`` on the free
columns, of rank at most n, so the step is taken in its column space: the
least-squares solution through the n x n Gram matrix ``B^T B``.  For p = 1
the program is linear and ``_pdhg`` runs a primal-dual hybrid gradient
iteration (Chambolle & Pock, 2011).

Both cores recover feasible primal points by one scale factor on the
columns that ``G`` and the box show to be nonnegative with box ``[0, inf)``
(all of ``x``, or ``rho``); when a run is cut too short to find one, those
columns are raised to at least 1 and scaled instead.  Both report a
certified relative primal-dual gap, so callers can trust ``value`` as an
upper bound and ``dual_value`` as a lower bound of the true optimum.

``G`` is stored as padded rows (``_Rows``): two k x w arrays holding each
row's column indices and coefficients, w the widest row, padded with zero
coefficients.  A path-integral row has at most hops + 1 entries, so on the
gradient families w is a few columns out of hundreds.  The scalings, the
column tests and the recovery read the stored entries; ``G z`` is a gather
and a row sum, ``G^T y`` a ``bincount`` over the rows whose dual is nonzero
(all rows when more than half are), and the Newton polish densifies only
its active block.  ``G z`` is made only where it is read: at the
extrapolated point of each ascent iteration and for each Newton step, not
at the trial points of the line searches, which need the dual value alone.
Rows that fill more than ``_SPARSE_FILL`` of the columns are multiplied
through one dense copy instead.  Callers pass either such a pair ``(idx,
val)`` (``curve._HopTable.rows``) or a dense array, which is stored whole
and so always multiplied densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SolveResult", "solve_nonneg", "solve_capacity"]

_TINY = 1e-300
_EPS = float(np.finfo(float).eps)
# Widest padded row, as a share of the columns, that is still multiplied
# entry by entry; wider rows go through a dense copy and BLAS.  G z + G^T y
# on two Xeon cores (2 BLAS threads), padded with every dual nonzero / with
# 10 % of them against dense: 0.39 / 0.20 / 2.2 ms at fill 0.01 (18304 x
# 400), 93 / 51 / 226 us at 0.04 (3984 x 100), 150 / 85 / 179 us at 0.062
# (8000 x 64), 180 / 102 / 212 us at 0.078 (8000 x 64) and 0.41 / 0.19 /
# 0.13 ms at 0.36 (8172 x 36).  The crossover now lies above 0.078, but
# moving the threshold would move instances between the two paths, whose
# sums differ in their last bits.
_SPARSE_FILL = 0.06


@dataclass
class SolveResult:
    value: float
    x: np.ndarray
    y: np.ndarray
    gap: float
    dual_value: float
    iterations: int
    converged: bool


def _rel_gap(primal: float, dual: float) -> float:
    # roundoff can put the dual a few ulps above the primal; the values
    # themselves are reported unchanged
    if not math.isfinite(primal):
        return math.inf
    return max(0.0, (primal - dual) / max(primal, _TINY))


def _as_rows(A) -> tuple[np.ndarray, np.ndarray]:
    """Padded rows of ``A``, given as a pair ``(idx, val)`` or as a dense
    k x n array, which is taken whole: every row stores all n columns."""
    if isinstance(A, tuple):
        idx, val = A
        return np.asarray(idx, np.intp), np.asarray(val, dtype=float)
    A = np.asarray(A, dtype=float)
    return np.broadcast_to(np.arange(A.shape[1]), A.shape), A


class _Rows:
    """The constraint matrix ``G`` (k x n) as padded rows: row ``i`` holds
    ``val[i, j]`` at column ``idx[i, j]``; only zero coefficients, such as
    the padding, may share a column with another entry of their row."""

    def __init__(self, idx: np.ndarray, val: np.ndarray, n: int) -> None:
        self.idx, self.val, self.n = idx, val, n
        self.dense = None
        if idx.shape[1] > _SPARSE_FILL * n:
            self.dense = self.block(np.ones(len(idx), bool), np.ones(n, bool))

    def dot(self, z: np.ndarray) -> np.ndarray:
        """``G @ z``."""
        if self.dense is not None:
            return self.dense @ z
        return np.einsum("ij,ij->i", self.val, z[self.idx])

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """``G.T @ y``."""
        if self.dense is not None:
            return self.dense.T @ y
        r = np.flatnonzero(y != 0)
        if 2 * len(r) < len(y):
            # the rows left out add only +-0 terms, and bincount adds the rest
            # in the same order, so the sum is bit for bit the full one.  On
            # the 18304 x 4 rows of the 20x20 gradient (two Xeon cores) the
            # gathered product takes 25 / 91 / 181 / 428 us at 9 / 30 / 60 /
            # 100 % nonzero duals, the full one 188-262 us at any support
            terms = self.val.take(r, 0) * y.take(r)[:, None]
            return np.bincount(self.idx.take(r, 0).ravel(), terms.ravel(), self.n)
        return np.bincount(self.idx.ravel(), (self.val * y[:, None]).ravel(), self.n)

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense ``G[np.ix_(rows, cols)]`` for boolean masks; every entry is
        the stored coefficient exactly."""
        idx, val = self.idx[rows], self.val[rows]
        width = int(cols.sum())
        at = np.cumsum(cols) - 1
        on = cols[idx]
        keys = (np.arange(len(idx))[:, None] * width + at[idx])[on]
        return np.bincount(keys, val[on], len(idx) * width).reshape(len(idx), width)


def _power_norm(G: _Rows, iters: int = 40) -> float:
    """Deterministic spectral-norm estimate by power iteration on ones."""
    v = np.ones(G.n)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 1.0
    v /= nrm
    est = 0.0
    for _ in range(iters):
        w = G.tdot(G.dot(v))
        nw = np.linalg.norm(w)
        if nw <= 0:
            return max(float(np.linalg.norm(G.val)), 1e-12)
        est = math.sqrt(nw)
        v = w / nw
    return max(est, 1e-12)


def solve_nonneg(
    A: np.ndarray | tuple[np.ndarray, np.ndarray],
    rhs: np.ndarray,
    m: np.ndarray,
    p: float,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> SolveResult:
    """Minimize ``sum m x^p`` over ``x >= 0`` subject to ``A x >= rhs``.

    ``A`` is a dense k x n array or padded rows ``(idx, val)`` over the
    ``n = len(m)`` columns.  It must be componentwise nonnegative with no
    all-zero row and ``rhs > 0``; infeasibility is therefore impossible and
    the optimum is attained.  The returned ``x`` is feasible (scaled),
    ``value`` is its objective, ``y`` the dual multipliers and ``dual_value
    <= optimum <= value``.  The instance is normalized by ``max(rhs)`` before
    solving, so the output is exactly equivariant under scaling of ``rhs``.
    """
    _check_settings(p, tol, max_iter)
    rhs = np.asarray(rhs, dtype=float)
    m = np.asarray(m, dtype=float)
    n = len(m)
    idx, val = _as_rows(A)
    if np.any(rhs <= 0):
        raise ValueError("solve_nonneg needs strictly positive right-hand sides")
    if np.any(val.sum(axis=1) <= 0):
        raise ValueError("solve_nonneg needs rows with positive coefficients")
    lo, hi = np.zeros(n), np.full(n, math.inf)
    return _solve(idx, val, rhs, m ** (-1.0 / p), p, lo, hi, tol, max_iter)


def solve_capacity(
    C: np.ndarray | tuple[np.ndarray, np.ndarray],
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    m: np.ndarray,
    p: float,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> SolveResult:
    """Minimize ``sum m f^p + sum m rho^p`` subject to the two-sided rows
    ``|f(b_j) - f(a_j)| <= C_j . rho`` with ``f`` in the box ``[lo, hi]`` and
    ``rho >= 0``.

    ``C`` holds nonnegative path-integral coefficients, dense (k x n) or as
    padded rows ``(idx, val)``; rows for curves with equal endpoints are
    harmless.  The box encodes the capacity constraints (``lo = 1`` on the
    target set, ``hi = 1`` in truncated mode).  The result's ``x`` is
    ``(f, rho)`` concatenated.
    """
    _check_settings(p, tol, max_iter)
    m = np.asarray(m, dtype=float)
    n = len(m)
    a_idx, b_idx = np.asarray(a_idx, np.intp), np.asarray(b_idx, np.intp)
    idx, val = _capacity_rows(*_as_rows(C), a_idx, b_idx, n)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    res = _solve(
        idx, val, np.zeros(len(idx)), np.concatenate([m, m]) ** (-1.0 / p), p,
        np.concatenate([lo, np.zeros(n)]), np.concatenate([hi, np.full(n, math.inf)]), tol,
        max_iter,
    )
    # the scalings move f off the box by roundoff; put it back exactly
    np.clip(res.x[:n], lo, hi, out=res.x[:n])
    return res


def _check_settings(p: float, tol: float, max_iter: int | None) -> None:
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _capacity_rows(
    idx: np.ndarray, val: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Padded rows of ``[[S, C], [-S, C]]`` over ``z = (f, rho)``: row ``j``
    of ``S`` is ``+1`` at ``a_j`` and ``-1`` at ``b_j``, or zero when they
    coincide, so every row reads ``+-(f(a_j) - f(b_j)) + C_j . rho >= 0``."""
    one = np.where(a_idx != b_idx, 1.0, 0.0)[:, None]
    cols = np.hstack((a_idx[:, None], b_idx[:, None], idx + n))
    plus, minus = np.hstack((one, -one, val)), np.hstack((-one, one, val))
    return np.vstack((cols, cols)), np.vstack((plus, minus))


def _solve(
    idx: np.ndarray,
    val: np.ndarray,
    rhs: np.ndarray,
    col: np.ndarray,
    p: float,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    max_iter: int | None,
) -> SolveResult:
    """Shared front end over ``u = z / col`` on the padded rows of ``G``."""
    k, n = len(idx), len(col)
    lo, hi = lo / col, hi / col
    if k == 0:
        value = float((lo**p).sum())
        return SolveResult(value, lo * col, np.zeros(0), 0.0, value, 0, True)
    val = val * col[idx]
    row = np.abs(val).max(axis=1, initial=0.0)
    val /= row[:, None]
    r = rhs / row
    scale = max(float(r.max()), float(lo.max()))
    try:
        # the factors that map the scaled value and duals back
        up, up_y = scale**p, scale ** (p - 1.0)
    except OverflowError:
        raise ValueError(f"p = {p} is too large for this problem: {scale}**p overflows") from None
    r /= scale
    lo /= scale
    hi /= scale
    # the columns a single scale factor can push to feasibility
    J = (np.bincount(idx[val < 0], minlength=n) == 0) & (lo == 0) & np.isinf(hi)
    G = _Rows(idx, val, n)
    if p == 1.0:
        res = _pdhg(G, r, lo, hi, J, tol, 400_000 if max_iter is None else max_iter)
    else:
        res = _ascent(G, r, lo, hi, J, p, tol, 60_000 if max_iter is None else max_iter)
    if not math.isfinite(res.value):
        # no feasible point surfaced (a short max_iter); force one from the
        # returned point with every column of J raised to at least 1
        z = np.where(J, np.maximum(res.x, 1.0), res.x)
        zr = _recover(G, r, J, z, G.dot(z))
        if zr is not None:
            res.x, res.value = zr, float((zr**p).sum())
            res.gap = _rel_gap(res.value, res.dual_value)
    res.value *= up
    res.dual_value *= up
    res.x = res.x * (scale * col)
    res.y = res.y * (up_y / row)
    return res


def _recover(G: _Rows, rhs: np.ndarray, J: np.ndarray, z: np.ndarray, Gz: np.ndarray):
    """Feasible point from ``z`` by one scale factor on the columns ``J``,
    or None when no factor makes it feasible.  ``Gz`` is ``G @ z``."""
    if J.all():
        # the modulus and gradient case, where every rhs is positive
        smin = float((Gz / rhs).min())
        return z / smin if smin > 0 else None
    zJ = np.where(J, z, 0.0)
    a = G.dot(zJ)
    fixed = z - zJ
    need = rhs - G.dot(fixed)
    # a row that the fixed columns meet up to roundoff counts as met (row
    # scaling bounds every coefficient by 1); scaling zJ against that noise
    # would blow it up
    pos = need > 16 * _EPS * float(np.abs(fixed).max())
    if not pos.any():
        return np.where(J, 0.0, z)
    smin = float((a[pos] / need[pos]).min())
    if smin <= 0:
        return None
    return np.where(J, z / smin, z)


def _ascent(
    G: _Rows,
    rhs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    J: np.ndarray,
    p: float,
    tol: float,
    max_iter: int,
) -> SolveResult:
    """Accelerated projected dual ascent with Newton polish (p > 1)."""
    k, n = len(rhs), G.n
    q = p / (p - 1.0)
    expo = 1.0 / (p - 1.0)
    # with every column in J the box is [0, inf), the dual is homogeneous
    # along rays and every multiplier can be rescaled to its best multiple
    cone = bool(J.all())

    def primal_of(w: np.ndarray) -> np.ndarray:
        # argmin of  z^p - w z  over the box, componentwise
        return np.minimum(np.maximum(lo, (np.maximum(w, 0.0) / p) ** expo), hi)

    def dual_value(y: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(g(y), y.rhs, Lagrangian minimizer z, G^T y); the gradient of g
        is ``rhs - G z``, made only where it is read."""
        w = G.tdot(y)
        z = primal_of(w)
        S = float(y @ rhs)
        return S + float((z**p - w * z).sum()), S, z, w

    def newton_polish(y: np.ndarray, g_now: float) -> tuple[np.ndarray, float]:
        """Newton steps on the smooth dual restricted to the active rows.

        The dual Hessian is -B B^T with B = G_act diag(dz)^(1/2) on the free
        columns; the step solves it in the least-squares sense through the
        Gram matrix B^T B.  Steps are accepted only when the true dual value
        increases, so this can only tighten certificates.
        """
        y = y.copy()
        for _ in range(12):
            _, _, z, w = dual_value(y)
            grad = rhs - G.dot(z)
            act = (y > 0) | (grad > 0)
            free = (w > 0) & (z > lo) & (z < hi)
            if not act.any() or not free.any():
                break
            B = G.block(act, free)
            B *= np.sqrt(expo * z[free] / w[free])[None, :]
            lam, V = np.linalg.eigh(B.T @ B)
            keep = lam > lam[-1] * n * _EPS
            V = V[:, keep]
            step = B @ (V @ ((V.T @ (B.T @ grad[act])) / lam[keep] ** 2))
            del B  # hold the k_act x n block only while the step is made
            improved = False
            t = 1.0
            for _ in range(30):
                y_try = y.copy()
                y_try[act] = np.maximum(0.0, y[act] + t * step)
                g_try = dual_value(y_try)[0]
                if g_try > g_now + 1e-18:
                    y, g_now = y_try, g_try
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        return y, g_now

    best_primal = math.inf
    best_z = lo.copy()
    best_dual = -math.inf
    best_y = np.zeros(k)

    def certify(y: np.ndarray, g: float, S: float, z: np.ndarray, Gz: np.ndarray) -> None:
        nonlocal best_primal, best_z, best_dual, best_y
        zr = _recover(G, rhs, J, z, Gz)
        if zr is not None:
            P = float((zr**p).sum())
            if P < best_primal:
                best_primal, best_z = P, zr
        alpha = 1.0
        E = g - S
        if cone and S > 0 and E < 0:
            # g(alpha y) = alpha S + alpha^q E is largest at this alpha
            alpha = (S / (-q * E)) ** (p - 1.0)
            g = alpha * S + alpha**q * E
        if g > best_dual:
            best_dual, best_y = g, alpha * y

    y = np.zeros(k)
    yv = y.copy()
    g_y = float((lo**p).sum())  # g(0): z = lo
    t_mom = 1.0
    # largest column 1-norm
    colsum = np.bincount(G.idx.ravel(), np.abs(G.val).ravel(), n)
    step = 1.0 / max(1.0, float(colsum.max()))
    it = 0
    converged = False

    for it in range(1, max_iter + 1):
        if it % 250 == 0:
            # periodic second-order polish of the incumbent dual point
            y_pol, g_pol = newton_polish(y, g_y)
            if g_pol > g_y:
                y, g_y = y_pol, g_pol
                yv = y.copy()
                t_mom = 1.0
        g_v, S_v, z_v, _ = dual_value(yv)
        Gz_v = G.dot(z_v)
        certify(yv, g_v, S_v, z_v, Gz_v)
        if _rel_gap(best_primal, best_dual) <= tol:
            converged = True
            break

        grad = rhs - Gz_v
        # backtracking ascent step from the extrapolated point
        g_new = -math.inf
        y_new = yv
        for _ in range(60):
            y_new = np.maximum(0.0, yv + step * grad)
            diff = y_new - yv
            g_new = dual_value(y_new)[0]
            if g_new >= g_v + float(grad @ diff) - 0.5 / step * float(diff @ diff) - 1e-18:
                break
            step *= 0.5
        if g_new < g_y - 1e-15 * max(1.0, abs(g_y)):
            # momentum overshoot: restart
            yv = y.copy()
            t_mom = 1.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        yv = np.maximum(0.0, y_new + ((t_mom - 1.0) / t_new) * (y_new - y))
        y = y_new
        g_y = g_new
        t_mom = t_new
        step *= 1.15

    if not converged:
        # final polish before reporting the best-effort certificate
        y_pol, g_pol = newton_polish(y, g_y)
        g_pol, S_pol, z_pol, _ = dual_value(y_pol)
        certify(y_pol, g_pol, S_pol, z_pol, G.dot(z_pol))
    gap = _rel_gap(best_primal, best_dual)
    return SolveResult(best_primal, best_z, best_y, gap, best_dual, it, converged or gap <= tol)


def _pdhg(
    G: _Rows,
    rhs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    J: np.ndarray,
    tol: float,
    max_iter: int,
) -> SolveResult:
    """Primal-dual hybrid gradient on  min sum z : G z >= rhs, z in the box
    (p = 1)."""
    k, n = len(rhs), G.n
    cost = np.ones(n)
    unbounded = np.isinf(hi)
    width = np.where(unbounded, 0.0, hi - lo)

    def dual_value(y: np.ndarray) -> tuple[float, float]:
        # shrink y until  cost - G^T y >= 0  on the unbounded columns; the
        # Lagrangian minimum over the box is then finite
        w = G.tdot(y)
        over = unbounded & (w > cost)
        alpha = float(np.min(cost[over] / w[over])) if over.any() else 1.0
        alpha = min(1.0, alpha)
        reduced = cost - alpha * w
        box = float(reduced @ lo) + float(np.minimum(reduced, 0.0) @ width)
        return alpha * float(y @ rhs) + box, alpha

    L = _power_norm(G)
    tau = 0.95 / L
    sigma = 0.95 / L
    z = lo.copy()
    y = np.zeros(k)
    zb = z.copy()

    best_primal = math.inf
    best_z = z.copy()
    best_dual = dual_value(y)[0]
    best_y = np.zeros(k)
    it = 0
    converged = False

    for it in range(1, max_iter + 1):
        y = np.maximum(0.0, y + sigma * (rhs - G.dot(zb)))
        z_new = np.minimum(np.maximum(lo, z - tau * (cost - G.tdot(y))), hi)
        zb = 2.0 * z_new - z
        z = z_new

        if it % 25 == 0 or it == max_iter:
            zr = _recover(G, rhs, J, z, G.dot(z))
            if zr is not None:
                P = float(cost @ zr)
                if P < best_primal:
                    best_primal, best_z = P, zr
            D, alpha = dual_value(y)
            if D > best_dual:
                best_dual, best_y = D, alpha * y
            if _rel_gap(best_primal, best_dual) <= tol:
                converged = True
                break

    gap = _rel_gap(best_primal, best_dual)
    return SolveResult(best_primal, best_z, best_y, gap, best_dual, it, converged)
