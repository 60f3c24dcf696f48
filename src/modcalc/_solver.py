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

The cores only iterate: each yields candidates, a primal point and a dual
value, and ``_solve`` certifies them.  It recovers feasible primal points
by one scale factor on the columns that ``G`` and the box show to be
nonnegative with box ``[0, inf)`` (all of ``x``, or ``rho``), keeps the best
primal point and the best dual bound, and stops once their relative gap is
within ``tol``; when a run is cut too short to find a feasible point, those
columns of the start are raised to 1 and scaled instead.  The certified
gap lets callers trust ``value`` as an upper bound and ``dual_value`` as a
lower bound of the true optimum.

``G`` is stored as padded rows (``_Rows``): two k x w arrays holding each
row's column indices and coefficients, w the widest row, padded with zero
coefficients.  A path-integral row has at most hops + 1 entries, so on the
gradient families w is a few columns out of hundreds.  The scalings, the
column tests and the recovery read the stored entries; ``G z`` is a gather
and a row sum, ``G^T y`` one ``bincount`` over every stored entry, and the
Newton polish densifies only its active block.  ``G z`` is made only where
it is read: at the extrapolated point of each ascent iteration and for each
Newton step, not at the trial points of the line searches, which need the
dual value alone.  Rows that fill more than ``_SPARSE_FILL`` of the columns
are multiplied through one dense copy instead.  ``_Rows.block``, the one
scatter of padded rows, makes that copy, the polish block and
``modulus.admissibility_matrix``.  Callers pass either such a pair
``(idx, val)`` (``curve._HopTable.rows``) or a dense array, which is stored
whole and so always multiplied densely.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["SolveResult", "solve_nonneg", "solve_capacity"]

_TINY = 1e-300
_EPS = float(np.finfo(float).eps)
# Widest padded row, as a share of the columns, that is still multiplied
# entry by entry; wider rows go through a dense copy and BLAS.  Of the
# presolved capacity-grid benchmark solves, the 21 on grids up to 5x5 (rows
# 4 wide) reach the copy.  Forced padded (two Xeon cores, whole calls,
# medians of 11) 19 were slower, 5x5 p 1 1.95 against 1.45 ms, and 5x5 p 2
# took 250 iterations instead of 68 (23-88 against 4-6 ms in three runs);
# they summed to 126 against 54 ms.  Moving the threshold would also move
# instances between the two paths, whose sums differ in their last bits.
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
            self.dense = self.block(idx, val, np.ones(len(idx), bool), np.ones(n, bool))

    def dot(self, z: np.ndarray) -> np.ndarray:
        """``G @ z``."""
        if self.dense is not None:
            return self.dense @ z
        return np.einsum("ij,ij->i", self.val, z[self.idx])

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """``G.T @ y``."""
        if self.dense is not None:
            return self.dense.T @ y
        return np.bincount(self.idx.ravel(), (self.val * y[:, None]).ravel(), self.n)

    @staticmethod
    def block(idx: np.ndarray, val: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The one densifier of padded rows ``(idx, val)``: ``G[np.ix_(rows,
        cols)]`` for boolean masks, as floats, every entry stored exactly."""
        idx, val = idx[rows], val[rows]
        width = int(cols.sum())
        at = np.cumsum(cols) - 1
        on = cols[idx]
        keys = (np.arange(len(idx))[:, None] * width + at[idx])[on]
        # bincount of no keys at all returns integers
        dense = np.bincount(keys, val[on], len(idx) * width).astype(float, copy=False)
        return dense.reshape(len(idx), width)


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
    """Shared front end over ``u = z / col`` on the padded rows of ``G``: the
    one place that certifies the candidates of a core, stops and reports."""
    k, n = len(idx), len(col)
    # a lower corner meeting every row is optimal (the objective grows on z >= lo)
    trivial = (np.einsum("ij,ij->i", val, lo[idx]) >= rhs).all()
    lo, hi = lo / col, hi / col
    if trivial:
        value = float((lo**p).sum())
        return SolveResult(value, lo * col, np.zeros(k), 0.0, value, 0, True)
    val = val * col[idx]
    row = np.abs(val).max(axis=1, initial=0.0)
    row[row == 0] = 1.0  # a constant curve's all-zero row reads 0 >= 0: leave it unscaled
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
        core = _pdhg(G, r, lo, hi, 400_000 if max_iter is None else max_iter)
    else:
        core = _ascent(G, r, lo, hi, bool(J.all()), p, 60_000 if max_iter is None else max_iter)
    cost = np.ones(n)

    def objective(z: np.ndarray) -> float:
        # at p = 1 the linear cost that _pdhg minimizes, as its dot product
        return float(cost @ z) if p == 1.0 else float((z**p).sum())

    best_primal, best_z, best_dual, best_y = math.inf, lo, -math.inf, np.zeros(k)
    for it, z, Gz, g, alpha, y in core:
        zr = _recover(G, r, J, z, Gz)
        P = math.inf if zr is None else objective(zr)
        if P < best_primal:
            best_primal, best_z = P, zr
        if g > best_dual:
            best_dual, best_y = g, alpha * y
        if _rel_gap(best_primal, best_dual) <= tol:
            break
    if not math.isfinite(best_primal):
        # no feasible point surfaced (a short max_iter); force one from the
        # start with every column of J raised to 1
        z = np.where(J, 1.0, lo)
        zr = _recover(G, r, J, z, G.dot(z))
        if zr is not None:
            best_primal, best_z = objective(zr), zr
    gap = _rel_gap(best_primal, best_dual)
    return SolveResult(
        best_primal * up, best_z * (scale * col), best_y * (up_y / row), gap, best_dual * up,
        it, gap <= tol,
    )


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
    G: _Rows, rhs: np.ndarray, lo: np.ndarray, hi: np.ndarray, cone: bool, p: float, max_iter: int
) -> Iterator[tuple]:
    """Accelerated projected dual ascent with Newton polish (p > 1): the
    candidates of every iteration, then of a last polish.  ``cone`` says the
    box is ``[0, inf)`` on every column."""
    k, n = len(rhs), G.n
    q = p / (p - 1.0)
    expo = 1.0 / (p - 1.0)

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

    def best_multiple(g: float, S: float) -> tuple[float, float]:
        """``(g(alpha y), alpha)`` for the best multiple ``alpha`` of the ``y``
        with ``g(y) = g`` and ``y.rhs = S``: on a cone the dual is
        homogeneous along rays, ``g(alpha y) = alpha S + alpha^q (g - S)``."""
        E = g - S
        if cone and S > 0 and E < 0:
            alpha = (S / (-q * E)) ** (p - 1.0)
            return alpha * S + alpha**q * E, alpha
        return g, 1.0

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
            B = G.block(G.idx, G.val, act, free)
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

    y = np.zeros(k)
    yv = y.copy()
    g_y = float((lo**p).sum())  # g(0): z = lo
    t_mom = 1.0
    # largest column 1-norm
    colsum = np.bincount(G.idx.ravel(), np.abs(G.val).ravel(), n)
    step = 1.0 / max(1.0, float(colsum.max()))

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
        yield (it, z_v, Gz_v, *best_multiple(g_v, S_v), yv)

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

    # a last polish, for a caller that has not stopped by max_iter
    y_pol, _ = newton_polish(y, g_y)
    g_pol, S_pol, z_pol, _ = dual_value(y_pol)
    yield (max_iter, z_pol, G.dot(z_pol), *best_multiple(g_pol, S_pol), y_pol)


def _pdhg(
    G: _Rows, rhs: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_iter: int
) -> Iterator[tuple]:
    """Primal-dual hybrid gradient on  min sum z : G z >= rhs, z in the box
    (p = 1): the candidates of the start, of every 25th iteration and of
    ``max_iter``."""
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

    yield (0, z, G.dot(z), *dual_value(y), y)
    for it in range(1, max_iter + 1):
        y = np.maximum(0.0, y + sigma * (rhs - G.dot(zb)))
        z_new = np.minimum(np.maximum(lo, z - tau * (cost - G.tdot(y))), hi)
        zb = 2.0 * z_new - z
        z = z_new
        if it % 25 == 0 or it == max_iter:
            yield (it, z, G.dot(z), *dual_value(y), y)
