"""Independent checks of modcalc outputs.

Nothing here imports modcalc or the repository's tests.  Graphs are rebuilt
from the JSON-style specs the benchmark generates, distances come from
``scipy.sparse.csgraph``, curve families are enumerated by the benchmark's
own depth-first search (``enumeration``), and reference optima come from scipy:
HiGHS for p = 1, a least-distance program solved through NNLS for p = 2,
and L-BFGS-B on the Lagrange dual for other p.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize, nnls
from scipy.sparse.csgraph import shortest_path

from enumeration import Adjacency

# feasibility and identity tolerances, relative; the certified gap is
# checked against the solve tolerance separately
FEAS_RTOL = 1e-9
VALUE_RTOL = 1e-9
RESOLVE_RTOL = 1e-7


class Graph(Adjacency):
    """A space spec rebuilt with its measure and its own shortest-path
    metric."""

    def __init__(self, spec: dict) -> None:
        super().__init__(spec)
        self.m = np.array([float(v["m"]) for v in spec["vertices"]])
        rows, cols, lens = [], [], []
        for e in spec["edges"]:
            rows.append(self.index[str(e["u"])])
            cols.append(self.index[str(e["v"])])
            lens.append(float(e["len"]))
        n = len(self.ids)
        W = sparse.csr_matrix((lens, (rows, cols)), shape=(n, n))
        self.dist = shortest_path(W, method="D", directed=False)

    def values(self, mapping: dict) -> np.ndarray:
        return np.array([float(mapping[v]) for v in self.ids])


# -- families ----------------------------------------------------------


def walk_count(g: Graph, a: str, b: str, max_hops: int) -> int:
    """Number of walks from ``a`` to ``b`` with 1..max_hops hops, by exact
    integer powers of the adjacency matrix."""
    n = len(g)
    adj = np.zeros((n, n), dtype=np.int64)
    for u, nb in enumerate(g.adj):
        adj[u, nb] = 1
    vec = np.zeros(n, dtype=np.int64)
    vec[g.index[a]] = 1
    total = 0
    for _ in range(max_hops):
        vec = vec @ adj
        total += int(vec[g.index[b]])
    return total


def check_family(expected: set, got: list) -> list[str]:
    got_set = set(got)
    problems = []
    if len(got_set) != len(got):
        problems.append(f"family has {len(got) - len(got_set)} duplicate curves")
    if got_set != expected:
        problems.append(
            f"family differs from enumeration: {len(got_set - expected)} extra, "
            f"{len(expected - got_set)} missing"
        )
    return problems


# -- constraint rows ---------------------------------------------------


def rows(g: Graph, curves, lam: int = 0) -> sparse.csr_matrix:
    """Trapezoid path-integral rows (plus ``lam`` at both endpoints)."""
    r, c, v = [], [], []
    idx = g.index
    for k, seq in enumerate(curves):
        ix = [idx[x] for x in seq]
        for a, b in zip(ix, ix[1:]):
            half = 0.5 * g.dist[a, b]
            r += (k, k)
            c += (a, b)
            v += (half, half)
        if lam:
            r += (k, k)
            c += (ix[0], ix[-1])
            v += (1.0, 1.0)
    return sparse.csr_matrix((v, (r, c)), shape=(len(curves), len(g)))


def endpoints(g: Graph, curves) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([g.index[seq[0]] for seq in curves], dtype=int)
    b = np.array([g.index[seq[-1]] for seq in curves], dtype=int)
    return a, b


# -- density programs: modulus and minimal gradients -------------------


def check_density(
    g: Graph, A: sparse.csr_matrix, rhs: np.ndarray, rho: np.ndarray, value: float, p: float
) -> list[str]:
    """``rho >= 0``, ``A rho >= rhs`` and ``value == sum m rho^p``."""
    problems = []
    if np.any(rho < 0):
        problems.append(f"negative density {float(rho.min()):.3e}")
    lhs = A @ rho
    worst = float(np.max((rhs - lhs) / rhs)) if len(rhs) else 0.0
    if worst > FEAS_RTOL:
        problems.append(f"density violates a constraint by {worst:.3e} (relative)")
    energy = float(g.m @ np.abs(rho) ** p)
    if not abs(energy - value) <= VALUE_RTOL * max(abs(value), 1e-300):
        problems.append(f"value {value!r} != sum m rho^p {energy!r}")
    return problems


def dual_value(g: Graph, A: sparse.csr_matrix, rhs: np.ndarray, y: np.ndarray, p: float) -> float:
    """Lagrange dual of ``min sum m x^p : A x >= rhs, x >= 0`` at ``y >= 0``.

    For p > 1 the inner minimum is attained at ``x = (w / (p m))^(1/(p-1))``
    with ``w = A^T y``; for p = 1 the dual is ``rhs . y`` when ``A^T y <= m``
    and minus infinity otherwise.
    """
    if np.any(y < 0):
        return -math.inf
    w = A.T @ y
    if p == 1.0:
        if np.any(w > g.m * (1.0 + FEAS_RTOL)):
            return -math.inf
        return float(rhs @ y)
    x = (np.maximum(w, 0.0) / (p * g.m)) ** (1.0 / (p - 1.0))
    return float(rhs @ y - (p - 1.0) * (g.m @ x**p))


def check_certificate(value: float, dual: float, tol: float) -> list[str]:
    """``dual <= value <= dual (1 + tol)``, up to roundoff."""
    problems = []
    slack = 1e-12 * max(abs(value), 1e-300)
    if dual > value + slack:
        problems.append(f"dual {dual!r} exceeds value {value!r}")
    if value - dual > tol * value + slack:
        problems.append(f"gap (value - dual) / value = {(value - dual) / value:.3e} > tol {tol:g}")
    return problems


def check_plan(
    g: Graph,
    A: sparse.csr_matrix,
    weights: np.ndarray,
    bar: np.ndarray,
    value: float,
    gap: float,
    p: float,
    product: float,
) -> list[str]:
    """Barycenter ``A^T w / m`` of the normalized dual plan and the duality
    product ``|Bar|_q Mod^(1/p) = 1`` within the certified gap."""
    problems = []
    if not np.all(weights >= 0) or abs(weights.sum() - 1.0) > 1e-12:
        problems.append("plan is not a probability")
    expect = (A.T @ weights) / g.m
    if not np.allclose(bar, expect, rtol=1e-9, atol=1e-15):
        problems.append(f"barycenter off by {float(np.max(np.abs(bar - expect))):.3e}")
    q = p / (p - 1.0)
    ours = float((g.m @ expect**q) ** (1.0 / q)) * value ** (1.0 / p)
    if abs(ours - 1.0) > gap + 1e-9:
        problems.append(f"duality product {ours!r} not within gap {gap:.2e} of 1")
    if abs(product - ours) > 1e-9:
        problems.append(f"reported duality product {product!r} != {ours!r}")
    return problems


def resolve_density(g: Graph, A: sparse.csr_matrix, rhs: np.ndarray, p: float) -> tuple[float, float]:
    """Reference bracket ``(lower, upper)`` on the optimum of
    ``min sum m x^p : A x >= rhs, x >= 0``."""
    n = len(g)
    if p == 1.0:
        return _highs(g.m, -A, -rhs, (0, None))
    if p == 2.0:
        G = sparse.vstack([A, sparse.identity(n)]).toarray()
        h = np.concatenate([rhs, np.zeros(n)])
        return _least_distance(G, h, g.m)
    return _dual_ascent(g.m, A, rhs, p)


def check_resolve(value: float, bracket: tuple[float, float], tol: float) -> list[str]:
    """The certified value lies above the reference's lower bound and within
    tol of its upper bound; ``tol`` is the larger of the solve tolerance and
    the output's own certified gap."""
    lo, hi = bracket
    if lo * (1.0 - 1e-9) <= value <= hi * (1.0 + tol + 1e-9):
        return []
    return [f"value {value!r} outside the reference bracket [{lo!r}, {hi!r}]"]


def _highs(c, A_ub, b_ub, bounds) -> tuple[float, float]:
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun) * (1.0 - RESOLVE_RTOL), float(res.fun) * (1.0 + RESOLVE_RTOL)


def _least_distance(G: np.ndarray, h: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """``min sum m z^2 : G z >= h`` as a least-distance program solved by
    NNLS (Lawson and Hanson, ch. 23) in the variable ``x = sqrt(m) z``.

    Returns a bracket: the NNLS multipliers ``u >= 0`` give the lower bound
    ``(h.u)^2 / |Gx^T u|^2`` by weak duality, and the primal point, scaled
    onto the rows with positive right-hand side, gives the upper bound (the
    homogeneous rows hold up to NNLS roundoff).  Duplicate rows are merged
    first; repeated columns slow NNLS down and spoil its accuracy.
    """
    Gh = np.unique(np.hstack([G, h[:, None]]), axis=0)
    G, h = Gh[:, :-1], Gh[:, -1]
    Gx = G / np.sqrt(m)[None, :]
    E = np.vstack([Gx.T, h[None, :]])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, _ = nnls(E, f, maxiter=50 * E.shape[1])
    r = E @ u - f
    if abs(r[-1]) < 1e-14:
        raise RuntimeError("least-distance program reported infeasible")
    z = (-r[:-1] / r[-1]) / np.sqrt(m)
    slack = G @ z
    pos = h > 0
    z = z / min(1.0, float(np.min(slack[pos] / h[pos])))
    upper = float(m @ z**2)
    gu = Gx.T @ u
    lower = float((h @ u) ** 2 / (gu @ gu))
    return lower, upper


def _dual_ascent(m: np.ndarray, A: sparse.csr_matrix, rhs: np.ndarray, p: float) -> tuple[float, float]:
    """Bracket on ``min sum m x^p : A x >= rhs, x >= 0`` for ``1 < p``:
    L-BFGS-B maximizes the Lagrange dual of ``dual_value`` over ``y >= 0``
    from the best multiple of ``rhs``.  The dual value at its point is the
    lower bound, and the inner minimizer ``x(y)``, scaled up onto the
    feasible set, gives the upper bound."""
    AT = A.T.tocsr()
    r = 1.0 / (p - 1.0)

    def x_of(y):
        return (np.maximum(AT @ y, 0.0) / (p * m)) ** r

    def neg_dual(y):
        x = x_of(y)
        return -(rhs @ y - (p - 1.0) * (m @ x**p)), A @ x - rhs

    # D(t y) = t a - t^q b is largest at t = (a / (q b))^(1 / (q - 1))
    q = p / (p - 1.0)
    a, b = float(rhs @ rhs), (p - 1.0) * float(m @ x_of(rhs) ** p)
    y0 = rhs * (a / (q * b)) ** (1.0 / (q - 1.0))
    res = minimize(
        neg_dual, y0, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * len(rhs),
        options={"maxiter": 20000, "maxfun": 40000, "ftol": 1e-16, "gtol": 1e-13, "maxcor": 30},
    )
    y = np.maximum(res.x, 0.0)
    x = x_of(y)
    lower = float(-neg_dual(y)[0])
    x = x / min(1.0, float(np.min((A @ x) / rhs)))
    return lower, float(m @ x**p)


# -- capacity ----------------------------------------------------------


def check_capacity(
    g: Graph,
    C: sparse.csr_matrix,
    a: np.ndarray,
    b: np.ndarray,
    target: np.ndarray,
    truncated: bool,
    f: np.ndarray,
    rho: np.ndarray,
    value: float,
    p: float,
) -> list[str]:
    """Feasibility of ``(f, rho)`` and ``value == sum m |f|^p + sum m rho^p``."""
    problems = []
    if np.any(f[target] < 1.0 - FEAS_RTOL):
        problems.append(f"f below 1 on E: {float(f[target].min())!r}")
    if np.any(f < -FEAS_RTOL):
        problems.append(f"f negative: {float(f.min())!r}")
    if truncated and np.any(f > 1.0 + FEAS_RTOL):
        problems.append(f"truncated f above 1: {float(f.max())!r}")
    if np.any(rho < 0):
        problems.append(f"negative density {float(rho.min())!r}")
    need = np.abs(f[b] - f[a])
    have = C @ rho
    excess = float(np.max(need - have * (1.0 + FEAS_RTOL))) if len(need) else 0.0
    if excess > 1e-12:
        problems.append(f"increment exceeds path integral by {excess:.3e}")
    energy = float(g.m @ np.abs(f) ** p + g.m @ rho**p)
    if not abs(energy - value) <= VALUE_RTOL * max(abs(value), 1e-300):
        problems.append(f"value {value!r} != sum m |f|^p + sum m rho^p {energy!r}")
    return problems


def resolve_capacity(
    g: Graph,
    C: sparse.csr_matrix,
    a: np.ndarray,
    b: np.ndarray,
    target: np.ndarray,
    truncated: bool,
    p: float,
) -> tuple[float, float]:
    """Reference bracket on the optimum of the capacity program over
    ``z = (f, rho)``."""
    n, k = len(g), C.shape[0]
    S = sparse.csr_matrix(
        (np.r_[np.ones(k), -np.ones(k)], (np.r_[np.arange(k), np.arange(k)], np.r_[b, a])),
        shape=(k, n),
    )
    # C rho -/+ (f_b - f_a) >= 0
    G = sparse.vstack([sparse.hstack([-S, C]), sparse.hstack([S, C])]).tocsr()
    lo = np.where(target, 1.0, 0.0)
    hi = np.ones(n) if truncated else np.full(n, np.inf)
    mm = np.concatenate([g.m, g.m])
    if p == 1.0:
        bounds = [(lo[i], hi[i] if math.isfinite(hi[i]) else None) for i in range(n)]
        bounds += [(0, None)] * n
        return _highs(mm, -G, np.zeros(2 * k), bounds)
    if p == 2.0:
        eye = sparse.identity(2 * n).tocsr()
        blocks = [G, eye]
        h = [np.zeros(2 * k), np.concatenate([lo, np.zeros(n)])]
        if truncated:
            blocks.append(-eye[:n])
            h.append(-np.ones(n))
        return _least_distance(sparse.vstack(blocks).toarray(), np.concatenate(h), mm)
    raise ValueError("reference solves exist for p = 1 and p = 2 only")


# -- plans -------------------------------------------------------------


def check_plan_diagnostics(
    g: Graph, curves, weights: np.ndarray, lam: int, fvals: np.ndarray, result: dict
) -> list[str]:
    """Mass, barycenter, derivation and divergence of an explicit plan."""
    problems = []
    mass = float(weights.sum())
    if abs(result["mass"] - mass) > 1e-12:
        problems.append(f"mass {result['mass']!r} != {mass!r}")
    if result["is_probability"] != (abs(mass - 1.0) <= 1e-9):
        problems.append("is_probability flag is wrong")
    A = rows(g, curves, lam)
    bar = g.values(result["barycenter"])
    if not np.allclose(bar, (A.T @ weights) / g.m, rtol=1e-9, atol=1e-15):
        problems.append("barycenter differs from A^T w / m")
    # derivation: half of each signed hop increment at both hop endpoints
    bm = np.zeros(len(g))
    div = np.zeros(len(g))
    for seq, w in zip(curves, weights):
        ix = [g.index[x] for x in seq]
        for u, v in zip(ix, ix[1:]):
            inc = 0.5 * w * (fvals[v] - fvals[u])
            bm[u] += inc
            bm[v] += inc
        div[ix[0]] += w
        div[ix[-1]] -= w
    if not np.allclose(g.values(result["derivation"]), bm / g.m, rtol=1e-9, atol=1e-12):
        problems.append("derivation differs from the hop increments")
    if not np.allclose(g.values(result["divergence"]), div, rtol=1e-9, atol=1e-12):
        problems.append("divergence differs from start minus end mass")
    return problems
