"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the package's own solver paths: scipy
(SLSQP / HiGHS) re-solves the convex programs, networkx re-derives shortest
paths and relaxations, and the walk enumerator is a breadth-first layer scan
rather than the package's depth-first one.
"""

from __future__ import annotations

import math
import random

import numpy as np

from modcalc import MetricMeasureSpace, make_curve
from modcalc.curve import DiscreteCurve


# -- instance generators -------------------------------------------------


def random_connected_space(
    rng: random.Random,
    n: int,
    extra_edges: int = 2,
    len_range: tuple[float, float] = (0.5, 2.0),
    mass_range: tuple[float, float] = (0.5, 1.5),
) -> MetricMeasureSpace:
    ids = [str(i) for i in range(n)]
    edges: dict[tuple[str, str], float] = {}
    for i in range(1, n):
        j = rng.randrange(i)
        key = (str(min(i, j)), str(max(i, j)))
        edges[key] = rng.uniform(*len_range)
    for _ in range(extra_edges):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        key = (str(min(i, j)), str(max(i, j)))
        if key not in edges:
            edges[key] = rng.uniform(*len_range)
    measure = {v: rng.uniform(*mass_range) for v in ids}
    edge_list = [(u, v, l) for (u, v), l in sorted(edges.items())]
    return MetricMeasureSpace(ids, edge_list, measure)


def random_disconnected_space(rng: random.Random, n: int, **kw) -> MetricMeasureSpace:
    """A random connected space on ``n`` vertices beside a second one on 1 to
    3 vertices (ids prefixed with "x"), with no edge between the two."""
    a = random_connected_space(rng, n, **kw)
    b = random_connected_space(rng, rng.randint(1, 3), **kw)
    ids = list(a.vertices) + [f"x{v}" for v in b.vertices]
    edges = list(a.edges) + [(f"x{u}", f"x{v}", le) for u, v, le in b.edges]
    measure = {**a.measure, **{f"x{v}": m for v, m in b.measure.items()}}
    return MetricMeasureSpace(ids, edges, measure)


def random_edge_walk(
    rng: random.Random,
    space: MetricMeasureSpace,
    max_hops: int,
    min_hops: int = 1,
) -> DiscreteCurve:
    for _ in range(50):
        start = rng.choice(space.vertices)
        hops = rng.randint(min_hops, max_hops)
        seq = [start]
        for _ in range(hops):
            nbrs = space.neighbors(seq[-1])
            if not nbrs:
                break
            seq.append(rng.choice(nbrs)[0])
        if len(seq) >= min_hops + 1:
            return make_curve(space, seq)
    raise RuntimeError("could not draw a walk; graph too sparse")


def random_function(
    rng: random.Random,
    space: MetricMeasureSpace,
    lo: float = -2.0,
    hi: float = 2.0,
) -> dict[str, float]:
    return {v: rng.uniform(lo, hi) for v in space.vertices}


def retimed(rng: random.Random, curve: DiscreteCurve) -> DiscreteCurve:
    """Random strictly increasing retiming of the breakpoints."""
    n = len(curve.times)
    if n == 1:
        return curve
    cuts = sorted(rng.uniform(0.05, 1.0) for _ in range(n - 1))
    t = [0.0]
    for c in cuts:
        t.append(t[-1] + c)
    return curve.with_times(t)


# -- independent oracles -------------------------------------------------


def closed_form_single_curve(c: np.ndarray, m: np.ndarray, p: float) -> float:
    """Optimal value of  min sum m x^p  s.t.  c.x >= 1, x >= 0 (c nonneg)."""
    q = p / (p - 1.0)
    active = c > 0
    return float(np.sum(c[active] ** q * m[active] ** (1.0 - q)) ** (1.0 - p))


def oracle_min_power(A, rhs, m, p):
    """scipy re-solve of  min sum m x^p : Ax >= rhs, x >= 0."""
    import scipy.optimize as so

    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    m = np.asarray(m, dtype=float)
    n = A.shape[1]
    if p == 1.0:
        res = so.linprog(
            m, A_ub=-A, b_ub=-rhs, bounds=[(0, None)] * n, method="highs"
        )
        assert res.status == 0, res.message
        return float(res.fun), res.x
    # normalize so constraints read  A x >= 1  (value scales by unit**p)
    unit = float(rhs.max())
    r = rhs / unit
    x0 = np.ones(n)
    scale = float(np.min(A @ x0 / r))
    x0 = x0 / scale * 1.5

    def obj(x):
        return float((m * np.maximum(x, 0.0) ** p).sum())

    def jac(x):
        return p * m * np.maximum(x, 0.0) ** (p - 1.0)

    cons = [{"type": "ineq", "fun": lambda x: A @ x - r, "jac": lambda x: A}]
    res = so.minimize(
        obj,
        x0,
        jac=jac,
        bounds=[(0, None)] * n,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    if not res.success:
        lin = so.LinearConstraint(A, lb=r, ub=np.inf)
        res = so.minimize(
            obj,
            x0,
            jac=jac,
            bounds=so.Bounds(np.zeros(n), np.full(n, np.inf)),
            constraints=[lin],
            method="trust-constr",
            options={"maxiter": 5000, "gtol": 1e-12, "xtol": 1e-14},
        )
    assert res.success, res.message
    return float(res.fun) * unit**p, res.x * unit


def oracle_capacity(space, E, curves, p, truncated):
    """scipy re-solve of the joint capacity program over (f, rho)."""
    import scipy.optimize as so

    E = set(E)
    n = len(space)
    idx = space.index
    rows = [reference_row(space, c, 0) for c in curves if not c.is_constant]
    ends = [(idx[c.start], idx[c.end]) for c in curves if not c.is_constant]
    m = space.measure_vector()

    def obj(z):
        f, rho = z[:n], z[n:]
        return float((m * np.abs(f) ** p).sum() + (m * np.maximum(rho, 0) ** p).sum())

    def jac(z):
        f, rho = z[:n], z[n:]
        return np.concatenate(
            [
                p * m * np.sign(f) * np.abs(f) ** (p - 1.0),
                p * m * np.maximum(rho, 0.0) ** (p - 1.0),
            ]
        )

    # linear rows over z = (f, rho):  c.rho -+ (f_b - f_a) >= 0
    G = np.zeros((2 * len(rows), 2 * n))
    for j, (row, (a, b)) in enumerate(zip(rows, ends)):
        G[2 * j, n:] = row
        G[2 * j, a] += 1.0
        G[2 * j, b] -= 1.0
        G[2 * j + 1, n:] = row
        G[2 * j + 1, a] -= 1.0
        G[2 * j + 1, b] += 1.0
    bounds = []
    for v in space.vertices:
        if v in E:
            bounds.append((1.0, 1.0 if truncated else None))
        else:
            bounds.append((0.0, 1.0 if truncated else None))
    bounds.extend([(0.0, None)] * n)
    z0 = np.concatenate([np.ones(n), np.ones(n)])
    cons = (
        [{"type": "ineq", "fun": lambda z: G @ z, "jac": lambda z: G}]
        if len(rows)
        else []
    )
    res = so.minimize(
        obj,
        z0,
        jac=jac,
        bounds=bounds,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    if not res.success:
        lo = np.array([b[0] for b in bounds])
        hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
        constraints = (
            [so.LinearConstraint(G, lb=np.zeros(G.shape[0]), ub=np.inf)]
            if len(rows)
            else []
        )
        res = so.minimize(
            obj,
            z0,
            jac=jac,
            bounds=so.Bounds(lo, hi),
            constraints=constraints,
            method="trust-constr",
            options={"maxiter": 5000, "gtol": 1e-12, "xtol": 1e-14},
        )
    assert res.success, res.message
    return float(res.fun)


# -- per-curve references for the family-level layers --------------------
# These walk each curve hop by hop with ``space.distance``, the way the
# curve-level definitions do, so the package's hop table is checked against
# code that shares nothing with it.


def _hops(curve: DiscreteCurve):
    return zip(curve.vertices, curve.vertices[1:])


def reference_row(space, curve, lam):
    """Trapezoid admissibility row: half of each hop length at both hop
    ends, then one unit at each endpoint for ``lam = 1``."""
    row = np.zeros(len(space))
    idx = space.index
    for u, v in _hops(curve):
        d = space.distance(u, v)
        row[idx[u]] += 0.5 * d
        row[idx[v]] += 0.5 * d
    if lam == 1:
        row[idx[curve.start]] += 1.0
        row[idx[curve.end]] += 1.0
    return row


def reference_hop_slopes(space, f, curves):
    rho = {v: 0.0 for v in space.vertices}
    for curve in curves:
        for u, v in _hops(curve):
            ratio = abs(f[v] - f[u]) / space.distance(u, v)
            rho[u] = max(rho[u], ratio)
            rho[v] = max(rho[v], ratio)
    return rho


def reference_hop_check(space, f, rho, curves, tol):
    """Verdict and first curve holding the largest hop violation above tol."""
    worst, worst_violation = None, tol
    for curve in curves:
        for u, v in _hops(curve):
            violation = abs(f[v] - f[u]) - 0.5 * (rho[u] + rho[v]) * space.distance(u, v)
            if violation > worst_violation:
                worst, worst_violation = curve, violation
    return worst is None, worst


def reference_barycenter(space, plan, lam):
    acc = {v: 0.0 for v in space.vertices}
    for curve, w in plan.support:
        for u, v in _hops(curve):
            acc[u] += w * 0.5 * space.distance(u, v)
            acc[v] += w * 0.5 * space.distance(u, v)
        if lam == 1:
            acc[curve.start] += w
            acc[curve.end] += w
    return {v: acc[v] / space.measure[v] for v in space.vertices}


def reference_derivation(space, plan, f):
    b = {v: 0.0 for v in space.vertices}
    div = {v: 0.0 for v in space.vertices}
    for curve, w in plan.support:
        for u, v in _hops(curve):
            b[u] += w * 0.5 * (f[v] - f[u])
            b[v] += w * 0.5 * (f[v] - f[u])
        div[curve.start] += w
        div[curve.end] -= w
    return {v: b[v] / space.measure[v] for v in space.vertices}, div


# -- per-vertex and per-pair references for the metric layer -------------
# Loops over ``space.distance`` and ``space.neighbors``, the way the
# definitions read, against the package's reads of the distance matrix.


def reference_asymptotic_slope(space, f):
    out = {}
    for v in space.vertices:
        best = 0.0
        for u, _ in space.neighbors(v):
            best = max(best, abs(f[u] - f[v]) / space.distance(u, v))
        out[v] = best
    return out


def reference_lipschitz_constant(space, f, subset):
    vs = sorted(set(subset))
    best = 0.0
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            d = space.distance(u, v)
            if math.isfinite(d):
                best = max(best, abs(f[u] - f[v]) / d)
    return best


def reference_mcshane(space, data, bound):
    """Inf-convolution with every term at infinite distance taken as +inf."""
    out = {}
    for x in space.vertices:
        terms = []
        for y in data:
            d = space.distance(y, x)
            terms.append(data[y] + bound * d if math.isfinite(d) else math.inf)
        out[x] = min(terms)
    return out


def reference_slope_bounded(space, slope, g):
    """Whether ``slope`` stays within the largest neighbor average of ``g``."""
    for v in space.vertices:
        limit = 0.0
        for u, _ in space.neighbors(v):
            limit = max(limit, 0.5 * (g[v] + g[u]))
        if slope[v] > limit + 1e-12:
            return False
    return True


def mixed_curves(rng: random.Random, space: MetricMeasureSpace, k: int) -> list:
    """``k`` random edge walks, which may revisit vertices, and two
    constant curves, shuffled."""
    curves = [random_edge_walk(rng, space, 5) for _ in range(k)]
    curves += [make_curve(space, [v]) for v in rng.sample(space.vertices, 2)]
    rng.shuffle(curves)
    return curves


def nx_graph(space: MetricMeasureSpace):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(space.vertices)
    for u, v, le in space.edges:
        G.add_edge(u, v, weight=le)
    return G


def oracle_distance(space: MetricMeasureSpace, u: str, v: str) -> float:
    import networkx as nx

    G = nx_graph(space)
    try:
        return float(nx.dijkstra_path_length(G, u, v))
    except nx.NetworkXNoPath:
        return math.inf


def oracle_path_relax(space, f, g, sources, delta, cap):
    """Super-source Dijkstra on the delta-proximity digraph via networkx."""
    import networkx as nx

    D = nx.DiGraph()
    D.add_nodes_from(space.vertices)
    for u in space.vertices:
        for v in space.vertices:
            if u != v and space.distance(u, v) <= delta:
                w = 0.5 * (g[u] + g[v]) * space.distance(u, v)
                D.add_edge(u, v, weight=w)
    D.add_node("__src__")
    for c in sources:
        if (
            "__src__",
            c,
        ) in D.edges and D.edges["__src__", c]["weight"] <= f[c]:
            continue
        D.add_edge("__src__", c, weight=f[c])
    dist = nx.single_source_dijkstra_path_length(D, "__src__")
    return {v: min(cap, dist.get(v, math.inf)) for v in space.vertices}


def brute_walks(space, max_hops: int, simple: bool) -> list[tuple[str, ...]]:
    """Breadth-first enumeration of all edge walks with 1..max_hops hops."""
    out: list[tuple[str, ...]] = []
    frontier = [[v] for v in space.vertices]
    for _ in range(max_hops):
        nxt = []
        for seq in frontier:
            for u, _ in space.neighbors(seq[-1]):
                if simple and u in seq:
                    continue
                step = seq + [u]
                nxt.append(step)
                out.append(tuple(step))
        frontier = nxt
    return out
