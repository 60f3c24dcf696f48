"""Discrete slopes, Lipschitz constants, inf-convolution extension,
upper-gradient verification and the shortest-path Lipschitz relaxation."""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping, TYPE_CHECKING

import numpy as np

from .curve import DiscreteCurve, _HopTable, _hop_table, _on_vertices
from .space import MetricMeasureSpace, SpaceError

if TYPE_CHECKING:
    from .families import CurveFamily

__all__ = [
    "asymptotic_slope",
    "lipschitz_constant",
    "mcshane_extend",
    "is_upper_gradient",
    "path_relax",
    "check_density",
]


def check_density(rho: Mapping[str, float], where: Iterable[str]) -> None:
    """Raise if ``rho`` takes a negative (or NaN) value on ``where``."""
    for v in where:
        x = float(rho[v])
        if math.isnan(x) or x < 0:
            raise ValueError(f"density is negative at {v!r}: {x}")


def asymptotic_slope(
    space: MetricMeasureSpace, f: Mapping[str, float]
) -> dict[str, float]:
    """Largest difference quotient of ``f`` towards a graph neighbor.

    Graph neighborhoods do not shrink, so the slope and the asymptotic slope
    coincide in this model; isolated vertices get 0.
    """
    out: dict[str, float] = {}
    for v in space.vertices:
        best = 0.0
        fv = float(f[v])
        for u, _ in space.neighbors(v):
            best = max(best, abs(float(f[u]) - fv) / space.distance(u, v))
        out[v] = best
    return out


def lipschitz_constant(
    space: MetricMeasureSpace, f: Mapping[str, float], subset: Iterable[str]
) -> float:
    """Largest difference quotient of ``f`` over distinct pairs of ``subset``.

    Pairs in different components (infinite distance) contribute 0.
    Singletons give 0; an empty set is rejected.
    """
    vs = sorted(space.check_subset(subset))
    if not vs:
        raise SpaceError("lipschitz_constant needs a nonempty vertex set")
    best = 0.0
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            d = space.distance(u, v)
            if math.isinf(d):
                continue
            best = max(best, abs(float(f[u]) - float(f[v])) / d)
    return best


def mcshane_extend(
    space: MetricMeasureSpace, f_on_subset: Mapping[str, float], bound: float
) -> dict[str, float]:
    """Inf-convolution extension ``x -> min_y f(y) + bound * d(y, x)``.

    The extension agrees with ``f`` on its domain and is ``bound``-Lipschitz;
    ``bound`` must dominate the Lipschitz constant of the data.
    """
    anchor = sorted(str(v) for v in f_on_subset)
    if not anchor:
        raise SpaceError("mcshane_extend needs a nonempty domain")
    have = lipschitz_constant(space, f_on_subset, anchor)
    if bound < have - 1e-12 * max(1.0, have):
        raise ValueError(
            f"extension bound {bound} is below the Lipschitz constant {have}"
        )
    out: dict[str, float] = {}
    for x in space.vertices:
        out[x] = min(
            float(f_on_subset[y]) + bound * space.distance(y, x) for y in anchor
        )
    return out


def is_upper_gradient(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    rho: Mapping[str, float],
    family: "CurveFamily | Iterable[DiscreteCurve]",
    tol: float = 1e-12,
) -> tuple[bool, DiscreteCurve | None]:
    """Check ``|f(end) - f(start)| <= path integral of rho`` on every curve.

    Returns the truth value and the worst violating curve (``None`` when the
    check passes).
    """
    curves = list(family)
    table = _hop_table(space, curves)
    i = _worst_curve(table, _on_vertices(space, f), _on_vertices(space, rho), tol)
    return i is None, None if i is None else curves[i]


def _worst_curve(table: _HopTable, f: np.ndarray, rho: np.ndarray, tol: float) -> int | None:
    """Index of the first curve whose increment of ``f`` most exceeds the path
    integral of ``rho``, if that is by more than ``tol`` (NaN never counts)."""
    violation = np.abs(f[table.end] - f[table.start]) - table.path_integrals(rho)
    over = np.flatnonzero(violation > tol)
    return int(over[np.argmax(violation[over])]) if over.size else None


def path_relax(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    g: Mapping[str, float],
    sources: Iterable[str],
    delta: float,
    cap: float,
) -> dict[str, float]:
    """Shortest-path relaxation of ``f`` with running cost ``g``.

    Computes, for every vertex ``x``, the capped infimum of
    ``f(p_0) + sum_k avg(g(p_k), g(p_{k+1})) * d(p_k, p_{k+1})`` over chains
    that start in ``sources`` and end at ``x`` with every hop of metric
    length at most ``delta``.  Hops may join any vertex pair within
    ``delta``, not only graph edges.  Implemented as a multi-source Dijkstra
    sweep with potentials ``f`` on the sources; unreachable vertices get
    ``cap``.  Ties in the priority queue break on vertex id, so the result
    is deterministic.
    """
    src = sorted(space.check_subset(sources))
    if not src:
        raise SpaceError("path_relax needs a nonempty source set")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not cap > 0:
        raise ValueError(f"cap must be positive, got {cap}")
    check_density(g, space.vertices)
    for c in src:
        if float(f[c]) < 0:
            raise ValueError(f"f must be nonnegative on the source set, got f[{c}]")

    dist: dict[str, float] = {}
    heap: list[tuple[float, str]] = []
    for c in src:
        fc = float(f[c])
        if fc < dist.get(c, math.inf):
            dist[c] = fc
            heapq.heappush(heap, (fc, c))

    hop_targets: dict[str, list[str]] = {}
    for u in space.vertices:
        hop_targets[u] = [
            v
            for v in space.vertices
            if v != u and space.distance(u, v) <= delta
        ]

    done: set[str] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        gu = float(g[u])
        for v in hop_targets[u]:
            if v in done:
                continue
            step = 0.5 * (gu + float(g[v])) * space.distance(u, v)
            nd = d + step
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))

    return {v: min(cap, dist.get(v, math.inf)) for v in space.vertices}
