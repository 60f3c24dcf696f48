"""Discrete slopes, Lipschitz constants, inf-convolution extension,
upper-gradient verification and the shortest-path Lipschitz relaxation."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, TYPE_CHECKING

import numpy as np

from .curve import DiscreteCurve, _HopTable, _edge_table, _hop_table, _on_vertices
from .space import MetricMeasureSpace, SpaceError, _dijkstra

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
    slope = _edge_table(space).slopes(_on_vertices(space, f))
    return dict(zip(space.vertices, slope.tolist()))


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
    at = np.array([space.index[v] for v in vs])
    i, j = np.triu_indices(len(at), 1)
    d = space._dist[at[i], at[j]]
    fv = np.array([float(f[v]) for v in vs])
    finite = np.isfinite(d)
    return float((np.abs(fv[i] - fv[j])[finite] / d[finite]).max(initial=0.0))


def mcshane_extend(
    space: MetricMeasureSpace, f_on_subset: Mapping[str, float], bound: float
) -> dict[str, float]:
    """Inf-convolution extension ``x -> min_y f(y) + bound * d(y, x)``.

    The extension agrees with ``f`` on its domain and is ``bound``-Lipschitz;
    ``bound`` must dominate the Lipschitz constant of the data.  A term at
    infinite distance is ``+inf``, also for ``bound = 0``.
    """
    anchor = sorted(str(v) for v in f_on_subset)
    if not anchor:
        raise SpaceError("mcshane_extend needs a nonempty domain")
    have = lipschitz_constant(space, f_on_subset, anchor)
    if not bound >= have - 1e-12 * max(1.0, have):
        raise ValueError(
            f"extension bound {bound} does not dominate the Lipschitz constant {have}"
        )
    d = space._dist[[space.index[y] for y in anchor]]
    fa = np.array([float(f_on_subset[y]) for y in anchor])
    with np.errstate(invalid="ignore"):  # 0 * inf, replaced by inf
        terms = np.where(np.isinf(d), math.inf, fa[:, None] + bound * d)
    return dict(zip(space.vertices, terms.min(axis=0).tolist()))


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


def _relax_hops(space: MetricMeasureSpace, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(u, v)`` of the distinct vertices at distance at most
    ``delta``, in row-major order: the hops that ``path_relax`` may take."""
    near = space._dist <= delta
    np.fill_diagonal(near, False)
    return np.nonzero(near)


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
    ``cap``.  Ties in the priority queue break on vertex index; with
    nonnegative costs the values do not depend on the pop order.
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
        if not float(f[c]) >= 0:
            raise ValueError(f"f must be nonnegative on the source set, got f[{c}]")

    u, v = _relax_hops(space, delta)
    gv = _on_vertices(space, g)
    cost = 0.5 * (gv[u] + gv[v]) * space._dist[u, v]
    arcs: list[list[tuple[int, float]]] = [[] for _ in space.vertices]
    for a, b, c in zip(u.tolist(), v.tolist(), cost.tolist()):
        arcs[a].append((b, c))
    dist = _dijkstra(arcs, {space.index[c]: float(f[c]) for c in src})
    return {x: min(cap, d) for x, d in zip(space.vertices, dist.tolist())}
