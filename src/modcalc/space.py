"""Finite weighted graphs carrying a vertex measure and the shortest-path metric."""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "SpaceError",
    "MetricMeasureSpace",
    "build_space",
    "space_to_json",
    "path_space",
    "cycle_space",
    "grid_space",
]


class SpaceError(ValueError):
    """A space description violates one of the structural invariants."""


class MetricMeasureSpace:
    """A finite simple undirected graph with positive edge lengths and vertex masses.

    The metric is the shortest-path metric of the edge-length graph, which
    guarantees the metric axioms by construction; vertices in different
    components are at distance ``math.inf``.  All-pairs distances are computed
    eagerly, so instances are immutable after construction and safe to share
    read-only across concurrent computations.

    Vertex ids are opaque strings.  Iteration order (``vertices``) is the
    construction order and is used everywhere deterministic output matters.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, float]],
        measure: Mapping[str, float],
    ) -> None:
        ids = [str(v) for v in vertices]
        if not ids:
            raise SpaceError("space needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise SpaceError("duplicate vertex id")
        index = {v: i for i, v in enumerate(ids)}

        seen: set[tuple[str, str]] = set()
        adj: dict[str, list[tuple[str, float]]] = {v: [] for v in ids}
        norm_edges = []
        for u, v, length in edges:
            u, v = str(u), str(v)
            if u not in index or v not in index:
                raise SpaceError(f"edge ({u},{v}) uses an unknown vertex id")
            if u == v:
                raise SpaceError(f"self-loop at {u}")
            le = float(length)
            if not math.isfinite(le) or le <= 0.0:
                raise SpaceError(f"edge ({u},{v}) has nonpositive length {length!r}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise SpaceError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[u].append((v, le))
            adj[v].append((u, le))
            norm_edges.append((key[0], key[1], le))

        for v in measure:
            if str(v) not in index:
                raise SpaceError(f"measure given for unknown vertex {v}")
        meas: dict[str, float] = {}
        for v in ids:
            if v not in measure:
                raise SpaceError(f"vertex {v} has no measure")
            mv = float(measure[v])
            if not math.isfinite(mv) or mv <= 0.0:
                raise SpaceError(f"vertex {v} has nonpositive measure {measure[v]!r}")
            meas[v] = mv

        self._vertices = tuple(ids)
        self._edges = tuple(sorted(norm_edges))
        self._measure = meas
        self._index = index
        self._adj = {v: tuple(sorted(adj[v])) for v in ids}
        self._eu = np.array([index[u] for u, _, _ in self._edges], dtype=np.intp)
        self._ev = np.array([index[v] for _, v, _ in self._edges], dtype=np.intp)
        self._dist = self._all_pairs()

    # -- metric ---------------------------------------------------------

    def _all_pairs(self) -> np.ndarray:
        arcs = [[(self._index[v], le) for v, le in self._adj[u]] for u in self._vertices]
        dist = np.array([_dijkstra(arcs, {i: 0.0}) for i in range(len(arcs))])
        # summation order differs per source, so enforce exact symmetry
        return np.minimum(dist, dist.T)

    # -- accessors ------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str, float], ...]:
        return self._edges

    @property
    def measure(self) -> Mapping[str, float]:
        return self._measure

    @property
    def index(self) -> Mapping[str, int]:
        return self._index

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def neighbors(self, v: str) -> tuple[tuple[str, float], ...]:
        """Edge neighbors of ``v`` as (vertex, edge length) pairs, sorted by id."""
        self._check(v)
        return self._adj[v]

    def _check(self, v: str) -> None:
        if v not in self._index:
            raise SpaceError(f"unknown vertex {v!r}")

    def distance(self, u: str, v: str) -> float:
        """Shortest-path distance; ``inf`` across components, ``0`` on the diagonal."""
        self._check(u)
        self._check(v)
        return float(self._dist[self._index[u], self._index[v]])

    def distance_matrix(self) -> np.ndarray:
        """All-pairs distance matrix in ``vertices`` order (a copy)."""
        return self._dist.copy()

    def ball(self, center: str, r: float, closed: bool = False) -> frozenset[str]:
        """Open (default) or closed metric ball around ``center``."""
        self._check(center)
        if not r >= 0:
            raise SpaceError(f"radius must be nonnegative, got {r}")
        row = self._dist[self._index[center]]
        if closed:
            hit = row <= r
        else:
            hit = row < r
        return frozenset(v for v, ok in zip(self._vertices, hit) if ok)

    def diameter(self) -> float:
        """Largest finite pairwise distance (0 for a single vertex)."""
        finite = self._dist[np.isfinite(self._dist)]
        return float(finite.max()) if finite.size else 0.0

    def max_edge_distance(self) -> float:
        """Largest metric distance between edge-adjacent vertices.

        This can be smaller than the largest edge length when an edge is
        shortcut by a cheaper path.  Returns 0 for an edgeless graph.
        """
        return float(self._dist[self._eu, self._ev].max(initial=0.0))

    def mass(self, subset: Iterable[str] | None = None) -> float:
        """Total measure of ``subset`` (the whole space when omitted)."""
        if subset is None:
            return float(sum(self._measure.values()))
        total = 0.0
        for v in set(subset):
            self._check(v)
            total += self._measure[v]
        return total

    def measure_vector(self) -> np.ndarray:
        return np.array([self._measure[v] for v in self._vertices])

    def check_subset(self, subset: Iterable[str]) -> frozenset[str]:
        """Validate a vertex set against the space and return it frozen."""
        out = frozenset(str(v) for v in subset)
        for v in out:
            self._check(v)
        return out


def _dijkstra(arcs: list[list[tuple[int, float]]], init: Mapping[int, float]) -> np.ndarray:
    """Multi-source shortest paths over vertex indices.

    ``arcs[u]`` lists the ``(v, cost)`` arcs out of ``u``, costs nonnegative;
    ``init`` maps the start indices to their potentials.  Returns the distance
    vector, ``inf`` where no start reaches.  With nonnegative costs every
    value is the least float sum along a path, whatever the pop order.
    """
    dist = [math.inf] * len(arcs)
    heap = []
    for i, d in init.items():
        if d < dist[i]:
            dist[i] = d
            heap.append((d, i))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:  # superseded by a shorter push
            continue
        for v, cost in arcs[u]:
            nd = d + cost
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist)


def lp_norm(space: MetricMeasureSpace, values: Mapping[str, float], p: float) -> float:
    """Measure-weighted p-norm of a vertex function."""
    if not p >= 1:
        raise SpaceError(f"p must be at least 1, got {p}")
    if math.isinf(p):
        return max(abs(float(values[v])) for v in space.vertices)
    return float(
        sum(abs(float(values[v])) ** p * space.measure[v] for v in space.vertices)
        ** (1.0 / p)
    )


def build_space(spec: Mapping) -> MetricMeasureSpace:
    """Build a validated space from its JSON-style description.

    Expected shape::

        {"vertices": [{"id": str, "m": float}, ...],
         "edges": [{"u": str, "v": str, "len": float}, ...]}
    """
    try:
        raw_vertices = spec["vertices"]
        raw_edges = spec.get("edges", [])
        vertices = [str(item["id"]) for item in raw_vertices]
        measure = {str(item["id"]): float(item["m"]) for item in raw_vertices}
        edges = [(str(e["u"]), str(e["v"]), float(e["len"])) for e in raw_edges]
    except (KeyError, TypeError) as exc:
        raise SpaceError(f"malformed space description: {exc}") from exc
    return MetricMeasureSpace(vertices, edges, measure)


def space_to_json(space: MetricMeasureSpace) -> dict:
    return {
        "vertices": [{"id": v, "m": space.measure[v]} for v in space.vertices],
        "edges": [{"u": u, "v": v, "len": le} for u, v, le in space.edges],
    }


def path_space(n: int, length: float = 1.0, mass: float = 1.0) -> MetricMeasureSpace:
    """Path graph on vertices "0".."n-1" with constant edge length and mass."""
    vs = [str(i) for i in range(n)]
    edges = [(str(i), str(i + 1), length) for i in range(n - 1)]
    return MetricMeasureSpace(vs, edges, {v: mass for v in vs})


def cycle_space(n: int, length: float = 1.0, mass: float = 1.0) -> MetricMeasureSpace:
    if n < 3:
        raise SpaceError("a cycle needs at least 3 vertices")
    vs = [str(i) for i in range(n)]
    edges = [(str(i), str((i + 1) % n), length) for i in range(n)]
    return MetricMeasureSpace(vs, edges, {v: mass for v in vs})


def grid_space(
    rows: int,
    cols: int,
    length: float = 1.0,
    mass: float = 1.0,
) -> MetricMeasureSpace:
    """rows x cols grid with unit-style data; vertex ids are "i,j"."""
    vs = [f"{i},{j}" for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((f"{i},{j}", f"{i + 1},{j}", length))
            if j + 1 < cols:
                edges.append((f"{i},{j}", f"{i},{j + 1}", length))
    return MetricMeasureSpace(vs, edges, {v: mass for v in vs})
