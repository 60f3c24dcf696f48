"""Finite weighted graphs carrying a vertex measure and the shortest-path metric."""

from __future__ import annotations

import heapq
import math
from functools import cached_property
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
    components are at distance ``math.inf``.  The all-pairs distance matrix is
    a cache, filled on its first read with a value the edges alone determine,
    and so are the near pairs of the last ``delta`` asked (``_near_pairs``),
    so an instance is still safe to share read-only across computations.

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
        # the (index, length) arcs out of each vertex index, sorted by id
        self._arcs = [[(index[v], le) for v, le in self._adj[u]] for u in ids]
        self._eu = np.array([index[u] for u, _, _ in self._edges], dtype=np.intp)
        self._ev = np.array([index[v] for _, v, _ in self._edges], dtype=np.intp)
        self._edge_d = self._edge_distances()
        self._edge_d.flags.writeable = False  # hop tables share it
        self._near: tuple = (None, ())

    # -- metric ---------------------------------------------------------

    def _edge_distances(self) -> np.ndarray:
        """Metric distance of every edge, in ``edges`` order, equal bit for
        bit to the entry of ``_dist``: a vertex's longest incident edge
        bounds the distance of each of its edges, so a search bounded by it
        settles them to the values of the full search."""
        reach = [
            _dijkstra(self._arcs, {i: 0.0}, max((le for _, le in out), default=0.0))
            for i, out in enumerate(self._arcs)
        ]
        return np.array(
            [min(reach[u][v], reach[v][u]) for u, v in zip(self._eu.tolist(), self._ev.tolist())],
            dtype=float,
        )

    @cached_property
    def _dist(self) -> np.ndarray:
        """The all-pairs distance matrix, built on first read by one
        relaxation over every source (``_relaxed``), bit for bit the rows of
        ``_dijkstra``; other modules ask ``_pair_distances`` or
        ``_near_pairs`` instead."""
        dist = _relaxed(self._arcs)
        # summation order differs per source, so enforce exact symmetry
        return np.minimum(dist, dist.T)

    def _pair_distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Distance of each index pair of the arrays ``u`` and ``v``, broadcast
        together: the stored edge distances when every pair is a graph edge,
        else the all-pairs matrix, built on that read (read in place:
        ``distance_matrix()`` would copy it)."""
        key = _pair_keys(u, v, len(self))
        edge = _pair_keys(self._eu, self._ev, len(self))
        if not np.isin(key, edge).all():
            return self._dist[u, v]
        order = np.argsort(edge)
        return self._edge_d[order[np.searchsorted(edge, key, sorter=order)]]

    def _near_pairs(self, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index pairs ``(u, v)``, ``u != v``, at distance at most ``delta``,
        in row-major order, and their distances, equal bit for bit to the
        entries of ``_dist``: a search bounded by ``delta`` from every vertex
        finds each such pair in one direction at least, and a direction it
        misses lies past ``delta``, so it cannot hold the smaller value.  The
        three arrays of the last ``delta`` are kept, read-only, for the next
        call with it."""
        last, near = self._near  # one read: another thread may replace it
        if last == delta:
            return near
        reach = [_dijkstra(self._arcs, {i: 0.0}, delta) for i in range(len(self._arcs))]
        found = {(a, b) for a, row in enumerate(reach) for b in row if b != a}
        pairs = sorted(found | {(b, a) for a, b in found})
        d = [min(reach[a].get(b, math.inf), reach[b].get(a, math.inf)) for a, b in pairs]
        u, v = np.array(pairs, np.intp).reshape(-1, 2).T
        near = (u, v, np.array(d, float))
        for a in near:
            a.flags.writeable = False
        self._near = (delta, near)
        return near

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
        return float(self._edge_d.max(initial=0.0))

    def mass(self, subset: Iterable[str] | None = None) -> float:
        """Total measure of ``subset`` (the whole space when omitted), added
        in ``vertices`` order: the order of a set of strings changes with the
        process's hash seed, and so would the last bits of the sum."""
        if subset is None:
            return float(sum(self._measure.values()))
        chosen = self.check_subset(subset)
        return float(sum(self._measure[v] for v in self._vertices if v in chosen))

    def measure_vector(self) -> np.ndarray:
        return np.array([self._measure[v] for v in self._vertices])

    def check_subset(self, subset: Iterable[str]) -> frozenset[str]:
        """Validate a vertex set against the space and return it frozen.  A
        string is rejected: iterating it would give its characters."""
        if isinstance(subset, str):
            raise SpaceError(f"a vertex set must be a collection of ids, got the string {subset!r}")
        out = frozenset(str(v) for v in subset)
        for v in out:
            self._check(v)
        return out


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """One key per unordered pair of vertex indices below ``n``."""
    return np.minimum(u, v) * n + np.maximum(u, v)


# sources relaxed together: their distance rows and pending masks are one
# block, so numpy's per-call cost is shared
_SOURCE_BLOCK = 256
# a round of a block relaxes its arcs in passes of at most n * n // 3 arcs,
# so that a pass's three arc-sized temporaries stay near one n x n matrix,
# but of this many at least, so that small dense spaces make few passes
_MIN_PASS = 1 << 12


def _relaxed(arcs: list[list[tuple[int, float]]]) -> np.ndarray:
    """Shortest-path distances over vertex indices from every source, a row
    per source, ``inf`` where a source does not reach; ``arcs`` is as for
    ``_dijkstra``.  A label-correcting relaxation (Bellman, "On a routing
    problem", 1958) on blocks of ``_SOURCE_BLOCK`` sources: each round
    relaxes every arc out of the pending entries, in passes of a bounded
    number of arcs, scatters the strict improvements in and marks them
    pending, until none is.  Every value is a float sum along a path, and
    no arc improves one at the end; float addition of a nonnegative cost is
    monotone, so each is the least such sum, which ``_dijkstra`` returns
    too: the rows are its rows bit for bit."""
    n = len(arcs)
    deg = np.fromiter(map(len, arcs), np.intp, n)
    off = np.cumsum(deg) - deg
    tgt = np.fromiter((v for out in arcs for v, _ in out), np.intp, deg.sum())
    cost = np.fromiter((c for out in arcs for _, c in out), float, deg.sum())
    # pending entries per pass; each has at most deg.max() arcs
    step = max(n * n // 3, _MIN_PASS) // max(deg.max(initial=0), 1)
    dist = np.full((n, n), math.inf)
    for lo in range(0, n, _SOURCE_BLOCK):
        flat = dist[lo : lo + _SOURCE_BLOCK].reshape(-1)  # a view
        at = np.arange(len(flat) // n) * (n + 1) + lo  # the sources' own entries
        flat[at] = 0.0
        pending = np.zeros(len(flat), bool)
        while len(at):
            for i in range(0, len(at), step):
                e = at[i : i + step]  # a pass's entries
                u = e % n
                k = deg[u]
                # the arcs out of every entry, in arc-list order
                arc = np.repeat(off[u] - np.cumsum(k) + k, k)
                arc += np.arange(len(arc))
                d = np.repeat(flat[e], k)
                d += cost[arc]
                to = tgt[arc]
                del arc  # at most three arc-sized arrays live at once
                to += np.repeat(e - u, k)  # offset by the first entry of the row
                better = d < flat[to]
                to = to[better]
                np.minimum.at(flat, to, d[better])
                pending[to] = True
                del d, better, to
            at = np.flatnonzero(pending)
            pending[at] = False
    return dist


def _dijkstra(
    arcs: list[list[tuple[int, float]]],
    init: Mapping[int, float],
    radius: float = math.inf,
) -> dict[int, float]:
    """Multi-source shortest paths over vertex indices.

    ``arcs[u]`` lists the ``(v, cost)`` arcs out of ``u``, costs nonnegative;
    ``init`` maps the start indices to their potentials.  Returns the
    distance of each vertex within ``radius``, by index; a vertex no start
    reaches is absent.  With nonnegative costs every value is the least
    float sum along a path, whatever the pop order.  The search stops at
    the first pop past ``radius``, so it costs the ball, not the graph; up
    to there it is the unbounded search step for step, and a popped value
    never changes, so every value equals the unbounded one.
    """
    dist: dict[int, float] = {}
    heap = []
    for i, d in init.items():
        if d < dist.get(i, math.inf):
            dist[i] = d
            heap.append((d, i))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > radius:  # values past the radius need not be final yet
            return {v: x for v, x in dist.items() if x <= radius}
        if d > dist[u]:  # superseded by a shorter push
            continue
        for v, cost in arcs[u]:
            nd = d + cost
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def lp_norm(space: MetricMeasureSpace, values: Mapping[str, float], p: float) -> float:
    """Measure-weighted p-norm of a vertex function; where the powers leave
    the float range, ``s`` times the norm of ``values / s``, ``s = max |values|``.
    A vertex that ``values`` leaves out, or a NaN, is a ``ValueError``;
    ``+-inf`` gives ``inf``."""
    if not p >= 1:
        raise SpaceError(f"p must be at least 1, got {p}")
    try:
        a = [abs(float(values[v])) for v in space.vertices]
    except KeyError as exc:
        raise ValueError(f"values has no value at vertex {exc.args[0]!r}") from None
    for v, x in zip(space.vertices, a):
        if math.isnan(x):
            raise ValueError(f"values must not be NaN, got nan at {v!r}")
    top = max(a)
    if math.isinf(p):
        return top
    m = [space.measure[v] for v in space.vertices]
    norm = lambda s: s * sum((x / s) ** p * w for x, w in zip(a, m)) ** (1.0 / p)  # noqa: E731
    try:
        direct = norm(1.0)
    except OverflowError:
        direct = math.inf
    return direct if 0 < direct < math.inf or not 0 < top < math.inf else norm(top)


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
