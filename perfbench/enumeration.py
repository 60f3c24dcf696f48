"""The benchmark's own curve enumeration, without scipy.

Set-up uses these to write the explicit family files of ``cli-roundtrip``,
and ``oracle`` uses them to rebuild every family it checks.  Nothing here
imports modcalc or scipy, so set-up and the measured passes carry neither.
"""

from __future__ import annotations

import math


class Adjacency:
    """Vertex ids, their positions and sorted neighbour lists of a space
    spec ``{"vertices": [{"id", "m"}], "edges": [{"u", "v", "len"}]}``."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.ids = [str(v["id"]) for v in spec["vertices"]]
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.adj: list[list[int]] = [[] for _ in self.ids]
        for e in spec["edges"]:
            a, b = self.index[str(e["u"])], self.index[str(e["v"])]
            self.adj[a].append(b)
            self.adj[b].append(a)
        for nb in self.adj:
            nb.sort()

    def __len__(self) -> int:
        return len(self.ids)


def simple_paths(g: Adjacency, max_hops: int) -> set[tuple[str, ...]]:
    """All simple paths with 1..max_hops hops between any two vertices."""
    out: set[tuple[str, ...]] = set()

    def extend(seq: list[int]) -> None:
        if len(seq) > 1:
            out.add(tuple(g.ids[i] for i in seq))
        if len(seq) - 1 == max_hops:
            return
        for v in g.adj[seq[-1]]:
            if v not in seq:
                seq.append(v)
                extend(seq)
                seq.pop()

    for s in range(len(g)):
        extend([s])
    return out


def walks(g: Adjacency, sources, targets, max_hops: int) -> set[tuple[str, ...]]:
    """All edge walks with 1..max_hops hops from ``sources`` to ``targets``.

    Branches are pruned by the hop distance to the target set, so the
    search only visits prefixes that can still end in time.
    """
    src = [g.index[str(v)] for v in sources]
    dst = {g.index[str(v)] for v in targets}
    hops = _hop_distance(g, dst)
    out: set[tuple[str, ...]] = set()

    def extend(seq: list[int]) -> None:
        if len(seq) > 1 and seq[-1] in dst:
            out.add(tuple(g.ids[i] for i in seq))
        left = max_hops - (len(seq) - 1)
        for v in g.adj[seq[-1]]:
            if hops[v] <= left - 1:
                seq.append(v)
                extend(seq)
                seq.pop()

    for s in src:
        extend([s])
    return out


def _hop_distance(g: Adjacency, targets: set[int]) -> list[float]:
    dist = [math.inf] * len(g)
    frontier = sorted(targets)
    for t in frontier:
        dist[t] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if dist[v] == math.inf:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist
