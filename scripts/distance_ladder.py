#!/usr/bin/env python3
"""Time the all-pairs distance matrix of a space (``MetricMeasureSpace._dist``)
on a ladder of shapes, for a largest grid of side k: a path and a cycle of
k*k vertices, unit grids from 4x4 up to kxk, that grid with uniform and with
lognormal edge lengths, and two dense shapes with lognormal lengths: the
complete graph on 4k vertices and a random graph on 8k vertices of mean
degree k.

Each build is timed warm, after one untimed build of the same space, as the
minimum of three; a separate build under ``tracemalloc`` gives its peak of
traced memory.  Output is a table, one row per shape.

Usage: python3 scripts/distance_ladder.py [--max-grid 30]
"""

import argparse
import random
import sys
import time
import tracemalloc

from modcalc import MetricMeasureSpace, cycle_space, grid_space, path_space


def _lognormal_space(n: int, pairs, rng: random.Random) -> MetricMeasureSpace:
    names = [str(i) for i in range(n)]
    edges = [(names[i], names[j], rng.lognormvariate(0.0, 1.5)) for i, j in sorted(pairs)]
    return MetricMeasureSpace(names, edges, dict.fromkeys(names, 1.0))


def shapes(k: int):
    rng = random.Random(0)
    yield f"path {k * k}", path_space(k * k)
    yield f"cycle {k * k}", cycle_space(k * k)
    for side in [s for s in (4, 8, 12, 16, 20) if s < k] + [k]:
        yield f"grid {side}x{side}", grid_space(side, side)
    g = grid_space(k, k)
    for name, length in (
        ("uniform(0.1, 1)", lambda: rng.uniform(0.1, 1.0)),
        ("lognormal(0, 1.5)", lambda: rng.lognormvariate(0.0, 1.5)),
    ):
        edges = [(u, v, length()) for u, v, _ in g.edges]
        yield f"grid {k}x{k} {name}", MetricMeasureSpace(g.vertices, edges, g.measure)
    n = 4 * k
    yield f"complete {n}", _lognormal_space(n, [(i, j) for j in range(n) for i in range(j)], rng)
    n = 8 * k
    pairs = {(i, i + 1) for i in range(n - 1)}  # a path, so it is connected
    while len(pairs) < n * k // 2:
        i, j = sorted(rng.sample(range(n), 2))
        pairs.add((i, j))
    yield f"random {n}, degree {k}", _lognormal_space(n, pairs, rng)


def build(space: MetricMeasureSpace) -> float:
    """Seconds to build the matrix once, dropping the cached one first."""
    vars(space).pop("_dist", None)
    start = time.perf_counter()
    space._dist
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-grid", type=int, default=30, help="side of the largest grid (>= 4)")
    args = ap.parse_args()
    if args.max_grid < 4:
        ap.error("--max-grid must be at least 4")

    print(f"{'shape':32s} {'vertices':>8s} {'edges':>6s} {'build_s':>9s} {'peak_kb':>9s}")
    for name, space in shapes(args.max_grid):
        build(space)  # warm-up
        best = min(build(space) for _ in range(3))
        vars(space).pop("_dist")
        tracemalloc.start()
        space._dist
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:32s} {len(space):8d} {len(space.edges):6d} {best:9.4f} {peak / 1e3:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
