#!/usr/bin/env python3
"""Time ``modulus`` on a ladder of families, up to a largest grid of side
k: corner-to-corner walks on the unit grids from 4x4 to min(k, 7)x
min(k, 7), with two hops more than a geodesic; all-pairs simple paths with
at most 3 hops on the unit grids from 4x4 up to kxk; and all-pairs walks
with at most 3 hops on three random connected spaces of 12 vertices and 20
edges with lognormal lengths, where the working set grows over rounds.
Each runs at p 1 and 2 and lambda 0 and 1.

Each line gives the family's curves, the rows solved on (the last working
set), the rounds (solves), the iterations summed over them, the seconds of
one warm call (the minimum of three), the value and the certified gap.  The
solves are counted by wrapping ``modcalc.modulus.solve_nonneg``.

Usage: python3 scripts/modulus_ladder.py [--max-grid 20]
"""

import argparse
import importlib
import random
import time

from modcalc import MetricMeasureSpace, connecting_family, grid_space, modulus

_mod = importlib.import_module("modcalc.modulus")
_solve = _mod.solve_nonneg
_rows: list[int] = []


def _counted(A, *args):
    _rows.append(len(A[0]))
    return _solve(A, *args)


def families(k: int):
    for n in range(4, min(k, 7) + 1):
        g = grid_space(n, n)
        h = 2 * (n - 1) + 2
        yield f"{n}x{n} corner walks h<={h}", g, connecting_family(g, ["0,0"], [f"{n - 1},{n - 1}"], h)
    for n in [s for s in (4, 8, 12, 16) if s < k] + [k]:
        g = grid_space(n, n)
        yield f"{n}x{n} all-pairs simple h<=3", g, connecting_family(g, g.vertices, g.vertices, 3, True)
    rng = random.Random(0)
    for i in range(3):
        names = [str(j) for j in range(12)]
        pairs = {(rng.randrange(j), j) for j in range(1, 12)}  # a tree, so it is connected
        while len(pairs) < 20:
            pairs.add(tuple(sorted(rng.sample(range(12), 2))))
        edges = [(names[a], names[b], rng.lognormvariate(0.0, 0.5)) for a, b in sorted(pairs)]
        s = MetricMeasureSpace(names, edges, dict.fromkeys(names, 1.0))
        yield f"random #{i} all-pairs walks h<=3", s, connecting_family(s, names, names, 3)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-grid", type=int, default=20)
    args = ap.parse_args()
    _mod.solve_nonneg = _counted
    modulus(grid_space(3, 3), connecting_family(grid_space(3, 3), ["0,0"], ["2,2"], 4), 2.0)
    print(f"{'family':32s} {'curves':>7s} {'p':>3s} {'lam':>3s} {'rows':>7s} {'rounds':>6s} "
          f"{'iters':>7s} {'seconds':>9s} {'value':>14s} {'gap':>9s}")
    for name, g, fam in families(args.max_grid):
        for p in (1.0, 2.0):
            for lam in (0, 1):
                best = float("inf")
                for _ in range(3):
                    _rows.clear()
                    start = time.perf_counter()
                    res = modulus(g, fam, p, lam)
                    best = min(best, time.perf_counter() - start)
                print(f"{name:32s} {len(fam):7d} {p:3g} {lam:3d} {_rows[-1]:7d} {len(_rows):6d} "
                      f"{res.iterations:7d} {best:9.4f} {res.value:14.10g} {res.gap:9.2e}")


if __name__ == "__main__":
    main()
