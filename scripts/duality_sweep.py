#!/usr/bin/env python3
"""Sweep random curve families and report the modulus-plan duality product
|Bar|_q * Mod^(1/p) together with the certified gaps.

Usage: python3 scripts/duality_sweep.py [--trials 30] [--seed 0]
"""

import argparse
import random
import sys

from modcalc import (
    MetricMeasureSpace,
    barycenter,
    explicit_family,
    make_curve,
    modulus,
    optimal_plan,
)


def random_space(rng: random.Random, n: int, extra_edges: int) -> MetricMeasureSpace:
    """Random spanning tree on n vertices plus up to ``extra_edges`` chords,
    edge lengths in [0.5, 2] and vertex masses in [0.5, 1.5]."""
    ids = [str(i) for i in range(n)]
    edges: dict[tuple[str, str], float] = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[str(min(i, j)), str(max(i, j))] = rng.uniform(0.5, 2.0)
    for _ in range(extra_edges):
        i, j = rng.sample(range(n), 2)
        key = (str(min(i, j)), str(max(i, j)))
        if key not in edges:
            edges[key] = rng.uniform(0.5, 2.0)
    measure = {v: rng.uniform(0.5, 1.5) for v in ids}
    return MetricMeasureSpace(ids, [(u, v, w) for (u, v), w in sorted(edges.items())], measure)


def random_walk(rng: random.Random, space: MetricMeasureSpace, max_hops: int):
    """Edge walk of 1 to ``max_hops`` hops from a random start."""
    for _ in range(50):
        seq = [rng.choice(space.vertices)]
        for _ in range(rng.randint(1, max_hops)):
            nbrs = space.neighbors(seq[-1])
            if not nbrs:
                break
            seq.append(rng.choice(nbrs)[0])
        if len(seq) >= 2:
            return make_curve(space, seq)
    raise RuntimeError("could not draw a walk; graph too sparse")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    worst = 0.0
    print(f"{'trial':>5} {'p':>4} {'lam':>3} {'curves':>6} {'value':>12} "
          f"{'gap':>9} {'|prod-1|':>9}")
    for k in range(args.trials):
        s = random_space(rng, rng.randint(6, 30), extra_edges=4)
        curves = [random_walk(rng, s, 5) for _ in range(rng.randint(2, 20))]
        p = rng.choice((1.5, 2.0, 3.0))
        lam = rng.choice((0, 1))
        fam = explicit_family(curves)
        res = modulus(s, fam, p, lam, args.tol)
        plan = optimal_plan(res, fam)
        q = p / (p - 1.0)
        product = barycenter(s, plan, lam).q_norm(s, q) * res.value ** (1.0 / p)
        dev = abs(product - 1.0)
        worst = max(worst, dev)
        print(
            f"{k:>5} {p:>4} {lam:>3} {len(curves):>6} {res.value:>12.6f} "
            f"{res.gap:>9.1e} {dev:>9.2e}"
        )
    print(f"worst deviation: {worst:.3e}")
    return 0 if worst <= 1e-4 else 1


if __name__ == "__main__":
    sys.exit(main())
