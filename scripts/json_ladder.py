#!/usr/bin/env python3
"""Time JSON I/O of curve lists on a ladder of families: the corner-to-corner
walks of the unit grids from 4x4 up to kxk, with two hops more than a
geodesic (36960 walks on 7x7), written as an explicit family file and as a
plan file of equal weights.

For each file, a line gives the walks, the file size, and the seconds of
``json.load``, of the parse (``family_from_json`` or ``plan_from_json`` on
the loaded object) and of the in-process CLI command on the file
(``modulus --p 2 --lambda 1`` or ``plan --q 2``), each the minimum of
three warm calls, each call after a full ``gc.collect()`` so that no
collection of the objects left by earlier rungs lands in one call and not
another; then the ``tracemalloc`` peaks of one parse and of one command,
in MB.  Only public entry points are called, so the script runs
against any version of the package.

Usage: python3 scripts/json_ladder.py [--max-grid 7]
"""

import argparse
import gc
import json
import os
import tempfile
import time
import tracemalloc

from modcalc import cli, connecting_family, grid_space
from modcalc.families import family_from_json
from modcalc.plans import plan_from_json
from modcalc.space import space_to_json


def _best(call, repeats: int = 3) -> float:
    call()
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _dump(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-grid", type=int, default=7)
    args = ap.parse_args()
    print(f"{'file':26s} {'walks':>6s} {'MB':>6s} {'load_s':>8s} {'parse_s':>8s} "
          f"{'command_s':>9s} {'parse_peak':>10s} {'cmd_peak':>8s}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "artifact.json")
        for n in range(4, args.max_grid + 1):
            g = grid_space(n, n)
            h = 2 * (n - 1) + 2
            fam = connecting_family(g, ["0,0"], [f"{n - 1},{n - 1}"], h)
            walks = [list(c.vertices) for c in fam]
            space = _dump(os.path.join(tmp, "space.json"), space_to_json(g))
            w = 1.0 / len(walks)
            cases = [
                ("family", family_from_json, ["modulus", "--family"], ["--p", "2", "--lambda", "1"],
                 {"type": "explicit", "curves": [{"vertices": c} for c in walks]}),
                ("plan", plan_from_json, ["plan", "--plan"], ["--q", "2"],
                 {"support": [{"curve": {"vertices": c}, "w": w} for c in walks]}),
            ]
            for kind, parse, command, options, obj in cases:
                path = _dump(os.path.join(tmp, f"{kind}.json"), obj)
                del obj

                def load(path=path):
                    with open(path, encoding="utf-8") as fh:
                        return json.load(fh)

                loaded = load()
                argv = [command[0], "--space", space, command[1], path, *options, "--output", out]
                run = lambda argv=argv: cli.main(argv)  # noqa: E731
                times = _best(load), _best(lambda: parse(g, loaded)), _best(run)
                peaks = _peak_mb(lambda: parse(g, loaded)), _peak_mb(run)
                size = os.path.getsize(path) / 2**20
                print(f"{f'{n}x{n} corner walks {kind}':26s} {len(walks):6d} {size:6.2f} "
                      f"{times[0]:8.4f} {times[1]:8.4f} {times[2]:9.4f} "
                      f"{peaks[0]:10.2f} {peaks[1]:8.2f}")


if __name__ == "__main__":
    main()
