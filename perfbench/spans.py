"""Traced mode: spans around the public functions of each modcalc layer.

The wrappers replace module-level names that callers resolve at call time
(``modcalc.sobolev.solve_nonneg``, ``modcalc.modulus.admissibility_matrix``,
``modcalc.cli.family_from_json`` and so on), in every modcalc module that
holds a reference to the function, so calls between layers are seen as well
as the benchmark's own calls.  Spans (name, start, end, parent, info) stay in
memory and are written out when the run ends.  Closures inside the solvers
are out of reach from here.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

MB = 2.0**20


def _path(kind: str, p: float) -> str:
    return f"{kind}_lp" if p == 1.0 else f"{kind}_power"


def _solve_info(kind: str, p_index: int):
    def info(args, kwargs, out):
        p = kwargs["p"] if "p" in kwargs else args[p_index]
        return {"path": _path(kind, float(p)), "iterations": out.iterations, "gap": out.gap}

    return info


def _artifact_bytes(args, kwargs, out):
    argv = (args[0] if args else kwargs.get("argv")) or []
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


# (home module, function, span name, info from (args, kwargs, result))
TARGETS = [
    ("space", "build_space", "space.build", None),
    ("space", "grid_space", "space.build", None),
    ("families", "connecting_family", "families.enumerate", lambda a, k, out: len(out)),
    ("families", "family_through", "families.enumerate", lambda a, k, out: len(out)),
    ("families", "endpoints_in", "families.enumerate", lambda a, k, out: len(out)),
    ("families", "family_from_json", "families.from_json", None),
    ("modulus", "admissibility_matrix", "modulus.matrix", lambda a, k, out: out[0].nbytes),
    ("modulus", "modulus", "modulus.modulus", None),
    ("modulus", "optimal_plan", "plans.optimal_plan", lambda a, k, out: len(out)),
    ("_solver", "solve_nonneg", "solver.solve", _solve_info("nonneg", 3)),
    ("_solver", "solve_capacity", "solver.solve", _solve_info("capacity", 4)),
    ("plans", "barycenter", "plans.barycenter", None),
    ("plans", "is_test_plan", "plans.test_plan", None),
    ("plans", "plan_derivation", "plans.derivation", None),
    ("plans", "plan_from_json", "plans.from_json", None),
    ("sobolev", "n_gradient", "sobolev.n_gradient", None),
    ("sobolev", "capacity", "sobolev.capacity", None),
    ("sobolev", "equivalence_report", "sobolev.equivalence", None),
    ("lipschitz", "path_relax", "lipschitz.path_relax", None),
    ("cli", "main", "cli.main", _artifact_bytes),
]

SOLVER_PATHS = ("nonneg_power", "nonneg_lp", "capacity_power", "capacity_lp")


class Tracer:
    """Installs the wrappers and keeps the spans of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if info is not None:
                spans[idx][4] = info(args, kwargs, out)
            return out

        return wrapper

    def install(self, package) -> None:
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in ("space", "curve", "families", "modulus", "plans", "lipschitz", "sobolev", "_solver", "cli")
        ]
        for home, fname, span, info in TARGETS:
            orig = getattr(importlib.import_module(f"{package.__name__}.{home}"), fname)
            wrapper = self.wrap(span, orig, info)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)


def span_cost(repeats: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    wrapped = tracer.wrap("noop", noop, None)
    clock = time.perf_counter
    start = clock()
    for _ in range(repeats):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(repeats):
        wrapped()
    return max(0.0, (clock() - start - bare) / repeats)


def layer_metrics(spans: list[list], passes: int, pass_times: list[float], cost: float) -> dict:
    """Per-layer table of a traced run; times and counts are per pass."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        self_time[s[0]] += dur[i] - child[i]
        if s[4] is not None:
            infos[s[0]].append((dur[i], s[4]))

    def per(x: float) -> float:
        return x / passes

    out: dict[str, tuple[float, str]] = {}
    curves = per(sum(x for _, x in infos["families.enumerate"]))
    enum_s = per(total["families.enumerate"])
    out["space.build_s"] = (per(total["space.build"]), "s")
    out["families.enumerate_s"] = (enum_s, "s")
    out["families.curves"] = (curves, "count")
    out["families.curves_per_s"] = (curves / enum_s if enum_s > 0 else 0.0, "1/s")
    out["families.parse_s"] = (per(self_time["families.from_json"]), "s")
    out["modulus.matrix_s"] = (per(total["modulus.matrix"]), "s")
    out["modulus.matrix_mb"] = (max((x for _, x in infos["modulus.matrix"]), default=0) / MB, "MB")
    out["modulus.self_s"] = (per(self_time["modulus.modulus"]), "s")
    for path in SOLVER_PATHS:
        runs = [(d, x) for d, x in infos["solver.solve"] if x["path"] == path]
        secs = sum(d for d, _ in runs)
        its = sum(x["iterations"] for _, x in runs)
        key = f"solver.{path}"
        out[f"{key}.solve_s"] = (per(secs), "s")
        out[f"{key}.iterations"] = (per(its), "count")
        out[f"{key}.us_per_iteration"] = (1e6 * secs / its if its else 0.0, "us")
        out[f"{key}.gap_max"] = (max((x["gap"] for _, x in runs), default=0.0), "1")
    out["plans.optimal_plan_s"] = (per(total["plans.optimal_plan"]), "s")
    out["plans.barycenter_s"] = (per(total["plans.barycenter"]), "s")
    out["plans.support"] = (per(sum(x for _, x in infos["plans.optimal_plan"])), "count")
    out["plans.test_plan_s"] = (per(total["plans.test_plan"]), "s")
    out["plans.derivation_s"] = (per(total["plans.derivation"]), "s")
    out["plans.parse_s"] = (per(total["plans.from_json"]), "s")
    out["sobolev.n_gradient_self_s"] = (per(self_time["sobolev.n_gradient"]), "s")
    out["sobolev.capacity_self_s"] = (per(self_time["sobolev.capacity"]), "s")
    out["sobolev.equivalence_s"] = (per(total["sobolev.equivalence"]), "s")
    out["lipschitz.path_relax_s"] = (per(total["lipschitz.path_relax"]), "s")
    out["cli.main_s"] = (per(total["cli.main"]), "s")
    out["cli.self_s"] = (per(self_time["cli.main"]), "s")
    out["cli.artifact_bytes"] = (per(sum(x for _, x in infos["cli.main"])), "B")
    out["trace.wall_s"] = (statistics.median(pass_times), "s")
    out["trace.spans"] = (per(len(spans)), "count")
    out["trace.overhead_s"] = (per(len(spans)) * cost, "s")
    return out
