"""The benchmark's four workloads as fixed operation lists built from a seed.

An operation is the full user-visible pipeline: build the space, enumerate
or parse the family, solve, then extract the plan or write the artifact.
``run`` is the timed part and returns program objects; ``extract`` turns
them into plain data after the clock stops; ``check`` compares that data
with the independent computations in ``oracle``.

The seed picks vertex names, vertex and edge order, a power-of-two scale of
the functions, which corner pair is used and the plan weights.  Every choice
maps an instance to an isomorphic or exactly rescaled one, so the amount of
work per pass does not depend on the seed while the inputs do.  The capacity
solves at p = 2, whose convergence depends on the vertex names alone, take
fixed inputs instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import enumeration
import modcalc as mc
from modcalc import cli

TOL = 1e-6
# largest constraint matrix (rows x columns) re-solved by dual ascent
DUAL_ASCENT_ENTRIES = 2_000_000


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    extract: Callable[[Any], dict]
    check: Callable[[dict, "Checker"], list[str]]
    expected_failure: bool = False
    argv: list[str] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op


def digest(data: dict) -> str:
    """Exact fingerprint of an extracted output (floats by repr)."""
    return hashlib.sha256(repr(sorted(data.items())).encode()).hexdigest()


# -- inputs ------------------------------------------------------------


@dataclass
class Grid:
    """An n x n unit grid whose vertex ids, vertex order and edge order are
    drawn from the seed; ``lab[i, j]`` is the id at row i, column j."""

    n: int
    spec: dict
    lab: dict

    def corners(self, rng: random.Random) -> tuple[str, str]:
        k = self.n - 1
        pairs = [((0, 0), (k, k)), ((0, k), (k, 0))]
        a, b = pairs[rng.randrange(2)]
        if rng.random() < 0.5:
            a, b = b, a
        return self.lab[a], self.lab[b]

    def function(self, rng: random.Random) -> dict[str, float]:
        """A bumpy ramp times a power of two drawn from the seed.

        The scale is exact in floating point, so every increment scales
        exactly: an offset or a scale that rounds perturbs the increments at
        1e-15 and can change the number of solver iterations fortyfold.
        """
        scale = 2.0 ** rng.randint(-1, 1)
        return {
            v: scale * (i + 0.5 * j + 0.3 * math.sin(1.3 * i + 0.7 * j))
            for (i, j), v in self.lab.items()
        }


def grid(n: int, rng: random.Random) -> Grid:
    names = [f"v{k:04d}" for k in range(n * n)]
    rng.shuffle(names)
    lab = {(i, j): names[i * n + j] for i in range(n) for j in range(n)}
    order = list(lab.values())
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges.append({"u": lab[i, j], "v": lab[i + 1, j], "len": 1.0})
            if j + 1 < n:
                edges.append({"u": lab[i, j], "v": lab[i, j + 1], "len": 1.0})
    rng.shuffle(edges)
    spec = {"vertices": [{"id": v, "m": 1.0} for v in order], "edges": edges}
    return Grid(n, spec, lab)


def unit_grid(n: int) -> Grid:
    """The seed-independent grid of ``modcalc.grid_space``, whose vertex
    ``"i,j"`` is at row i, column j."""
    spec = mc.space.space_to_json(mc.grid_space(n, n))
    lab = {tuple(int(k) for k in v["id"].split(",")): v["id"] for v in spec["vertices"]}
    return Grid(n, spec, lab)


# -- extraction helpers ------------------------------------------------


def _curves(family) -> list[tuple[str, ...]]:
    return [c.vertices for c in family]


def _weights(dual: dict) -> dict[tuple[str, ...], float]:
    return {c.vertices: w for c, w in dual.items()}


# -- checks (import scipy only when called) ----------------------------


class Checker:
    """Caches the independent graphs, families and reference optima that
    the checks of one run share."""

    def __init__(self) -> None:
        import oracle

        self.o = oracle
        self._cache: dict[Any, Any] = {}

    def graph(self, spec: dict):
        # specs live as long as the operations that hold them, so their id is a key
        return self.memo(("graph", id(spec)), lambda: self.o.Graph(spec))

    def memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def simple(self, spec, h):
        return self.memo(("simple", id(spec), h), lambda: sorted(enumeration.simple_paths(self.graph(spec), h)))

    def walks(self, spec, a, b, h):
        g = self.graph(spec)
        key = ("walks", id(spec), tuple(a), tuple(b), h)
        return self.memo(key, lambda: sorted(enumeration.walks(g, a, b, h)))

    def aligned(self, curves, weights: dict) -> tuple[Any, list[str]]:
        """Dual weights as a vector over ``curves``; weights on curves that
        are not in the family are reported."""
        pos = {c: i for i, c in enumerate(curves)}
        y = np.zeros(len(curves))
        problems = []
        for c, w in weights.items():
            if c not in pos:
                problems.append(f"dual weight on a curve outside the family: {c}")
            else:
                y[pos[c]] += w
        return y, problems

    def density_solve(self, key, spec, curves, rhs_of, lam, data, p, dual=None):
        """Checks shared by modulus and minimal-gradient outputs; returns the
        problems and the recomputed constraint rows."""
        o = self.o
        g = self.graph(spec)
        A, rhs, kept = self.memo(key, lambda: _rows_rhs(o, g, curves, rhs_of, lam))
        rho = g.values(data["rho"])
        problems = o.check_density(g, A, rhs, rho, data["value"], p)
        if data["gap"] > TOL:
            problems.append(f"certified gap {data['gap']:.3e} > tol")
        if dual is not None:
            y, extra = self.aligned([curves[i] for i in kept], dual)
            problems += extra
            problems += o.check_certificate(data["value"], o.dual_value(g, A, rhs, y, p), TOL)
        # HiGHS (p = 1) and NNLS (p = 2) re-solve every instance in seconds;
        # the dual ascent of other p needs about 1000 L-BFGS-B steps, 10 to
        # 17 s on a 20x20 grid, so it runs on the smaller instances only
        if p in (1.0, 2.0) or A.shape[0] * A.shape[1] <= DUAL_ASCENT_ENTRIES:
            ref = self.memo(("ref",) + key + (p,), lambda: o.resolve_density(g, A, rhs, p))
            problems += o.check_resolve(data["value"], ref, max(TOL, data["gap"]))
        return problems, A


def _rows_rhs(o, g, curves, rhs_of, lam):
    rhs = np.array([rhs_of(c) for c in curves]) if rhs_of else np.ones(len(curves))
    kept = np.flatnonzero(rhs > 0)
    A = o.rows(g, [curves[i] for i in kept], lam)
    return A, rhs[kept], kept


# -- gradient-grid -----------------------------------------------------


def gradient_grid(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    big, lp = (6, 4) if small else (20, 10)
    ops = [_gradient_op(grid(lp, rng), rng, 1.0)]
    g20 = grid(big, rng)
    for p in (2.0, 1.5, 4.0):
        ops.append(_gradient_op(g20, rng, p))
    warm = _gradient_op(grid(5, rng), rng, 2.0)
    return Workload("gradient-grid", ops, warm)


def _gradient_op(gr: Grid, rng: random.Random, p: float) -> Op:
    spec = gr.spec
    f = gr.function(rng)

    def run():
        s = mc.build_space(spec)
        fam = mc.connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
        return fam, mc.n_gradient(s, f, fam, p, TOL)

    def extract(out):
        fam, res = out
        return {
            "family": _curves(fam),
            "rho": res.rho,
            "value": res.value,
            "p": p,
            "gap": res.gap,
            "iterations": res.iterations,
            "converged": res.converged,
        }

    def check(data, ck: Checker):
        curves = ck.simple(spec, 3)
        problems = ck.o.check_family(set(curves), data["family"])
        inc = lambda c: abs(f[c[-1]] - f[c[0]])  # noqa: E731
        problems += ck.density_solve(("grad", id(spec), id(f)), spec, curves, inc, 0, data, p)[0]
        return problems

    return Op(f"n_gradient {gr.n}x{gr.n} simple h<=3 p={p:g}", run, extract, check)


# -- corner-walks ------------------------------------------------------


def corner_walks(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    sizes = ((4, 8), (5, 9)) if small else ((6, 12), (7, 13))
    ops = []
    for n, h in sizes:
        gr = grid(n, rng)
        a, b = gr.corners(rng)
        for lam in (0, 1):
            ops.append(_walk_op(gr, a, b, h, lam))
    gr = grid(4, rng)
    warm = _walk_op(gr, *gr.corners(rng), 6, 1)
    return Workload("corner-walks", ops, warm)


def _walk_op(gr: Grid, a: str, b: str, h: int, lam: int, p: float = 2.0) -> Op:
    spec = gr.spec
    q = p / (p - 1.0)

    def run():
        s = mc.build_space(spec)
        fam = mc.connecting_family(s, [a], [b], h)
        res = mc.modulus(s, fam, p, lam, TOL)
        plan = mc.optimal_plan(res, fam)
        bar = mc.barycenter(s, plan, lam)
        return fam, res, plan, bar, bar.q_norm(s, q) * res.value ** (1.0 / p)

    def extract(out):
        fam, res, plan, bar, product = out
        return {
            "family": _curves(fam),
            "rho": res.rho,
            "value": res.value,
            "p": p,
            "gap": res.gap,
            "dual": _weights(res.dual_weights),
            "iterations": res.iterations,
            "converged": res.converged,
            "plan": {c.vertices: w for c, w in plan.support},
            "barycenter": dict(bar.values),
            "product": product,
        }

    def check(data, ck: Checker):
        curves = ck.walks(spec, [a], [b], h)
        g = ck.graph(spec)
        problems = ck.o.check_family(set(curves), data["family"])
        if len(curves) != ck.o.walk_count(g, a, b, h):
            problems.append("walk enumeration disagrees with the adjacency-power count")
        more, A = ck.density_solve(
            ("walk", id(spec), a, b, h, lam), spec, curves, None, lam, data, p, dual=data["dual"]
        )
        problems += more
        w, extra = ck.aligned(curves, data["plan"])
        problems += extra
        problems += ck.o.check_plan(
            g, A, w, g.values(data["barycenter"]), data["value"], data["gap"], p, data["product"]
        )
        return problems

    return Op(f"modulus {gr.n}x{gr.n} corner walks h<={h} lam={lam}", run, extract, check)


# -- capacity-grid -----------------------------------------------------

CAPACITY_FAULT = "capacity 5x5 simple h<=3 p=2 E={0,0} (fixed input)"


def capacity_grid(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    # (grid size, simple paths, hop bound, p).  No p = 1.5.  Whether a
    # p = 2 solve converges depends on the vertex names and order alone (see
    # README): one relabelling in a few hundred stalls at 60000 iterations
    # even on a 4x4 grid.  So the p = 2 cases run on the seed-independent
    # ``grid_space`` labels, where each converges, and only the p = 1 cases
    # take relabelled grids from the seed.  The larger p = 1 grids give the
    # converging solves a sizeable share of the pass next to the expected
    # failure.
    cases = [(3, True, 3, (1.0, 2.0)), (3, False, 3, (1.0, 2.0))]
    if not small:
        cases += [
            (4, True, 3, (1.0, 2.0)), (4, False, 3, (1.0, 2.0)), (5, True, 3, (1.0,)),
            (3, False, 6, (2.0,)), (8, True, 3, (1.0,)), (10, False, 3, (1.0,)),
            (12, True, 3, (1.0,)), (12, False, 3, (1.0,)),
        ]
    ops = []
    for n, simple, h, ps in cases:
        gr = grid(n, rng)
        corner = gr.corners(rng)[0]
        for p in ps:
            spec, E = (gr.spec, corner) if p == 1.0 else (unit_grid(n).spec, "0,0")
            for truncated in (False, True):
                ops.append(_capacity_op(spec, n, E, simple, h, p, truncated))
    if not small:
        fault = _capacity_op(unit_grid(5).spec, 5, "0,0", True, 3, 2.0, False)
        fault.name = CAPACITY_FAULT
        fault.expected_failure = True
        ops.append(fault)
    # the warm-up is the largest converging p = 2 case: the first solve of
    # that size in a process can take 1 s longer than the later ones
    warm = _capacity_op(unit_grid(3).spec, 3, "0,0", small, 3 if small else 6, 2.0, True)
    return Workload("capacity-grid", ops, warm)


def _capacity_op(spec: dict, n: int, corner: str, simple: bool, h: int, p: float, truncated: bool) -> Op:
    E = [corner]

    def run():
        s = mc.build_space(spec)
        fam = mc.connecting_family(s, s.vertices, s.vertices, h, simple_only=simple)
        return fam, mc.capacity(s, E, fam, p, TOL, truncated)

    def extract(out):
        fam, res = out
        return {
            "family": _curves(fam),
            "f": res.f,
            "rho": res.rho,
            "value": res.value,
            "p": p,
            "gap": res.gap,
            "iterations": res.iterations,
            "converged": res.converged,
        }

    def check(data, ck: Checker):
        return _check_capacity(ck, spec, simple, h, E, truncated, p, data)

    kind = "simple" if simple else "walks"
    mode = " truncated" if truncated else ""
    return Op(f"capacity {n}x{n} {kind} h<={h} p={p:g}{mode}", run, extract, check)


def _check_capacity(ck: Checker, spec, simple, h, E, truncated, p, data) -> list[str]:
    o = ck.o
    g = ck.graph(spec)
    if simple:
        curves = ck.simple(spec, h)
    else:
        curves = ck.walks(spec, g.ids, g.ids, h)
    problems = o.check_family(set(curves), data["family"]) if "family" in data else []
    C = ck.memo(("C", id(spec), simple, h), lambda: o.rows(g, curves, 0))
    a, b = o.endpoints(g, curves)
    target = np.isin(np.arange(len(g)), [g.index[v] for v in E])
    problems += o.check_capacity(
        g, C, a, b, target, truncated, g.values(data["f"]), g.values(data["rho"]), data["value"], p
    )
    if data["gap"] > TOL:
        problems.append(f"certified gap {data['gap']:.3e} > tol")
    if p in (1.0, 2.0):
        ref = ck.memo(
            ("capref", id(spec), simple, h, tuple(E), truncated, p),
            lambda: o.resolve_capacity(g, C, a, b, target, truncated, p),
        )
        problems += o.check_resolve(data["value"], ref, max(TOL, data["gap"]))
    return problems


# -- cli-roundtrip -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cli_inputs(seed: int, small: bool) -> dict:
    """Everything ``cli-roundtrip`` draws from the seed, including the
    explicit families, which the benchmark's own enumeration makes."""
    rng = random.Random(seed)
    n_space, n_walk, h_walk, n_grad, n_eq = (6, 4, 8, 5, 5) if small else (20, 6, 12, 12, 12)
    big = grid(n_space, rng)
    walk = grid(n_walk, rng)
    a, b = walk.corners(rng)
    walk_curves = sorted(enumeration.walks(enumeration.Adjacency(walk.spec), [a], [b], h_walk))
    rng.shuffle(walk_curves)
    weights = [rng.uniform(0.5, 1.5) for _ in walk_curves]
    total = sum(weights)
    weights = [w / total for w in weights]
    grad = grid(n_grad, rng)
    grad_curves = sorted(enumeration.simple_paths(enumeration.Adjacency(grad.spec), 3))
    rng.shuffle(grad_curves)
    # capacity at p = 2 converges or stalls depending on the vertex names
    # alone (see capacity_grid), so its input does not come from the seed
    cap = unit_grid(4)
    cap_E = ["0,0"]
    eq = grid(n_eq, rng)
    return {
        "big": big, "walk": walk, "walk_curves": walk_curves, "weights": weights,
        "walk_f": walk.function(rng), "grad": grad, "grad_curves": grad_curves,
        "grad_f": grad.function(rng), "cap": cap, "cap_E": cap_E, "eq": eq, "eq_f": eq.function(rng),
    }


def prepare(name: str, seed: int, small: bool = False) -> None:
    """Untimed work before set-up: the benchmark's own input enumeration."""
    if name == "cli-roundtrip":
        _cli_inputs(seed, small)


def cli_roundtrip(seed: int, workdir: str, small: bool = False) -> Workload:
    """In-process ``modcalc.cli.main`` runs on JSON files written from the
    seed's inputs; every command runs twice and both artifacts are kept."""
    inp = _cli_inputs(seed, small)
    big, walk, grad, cap, eq = (inp[k] for k in ("big", "walk", "grad", "cap", "eq"))
    walk_curves, weights, grad_curves = inp["walk_curves"], inp["weights"], inp["grad_curves"]
    os.makedirs(workdir, exist_ok=True)
    keep = os.path.join(workdir, "kept")
    os.makedirs(keep, exist_ok=True)

    def dump(name: str, obj) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    paths = {
        "big": dump("space_big.json", big.spec),
        "walk": dump("space_walk.json", walk.spec),
        "walk_family": dump(
            "family_walks.json",
            {"type": "explicit", "curves": [{"vertices": list(c)} for c in walk_curves]},
        ),
        "walk_plan": dump(
            "plan_walks.json",
            {"support": [{"curve": {"vertices": list(c)}, "w": w} for c, w in zip(walk_curves, weights)]},
        ),
        "walk_f": dump("f_walk.json", {"values": inp["walk_f"]}),
        "grad": dump("space_grad.json", grad.spec),
        "grad_family": dump(
            "family_simple.json",
            {"type": "explicit", "curves": [{"vertices": list(c)} for c in grad_curves]},
        ),
        "grad_f": dump("f_grad.json", {"values": inp["grad_f"]}),
        "cap": dump("space_cap.json", cap.spec),
        "cap_family": dump(
            "family_cap.json",
            {"type": "connecting", "E": sorted(cap.lab.values()),
             "F": sorted(cap.lab.values()), "max_hops": 3, "simple": True},
        ),
        "cap_E": dump("E.json", inp["cap_E"]),
        "eq": dump("space_eq.json", eq.spec),
        "eq_f": dump("f_eq.json", {"values": inp["eq_f"]}),
    }
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    ctx = {
        "paths": paths,
        "specs": {"big": big.spec, "walk": walk.spec, "grad": grad.spec, "cap": cap.spec, "eq": eq.spec},
        "walk_curves": walk_curves,
        "grad_curves": grad_curves,
    }
    P = paths
    commands = [
        ("space-validate", ["--space", P["big"]], _check_space_validate),
        ("modulus", ["--space", P["walk"], "--family", P["walk_family"], "--p", "2", "--lambda", "1"],
         _check_cli_modulus),
        ("gradient", ["--space", P["grad"], "--family", P["grad_family"], "--f", P["grad_f"], "--p", "2"],
         _check_cli_gradient),
        ("capacity", ["--space", P["cap"], "--family", P["cap_family"], "--E", P["cap_E"], "--p", "2"],
         _check_cli_capacity),
        ("plan", ["--space", P["walk"], "--plan", P["walk_plan"], "--f", P["walk_f"], "--q", "2"],
         _check_cli_plan),
        ("equivalence", ["--space", P["eq"], "--f", P["eq_f"], "--p", "2", "--max-hops", "3"],
         _check_cli_equivalence),
    ]
    ops = []
    for cmd, args, checker in commands:
        outs = [out(f"{cmd}.a.json"), out(f"{cmd}.b.json")]
        ops.append(_cli_op(cmd, args, outs, keep, checker, ctx))
    warm_args = ["--space", P["cap"], "--family", P["cap_family"], "--E", P["cap_E"], "--p", "2"]
    warm_outs = [out("warmup.a.json"), out("warmup.b.json")]
    warm = _cli_op("capacity", warm_args, warm_outs, keep, _check_cli_capacity, ctx)
    return Workload("cli-roundtrip", ops, warm)


def _cli_op(cmd: str, args: list[str], outs: list[str], keep: str, checker, ctx) -> Op:
    # both runs write the same path, which the artifact records; the first
    # artifact is moved aside before the second run
    argv = [cmd, *args, "--output", outs[1]]

    def run():
        first = cli.main(argv)
        os.replace(outs[1], outs[0])
        return [first, cli.main(argv)]

    def extract(codes):
        # artifacts stay on disk, one file per distinct content, so the
        # process holds no megabytes of output through the passes
        kept = []
        for o in outs:
            path = os.path.join(keep, f"{cmd}.{_file_digest(o)}.json")
            if os.path.exists(path):
                os.remove(o)
            else:
                os.replace(o, path)
            kept.append(path)
        return {
            "codes": tuple(codes),
            "converged": all(c == 0 for c in codes),
            "artifacts": tuple(kept),
        }

    def check(data, ck: Checker):
        problems = []
        if any(c != 0 for c in data["codes"]):
            problems.append(f"exit codes {data['codes']}")
        first, second = (_read(path) for path in data["artifacts"])
        if first != second:
            problems.append("artifacts of the two runs differ")
        try:
            result = json.loads(first)["result"]
        except (ValueError, KeyError) as exc:
            return problems + [f"artifact is not valid JSON: {exc}"]
        return problems + checker(ck, ctx, result)

    return Op(f"cli {cmd} x2", run, extract, check, argv=argv)


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check_space_validate(ck: Checker, ctx, result) -> list[str]:
    spec = ctx["specs"]["big"]
    g = ck.graph(spec)
    expect = {
        "vertices": len(g),
        "edges": len(spec["edges"]),
        "total_measure": float(g.m.sum()),
        "diameter": float(np.max(g.dist[np.isfinite(g.dist)])),
    }
    return [f"{k}: {result.get(k)!r} != {v!r}" for k, v in expect.items() if result.get(k) != v]


def _check_cli_modulus(ck: Checker, ctx, result) -> list[str]:
    curves = ctx["walk_curves"]
    dual = {tuple(d["vertices"]): d["w"] for d in result["dual_weights"]}
    return ck.density_solve(("cli-mod",), ctx["specs"]["walk"], curves, None, 1, result, 2.0, dual=dual)[0] + (
        [] if result["converged"] else ["not converged"]
    )


def _check_cli_gradient(ck: Checker, ctx, result) -> list[str]:
    with open(ctx["paths"]["grad_f"], encoding="utf-8") as fh:
        f = json.load(fh)["values"]
    inc = lambda c: abs(f[c[-1]] - f[c[0]])  # noqa: E731
    return ck.density_solve(("cli-grad",), ctx["specs"]["grad"], ctx["grad_curves"], inc, 0, result, 2.0)[0]


def _check_cli_capacity(ck: Checker, ctx, result) -> list[str]:
    with open(ctx["paths"]["cap_E"], encoding="utf-8") as fh:
        E = json.load(fh)
    return _check_capacity(ck, ctx["specs"]["cap"], True, 3, E, False, 2.0, result)


def _check_cli_plan(ck: Checker, ctx, result) -> list[str]:
    g = ck.graph(ctx["specs"]["walk"])
    with open(ctx["paths"]["walk_f"], encoding="utf-8") as fh:
        f = json.load(fh)["values"]
    with open(ctx["paths"]["walk_plan"], encoding="utf-8") as fh:
        support = json.load(fh)["support"]
    curves = [tuple(item["curve"]["vertices"]) for item in support]
    w = np.array([item["w"] for item in support])
    problems = ck.o.check_plan_diagnostics(g, curves, w, 0, g.values(f), result)
    if not result["is_test_plan"]:
        problems.append("a probability plan of edge walks is not reported as a test plan")
    # constant-speed curves on [0, 1] have q-energy length^q
    lengths = np.array([len(c) - 1 for c in curves], dtype=float)
    energy = float(w @ lengths**2)
    if abs(result["energy"] - energy) > 1e-9 * energy:
        problems.append(f"energy {result['energy']!r} != {energy!r}")
    return problems


def _check_cli_equivalence(ck: Checker, ctx, result) -> list[str]:
    problems = []
    if not result["h_exact"]:
        problems.append("relaxation does not reproduce f")
    if not result["h_slope_bounded"]:
        problems.append("relaxation slope exceeds its bound")
    if result["w_max_violation"] > 10 * TOL:
        problems.append(f"w_max_violation {result['w_max_violation']!r} > 10 tol")
    if result["n_gap"] > TOL:
        problems.append(f"n_gap {result['n_gap']!r} > tol")
    for sub in result["subfamilies"]:
        if not sub["converged"]:
            problems.append(f"subfamily {sub['label']} did not converge")
        elif abs(sub["duality_product"] - 1.0) > sub["gap"] + 1e-9:
            problems.append(f"subfamily {sub['label']} duality product {sub['duality_product']!r}")
    return problems


WORKLOADS = {
    "gradient-grid": gradient_grid,
    "corner-walks": corner_walks,
    "capacity-grid": capacity_grid,
    "cli-roundtrip": cli_roundtrip,
}
