"""Command-line front end: load spaces, functions, families and plans, run
computations, emit JSON (and optional CSV) artifacts."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from . import __version__
from .curve import CurveError
from .families import family_from_json
from .lipschitz import path_relax
from .modulus import ModulusError, modulus
from .plans import (
    PlanError,
    barycenter,
    is_test_plan,
    plan_derivation,
    plan_from_json,
)
from .sobolev import capacity, equivalence_report, n_gradient
from .space import MetricMeasureSpace, SpaceError, build_space, path_space

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


@dataclass
class RunConfig:
    command: str
    inputs: dict[str, str]
    p: float = 2.0
    q: float = 2.0
    lam: int = 0
    tol: float = 1e-6
    max_hops: int = 3
    truncated: bool = False
    output: str | None = None
    csv_path: str | None = None

    def validate(self) -> None:
        if not (1.0 <= self.p < math.inf):
            raise SpaceError(f"p must lie in [1, inf), got {self.p}")
        if self.lam not in (0, 1):
            raise SpaceError(f"lambda must be 0 or 1, got {self.lam}")
        if not self.tol > 0:
            raise SpaceError(f"tol must be positive, got {self.tol}")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpaceError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpaceError(f"invalid JSON in {path}: {exc}")


def _load_function(path: str, space: MetricMeasureSpace) -> dict[str, float]:
    obj = _load_json(path)
    try:
        values = {str(k): float(v) for k, v in obj["values"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise SpaceError(f"malformed function file {path}: {exc}")
    for v in space.vertices:
        if v not in values:
            raise SpaceError(f"function file {path} misses vertex {v!r}")
    return values


def _emit(config: RunConfig, result: Mapping, stream=None) -> None:
    # where the artifact goes is not part of it, so that identical runs
    # give identical bytes whatever the output paths
    recorded = {k: v for k, v in asdict(config).items() if k not in ("output", "csv_path")}
    payload = {"config": recorded, "result": result}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        (stream or sys.stdout).write(text + "\n")


def _emit_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        return
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


def _error(exc: Exception, code: int) -> int:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")
    return code


def _cmd_space_validate(config: RunConfig, args: argparse.Namespace) -> int:
    space = build_space(_load_json(config.inputs["space"]))
    _emit(
        config,
        {
            "vertices": len(space),
            "edges": len(space.edges),
            "total_measure": space.mass(),
            "diameter": space.diameter(),
        },
    )
    return EXIT_OK


def _cmd_modulus(config: RunConfig, args: argparse.Namespace) -> int:
    space = build_space(_load_json(config.inputs["space"]))
    fam = family_from_json(space, _load_json(config.inputs["family"]))
    res = modulus(space, fam, config.p, config.lam, config.tol)
    result = {
        "value": res.value,
        "rho": res.rho,
        "dual_weights": [
            {"vertices": list(c.vertices), "w": w}
            for c, w in res.dual_weights.items()
        ],
        "gap": res.gap,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    _emit(config, result)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _cmd_plan(config: RunConfig, args: argparse.Namespace) -> int:
    space = build_space(_load_json(config.inputs["space"]))
    plan = plan_from_json(space, _load_json(config.inputs["plan"]))
    ok, comp, eq = is_test_plan(space, plan, config.q)
    result: dict[str, Any] = {
        "mass": plan.mass,
        "is_probability": plan.is_probability,
        "is_test_plan": ok,
        "compression": comp,
        "energy": eq,
        "barycenter": dict(barycenter(space, plan, config.lam).values),
    }
    if "f" in config.inputs:
        f = _load_function(config.inputs["f"], space)
        b, div = plan_derivation(space, plan, f)
        result["derivation"] = b
        result["divergence"] = div
    _emit(config, result)
    return EXIT_OK


def _cmd_gradient(config: RunConfig, args: argparse.Namespace) -> int:
    space = build_space(_load_json(config.inputs["space"]))
    fam = family_from_json(space, _load_json(config.inputs["family"]))
    f = _load_function(config.inputs["f"], space)
    res = n_gradient(space, f, fam, config.p, config.tol)
    _emit(
        config,
        {
            "rho": res.rho,
            "value": res.value,
            "p_norm": res.p_norm,
            "gap": res.gap,
            "iterations": res.iterations,
            "converged": res.converged,
        },
    )
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _cmd_capacity(config: RunConfig, args: argparse.Namespace) -> int:
    space = build_space(_load_json(config.inputs["space"]))
    fam = family_from_json(space, _load_json(config.inputs["family"]))
    E = [str(v) for v in _load_json(config.inputs["E"])]
    res = capacity(space, E, fam, config.p, config.tol, config.truncated)
    _emit(
        config,
        {
            "value": res.value,
            "f": res.f,
            "rho": res.rho,
            "gap": res.gap,
            "truncated": res.truncated,
            "converged": res.converged,
        },
    )
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _cmd_relax(config: RunConfig, args: argparse.Namespace) -> int:
    space = build_space(_load_json(config.inputs["space"]))
    f = _load_function(config.inputs["f"], space)
    g = _load_function(config.inputs["g"], space)
    C = [str(v) for v in _load_json(config.inputs["C"])]
    _emit(config, {"relaxed": path_relax(space, f, g, C, args.delta, args.M)})
    return EXIT_OK


def _cmd_equivalence(config: RunConfig, args: argparse.Namespace) -> int:
    space = build_space(_load_json(config.inputs["space"]))
    f = _load_function(config.inputs["f"], space)
    report = equivalence_report(space, f, config.p, config.max_hops, config.tol)
    if config.csv_path:
        rows = [
            {"metric": k, "value": v}
            for k, v in report.items()
            if isinstance(v, (int, float, bool))
        ]
        for step in report.get("h_steps", []):
            rows.append(
                {"metric": f"h_step_{step['step']}_f_err", "value": step["f_err"]}
            )
            rows.append(
                {
                    "metric": f"h_step_{step['step']}_slope_err",
                    "value": step["slope_err"],
                }
            )
        _emit_csv(config.csv_path, rows)
    _emit(config, report)
    return EXIT_OK


def _cmd_selftest(config: RunConfig, args: argparse.Namespace) -> int:
    """Deterministic smoke battery on the unit path benchmark."""
    from .families import connecting_family

    edge = path_space(2)
    single = connecting_family(edge, ["0"], ["1"], 1)
    res_edge = modulus(edge, single, 2.0, 0, config.tol)

    space = path_space(3)
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    sub = connecting_family(space, space.vertices, space.vertices, 2, simple_only=True)
    grad = n_gradient(space, f, sub, 2.0, config.tol)
    checks = {
        "single_edge_modulus": res_edge.value,
        "single_edge_ok": abs(res_edge.value - 2.0) <= 1e-6,
        "benchmark_gradient_energy": grad.value,
        "benchmark_ok": abs(grad.value - 8.0 / 3.0) <= 1e-5,
    }
    _emit(config, checks)
    ok = checks["benchmark_ok"] and checks["single_edge_ok"]
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


_COMMANDS = {
    "space-validate": _cmd_space_validate,
    "modulus": _cmd_modulus,
    "plan": _cmd_plan,
    "gradient": _cmd_gradient,
    "capacity": _cmd_capacity,
    "relax": _cmd_relax,
    "equivalence": _cmd_equivalence,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modcalc",
        description="modulus, plans, gradients and capacity on finite weighted graphs",
    )
    parser.add_argument("--version", action="version", version=f"modcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, space=True, family=False, f=False, plan_in=False):
        if space:
            sp.add_argument("--space", required=True)
        if family:
            sp.add_argument("--family", required=True)
        if f:
            sp.add_argument("--f", required=True)
        if plan_in:
            sp.add_argument("--plan", required=True)
        sp.add_argument("--tol", type=float, default=1e-6)
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("space-validate", help="validate a space file")
    add_common(sp)

    sp = sub.add_parser("modulus", help="modulus of a curve family")
    add_common(sp, family=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--lambda", dest="lam", type=int, default=0, choices=(0, 1))

    sp = sub.add_parser("plan", help="plan diagnostics")
    add_common(sp, plan_in=True)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--lambda", dest="lam", type=int, default=0, choices=(0, 1))
    sp.add_argument("--f", default=None)

    sp = sub.add_parser("gradient", help="minimal gradient of a function")
    add_common(sp, family=True, f=True)
    sp.add_argument("--p", type=float, default=2.0)

    sp = sub.add_parser("capacity", help="capacity of a vertex set")
    add_common(sp, family=True)
    sp.add_argument("--E", required=True, help="JSON file with a list of vertex ids")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--truncated", action="store_true")

    sp = sub.add_parser("relax", help="shortest-path relaxation of a function")
    add_common(sp, f=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--C", required=True, help="JSON file with the source set")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--M", type=float, required=True)

    sp = sub.add_parser("equivalence", help="definition-equivalence harness")
    add_common(sp, f=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--max-hops", type=int, default=3)
    sp.add_argument("--csv", default=None)

    sp = sub.add_parser("selftest", help="deterministic smoke battery")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--output", default=None)

    args = parser.parse_args(argv)

    inputs = {}
    for key in ("space", "family", "f", "g", "plan", "E", "C"):
        val = getattr(args, key, None)
        if val:
            inputs[key] = val

    try:
        config = RunConfig(
            command=args.command,
            inputs=inputs,
            p=getattr(args, "p", 2.0),
            q=getattr(args, "q", 2.0),
            lam=getattr(args, "lam", 0),
            tol=getattr(args, "tol", 1e-6),
            max_hops=getattr(args, "max_hops", 3),
            truncated=getattr(args, "truncated", False),
            output=getattr(args, "output", None),
            csv_path=getattr(args, "csv", None),
        )
        config.validate()

        return _COMMANDS[args.command](config, args)
    except (SpaceError, CurveError, PlanError, ModulusError, ValueError) as exc:
        return _error(exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
