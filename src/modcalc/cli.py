"""Command-line front end: load spaces, functions, families and plans, run
computations, emit JSON (and optional CSV) artifacts."""

from __future__ import annotations

import argparse
import json
import math
import sys
from csv import DictWriter
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Mapping

from . import __version__
from ._solver import _check_settings
from .families import CurveFamily, connecting_family, family_from_json
from .lipschitz import path_relax
from .modulus import ModulusError, modulus
from .plans import (
    Plan,
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
    """The settings of a run, with their defaults.  An artifact records the
    command, the inputs and the options that the command declares."""

    command: str
    inputs: dict[str, str]
    p: float = 2.0
    q: float = 2.0
    lam: int = 0
    tol: float = 1e-6
    max_hops: int = 3
    truncated: bool = False
    delta: float | None = None
    M: float | None = None

    def validate(self) -> None:
        try:
            _check_settings(self.p, self.tol, None)
        except ValueError as exc:
            raise SpaceError(str(exc)) from None


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpaceError(f"input file not found: {path}")
    except OSError as exc:
        raise SpaceError(f"cannot read {path}: {exc}")
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
        if not math.isfinite(values[v]):
            raise SpaceError(f"function file {path} has the non-finite value {values[v]} at {v!r}")
    return values


def _load_vertices(path: str) -> list[str]:
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise SpaceError(f"{path} must hold a list of vertex ids, got {type(obj).__name__}")
    return [str(v) for v in obj]


def _emit(config: RunConfig, output: str | None, result: Mapping) -> None:
    # where the artifact goes is not part of it, so that identical runs
    # give identical bytes whatever the output paths
    options = _COMMANDS[config.command][3].split()
    recorded = {_FLAGS.get(k, {}).get("dest", k.replace("-", "_")) for k in options}
    settings = {k: v for k, v in asdict(config).items() if k in recorded | {"command", "inputs"}}
    payload = {"config": settings, "result": result}
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_csv(path: str, rows: list[dict]) -> None:
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


def _error(exc: Exception, code: int) -> int:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")
    return code


# what a handler returns: the artifact's result and whether its solve converged
_Out = tuple[dict, bool]
_Fn = dict[str, float]


def _cmd_space_validate(config: RunConfig, space: MetricMeasureSpace) -> _Out:
    return {
        "vertices": len(space),
        "edges": len(space.edges),
        "total_measure": space.mass(),
        "diameter": space.diameter(),
    }, True


def _cmd_modulus(config: RunConfig, space: MetricMeasureSpace, family: CurveFamily) -> _Out:
    res = modulus(space, family, config.p, config.lam, config.tol)
    return {
        "value": res.value,
        "rho": res.rho,
        "dual_weights": [
            {"vertices": list(c.vertices), "w": w}
            for c, w in res.dual_weights.items()
        ],
        "gap": res.gap,
        "iterations": res.iterations,
        "converged": res.converged,
    }, res.converged


def _cmd_plan(
    config: RunConfig, space: MetricMeasureSpace, plan: Plan, f: _Fn | None = None
) -> _Out:
    ok, comp, eq = is_test_plan(space, plan, config.q)
    result: dict[str, Any] = {
        "mass": plan.mass,
        "is_probability": plan.is_probability,
        "is_test_plan": ok,
        "compression": comp,
        "energy": eq,
        "barycenter": dict(barycenter(space, plan, config.lam).values),
    }
    if f is not None:
        result["derivation"], result["divergence"] = plan_derivation(space, plan, f)
    return result, True


def _cmd_gradient(
    config: RunConfig, space: MetricMeasureSpace, family: CurveFamily, f: _Fn
) -> _Out:
    res = n_gradient(space, f, family, config.p, config.tol)
    return {
        "rho": res.rho,
        "value": res.value,
        "p_norm": res.p_norm,
        "gap": res.gap,
        "iterations": res.iterations,
        "converged": res.converged,
    }, res.converged


def _cmd_capacity(
    config: RunConfig, space: MetricMeasureSpace, family: CurveFamily, E: list[str]
) -> _Out:
    res = capacity(space, E, family, config.p, config.tol, config.truncated)
    return {
        "value": res.value,
        "f": res.f,
        "rho": res.rho,
        "gap": res.gap,
        "truncated": res.truncated,
        "converged": res.converged,
    }, res.converged


def _cmd_relax(config: RunConfig, space: MetricMeasureSpace, f: _Fn, g: _Fn, C: list[str]) -> _Out:
    return {"relaxed": path_relax(space, f, g, C, config.delta, config.M)}, True


def _cmd_equivalence(
    config: RunConfig, space: MetricMeasureSpace, f: _Fn, csv: str | None = None
) -> _Out:
    report = equivalence_report(space, f, config.p, config.max_hops, config.tol)
    if csv:
        rows = [
            {"metric": k, "value": v}
            for k, v in report.items()
            if isinstance(v, (int, float, bool))
        ]
        for step in report.get("h_steps", []):
            for key in ("f_err", "slope_err"):
                rows.append({"metric": f"h_step_{step['step']}_{key}", "value": step[key]})
        _emit_csv(csv, rows)
    return report, all(s["converged"] for s in report["subfamilies"])


def _cmd_selftest(config: RunConfig) -> _Out:
    """Deterministic smoke battery on the unit path benchmark."""
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
    return checks, checks["benchmark_ok"] and checks["single_edge_ok"]


# input kind -> loader of (path, the loaded --space or None).  The lambdas look
# the parsers up when they run, so a wrapper put on the module's name (as the
# traced benchmark does) sees the CLI's loads.
_LOADERS: dict[str, Callable[[str, Any], Any]] = {
    "space": lambda path, _: build_space(_load_json(path)),
    "family": lambda path, space: family_from_json(space, _load_json(path)),
    "plan": lambda path, space: plan_from_json(space, _load_json(path)),
    "f": _load_function,
    "g": _load_function,
    "E": lambda path, _: _load_vertices(path),
    "C": lambda path, _: _load_vertices(path),
}


# argparse keywords of the flags that need any.  No flag has a default: the
# parsed arguments hold only what was given, and every default is RunConfig's.
_FLAGS: dict[str, dict[str, Any]] = {
    "E": {"help": "JSON file with a list of vertex ids"},
    "C": {"help": "JSON file with the source set"},
    "p": {"type": float},
    "q": {"type": float},
    "lambda": {"dest": "lam", "type": int, "choices": (0, 1)},
    "tol": {"type": float},
    "max-hops": {"type": int},
    "truncated": {"action": "store_true"},
    "delta": {"type": float, "required": True},
    "M": {"type": float, "required": True},
}

# command -> (handler, help, input files, options).  An input file is required
# unless it ends in "?"; every command also takes --output.  The artifact
# records the options that are RunConfig fields, given or defaulted.  A handler
# gets the config, every given input loaded by kind (in the declared order, so
# --space first) and its other options, and returns (result, converged).
_COMMANDS = {
    "space-validate": (_cmd_space_validate, "validate a space file", "space", ""),
    "modulus": (_cmd_modulus, "modulus of a curve family", "space family", "p lambda tol"),
    "plan": (_cmd_plan, "plan diagnostics", "space plan f?", "q lambda"),
    "gradient": (_cmd_gradient, "minimal gradient of a function", "space family f", "p tol"),
    "capacity": (_cmd_capacity, "capacity of a vertex set", "space family E", "p truncated tol"),
    "relax": (_cmd_relax, "shortest-path relaxation of a function", "space f g C", "delta M"),
    "equivalence": (
        _cmd_equivalence, "definition-equivalence harness", "space f", "p max-hops tol csv"
    ),
    "selftest": (_cmd_selftest, "deterministic smoke battery", "", "tol"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modcalc",
        description="modulus, plans, gradients and capacity on finite weighted graphs",
    )
    parser.add_argument("--version", action="version", version=f"modcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, inputs, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for key in inputs.split():
            flag = key.rstrip("?")
            sp.add_argument(f"--{flag}", required=flag == key, **_FLAGS.get(flag, {}))
        for key in options.split() + ["output"]:
            sp.add_argument(f"--{key}", **_FLAGS.get(key, {}))

    given = vars(parser.parse_args(argv))
    handler, _, inputs, _ = _COMMANDS[given["command"]]
    config = RunConfig(
        given.pop("command"),
        {k: given.pop(k) for k in inputs.replace("?", "").split() if k in given},
        **{f.name: given.pop(f.name) for f in fields(RunConfig) if f.name in given},
    )
    output = given.pop("output", None)
    try:
        config.validate()
        loaded: dict[str, Any] = {}
        for key, path in config.inputs.items():
            loaded[key] = _LOADERS[key](path, loaded.get("space"))
        result, converged = handler(config, **loaded, **given)
        _emit(config, output, result)
        return EXIT_OK if converged else EXIT_NO_CONVERGENCE
    except (ModulusError, ValueError, OSError) as exc:
        # an OSError here is an artifact or CSV that could not be written
        return _error(exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
