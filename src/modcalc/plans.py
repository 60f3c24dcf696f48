"""Finitely supported plans: barycenters, compression, energy, test-plan
verification and plan-induced derivations with exact divergence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .curve import (
    DiscreteCurve,
    _HopTable,
    _breakpoint_times,
    _curves_from_json,
    _finite_values,
    _hop_table,
    _json_numbers,
    _made_curves,
    _on_unit_interval,
    curve_to_json,
)
from .lipschitz import asymptotic_slope
from .space import MetricMeasureSpace, lp_norm

__all__ = [
    "PlanError",
    "Plan",
    "BarycenterDensity",
    "point_mass",
    "barycenter",
    "parametric_barycenter",
    "compression",
    "energy",
    "is_test_plan",
    "plan_derivation",
    "derivation_norm_bound",
    "restrict_plan",
    "plan_from_json",
    "plan_to_json",
]

_MASS_TOL = 1e-12


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class Plan:
    """A finite weighted collection of curves parametrized on [0, 1].

    Weights are strictly positive.  The plan is a probability plan when its
    total mass is 1 within 1e-12.
    """

    support: tuple[tuple[DiscreteCurve, float], ...]
    # (space, hop table, weights, times) of the support, read by every
    # diagnostic on that space: kept by plan_from_json or filled by the
    # first diagnostic (_weighted_table); one tuple, so no reader pairs one
    # space with another's table.  Not a field: equality, hash and repr
    # ignore it.
    _kept = None

    def __post_init__(self) -> None:
        for curve, w in self.support:
            if not (w > 0) or not math.isfinite(w):
                raise PlanError(f"plan weight must be positive and finite, got {w}")
            if not curve.is_constant and not _on_unit_interval(curve):
                raise PlanError("plan curves must be parametrized on [0, 1]")

    @property
    def mass(self) -> float:
        return float(sum(w for _, w in self.support))

    @property
    def is_probability(self) -> bool:
        return abs(self.mass - 1.0) <= _MASS_TOL

    def __len__(self) -> int:
        return len(self.support)

    def normalized(self) -> "Plan":
        total = self.mass
        if total <= 0:
            raise PlanError("cannot normalize an empty plan")
        return Plan(tuple((c, w / total) for c, w in self.support))

    def scaled(self, factor: float) -> "Plan":
        if not factor > 0:
            raise PlanError("scaling factor must be positive")
        return Plan(tuple((c, w * factor) for c, w in self.support))


def point_mass(curve: DiscreteCurve, weight: float = 1.0) -> Plan:
    return Plan(((curve, weight),))


@dataclass(frozen=True)
class BarycenterDensity:
    """Density of the plan's aggregated arc-length (plus endpoint) mass."""

    values: Mapping[str, float]
    lam: int

    def q_norm(self, space: MetricMeasureSpace, q: float) -> float:
        return lp_norm(space, self.values, q)


def _weighted_table(
    space: MetricMeasureSpace, plan: Plan
) -> tuple[_HopTable, np.ndarray, list | None]:
    """Hop table of the support curves, their weights and their given times
    (``None`` where at constant speed), in support order: the plan's kept
    ones when kept on ``space``; otherwise made now, with every curve's own
    times, and kept if the plan keeps none."""
    kept = plan._kept
    if kept is None or kept[0] is not space:
        curves = [c for c, _ in plan.support]
        table = _hop_table(space, curves)
        kept = (space, table, np.array([w for _, w in plan.support]), [c.times for c in curves])
        if plan._kept is None:
            object.__setattr__(plan, "_kept", kept)
    return kept[1:]


def barycenter(space: MetricMeasureSpace, plan: Plan, lam: int = 0) -> BarycenterDensity:
    """Exact atomic density of the plan against the vertex measure.

    ``values[v] * m(v)`` equals the weighted arc-length atoms sitting at
    ``v`` plus, for ``lam = 1``, the endpoint masses.
    """
    if lam not in (0, 1):
        raise PlanError(f"lambda must be 0 or 1, got {lam}")
    table, w, _ = _weighted_table(space, plan)
    n = len(space)
    half = w[table.cid] * 0.5 * table.d
    acc = np.bincount(table.u, half, n) + np.bincount(table.v, half, n)
    if lam == 1:
        acc += np.bincount(table.start, w, n) + np.bincount(table.end, w, n)
    return BarycenterDensity(
        dict(zip(space.vertices, (acc / space.measure_vector()).tolist())), lam
    )


def _grid_pushforwards(
    space: MetricMeasureSpace, plan: Plan, n_grid: int
) -> tuple[_HopTable, np.ndarray, np.ndarray]:
    """The plan's hop table and weights, and the vertex masses of the
    evaluation maps at grid times j/n after constant-speed resampling as an
    ``(n + 1) x len(space)`` array; the snap rule picks the breakpoint
    nearest in time (ties to the earlier one)."""
    if n_grid < 1:
        raise PlanError("n_grid must be at least 1")
    table, w, _ = _weighted_table(space, plan)
    times, at = table.constant_speed()
    rows = np.arange(len(w))
    masses = np.empty((n_grid + 1, len(space)))
    for j in range(n_grid + 1):
        t = j / n_grid
        i = (times < t).sum(axis=1)
        before, after = times[rows, np.maximum(i - 1, 0)], times[rows, i]
        snap = i - ((i > 0) & (t - before <= after - t))
        masses[j] = np.bincount(at[rows, snap], w, len(space))
    return table, w, masses


def compression(space: MetricMeasureSpace, plan: Plan, n_grid: int = 64) -> float:
    """Largest ratio of an evaluation-map mass to the vertex measure.

    A grid-resolution-tagged quantity: mid-hop positions are undefined on a
    graph, so curves are resampled at ``n_grid + 1`` uniform times and each
    time snaps to the nearest breakpoint.
    """
    _, _, masses = _grid_pushforwards(space, plan, n_grid)
    return float((masses / space.measure_vector()).max())


def parametric_barycenter(
    space: MetricMeasureSpace, plan: Plan, lam: int = 0, n_grid: int = 64
) -> BarycenterDensity:
    """Grid version of the barycenter built from evaluation-map masses,
    trapezoid-weighted over the uniform grid.  Grid-dependent by contract."""
    if lam not in (0, 1):
        raise PlanError(f"lambda must be 0 or 1, got {lam}")
    table, w, masses = _grid_pushforwards(space, plan, n_grid)
    acc = np.zeros(len(space))
    for j, row in enumerate(masses):
        acc += (0.5 if j in (0, n_grid) else 1.0) / n_grid * row
    if lam == 1:
        # unbuffered, in support order: the sums of a curve-by-curve loop
        np.add.at(acc, np.column_stack((table.start, table.end)).ravel(), np.repeat(w, 2))
    return BarycenterDensity(
        dict(zip(space.vertices, (acc / space.measure_vector()).tolist())), lam
    )


def energy(space: MetricMeasureSpace, plan: Plan, q: float) -> float:
    """Plan energy: weighted q-energies of the support curves, the maximum
    over the support for ``q = inf``."""
    if not q > 1:
        raise PlanError(f"q must lie in (1, inf], got {q}")
    table, w, times = _weighted_table(space, plan)
    # hop j runs between flat breakpoints j + cid[j] and the one after it
    t = _breakpoint_times(table, times)
    at = np.arange(len(table.cid)) + table.cid
    dt = t[at + 1] - t[at]
    speed = table.d / dt
    if math.isinf(q):
        return float(speed.max(initial=0.0))
    # Python's float power: numpy's differs in the last bit on some inputs
    terms = [s**q * h for s, h in zip(speed.tolist(), dt.tolist())]
    return float(sum((w * np.bincount(table.cid, terms, len(w))).tolist()))


def is_test_plan(
    space: MetricMeasureSpace, plan: Plan, q: float, n_grid: int = 64
) -> tuple[bool, float, float]:
    """Probability mass, finite compression and finite q-energy.

    Returns ``(verdict, compression, energy)``.
    """
    comp = compression(space, plan, n_grid)
    eq = energy(space, plan, q)
    ok = plan.is_probability and math.isfinite(comp) and math.isfinite(eq)
    return ok, comp, eq


def plan_derivation(
    space: MetricMeasureSpace, plan: Plan, f: Mapping[str, float]
) -> tuple[dict[str, float], dict[str, float]]:
    """Derivation induced by the plan acting on ``f``, with its divergence.

    ``b(v) m(v)`` aggregates the signed increments of ``f`` along the support
    curves with half-half endpoint attribution; ``div = (start
    distribution) - (end distribution)``.  The identity

        sum_v b(v) m(v) = sum_curves w (f(end) - f(start)) = - sum_v f(v) div(v)

    holds exactly by telescoping.
    """
    table, w, _ = _weighted_table(space, plan)
    fv = _finite_values(space, f)
    n = len(space)
    half = w[table.cid] * 0.5 * (fv[table.v] - fv[table.u])
    b = (np.bincount(table.u, half, n) + np.bincount(table.v, half, n)) / space.measure_vector()
    # bincount returns ints on an empty plan
    div = (np.bincount(table.start, w, n) - np.bincount(table.end, w, n)).astype(float)
    return dict(zip(space.vertices, b.tolist())), dict(zip(space.vertices, div.tolist()))


def derivation_norm_bound(
    space: MetricMeasureSpace,
    plan: Plan,
    f: Mapping[str, float],
    tol: float = 1e-12,
) -> dict:
    """Verify ``|b(v)| <= Bar(plan)(v) * slope(f)(v)`` vertex by vertex.

    The bound is guaranteed for plans whose curves hop along graph edges
    (every hop is then seen by the slope at both endpoints).  Returns the
    worst ratio over vertices where the bound is positive and lists any
    violations.
    """
    b, _ = plan_derivation(space, plan, f)
    bar = barycenter(space, plan, 0).values
    slope = asymptotic_slope(space, f)
    max_ratio = 0.0
    violations: list[str] = []
    for v in space.vertices:
        bound = bar[v] * slope[v]
        if bound > 0:
            max_ratio = max(max_ratio, abs(b[v]) / bound)
            if abs(b[v]) > bound + tol:
                violations.append(v)
        elif abs(b[v]) > tol:
            violations.append(v)
    return {"ok": not violations, "max_ratio": max_ratio, "violations": violations}


def restrict_plan(
    plan: Plan, keep: Callable[[DiscreteCurve], bool] | Iterable[DiscreteCurve]
) -> tuple[Plan, float]:
    """Restrict to a subfamily and renormalize to a probability plan.

    Returns the renormalized plan together with the retained mass.  The
    compression of the result is at most ``compression(plan) / mass``.
    """
    if callable(keep):
        pick = keep
    else:
        allowed = {c.vertices for c in keep}
        pick = lambda c: c.vertices in allowed  # noqa: E731
    kept = Plan(tuple((c, w) for c, w in plan.support if pick(c)))
    if kept.mass <= 0:
        raise PlanError("restriction has zero mass")
    return kept.normalized(), kept.mass


def plan_from_json(space: MetricMeasureSpace, obj: Mapping) -> Plan:
    """Parse ``{"support": [{"curve": {...}, "w": number}, ...]}``, each
    curve as ``curve_from_json`` reads it.  The plan keeps the checked table
    of its support for ``space``."""
    try:
        items = obj["support"]
    except (KeyError, TypeError) as exc:
        raise PlanError(f"malformed plan description: {exc}") from exc
    if not isinstance(items, list):
        raise PlanError(f"plan support must be a list, got {type(items).__name__}")
    try:
        curves = [item["curve"] for item in items]
        weights = [item["w"] for item in items]
    except (KeyError, TypeError) as exc:
        raise PlanError(f"malformed plan item: {exc}") from exc
    weights = _json_numbers(weights, "plan weight", PlanError)
    table, seqs, times = _curves_from_json(space, curves)
    plan = Plan(tuple(zip(_made_curves(table, seqs, times), weights)))
    object.__setattr__(plan, "_kept", (space, table, np.array(weights), times))
    return plan


def plan_to_json(plan: Plan) -> dict:
    return {
        "support": [
            {"curve": curve_to_json(c), "w": w} for c, w in plan.support
        ]
    }
