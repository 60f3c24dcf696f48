"""The (p, lambda)-modulus of a finite curve family as a convex program,
with dual extraction of an optimal plan realizing the modulus-plan duality."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._solver import _check_settings, solve_nonneg
from .curve import DiscreteCurve, _hop_table, _on_vertices
from .families import CurveFamily, family_through
from .plans import Plan
from .space import MetricMeasureSpace

__all__ = [
    "ModulusError",
    "ModulusResult",
    "admissibility_matrix",
    "admissible_check",
    "modulus",
    "optimal_plan",
    "is_exceptional",
]


class ModulusError(RuntimeError):
    pass


@dataclass
class ModulusResult:
    """Outcome of a modulus computation.

    ``value`` is a certified upper bound on the optimum and ``gap`` the
    certified relative primal-dual gap; ``rho`` is feasible (admissible up to
    roundoff) whenever the value is finite, and ``None`` when the admissible
    cone is empty.  ``dual_weights`` maps curves to their multipliers.
    """

    value: float
    rho: dict[str, float] | None
    dual_weights: dict[DiscreteCurve, float]
    gap: float
    p: float
    lam: int
    iterations: int
    converged: bool
    label: str = ""


def admissibility_matrix(
    space: MetricMeasureSpace, family: CurveFamily | Iterable[DiscreteCurve], lam: int
) -> tuple[np.ndarray, list[DiscreteCurve]]:
    """Admissibility rows of the family, one per curve: the trapezoid path
    integral contributes half of each adjacent hop length at every breakpoint
    vertex; ``lam = 1`` adds one unit at each endpoint
    (two units for a constant curve, whose endpoints coincide).  Rows depend
    only on the vertex sequence, never on the parametrization.
    """
    curves = list(family)
    return _hop_table(space, curves).matrix(lam), curves


def admissible_check(
    space: MetricMeasureSpace,
    rho: Mapping[str, float],
    family: CurveFamily | Iterable[DiscreteCurve],
    lam: int = 0,
) -> tuple[bool, float]:
    """Whether ``lam * (rho(start) + rho(end)) + path integral >= 1`` on all
    curves; returns the smallest slack (``+inf`` for the empty family).

    ``lam * inf`` follows the convention that it vanishes when ``lam = 0``:
    endpoint values are simply not evaluated in that case, so a constant
    curve makes the constraint unsatisfiable by any finite density.  A curve
    whose slack is NaN counts as neither violated nor smallest.
    """
    if lam not in (0, 1):
        raise ModulusError(f"lambda must be 0 or 1, got {lam}")
    table = _hop_table(space, list(family))
    r = _on_vertices(space, rho)
    lhs = table.path_integrals(r)
    if lam == 1:
        lhs = lhs + r[table.start] + r[table.end]
    slack = lhs - 1.0
    return not (slack < 0).any(), float(np.fmin.reduce(slack, initial=math.inf))


def modulus(
    space: MetricMeasureSpace,
    family: CurveFamily | Iterable[DiscreteCurve],
    p: float,
    lam: int = 0,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> ModulusResult:
    """Modulus of a finite curve family: minimize ``sum_v rho_v^p m_v`` over
    admissible densities.

    The empty family has modulus 0; with ``lam = 0`` a constant curve makes
    the admissible cone empty and the value ``math.inf``.  Otherwise a
    first-order solve returns a certified value, a feasible density and the
    dual curve weights.  Values are exactly invariant under reparametrization
    of the family because the constraint rows only see vertex sequences.
    """
    if lam not in (0, 1):
        raise ModulusError(f"lambda must be 0 or 1, got {lam}")
    try:
        _check_settings(p, tol, max_iter)
    except ValueError as exc:
        raise ModulusError(str(exc)) from None
    label = family.label if isinstance(family, CurveFamily) else ""
    curves = list(family)
    idx, val = _hop_table(space, curves).rows(lam)
    if np.any(val.sum(axis=1) <= 0):
        # only lam = 0 constant curves produce empty rows: 0 >= 1 is hopeless
        return ModulusResult(math.inf, None, {}, 0.0, p, lam, 0, True, label)

    res = solve_nonneg((idx, val), np.ones(len(curves)), space.measure_vector(), p, tol, max_iter)
    rho = {v: float(res.x[i]) for i, v in enumerate(space.vertices)}
    duals = _sum_duals(curves, res.y)
    return ModulusResult(
        res.value, rho, duals, res.gap, p, lam, res.iterations, res.converged, label
    )


def _sum_duals(curves: list[DiscreteCurve], y: np.ndarray) -> dict[DiscreteCurve, float]:
    """Multiplier of every curve, summed over its repeats in the list."""
    duals: dict[DiscreteCurve, float] = {}
    for c, w in zip(curves, y.tolist()):
        duals[c] = duals.get(c, 0.0) + w
    return duals


def optimal_plan(result: ModulusResult, family: CurveFamily | Iterable[DiscreteCurve]) -> Plan:
    """Probability plan on the family obtained by normalizing the dual weights.

    Requires a finite positive certified value.  For ``p > 1`` the plan
    satisfies the duality identity up to the certified gap; for ``p = 1``
    duals may be non-unique and the certificate quality is whatever the
    solve attained.
    """
    if not (0.0 < result.value < math.inf):
        raise ModulusError("optimal_plan needs 0 < value < inf")
    if not result.dual_weights:
        raise ModulusError("no dual weights available")
    total = sum(result.dual_weights.values())
    if total <= 0:
        raise ModulusError("degenerate dual: total weight is zero")
    support = [
        (c, w / total) for c, w in result.dual_weights.items() if w > 0.0
    ]
    return Plan(tuple(support))


def is_exceptional(
    space: MetricMeasureSpace,
    E: Iterable[str],
    p: float,
    max_hops: int,
    tol: float = 1e-6,
) -> tuple[bool, float]:
    """Whether the family of nonconstant curves through ``E`` has negligible
    modulus at the given hop budget."""
    fam = family_through(space, E, max_hops)
    res = modulus(space, fam, p, lam=0, tol=tol)
    return res.value <= tol, res.value
