"""The (p, lambda)-modulus of a finite curve family as a convex program,
with dual extraction of an optimal plan realizing the modulus-plan duality."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._solver import _rel_gap, _Rows, _check_settings, solve_nonneg
from .curve import DiscreteCurve, _densities, _hop_table
from .families import CurveFamily, _as_family, family_through
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
    certified relative primal-dual gap; ``rho`` meets every row of the
    family (``admissible_check`` passes) whenever the value is finite, and
    is ``None`` when the admissible cone is empty.  ``dual_weights`` maps
    the curves of the final working set to their multipliers, summed over
    repeats; ``modulus`` makes only those curves.  Padded with zeros on the
    rest of the family, they stay dual-feasible for it.
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


def _check_lam(lam: int) -> None:
    if lam not in (0, 1):
        raise ModulusError(f"lambda must be 0 or 1, got {lam}")


def admissibility_matrix(
    space: MetricMeasureSpace, family: CurveFamily | Iterable[DiscreteCurve], lam: int
) -> tuple[np.ndarray, list[DiscreteCurve]]:
    """Admissibility rows of the family, one per curve: the trapezoid path
    integral contributes half of each adjacent hop length at every breakpoint
    vertex; ``lam = 1`` adds one unit at each endpoint
    (two units for a constant curve, whose endpoints coincide).  Rows depend
    only on the vertex sequence, never on the parametrization.
    """
    _check_lam(lam)
    family = _as_family(family)
    idx, val = _hop_table(space, family).rows(lam)
    return _Rows.block(idx, val, np.ones(len(idx), bool), np.ones(len(space), bool)), list(family)


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
    curve makes the constraint unsatisfiable by any finite density.  A NaN
    or negative density raises ``CurveError``.
    """
    _check_lam(lam)
    table = _hop_table(space, family)
    r = _densities(space, rho)
    lhs = table.path_integrals(r)
    if lam == 1:
        lhs = lhs + r[table.start] + r[table.end]
    slack = lhs - 1.0
    return not (slack < 0).any(), float(slack.min(initial=math.inf))


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
    the admissible cone empty and the value ``math.inf``.  Otherwise
    first-order solves on a working set of the family's rows return a
    certified value, a density that meets every row of the family and the
    dual curve weights.  The set starts from the rows of least coefficient
    sum, the shortest curves; after each solve every row of the family is
    checked, every violated row joins the set, and a set of more than half
    of the rows becomes the whole family.  The set only grows, and the
    solves end once no row outside it is violated.  Padded with zeros, the
    set's duals stay feasible for the whole family, so ``value`` and
    ``gap`` certify the family's modulus; ``dual_weights`` keys the curves
    of the last set.  ``max_iter`` bounds the iterations summed over the
    solves (``None`` leaves each solve the solver's default cap), and
    ``iterations`` reports that sum.  Values are exactly invariant under
    reparametrization of the family because the constraint rows only see
    vertex sequences.
    """
    _check_lam(lam)
    try:
        _check_settings(p, tol, max_iter)
    except ValueError as exc:
        raise ModulusError(str(exc)) from None
    family = _as_family(family)
    table = _hop_table(space, family)
    idx, val = table.rows(lam)
    sums = val.sum(axis=1)
    if np.any(sums <= 0):
        # only lam = 0 constant curves produce empty rows: 0 >= 1 is hopeless
        return ModulusResult(math.inf, None, {}, 0.0, p, lam, 0, True, family.label)

    def left(x: np.ndarray) -> np.ndarray:
        # every row's left-hand side, as admissible_check sums it
        lhs = table.path_integrals(x)
        return lhs + x[table.start] + x[table.end] if lam == 1 else lhs

    m = space.measure_vector()
    # the working set: the rows of least coefficient sum, the shortest curves
    sel = sums == sums.min(initial=math.inf)
    used = 0
    while True:
        if 2 * sel.sum() > len(sel):
            # a solve on most of the rows costs about as much as one on all
            sel[:] = True
        budget = None if max_iter is None else max_iter - used
        res = solve_nonneg((idx[sel], val[sel]), np.ones(sel.sum()), m, p, tol, budget)
        used += res.iterations
        x, lhs = res.x, left(res.x)
        new = (lhs < 1.0) & ~sel
        if not new.any() or used == max_iter:
            break
        sel |= new
    value, gap = res.value, res.gap
    if lhs.min(initial=1) <= 0:
        # a row the density misses takes no factor: as _solver._solve does,
        # start over, from the constant density that meets the shortest row
        x = np.full(len(m), 1.0 / sums.min())
        lhs = left(x)
    # initial 1: the empty family's bincount is an integer array, and a
    # minimum of 1 needs no scaling
    while (low := float(lhs.min(initial=1))) < 1.0:
        # the one factor of _solver._recover, over the whole family; dividing
        # by the float below low raises every positive entry, so the loop
        # ends once rounding leaves no row short
        x = x / np.nextafter(low, 0.0)
        lhs = left(x)
    if x is not res.x:
        value = float(m @ x**p)
        gap = _rel_gap(value, res.dual_value)
    rho = {v: float(x[i]) for i, v in enumerate(space.vertices)}
    # the whole family's curves are kept once made, for the next solve on it
    curves = family.curves if sel.all() else family._take(np.flatnonzero(sel))
    duals = _sum_duals(curves, res.y)
    return ModulusResult(value, rho, duals, gap, p, lam, used, gap <= tol, family.label)


def _sum_duals(curves: Sequence[DiscreteCurve], y: np.ndarray) -> dict[DiscreteCurve, float]:
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
    plan = Plan(tuple((c, w) for c, w in result.dual_weights.items() if w > 0.0))
    if plan.mass <= 0:
        raise ModulusError("degenerate dual: total weight is zero")
    return plan.normalized()


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
