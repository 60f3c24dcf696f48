"""The Sobolev-gradient estimators, calculus rules at the upper-gradient
level, Sobolev capacity and the definition-equivalence harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._solver import _check_settings, solve_capacity, solve_nonneg
from .curve import DiscreteCurve, _curves, _edge_table, _hop_table, _on_vertices
from .families import CurveFamily, connecting_family, explicit_family
from .lipschitz import _relax_hops, _worst_curve, asymptotic_slope, path_relax
from .modulus import ModulusError, _sum_duals, optimal_plan
from .plans import Plan, _weighted_table, barycenter
from .space import MetricMeasureSpace, SpaceError, lp_norm

__all__ = [
    "GradientResult",
    "CapacityResult",
    "HStep",
    "lp_norm",
    "hop_slope_density",
    "n_gradient",
    "ug_calculus",
    "h_gradient_sequence",
    "w_certificate",
    "capacity",
    "equivalence_report",
]


@dataclass
class GradientResult:
    """Minimal-gradient solve outcome.

    ``rho`` is feasible for the family's constraints up to roundoff,
    ``value = sum rho^p m`` is a certified upper bound with relative gap
    ``gap`` and ``p_norm = value ** (1/p)``.  ``dual_weights`` maps the
    curves with a nonzero increment to their multipliers.
    """

    rho: dict[str, float]
    value: float
    p_norm: float
    family_label: str
    gap: float
    estimator: str
    p: float
    iterations: int
    converged: bool
    dual_weights: dict[DiscreteCurve, float] = field(default_factory=dict)


@dataclass
class CapacityResult:
    value: float
    f: dict[str, float]
    rho: dict[str, float]
    gap: float
    truncated: bool
    iterations: int
    converged: bool


def n_gradient(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    family: CurveFamily | Iterable[DiscreteCurve],
    p: float,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> GradientResult:
    """Least p-energy density dominating the increments of ``f`` along the
    family: minimize ``sum rho^p m`` subject to
    ``|f(end) - f(start)| <= path integral of rho`` for every curve.

    Shares the modulus solver.  Constraints with zero increment are vacuous
    for nonnegative densities and are dropped.  For ``p > 1`` the optimal
    density is unique by strict convexity.  A non-finite ``f`` is rejected.
    """
    _check_settings(p, tol, max_iter)
    label = family.label if isinstance(family, CurveFamily) else ""
    curves = list(family)
    table = _hop_table(space, curves)
    fv = _finite_values(space, f)
    rhs = np.abs(fv[table.end] - fv[table.start])
    keep = rhs > 0.0
    idx, val = table.rows(0)
    res = solve_nonneg((idx[keep], val[keep]), rhs[keep], space.measure_vector(), p, tol, max_iter)
    rho = {v: float(res.x[i]) for i, v in enumerate(space.vertices)}
    duals = _sum_duals([c for c, k in zip(curves, keep) if k], res.y)
    return GradientResult(
        rho,
        res.value,
        res.value ** (1.0 / p),
        label,
        res.gap,
        "N",
        p,
        res.iterations,
        res.converged,
        duals,
    )


def _finite_values(space: MetricMeasureSpace, f: Mapping[str, float]) -> np.ndarray:
    """``f`` on the vertices; a NaN would silently drop the constraints it
    enters (``NaN > 0`` is false), so a non-finite value is an error."""
    fv = _on_vertices(space, f)
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        raise ValueError(f"f must be finite, got {fv[bad[0]]} at {space.vertices[bad[0]]!r}")
    return fv


def hop_slope_density(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    family: CurveFamily | Iterable[DiscreteCurve],
) -> dict[str, float]:
    """Pointwise-least density dominating every hop of the family at both
    endpoints: ``rho(v) = max |f(u) - f(w)| / d(u, w)`` over hops touching v.

    Hop-level domination is stable under pointwise minima, which is how the
    minimum rule for gradients is exercised at finite scale.
    """
    table = _hop_table(space, list(family))
    return dict(zip(space.vertices, table.slopes(_on_vertices(space, f)).tolist()))


def ug_calculus(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    g: Mapping[str, float],
    rho_f: Mapping[str, float],
    rho_g: Mapping[str, float],
    phi: "callable",
    family: CurveFamily | Iterable[DiscreteCurve],
    rho_f_alt: Mapping[str, float] | None = None,
    tol: float = 1e-12,
) -> dict:
    """Feasibility checks for the calculus rules at the upper-gradient level.

    Verifies, exactly on the family: the sum rule (``rho_f + rho_g``
    dominates ``f + g``), the chain rule (``Lip(phi) * rho_f`` dominates
    ``phi of f``, with ``Lip(phi)`` taken over the attained values of ``f``),
    the Leibniz rule for bounded factors, and the minimum rule.  The minimum
    rule pairs ``rho_f`` with ``rho_f_alt`` (default: the hop-slope density
    of ``f``) and is checked hop by hop, the finite-scale form under which
    pointwise minima of gradients remain gradients.

    Raises if ``rho_f`` or ``rho_g`` fails its own upper-gradient check.
    """
    curves = list(family)
    table = _hop_table(space, curves)
    fv, gv, rf, rg = (_on_vertices(space, x) for x in (f, g, rho_f, rho_g))

    def worst(h: np.ndarray, rho: np.ndarray) -> DiscreteCurve | None:
        i = _worst_curve(table, h, rho, tol)
        return None if i is None else curves[i]

    if worst(fv, rf) is not None or worst(gv, rg) is not None:
        raise ValueError("inputs are not upper gradients on the family")

    # on a set of reals the largest difference quotient is attained at
    # neighbours in sorted order (the triangle inequality)
    values = sorted(set(fv.tolist()))
    phis = [float(phi(x)) for x in values]
    lip_phi = max(
        (abs(pb - pa) / (b - a) for a, b, pa, pb in zip(values, values[1:], phis, phis[1:])),
        default=0.0,
    )
    phi_at = dict(zip(values, phis))

    worst_sum = worst(fv + gv, rf + rg)
    worst_chain = worst(np.array([phi_at[x] for x in fv.tolist()]), lip_phi * rf)
    sup_f, sup_g = np.abs(fv).max(), np.abs(gv).max()
    worst_leib = worst(fv * gv, sup_f * rg + sup_g * rf)

    rho2 = rho_f_alt if rho_f_alt is not None else hop_slope_density(space, f, curves)
    rho_min = np.minimum(rf, _on_vertices(space, rho2))
    j = _worst_curve(table.single_hops(), fv, rho_min, tol)
    worst_min = None if j is None else curves[table.cid[j]]

    return {
        "sum": {"ok": worst_sum is None, "worst": worst_sum},
        "chain": {"ok": worst_chain is None, "worst": worst_chain, "lip_phi": lip_phi},
        "leibniz": {"ok": worst_leib is None, "worst": worst_leib},
        "min": {"ok": worst_min is None, "worst": worst_min},
    }


@dataclass
class HStep:
    step: int
    sigma: float
    f_n: dict[str, float]
    slope: dict[str, float]
    f_err: float
    slope_err: float
    exact: bool
    slope_bounded: bool


def h_gradient_sequence(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    p: float,
    family: CurveFamily | Iterable[DiscreteCurve],
    n_steps: int = 3,
    tol: float = 1e-6,
    delta: float | None = None,
    cap: float | None = None,
    sigmas: Sequence[float] | None = None,
    gradient: GradientResult | None = None,
) -> tuple[GradientResult, list[HStep]]:
    """Constructive approximation of ``f`` by relaxations with slacked
    densities ``rho + sigma_n`` decreasing to the minimal gradient.

    Each step runs the shortest-path relaxation of the truncation of ``f``
    with running cost ``rho + sigma_n``, sources everywhere, hop bound
    ``delta`` and cap ``cap``.  When the family contains the one-hop curve of
    every vertex pair within ``delta``, the relaxed function reproduces ``f``
    exactly and its slope is bounded by the neighbor average of the slacked
    density; both facts are reported per step.

    ``delta`` defaults to the longest hop occurring in the family (so the
    relaxation only uses hops the gradient is constrained on) and ``cap`` to
    ``max f``, which must be positive.
    """
    curves = list(family)
    grad = gradient or n_gradient(space, f, curves, p, tol)
    rho = grad.rho
    if delta is None:
        delta = float(_hop_table(space, curves).d.max(initial=0.0)) or max(space.diameter(), 1.0)
    if cap is None:
        cap = max(float(f[v]) for v in space.vertices)
    if not cap > 0:
        raise ValueError("cap must be positive; shift f to be nonnegative first")
    if sigmas is None:
        sigmas = [2.0 ** (-(n + 1)) for n in range(n_steps)]
    trunc = {v: min(cap, max(0.0, float(f[v]))) for v in space.vertices}

    edges = _edge_table(space)
    steps: list[HStep] = []
    for n, sigma in enumerate(sigmas, start=1):
        g_n = {v: rho[v] + sigma for v in space.vertices}
        f_n = path_relax(space, trunc, g_n, space.vertices, delta, cap)
        slope = asymptotic_slope(space, f_n)
        f_err = lp_norm(space, {v: f_n[v] - float(f[v]) for v in space.vertices}, p)
        slope_err = lp_norm(
            space, {v: slope[v] - rho[v] for v in space.vertices}, p
        )
        exact = all(abs(f_n[v] - float(f[v])) <= 1e-12 for v in space.vertices)
        gv = _on_vertices(space, g_n)
        limit = edges.hop_max(0.5 * (gv[edges.u] + gv[edges.v]))
        bounded = not (_on_vertices(space, slope) > limit + 1e-12).any()
        steps.append(
            HStep(n, float(sigma), f_n, slope, f_err, slope_err, exact, bounded)
        )
    return grad, steps


def w_certificate(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    g: Mapping[str, float],
    plans: Sequence[Plan],
) -> dict:
    """Integration-by-parts violations of a candidate gradient against plans.

    For each plan computes ``sum_w (f(end) - f(start)) - sum_v Bar(plan) g m``,
    that is the plan average of ``f(end) - f(start) - (path integral of g)``;
    a valid certificate keeps the maximum nonpositive up to solver slack.
    """
    if not plans:
        raise ValueError("w_certificate needs at least one plan")
    fv, gv = _on_vertices(space, f), _on_vertices(space, g)
    per_plan: list[float] = []
    for plan in plans:
        table, w = _weighted_table(space, plan)
        flux = fv[table.end] - fv[table.start] - table.path_integrals(gv)
        per_plan.append(float(w @ flux))
    return {"max_violation": max(per_plan), "per_plan": per_plan}


def capacity(
    space: MetricMeasureSpace,
    E: Iterable[str],
    family: CurveFamily | Iterable[DiscreteCurve],
    p: float,
    tol: float = 1e-6,
    truncated: bool = False,
    max_iter: int | None = None,
) -> CapacityResult:
    """Least Sobolev p-weight of the vertex set: minimize
    ``sum |f|^p m + sum rho^p m`` over ``f >= 1`` on ``E`` (``0 <= f <= 1``
    and ``f = 1`` on ``E`` in truncated mode) with ``rho`` dominating the
    increments of ``f`` along the family.

    Empty ``E`` has capacity 0.  Pointwise maxima of witnesses certify
    monotonicity and finite subadditivity at solver tolerance.
    """
    _check_settings(p, tol, max_iter)
    target = space.check_subset(E)
    n = len(space)
    if not target:
        zeros = {v: 0.0 for v in space.vertices}
        return CapacityResult(0.0, zeros, dict(zeros), 0.0, truncated, 0, True)

    table = _hop_table(space, [c for c in family if not c.is_constant])
    lo = np.array([1.0 if v in target else 0.0 for v in space.vertices])
    hi = (
        np.ones(n)
        if truncated
        else np.full(n, math.inf)
    )
    res = solve_capacity(
        table.rows(0), table.start, table.end, space.measure_vector(), p, lo, hi, tol, max_iter
    )
    f = {v: float(res.x[i]) for i, v in enumerate(space.vertices)}
    rho = {v: float(res.x[n + i]) for i, v in enumerate(space.vertices)}
    return CapacityResult(
        res.value, f, rho, res.gap, truncated, res.iterations, res.converged
    )


def _harness_family(
    space: MetricMeasureSpace, max_hops: int, delta: float
) -> CurveFamily:
    """Edge walks up to ``max_hops`` plus the one-hop curve of every vertex
    pair within ``delta``, so relaxation hops are exactly constrained."""
    walks = connecting_family(space, space.vertices, space.vertices, max_hops)
    vs = space.vertices
    pairs = _curves(space, [(vs[u], vs[v]) for u, v in zip(*_relax_hops(space, delta))])
    fam = walks.union(explicit_family(pairs), label=f"harness(h<={max_hops})")
    return fam.normalized()


def equivalence_report(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    p: float,
    max_hops: int = 3,
    tol: float = 1e-6,
) -> dict:
    """Numerically exercise the agreement of the gradient estimators.

    Computes the minimal-gradient density over a hop-bounded family and runs
    the constructive relaxation sequence.  The plan ``pi`` is
    ``optimal_plan`` of the gradient's own dual multipliers, every curve
    oriented along increasing ``f``; it is empty when no curve carries dual
    mass.  The integration-by-parts inequality is certified against it, and
    its one ``subfamilies`` entry (label ``"gradient"``) carries the duality
    product ``|Bar(pi)|_q * |rho|_p / sum_pi |df|``, which is 1 up to the
    certified gap (``None`` unless the solve converged and ``pi`` is
    nonempty).  Returns a flat report with every diagnostic and gap, with
    the same keys for a constant ``f``; ``f`` is shifted to be nonnegative
    first (increments are shift-invariant) and must be finite.
    """
    _check_settings(p, tol, None)
    if max_hops < 1:
        raise SpaceError("max_hops must be at least 1")
    fmin = float(_finite_values(space, f).min())
    f0 = {v: float(f[v]) - fmin for v in space.vertices}
    fmax = max(f0.values())
    constant = fmax <= 0
    # an edgeless space has no hops to relax along, whatever delta is
    delta = space.max_edge_distance() or 1.0
    # a constant f has the zero gradient, which the empty family gives
    fam = explicit_family([]) if constant else _harness_family(space, max_hops, delta)
    grad = n_gradient(space, f0, fam, p, tol)
    steps, subfamilies, violation = [], [], 0.0
    if not constant:
        steps = h_gradient_sequence(
            space, f0, p, fam, n_steps=3, tol=tol, delta=delta, cap=fmax, gradient=grad
        )[1]
        # the gradient's optimal plan, every curve oriented so that f0
        # increases along it; empty when no curve carries dual mass
        try:
            support = optimal_plan(grad, fam).support
        except ModulusError:
            support = ()
        up = [f0[c.end] > f0[c.start] for c, _ in support]
        back = iter(_curves(space, [c.vertices[::-1] for (c, _), u in zip(support, up) if not u]))
        plan = Plan(tuple((c if u else next(back), w) for (c, w), u in zip(support, up)))
        product = None
        if grad.converged and support:
            q = p / (p - 1.0) if p > 1 else math.inf
            lift = sum(w * (f0[c.end] - f0[c.start]) for c, w in plan.support)
            product = barycenter(space, plan, 0).q_norm(space, q) * grad.p_norm / lift
        subfamilies = [
            {
                "label": "gradient",
                "value": grad.value,
                "gap": grad.gap,
                "converged": grad.converged,
                "duality_product": product,
            }
        ]
        violation = w_certificate(space, f0, grad.rho, [plan])["max_violation"]
    return {
        "p": p,
        "constant": constant,
        "rho_N": grad.rho,
        "n_value": grad.value,
        "n_norm": grad.p_norm,
        "n_gap": grad.gap,
        "h_steps": [
            {
                "step": s.step,
                "sigma": s.sigma,
                "f_err": s.f_err,
                "slope_err": s.slope_err,
                "exact": s.exact,
                "slope_bounded": s.slope_bounded,
            }
            for s in steps
        ],
        "h_exact": all(s.exact for s in steps),
        "h_slope_bounded": all(s.slope_bounded for s in steps),
        "h_terminal_slope_err": steps[-1].slope_err if steps else 0.0,
        "w_max_violation": violation,
        "subfamilies": subfamilies,
        "family_size": len(fam),
    }
