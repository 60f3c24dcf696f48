"""The Sobolev-gradient estimators, calculus rules at the upper-gradient
level, Sobolev capacity and the definition-equivalence harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._solver import _check_settings, solve_capacity, solve_nonneg
from .curve import DiscreteCurve, _curves, _densities, _edge_table, _finite_values, _hop_table
from .families import CurveFamily, _as_family, connecting_family, explicit_family
from .lipschitz import _worst_curve, path_relax
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
    ``gap``, ``p_norm = value ** (1/p)`` (``lp_norm`` of ``rho`` where ``value``
    is 0 or inf).  ``dual_weights`` maps the curves solved on to multipliers:
    the nonzero-increment curves that ``_HopTable.presolve`` keeps.  Padded
    with zeros on the curves it drops, they stay an optimal dual plan.
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
    for nonnegative densities and are dropped, and so are those that the
    family's one-hop curves imply (``_HopTable.presolve``).  For ``p > 1``
    the optimal density is unique by strict convexity.  A non-finite ``f``
    is rejected.
    """
    _check_settings(p, tol, max_iter)
    family = _as_family(family)
    need, table = _hop_table(space, family).presolve()
    fv = _finite_values(space, f)
    rhs = np.abs(fv[table.end] - fv[table.start])
    keep = rhs > 0.0
    idx, val = table.rows(0)
    res = solve_nonneg((idx[keep], val[keep]), rhs[keep], space.measure_vector(), p, tol, max_iter)
    rho = {v: float(res.x[i]) for i, v in enumerate(space.vertices)}
    duals = _sum_duals(family._take(np.flatnonzero(need)[keep]), res.y)
    return GradientResult(
        rho,
        res.value,
        res.value ** (1.0 / p) if 0.0 < res.value < math.inf else lp_norm(space, rho, p),
        family.label,
        res.gap,
        "N",
        p,
        res.iterations,
        res.converged,
        duals,
    )


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
    table = _hop_table(space, family)
    return dict(zip(space.vertices, table.slopes(_finite_values(space, f)).tolist()))


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

    Raises if ``rho_f`` or ``rho_g`` fails its own upper-gradient check,
    if ``f``, ``g`` or ``phi`` of ``f`` is not finite, or if a density is NaN
    or negative.
    """
    family = _as_family(family)
    table = _hop_table(space, family)
    fv, gv = _finite_values(space, f), _finite_values(space, g, "g")
    rf, rg = _densities(space, rho_f), _densities(space, rho_g)

    def worst(h: np.ndarray, rho: np.ndarray) -> DiscreteCurve | None:
        i = _worst_curve(table, h, rho, tol)
        return None if i is None else family._take([i])[0]

    if worst(fv, rf) is not None or worst(gv, rg) is not None:
        raise ValueError("inputs are not upper gradients on the family")

    values = sorted(set(fv.tolist()))
    phis = [float(phi(x)) for x in values]
    # phi of f is a vertex function too: a NaN in it would pass every check
    phi_at = dict(zip(values, phis))
    phi_f = _finite_values(
        space, dict(zip(space.vertices, map(phi_at.get, fv.tolist()))), "phi(f)"
    )
    # on a set of reals the largest difference quotient is attained at
    # neighbours in sorted order (the triangle inequality)
    lip_phi = max(
        (abs(pb - pa) / (b - a) for a, b, pa, pb in zip(values, values[1:], phis, phis[1:])),
        default=0.0,
    )

    def scaled(c: float, rho: np.ndarray) -> np.ndarray:
        # 0 * inf is the zero density in either order, not NaN
        return np.multiply(c, rho, out=np.zeros_like(rho), where=(rho != 0) & (c != 0))

    worst_sum = worst(fv + gv, rf + rg)
    worst_chain = worst(phi_f, scaled(lip_phi, rf))
    sup_f, sup_g = np.abs(fv).max(), np.abs(gv).max()
    worst_leib = worst(fv * gv, scaled(sup_f, rg) + scaled(sup_g, rf))

    rho2 = table.slopes(fv) if rho_f_alt is None else _densities(space, rho_f_alt)
    rho_min = np.minimum(rf, rho2)
    j = _worst_curve(table.single_hops(), fv, rho_min, tol)
    worst_min = None if j is None else family._take([table.cid[j]])[0]

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
    fv = _finite_values(space, f)
    family = _as_family(family)
    grad = gradient or n_gradient(space, f, family, p, tol)
    rv = _densities(space, grad.rho)
    if delta is None:
        delta = float(_hop_table(space, family).d.max(initial=0.0)) or max(space.diameter(), 1.0)
    if cap is None:
        cap = float(fv.max())
    if not cap > 0:
        raise ValueError("cap must be positive; shift f to be nonnegative first")
    if sigmas is None:
        sigmas = [2.0 ** (-(n + 1)) for n in range(n_steps)]
    vs = space.vertices
    trunc = dict(zip(vs, [min(cap, max(0.0, x)) for x in fv.tolist()]))

    edges = _edge_table(space)
    steps: list[HStep] = []
    for n, sigma in enumerate(sigmas, start=1):
        gv = rv + sigma
        f_n = path_relax(space, trunc, dict(zip(vs, gv.tolist())), vs, delta, cap)
        fnv = _finite_values(space, f_n, "f_n")
        sv = edges.slopes(fnv)
        f_err = lp_norm(space, dict(zip(vs, (fnv - fv).tolist())), p)
        slope_err = lp_norm(space, dict(zip(vs, (sv - rv).tolist())), p)
        exact = bool((np.abs(fnv - fv) <= 1e-12).all())
        limit = edges.hop_max(0.5 * (gv[edges.u] + gv[edges.v]))
        bounded = not (sv > limit + 1e-12).any()
        slope = dict(zip(vs, sv.tolist()))
        steps.append(HStep(n, float(sigma), f_n, slope, f_err, slope_err, exact, bounded))
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
    fv, gv = _finite_values(space, f), _densities(space, g)
    per_plan: list[float] = []
    for plan in plans:
        table, w, _ = _weighted_table(space, plan)
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

    The solve runs on the curves that ``_HopTable.presolve`` keeps: the
    family's one-hop curves imply the rest.  ``E`` holding both ends or
    neither end of every curve (as when empty) has capacity ``m(E)``, found
    in 0 iterations.  Pointwise maxima of witnesses certify monotonicity
    and finite subadditivity at solver tolerance.
    """
    _check_settings(p, tol, max_iter)
    target = space.check_subset(E)
    n = len(space)
    table = _hop_table(space, family).presolve()[1]
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
    u, v, _ = space._near_pairs(delta)
    pairs = _curves(space, [(vs[a], vs[b]) for a, b in zip(u, v)])
    return CurveFamily(walks.curves + tuple(pairs), f"harness(h<={max_hops})").normalized()


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
    fv = _finite_values(space, f)
    f0 = dict(zip(space.vertices, (fv - fv.min()).tolist()))
    constant = bool(fv.min() == fv.max())
    # an edgeless space has no hops to relax along, whatever delta is
    delta = space.max_edge_distance() or 1.0
    # a constant f has the zero gradient, which the empty family gives
    fam = explicit_family([]) if constant else _harness_family(space, max_hops, delta)
    grad = n_gradient(space, f0, fam, p, tol)
    steps, subfamilies, violation = [], [], 0.0
    if not constant:
        steps = h_gradient_sequence(space, f0, p, fam, delta=delta, gradient=grad)[1]
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
