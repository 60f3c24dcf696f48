"""Parametrized discrete curves: length, reparametrization, path integrals,
signed variation and the exact path-level integration-by-parts identity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .space import MetricMeasureSpace

__all__ = [
    "CurveError",
    "DiscreteCurve",
    "AtomicMeasureOnCurve",
    "make_curve",
    "validate_curve",
    "length",
    "cs_reparam",
    "path_integral",
    "variation_measures",
    "stieltjes",
    "ibp_identity",
    "restrict",
    "q_energy",
    "curve_to_json",
    "curve_from_json",
]


class CurveError(ValueError):
    """A curve violates one of the structural invariants."""


@dataclass(frozen=True)
class DiscreteCurve:
    """A time-stamped vertex sequence.

    ``times`` are strictly increasing breakpoint times; consecutive vertices
    must be distinct (no zero-length hops) and at finite distance.  A single
    breakpoint encodes the constant curve.  Between breakpoints the curve is
    understood as a metric hop of length ``d(p_i, p_{i+1})``; hops are not
    required to follow graph edges.
    """

    times: tuple[float, ...]
    vertices: tuple[str, ...]

    @property
    def is_constant(self) -> bool:
        return len(self.vertices) == 1

    @property
    def start(self) -> str:
        return self.vertices[0]

    @property
    def end(self) -> str:
        return self.vertices[-1]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.times[0], self.times[-1])

    def with_times(self, times: Sequence[float]) -> "DiscreteCurve":
        new = tuple(float(t) for t in times)
        if len(new) != len(self.vertices):
            raise CurveError("retiming must keep the number of breakpoints")
        if any(b <= a for a, b in zip(new, new[1:])):
            raise CurveError("breakpoint times must be strictly increasing")
        return DiscreteCurve(new, self.vertices)


@dataclass(frozen=True)
class AtomicMeasureOnCurve:
    """Signed atomic measure indexed by curve breakpoints."""

    atoms: tuple[float, ...]

    def total(self) -> float:
        return float(sum(self.atoms))


def validate_curve(space: MetricMeasureSpace, curve: DiscreteCurve) -> list[float]:
    """Check the curve's invariants and return the hop lengths checked."""
    if len(curve.times) != len(curve.vertices) or not curve.vertices:
        raise CurveError("times and vertices must align and be nonempty")
    for v in curve.vertices:
        if v not in space:
            raise CurveError(f"unknown vertex {v!r}")
    for t in curve.times:
        if not math.isfinite(t):
            raise CurveError("breakpoint times must be finite")
    for a, b in zip(curve.times, curve.times[1:]):
        if not b > a:
            raise CurveError("breakpoint times must be strictly increasing")
    hops = []
    for u, v in zip(curve.vertices, curve.vertices[1:]):
        if u == v:
            raise CurveError(f"zero-length hop at {u!r}")
        hops.append(space.distance(u, v))
        if not math.isfinite(hops[-1]):
            raise CurveError(f"hop {u!r}->{v!r} crosses components")
    return hops


def make_curve(
    space: MetricMeasureSpace,
    vertices: Sequence[str],
    times: Sequence[float] | None = None,
) -> DiscreteCurve:
    """Build a validated curve; omitted times default to constant-speed on [0,1]."""
    vs = tuple(str(v) for v in vertices)
    # omitted times are the breakpoint indices until validation has passed
    given = range(len(vs)) if times is None else times
    curve = DiscreteCurve(tuple(float(t) for t in given), vs)
    hops = validate_curve(space, curve)
    return curve if times is not None else _constant_speed(vs, hops)


@dataclass(frozen=True)
class _HopTable:
    """Hops of a list of curves, in curve order then hop order: hop ``j`` runs
    on curve ``cid[j]`` from vertex index ``u[j]`` to ``v[j]`` at distance
    ``d[j]``; ``start`` and ``end`` index the endpoints of every curve."""

    n: int
    cid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def _entries(self, lam: int) -> tuple[np.ndarray, np.ndarray]:
        """Admissibility entries as flat keys ``curve * n + vertex`` and
        coefficients: half of each hop length at u, then at v, then for
        ``lam = 1`` one unit at each curve's start and end, in the order a
        curve-by-curve loop adds them."""
        k, n = len(self.start), self.n
        keys = np.column_stack((self.cid * n + self.u, self.cid * n + self.v)).ravel()
        coef = np.repeat(0.5 * self.d, 2)
        if lam == 1:
            at = np.arange(k) * n
            ends = np.column_stack((at + self.start, at + self.end)).ravel()
            keys, coef = np.concatenate((keys, ends)), np.concatenate((coef, np.ones(2 * k)))
        return keys, coef

    def matrix(self, lam: int) -> np.ndarray:
        """Admissibility rows, one per curve, as a dense k x n array."""
        k, n = len(self.start), self.n
        return np.bincount(*self._entries(lam), minlength=k * n).reshape(k, n)

    def rows(self, lam: int) -> tuple[np.ndarray, np.ndarray]:
        """The nonzeros of ``matrix(lam)`` as padded rows ``(idx, val)``: two
        k x w arrays of column indices and coefficients, w the widest row,
        padded with zero coefficients.  Repeated entries are summed in the
        same order, so every coefficient equals the dense one bit for bit."""
        keys, coef = self._entries(lam)
        uniq, inv = np.unique(keys, return_inverse=True)
        row, col = np.divmod(uniq, self.n)
        count = np.bincount(row, minlength=len(self.start))
        slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        idx = np.zeros((len(count), int(count.max(initial=0))), np.intp)
        val = np.zeros(idx.shape)
        idx[row, slot] = col
        val[row, slot] = np.bincount(inv, coef, len(uniq))
        return idx, val

    def single_hops(self) -> "_HopTable":
        """The table of every hop taken as a curve of its own."""
        return _HopTable(self.n, np.arange(len(self.u)), self.u, self.v, self.d, self.u, self.v)

    def hop_max(self, per_hop: np.ndarray) -> np.ndarray:
        """Largest value of ``per_hop`` over the hops at each vertex, 0 at a
        vertex no hop touches."""
        out = np.zeros(self.n)
        np.maximum.at(out, np.concatenate((self.u, self.v)), np.tile(per_hop, 2))
        return out

    def slopes(self, f: np.ndarray) -> np.ndarray:
        """Largest difference quotient of ``f`` over the hops at each vertex."""
        return self.hop_max(np.abs(f[self.v] - f[self.u]) / self.d)

    def path_integrals(self, rho: np.ndarray) -> np.ndarray:
        """``path_integral`` of the vertex vector ``rho`` along every curve."""
        ru, rv = rho[self.u], rho[self.v]
        if (ru < 0).any() or (rv < 0).any():
            raise CurveError("density must be nonnegative")
        return np.bincount(self.cid, 0.5 * (ru + rv) * self.d, minlength=len(self.start))


def _hop_table(space: MetricMeasureSpace, curves: Sequence[DiscreteCurve]) -> _HopTable:
    idx = space.index
    sizes = np.fromiter((len(c.vertices) for c in curves), np.intp, len(curves))
    flat = np.fromiter((idx[x] for c in curves for x in c.vertices), np.intp, sizes.sum())
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    u, v = np.delete(flat, last), np.delete(flat, first)
    cid = np.repeat(np.arange(len(curves)), sizes - 1)
    # read space._dist in place: distance_matrix() would copy it
    return _HopTable(len(space), cid, u, v, space._dist[u, v], flat[first], flat[last])


def _edge_table(space: MetricMeasureSpace) -> _HopTable:
    """Every graph edge as a one-hop curve, at its metric distance."""
    u, v = space._eu, space._ev
    return _HopTable(len(space), np.arange(len(u)), u, v, space._dist[u, v], u, v)


def _on_vertices(space: MetricMeasureSpace, values: Mapping[str, float]) -> np.ndarray:
    return np.array([float(values[x]) for x in space.vertices])


def _hop_lengths(space: MetricMeasureSpace, curve: DiscreteCurve) -> list[float]:
    return [
        space.distance(u, v) for u, v in zip(curve.vertices, curve.vertices[1:])
    ]


def length(space: MetricMeasureSpace, curve: DiscreteCurve) -> float:
    """Total variation of the curve: the sum of its hop lengths."""
    return float(sum(_hop_lengths(space, curve)))


def cs_reparam(space: MetricMeasureSpace, curve: DiscreteCurve) -> DiscreteCurve:
    """Constant-speed reparametrization onto [0, 1].

    Breakpoint times become cumulative-length fractions, so every piece has
    metric speed equal to the total length.  The constant curve maps to the
    constant curve.  Applying the map twice reproduces identical times.
    """
    return _constant_speed(curve.vertices, _hop_lengths(space, curve))


def _constant_speed(vertices: tuple[str, ...], hops: Sequence[float]) -> DiscreteCurve:
    """The curve through ``vertices`` on [0, 1] whose hops have the given
    lengths, at constant speed."""
    if len(vertices) == 1:
        return DiscreteCurve((0.0,), vertices)
    total = sum(hops)
    times = [0.0]
    acc = 0.0
    for d in hops:
        acc += d
        times.append(acc / total)
    times[-1] = 1.0
    if any(b <= a for a, b in zip(times, times[1:])):
        raise CurveError("hop lengths too disparate for a float time grid")
    return DiscreteCurve(tuple(times), vertices)


def _constant_speed_curves(
    seqs: Sequence[tuple[str, ...]], hops: Sequence[float]
) -> list[DiscreteCurve]:
    """``_constant_speed`` along every vertex sequence, with ``hops`` the hop
    lengths of all of them in order."""
    curves = []
    at = 0
    for s in seqs:
        curves.append(_constant_speed(s, hops[at : at + len(s) - 1]))
        at += len(s) - 1
    return curves


def path_integral(
    space: MetricMeasureSpace, curve: DiscreteCurve, rho: Mapping[str, float]
) -> float:
    """Trapezoid path integral of a nonnegative density along the curve.

    Each hop contributes the endpoint average of ``rho`` times the hop length;
    ``+inf`` values propagate.  The value is invariant under retiming, linear
    in ``rho`` and additive over concatenation.
    """
    total = 0.0
    for u, v in zip(curve.vertices, curve.vertices[1:]):
        ru, rv = float(rho[u]), float(rho[v])
        if ru < 0 or rv < 0:
            raise CurveError("density must be nonnegative")
        if math.isinf(ru) or math.isinf(rv):
            return math.inf
        total += 0.5 * (ru + rv) * space.distance(u, v)
    return total


def variation_measures(
    space: MetricMeasureSpace, curve: DiscreteCurve, f: Mapping[str, float]
) -> tuple[AtomicMeasureOnCurve, AtomicMeasureOnCurve, AtomicMeasureOnCurve]:
    """Arc-length and signed-variation atoms of the curve and of ``f`` along it.

    Returns ``(s_curve, mu_f, s_f)``: the arc-length atoms (half of each
    adjacent hop length per breakpoint), the signed increments of ``f``
    attributed half to each hop endpoint, and their absolute-value
    counterpart.  ``|mu_f| <= s_f`` holds atom by atom, and ``s_f <= L s_curve``
    whenever ``f`` has hop slopes bounded by ``L``.
    """
    n = len(curve.vertices)
    hops = _hop_lengths(space, curve)
    increments = [
        float(f[v]) - float(f[u]) for u, v in zip(curve.vertices, curve.vertices[1:])
    ]
    s_atoms = [0.0] * n
    mu_atoms = [0.0] * n
    sf_atoms = [0.0] * n
    for i in range(n - 1):
        s_atoms[i] += 0.5 * hops[i]
        s_atoms[i + 1] += 0.5 * hops[i]
        mu_atoms[i] += 0.5 * increments[i]
        mu_atoms[i + 1] += 0.5 * increments[i]
        sf_atoms[i] += 0.5 * abs(increments[i])
        sf_atoms[i + 1] += 0.5 * abs(increments[i])
    return (
        AtomicMeasureOnCurve(tuple(s_atoms)),
        AtomicMeasureOnCurve(tuple(mu_atoms)),
        AtomicMeasureOnCurve(tuple(sf_atoms)),
    )


def stieltjes(
    curve: DiscreteCurve,
    a: Mapping[str, float],
    f: Mapping[str, float],
    rule: str = "left",
) -> float:
    """Discrete Riemann-Stieltjes sum of ``a`` against the increments of ``f``.

    ``left`` evaluates ``a`` at the hop start, ``right`` at the hop end.
    """
    if rule not in ("left", "right"):
        raise CurveError(f"unknown rule {rule!r}")
    total = 0.0
    for u, v in zip(curve.vertices, curve.vertices[1:]):
        inc = float(f[v]) - float(f[u])
        total += float(a[u if rule == "left" else v]) * inc
    return total


def ibp_identity(
    curve: DiscreteCurve, f1: Mapping[str, float], f2: Mapping[str, float]
) -> tuple[float, float, float]:
    """Mixed-rule integration by parts along the curve.

    Returns ``(T12, T21, boundary)`` where ``T12`` is the left-rule sum of
    ``f1`` against ``f2``, ``T21`` the right-rule sum of ``f2`` against ``f1``
    and ``boundary = (f1 f2)(end) - (f1 f2)(start)``.  Abel summation makes
    ``boundary = T12 + T21`` hold exactly; this is the unique left/right
    pairing with that property.
    """
    t12 = stieltjes(curve, f1, f2, "left")
    t21 = stieltjes(curve, f2, f1, "right")
    boundary = float(f1[curve.end]) * float(f2[curve.end]) - float(
        f1[curve.start]
    ) * float(f2[curve.start])
    return t12, t21, boundary


def restrict(
    space: MetricMeasureSpace, curve: DiscreteCurve, s: float, t: float
) -> DiscreteCurve:
    """Subcurve between two breakpoint times, affinely rescaled to [0, 1].

    Only breakpoint times are accepted: vertices are the only evaluation
    sites in the discrete model, so mid-hop splitting is rejected.
    """
    if curve.is_constant:
        raise CurveError("cannot restrict the constant curve")
    span = curve.times[-1] - curve.times[0]

    def locate(x: float) -> int:
        for i, tt in enumerate(curve.times):
            if x == tt or abs(x - tt) <= 1e-12 * max(1.0, abs(span)):
                return i
        raise CurveError(f"{x!r} is not a breakpoint time")

    i, j = locate(s), locate(t)
    if i >= j:
        raise CurveError("restriction needs s < t")
    lo, hi = curve.times[i], curve.times[j]
    times = tuple((x - lo) / (hi - lo) for x in curve.times[i : j + 1])
    times = (0.0,) + times[1:-1] + (1.0,)
    return DiscreteCurve(times, curve.vertices[i : j + 1])


def q_energy(space: MetricMeasureSpace, curve: DiscreteCurve, q: float) -> float:
    """q-energy of a curve parametrized on [0, 1].

    For finite ``q`` this is the time integral of the piecewise metric speed
    raised to ``q``; for ``q = inf`` it is the maximal speed.  Constant-speed
    curves give ``length ** q``.
    """
    if q < 1:
        raise CurveError(f"q must be at least 1, got {q}")
    if curve.is_constant:
        return 0.0
    t0, t1 = curve.domain
    if abs(t0) > 1e-12 or abs(t1 - 1.0) > 1e-12:
        raise CurveError("q_energy needs a curve parametrized on [0, 1]")
    hops = _hop_lengths(space, curve)
    speeds = [
        d / (b - a) for d, a, b in zip(hops, curve.times, curve.times[1:])
    ]
    if math.isinf(q):
        return max(speeds)
    return float(
        sum(s**q * (b - a) for s, a, b in zip(speeds, curve.times, curve.times[1:]))
    )


def curve_to_json(curve: DiscreteCurve) -> dict:
    return {"times": list(curve.times), "vertices": list(curve.vertices)}


def curve_from_json(space: MetricMeasureSpace, obj: Mapping) -> DiscreteCurve:
    """Parse ``{"times": [...], "vertices": [...]}``; omitted times mean
    constant-speed parametrization on [0, 1]."""
    try:
        vertices = [str(v) for v in obj["vertices"]]
    except (KeyError, TypeError) as exc:
        raise CurveError(f"malformed curve description: {exc}") from exc
    times = obj.get("times")
    if times is not None:
        times = [float(t) for t in times]
    return make_curve(space, vertices, times)
