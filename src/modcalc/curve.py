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
        if not all(map(math.isfinite, new)):
            raise CurveError("breakpoint times must be finite")
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
    _curves(space, [curve.vertices], [curve.times])
    return _hop_table(space, [curve]).d.tolist()


def make_curve(
    space: MetricMeasureSpace,
    vertices: Sequence[str],
    times: Sequence[float] | None = None,
) -> DiscreteCurve:
    """Build a validated curve; omitted times default to constant-speed on [0,1]."""
    given = None if times is None else [tuple(float(t) for t in times)]
    return _curves(space, [tuple(str(v) for v in vertices)], given)[0]


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

    def constant_speed(self, check: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Constant-speed times on [0, 1] and vertex indices of every curve as
        two k x (w + 1) arrays, w >= 1, padded with the end vertex at time 1:
        running hop lengths, added in hop order, over the curve's length.
        Raises ``CurveError`` if two times of a curve that the boolean
        ``check`` marks (default: all) coincide."""
        k = len(self.start)
        hops = np.bincount(self.cid, minlength=k)
        slot = np.arange(len(self.cid)) - np.repeat(np.cumsum(hops) - hops, hops)
        times = np.zeros((k, max(int(hops.max(initial=0)), 1) + 1))
        times[self.cid, slot + 1] = self.d
        times = np.cumsum(times, axis=1)
        total = times[:, -1:]
        times /= np.where(total > 0, total, 1.0)
        times[np.arange(times.shape[1]) >= np.maximum(hops, 1)[:, None]] = 1.0
        tied = times[self.cid, slot + 1] <= times[self.cid, slot]
        if check is not None:
            tied &= check[self.cid]
        if tied.any():
            raise CurveError("hop lengths too disparate for a float time grid")
        at = np.repeat(self.end[:, None], times.shape[1], axis=1)
        at[self.cid, slot] = self.u
        return times, at

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


def _table(space: MetricMeasureSpace, seqs: Sequence[tuple[str, ...]]) -> _HopTable:
    """The hop table of nonempty vertex sequences, in order."""
    idx = space.index
    sizes = np.fromiter(map(len, seqs), np.intp, len(seqs))
    try:
        flat = np.fromiter((idx[x] for s in seqs for x in s), np.intp, sizes.sum())
    except KeyError as exc:
        raise CurveError(f"unknown vertex {exc.args[0]!r}") from None
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    u, v = np.delete(flat, last), np.delete(flat, first)
    cid = np.repeat(np.arange(len(seqs)), sizes - 1)
    # read space._dist in place: distance_matrix() would copy it
    return _HopTable(len(space), cid, u, v, space._dist[u, v], flat[first], flat[last])


def _hop_table(space: MetricMeasureSpace, curves: Sequence[DiscreteCurve]) -> _HopTable:
    """The hop table of the curves, with their hops checked: a curve built
    directly, or on another space, has not been through ``_curves``."""
    return _checked_hops(space, _table(space, [c.vertices for c in curves]))


def _checked_hops(space: MetricMeasureSpace, table: _HopTable) -> _HopTable:
    """``table``, after checking that no hop has zero length or crosses
    components."""
    bad = (table.u == table.v) | ~np.isfinite(table.d)
    if bad.any():
        j = int(bad.argmax())
        u, v = space.vertices[table.u[j]], space.vertices[table.v[j]]
        if u == v:
            raise CurveError(f"zero-length hop at {u!r}")
        raise CurveError(f"hop {u!r}->{v!r} crosses components")
    return table


def _curves(
    space: MetricMeasureSpace,
    seqs: Sequence[tuple[str, ...]],
    times: Sequence[tuple[float, ...] | None] | None = None,
) -> list[DiscreteCurve]:
    """Validated curves through the vertex sequences ``seqs``, in order: at
    the breakpoint times ``times[i]`` where given, otherwise at constant
    speed on [0, 1].  Each check runs over all sequences before the next."""
    times = [None] * len(seqs) if times is None else times
    if any(not s or (t is not None and len(t) != len(s)) for s, t in zip(seqs, times)):
        raise CurveError("times and vertices must align and be nonempty")
    table = _table(space, seqs)
    given = [t for t in times if t is not None]
    flat = np.array([x for t in given for x in t], float)
    if not np.isfinite(flat).all():
        raise CurveError("breakpoint times must be finite")
    # compare consecutive times, except across the end of a curve
    ends = np.cumsum(np.fromiter(map(len, given), np.intp, len(given)))[:-1] - 1
    if not np.delete(flat[1:] > flat[:-1], ends).all():
        raise CurveError("breakpoint times must be strictly increasing")
    _checked_hops(space, table)
    cs = table.constant_speed(np.fromiter((t is None for t in times), bool, len(times)))[0]
    # row by row, and with the ends of every curve sharing the objects 0.0
    # and 1.0, a family takes no more memory than curve-by-curve loops took;
    # [: len(s)] leaves a constant curve (0.0,)
    return [
        DiscreteCurve(t or (0.0, *row[1 : len(s) - 1].tolist(), 1.0)[: len(s)], s)
        for row, s, t in zip(cs, seqs, times)
    ]


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
    return _curves(space, [curve.vertices])[0]


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
    if not q >= 1:
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
    return _curves_from_json(space, [obj])[0]


def _curves_from_json(space: MetricMeasureSpace, objs: Sequence[Mapping]) -> list[DiscreteCurve]:
    """``curve_from_json`` of every object of the list ``objs``."""
    if not isinstance(objs, list):
        raise CurveError(f"curve descriptions must form a list, got {type(objs).__name__}")
    try:
        seqs = [tuple(str(v) for v in obj["vertices"]) for obj in objs]
        times = [
            None if obj.get("times") is None else tuple(float(t) for t in obj["times"])
            for obj in objs
        ]
    except (KeyError, TypeError) as exc:
        raise CurveError(f"malformed curve description: {exc}") from exc
    return _curves(space, seqs, times)
