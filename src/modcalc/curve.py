"""Parametrized discrete curves: length, reparametrization, path integrals,
signed variation and the exact path-level integration-by-parts identity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .space import MetricMeasureSpace, _pair_keys

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


@dataclass(frozen=True, slots=True)
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
        _check_times([new])
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
    return _hop_lengths(space, curve)


def make_curve(
    space: MetricMeasureSpace,
    vertices: Sequence[str],
    times: Sequence[float] | None = None,
) -> DiscreteCurve:
    """Build a validated curve; omitted times default to constant-speed on [0,1]."""
    given = None if times is None else [tuple(float(t) for t in times)]
    return _curves(space, [tuple(str(v) for v in vertices)], given)[0]


# curves per block of _vertex_tuples and _made_curves: a block's
# temporaries stay small beside the curves made from it
_MADE_BLOCK = 256


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

    def rows(self, lam: int) -> tuple[np.ndarray, np.ndarray]:
        """Admissibility rows, one per curve, as padded rows ``(idx, val)``:
        two k x w arrays of column indices and coefficients, w the widest
        row, padded with zero coefficients.  A row holds half of each hop
        length at u, then at v, then for ``lam = 1`` one unit at the curve's
        start and end, repeated entries summed in the order a curve-by-curve
        loop adds them.  ``_solver._Rows.block`` makes them dense."""
        k, n = len(self.start), self.n
        keys = np.column_stack((self.cid * n + self.u, self.cid * n + self.v)).ravel()
        coef = np.repeat(0.5 * self.d, 2)
        if lam == 1:
            at = np.arange(k) * n
            ends = np.column_stack((at + self.start, at + self.end)).ravel()
            keys, coef = np.concatenate((keys, ends)), np.concatenate((coef, np.ones(2 * k)))
        uniq, inv = np.unique(keys, return_inverse=True)
        row, col = np.divmod(uniq, n)
        count = np.bincount(row, minlength=k)
        slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        idx = np.zeros((k, int(count.max(initial=0))), np.intp)
        val = np.zeros(idx.shape)
        idx[row, slot] = col
        val[row, slot] = np.bincount(inv, coef, len(uniq))
        return idx, val

    def presolve(self) -> tuple[np.ndarray, "_HopTable"]:
        """The curves whose ``rows(0)`` a gradient or capacity solve needs, as
        a mask, and the table of those curves.  A curve's row is the sum of
        its hops' rows and its increment at most the sum of theirs, so a
        curve each of whose hops, in either orientation, is a one-hop curve
        of the table is implied, and so is a constant curve.  Of the one-hop
        curves on each unordered end pair only the first is kept: the others
        have its row and increment bit for bit.  A table without one-hop
        curves keeps every non-constant curve."""
        k, n = len(self.start), self.n
        key = _pair_keys(self.u, self.v, n)
        one = np.bincount(self.cid, minlength=k)[self.cid] == 1
        pairs, first = np.unique(key[one], return_index=True)
        need = np.bincount(self.cid, ~np.isin(key, pairs), k) > 0
        need[self.cid[one][first]] = True
        return need, self.take(need)

    def take(self, keep: np.ndarray) -> "_HopTable":
        """The table of the curves that the boolean ``keep`` marks, in order."""
        hop = keep[self.cid]
        cid = (np.cumsum(keep) - 1)[self.cid[hop]]
        return _HopTable(
            self.n, cid, self.u[hop], self.v[hop], self.d[hop], self.start[keep], self.end[keep]
        )

    def block(self, lo: int, hi: int) -> "_HopTable":
        """The table of the curves ``lo`` to ``hi - 1``, on views of the hop
        arrays."""
        a, b = np.searchsorted(self.cid, (lo, hi)).tolist()
        return _HopTable(
            self.n, self.cid[a:b] - lo, self.u[a:b], self.v[a:b], self.d[a:b],
            self.start[lo:hi], self.end[lo:hi],
        )

    def constant_speed(self) -> tuple[np.ndarray, np.ndarray]:
        """Constant-speed times on [0, 1] and vertex indices of every curve as
        two k x (w + 1) arrays, w >= 1, padded with the end vertex at time 1:
        running hop lengths, added in hop order, over the curve's length.
        Raises ``CurveError`` if two times of a curve coincide."""
        k = len(self.start)
        hops = np.bincount(self.cid, minlength=k)
        slot = np.arange(len(self.cid)) - np.repeat(np.cumsum(hops) - hops, hops)
        times = np.zeros((k, max(int(hops.max(initial=0)), 1) + 1))
        times[self.cid, slot + 1] = self.d
        times = np.cumsum(times, axis=1)
        total = times[:, -1:]
        times /= np.where(total > 0, total, 1.0)
        times[np.arange(times.shape[1]) >= np.maximum(hops, 1)[:, None]] = 1.0
        if (times[self.cid, slot + 1] <= times[self.cid, slot]).any():
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
        """``path_integral`` of the vertex vector ``rho`` along every curve;
        ``rho`` is a density that ``_densities`` has read."""
        ru, rv = rho[self.u], rho[self.v]
        return np.bincount(self.cid, 0.5 * (ru + rv) * self.d, minlength=len(self.start))


def _indices(
    space: MetricMeasureSpace, seqs: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """The vertex indices of vertex sequences, flat, and the sequence sizes;
    an unknown vertex raises ``CurveError``."""
    idx = space.index
    sizes = np.fromiter(map(len, seqs), np.intp, len(seqs))
    try:
        flat = np.fromiter((idx[x] for s in seqs for x in s), np.intp, sizes.sum())
    except KeyError as exc:
        raise CurveError(f"unknown vertex {exc.args[0]!r}") from None
    return flat, sizes


def _table(space: MetricMeasureSpace, flat: np.ndarray, sizes: np.ndarray) -> _HopTable:
    """The hop table of nonempty vertex index sequences, given flat with
    their sizes, in order."""
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    u, v = np.delete(flat, last), np.delete(flat, first)
    cid = np.repeat(np.arange(len(sizes)), sizes - 1)
    return _HopTable(len(space), cid, u, v, space._pair_distances(u, v), flat[first], flat[last])


def _hop_table(space: MetricMeasureSpace, curves: Iterable[DiscreteCurve]) -> _HopTable:
    """The hop table of the curves, with their hops checked: a curve built
    directly, or on another space, has not been through ``_checked``.  A
    family enumerated, or read from JSON, on ``space`` itself keeps its
    checked table (``CurveFamily._table``), and that table is returned."""
    if getattr(curves, "_space", None) is space:
        return curves._table
    return _checked_hops(space, _table(space, *_indices(space, [c.vertices for c in curves])))


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


def _check_times(times: Sequence[tuple[float, ...]]) -> None:
    """Raise unless each tuple of breakpoint times is finite and strictly increasing."""
    flat = np.array([x for t in times for x in t], float)
    if not np.isfinite(flat).all():
        raise CurveError("breakpoint times must be finite")
    # compare consecutive times, except across the end of a curve
    ends = np.cumsum(np.fromiter(map(len, times), np.intp, len(times)))[:-1] - 1
    if not np.delete(flat[1:] > flat[:-1], ends).all():
        raise CurveError("breakpoint times must be strictly increasing")


def _checked(
    space: MetricMeasureSpace,
    seqs: Sequence[Sequence[str]],
    times: Sequence[tuple[float, ...] | None] | None = None,
) -> tuple[_HopTable, list[tuple[float, ...] | None] | None]:
    """Every check of a list of curves through the vertex sequences
    ``seqs``, with the breakpoint times ``times[i]`` where given and constant
    speed on [0, 1] elsewhere; each check runs over all sequences.  Returns
    the checked hop table and the times, ``None`` where omitted (``None``
    when no time is given)."""
    given = [] if times is None else [(s, t) for s, t in zip(seqs, times) if t is not None]
    if not all(seqs) or any(len(t) != len(s) for s, t in given):
        raise CurveError("times and vertices must align and be nonempty")
    table = _table(space, *_indices(space, seqs))
    _check_times([t for _, t in given])
    _checked_hops(space, table)
    if not given:
        times = None
    _omitted(table, times)[1].constant_speed()  # raises on tied times
    return table, times


def _curves(
    space: MetricMeasureSpace,
    seqs: Sequence[tuple[str, ...]],
    times: Sequence[tuple[float, ...] | None] | None = None,
) -> list[DiscreteCurve]:
    """Validated curves through the vertex sequences ``seqs``, in order: at
    the breakpoint times ``times[i]`` where given, otherwise constant-speed
    on [0, 1]; ``_checked`` checks them and ``_made_curves`` makes them."""
    table, times = _checked(space, seqs, times)
    return _made_curves(table, seqs, times)


def _omitted(
    table: _HopTable, times: Sequence[tuple[float, ...] | None] | None
) -> tuple[np.ndarray, _HopTable]:
    """The mask of the table's curves whose times are omitted, and their
    table."""
    k = len(table.start)
    if times is None:
        return np.ones(k, bool), table
    free = np.fromiter((t is None for t in times), bool, k)
    return free, table.take(free)


def _vertex_tuples(space: MetricMeasureSpace, table: _HopTable) -> list[tuple[str, ...]]:
    """The vertex names of a table's curves, a tuple per curve: each hop's
    first vertex, then the end; a block of curves at a time, so temporaries
    stay small."""
    names = np.array(space.vertices, object)
    out: list = []
    for lo in range(0, len(table.start), _MADE_BLOCK):
        b = table.block(lo, lo + _MADE_BLOCK)
        hops = np.bincount(b.cid, minlength=len(b.start))
        seq = names[np.insert(b.u, np.cumsum(hops), b.end)].tolist()
        stop = np.cumsum(hops + 1).tolist()
        out += [tuple(seq[i:j]) for i, j in zip([0, *stop], stop)]
    return out


def _made_curves(
    table: _HopTable,
    seqs: Sequence[tuple[str, ...]],
    times: Sequence[tuple[float, ...] | None] | None = None,
) -> list[DiscreteCurve]:
    """The one maker of curves: those of a checked table, in order, on its
    vertex tuples ``seqs``, at the times ``times[i]`` where given, otherwise
    constant-speed.  Constant-speed times are made a block of curves at a
    time, so temporaries stay small, and zipped from columns
    over the block's curves of each hop count; tuples made first, which may
    outlive the curves, pin no pool of times."""
    out: list = [None] * len(seqs) if times is None else list(times)
    free, table = _omitted(table, times)
    rest = np.flatnonzero(free)
    for lo in range(0, len(rest), _MADE_BLOCK):
        b = table.block(lo, lo + _MADE_BLOCK)
        cs, _ = b.constant_speed()
        hops = np.bincount(b.cid, minlength=len(b.start))
        # the hop counts present; np.unique would import numpy.ma (about 1 MB)
        for k in np.flatnonzero(np.bincount(hops)).tolist():
            rows = np.flatnonzero(hops == k)
            # the ends of every curve share 0.0 and 1.0; [: k + 1] leaves (0.0,)
            ends = repeat(0.0, len(rows)), repeat(1.0, len(rows))
            cols = [ends[0], *cs[rows, 1:k].T.tolist(), ends[1]][: k + 1]
            for i, row in zip(rest[rows + lo].tolist(), zip(*cols)):
                out[i] = row
    return list(map(DiscreteCurve, out, seqs))


def _breakpoint_times(
    table: _HopTable, times: Sequence[tuple[float, ...] | None] | None
) -> np.ndarray:
    """The breakpoint times of a checked table's curves, flat, in order:
    ``times[i]`` where given, otherwise the constant-speed times, which are
    those of ``_made_curves`` bit for bit."""
    free, part = _omitted(table, times)
    cs, _ = part.constant_speed()
    sizes = np.bincount(table.cid, minlength=len(free)) + 1
    out = np.empty(int(sizes.sum()))
    at = np.repeat(free, sizes)
    # row by row, each curve's times up to its end
    out[at] = cs[np.arange(cs.shape[1]) < sizes[free][:, None]]
    if times is not None:
        given = [x for t in times if t is not None for x in t]
        out[~at] = np.array(given, float)
    return out


def _edge_table(space: MetricMeasureSpace) -> _HopTable:
    """Every graph edge as a one-hop curve, at its metric distance."""
    u, v = space._eu, space._ev
    return _HopTable(len(space), np.arange(len(u)), u, v, space._edge_d, u, v)


def _finite_values(
    space: MetricMeasureSpace,
    f: Mapping[str, float],
    name: str = "f",
    at: Sequence[str] | None = None,
) -> np.ndarray:
    """The one reader of a vertex function: ``f`` on the vertices ``at``, in
    that order (default: every vertex of the space).  A vertex that ``f``
    leaves out is a ``ValueError``, and so is a non-finite value: a NaN
    would silently drop the constraints it enters (``NaN > 0`` is false)."""
    at = space.vertices if at is None else at
    try:
        fv = np.array([float(f[x]) for x in at])
    except KeyError as exc:
        raise ValueError(f"{name} has no value at vertex {exc.args[0]!r}") from None
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        raise ValueError(f"{name} must be finite, got {fv[bad[0]]} at {at[bad[0]]!r}")
    return fv


def _densities(
    space: MetricMeasureSpace,
    rho: Mapping[str, float],
    name: str = "density",
    at: Sequence[str] | None = None,
) -> np.ndarray:
    """The one reader of a density: ``rho`` on the vertices ``at``, in that
    order (default: every vertex of the space), with values in [0, +inf]; a
    missing vertex or a NaN or negative value raises ``CurveError``."""
    at = space.vertices if at is None else at
    try:
        r = np.array([float(rho[x]) for x in at])
    except KeyError as exc:
        raise CurveError(f"{name} has no value at vertex {exc.args[0]!r}") from None
    bad = np.flatnonzero(~(r >= 0))
    if bad.size:
        x = r[bad[0]]
        kind = "NaN" if np.isnan(x) else "negative"
        raise CurveError(f"{name} is {kind} at {at[bad[0]]!r}: it must be nonnegative, got {x}")
    return r


def _hop_lengths(space: MetricMeasureSpace, curve: DiscreteCurve) -> list[float]:
    return _hop_table(space, [curve]).d.tolist()


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
    hops = _hop_lengths(space, curve)
    r = _densities(space, rho, at=curve.vertices).tolist()
    total = 0.0
    for ru, rv, d in zip(r, r[1:], hops):
        total += 0.5 * (ru + rv) * d
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
    fv = _finite_values(space, f, at=curve.vertices).tolist()
    increments = [b - a for a, b in zip(fv, fv[1:])]
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
    A zero-length hop, or a curve vertex that ``a`` or ``f`` leaves out or
    gives a non-finite value, raises ``CurveError``.
    """
    if rule not in ("left", "right"):
        raise CurveError(f"unknown rule {rule!r}")
    _check_walk(curve, a=a, f=f)
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
    pairing with that property.  ``f1`` and ``f2`` are checked as
    ``stieltjes`` checks ``a`` and ``f``.
    """
    _check_walk(curve, f1=f1, f2=f2)
    t12 = stieltjes(curve, f1, f2, "left")
    t21 = stieltjes(curve, f2, f1, "right")
    boundary = float(f1[curve.end]) * float(f2[curve.end]) - float(
        f1[curve.start]
    ) * float(f2[curve.start])
    return t12, t21, boundary


def _check_walk(curve: DiscreteCurve, **values: Mapping[str, float]) -> None:
    """The curve checks that need no space: raise ``CurveError`` on a
    zero-length hop, or on a vertex of the curve that one of the named
    ``values`` leaves out or gives a non-finite value."""
    for u, v in zip(curve.vertices, curve.vertices[1:]):
        if u == v:
            raise CurveError(f"zero-length hop at {u!r}")
    for name, g in values.items():
        for x in curve.vertices:
            if x not in g:
                raise CurveError(f"{name} has no value at vertex {x!r}")
            if not math.isfinite(float(g[x])):
                raise CurveError(f"{name} must be finite, got {float(g[x])} at {x!r}")


def restrict(
    space: MetricMeasureSpace, curve: DiscreteCurve, s: float, t: float
) -> DiscreteCurve:
    """Subcurve between two breakpoint times, affinely rescaled to [0, 1].

    Only breakpoint times are accepted: vertices are the only evaluation
    sites in the discrete model, so mid-hop splitting is rejected.  The
    subcurve is validated as ``make_curve`` validates, so tied times raise.
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
    times = (0.0, *((x - lo) / (hi - lo) for x in curve.times[i + 1 : j]), 1.0)
    return _curves(space, [curve.vertices[i : j + 1]], [times])[0]


def _on_unit_interval(curve: DiscreteCurve) -> bool:
    """Whether the curve's times run from 0 to 1, each end within 1e-12."""
    return abs(curve.times[0]) <= 1e-12 and abs(curve.times[-1] - 1.0) <= 1e-12


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
    if not _on_unit_interval(curve):
        raise CurveError("q_energy needs a curve parametrized on [0, 1]")
    hops = _hop_lengths(space, curve)
    speeds = [d / (b - a) for d, a, b in zip(hops, curve.times, curve.times[1:])]
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
    return _made_curves(*_curves_from_json(space, [obj]))[0]


def _curves_from_json(
    space: MetricMeasureSpace, objs: Sequence[Mapping]
) -> tuple[_HopTable, list[tuple[str, ...]], list[tuple[float, ...] | None] | None]:
    """The curves that ``curve_from_json`` reads from each object of the
    list ``objs``, unmade: the checked table, the vertex tuples and the
    times, as ``_made_curves`` takes them.  A vertex reads as ``str(v)``; a
    time must be a JSON number."""
    if not isinstance(objs, list):
        raise CurveError(f"curve descriptions must form a list, got {type(objs).__name__}")
    try:
        seqs = [tuple(map(str, obj["vertices"])) for obj in objs]
        times = [
            None if t is None else tuple(_json_numbers(t, "breakpoint time"))
            for t in (obj.get("times") for obj in objs)
        ]
    except (KeyError, TypeError) as exc:
        raise CurveError(f"malformed curve description: {exc}") from exc
    table, times = _checked(space, seqs, times)
    return table, seqs, times


def _json_numbers(values: Iterable, what: str, error: type = CurveError) -> list[float]:
    """``values`` read from JSON as floats; each must be a JSON number, so
    ``true`` or ``"0.5"`` raises ``error``."""
    out = list(values)
    for x in out:
        if type(x) not in (int, float):
            raise error(f"{what} must be a number, got {type(x).__name__}")
    return list(map(float, out))
