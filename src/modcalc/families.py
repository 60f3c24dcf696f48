"""Construction and enumeration of finite curve families used as constraint sets."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .curve import (
    CurveError,
    DiscreteCurve,
    _checked_hops,
    _curves_from_json,
    _HopTable,
    _made_curves,
    _table,
    _vertex_tuples,
    curve_to_json,
)
from .space import MetricMeasureSpace, SpaceError, _dijkstra

__all__ = [
    "CurveFamily",
    "connecting_family",
    "family_through",
    "endpoints_in",
    "explicit_family",
    "family_from_json",
    "family_to_json",
]

# Largest number of walks ``_walks`` keeps before it gives up: over five times
# the largest family perfbench builds (18304 simple paths on the 20x20 grid),
# and small enough that 20x20 all-pairs walks with 6 hops fail in a second.
_CURVE_BUDGET = 100_000


class CurveFamily:
    """A finite list of curves with a label.

    An enumerated family, and an explicit family read from JSON, is the
    checked hop table of its curves on the space it was built on, with the
    times given in JSON: its curves are made, all at once, on first read,
    and a solve on that space reads the table instead (``curve._hop_table``).
    Duplicates are permitted; ``normalized`` deduplicates by vertex sequence
    and sorts lexicographically so enumeration order is deterministic.
    Families are immutable; the first read of ``curves`` fills a cache.
    Copy and pickle fill ``__dict__`` directly, as ``_set`` does.
    """

    def __init__(self, curves: Iterable[DiscreteCurve], label: str = "") -> None:
        self._set(_curves=tuple(curves), label=label, _space=None, _table=None, _times=None)

    def _set(self, **attrs: object) -> "CurveFamily":
        self.__dict__.update(attrs)
        return self

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"a CurveFamily is immutable: {name!r} cannot change")
    __delattr__ = __setattr__

    @classmethod
    def _on_table(
        cls,
        space: MetricMeasureSpace,
        table: _HopTable,
        times: list[tuple[float, ...] | None] | None,
        label: str,
    ) -> "CurveFamily":
        """The family of the curves of a table that ``curve._checked``
        passed on ``space``, at ``times`` as it returned them; the curves
        are made on first read."""
        return cls((), label)._set(_curves=None, _space=space, _table=table, _times=times)

    @classmethod
    def _enumerated(
        cls, space: MetricMeasureSpace, flat: np.ndarray, sizes: np.ndarray, label: str
    ) -> "CurveFamily":
        """The constant-speed family of vertex index sequences, given flat
        with their sizes.  The checks of ``_curves`` that can fail on a walk
        run now, on the table."""
        table = _checked_hops(space, _table(space, flat, sizes))
        table.constant_speed()  # raises on tied times
        return cls._on_table(space, table, None, label)

    @property
    def curves(self) -> tuple[DiscreteCurve, ...]:
        if self._curves is None:
            self._set(_curves=tuple(self._made(self._table, self._times)))
        return self._curves

    def _take(self, rows: np.ndarray) -> list[DiscreteCurve]:
        """The curves at the increasing indices ``rows``: while the curves
        are unread, made for those rows alone."""
        if self._curves is not None:
            return [self._curves[i] for i in rows]
        keep = np.zeros(len(self), bool)
        keep[rows] = True
        times = None if self._times is None else [self._times[i] for i in rows]
        return self._made(self._table.take(keep), times)

    def _made(self, table: _HopTable, times: list | None) -> list[DiscreteCurve]:
        return _made_curves(table, _vertex_tuples(self._space, table), times)

    def __iter__(self) -> Iterator[DiscreteCurve]:
        return iter(self.curves)

    def __len__(self) -> int:
        return len(self._table.start) if self._curves is None else len(self._curves)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.curves, self.label) == (other.curves, other.label)

    def __hash__(self) -> int:
        return hash((self.curves, self.label))

    def __repr__(self) -> str:
        return f"CurveFamily(curves={self.curves!r}, label={self.label!r})"

    def normalized(self) -> "CurveFamily":
        seen: dict[tuple[str, ...], DiscreteCurve] = {}
        for c in self.curves:
            seen.setdefault(c.vertices, c)
        ordered = tuple(seen[k] for k in sorted(seen))
        return CurveFamily(ordered, self.label)


def _as_family(family: CurveFamily | Iterable[DiscreteCurve]) -> CurveFamily:
    """``family`` itself, or an unlabelled family of the curves it yields."""
    return family if isinstance(family, CurveFamily) else CurveFamily(family)


def _walks(
    space: MetricMeasureSpace,
    starts: Iterable[str],
    max_hops: int,
    simple_only: bool,
    ends: frozenset[str],
    through: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Depth-first enumeration of edge walks in lexicographic order, as
    vertex indices, flat, and the walk sizes: starts and neighbors are
    visited sorted by id, so every walk comes once and after its prefixes.
    A walk is kept when it ends in ``ends`` (meets them, when ``through``):
    until then it does not start at or step to a vertex farther (in hops)
    from ``ends`` than the hops it has left, so an empty ``ends`` lists
    nothing."""
    if max_hops < 1:
        raise SpaceError("max_hops must be at least 1")
    idx = space.index
    goal = {idx[e] for e in ends}
    nbrs = [[v for v, _ in arcs] for arcs in space._arcs]
    hops = _dijkstra([[(v, 1) for v in vs] for vs in nbrs], dict.fromkeys(goal, 0))
    to_ends = [hops.get(i, math.inf) for i in range(len(nbrs))]
    flat: list[int] = []
    sizes: list[int] = []

    def extend(seq: list[int], met: bool) -> None:
        # met is only ever set when through, and a walk ending in ends has met them
        if len(seq) > 1 and (met or seq[-1] in goal):
            if len(sizes) == _CURVE_BUDGET:
                raise SpaceError(
                    f"the family has more than {_CURVE_BUDGET} curves; enumerating every "
                    "walk does not scale; constraint generation (not implemented) would avoid it"
                )
            flat.extend(seq)
            sizes.append(len(seq))
        if len(seq) - 1 >= max_hops:
            return
        for v in nbrs[seq[-1]]:
            if (simple_only and v in seq) or (not met and to_ends[v] > max_hops - len(seq)):
                continue
            seq.append(v)
            extend(seq, met or (through and v in goal))
            seq.pop()

    for s in sorted(set(starts)):
        i = idx[s]
        if to_ends[i] <= max_hops:
            extend([i], through and i in goal)
    # extend refers to itself: without this the cycle, and with it the
    # lists, would live until the next garbage collection
    del extend
    return np.array(flat, np.intp), np.array(sizes, np.intp)


def connecting_family(
    space: MetricMeasureSpace,
    E: Iterable[str],
    F: Iterable[str],
    max_hops: int,
    simple_only: bool = False,
) -> CurveFamily:
    """All edge walks (or simple paths) from ``E`` to ``F`` with at most
    ``max_hops`` hops, constant-speed parametrized on [0, 1].

    Constant curves are never included; the family may be empty.
    """
    src = space.check_subset(E)
    dst = space.check_subset(F)
    if not src or not dst:
        raise SpaceError("connecting_family needs nonempty endpoint sets")
    flat, sizes = _walks(space, src, max_hops, simple_only, dst)
    label = f"connect({len(src)}->{len(dst)},h<={max_hops})"
    return CurveFamily._enumerated(space, flat, sizes, label)


def family_through(
    space: MetricMeasureSpace, E: Iterable[str], max_hops: int
) -> CurveFamily:
    """All nonconstant simple paths with at most ``max_hops`` hops that
    intersect ``E``."""
    target = space.check_subset(E)
    flat, sizes = _walks(space, space.vertices, max_hops, True, target, True)
    return CurveFamily._enumerated(space, flat, sizes, f"through({len(target)},h<={max_hops})")


def endpoints_in(
    space: MetricMeasureSpace, E: Iterable[str], max_hops: int
) -> CurveFamily:
    """Edge walks with both endpoints in ``E``, plus the constant curves at
    vertices of ``E``.

    This is the one constructor that includes constant curves, so the
    infinite-modulus branch of the admissibility convention is exercised.
    """
    anchor = space.check_subset(E)
    flat, sizes = _walks(space, anchor, max_hops, False, anchor)
    consts = np.array([space.index[v] for v in sorted(anchor)], np.intp)
    flat, sizes = np.concatenate((consts, flat)), np.concatenate((np.ones_like(consts), sizes))
    return CurveFamily._enumerated(space, flat, sizes, f"endpoints({len(anchor)},h<={max_hops})")


def explicit_family(curves: Iterable[DiscreteCurve], label: str = "explicit") -> CurveFamily:
    return CurveFamily(tuple(curves), label)


def family_from_json(space: MetricMeasureSpace, obj: Mapping) -> CurveFamily:
    """Parse a family description.

    Shapes: ``{"type": "connecting"|"through"|"endpoints", "E": [...],
    "F": [...], "max_hops": int, "simple": bool}`` or
    ``{"type": "explicit", "curves": [...]}``.  An explicit family keeps the
    checked table of its curves, as an enumerated one does.
    """
    try:
        kind = obj["type"]
    except (KeyError, TypeError) as exc:
        raise CurveError(f"malformed family description: {exc}") from exc
    if kind == "explicit":
        table, _, times = _curves_from_json(space, obj.get("curves", []))
        return CurveFamily._on_table(space, table, times, "explicit")
    max_hops = _typed_field(obj, "max_hops", 1, int)
    E = _vertex_list(obj, "E")
    if kind == "connecting":
        F = _vertex_list(obj, "F")
        return connecting_family(space, E, F, max_hops, _typed_field(obj, "simple", False, bool))
    if kind == "through":
        return family_through(space, E, max_hops)
    if kind == "endpoints":
        # endpoints_in lists its constant curves first
        return endpoints_in(space, E, max_hops).normalized()
    raise CurveError(f"unknown family type {kind!r}")


def _typed_field(obj: Mapping, key: str, default, kind: type):
    """The field ``key`` (``default`` when absent), which must have the JSON
    type ``kind`` exactly: ``true`` is no ``int``, ``3.7`` no hop count."""
    value = obj.get(key, default)
    if type(value) is not kind:
        raise CurveError(f"family field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _vertex_list(obj: Mapping, key: str) -> list[str]:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise CurveError(f"family field {key!r} must be a list, got {type(value).__name__}")
    return [str(v) for v in value]


def family_to_json(family: CurveFamily) -> dict:
    return {
        "type": "explicit",
        "curves": [curve_to_json(c) for c in family.curves],
    }
