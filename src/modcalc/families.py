"""Construction and enumeration of finite curve families used as constraint sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .curve import (
    CurveError,
    DiscreteCurve,
    _constant_speed_curves,
    curve_from_json,
    curve_to_json,
    make_curve,
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


@dataclass(frozen=True)
class CurveFamily:
    """A finite list of curves with a label.

    Duplicates are permitted; ``normalized`` deduplicates by vertex sequence
    and sorts lexicographically so enumeration order is deterministic.
    """

    curves: tuple[DiscreteCurve, ...]
    label: str = ""

    def __iter__(self) -> Iterator[DiscreteCurve]:
        return iter(self.curves)

    def __len__(self) -> int:
        return len(self.curves)

    def normalized(self) -> "CurveFamily":
        seen: dict[tuple[str, ...], DiscreteCurve] = {}
        for c in self.curves:
            seen.setdefault(c.vertices, c)
        ordered = tuple(seen[k] for k in sorted(seen))
        return CurveFamily(ordered, self.label)

    def union(self, other: "CurveFamily", label: str = "") -> "CurveFamily":
        return CurveFamily(self.curves + other.curves, label or self.label)

    def subfamily(self, pick: Callable[[DiscreteCurve], bool], label: str = "") -> "CurveFamily":
        return CurveFamily(tuple(c for c in self.curves if pick(c)), label)


def _walks(
    space: MetricMeasureSpace,
    starts: Iterable[str],
    max_hops: int,
    simple_only: bool,
    accept: Callable[[tuple[str, ...]], bool],
    ends: Iterable[str],
) -> list[tuple[str, ...]]:
    """Depth-first enumeration of edge walks, deterministic by sorted neighbors.
    Every accepted walk ends in ``ends``: a walk does not step to a vertex
    farther (in hops) from ``ends`` than the hops it has left."""
    out: list[tuple[str, ...]] = []
    idx = space.index
    unit = [[(idx[v], 1) for v, _ in space.neighbors(u)] for u in space.vertices]
    to_ends = dict(zip(space.vertices, _dijkstra(unit, {idx[e]: 0 for e in ends}).tolist()))

    def extend(seq: list[str]) -> None:
        if len(seq) > 1 and accept(tuple(seq)):
            if len(out) == _CURVE_BUDGET:
                raise SpaceError(
                    f"the family has more than {_CURVE_BUDGET} curves; enumerating every "
                    "walk does not scale (see ROADMAP item 5, constraint generation)"
                )
            out.append(tuple(seq))
        if len(seq) - 1 >= max_hops:
            return
        for v, _ in space.neighbors(seq[-1]):
            if (simple_only and v in seq) or to_ends[v] > max_hops - len(seq):
                continue
            seq.append(v)
            extend(seq)
            seq.pop()

    for s in sorted(set(starts)):
        extend([s])
    return sorted(set(out))


def _edge_curves(
    space: MetricMeasureSpace, seqs: list[tuple[str, ...]]
) -> tuple[DiscreteCurve, ...]:
    """Constant-speed curves along enumerated edge walks.  The walks are
    valid by construction, so ``validate_curve`` is skipped and the hop
    lengths come from one gather of the distance matrix."""
    idx = space.index
    u = [idx[x] for s in seqs for x in s[:-1]]
    v = [idx[x] for s in seqs for x in s[1:]]
    return tuple(_constant_speed_curves(seqs, space._dist[u, v].tolist()))


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
    if max_hops < 1:
        raise SpaceError("max_hops must be at least 1")
    seqs = _walks(space, src, max_hops, simple_only, lambda s: s[-1] in dst, dst)
    label = f"connect({len(src)}->{len(dst)},h<={max_hops})"
    return CurveFamily(_edge_curves(space, seqs), label=label)


def family_through(
    space: MetricMeasureSpace, E: Iterable[str], max_hops: int
) -> CurveFamily:
    """All nonconstant simple paths with at most ``max_hops`` hops that
    intersect ``E``."""
    if max_hops < 1:
        raise SpaceError("max_hops must be at least 1")
    target = space.check_subset(E)
    if not target:
        return CurveFamily((), label="through(empty)")
    seqs = _walks(
        space,
        space.vertices,
        max_hops,
        True,
        lambda s: any(v in target for v in s),
        space.vertices,
    )
    return CurveFamily(_edge_curves(space, seqs), label=f"through({len(target)},h<={max_hops})")


def endpoints_in(
    space: MetricMeasureSpace, E: Iterable[str], max_hops: int
) -> CurveFamily:
    """Edge walks with both endpoints in ``E``, plus the constant curves at
    vertices of ``E``.

    This is the one constructor that includes constant curves, so the
    infinite-modulus branch of the admissibility convention is exercised.
    """
    if max_hops < 1:
        raise SpaceError("max_hops must be at least 1")
    anchor = space.check_subset(E)
    if not anchor:
        return CurveFamily((), label="endpoints(empty)")
    seqs = _walks(space, anchor, max_hops, False, lambda s: s[-1] in anchor, anchor)
    curves = tuple(make_curve(space, (v,)) for v in sorted(anchor)) + _edge_curves(space, seqs)
    return CurveFamily(curves, label=f"endpoints({len(anchor)},h<={max_hops})")


def explicit_family(curves: Iterable[DiscreteCurve], label: str = "explicit") -> CurveFamily:
    return CurveFamily(tuple(curves), label)


def family_from_json(space: MetricMeasureSpace, obj: Mapping) -> CurveFamily:
    """Parse a family description.

    Shapes: ``{"type": "connecting"|"through"|"endpoints", "E": [...],
    "F": [...], "max_hops": int, "simple": bool}`` or
    ``{"type": "explicit", "curves": [...]}``.
    """
    try:
        kind = obj["type"]
    except (KeyError, TypeError) as exc:
        raise CurveError(f"malformed family description: {exc}") from exc
    if kind == "explicit":
        curves = [curve_from_json(space, c) for c in obj.get("curves", [])]
        return explicit_family(curves)
    max_hops = int(obj.get("max_hops", 1))
    E = [str(v) for v in obj.get("E", [])]
    if kind == "connecting":
        F = [str(v) for v in obj.get("F", [])]
        fam = connecting_family(
            space, E, F, max_hops, bool(obj.get("simple", False))
        )
    elif kind == "through":
        fam = family_through(space, E, max_hops)
    elif kind == "endpoints":
        fam = endpoints_in(space, E, max_hops)
    else:
        raise CurveError(f"unknown family type {kind!r}")
    return fam.normalized()


def family_to_json(family: CurveFamily) -> dict:
    return {
        "type": "explicit",
        "curves": [curve_to_json(c) for c in family.curves],
    }
