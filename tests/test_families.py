import math
import random

import pytest

from helpers import brute_walks, random_connected_space, random_disconnected_space
from modcalc import (
    MetricMeasureSpace,
    SpaceError,
    connecting_family,
    endpoints_in,
    family_through,
    grid_space,
    path_space,
)
from modcalc.curve import make_curve, validate_curve
from modcalc.families import _CURVE_BUDGET, family_from_json, family_to_json


def triangle():
    return MetricMeasureSpace(
        ["a", "b", "c"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)],
        {"a": 1.0, "b": 1.0, "c": 1.0},
    )


def test_connecting_examples():
    disconnected = MetricMeasureSpace(
        ["a", "b"], [], {"a": 1.0, "b": 1.0}
    )
    assert len(connecting_family(disconnected, ["a"], ["b"], 3)) == 0

    p = path_space(3)
    fam = connecting_family(p, ["0"], ["2"], 2, simple_only=True)
    assert [c.vertices for c in fam] == [("0", "1", "2")]

    t = triangle()
    fam2 = connecting_family(t, ["a"], ["b"], 2, simple_only=True)
    assert sorted(c.vertices for c in fam2) == [("a", "b"), ("a", "c", "b")]

    with pytest.raises(SpaceError):
        connecting_family(p, [], ["2"], 2)
    with pytest.raises(SpaceError):
        connecting_family(p, ["0"], ["2"], 0)


def test_family_through_examples():
    p = path_space(3)
    assert len(family_through(p, [], 3)) == 0
    fam = family_through(p, ["1"], 1)
    assert sorted(c.vertices for c in fam) == [
        ("0", "1"),
        ("1", "0"),
        ("1", "2"),
        ("2", "1"),
    ]
    all_one_hop = family_through(p, p.vertices, 1)
    assert len(all_one_hop) == 4  # every oriented edge of the path


def test_endpoints_in_examples():
    p = path_space(3)
    fam = endpoints_in(p, ["0", "2"], 2)
    seqs = {c.vertices for c in fam}
    assert ("0", "1", "2") in seqs and ("2", "1", "0") in seqs
    assert ("0",) in seqs and ("2",) in seqs
    assert len(endpoints_in(p, [], 2)) == 0
    single = endpoints_in(p, ["1"], 1)
    assert ("1",) in {c.vertices for c in single}


def test_counts_match_brute_force():
    rng = random.Random(41)
    for _ in range(8):
        s = random_connected_space(rng, rng.randint(3, 8), extra_edges=2)
        hops = rng.randint(1, 3)
        all_walks = brute_walks(s, hops, simple=False)
        all_simple = brute_walks(s, hops, simple=True)

        E = set(rng.sample(s.vertices, rng.randint(1, len(s))))
        F = set(rng.sample(s.vertices, rng.randint(1, len(s))))

        # the enumeration itself lists every walk once, in sorted order
        got = connecting_family(s, E, F, hops)
        want = sorted({w for w in all_walks if w[0] in E and w[-1] in F})
        assert [c.vertices for c in got] == want

        got_s = connecting_family(s, E, F, hops, simple_only=True)
        want_s = sorted({w for w in all_simple if w[0] in E and w[-1] in F})
        assert [c.vertices for c in got_s] == want_s

        got_t = family_through(s, E, hops)
        want_t = sorted({w for w in all_simple if any(v in E for v in w)})
        assert [c.vertices for c in got_t] == want_t

        got_e = endpoints_in(s, E, hops)
        want_e = sorted({(v,) for v in E}) + sorted(
            {w for w in all_walks if w[0] in E and w[-1] in E}
        )
        assert [c.vertices for c in got_e] == want_e


def test_pruning_by_hop_distance_keeps_the_family():
    # walks are not extended where F is out of hop reach; the family must
    # equal the unpruned one (targets = every vertex) filtered by its end
    rng = random.Random(42)
    for make in (random_connected_space, random_disconnected_space) * 5:
        s = make(rng, rng.randint(4, 9), extra_edges=1)
        hops = rng.randint(2, 6)
        E = rng.sample(s.vertices, rng.randint(1, 3))
        F = set(rng.sample(s.vertices, rng.randint(1, 2)))
        for simple in (False, True):
            got = connecting_family(s, E, F, hops, simple)
            every = connecting_family(s, E, s.vertices, hops, simple)
            assert [c.vertices for c in got] == [
                c.vertices for c in every if c.end in F
            ]
        got_e = [c.vertices for c in endpoints_in(s, F, hops) if not c.is_constant]
        every = connecting_family(s, F, s.vertices, hops)
        assert got_e == [c.vertices for c in every if c.end in F]

    g = grid_space(8, 8)
    assert len(connecting_family(g, ["0,0"], ["7,7"], 14)) == math.comb(14, 7)


def test_family_through_prunes_walks_out_of_reach(monkeypatch):
    # a walk that has not met E yet only steps where E stays within the hops
    # it has left; listing every simple path of the grid called neighbors
    # 43968 times here
    g = grid_space(12, 12)
    calls = []
    neighbors = MetricMeasureSpace.neighbors
    monkeypatch.setattr(
        MetricMeasureSpace, "neighbors", lambda self, v: calls.append(v) or neighbors(self, v)
    )
    fam = family_through(g, ["0,0"], 6)
    assert len(fam) == 772 and all("0,0" in c.vertices for c in fam)
    assert len(calls) < 2000


def test_walk_enumeration_stops_at_the_curve_budget():
    g = grid_space(20, 20)
    with pytest.raises(SpaceError, match=f"more than {_CURVE_BUDGET} curves.*ROADMAP item 5"):
        connecting_family(g, g.vertices, g.vertices, 6)
    with pytest.raises(SpaceError, match="ROADMAP item 5"):
        family_through(g, g.vertices, 6)


def test_monotone_in_max_hops():
    rng = random.Random(43)
    s = random_connected_space(rng, 7, extra_edges=2)
    prev: set = set()
    for hops in (1, 2, 3, 4):
        fam = connecting_family(s, s.vertices, s.vertices, hops).normalized()
        seqs = {c.vertices for c in fam}
        assert prev <= seqs
        prev = seqs


def test_every_enumerated_curve_validates():
    rng = random.Random(47)
    s = random_connected_space(rng, 7, extra_edges=3)
    for fam in (
        connecting_family(s, s.vertices, s.vertices, 3),
        family_through(s, [s.vertices[0]], 3),
        endpoints_in(s, s.vertices[:3], 2),
    ):
        for c in fam:
            validate_curve(s, c)
            # enumeration builds the curve that make_curve builds
            assert c == make_curve(s, c.vertices)
            if not c.is_constant:
                assert c.times[0] == 0.0 and c.times[-1] == 1.0


def test_family_json_round_trip():
    p = path_space(3)
    fam = connecting_family(p, ["0"], ["2"], 2, simple_only=True)
    fam2 = family_from_json(p, family_to_json(fam))
    assert [c.vertices for c in fam2] == [c.vertices for c in fam]

    fam3 = family_from_json(
        p, {"type": "connecting", "E": ["0"], "F": ["2"], "max_hops": 2, "simple": True}
    )
    assert [c.vertices for c in fam3] == [("0", "1", "2")]
    fam4 = family_from_json(p, {"type": "through", "E": ["1"], "max_hops": 1})
    assert len(fam4) == 4
    fam5 = family_from_json(p, {"type": "endpoints", "E": ["0", "2"], "max_hops": 2})
    assert ("0",) in {c.vertices for c in fam5}
