import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_distance, random_connected_space, random_disconnected_space
from modcalc import MetricMeasureSpace, SpaceError, build_space, grid_space, lp_norm, path_space
from modcalc.space import space_to_json


def test_three_vertex_path_distance():
    s = path_space(3)
    assert s.distance("0", "2") == 2.0
    assert s.distance("0", "1") == 1.0


def test_zero_length_edge_rejected():
    with pytest.raises(SpaceError):
        MetricMeasureSpace(["a", "b"], [("a", "b", 0.0)], {"a": 1.0, "b": 1.0})


def test_invalid_descriptions_rejected():
    with pytest.raises(SpaceError):
        MetricMeasureSpace(["a", "b"], [("a", "b", 1.0)], {"a": 0.0, "b": 1.0})
    with pytest.raises(SpaceError):
        MetricMeasureSpace(["a"], [("a", "a", 1.0)], {"a": 1.0})
    with pytest.raises(SpaceError):
        MetricMeasureSpace(
            ["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)], {"a": 1.0, "b": 1.0}
        )
    with pytest.raises(SpaceError):
        MetricMeasureSpace(["a", "b"], [("a", "c", 1.0)], {"a": 1.0, "b": 1.0})
    with pytest.raises(SpaceError):
        MetricMeasureSpace(["a", "a"], [], {"a": 1.0})
    with pytest.raises(SpaceError):
        MetricMeasureSpace(["a"], [], {"a": 1.0, "zz": 2.0})


def test_grid_corner_to_corner():
    g = grid_space(5, 5)
    assert g.distance("0,0", "4,4") == 8.0
    assert g.distance("0,0", "2,1") == 3.0


def test_distances_match_networkx_oracle():
    rng = random.Random(7)
    for make in (random_connected_space, random_disconnected_space) * 5:
        s = make(rng, rng.randint(4, 12), extra_edges=3)
        for u in s.vertices:
            for v in s.vertices:
                assert s.distance(u, v) == pytest.approx(oracle_distance(s, u, v), abs=1e-12)
        edge_distances = [s.distance(u, v) for u, v, _ in s.edges]
        assert s.max_edge_distance() == max(edge_distances, default=0.0)


def test_identity_and_symmetry():
    rng = random.Random(3)
    s = random_connected_space(rng, 9)
    for v in s.vertices:
        assert s.distance(v, v) == 0.0
    for u in s.vertices:
        for v in s.vertices:
            assert s.distance(u, v) == s.distance(v, u)


def test_triangle_inequality_exhaustive():
    rng = random.Random(11)
    spaces = [
        random_connected_space(rng, 30, extra_edges=10),
        random_connected_space(rng, 200, extra_edges=60),
    ]
    for s in spaces:
        D = s.distance_matrix()
        n = len(s)
        for k in range(n):
            via = D[:, k][:, None] + D[k, :][None, :]
            assert (D <= via + 1e-9).all()


def test_balls():
    s = path_space(3)
    assert s.ball("1", 0.0) == frozenset()
    assert s.ball("1", 1.5) == frozenset({"0", "1", "2"})
    g = grid_space(5, 5)
    closed = g.ball("0,0", 2.0, closed=True)
    assert len(closed) == 6
    # oracle: count vertices with distance <= 2
    count = sum(1 for v in g.vertices if oracle_distance(g, "0,0", v) <= 2.0)
    assert len(closed) == count
    with pytest.raises(SpaceError):
        s.ball("1", -1.0)
    with pytest.raises(SpaceError):
        s.ball("1", math.nan)
    with pytest.raises(SpaceError):
        s.ball("nope", 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_measure_modularity(seed):
    rng = random.Random(seed)
    s = random_connected_space(rng, rng.randint(2, 12))
    A = {v for v in s.vertices if rng.random() < 0.5}
    B = {v for v in s.vertices if rng.random() < 0.5}
    lhs = s.mass(A | B) + s.mass(A & B)
    rhs = s.mass(A) + s.mass(B)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_json_round_trip():
    rng = random.Random(5)
    s = random_connected_space(rng, 8, extra_edges=2)
    s2 = build_space(space_to_json(s))
    assert s2.vertices == s.vertices
    assert s2.edges == s.edges
    assert s2.measure == s.measure


def test_build_space_malformed():
    with pytest.raises(SpaceError):
        build_space({"nodes": []})
    with pytest.raises(SpaceError):
        build_space({"vertices": [{"id": "a", "m": 1.0}], "edges": [{"u": "a"}]})


def test_lp_norm_rejects_exponents_below_one():
    s = path_space(3)
    ones = {v: 1.0 for v in s.vertices}
    assert lp_norm(s, ones, 1.0) == 3.0
    for bad in (math.nan, 0.5, -1.0):
        with pytest.raises(SpaceError, match="p must be at least 1"):
            lp_norm(s, ones, bad)


def test_disconnected_distance_inf_and_diameter():
    s = MetricMeasureSpace(["a", "b", "c"], [("a", "b", 1.0)], {"a": 1, "b": 1, "c": 1})
    assert math.isinf(s.distance("a", "c"))
    assert s.diameter() == 1.0
    assert s.mass() == 3.0
