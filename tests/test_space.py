import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_distance, random_connected_space, random_disconnected_space
from modcalc import (
    MetricMeasureSpace,
    SpaceError,
    asymptotic_slope,
    build_space,
    capacity,
    connecting_family,
    cycle_space,
    endpoints_in,
    equivalence_report,
    family_through,
    grid_space,
    h_gradient_sequence,
    hop_slope_density,
    length,
    lipschitz_constant,
    lp_norm,
    make_curve,
    n_gradient,
    path_integral,
    path_relax,
    path_space,
    q_energy,
    restrict,
    variation_measures,
)
from modcalc.curve import _edge_table, _hop_table
from modcalc.families import family_from_json
import modcalc.space as space_module
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
    with pytest.raises(SpaceError, match="at least one vertex"):
        MetricMeasureSpace([], [], {})
    with pytest.raises(SpaceError, match="has no measure"):
        MetricMeasureSpace(["a", "b"], [("a", "b", 1.0)], {"a": 1.0})
    with pytest.raises(SpaceError, match="at least 3 vertices"):
        cycle_space(2)


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
    # added in vertex order, whatever the order of the set
    assert s.mass(set(s.vertices)) == s.mass(reversed(s.vertices)) == s.mass()


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


def test_lp_norm_outside_the_float_range_of_its_powers():
    # 2^2000 overflows and 0.001^1000 underflows; the norms are ordinary
    s = path_space(3)
    assert lp_norm(s, {v: 2.0 for v in s.vertices}, 2000.0) == pytest.approx(2 * 3 ** (1 / 2000))
    assert lp_norm(s, {v: 1e-3 for v in s.vertices}, 1000.0) == pytest.approx(1e-3 * 3 ** (1 / 1000))
    assert lp_norm(s, {v: 0.0 for v in s.vertices}, 1000.0) == 0.0


def test_disconnected_distance_inf_and_diameter():
    s = MetricMeasureSpace(["a", "b", "c"], [("a", "b", 1.0)], {"a": 1, "b": 1, "c": 1})
    assert math.isinf(s.distance("a", "c"))
    assert s.diameter() == 1.0
    assert s.mass() == 3.0


def _relengthed(s: MetricMeasureSpace, length) -> MetricMeasureSpace:
    return MetricMeasureSpace(s.vertices, [(u, v, length()) for u, v, _ in s.edges], s.measure)


def test_every_distance_reader_matches_the_matrix_bit_for_bit():
    # the edge distances come from searches bounded by each vertex's longest
    # edge; the reference is the all-pairs matrix of a twin, read first
    rng = random.Random(17)
    shortcut = 0
    for k in range(24):
        make = (random_connected_space, random_disconnected_space)[k % 2]
        s = make(rng, rng.randint(6, 14), extra_edges=5, len_range=(0.1, 3.0))
        if k % 3 == 0:
            s = _relengthed(s, lambda: rng.lognormvariate(0.0, 1.5))
        D = MetricMeasureSpace(s.vertices, s.edges, s.measure).distance_matrix()
        eu = [s.index[u] for u, _, _ in s.edges]
        ev = [s.index[v] for _, v, _ in s.edges]
        assert _edge_table(s).d.tobytes() == D[eu, ev].tobytes()
        assert s.max_edge_distance() == D[eu, ev].max(initial=0.0)
        shortcut += sum(D[a, b] < le for a, b, (_, _, le) in zip(eu, ev, s.edges))

        fam = connecting_family(s, s.vertices, s.vertices, 2)
        table = _hop_table(s, fam.curves)
        assert table.d.tobytes() == D[table.u, table.v].tobytes()

        # one hop of the JSON family joins two vertices that share no edge
        edges = set(zip(eu, ev)) | set(zip(ev, eu))
        a, b = rng.choice(
            [(a, b) for a in range(len(s)) for b in range(a) if (a, b) not in edges and D[a, b] < math.inf]
        )
        u, w, _ = s.edges[0]
        vs = s.vertices
        obj = {"type": "explicit", "curves": [{"vertices": [u, w]}, {"vertices": [vs[a], vs[b], vs[a]]}]}
        table = _hop_table(s, family_from_json(s, obj).curves)
        assert table.d.tobytes() == D[table.u, table.v].tobytes()
    assert shortcut > 0  # some edge is longer than its distance


def _heap_matrix(s: MetricMeasureSpace) -> np.ndarray:
    """One textbook heap search per source over the edge list, symmetrised
    by the smaller direction as the space does."""
    n = len(s)
    arcs = [[] for _ in range(n)]
    for u, v, le in s.edges:
        arcs[s.index[u]].append((s.index[v], le))
        arcs[s.index[v]].append((s.index[u], le))
    D = np.full((n, n), math.inf)
    for src in range(n):
        row = D[src]
        row[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > row[u]:
                continue
            for v, le in arcs[u]:
                if d + le < row[v]:
                    row[v] = nd = d + le
                    heapq.heappush(heap, (nd, v))
    return np.minimum(D, D.T)


def test_distance_matrix_is_the_heap_search_bit_for_bit():
    # the matrix comes from one relaxation over blocks of sources, a round
    # in passes of bounded arc count; any order of relaxation reaches the
    # least float path sums a heap search returns
    rng = random.Random(29)
    spaces = [
        MetricMeasureSpace(list("abcde"), [], dict.fromkeys("abcde", 1.0)),
        MetricMeasureSpace(["a"], [], {"a": 1.0}),
        path_space(40),
        cycle_space(30),
        grid_space(12, 12),
    ]
    for k in range(16):
        make = (random_connected_space, random_disconnected_space)[k % 2]
        s = make(rng, rng.randint(2, 40), extra_edges=rng.randint(0, 30))
        length = (lambda: rng.uniform(0.1, 3.0), lambda: rng.lognormvariate(0.0, 2.0))[k // 2 % 2]
        spaces.append(_relengthed(s, length))
    big = random_connected_space(rng, space_module._SOURCE_BLOCK + 44, extra_edges=150)
    spaces.append(_relengthed(big, lambda: rng.lognormvariate(0.0, 2.0)))
    # complete: each round after the first runs in several passes
    names = [f"k{i}" for i in range(40)]
    pairs = [(a, b, rng.lognormvariate(0.0, 2.0)) for j, b in enumerate(names) for a in names[:j]]
    spaces.append(MetricMeasureSpace(names, pairs, dict.fromkeys(names, 1.0)))
    for s in spaces:
        assert s.distance_matrix().tobytes() == _heap_matrix(s).tobytes()


def test_gradient_and_capacity_never_build_the_distance_matrix():
    s = build_space(space_to_json(_relengthed(grid_space(6, 6), random.Random(3).random)))
    f = {v: float(i % 7) for i, v in enumerate(s.vertices)}
    fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
    n_gradient(s, f, fam, 2.0)
    capacity(s, ["0,0"], fam, 2.0)
    hop_slope_density(s, f, fam)
    asymptotic_slope(s, f)
    s.max_edge_distance()
    assert "_dist" not in vars(s)
    s.diameter()
    assert "_dist" in vars(s)


def test_near_pairs_match_the_matrix_filter_bit_for_bit():
    # pairs within delta from bounded searches, against the matrix of a twin
    rng = random.Random(23)
    for k in range(24):
        make = (random_connected_space, random_disconnected_space)[k % 2]
        s = make(rng, rng.randint(6, 14), extra_edges=5, len_range=(0.1, 3.0))
        if k % 4 >= 2:
            s = _relengthed(s, lambda: rng.lognormvariate(0.0, 1.5))
        D = MetricMeasureSpace(s.vertices, s.edges, s.measure).distance_matrix()
        for delta in (s.max_edge_distance(), rng.uniform(0.1, 6.0), 0.0, 1e9):
            near = D <= delta
            np.fill_diagonal(near, False)
            u, v = np.nonzero(near)
            got = s._near_pairs(delta)
            assert got[0].tolist() == u.tolist() and got[1].tolist() == v.tolist()
            assert got[2].tobytes() == D[u, v].tobytes()
        assert "_dist" not in vars(s)


def test_relaxation_never_builds_the_distance_matrix():
    # relaxation hops come from searches bounded by delta; the harness adds
    # one-hop curves only on pairs within the longest edge distance, which on
    # a unit grid are the edges
    s = build_space(space_to_json(_relengthed(grid_space(6, 6), random.Random(5).random)))
    f = {v: float(i % 7) for i, v in enumerate(s.vertices)}
    path_relax(s, f, {v: 1.0 for v in s.vertices}, ["0,0", "5,5"], 2.0, 10.0)
    h_gradient_sequence(s, f, 2.0, connecting_family(s, s.vertices, s.vertices, 2))
    assert "_dist" not in vars(s)
    s = grid_space(4, 4)
    equivalence_report(s, {v: float(i % 5) for i, v in enumerate(s.vertices)}, 2.0, max_hops=2)
    assert "_dist" not in vars(s)


def test_equivalence_report_searches_the_relaxation_pairs_once(monkeypatch):
    # the harness family and the three relaxation steps share one delta
    s = grid_space(4, 4)
    calls = []
    search = space_module._dijkstra
    monkeypatch.setattr(space_module, "_dijkstra", lambda *a: calls.append(a) or search(*a))
    equivalence_report(s, {v: float(i % 5) for i, v in enumerate(s.vertices)}, 2.0, max_hops=2)
    assert len(calls) == len(s)
    u, v, d = s._near_pairs(s.max_edge_distance())
    assert len(calls) == len(s) and not (u.flags.writeable or v.flags.writeable or d.flags.writeable)


def test_curve_quantities_never_build_the_distance_matrix():
    # the curve-level quantities read edge hops from the edge distances
    s = build_space(space_to_json(_relengthed(grid_space(6, 6), random.Random(4).random)))
    f = {v: float(i % 5) for i, v in enumerate(s.vertices)}
    walk = make_curve(s, ["0,0", "0,1", "1,1", "0,1", "0,2"], [0.0, 0.125, 0.25, 0.75, 1.0])
    for c in (walk, make_curve(s, ["2,2", "2,3"]), make_curve(s, ["3,3"])):
        length(s, c)
        path_integral(s, c, f)
        variation_measures(s, c, f)
        q_energy(s, c, 2.0)
    restrict(s, walk, 0.25, 1.0)
    assert "_dist" not in vars(s)


def test_a_string_is_no_vertex_set():
    # "10" would otherwise be read as the set {"1", "0"}
    s = path_space(12)
    fam = connecting_family(s, s.vertices, s.vertices, 1)
    assert capacity(s, ["10"], fam, 2.0).value == pytest.approx(2.2414, abs=1e-3)
    f = {v: float(v) for v in s.vertices}
    calls = [
        lambda: s.check_subset("10"),
        lambda: s.mass("10"),
        lambda: capacity(s, "10", fam, 2.0),
        lambda: connecting_family(s, "10", s.vertices, 1),
        lambda: connecting_family(s, s.vertices, "10", 1),
        lambda: family_through(s, "10", 2),
        lambda: endpoints_in(s, "10", 2),
        lambda: lipschitz_constant(s, f, "10"),
        lambda: path_relax(s, f, f, "10", 1.0, 20.0),
    ]
    for call in calls:
        with pytest.raises(SpaceError, match="string '10'"):
            call()
    assert s.mass(["10"]) == 1.0
