import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_connected_space,
    random_edge_walk,
    random_function,
    reference_barycenter,
    reference_derivation,
)
from strategies import functions_on, spaces_with_walk
from modcalc import (
    MetricMeasureSpace,
    Plan,
    PlanError,
    barycenter,
    compression,
    cs_reparam,
    derivation_norm_bound,
    energy,
    grid_space,
    is_test_plan,
    make_curve,
    parametric_barycenter,
    path_space,
    plan_derivation,
    point_mass,
    q_energy,
    restrict_plan,
)
from modcalc.plans import plan_from_json, plan_to_json


@pytest.fixture
def path3():
    return path_space(3)


def two_component_space():
    return MetricMeasureSpace(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("x", "y", 1.0), ("y", "z", 1.0)],
        {v: 1.0 for v in ["a", "b", "c", "x", "y", "z"]},
    )


def test_plan_validation(path3):
    c = make_curve(path3, ["0", "1"])
    with pytest.raises(PlanError):
        Plan(((c, 0.0),))
    with pytest.raises(PlanError):
        Plan(((make_curve(path3, ["0", "1"], [0.0, 2.0]), 1.0),))
    assert point_mass(c).is_probability


def test_barycenter_examples(path3):
    plan = point_mass(make_curve(path3, ["0", "1", "2"]))
    bar0 = barycenter(path3, plan, 0)
    assert dict(bar0.values) == {"0": 0.5, "1": 1.0, "2": 0.5}
    bar1 = barycenter(path3, plan, 1)
    assert dict(bar1.values) == {"0": 1.5, "1": 1.0, "2": 1.5}
    empty = Plan(())
    assert dict(barycenter(path3, empty, 0).values) == {v: 0.0 for v in path3.vertices}


def test_compression_examples(path3):
    plan = point_mass(make_curve(path3, ["0", "1", "2"]))
    assert compression(path3, plan, 64) == pytest.approx(1.0)

    s = two_component_space()
    parallel = Plan(
        (
            (make_curve(s, ["a", "b", "c"]), 0.5),
            (make_curve(s, ["x", "y", "z"]), 0.5),
        )
    )
    assert compression(s, parallel, 64) == pytest.approx(0.5)
    doubled = parallel.scaled(2.0)
    assert compression(s, doubled, 64) == pytest.approx(1.0)


def test_energy_examples(path3):
    c2 = make_curve(path3, ["0", "1", "2"])  # constant speed, length 2
    assert energy(path3, point_mass(c2), 2.0) == pytest.approx(4.0)
    assert energy(path3, Plan(()), 2.0) == 0.0
    c1 = make_curve(path3, ["0", "1"])
    mix = Plan(((c1, 0.5), (c2, 0.5)))
    assert energy(path3, mix, 2.0) == pytest.approx(2.5)
    assert energy(path3, mix, math.inf) == pytest.approx(2.0)
    with pytest.raises(PlanError):
        energy(path3, mix, 1.0)


def test_energy_matches_curve_by_curve_reference():
    rng = random.Random(89)
    for _ in range(40):
        s = random_connected_space(rng, rng.randint(3, 8), len_range=(1e-3, 1e3))
        support = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.2:
                c = make_curve(s, [rng.choice(s.vertices)])
            else:
                c = random_edge_walk(rng, s, 6)
                if rng.random() < 0.5:
                    cuts = sorted(rng.sample(range(1, 97), len(c.vertices) - 2))
                    c = c.with_times([0.0] + [k / 97 for k in cuts] + [1.0])
            support.append((c, rng.uniform(0.1, 2.0)))
        plan = Plan(tuple(support))
        for q in (1.5, 2.0, 3.7):
            assert energy(s, plan, q) == sum(w * q_energy(s, c, q) for c, w in plan.support)
        want = max((q_energy(s, c, math.inf) for c, _ in plan.support), default=0.0)
        assert energy(s, plan, math.inf) == want


def test_is_test_plan(path3):
    c = make_curve(path3, ["0", "1", "2"])
    ok, comp, eq = is_test_plan(path3, point_mass(c), 2.0)
    assert ok and comp == pytest.approx(1.0) and eq == pytest.approx(4.0)
    ok2, _, _ = is_test_plan(path3, point_mass(c, 2.0), 2.0)
    assert not ok2


def test_test_plan_grid_geodesics():
    g = grid_space(2, 2)
    geos = [
        make_curve(g, ["0,0", "0,1", "1,1"]),
        make_curve(g, ["0,0", "1,0", "1,1"]),
    ]
    plan = Plan(tuple((c, 0.5) for c in geos))
    ok, comp, eq = is_test_plan(g, plan, 2.0)
    assert ok
    # both curves sit at 0,0 at t=0: pushforward mass 1 there
    assert comp == pytest.approx(1.0)
    assert eq == pytest.approx(4.0)  # each geodesic has length 2


def test_test_plan_three_grid_geodesics_by_hand():
    g = grid_space(3, 3)
    geos = [
        make_curve(g, ["0,0", "0,1", "0,2", "1,2", "2,2"]),
        make_curve(g, ["0,0", "1,0", "2,0", "2,1", "2,2"]),
        make_curve(g, ["0,0", "1,0", "1,1", "1,2", "2,2"]),
    ]
    plan = Plan(tuple((c, 1.0 / 3.0) for c in geos))
    ok, comp, eq = is_test_plan(g, plan, 2.0)
    assert ok
    # masses per quarter-time: t=0 all at the corner (1), t=1/4 splits 1/3
    # + 2/3, t=1/2 splits evenly, t=3/4 splits 2/3 + 1/3, t=1 all at the
    # far corner (1); the maximum ratio is 1
    assert comp == pytest.approx(1.0)
    assert eq == pytest.approx(16.0)  # constant-speed length-4 curves


def test_plan_derivation_examples(path3):
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    plan = point_mass(make_curve(path3, ["0", "1", "2"]))
    b, div = plan_derivation(path3, plan, f)
    assert b == {"0": 0.5, "1": 1.0, "2": 0.5}
    assert div == {"0": 1.0, "1": 0.0, "2": -1.0}
    total = sum(b[v] * path3.measure[v] for v in path3.vertices)
    assert total == pytest.approx(2.0)
    assert total == pytest.approx(-sum(f[v] * div[v] for v in path3.vertices))

    const = {v: 7.0 for v in path3.vertices}
    b0, _ = plan_derivation(path3, plan, const)
    assert all(x == 0.0 for x in b0.values())

    rev = point_mass(make_curve(path3, ["2", "1", "0"]))
    b_rev, div_rev = plan_derivation(path3, rev, f)
    assert b_rev == {v: -b[v] for v in path3.vertices}
    assert div_rev == {v: -div[v] for v in path3.vertices}


def test_plan_ibp_random():
    rng = random.Random(53)
    for _ in range(60):
        s = random_connected_space(rng, rng.randint(3, 8))
        support = tuple(
            (random_edge_walk(rng, s, 5), rng.uniform(0.1, 2.0))
            for _ in range(rng.randint(1, 4))
        ) + ((make_curve(s, [rng.choice(s.vertices)]), rng.uniform(0.1, 2.0)),)
        plan = Plan(support)
        f = random_function(rng, s)
        b, div = plan_derivation(s, plan, f)
        lhs = sum(b[v] * s.measure[v] for v in s.vertices)
        mid = sum(w * (f[c.end] - f[c.start]) for c, w in plan.support)
        rhs = -sum(f[v] * div[v] for v in s.vertices)
        assert abs(lhs - mid) <= 1e-12 * max(1.0, abs(mid))
        assert abs(mid - rhs) <= 1e-12 * max(1.0, abs(mid))

        # the hop-table sums agree with the curve loops to 1e-14 of the
        # summed term magnitudes, which bound every entry
        scale = 0.0
        for c, w in plan.support:
            hops = zip(c.vertices, c.vertices[1:])
            scale += w * (2.0 + sum(s.distance(u, v) + abs(f[v] - f[u]) for u, v in hops))
        scale /= min(s.measure.values())
        b_ref, div_ref = reference_derivation(s, plan, f)
        for lam in (0, 1):
            bar = barycenter(s, plan, lam).values
            bar_ref = reference_barycenter(s, plan, lam)
            for v in s.vertices:
                assert abs(bar[v] - bar_ref[v]) <= 1e-14 * scale
        for v in s.vertices:
            assert abs(b[v] - b_ref[v]) <= 1e-14 * scale
            assert abs(div[v] - div_ref[v]) <= 1e-14 * scale


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plan_ibp_hypothesis(data):
    from modcalc import cs_reparam

    space, curve = data.draw(spaces_with_walk())
    f = data.draw(functions_on(space))
    w = data.draw(st.floats(0.1, 2.0))
    plan = Plan(((cs_reparam(space, curve), w),))
    b, div = plan_derivation(space, plan, f)
    lhs = sum(b[v] * space.measure[v] for v in space.vertices)
    rhs = -sum(f[v] * div[v] for v in space.vertices)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_derivation_norm_bound(path3):
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    plan = point_mass(make_curve(path3, ["0", "1", "2"]))
    report = derivation_norm_bound(path3, plan, f)
    assert report["ok"] and report["max_ratio"] == pytest.approx(1.0)

    const = {v: 4.0 for v in path3.vertices}
    report_c = derivation_norm_bound(path3, plan, const)
    assert report_c["ok"] and report_c["max_ratio"] == 0.0

    rng = random.Random(59)
    g = grid_space(3, 3)
    for _ in range(20):
        support = tuple(
            (random_edge_walk(rng, g, 4), rng.uniform(0.2, 1.5)) for _ in range(3)
        )
        f_rand = random_function(rng, g)
        rep = derivation_norm_bound(g, Plan(support), f_rand)
        assert rep["ok"] and rep["max_ratio"] <= 1.0 + 1e-12


def test_restriction_stability():
    rng = random.Random(61)
    for _ in range(15):
        s = random_connected_space(rng, rng.randint(4, 8))
        curves = [random_edge_walk(rng, s, 4) for _ in range(4)]
        weights = [rng.uniform(0.1, 1.0) for _ in curves]
        total = sum(weights)
        plan = Plan(tuple((c, w / total) for c, w in zip(curves, weights)))
        keep = curves[: rng.randint(1, len(curves))]
        sub, mass = restrict_plan(plan, keep)
        assert sub.is_probability
        n = 256
        assert compression(s, sub, n) <= compression(s, plan, n) / mass + 1e-12


def reference_grid_masses(space, plan, n_grid):
    """Evaluation-map masses curve by curve: resample at constant speed, then
    snap each grid time to the breakpoint nearest in time (ties to the
    earlier one)."""
    resampled = [(cs_reparam(space, c), w) for c, w in plan.support]
    out = []
    for j in range(n_grid + 1):
        t = j / n_grid
        masses = {}
        for c, w in resampled:
            i = bisect_left(c.times, t)
            if i == len(c.times) or (i > 0 and t - c.times[i - 1] <= c.times[i] - t):
                i -= 1
            masses[c.vertices[i]] = masses.get(c.vertices[i], 0.0) + w
        out.append(masses)
    return out


def test_grid_pushforwards_match_curve_by_curve_reference():
    rng = random.Random(83)
    spaces = [path_space(5, length) for length in (1.0, 3.0, 0.1)]
    spaces += [grid_space(3, 3)] + [random_connected_space(rng, rng.randint(3, 7)) for _ in range(4)]
    for s in spaces:
        plans = [Plan(())]
        for _ in range(4):
            support = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.2:
                    c = make_curve(s, [rng.choice(s.vertices)])
                else:
                    c = random_edge_walk(rng, s, 5)
                    if rng.random() < 0.4:
                        cuts = sorted(rng.sample(range(1, 97), len(c.vertices) - 2))
                        c = c.with_times([0.0] + [k / 97 for k in cuts] + [1.0])
                support.append((c, rng.uniform(0.1, 2.0)))
            plans.append(Plan(tuple(support)))
        for plan in plans:
            for n_grid in (1, 2, 7, 64):
                ref = reference_grid_masses(s, plan, n_grid)
                best = 0.0
                for masses in ref:
                    for v, mass in masses.items():
                        best = max(best, mass / s.measure[v])
                assert compression(s, plan, n_grid) == best
                assert is_test_plan(s, plan, 2.0, n_grid)[1] == best
                for lam in (0, 1):
                    acc = {v: 0.0 for v in s.vertices}
                    for j, masses in enumerate(ref):
                        wt = (0.5 if j in (0, n_grid) else 1.0) / n_grid
                        for v, mass in masses.items():
                            acc[v] += wt * mass
                    if lam == 1:
                        for c, w in plan.support:
                            acc[c.start] += w
                            acc[c.end] += w
                    want = {v: acc[v] / s.measure[v] for v in s.vertices}
                    assert parametric_barycenter(s, plan, lam, n_grid).values == want


def test_parametric_barycenter_mass(path3):
    plan = Plan(
        (
            (make_curve(path3, ["0", "1", "2"]), 0.75),
            (make_curve(path3, ["2", "1"]), 0.25),
        )
    )
    for lam in (0, 1):
        p_bar = parametric_barycenter(path3, plan, lam, n_grid=128)
        total = sum(p_bar.values[v] * path3.measure[v] for v in path3.vertices)
        assert total == pytest.approx(plan.mass * (1 + 2 * lam), rel=1e-12)


def test_plan_json_round_trip(path3):
    plan = Plan(
        (
            (make_curve(path3, ["0", "1", "2"]), 0.5),
            (make_curve(path3, ["2", "1"]), 0.5),
        )
    )
    plan2 = plan_from_json(path3, plan_to_json(plan))
    assert plan2 == plan
