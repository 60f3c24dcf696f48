import math
import random

import pytest

from helpers import (
    mixed_curves,
    oracle_path_relax,
    random_connected_space,
    random_disconnected_space,
    random_edge_walk,
    random_function,
    reference_asymptotic_slope,
    reference_lipschitz_constant,
    reference_mcshane,
)
from modcalc import (
    CurveError,
    SpaceError,
    asymptotic_slope,
    connecting_family,
    explicit_family,
    hop_slope_density,
    is_upper_gradient,
    lipschitz_constant,
    make_curve,
    mcshane_extend,
    path_integral,
    path_relax,
    path_space,
)
from modcalc.space import MetricMeasureSpace


@pytest.fixture
def path3():
    return path_space(3)


def test_asymptotic_slope_examples(path3):
    const = {v: 2.0 for v in path3.vertices}
    assert asymptotic_slope(path3, const) == {"0": 0.0, "1": 0.0, "2": 0.0}
    ramp = {"0": 0.0, "1": 1.0, "2": 2.0}
    assert asymptotic_slope(path3, ramp) == {"0": 1.0, "1": 1.0, "2": 1.0}
    bump = {"0": 0.0, "1": 1.0, "2": 0.0}
    assert asymptotic_slope(path3, bump) == {"0": 1.0, "1": 1.0, "2": 1.0}


def test_slope_of_lipschitz_function_bounded():
    rng = random.Random(5)
    for _ in range(20):
        s = random_connected_space(rng, rng.randint(3, 10))
        data = {v: rng.uniform(-1, 1) for v in rng.sample(s.vertices, 2)}
        L = lipschitz_constant(s, data, data.keys()) + rng.uniform(0.1, 1.0)
        f = mcshane_extend(s, data, L)
        slope = asymptotic_slope(s, f)
        for v in s.vertices:
            assert slope[v] <= L + 1e-12


def test_lipschitz_constant_examples(path3):
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    assert lipschitz_constant(path3, f, ["1"]) == 0.0
    assert lipschitz_constant(path3, f, path3.vertices) == 1.0
    assert lipschitz_constant(path3, {"0": 0.0, "2": 3.0, "1": 0.0}, ["0", "2"]) == 1.5
    with pytest.raises(SpaceError):
        lipschitz_constant(path3, f, [])


def test_mcshane_examples(path3):
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    assert mcshane_extend(path3, f, 1.0) == f
    ext = mcshane_extend(path3, {"0": 0.0}, 1.0)
    assert ext == {"0": 0.0, "1": 1.0, "2": 2.0}
    ext2 = mcshane_extend(path3, {"0": 0.0, "2": 0.0}, 1.0)
    assert ext2 == {"0": 0.0, "1": 1.0, "2": 0.0}
    with pytest.raises(ValueError):
        mcshane_extend(path3, {"0": 0.0, "2": 3.0}, 1.0)
    with pytest.raises(ValueError):
        mcshane_extend(path3, {"0": 0.0}, math.nan)


def test_slopes_and_extension_match_loops():
    rng = random.Random(41)
    for make in (random_connected_space, random_disconnected_space) * 10:
        s = make(rng, rng.randint(2, 12), extra_edges=3, len_range=(0.3, 3.0))
        f = random_function(rng, s)
        slope = asymptotic_slope(s, f)
        assert slope == reference_asymptotic_slope(s, f)
        one_edge = [make_curve(s, (u, v)) for u, v, _ in s.edges]
        assert slope == hop_slope_density(s, f, one_edge)

        subset = rng.sample(s.vertices, rng.randint(1, len(s)))
        assert lipschitz_constant(s, f, subset) == reference_lipschitz_constant(s, f, subset)

        data = {v: f[v] for v in subset}
        L = lipschitz_constant(s, data, subset)
        for bound in (L, L + rng.uniform(0.1, 2.0)):
            assert mcshane_extend(s, data, bound) == reference_mcshane(s, data, bound)
        flat = dict.fromkeys(subset, 0.5)
        assert mcshane_extend(s, flat, 0.0) == reference_mcshane(s, flat, 0.0)


def test_mcshane_across_components():
    # a-b  c-d: a term at infinite distance is +inf, also at bound 0,
    # so the extension agrees with the data on every anchor
    s = MetricMeasureSpace(
        "abcd", [("a", "b", 1.0), ("c", "d", 2.0)], dict.fromkeys("abcd", 1.0)
    )
    assert mcshane_extend(s, {"a": 0.0, "c": 0.0}, 0.0) == dict.fromkeys("abcd", 0.0)
    assert mcshane_extend(s, {"a": 0.0, "c": 0.0}, 1.0) == {
        "a": 0.0, "b": 1.0, "c": 0.0, "d": 2.0
    }
    assert mcshane_extend(s, {"a": 0.0}, 0.0) == {
        "a": 0.0, "b": 0.0, "c": math.inf, "d": math.inf
    }
    assert mcshane_extend(s, {"a": 0.0}, 1.0) == {
        "a": 0.0, "b": 1.0, "c": math.inf, "d": math.inf
    }


def test_mcshane_monotone_and_nonexpansive():
    rng = random.Random(13)
    for _ in range(20):
        s = random_connected_space(rng, rng.randint(3, 9))
        K = rng.sample(s.vertices, rng.randint(1, len(s)))
        fa = {v: rng.uniform(-1, 1) for v in K}
        eps = rng.uniform(0.0, 0.5)
        fb = {v: fa[v] + eps * rng.random() for v in K}
        L = max(
            lipschitz_constant(s, fa, K), lipschitz_constant(s, fb, K)
        ) + 1.0
        ea, eb = mcshane_extend(s, fa, L), mcshane_extend(s, fb, L)
        sup = max(abs(fa[v] - fb[v]) for v in K)
        for v in s.vertices:
            assert eb[v] >= ea[v] - 1e-12  # monotone
            assert abs(ea[v] - eb[v]) <= sup + 1e-12  # sup-norm nonexpansive
        assert lipschitz_constant(s, ea, s.vertices) <= L + 1e-9


def test_is_upper_gradient_examples(path3):
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    one_hop = connecting_family(path3, path3.vertices, path3.vertices, 1)
    ok, worst = is_upper_gradient(path3, f, asymptotic_slope(path3, f), one_hop)
    assert ok and worst is None

    zero = {v: 0.0 for v in path3.vertices}
    fam = explicit_family([make_curve(path3, ["0", "1", "2"])])
    ok, worst = is_upper_gradient(path3, f, zero, fam)
    assert not ok and worst is not None and worst.vertices == ("0", "1", "2")

    rho = {"0": 2 / 3, "1": 4 / 3, "2": 2 / 3}
    sub = connecting_family(path3, path3.vertices, path3.vertices, 2, simple_only=True)
    ok, _ = is_upper_gradient(path3, f, rho, sub)
    assert ok


def test_is_upper_gradient_matches_path_integral_loop():
    # same verdict and same worst curve (the first of the largest
    # violations) as a loop over path_integral; a NaN row is never worst
    rng = random.Random(331)
    for _ in range(15):
        s = random_connected_space(rng, rng.randint(3, 8), extra_edges=2)
        curves = mixed_curves(rng, s, rng.randint(1, 8))
        f = random_function(rng, s)
        rho = {v: rng.uniform(0.0, 1.0) for v in s.vertices}
        rho[rng.choice(s.vertices)] = rng.choice((math.inf, math.nan))
        worst, worst_violation = None, 1e-12
        for c in curves:
            violation = abs(f[c.end] - f[c.start]) - path_integral(s, c, rho)
            if violation > worst_violation:
                worst, worst_violation = c, violation
        assert is_upper_gradient(s, f, rho, iter(curves)) == (worst is None, worst)

        walk = next(c for c in curves if not c.is_constant)
        with pytest.raises(CurveError):
            is_upper_gradient(s, f, dict(rho, **{walk.start: -0.5}), curves)


def test_path_relax_examples(path3):
    ones = {v: 1.0 for v in path3.vertices}
    zeros = {v: 0.0 for v in path3.vertices}

    f = {"0": 3.0, "1": 7.0, "2": 5.0}
    out = path_relax(path3, f, zeros, path3.vertices, 2.0, 10.0)
    assert out == {v: 3.0 for v in path3.vertices}

    out2 = path_relax(path3, {"0": 0.0, "1": 99.0, "2": 99.0}, ones, ["0"], 1.0, 10.0)
    assert out2 == {"0": 0.0, "1": 1.0, "2": 2.0}

    # capped variant
    out3 = path_relax(path3, {"0": 0.0, "1": 99.0, "2": 99.0}, ones, ["0"], 1.0, 1.5)
    assert out3 == {"0": 0.0, "1": 1.0, "2": 1.5}

    with pytest.raises(SpaceError):
        path_relax(path3, f, ones, [], 1.0, 1.0)
    with pytest.raises(ValueError):
        path_relax(path3, f, ones, ["0"], 0.0, 1.0)
    with pytest.raises(ValueError):
        path_relax(path3, {"0": -1.0, "1": 0.0, "2": 0.0}, ones, ["0"], 1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        path_relax(path3, {"0": math.nan, "1": 0.0, "2": 0.0}, ones, ["0"], 1.0, 1.0)


def test_path_relax_fixed_point_with_full_slope():
    rng = random.Random(23)
    for _ in range(15):
        s = random_connected_space(rng, rng.randint(3, 9))
        f = {v: rng.uniform(0.0, 3.0) for v in s.vertices}
        # pointwise-largest difference quotient dominates every pair hop
        g = {
            v: max(
                (
                    abs(f[u] - f[v]) / s.distance(u, v)
                    for u in s.vertices
                    if u != v and math.isfinite(s.distance(u, v))
                ),
                default=0.0,
            )
            for v in s.vertices
        }
        delta = s.diameter() + 1.0
        cap = max(f.values()) or 1.0
        out = path_relax(s, f, g, s.vertices, delta, cap)
        for v in s.vertices:
            assert abs(out[v] - min(f[v], cap)) <= 1e-12


def test_path_relax_against_networkx_oracle():
    rng = random.Random(29)
    for make in (random_connected_space, random_disconnected_space) * 15:
        s = make(rng, rng.randint(3, 10))
        f = {v: rng.uniform(0.0, 4.0) for v in s.vertices}
        g = {v: rng.choice((0.0, rng.uniform(0.0, 2.0))) for v in s.vertices}
        if rng.random() < 0.3:
            g = dict.fromkeys(s.vertices, 0.0)
        C = rng.sample(s.vertices, rng.randint(1, len(s)))
        delta = rng.uniform(0.5, s.diameter() + 0.5)
        cap = rng.uniform(0.5, 6.0)
        mine = path_relax(s, f, g, C, delta, cap)
        ref = oracle_path_relax(s, f, g, C, delta, cap)
        for v in s.vertices:
            assert mine[v] == pytest.approx(ref[v], abs=1e-9)
