import math
import random

import pytest
from hypothesis import given, settings

from helpers import random_connected_space, random_edge_walk, random_function, retimed
from strategies import spaces_with_walk
from modcalc import (
    CurveError,
    MetricMeasureSpace,
    cs_reparam,
    ibp_identity,
    length,
    make_curve,
    path_integral,
    path_space,
    q_energy,
    restrict,
    stieltjes,
    variation_measures,
)
from modcalc.curve import curve_from_json, curve_to_json


@pytest.fixture
def path3():
    return path_space(3)


def test_length_examples(path3):
    assert length(path3, make_curve(path3, ["1"])) == 0.0
    assert length(path3, make_curve(path3, ["0", "1", "2"])) == 2.0
    assert length(path3, make_curve(path3, ["0", "1", "0", "1"])) == 3.0


def test_validation(path3):
    align = "times and vertices must align and be nonempty"
    with pytest.raises(CurveError, match=align):
        make_curve(path3, [])
    with pytest.raises(CurveError, match=align):
        make_curve(path3, ["0", "1"], [0.0])
    with pytest.raises(CurveError, match="unknown vertex 'zz'"):
        make_curve(path3, ["0", "zz"])
    for bad in (math.inf, math.nan):
        with pytest.raises(CurveError, match="breakpoint times must be finite"):
            make_curve(path3, ["0", "1"], [0.0, bad])
    with pytest.raises(CurveError, match="breakpoint times must be strictly increasing"):
        make_curve(path3, ["0", "1"], [0.0, 0.0])
    with pytest.raises(CurveError, match="zero-length hop at '0'"):
        make_curve(path3, ["0", "0"])
    disconnected = MetricMeasureSpace(
        ["a", "b"], [], {"a": 1.0, "b": 1.0}
    )
    with pytest.raises(CurveError, match="hop 'a'->'b' crosses components"):
        make_curve(disconnected, ["a", "b"])


def test_cs_reparam_examples():
    s = MetricMeasureSpace(
        ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 3.0)], {"a": 1, "b": 1, "c": 1}
    )
    c = cs_reparam(s, make_curve(s, ["a", "b", "c"], [0.0, 1.0, 2.0]))
    assert c.times == (0.0, 0.25, 1.0)

    const = make_curve(s, ["a"])
    assert cs_reparam(s, const).vertices == ("a",)
    assert q_energy(s, cs_reparam(s, const), 2.0) == 0.0

    p = path_space(3)
    c2 = cs_reparam(p, make_curve(p, ["0", "1", "2"], [0.0, 0.3, 0.5]))
    assert c2.times == (0.0, 0.5, 1.0)
    speeds = [
        p.distance(u, v) / (b - a)
        for u, v, a, b in zip(c2.vertices, c2.vertices[1:], c2.times, c2.times[1:])
    ]
    assert speeds == pytest.approx([2.0, 2.0])


def test_cs_reparam_idempotent_and_constant_speed():
    rng = random.Random(2)
    for _ in range(40):
        s = random_connected_space(rng, rng.randint(3, 9))
        c = retimed(rng, random_edge_walk(rng, s, 5))
        cs = cs_reparam(s, c)
        assert cs_reparam(s, cs).times == cs.times
        ell = length(s, c)
        for u, v, a, b in zip(cs.vertices, cs.vertices[1:], cs.times, cs.times[1:]):
            assert abs(s.distance(u, v) / (b - a) - ell) <= 1e-12 * max(1.0, ell)


def test_path_integral_examples(path3):
    walk = make_curve(path3, ["0", "1", "2"])
    assert path_integral(path3, walk, {"0": 1.0, "1": 1.0, "2": 1.0}) == 2.0
    assert path_integral(path3, walk, {"0": 0.0, "1": 2.0, "2": 0.0}) == 2.0
    assert math.isinf(
        path_integral(path3, walk, {"0": 0.0, "1": math.inf, "2": 0.0})
    )
    const = make_curve(path3, ["1"])
    assert path_integral(path3, const, {"0": 0.0, "1": math.inf, "2": 0.0}) == 0.0
    with pytest.raises(CurveError):
        path_integral(path3, walk, {"0": -1.0, "1": 0.0, "2": 0.0})


def test_path_integral_reparam_invariance():
    rng = random.Random(9)
    for _ in range(50):
        s = random_connected_space(rng, rng.randint(3, 8))
        c = random_edge_walk(rng, s, 6)
        rho = {v: rng.uniform(0.0, 3.0) for v in s.vertices}
        base = path_integral(s, c, rho)
        again = path_integral(s, retimed(rng, c), rho)
        assert again == base
        assert length(s, retimed(rng, c)) == length(s, c)


def test_variation_measures_examples(path3):
    walk = make_curve(path3, ["0", "1", "2"])
    f_id = {"0": 0.0, "1": 1.0, "2": 2.0}
    s_atoms, mu, s_f = variation_measures(path3, walk, f_id)
    assert s_atoms.atoms == (0.5, 1.0, 0.5)
    assert mu.total() == pytest.approx(2.0)
    f_const = {v: 3.0 for v in path3.vertices}
    _, mu_c, s_c = variation_measures(path3, walk, f_const)
    assert mu_c.total() == 0.0 and s_c.total() == 0.0
    bump = {"0": 0.0, "1": 1.0, "2": 0.0}
    _, mu_b, s_b = variation_measures(path3, walk, bump)
    assert mu_b.total() == pytest.approx(0.0)
    assert s_b.total() == pytest.approx(2.0)


def test_signed_below_total_atomwise():
    rng = random.Random(21)
    for _ in range(60):
        s = random_connected_space(rng, rng.randint(3, 8))
        c = random_edge_walk(rng, s, 6)
        f = random_function(rng, s)
        _, mu, s_f = variation_measures(s, c, f)
        for a, b in zip(mu.atoms, s_f.atoms):
            assert abs(a) <= b + 1e-15


def test_variation_totals_reparam_invariant():
    rng = random.Random(31)
    s = random_connected_space(rng, 7)
    c = random_edge_walk(rng, s, 6)
    f = random_function(rng, s)
    ref = [m.total() for m in variation_measures(s, c, f)]
    got = [m.total() for m in variation_measures(s, retimed(rng, c), f)]
    assert got == ref


def test_stieltjes_examples(path3):
    walk = make_curve(path3, ["0", "1", "2"])
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    ones = {v: 1.0 for v in path3.vertices}
    assert stieltjes(walk, ones, f, "left") == pytest.approx(2.0)
    assert stieltjes(walk, ones, f, "right") == pytest.approx(2.0)
    assert stieltjes(walk, f, {v: 5.0 for v in path3.vertices}, "left") == 0.0
    a = {"0": 1.0, "1": 2.0, "2": 3.0}
    assert stieltjes(walk, a, f, "left") == pytest.approx(3.0)
    with pytest.raises(CurveError):
        stieltjes(walk, a, f, "midpoint")


def test_ibp_examples(path3):
    walk = make_curve(path3, ["0", "1", "2"])
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    t12, t21, boundary = ibp_identity(walk, f, f)
    assert (t12, t21, boundary) == (1.0, 3.0, 4.0)
    ones = {v: 1.0 for v in path3.vertices}
    t12, t21, boundary = ibp_identity(walk, ones, f)
    assert t21 == 0.0
    assert t12 == pytest.approx(boundary)


@settings(max_examples=60, deadline=None)
@given(data=spaces_with_walk())
def test_abel_identity_property(data):
    space, curve = data
    rng = random.Random(sum(ord(ch) for v in curve.vertices for ch in v))
    f1 = random_function(rng, space)
    f2 = random_function(rng, space)
    t12, t21, boundary = ibp_identity(curve, f1, f2)
    assert abs(boundary - (t12 + t21)) <= 1e-12 * max(1.0, abs(boundary))


@settings(max_examples=60, deadline=None)
@given(data=spaces_with_walk())
def test_chain_rule_atom_bound_on_edge_walks(data):
    # s_{f o curve} <= slope(f) * s_curve atom by atom, for edge walks
    from modcalc import asymptotic_slope

    space, curve = data
    rng = random.Random(sum(ord(ch) for v in curve.vertices for ch in v))
    f = random_function(rng, space)
    slope = asymptotic_slope(space, f)
    s_atoms, _, sf_atoms = variation_measures(space, curve, f)
    for v, sa, sf in zip(curve.vertices, s_atoms.atoms, sf_atoms.atoms):
        assert sf <= slope[v] * sa + 1e-12


def test_product_rule_total():
    # total of the signed variation of f1*f2 equals the mixed sums
    rng = random.Random(17)
    for _ in range(40):
        s = random_connected_space(rng, rng.randint(3, 8))
        c = random_edge_walk(rng, s, 6)
        f1, f2 = random_function(rng, s), random_function(rng, s)
        prod = {v: f1[v] * f2[v] for v in s.vertices}
        _, mu_prod, _ = variation_measures(s, c, prod)
        t12, t21, boundary = ibp_identity(c, f1, f2)
        assert mu_prod.total() == pytest.approx(boundary, abs=1e-12)
        assert mu_prod.total() == pytest.approx(t12 + t21, abs=1e-12)


def test_restrict(path3):
    c = make_curve(path3, ["0", "1", "2"], [0.0, 0.5, 1.0])
    full = restrict(path3, c, 0.0, 1.0)
    assert full.times == c.times and full.vertices == c.vertices
    tail = restrict(path3, c, 0.5, 1.0)
    assert tail.vertices == ("1", "2")
    assert tail.times == (0.0, 1.0)
    with pytest.raises(CurveError):
        restrict(path3, c, 0.25, 1.0)
    with pytest.raises(CurveError):
        restrict(path3, c, 1.0, 0.5)

    walk = make_curve(path3, ["0", "1", "2", "1"], [0.0, 0.25, 0.5, 1.0])
    mid = restrict(path3, walk, 0.25, 0.5)
    assert mid.vertices == ("1", "2")
    left = restrict(path3, walk, 0.0, 0.5)
    right = restrict(path3, walk, 0.5, 1.0)
    assert length(path3, left) + length(path3, right) == pytest.approx(
        length(path3, walk)
    )


def test_q_energy(path3):
    c = make_curve(path3, ["0", "1", "2"])  # constant speed, length 2
    assert q_energy(path3, c, 2.0) == pytest.approx(4.0)
    assert q_energy(path3, c, math.inf) == pytest.approx(2.0)
    assert q_energy(path3, make_curve(path3, ["0"]), 2.0) == 0.0
    s = MetricMeasureSpace(
        ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 3.0)], {"a": 1, "b": 1, "c": 1}
    )
    c2 = make_curve(s, ["a", "b", "c"], [0.0, 0.25, 1.0])
    assert q_energy(s, c2, 2.0) == pytest.approx(16.0)
    with pytest.raises(CurveError):
        q_energy(path3, c, 0.5)
    with pytest.raises(CurveError):
        q_energy(path3, make_curve(path3, ["0", "1"], [0.0, 2.0]), 2.0)


def test_curve_json_round_trip(path3):
    c = make_curve(path3, ["0", "1", "2"], [0.0, 0.3, 1.0])
    c2 = curve_from_json(path3, curve_to_json(c))
    assert c2 == c
    c3 = curve_from_json(path3, {"vertices": ["0", "1", "2"]})
    assert c3.times == (0.0, 0.5, 1.0)
