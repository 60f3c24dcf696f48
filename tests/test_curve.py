import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings

from helpers import (
    random_connected_space,
    random_disconnected_space,
    random_edge_walk,
    random_function,
    retimed,
)
from strategies import spaces_with_walk
from modcalc import (
    CurveError,
    DiscreteCurve,
    MetricMeasureSpace,
    connecting_family,
    cs_reparam,
    endpoints_in,
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
from modcalc.families import family_from_json
from modcalc.plans import plan_from_json


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
    # every hop is checked, also after an infinite value
    for bad in (math.nan, -1.0):
        with pytest.raises(CurveError, match="nonnegative"):
            path_integral(path3, walk, {"0": math.inf, "1": 0.0, "2": bad})
    # the message names the vertex, also on a constant curve
    for curve in (walk, const):
        with pytest.raises(CurveError, match="NaN at '1'"):
            path_integral(path3, curve, {"0": 1.0, "1": math.nan, "2": 1.0})


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


def test_variation_measures_reject_a_non_finite_f_on_the_curve(path3):
    # a NaN used to pass through to NaN atoms; off the curve f may be anything
    walk = make_curve(path3, ["0", "1"])
    with pytest.raises(ValueError, match="f must be finite, got nan at '1'"):
        variation_measures(path3, walk, {"0": 0.0, "1": math.nan, "2": 1.0})
    with pytest.raises(ValueError, match="f must be finite, got inf at '0'"):
        variation_measures(path3, walk, {"0": math.inf, "1": 0.0})
    assert variation_measures(path3, walk, {"0": 0.0, "1": 1.0, "2": math.nan})[2].atoms == (0.5, 0.5)


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


def test_stieltjes_and_ibp_check_the_curve(path3):
    # they take no space; a missing vertex used to raise a bare KeyError and
    # a zero-length hop to pass
    ones = {v: 1.0 for v in (*path3.vertices, "zz")}
    calls = [
        (lambda c, g: stieltjes(c, g, ones), "a"),
        (lambda c, g: stieltjes(c, ones, g, "right"), "f"),
        (lambda c, g: ibp_identity(c, g, ones), "f1"),
        (lambda c, g: ibp_identity(c, ones, g), "f2"),
    ]
    for call, name in calls:
        with pytest.raises(CurveError, match="zero-length hop at '0'"):
            call(DiscreteCurve((0.0, 1.0), ("0", "0")), ones)
        with pytest.raises(CurveError, match=f"^{name} has no value at vertex 'zz'"):
            call(DiscreteCurve((0.0, 1.0), ("0", "zz")), {"0": 1.0})
        with pytest.raises(CurveError, match=f"^{name} has no value at vertex '2'"):
            call(make_curve(path3, ["1", "2"]), {"0": 1.0, "1": 2.0})


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
    with pytest.raises(CurveError, match="constant curve"):
        restrict(path3, make_curve(path3, ["1"]), 0.0, 0.0)

    walk = make_curve(path3, ["0", "1", "2", "1"], [0.0, 0.25, 0.5, 1.0])
    mid = restrict(path3, walk, 0.25, 0.5)
    assert mid.vertices == ("1", "2")
    left = restrict(path3, walk, 0.0, 0.5)
    right = restrict(path3, walk, 0.5, 1.0)
    assert length(path3, left) + length(path3, right) == pytest.approx(
        length(path3, walk)
    )


def test_restrict_rejects_rescaled_times_that_tie(path3):
    # 5e-324 / 1e10 rounds to 0.0; restrict used to return times (0.0, 0.0, 1.0)
    c = make_curve(path3, ["0", "1", "2"], [0.0, 5e-324, 1e10])
    with pytest.raises(CurveError, match="strictly increasing"):
        restrict(path3, c, 0.0, 1e10)


def test_curve_quantities_check_the_hops_of_a_direct_curve():
    # a curve built directly has not been through make_curve; length used to
    # add an inf or a 0 hop and path_integral to return inf or nan
    s = MetricMeasureSpace(["a", "b", "c"], [("a", "b", 1.0)], {v: 1.0 for v in "abc"})
    rho = {"a": 0.0, "b": 1.0, "c": math.inf}
    calls = [
        lambda c: length(s, c),
        lambda c: path_integral(s, c, rho),
        lambda c: variation_measures(s, c, rho),
        lambda c: q_energy(s, c, 2.0),
    ]
    cases = [
        (DiscreteCurve((0.0, 1.0), ("a", "c")), "hop 'a'->'c' crosses components"),
        (DiscreteCurve((0.0, 0.5, 1.0), ("c", "c", "a")), "zero-length hop at 'c'"),
        (DiscreteCurve((0.0, 1.0), ("a", "zz")), "unknown vertex 'zz'"),
    ]
    for curve, message in cases:
        for call in calls:
            with pytest.raises(CurveError, match=message):
                call(curve)


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
    for bad in (0.5, -1.0, math.nan):
        with pytest.raises(CurveError, match="q must be at least 1"):
            q_energy(path3, c, bad)
    with pytest.raises(CurveError):
        q_energy(path3, make_curve(path3, ["0", "1"], [0.0, 2.0]), 2.0)


def test_with_times_rejects_non_finite_times(path3):
    c = make_curve(path3, ["0", "1", "2"])
    assert c.with_times([0.0, 0.25, 1.0]).times == (0.0, 0.25, 1.0)
    for bad in ([0.0, math.nan, 1.0], [0.0, 0.5, math.inf], [-math.inf, 0.5, 1.0]):
        with pytest.raises(CurveError, match="breakpoint times must be finite"):
            c.with_times(bad)
    with pytest.raises(CurveError, match="number of breakpoints"):
        c.with_times([0.0, 1.0])
    for bad in ([0.0, 0.5, 0.5], [0.0, 0.75, 0.5]):
        with pytest.raises(CurveError, match="strictly increasing"):
            c.with_times(bad)


def test_curve_json_round_trip(path3):
    c = make_curve(path3, ["0", "1", "2"], [0.0, 0.3, 1.0])
    c2 = curve_from_json(path3, curve_to_json(c))
    assert c2 == c
    c3 = curve_from_json(path3, {"vertices": ["0", "1", "2"]})
    assert c3.times == (0.0, 0.5, 1.0)


def reference_curve(space, vertices, times=None):
    """The curve rule one curve at a time: the checks in order, then, with
    omitted times, constant speed from the running hop lengths."""
    vs = tuple(str(v) for v in vertices)
    ts = tuple(float(t) for t in (range(len(vs)) if times is None else times))
    if len(ts) != len(vs) or not vs:
        raise CurveError("times and vertices must align and be nonempty")
    for v in vs:
        if v not in space:
            raise CurveError(f"unknown vertex {v!r}")
    for t in ts:
        if not math.isfinite(t):
            raise CurveError("breakpoint times must be finite")
    for a, b in zip(ts, ts[1:]):
        if not b > a:
            raise CurveError("breakpoint times must be strictly increasing")
    hops = []
    for u, v in zip(vs, vs[1:]):
        if u == v:
            raise CurveError(f"zero-length hop at {u!r}")
        hops.append(space.distance(u, v))
        if not math.isfinite(hops[-1]):
            raise CurveError(f"hop {u!r}->{v!r} crosses components")
    if times is not None:
        return DiscreteCurve(ts, vs)
    if len(vs) == 1:
        return DiscreteCurve((0.0,), vs)
    # running sums in hop order; the last is the length, as Python's sum
    # adds it before 3.12
    acc = list(accumulate(hops))
    ts = (0.0,) + tuple(a / acc[-1] for a in acc[:-1]) + (1.0,)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise CurveError("hop lengths too disparate for a float time grid")
    return DiscreteCurve(ts, vs)


def outcome(build, *args):
    try:
        return build(*args)
    except CurveError as exc:
        return str(exc)


def log_scaled(rng, space):
    """``space`` with every edge length drawn log-uniformly from [1e-3, 1e3]."""
    edges = [(u, v, 10 ** rng.uniform(-3, 3)) for u, v, _ in space.edges]
    return MetricMeasureSpace(space.vertices, edges, space.measure)


def test_curves_match_per_curve_reference():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 7)
        base = random_disconnected_space(rng, n) if rng.random() < 0.3 else random_connected_space(rng, n)
        s = log_scaled(rng, base)
        seqs = [[rng.choice(s.vertices) for _ in range(rng.randint(1, 6))] for _ in range(15)]
        seqs += [random_edge_walk(rng, s, 6).vertices for _ in range(15)]
        for seq in seqs:
            times = None if rng.random() < 0.5 else sorted(rng.uniform(0, 3) for _ in seq)
            want = outcome(reference_curve, s, seq, times)
            assert outcome(make_curve, s, seq, times) == want
            obj = {"vertices": list(seq)} if times is None else {"vertices": list(seq), "times": times}
            assert outcome(curve_from_json, s, obj) == want
            if isinstance(want, DiscreteCurve):
                assert cs_reparam(s, want) == reference_curve(s, want.vertices)
        for fam in (connecting_family(s, s.vertices[:2], s.vertices, 3), endpoints_in(s, s.vertices[:3], 3)):
            assert list(fam) == [reference_curve(s, c.vertices) for c in fam]


def test_json_curves_with_and_without_times_match_reference():
    rng = random.Random(43)
    s = log_scaled(rng, random_connected_space(rng, 9, extra_edges=4))
    objs, want = [], []
    for c in connecting_family(s, s.vertices, s.vertices, 3):
        obj = {"vertices": list(c.vertices)}
        if rng.random() < 0.5:
            cuts = sorted(rng.sample(range(1, 97), len(c.vertices) - 2))
            obj["times"] = [0.0] + [k / 97 for k in cuts] + [1.0]
        objs.append(obj)
        want.append(reference_curve(s, obj["vertices"], obj.get("times")))
    assert list(family_from_json(s, {"type": "explicit", "curves": objs})) == want
    plan = plan_from_json(s, {"support": [{"curve": o, "w": 0.5} for o in objs]})
    assert [c for c, _ in plan.support] == want


# one defect each, in the order the checks run; "c" lies 1e-17 past "b", so
# the constant-speed times of a-b-c collapse, and "x" is unreachable
DISPARATE = MetricMeasureSpace(
    ["a", "b", "c", "x"], [("a", "b", 1.0), ("b", "c", 1e-17)], {v: 1.0 for v in "abcx"}
)
DEFECTS = [
    ([], None),
    (["a", "b"], [0.0]),
    (["a", "zz"], None),
    (["a", "b"], [0.0, math.inf]),
    (["a", "b"], [0.0, math.nan]),
    (["a", "b", "a"], [0.0, 0.5, 0.5]),
    (["a", "b", "b"], None),
    (["a", "x"], None),
    (["a", "b", "c"], None),
]


@pytest.mark.parametrize("seq, times", DEFECTS)
def test_single_defect_errors_match_reference(seq, times):
    s = DISPARATE
    with pytest.raises(CurveError) as ref:
        reference_curve(s, seq, times)
    obj = {"vertices": seq} if times is None else {"vertices": seq, "times": times}
    good = {"vertices": ["c", "b", "a"]}
    builds = [
        lambda: make_curve(s, seq, times),
        lambda: curve_from_json(s, obj),
        lambda: family_from_json(s, {"type": "explicit", "curves": [good, obj, good]}),
    ]
    for build in builds:
        with pytest.raises(CurveError) as got:
            build()
        assert str(got.value) == str(ref.value)


def test_given_times_skip_the_constant_speed_check():
    s = DISPARATE
    objs = [{"vertices": ["a", "b", "c"], "times": [0.0, 0.5, 1.0]}, {"vertices": ["c", "b", "a"]}]
    want = [reference_curve(s, o["vertices"], o.get("times")) for o in objs]
    assert list(family_from_json(s, {"type": "explicit", "curves": objs})) == want
