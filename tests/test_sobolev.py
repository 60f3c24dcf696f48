import math
import random
import sys

import numpy as np
import pytest

from helpers import (
    harness_instances,
    mixed_curves,
    oracle_capacity,
    oracle_min_power,
    random_connected_space,
    random_disconnected_space,
    random_edge_walk,
    random_function,
    reference_hop_check,
    reference_hop_slopes,
    reference_slope_bounded,
)
from modcalc import (
    CurveError,
    DiscreteCurve,
    GradientResult,
    _solver,
    barycenter,
    capacity,
    connecting_family,
    cycle_space,
    equivalence_report,
    explicit_family,
    grid_space,
    h_gradient_sequence,
    hop_slope_density,
    is_upper_gradient,
    lp_norm,
    make_curve,
    n_gradient,
    optimal_plan,
    modulus,
    path_space,
    ug_calculus,
    w_certificate,
)
from modcalc.modulus import admissibility_matrix
from modcalc import sobolev
from modcalc.plans import point_mass
from modcalc.sobolev import _harness_family
from modcalc.space import MetricMeasureSpace, SpaceError


@pytest.fixture
def path3():
    return path_space(3)


@pytest.fixture
def subpaths3(path3):
    return connecting_family(path3, path3.vertices, path3.vertices, 2, simple_only=True)


RAMP = {"0": 0.0, "1": 1.0, "2": 2.0}


def test_n_gradient_constant(path3, subpaths3):
    # no increment to dominate: the solve of no rows gives the zero result
    const = {v: 5.0 for v in path3.vertices}
    zeros = {v: 0.0 for v in path3.vertices}
    for f, fam in [(const, subpaths3), (RAMP, explicit_family([]))]:
        res = n_gradient(path3, f, fam, 2.0)
        assert res == GradientResult(zeros, 0.0, 0.0, fam.label, 0.0, "N", 2.0, 0, True, {})


def test_n_gradient_benchmark(path3, subpaths3):
    res = n_gradient(path3, RAMP, subpaths3, 2.0, 1e-8)
    assert res.rho["0"] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert res.rho["1"] == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert res.rho["2"] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert res.value == pytest.approx(8.0 / 3.0, rel=1e-6)
    ok, _ = is_upper_gradient(path3, RAMP, res.rho, subpaths3, tol=1e-9)
    assert ok


def test_n_gradient_p1_lp(path3):
    one_hop = connecting_family(path3, path3.vertices, path3.vertices, 1)
    res = n_gradient(path3, RAMP, one_hop, 1.0, 1e-6)
    assert res.value == pytest.approx(2.0, rel=1e-4)


def test_n_gradient_norm_where_the_value_underflows(path3):
    # rho is about 0.001, so sum rho^1000 m underflows to 0 while the norm
    # does not
    fam = connecting_family(path3, ["0"], ["2"], 2)
    res = n_gradient(path3, {"0": 0.0, "1": 0.001, "2": 0.002}, fam, 1000.0)
    assert res.value == 0.0
    assert res.p_norm == lp_norm(path3, res.rho, 1000.0)
    assert res.p_norm == pytest.approx(0.001, rel=1e-2)


def test_n_gradient_against_scipy():
    rng = random.Random(211)
    for _ in range(6):
        s = random_connected_space(rng, rng.randint(4, 9), extra_edges=2)
        f = random_function(rng, s)
        curves = [random_edge_walk(rng, s, 4) for _ in range(rng.randint(2, 7))]
        fam = explicit_family(curves)
        p = rng.choice((1.5, 2.0, 3.0))
        res = n_gradient(s, f, fam, p, 1e-8)
        A, cs = admissibility_matrix(s, fam, 0)
        rhs = np.array([abs(f[c.end] - f[c.start]) for c in cs])
        keep = rhs > 0
        if not keep.any():
            assert res.value == 0.0
            continue
        want, _ = oracle_min_power(A[keep], rhs[keep], s.measure_vector(), p)
        assert res.value == pytest.approx(want, rel=1e-4, abs=1e-10)


def test_n_gradient_scaling_exact(path3, subpaths3):
    base = n_gradient(path3, RAMP, subpaths3, 2.0, 1e-8)
    for lam in (-3.0, 0.5, 2.0):
        scaled = n_gradient(
            path3, {v: lam * RAMP[v] for v in path3.vertices}, subpaths3, 2.0, 1e-8
        )
        assert scaled.p_norm == pytest.approx(abs(lam) * base.p_norm, rel=1e-12)
        for v in path3.vertices:
            assert scaled.rho[v] == pytest.approx(abs(lam) * base.rho[v], rel=1e-12)


def test_n_gradient_triangle_inequality():
    rng = random.Random(223)
    for _ in range(8):
        s = random_connected_space(rng, rng.randint(4, 8))
        fam = connecting_family(s, s.vertices, s.vertices, 3)
        f, g = random_function(rng, s), random_function(rng, s)
        p = rng.choice((1.5, 2.0, 3.0))
        tol = 1e-7
        rf = n_gradient(s, f, fam, p, tol)
        rg = n_gradient(s, g, fam, p, tol)
        rfg = n_gradient(
            s, {v: f[v] + g[v] for v in s.vertices}, fam, p, tol
        )
        slack = 2 * tol * max(1.0, rf.p_norm + rg.p_norm)
        assert rfg.p_norm <= rf.p_norm + rg.p_norm + slack


def test_n_gradient_locality():
    # f = g on every vertex touched by a subfamily: the zero density extended
    # by the gradient of f - g off those vertices is feasible on the subfamily
    rng = random.Random(227)
    s = random_connected_space(rng, 8, extra_edges=2)
    f = random_function(rng, s)
    g = dict(f)
    far = s.vertices[-1]
    g[far] = f[far] + 1.0  # differ only at one vertex
    fam = connecting_family(s, s.vertices, s.vertices, 2)
    touched_ok = [c for c in fam if far not in c.vertices]
    diff = {v: f[v] - g[v] for v in s.vertices}
    zero = {v: 0.0 for v in s.vertices}
    ok, _ = is_upper_gradient(s, diff, zero, explicit_family(touched_ok))
    assert ok


def test_n_gradient_minimality_lattice_hop_level():
    # for hop-level feasible pairs the pointwise min stays feasible, so the
    # solver value is at or below the min's energy
    rng = random.Random(229)
    for _ in range(8):
        s = random_connected_space(rng, rng.randint(4, 8))
        f = random_function(rng, s)
        fam = connecting_family(s, s.vertices, s.vertices, 3)
        p = rng.choice((1.5, 2.0, 3.0))
        base = hop_slope_density(s, f, fam)
        rho1 = {v: base[v] + rng.uniform(0.0, 1.0) for v in s.vertices}
        rho2 = {v: base[v] + rng.uniform(0.0, 1.0) for v in s.vertices}
        mn = {v: min(rho1[v], rho2[v]) for v in s.vertices}
        ok, _ = is_upper_gradient(s, f, mn, fam)
        assert ok
        res = n_gradient(s, f, fam, p, 1e-7)
        energy_min = sum(mn[v] ** p * s.measure[v] for v in s.vertices)
        assert res.value <= energy_min + 1e-7 * max(1.0, energy_min)


def test_n_gradient_stability():
    # values move continuously with the data, with certified transfer bounds
    rng = random.Random(233)
    s = random_connected_space(rng, 7, extra_edges=1)
    fam = connecting_family(s, s.vertices, s.vertices, 2)
    f = random_function(rng, s)
    p = 2.0
    base = n_gradient(s, f, fam, p, 1e-8)
    for n in range(1, 6):
        pert = {v: f[v] + rng.uniform(-1.0, 1.0) * 2.0**-n for v in s.vertices}
        res = n_gradient(s, pert, fam, p, 1e-8)
        shift = max(abs(pert[v] - f[v]) for v in s.vertices)
        # transfer: rho feasible for f becomes feasible for pert after adding
        # the gradient of the (shift-bounded) difference
        diff = {v: pert[v] - f[v] for v in s.vertices}
        rdiff = n_gradient(s, diff, fam, p, 1e-8)
        assert res.p_norm <= base.p_norm + rdiff.p_norm + 1e-6
        assert base.p_norm <= res.p_norm + rdiff.p_norm + 1e-6
        if n == 5:
            assert abs(res.p_norm - base.p_norm) <= rdiff.p_norm + 1e-6


def test_ug_calculus_rules(path3, subpaths3):
    f = RAMP
    g = {"0": 1.0, "1": 0.0, "2": 1.0}
    rho_f = hop_slope_density(path3, f, subpaths3)
    rho_g = hop_slope_density(path3, g, subpaths3)
    report = ug_calculus(
        path3, f, g, rho_f, rho_g, lambda t: 2.0 * t, subpaths3
    )
    assert report["sum"]["ok"]
    assert report["chain"]["ok"] and report["chain"]["lip_phi"] == pytest.approx(2.0)
    assert report["leibniz"]["ok"]
    assert report["min"]["ok"]

    # identity chain reduces to the original check
    report_id = ug_calculus(path3, f, g, rho_f, rho_g, lambda t: t, subpaths3)
    assert report_id["chain"]["ok"] and report_id["chain"]["lip_phi"] == 1.0

    with pytest.raises(ValueError):
        zero = {v: 0.0 for v in path3.vertices}
        ug_calculus(path3, f, g, zero, rho_g, lambda t: t, subpaths3)


def test_ug_calculus_with_an_infinite_lipschitz_constant():
    # values of f a subnormal apart make Lip(phi) overflow to inf; the chain
    # density is then 0 where rho_f is 0 (0 * inf = 0), with no NaN and no
    # numpy warning
    s = path_space(4)
    fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
    f = {"0": 0.0, "1": 0.0, "2": 5e-324, "3": 1.0}
    rho = hop_slope_density(s, f, fam)
    assert rho["0"] == 0.0
    report = ug_calculus(s, f, f, rho, rho, lambda t: 0.0 if t == 0 else 1.0, fam)
    assert report["chain"]["ok"] and report["chain"]["lip_phi"] == math.inf


def test_non_finite_f_is_rejected():
    # a NaN increment used to drop its constraints: n_gradient returned
    # 3.636... with converged=True where the finite values give 4.0
    s = path_space(4)
    fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
    assert n_gradient(s, {"0": 0.0, "1": 1.0, "2": 2.0, "3": 3.0}, fam, 2.0).value == (
        pytest.approx(4.0, rel=1e-5)
    )
    for bad in (float("nan"), float("inf")):
        f = {"0": 0.0, "1": bad, "2": 2.0, "3": 3.0}
        with pytest.raises(ValueError, match="finite"):
            n_gradient(s, f, fam, 2.0)
        with pytest.raises(ValueError, match="finite"):
            equivalence_report(s, f, 2.0)
    # min and max skip a NaN next to equal values: this f read as constant
    with pytest.raises(ValueError, match="finite"):
        equivalence_report(s, {"0": 0.0, "1": float("nan"), "2": 0.0, "3": 0.0}, 2.0)


def test_ug_calculus_rejects_nan(path3, subpaths3):
    # NaN inputs used to pass all four rules
    nan = {v: math.nan for v in path3.vertices}
    rho = hop_slope_density(path3, RAMP, subpaths3)
    with pytest.raises(CurveError, match="nonnegative"):
        ug_calculus(path3, RAMP, RAMP, nan, nan, abs, subpaths3)
    for bad in (math.nan, math.inf):
        f = dict(RAMP, **{"1": bad})
        with pytest.raises(ValueError, match="f must be finite"):
            ug_calculus(path3, f, RAMP, rho, rho, abs, subpaths3)
        with pytest.raises(ValueError, match="g must be finite"):
            ug_calculus(path3, RAMP, f, rho, rho, abs, subpaths3)
    # a NaN value of phi used to pass the chain rule
    for v in ("1", "2"):
        phi = lambda t, at=RAMP[v]: math.nan if t == at else t  # noqa: E731
        with pytest.raises(ValueError, match=f"phi\\(f\\) must be finite, got nan at '{v}'"):
            ug_calculus(path3, RAMP, RAMP, rho, rho, phi, subpaths3)
    # a zero factor times a +inf density is the zero density: a constant
    # phi, and f = 0 in the Leibniz rule, still pass
    inf = dict(rho, **{"1": math.inf})
    zero = {v: 0.0 for v in path3.vertices}
    report = ug_calculus(path3, zero, zero, inf, inf, lambda t: 1.0, subpaths3)
    assert all(entry["ok"] for entry in report.values())
    assert report["chain"]["lip_phi"] == 0.0


def test_lip_phi_from_sorted_neighbours_matches_all_pairs(path3, subpaths3):
    rng = random.Random(11)
    for _ in range(20):
        f = {v: rng.choice([-2.0, -0.5, 0.0, 1.0, 1.5, 3.0]) for v in path3.vertices}
        rho = hop_slope_density(path3, f, subpaths3)
        knots = sorted(rng.uniform(-3, 3) for _ in range(4))
        slopes = [rng.uniform(-4, 4) for _ in range(5)]

        def phi(t):  # piecewise linear with random kinks
            return sum(s * min(max(t - k, 0.0), 1.0) for s, k in zip(slopes, [-4.0] + knots))

        values = sorted(set(f.values()))
        want = max(
            (abs(phi(b) - phi(a)) / (b - a) for i, a in enumerate(values) for b in values[i + 1 :]),
            default=0.0,
        )
        got = ug_calculus(path3, f, f, rho, rho, phi, subpaths3)["chain"]["lip_phi"]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_ug_calculus_random():
    rng = random.Random(239)
    for _ in range(10):
        s = random_connected_space(rng, rng.randint(4, 8))
        fam = connecting_family(s, s.vertices, s.vertices, 3)
        f, g = random_function(rng, s), random_function(rng, s)
        rho_f = {
            v: x + rng.uniform(0.0, 0.5)
            for v, x in hop_slope_density(s, f, fam).items()
        }
        rho_g = {
            v: x + rng.uniform(0.0, 0.5)
            for v, x in hop_slope_density(s, g, fam).items()
        }
        a, b = rng.uniform(-2, 2), rng.uniform(0, 2)
        report = ug_calculus(s, f, g, rho_f, rho_g, lambda t: a * t + b * abs(t), fam)
        assert all(entry["ok"] for entry in report.values())

        # hop slopes and the minimum rule are bit-identical to the hop loops,
        # also on revisiting walks and constant curves, and with a minimum
        # rule that fails (the alternative density is zero on a hop end)
        walks = mixed_curves(rng, s, 6)
        assert hop_slope_density(s, f, iter(walks)) == reference_hop_slopes(s, f, walks)
        mixed = walks + list(fam)
        rho_f = hop_slope_density(s, f, mixed)
        rho_g = hop_slope_density(s, g, mixed)
        alt = dict(rho_f, **{rng.choice(s.vertices): 0.0})
        report = ug_calculus(s, f, g, rho_f, rho_g, abs, mixed, rho_f_alt=alt)
        rho_min = {v: min(rho_f[v], alt[v]) for v in s.vertices}
        ok, worst = reference_hop_check(s, f, rho_min, mixed, 1e-12)
        assert report["min"] == {"ok": ok, "worst": worst}


def test_h_sequence_exact_on_benchmark(path3, subpaths3):
    grad, steps = h_gradient_sequence(path3, RAMP, 2.0, subpaths3, n_steps=3)
    assert all(s.exact for s in steps)
    assert all(s.slope_bounded for s in steps)
    assert steps[-1].f_err == 0.0


def test_h_sequence_gradient_carries_the_family_label(path3, subpaths3):
    grad = h_gradient_sequence(path3, RAMP, 2.0, subpaths3, n_steps=1)[0]
    assert grad.family_label == subpaths3.label == "connect(3->3,h<=2)"
    assert h_gradient_sequence(path3, RAMP, 2.0, list(subpaths3), n_steps=1)[0].family_label == ""


def test_h_sequence_zero_slack_step(path3, subpaths3):
    grad, steps = h_gradient_sequence(
        path3, RAMP, 2.0, subpaths3, sigmas=[0.0]
    )
    assert len(steps) == 1 and steps[0].sigma == 0.0
    assert steps[0].exact and steps[0].f_err == 0.0


def test_h_sequence_constant_positive(path3, subpaths3):
    const = {v: 5.0 for v in path3.vertices}
    grad, steps = h_gradient_sequence(path3, const, 2.0, subpaths3, n_steps=2)
    for s in steps:
        assert s.exact and s.f_err == 0.0 and s.slope_err == 0.0
    for cap in (0.0, -1.0):
        with pytest.raises(ValueError, match="cap must be positive"):
            h_gradient_sequence(path3, const, 2.0, subpaths3, cap=cap)


def test_h_sequence_monotone_in_slack(path3):
    # under-constrained family: relaxed functions sit below f and decrease
    # pointwise as the slack shrinks
    one_hop = explicit_family([make_curve(path3, ["0", "1"])])
    f = {"0": 0.0, "1": 1.0, "2": 2.0}
    grad, steps = h_gradient_sequence(
        path3, f, 2.0, one_hop, n_steps=3, delta=2.0, cap=2.0
    )
    for s in steps:
        for v in path3.vertices:
            assert s.f_n[v] <= f[v] + 1e-12
    for earlier, later in zip(steps, steps[1:]):
        for v in path3.vertices:
            assert later.f_n[v] <= earlier.f_n[v] + 1e-12


def test_h_sequence_slope_bound_matches_loop():
    # the minimal gradient passes; a too-small gradient with a hop bound
    # below every edge leaves f unrelaxed, so its slope breaks the bound
    rng = random.Random(53)
    verdicts = set()
    for make in (random_connected_space, random_disconnected_space) * 3:
        s = make(rng, rng.randint(3, 6), len_range=(0.3, 3.0))
        f = {v: rng.uniform(0.0, 2.0) for v in s.vertices}
        fam = connecting_family(s, s.vertices, s.vertices, 2)
        grad, steps = h_gradient_sequence(s, f, 2.0, fam, n_steps=2)
        small = GradientResult(
            {v: 0.1 * x for v, x in grad.rho.items()}, 0.0, 0.0, "", 0.0, "N", 2.0, 0, True
        )
        tight = min(s.distance(u, v) for u, v, _ in s.edges) / 2
        steps += h_gradient_sequence(s, f, 2.0, fam, n_steps=2, gradient=small, delta=tight)[1]
        for rho, group in ((grad.rho, steps[:2]), (small.rho, steps[2:])):
            for st in group:
                g = {v: rho[v] + st.sigma for v in s.vertices}
                assert st.slope_bounded == reference_slope_bounded(s, st.slope, g)
                verdicts.add(st.slope_bounded)
    assert verdicts == {True, False}


def test_h_sequence_grid_errors_nonincreasing():
    rng = random.Random(241)
    g = grid_space(5, 5)
    f = {v: rng.uniform(0.0, 2.0) for v in g.vertices}

    fam = _harness_family(g, 2, g.max_edge_distance())
    grad, steps = h_gradient_sequence(g, f, 2.0, fam, n_steps=4)
    errs = [s.f_err for s in steps]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert all(s.exact for s in steps)


def test_w_certificate(path3, subpaths3):
    f = RAMP
    res = n_gradient(path3, f, subpaths3, 2.0, 1e-8)
    plan = point_mass(make_curve(path3, ["0", "1", "2"]))
    report = w_certificate(path3, f, res.rho, [plan])
    assert report["max_violation"] <= 1e-9

    zero = {v: 0.0 for v in path3.vertices}
    report_zero = w_certificate(path3, f, zero, [plan])
    assert report_zero["max_violation"] > 0.5

    mod = modulus(path3, subpaths3, 2.0, 0, 1e-8)
    oplan = optimal_plan(mod, subpaths3)
    report_dual = w_certificate(path3, f, res.rho, [oplan])
    assert report_dual["max_violation"] <= 1e-7
    # the plan average of increment minus path integral is the flux minus
    # the barycenter mass of the candidate gradient
    bar = barycenter(path3, oplan, 0).values
    flux = sum(w * (f[c.end] - f[c.start]) for c, w in oplan.support)
    mass = sum(bar[v] * res.rho[v] * path3.measure[v] for v in path3.vertices)
    assert report_dual["per_plan"][0] == pytest.approx(flux - mass, abs=1e-14)

    with pytest.raises(ValueError):
        w_certificate(path3, f, zero, [])


def test_every_hop_table_checks_its_hops():
    # curves built directly have not been through the validated constructor;
    # every solve and check that reads them must still reject their hops
    s = MetricMeasureSpace(["a", "b", "c"], [("a", "b", 1.0)], {v: 1.0 for v in "abc"})
    across = DiscreteCurve((0.0, 1.0), ("a", "c"))
    stay = DiscreteCurve((0.0, 0.5, 1.0), ("a", "a", "b"))
    f = {"a": 0.0, "b": 1.0, "c": 2.0}
    calls = [
        lambda: modulus(s, [across], 1.0),
        lambda: modulus(s, [across], 2.0),
        lambda: n_gradient(s, f, [across], 2.0),
        lambda: capacity(s, ["a"], [across], 2.0),
        lambda: capacity(s, [], [across], 2.0),
        lambda: barycenter(s, point_mass(across), 0),
        lambda: is_upper_gradient(s, f, {v: 0.0 for v in "abc"}, [across]),
    ]
    for call in calls:
        with pytest.raises(CurveError, match="hop 'a'->'c' crosses components"):
            call()
    with pytest.raises(CurveError, match="zero-length hop at 'a'"):
        modulus(s, [stay], 2.0)


def test_capacity_isolated_vertex():
    iso = MetricMeasureSpace(["v"], [], {"v": 3.0})
    res = capacity(iso, ["v"], explicit_family([]), 2.0)
    assert res.value == pytest.approx(3.0)
    assert res.f["v"] == pytest.approx(1.0)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_capacity_of_every_vertex_is_the_lower_corner(p):
    # f = 1 everywhere has no increment along any curve, so the lower corner
    # of the box is optimal and the solver certifies it without iterating
    g = grid_space(3, 3)
    fam = connecting_family(g, g.vertices, g.vertices, 3, simple_only=True)
    res = capacity(g, g.vertices, fam, p)
    assert (res.value, res.iterations, res.gap, res.converged) == (9.0, 0, 0.0, True)
    assert set(res.f.values()) == {1.0} and set(res.rho.values()) == {0.0}


def test_capacity_empty_set(path3, subpaths3):
    res = capacity(path3, [], subpaths3, 2.0)
    assert res.value == 0.0
    # p is checked for the empty set too
    with pytest.raises(ValueError):
        capacity(path3, [], subpaths3, 0.5)


@pytest.mark.parametrize(
    "p, tol",
    [
        (2.0, 0.0),
        (2.0, -1.0),
        (2.0, float("nan")),
        (float("inf"), 1e-6),
        (float("nan"), 1e-6),
        (2.0, float("inf")),
    ],
)
def test_settings_checked_before_shortcuts(path3, subpaths3, p, tol):
    flat = {v: 1.0 for v in path3.vertices}
    g = grid_space(3, 3)
    fam = connecting_family(g, g.vertices, g.vertices, 2, simple_only=True)
    with pytest.raises(ValueError):
        n_gradient(g, {v: float(i) for i, v in enumerate(g.vertices)}, fam, p, tol, max_iter=50)
    with pytest.raises(ValueError):  # every increment is zero
        n_gradient(path3, flat, subpaths3, p, tol)
    with pytest.raises(ValueError):
        capacity(path3, ["0"], subpaths3, p, tol, max_iter=50)
    with pytest.raises(ValueError):  # the empty set
        capacity(path3, [], subpaths3, p, tol)


def test_capacity_monotone_and_truncation(path3, subpaths3):
    tol = 1e-7
    small = capacity(path3, ["0"], subpaths3, 2.0, tol)
    large = capacity(path3, ["0", "2"], subpaths3, 2.0, tol)
    assert small.value <= large.value + 1e-5
    trunc = capacity(path3, ["0"], subpaths3, 2.0, tol, truncated=True)
    assert trunc.value == pytest.approx(small.value, abs=2 * tol * max(1, small.value))
    for v in path3.vertices:
        assert -1e-12 <= trunc.f[v] <= 1.0 + 1e-12
    assert small.f["0"] >= 1.0 - 1e-9


def test_capacity_against_scipy():
    rng = random.Random(251)
    for _ in range(5):
        s = random_connected_space(rng, rng.randint(3, 6))
        fam = connecting_family(s, s.vertices, s.vertices, 2)
        E = rng.sample(s.vertices, rng.randint(1, 2))
        p = rng.choice((1.5, 2.0))
        truncated = rng.choice((False, True))
        res = capacity(s, E, fam, p, 1e-7, truncated)
        want = oracle_capacity(s, E, list(fam), p, truncated)
        assert res.value == pytest.approx(want, rel=2e-4, abs=1e-6)


def test_capacity_p1(path3, subpaths3):
    res = capacity(path3, ["0"], subpaths3, 1.0, 1e-5)
    want = oracle_capacity(path3, ["0"], list(subpaths3), 1.0, False)
    assert res.value == pytest.approx(want, rel=1e-3, abs=1e-5)


def test_equivalence_report_constant(path3, monkeypatch):
    flat = {v: 1.0 for v in path3.vertices}
    rep = equivalence_report(path3, flat, 2.0)
    assert rep == {
        "p": 2.0,
        "constant": True,
        "rho_N": {v: 0.0 for v in path3.vertices},
        "n_value": 0.0,
        "n_norm": 0.0,
        "n_gap": 0.0,
        "h_steps": [],
        "h_exact": True,
        "h_slope_bounded": True,
        "h_terminal_slope_err": 0.0,
        "w_max_violation": 0.0,
        "subfamilies": [],
        "family_size": 0,
    }
    # one layout for every report
    assert rep.keys() == equivalence_report(path3, RAMP, 2.0, max_hops=2).keys()

    # the settings are checked before any work, whatever f is
    def unreachable(*args):
        raise AssertionError("the family was enumerated")

    monkeypatch.setattr(sobolev, "_harness_family", unreachable)
    for f in (flat, RAMP):
        with pytest.raises(ValueError, match="p must lie"):
            equivalence_report(path3, f, 0.5)
        with pytest.raises(ValueError, match="tol must be positive"):
            equivalence_report(path3, f, 2.0, tol=-1.0)
        with pytest.raises(SpaceError, match="max_hops must be at least 1"):
            equivalence_report(path3, f, 2.0, max_hops=0)


def test_equivalence_report_without_dual_mass():
    # f is constant on each component: every increment along a curve is zero,
    # so no curve carries dual mass and the plan is empty
    s = MetricMeasureSpace(list("abcd"), [("a", "b", 1.0), ("c", "d", 1.0)], dict.fromkeys("abcd", 1.0))
    rep = equivalence_report(s, {"a": 0, "b": 0, "c": 1, "d": 1}, 2.0)
    assert not rep["constant"] and rep["n_value"] == 0.0
    assert rep["h_exact"] and rep["w_max_violation"] == 0.0
    assert rep["subfamilies"] == [
        {"label": "gradient", "value": 0.0, "gap": 0.0, "converged": True, "duality_product": None}
    ]


def test_equivalence_report_benchmark(path3):
    rep = equivalence_report(path3, RAMP, 2.0, max_hops=2, tol=1e-7)
    assert rep["n_value"] == pytest.approx(8.0 / 3.0, rel=1e-6)
    assert rep["h_exact"] and rep["h_slope_bounded"]
    assert rep["w_max_violation"] <= 1e-6
    for entry in rep["subfamilies"]:
        if entry["duality_product"] is not None:
            assert entry["duality_product"] == pytest.approx(1.0, abs=1e-4)


def test_equivalence_report_cycle():
    s = cycle_space(4)
    f = {v: s.distance("0", v) for v in s.vertices}
    rep = equivalence_report(s, f, 2.0, max_hops=3, tol=1e-7)
    assert rep["h_exact"]
    assert rep["w_max_violation"] <= 1e-6
    assert rep["n_value"] > 0


def _certificate_cases():
    yield from harness_instances(random.Random(1011))
    rng = random.Random(277)
    for p in (1.0, 1.5, 2.0, 4.0):
        for _ in range(2):
            s = random_connected_space(rng, rng.randint(4, 8), extra_edges=3)
            yield s, random_function(rng, s), p, 2


def test_equivalence_certificate_is_tight():
    # the plan is the gradient's own dual: the W certificate meets its bound
    # with equality up to the solver gap, the duality product is 1 within the
    # gap, and lift / |Bar|_q is a lower bound on the scipy optimum.  The
    # oracle comparison allows 1e-7 relative (a tenth of tol) for its own
    # roundoff; every instance meets it with room to spare.
    tol = 1e-6
    for s, f, p, hops in _certificate_cases():
        rep = equivalence_report(s, f, p, max_hops=hops, tol=tol)
        (entry,) = rep["subfamilies"]
        assert entry["label"] == "gradient" and entry["converged"]
        assert entry["value"] == rep["n_value"] and entry["gap"] == rep["n_gap"]

        fmin = min(f.values())
        f0 = {v: f[v] - fmin for v in s.vertices}
        fam = _harness_family(s, hops, s.max_edge_distance())
        grad = n_gradient(s, f0, fam, p, tol)
        total = sum(grad.dual_weights.values())
        lift = sum(w * abs(f0[c.end] - f0[c.start]) for c, w in grad.dual_weights.items()) / total

        assert abs(rep["w_max_violation"]) <= 10 * tol * max(1.0, lift)
        assert abs(entry["duality_product"] - 1.0) <= entry["gap"] + 1e-9

        A, curves = admissibility_matrix(s, fam, 0)
        rhs = np.array([abs(f0[c.end] - f0[c.start]) for c in curves])
        keep = rhs > 0
        want = oracle_min_power(A[keep], rhs[keep], s.measure_vector(), p)[0] ** (1.0 / p)
        lower = rep["n_norm"] / entry["duality_product"]  # lift / |Bar|_q
        assert lower <= want * (1.0 + 1e-7)
        assert want <= rep["n_norm"] * (1.0 + 1e-7)


def test_equivalence_report_solves_once(monkeypatch):
    # the harness certifies W with the gradient's own dual plan: one convex
    # solve, the one inside n_gradient
    calls = []
    for name in ("solve_nonneg", "solve_capacity"):
        real = getattr(_solver, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("modcalc") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    s, f, p, hops = harness_instances(random.Random(1011))[-1]
    rep = equivalence_report(s, f, p, max_hops=hops)
    assert not rep["constant"]
    assert calls == ["solve_nonneg"]
