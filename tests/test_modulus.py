import math
import random

import numpy as np
import pytest

from helpers import (
    closed_form_single_curve,
    mixed_curves,
    oracle_min_power,
    random_connected_space,
    random_edge_walk,
    reference_row,
    retimed,
)
from modcalc import (
    CurveError,
    ModulusError,
    ModulusResult,
    admissible_check,
    barycenter,
    connecting_family,
    endpoints_in,
    explicit_family,
    is_exceptional,
    length,
    make_curve,
    modulus,
    optimal_plan,
    path_integral,
    path_space,
)
from modcalc.modulus import admissibility_matrix


@pytest.fixture
def path3():
    return path_space(3)


def test_admissible_check_examples(path3):
    fam = connecting_family(path3, ["0"], ["2"], 2)
    lmin = min(length(path3, c) for c in fam)
    rho = {v: 1.0 / lmin for v in path3.vertices}
    ok, slack = admissible_check(path3, rho, fam, 0)
    assert ok and slack >= -1e-12

    const = explicit_family([make_curve(path3, ["1"])])
    ok0, slack0 = admissible_check(path3, {v: 99.0 for v in path3.vertices}, const, 0)
    assert not ok0 and slack0 == -1.0

    ok1, slack1 = admissible_check(
        path3, {"0": 0.0, "1": 0.5, "2": 0.0}, const, 1
    )
    assert ok1 and slack1 == pytest.approx(0.0, abs=1e-15)

    ok_inf, _ = admissible_check(
        path3, {"0": 0.0, "1": math.inf, "2": 0.0}, const, 1
    )
    assert ok_inf

    ok_empty, slack_empty = admissible_check(path3, rho, explicit_family([]), 0)
    assert ok_empty and slack_empty == math.inf


def test_rows_and_slacks_match_per_curve_reference():
    # the hop table must reproduce the curve-by-curve rows bit for bit, and
    # the slacks of the path_integral loop, on walks that revisit vertices
    # and on constant curves, with an infinite and a NaN density entry
    rng = random.Random(317)
    for _ in range(12):
        s = random_connected_space(rng, rng.randint(3, 8), extra_edges=2)
        curves = mixed_curves(rng, s, rng.randint(1, 8))
        rho = {v: rng.uniform(0.0, 1.5) for v in s.vertices}
        rho[rng.choice(s.vertices)] = rng.choice((math.inf, math.nan))
        for lam in (0, 1):
            A, got = admissibility_matrix(s, iter(curves), lam)
            want = np.array([reference_row(s, c, lam) for c in curves])
            assert got == curves and A.tobytes() == want.tobytes()

            # at lam = 0 the constant curves alone set the slack to -1
            for fam in (curves, [c for c in curves if not c.is_constant]):
                slacks = []
                for c in fam:
                    lhs = path_integral(s, c, rho)
                    if lam == 1:
                        lhs = lhs + rho[c.start] + rho[c.end]
                    slacks.append(lhs - 1.0)
                smallest = min((x for x in slacks if not math.isnan(x)), default=math.inf)
                ok = not any(x < 0 for x in slacks)
                assert admissible_check(s, rho, fam, lam) == (ok, smallest)

        walk = next(c for c in curves if not c.is_constant)
        bad = dict(rho, **{walk.vertices[1]: -1.0})
        with pytest.raises(CurveError):
            admissible_check(s, bad, curves, 0)


def test_modulus_empty_and_infinite(path3):
    # the solve of no rows gives the zero result
    res = modulus(path3, explicit_family([]), 2.0)
    zeros = {v: 0.0 for v in path3.vertices}
    assert res == ModulusResult(0.0, zeros, {}, 0.0, 2.0, 0, 0, True, "explicit")

    const = explicit_family([make_curve(path3, ["1"])])
    res_inf = modulus(path3, const, 2.0, lam=0)
    assert math.isinf(res_inf.value) and res_inf.rho is None

    res_fin = modulus(path3, const, 2.0, lam=1)
    assert res_fin.value == pytest.approx(0.25, rel=1e-6)  # rho(v)=1/2, m=1


def test_single_edge_instance_closed_form():
    s = path_space(2)
    fam = connecting_family(s, ["0"], ["1"], 1)
    res = modulus(s, fam, 2.0, 0, 1e-8)
    assert res.value == pytest.approx(2.0, rel=1e-6)
    plan = optimal_plan(res, fam)
    bar = barycenter(s, plan, 0)
    assert dict(bar.values) == pytest.approx({"0": 0.5, "1": 0.5})
    assert bar.q_norm(s, 2.0) == pytest.approx(2.0 ** -0.5, rel=1e-6)


def test_single_curve_closed_form_random():
    rng = random.Random(101)
    for _ in range(12):
        s = random_connected_space(rng, rng.randint(3, 9))
        c = random_edge_walk(rng, s, 8)
        lam = rng.choice((0, 1))
        p = rng.choice((1.5, 2.0, 3.0))
        fam = explicit_family([c])
        A, _ = admissibility_matrix(s, fam, lam)
        expected = closed_form_single_curve(A[0], s.measure_vector(), p)
        res = modulus(s, fam, p, lam, 1e-8)
        assert res.value == pytest.approx(expected, rel=1e-6)


def test_result_density_is_admissible():
    # the returned density must satisfy the constraints up to 1e-9 slack
    rng = random.Random(311)
    for _ in range(10):
        s = random_connected_space(rng, rng.randint(4, 10), extra_edges=2)
        curves = [random_edge_walk(rng, s, 4) for _ in range(rng.randint(1, 8))]
        fam = explicit_family(curves)
        p = rng.choice((1.0, 1.5, 2.0, 3.0))
        lam = rng.choice((0, 1))
        res = modulus(s, fam, p, lam, 1e-7)
        assert res.rho is not None
        ok, slack = admissible_check(s, res.rho, fam, lam)
        assert slack >= -1e-9


def test_grid_family_duality_product():
    from modcalc import grid_space

    rng = random.Random(313)
    g = grid_space(5, 5)
    curves = [random_edge_walk(rng, g, 5) for _ in range(20)]
    fam = explicit_family(curves)
    res = modulus(g, fam, 2.0, 0, 1e-6)
    plan = optimal_plan(res, fam)
    product = barycenter(g, plan, 0).q_norm(g, 2.0) * res.value**0.5
    assert abs(product - 1.0) <= 1e-4


def test_against_scipy_oracle():
    rng = random.Random(103)
    for _ in range(8):
        s = random_connected_space(rng, rng.randint(4, 10), extra_edges=3)
        curves = [random_edge_walk(rng, s, 4) for _ in range(rng.randint(2, 8))]
        fam = explicit_family(curves)
        p = rng.choice((1.5, 2.0, 3.0))
        lam = rng.choice((0, 1))
        res = modulus(s, fam, p, lam, 1e-8)
        A, _ = admissibility_matrix(s, fam, lam)
        want, _ = oracle_min_power(A, np.ones(len(curves)), s.measure_vector(), p)
        assert res.value == pytest.approx(want, rel=1e-4)


def test_p1_against_linprog():
    rng = random.Random(107)
    for _ in range(4):
        s = random_connected_space(rng, rng.randint(3, 7))
        curves = [random_edge_walk(rng, s, 3) for _ in range(rng.randint(1, 5))]
        fam = explicit_family(curves)
        res = modulus(s, fam, 1.0, 0, 1e-6)
        A, _ = admissibility_matrix(s, fam, 0)
        want, _ = oracle_min_power(A, np.ones(len(curves)), s.measure_vector(), 1.0)
        assert res.value == pytest.approx(want, rel=1e-4, abs=1e-8)


def test_reparametrization_invariance_exact():
    rng = random.Random(109)
    s = random_connected_space(rng, 7, extra_edges=2)
    curves = [random_edge_walk(rng, s, 4) for _ in range(5)]
    fam = explicit_family(curves)
    fam_rt = explicit_family([retimed(rng, c) for c in curves])
    a = modulus(s, fam, 2.0, 0, 1e-7)
    b = modulus(s, fam_rt, 2.0, 0, 1e-7)
    assert a.value == b.value  # identical constraint rows, identical solve


def test_monotonicity_subadditivity_overlap():
    rng = random.Random(113)
    tol = 1e-7
    for _ in range(10):
        s = random_connected_space(rng, rng.randint(4, 9), extra_edges=2)
        p = rng.choice((1.5, 2.0, 3.0))
        curves = [random_edge_walk(rng, s, 4) for _ in range(6)]
        small = explicit_family(curves[:3])
        big = explicit_family(curves)
        r_small = modulus(s, small, p, 0, tol)
        r_big = modulus(s, big, p, 0, tol)
        slack = 2 * tol * max(1.0, r_big.value)
        assert r_small.value <= r_big.value + slack

        other = explicit_family(curves[3:])
        r_other = modulus(s, other, p, 0, tol)
        assert r_big.value <= r_small.value + r_other.value + slack

        # overlap: every extended walk retains a sub-walk from the base family
        base = explicit_family(curves[:3])
        extended = []
        for c in curves[:3]:
            seq = list(c.vertices)
            nbrs = s.neighbors(seq[-1])
            ext = seq + [nbrs[0][0]]
            extended.append(make_curve(s, ext))
        r_ext = modulus(s, explicit_family(extended), p, 0, tol)
        assert r_ext.value <= modulus(s, base, p, 0, tol).value + slack


def test_endpoint_lambda_relaxation():
    rng = random.Random(127)
    for _ in range(6):
        s = random_connected_space(rng, rng.randint(4, 8))
        curves = [random_edge_walk(rng, s, 4) for _ in range(4)]
        fam = explicit_family(curves)
        p = rng.choice((1.5, 2.0, 3.0))
        r0 = modulus(s, fam, p, 0, 1e-7)
        r1 = modulus(s, fam, p, 1, 1e-7)
        assert r1.value <= r0.value + 2e-7 * max(1.0, r0.value)


def test_endpoints_in_bound():
    rng = random.Random(131)
    s = random_connected_space(rng, 6, mass_range=(1.0, 3.0))
    E = s.vertices[:3]
    fam = endpoints_in(s, E, 3)
    res = modulus(s, fam, 2.0, 1, 1e-7)
    assert res.value <= s.mass(E) / 4.0 + 1e-6  # admissible half-indicator


def test_fuglede_dissipation():
    rng = random.Random(137)
    s = random_connected_space(rng, 7, extra_edges=2)
    fam = connecting_family(s, s.vertices, s.vertices, 3)
    f = {v: rng.uniform(0.5, 2.0) for v in s.vertices}
    from modcalc import path_integral

    prev = math.inf
    for n in range(8):
        fn = {v: f[v] * 2.0**-n for v in s.vertices}
        worst = max(path_integral(s, c, fn) for c in fam)
        assert worst <= prev + 1e-15
        prev = worst
    assert prev <= 1e-2 * max(path_integral(s, c, f) for c in fam)


def test_optimal_plan_duplicate_invariance(path3):
    fam = explicit_family([make_curve(path3, ["0", "1", "2"])])
    res = modulus(path3, fam, 2.0, 0, 1e-8)
    plan = optimal_plan(res, fam)
    assert plan.is_probability

    fam2 = explicit_family([make_curve(path3, ["0", "1", "2"])] * 2)
    res2 = modulus(path3, fam2, 2.0, 0, 1e-8)
    plan2 = optimal_plan(res2, fam2)
    q = 2.0
    prod = barycenter(path3, plan, 0).q_norm(path3, q) * res.value**0.5
    prod2 = barycenter(path3, plan2, 0).q_norm(path3, q) * res2.value**0.5
    assert prod == pytest.approx(1.0, abs=1e-6)
    assert prod2 == pytest.approx(1.0, abs=1e-6)


def test_optimal_plan_preconditions(path3):
    with pytest.raises(ModulusError):
        optimal_plan(modulus(path3, explicit_family([]), 2.0), explicit_family([]))
    const = explicit_family([make_curve(path3, ["1"])])
    with pytest.raises(ModulusError):
        optimal_plan(modulus(path3, const, 2.0, 0), const)


def test_is_exceptional(path3):
    ok, value = is_exceptional(path3, [], 2.0, 2)
    assert ok and value == 0.0
    ok2, value2 = is_exceptional(path3, ["1"], 2.0, 2)
    assert not ok2 and value2 > 1e-3
    # certify positivity independently: an admissible density exists, so the
    # oracle value of the same program is strictly positive
    from modcalc.families import family_through
    from modcalc.modulus import admissibility_matrix

    fam = family_through(path3, ["1"], 2)
    A, _ = admissibility_matrix(path3, fam, 0)
    want, _ = oracle_min_power(
        A, np.ones(len(fam)), path3.measure_vector(), 2.0
    )
    assert want > 1e-3
    assert value2 == pytest.approx(want, rel=1e-4)


def test_bad_arguments(path3):
    fam = connecting_family(path3, ["0"], ["2"], 2)
    with pytest.raises(ModulusError):
        modulus(path3, fam, 0.5)
    with pytest.raises(ModulusError):
        modulus(path3, fam, 2.0, lam=2)
    with pytest.raises(ModulusError):
        modulus(path3, fam, 2.0, tol=0.0)
    for family in (fam, explicit_family([])):
        with pytest.raises(ModulusError, match="max_iter"):
            modulus(path3, family, 2.0, max_iter=0)
