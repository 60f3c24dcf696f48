import importlib
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
    grid_space,
    is_exceptional,
    length,
    make_curve,
    modulus,
    optimal_plan,
    path_integral,
    path_space,
)
from modcalc._solver import solve_nonneg
from modcalc.curve import _hop_table
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

    with pytest.raises(ModulusError, match="lambda must be 0 or 1"):
        admissible_check(path3, rho, fam, 2)
    # a NaN density used to pass with slack inf
    for lam in (0, 1):
        with pytest.raises(CurveError, match="nonnegative"):
            admissible_check(path3, {v: math.nan for v in path3.vertices}, fam, lam)


def test_admissibility_matrix_is_float_without_coefficients(path3):
    # np.bincount of no keys at all returns integers
    for fam, shape in (
        (explicit_family([make_curve(path3, ["1"])]), (1, 3)),
        (explicit_family([]), (0, 3)),
    ):
        A, _ = admissibility_matrix(path3, fam, 0)
        assert A.dtype == np.float64 and A.shape == shape and not A.any()


def test_every_admissibility_entry_point_rejects_other_lambdas(path3):
    # admissibility_matrix used to return the lam = 0 rows for any lam
    fam = connecting_family(path3, ["0"], ["2"], 2)
    rho = {v: 1.0 for v in path3.vertices}
    calls = [
        lambda lam: admissibility_matrix(path3, fam, lam),
        lambda lam: admissible_check(path3, rho, fam, lam),
        lambda lam: modulus(path3, fam, 2.0, lam),
    ]
    for call in calls:
        for lam in (-1, 2, 5):
            with pytest.raises(ModulusError, match=f"lambda must be 0 or 1, got {lam}"):
                call(lam)


def test_negative_density_message_names_the_value(path3):
    fam = connecting_family(path3, ["0"], ["2"], 2)
    for bad in (-0.5, math.nan):
        rho = {"0": 1.0, "1": bad, "2": 1.0}
        with pytest.raises(CurveError, match=f"nonnegative, got {bad}"):
            admissible_check(path3, rho, fam, 0)


def test_rows_and_slacks_match_per_curve_reference():
    # the hop table must reproduce the curve-by-curve rows bit for bit, and
    # the slacks of the path_integral loop, on walks that revisit vertices
    # and on constant curves, with an infinite density entry; a NaN entry
    # is rejected
    rng = random.Random(317)
    for _ in range(12):
        s = random_connected_space(rng, rng.randint(3, 8), extra_edges=2)
        curves = mixed_curves(rng, s, rng.randint(1, 8))
        rho = {v: rng.uniform(0.0, 1.5) for v in s.vertices}
        rho[rng.choice(s.vertices)] = rng.choice((math.inf, math.nan))
        nan = any(math.isnan(x) for x in rho.values())
        for lam in (0, 1):
            A, got = admissibility_matrix(s, iter(curves), lam)
            want = np.array([reference_row(s, c, lam) for c in curves])
            assert got == curves and A.tobytes() == want.tobytes()
            if nan:
                with pytest.raises(CurveError):
                    admissible_check(s, rho, curves, lam)
                continue

            # at lam = 0 the constant curves alone set the slack to -1
            for fam in (curves, [c for c in curves if not c.is_constant]):
                slacks = []
                for c in fam:
                    lhs = path_integral(s, c, rho)
                    if lam == 1:
                        lhs = lhs + rho[c.start] + rho[c.end]
                    slacks.append(lhs - 1.0)
                smallest = min(slacks, default=math.inf)
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
    fam = connecting_family(path3, ["0"], ["2"], 2)
    zero = ModulusResult(1.0, None, {c: 0.0 for c in fam}, 0.0, 2.0, 0, 1, True)
    with pytest.raises(ModulusError, match="degenerate dual: total weight is zero"):
        optimal_plan(zero, fam)


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


def _working_set_battery():
    """Grids, corner walks, random spaces and a family with duplicate
    curves: the shapes whose first working set is the whole optimum support
    (unit grids) and those whose set grows over rounds (random lengths)."""
    g = grid_space(4, 4)
    yield g, connecting_family(g, g.vertices, g.vertices, 3, simple_only=True)
    yield g, connecting_family(g, ["0,0"], ["3,3"], 8)
    rng = random.Random(2027)
    for _ in range(3):
        s = random_connected_space(rng, rng.randint(5, 7), extra_edges=3)
        yield s, connecting_family(s, s.vertices, s.vertices, 3)
        curves = [random_edge_walk(rng, s, 4) for _ in range(8)]
        yield s, explicit_family(curves + curves[:3])


def _lagrange_dual(A: np.ndarray, y: np.ndarray, m: np.ndarray, p: float) -> float:
    """The Lagrange dual of  min sum m x^p  over  x >= 0, A x >= 1  at ``y``;
    at p = 1, ``y`` is first shrunk into the dual cone ``A^T y <= m``."""
    w = A.T @ y
    if p == 1.0:
        return min(1.0, float(np.min(m[w > 0] / w[w > 0], initial=1.0))) * float(y.sum())
    z = (w / (p * m)) ** (1.0 / (p - 1.0))
    return float(y.sum()) + float((m * z**p - w * z).sum())


def test_working_set_result_certifies_the_whole_family():
    # each result against an all-rows solve of the same family: the values
    # bracket each other, the density meets every row, the duals are family
    # curves, and padded with zeros they are a dual bound of the whole family
    tol, rtol = 1e-6, 1e-12
    for s, fam in _working_set_battery():
        m = s.measure_vector()
        curves = list(fam)
        first = {}
        for i, c in enumerate(curves):
            first.setdefault(c, i)
        for lam in (0, 1):
            A, _ = admissibility_matrix(s, fam, lam)
            for p in (1.0, 1.5, 2.0, 4.0):
                res = modulus(s, fam, p, lam, tol)
                ref = solve_nonneg(_hop_table(s, fam).rows(lam), np.ones(len(fam)), m, p, tol)
                assert res.converged or not ref.converged
                assert res.value >= ref.dual_value * (1 - rtol)
                assert ref.value >= res.value * (1 - res.gap) * (1 - rtol)

                ok, slack = admissible_check(s, res.rho, fam, lam)
                ref_slack = admissible_check(s, dict(zip(s.vertices, ref.x)), fam, lam)[1]
                assert ok and slack >= min(ref_slack, 0.0)

                assert set(res.dual_weights) <= set(curves)
                y = np.zeros(len(curves))
                for c, w in res.dual_weights.items():
                    y[first[c]] = w
                dual = _lagrange_dual(A, y, m, p)
                assert res.value * (1 - res.gap) * (1 - 1e-9) <= dual <= res.value * (1 + rtol)


def _solves(monkeypatch) -> list[tuple[int, int]]:
    """The rows and iterations of each ``solve_nonneg`` call of ``modulus``."""
    # the package exports the function modulus under its module's name
    mod = importlib.import_module("modcalc.modulus")
    solves = []
    solve = mod.solve_nonneg

    def counted(A, *args):
        res = solve(A, *args)
        solves.append((len(A[0]), res.iterations))
        return res

    monkeypatch.setattr(mod, "solve_nonneg", counted)
    return solves


def test_working_set_solves_on_the_geodesics(monkeypatch):
    # corner to corner on the 6x6 grid with h <= 12: 8172 walks, of which
    # the 252 geodesics carry the optimum; one solve on them certifies all
    g = grid_space(6, 6)
    fam = connecting_family(g, ["0,0"], ["5,5"], 12)
    assert len(fam) == 8172
    solves = _solves(monkeypatch)
    for lam in (0, 1):
        solves.clear()
        res = modulus(g, fam, 2.0, lam)
        assert [rows for rows, _ in solves] == [252]
        assert res.converged and len(res.dual_weights) == 252
        assert admissible_check(g, res.rho, fam, lam)[0]


def test_budget_bounds_the_rounds_and_the_density_stays_admissible(monkeypatch):
    # random lengths make the first set the two orientations of the shortest
    # edge, and its solve violates more than half of the rows, so the second
    # solve takes them all.  A max_iter that ends the solves with rows
    # outside the set violated (a first solve that converges on its last
    # iteration included) leaves the result unconverged, and the density is
    # scaled to meet every row
    s = random_connected_space(random.Random(29), 8, extra_edges=3)
    fam = connecting_family(s, s.vertices, s.vertices, 3)
    solves = _solves(monkeypatch)
    for p in (1.0, 2.0):
        for lam in (0, 1):
            solves.clear()
            full = modulus(s, fam, p, lam)
            assert full.converged and [rows for rows, _ in solves] == [2, len(fam)]
            for max_iter in (1, 3, solves[0][1]):
                res = modulus(s, fam, p, lam, max_iter=max_iter)
                assert res.iterations <= max_iter and not res.converged
                assert admissible_check(s, res.rho, fam, lam)[0]
                assert res.value >= full.value * (1 - full.gap)
