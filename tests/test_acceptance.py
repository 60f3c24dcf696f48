"""Acceptance battery.

Each test covers one numbered criterion at its stated tolerance, prints one
pass/fail line, and is deterministic (fixed seeds).
"""

import math
import random
import time

from helpers import (
    closed_form_single_curve,
    harness_instances,
    random_connected_space,
    random_edge_walk,
    random_function,
    retimed,
)
from modcalc import (
    Plan,
    barycenter,
    capacity,
    compression,
    connecting_family,
    cs_reparam,
    endpoints_in,
    energy,
    equivalence_report,
    explicit_family,
    h_gradient_sequence,
    hop_slope_density,
    ibp_identity,
    is_upper_gradient,
    length,
    lipschitz_constant,
    make_curve,
    modulus,
    n_gradient,
    optimal_plan,
    path_integral,
    path_relax,
    path_space,
    plan_derivation,
    q_energy,
    ug_calculus,
    variation_measures,
)
from modcalc.modulus import admissibility_matrix


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} - {name}{tail}")
    assert ok, f"criterion {num} failed: {name} {tail}"


def conjugate(p: float) -> float:
    return p / (p - 1.0) if p > 1 else math.inf


def test_criterion_1_single_curve_closed_form():
    rng = random.Random(1001)
    worst = 0.0
    slowest = 0.0
    for k in range(50):
        s = random_connected_space(
            rng, rng.randint(3, 10), extra_edges=2, mass_range=(0.3, 2.5)
        )
        c = random_edge_walk(rng, s, 10)
        p = rng.choice((1.5, 2.0, 3.0))
        lam = rng.choice((0, 1))
        fam = explicit_family([c])
        A, _ = admissibility_matrix(s, fam, lam)
        expected = closed_form_single_curve(A[0], s.measure_vector(), p)
        t0 = time.perf_counter()
        res = modulus(s, fam, p, lam, 1e-8)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        rel = abs(res.value - expected) / expected
        worst = max(worst, rel)
        assert dt < 1.0, f"instance {k} took {dt:.3f}s"
    report(
        1,
        "single-curve modulus closed form",
        worst <= 1e-6,
        f"worst rel err {worst:.2e}, slowest {slowest * 1e3:.1f} ms",
    )


def test_criterion_2_modulus_plan_duality():
    rng = random.Random(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(30):
        s = random_connected_space(
            rng, rng.randint(6, 30), extra_edges=4, mass_range=(0.5, 1.5)
        )
        n_curves = rng.randint(2, 20)
        curves = [random_edge_walk(rng, s, 5) for _ in range(n_curves)]
        lam = rng.choice((0, 1))
        if lam == 1 and rng.random() < 0.3:
            # swap one walk for a constant curve, keeping <= 20 curves
            curves[-1] = make_curve(s, (rng.choice(s.vertices),))
        p = rng.choice((1.5, 2.0, 3.0))
        fam = explicit_family(curves)
        res = modulus(s, fam, p, lam, 1e-6)
        assert res.converged and 0.0 < res.value < math.inf
        plan = optimal_plan(res, fam)
        q = conjugate(p)
        product = barycenter(s, plan, lam).q_norm(s, q) * res.value ** (1.0 / p)
        worst = max(worst, abs(product - 1.0))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "modulus-plan duality product",
        worst <= 1e-4 and elapsed < 60.0,
        f"worst |product-1| {worst:.2e}, total {elapsed:.1f}s",
    )


def test_criterion_3_modulus_properties():
    rng = random.Random(1003)
    tol = 1e-6
    ok = True
    for trial in range(100):
        s = random_connected_space(rng, rng.randint(4, 8), extra_edges=2)
        p = rng.choice((1.5, 2.0, 3.0))
        lam = rng.choice((0, 1))
        curves = [random_edge_walk(rng, s, 4) for _ in range(6)]

        # Mod(empty) = 0
        ok &= modulus(s, explicit_family([]), p, lam).value == 0.0
        # constant curve makes the lam=0 modulus infinite
        const = make_curve(s, (rng.choice(s.vertices),))
        ok &= math.isinf(modulus(s, explicit_family(curves + [const]), p, 0).value)

        small = explicit_family(curves[:3])
        big = explicit_family(curves)
        r_small = modulus(s, small, p, lam, tol)
        r_big = modulus(s, big, p, lam, tol)
        slack = 2 * tol * max(1.0, r_big.value)
        ok &= r_small.value <= r_big.value + slack  # monotone

        r_rest = modulus(s, explicit_family(curves[3:]), p, lam, tol)
        ok &= r_big.value <= r_small.value + r_rest.value + slack  # subadditive

        # overlap: pad each base curve by round trips at both endpoints
        padded = []
        for c in curves[:3]:
            seq = list(c.vertices)
            u, v = seq[0], seq[-1]
            pre = [u, s.neighbors(u)[0][0], u]
            post = [v, s.neighbors(v)[0][0], v]
            padded.append(make_curve(s, pre + seq[1:-1] + post))
        r_pad = modulus(s, explicit_family(padded), p, lam, tol)
        ok &= r_pad.value <= r_small.value + 2 * tol * max(1.0, r_small.value)

        # endpoint terms only relax the constraints
        r0 = modulus(s, big, p, 0, tol)
        r1 = modulus(s, big, p, 1, tol)
        ok &= r1.value <= r0.value + 2 * tol * max(1.0, r0.value)

        # reparametrization invariance is exact
        r_rt = modulus(
            s, explicit_family([retimed(rng, c) for c in curves]), p, lam, tol
        )
        ok &= r_rt.value == r_big.value
        if not ok:
            break
    report(3, "modulus properties (100 randomized trials)", ok, f"last trial {trial}")


def test_criterion_4_endpoint_family_bound():
    rng = random.Random(1004)
    ok = True
    worst = -math.inf
    for _ in range(50):
        s = random_connected_space(
            rng, rng.randint(4, 9), extra_edges=2, mass_range=(1.0, 3.0)
        )
        p = rng.choice((1.5, 2.0, 3.0))
        E = rng.sample(s.vertices, rng.randint(1, max(1, len(s) // 2)))
        fam = endpoints_in(s, E, rng.randint(1, 3))
        res = modulus(s, fam, p, 1, 1e-7)
        mE = s.mass(E)
        ok &= res.value <= mE**p / 2**p + 1e-6
        # sharp form from the half-indicator witness
        ok &= res.value <= mE / 2**p + 1e-6
        worst = max(worst, res.value - mE / 2**p)
    report(4, "endpoint-family modulus bound", ok, f"worst slack {worst:.2e}")


def _resolving_grid(space, plan) -> int:
    cuts = set()
    for c, _ in plan.support:
        cs = cs_reparam(space, c)
        for a, b in zip(cs.times, cs.times[1:]):
            cuts.add(0.5 * (a + b))
    cuts |= {0.0, 1.0}
    pts = sorted(cuts)
    wmin = min(b - a for a, b in zip(pts, pts[1:]) if b > a)
    return min(20000, int(math.ceil(2.0 / wmin)) + 1)


def test_criterion_5_plan_inequalities():
    rng = random.Random(1005)
    ok = True

    # plan mass against modulus and barycenter compression bounds; the
    # first-power compression bound needs comp >= 1, so draws are retried
    # until the generated probability plan satisfies it
    checked = 0
    for _ in range(25):
        for _attempt in range(50):
            s = random_connected_space(
                rng, rng.randint(4, 9), extra_edges=2, mass_range=(0.4, 1.1)
            )
            curves = [random_edge_walk(rng, s, 4) for _ in range(rng.randint(1, 4))]
            raw = [rng.uniform(0.2, 1.0) for _ in curves]
            total = sum(raw)
            plan = Plan(tuple((c, w / total) for c, w in zip(curves, raw)))
            comp_n = _resolving_grid(s, plan)
            comp = compression(s, plan, comp_n)
            if comp >= 1.0:
                break
        assert comp >= 1.0, "could not draw a plan with compression >= 1"
        p = rng.choice((1.5, 2.0, 3.0))
        lam = rng.choice((0, 1))
        q = conjugate(p)
        fam = explicit_family(curves)
        res = modulus(s, fam, p, lam, 1e-7)
        lhs = plan.mass
        rhs = barycenter(s, plan, lam).q_norm(s, q) * res.value ** (1.0 / p)
        ok &= lhs <= rhs + 1e-6

        bar_norm = barycenter(s, plan, 0).q_norm(s, q)
        ok &= bar_norm <= comp * energy(s, plan, q) ** (1.0 / q) + 1e-6
        checked += 1
    ok &= checked == 25

    # integration by parts identity, 1000 random pairs
    worst = 0.0
    for _ in range(1000):
        s = random_connected_space(rng, rng.randint(3, 7))
        support = tuple(
            (random_edge_walk(rng, s, 4), rng.uniform(0.1, 1.5))
            for _ in range(rng.randint(1, 3))
        )
        plan = Plan(support)
        f = random_function(rng, s)
        b, div = plan_derivation(s, plan, f)
        lhs = sum(b[v] * s.measure[v] for v in s.vertices)
        mid = sum(w * (f[c.end] - f[c.start]) for c, w in plan.support)
        rhs = -sum(f[v] * div[v] for v in s.vertices)
        scale = max(1.0, abs(mid))
        worst = max(worst, abs(lhs - mid) / scale, abs(mid - rhs) / scale)
    ok &= worst <= 1e-12
    report(5, "plan inequalities + integration by parts", ok, f"ibp worst {worst:.2e}")


def test_criterion_6_path_algebra_exactness():
    rng = random.Random(1006)
    worst = 0.0
    for _ in range(1000):
        s = random_connected_space(rng, rng.randint(3, 8))
        c = retimed(rng, random_edge_walk(rng, s, 6))
        f1, f2 = random_function(rng, s), random_function(rng, s)

        t12, t21, boundary = ibp_identity(c, f1, f2)
        worst = max(worst, abs(boundary - (t12 + t21)) / max(1.0, abs(boundary)))

        rho = {v: rng.uniform(0.0, 2.0) for v in s.vertices}
        rt = retimed(rng, c)
        assert length(s, rt) == length(s, c)
        assert path_integral(s, rt, rho) == path_integral(s, c, rho)
        sa, mu, sf = variation_measures(s, c, f1)
        sa2, mu2, sf2 = variation_measures(s, rt, f1)
        assert (sa.total(), mu.total(), sf.total()) == (
            sa2.total(),
            mu2.total(),
            sf2.total(),
        )
        for a, b in zip(mu.atoms, sf.atoms):
            assert abs(a) <= b + 1e-15

        cs = cs_reparam(s, c)
        assert cs_reparam(s, cs).times == cs.times
        ell = length(s, c)
        for u, v, a, b in zip(cs.vertices, cs.vertices[1:], cs.times, cs.times[1:]):
            worst = max(
                worst, abs(s.distance(u, v) / (b - a) - ell) / max(1.0, ell)
            )
        q = rng.choice((1.5, 2.0, 3.0))
        worst = max(
            worst,
            abs(q_energy(s, cs, q) - ell**q) / max(1.0, ell**q),
        )
    report(6, "path algebra exact identities", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_7_path_relax_properties():
    rng = random.Random(1007)
    ok = True
    for _ in range(100):
        s = random_connected_space(rng, rng.randint(4, 9), extra_edges=2)
        f = {v: rng.uniform(0.0, 3.0) for v in s.vertices}
        g = {v: rng.uniform(0.0, 2.0) for v in s.vertices}
        C = rng.sample(s.vertices, rng.randint(1, len(s)))
        delta = rng.uniform(0.5, s.diameter() + 1.0)
        cap = rng.uniform(1.0, 5.0)
        out = path_relax(s, f, g, C, delta, cap)

        for v in C:  # (a)
            ok &= out[v] <= f[v] + 1e-12
        gmax = max(g.values())
        for u in s.vertices:  # (b) and (d)
            for v in s.vertices:
                if u == v:
                    continue
                d = s.distance(u, v)
                gap = abs(out[u] - out[v])
                if d <= delta:
                    ok &= gap <= 0.5 * (g[u] + g[v]) * d + 1e-12
                    ok &= gap <= max(g[u], g[v]) * d + 1e-12
        ok &= (
            lipschitz_constant(s, out, s.vertices)
            <= max(cap / delta, gmax) + 1e-12
        )
        # modified (c): slope toward delta-neighbors bounded by the average
        for v in s.vertices:
            for u, _ in s.neighbors(v):
                d = s.distance(u, v)
                if d <= delta:
                    ok &= abs(out[u] - out[v]) / d <= 0.5 * (g[u] + g[v]) + 1e-12
        if not ok:
            break

    # fixed point: hop-dominating cost, sources everywhere
    fixed_ok = True
    for _ in range(20):
        s = random_connected_space(rng, rng.randint(3, 8))
        f = {v: rng.uniform(0.0, 3.0) for v in s.vertices}
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
        cap = max(f.values()) or 1.0
        out = path_relax(s, f, g, s.vertices, s.diameter() + 1.0, cap)
        fixed_ok &= all(abs(out[v] - min(f[v], cap)) <= 1e-12 for v in s.vertices)
    report(7, "path_relax properties + fixed point", ok and fixed_ok)


def test_criterion_8_gradient_benchmark():
    s = path_space(3)
    fam = connecting_family(s, s.vertices, s.vertices, 2, simple_only=True)
    res = n_gradient(s, {"0": 0.0, "1": 1.0, "2": 2.0}, fam, 2.0, 1e-8)
    want = {"0": 2.0 / 3.0, "1": 4.0 / 3.0, "2": 2.0 / 3.0}
    ok = all(abs(res.rho[v] - want[v]) <= 1e-6 for v in s.vertices)
    ok &= abs(res.value - 8.0 / 3.0) <= 1e-6
    report(8, "unit-path gradient benchmark", ok, f"energy {res.value:.9f}")


def test_criterion_9_calculus_rules():
    rng = random.Random(1009)
    ok = True
    for _ in range(200):
        s = random_connected_space(rng, rng.randint(4, 8), extra_edges=1)
        fam = connecting_family(s, s.vertices, s.vertices, rng.randint(1, 3))
        f, g = random_function(rng, s), random_function(rng, s)
        rho_f = {
            v: x + rng.uniform(0.0, 0.6)
            for v, x in hop_slope_density(s, f, fam).items()
        }
        rho_g = {
            v: x + rng.uniform(0.0, 0.6)
            for v, x in hop_slope_density(s, g, fam).items()
        }
        a, b, c = rng.uniform(-2, 2), rng.uniform(0, 2), rng.uniform(-1, 1)
        rep = ug_calculus(
            s, f, g, rho_f, rho_g, lambda t: a * t + b * abs(t - c), fam
        )
        ok &= all(entry["ok"] for entry in rep.values())

        # strong locality: f = g on the vertices a subfamily touches
        far = rng.choice(s.vertices)
        g2 = dict(f)
        g2[far] = f[far] + rng.uniform(0.5, 2.0)
        sub = [cv for cv in fam if far not in cv.vertices]
        diff = {v: f[v] - g2[v] for v in s.vertices}
        zero = {v: 0.0 for v in s.vertices}
        loc_ok, _ = is_upper_gradient(s, diff, zero, explicit_family(sub))
        ok &= loc_ok
        if not ok:
            break
    report(9, "calculus-rule feasibility suite", ok)


def test_criterion_10_capacity():
    rng = random.Random(1010)
    tol = 1e-6
    ok = True
    for _ in range(50):
        s = random_connected_space(rng, rng.randint(3, 7), extra_edges=1)
        fam = connecting_family(s, s.vertices, s.vertices, 2)
        p = rng.choice((1.5, 2.0, 3.0))
        kE = rng.randint(1, max(1, len(s) - 1))
        E = rng.sample(s.vertices, kE)
        F = rng.sample(s.vertices, rng.randint(1, len(s)))
        capE = capacity(s, E, fam, p, tol)
        capEF = capacity(s, set(E) | set(F), fam, p, tol)
        capF = capacity(s, F, fam, p, tol)
        ok &= capE.value <= capEF.value + 1e-5  # monotone
        ok &= capEF.value <= capE.value + capF.value + 1e-5  # subadditive
        trunc = capacity(s, E, fam, p, tol, truncated=True)
        ok &= abs(trunc.value - capE.value) <= 2 * tol * max(1.0, capE.value)
        if not ok:
            break

    from modcalc.space import MetricMeasureSpace

    iso = MetricMeasureSpace(["v"], [], {"v": 3.0})
    res = capacity(iso, ["v"], explicit_family([]), 2.0)
    ok &= abs(res.value - 3.0) <= 1e-12
    report(10, "capacity monotone/subadditive/truncation", ok)


def test_criterion_11_equivalence_harness():
    t0 = time.perf_counter()
    instances = harness_instances(random.Random(1011))
    assert len(instances) == 10
    tol = 1e-6
    ok = True
    worst_w = -math.inf
    for s, f, p, hops in instances:
        rep = equivalence_report(s, f, p, max_hops=hops, tol=tol)
        ok &= rep["w_max_violation"] <= 10 * tol
        ok &= rep["h_exact"] and rep["h_slope_bounded"]
        worst_w = max(worst_w, rep["w_max_violation"])
        for entry in rep["subfamilies"]:
            if entry["duality_product"] is not None:
                ok &= abs(entry["duality_product"] - 1.0) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(
        11,
        "definition-equivalence harness",
        ok,
        f"worst w-violation {worst_w:.2e}, total {elapsed:.1f}s",
    )
