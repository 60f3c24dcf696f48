import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import mixed_curves, oracle_min_power, random_connected_space
from modcalc import (
    MetricMeasureSpace,
    _solver,
    capacity,
    connecting_family,
    grid_space,
    n_gradient,
    path_space,
)
from modcalc._solver import solve_capacity, solve_nonneg
from modcalc.curve import _hop_table


def test_empty_constraint_set():
    res = solve_nonneg(np.zeros((0, 4)), np.zeros(0), np.ones(4), 2.0)
    assert res.value == 0.0 and res.converged and res.gap == 0.0


def test_argument_validation():
    A = np.array([[1.0, 0.5]])
    m = np.ones(2)
    with pytest.raises(ValueError):
        solve_nonneg(A, np.array([0.0]), m, 2.0)
    with pytest.raises(ValueError):
        solve_nonneg(np.zeros((1, 2)), np.array([1.0]), m, 2.0)
    with pytest.raises(ValueError):
        solve_nonneg(A, np.array([1.0]), m, 0.9)
    with pytest.raises(ValueError):
        solve_nonneg(A, np.array([1.0]), m, 2.0, max_iter=0)
    # non-finite p and non-positive or non-finite tol are rejected by both
    # entry points instead of returning a value or spending every iteration
    box = np.zeros(2), np.full(2, math.inf)
    cases = ((math.inf, 1e-6), (math.nan, 1e-6), (2.0, 0.0), (2.0, -1.0), (1.0, math.nan), (2.0, math.inf))
    for p, tol in cases:
        with pytest.raises(ValueError):
            solve_nonneg(A, np.array([1.0]), m, p, tol, max_iter=50)
        with pytest.raises(ValueError):
            solve_capacity(A, np.array([0]), np.array([1]), m, p, *box, tol, max_iter=50)


def test_overflowing_scale_is_a_value_error():
    # a finite p so large that rescaling the solution overflows
    s = path_space(3)
    fam = connecting_family(s, ["0"], ["2"], 2)
    with pytest.raises(ValueError, match="p = 1e"):
        n_gradient(s, {"0": 0, "1": 1, "2": 2}, fam, 1e308)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_one_iteration_reports_a_feasible_bracket(p):
    # one iteration cannot converge; the result must still be a feasible
    # point with an honest bracket (this runs the final polish at p > 1 and
    # the forced recovery of the capacity LP)
    s = grid_space(4, 4)
    table = _hop_table(s, list(connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)))
    A, m, n = table.matrix(0), s.measure_vector(), len(s)
    res = solve_nonneg(table.rows(0), np.ones(len(A)), m, p, 1e-6, max_iter=1)
    assert not res.converged and res.iterations == 1
    assert res.value >= res.dual_value
    assert np.all(res.x >= 0) and np.all(A @ res.x >= 1.0 - 1e-12)

    lo, hi = np.zeros(n), np.full(n, math.inf)
    lo[0] = 1.0
    res = solve_capacity(table.rows(0), table.start, table.end, m, p, lo, hi, 1e-6, max_iter=1)
    f, rho = res.x[:n], res.x[n:]
    assert not res.converged and res.iterations == 1
    assert res.value >= res.dual_value
    assert np.all(f >= lo) and np.all(rho >= 0)
    assert np.all(A @ rho >= np.abs(f[table.end] - f[table.start]) - 1e-12)
    with pytest.raises(ValueError):
        solve_capacity(table.rows(0), table.start, table.end, m, p, lo, hi, max_iter=0)


def test_certificate_sandwich_random_instances():
    rng = np.random.default_rng(71)
    for _ in range(15):
        k = int(rng.integers(1, 12))
        n = int(rng.integers(2, 9))
        A = rng.uniform(0.0, 2.0, size=(k, n))
        A[np.arange(k), rng.integers(0, n, size=k)] += 0.5  # no zero rows
        rhs = rng.uniform(0.2, 3.0, size=k)
        m = rng.uniform(0.05, 10.0, size=n)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        res = solve_nonneg(A, rhs, m, p, 1e-7)
        assert res.converged
        assert res.gap >= 0.0
        # returned point is feasible and matches the reported value
        assert np.all(A @ res.x >= rhs * (1 - 1e-9))
        assert res.value == pytest.approx(float((m * res.x**p).sum()), rel=1e-12)
        # the certificate brackets the independent optimum
        want, _ = oracle_min_power(A, rhs, m, p)
        slack = 1e-6 * max(1.0, want)
        assert res.dual_value - slack <= want <= res.value + slack


def test_capacity_solver_no_rows():
    lo = np.array([1.0, 0.0, 0.0])
    hi = np.full(3, math.inf)
    res = solve_capacity(
        np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=int),
        np.array([2.0, 1.0, 1.0]), 2.0, lo, hi,
    )
    assert res.value == pytest.approx(2.0)
    assert res.converged


def test_capacity_solver_matches_direct_formula():
    # one curve between two vertices at distance 1: by symmetry the optimum
    # of  2 f(b)^p + rho-energy  subject to  |f(b) - f(a)| <= rho-average
    # can be cross-checked with the nonneg solver after fixing f = (1, 0)
    C = np.array([[0.5, 0.5]])
    a_idx = np.array([0])
    b_idx = np.array([1])
    m = np.ones(2)
    lo = np.array([1.0, 0.0])
    hi = np.array([1.0, 1.0])
    res = solve_capacity(C, a_idx, b_idx, m, 2.0, lo, hi, 1e-9)
    assert res.converged
    f = res.x[:2]
    assert np.all(f >= lo) and np.all(f <= hi)  # exactly in the box
    # the joint optimum is interior: f(b) in (0, 1); check stationarity by
    # comparison with a fine scan over f(b)
    best = math.inf
    for fb in np.linspace(0.0, 1.0, 20001):
        inner = solve_nonneg(C, np.array([max(1e-12, 1.0 - fb)]), m, 2.0, 1e-10)
        best = min(best, 1.0 + fb**2 + inner.value)
    assert res.value == pytest.approx(best, rel=1e-5)


def test_scaling_equivariance_exact():
    rng = random.Random(5)
    A = np.array([[0.7, 0.1, 0.4], [0.2, 0.9, 0.3]])
    rhs = np.array([1.3, 0.4])
    m = np.array([0.5, 2.0, 1.0])
    base = solve_nonneg(A, rhs, m, 1.5, 1e-8)
    for lam in (0.25, 3.0, 17.0):
        scaled = solve_nonneg(A, lam * rhs, m, 1.5, 1e-8)
        assert scaled.value == pytest.approx(base.value * lam**1.5, rel=1e-12)
        assert np.allclose(scaled.x, lam * base.x, rtol=1e-12, atol=0)


def _relabelled(space, seed):
    """Copy of ``space`` with shuffled vertex names, vertex order and edge
    order, and the map from old to new names."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(len(space))]
    rng.shuffle(names)
    lab = dict(zip(space.vertices, names))
    order = list(space.vertices)
    rng.shuffle(order)
    edges = [(lab[u], lab[v], length) for u, v, length in space.edges]
    rng.shuffle(edges)
    measure = {lab[v]: space.measure[v] for v in order}
    return MetricMeasureSpace([lab[v] for v in order], edges, measure), lab


def test_capacity_grid_5x5_simple_p2_converges():
    s = grid_space(5, 5)
    fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
    res = capacity(s, ["0,0"], fam, 2.0, 1e-6, max_iter=2000)
    assert res.converged and res.gap <= 1e-6


@pytest.mark.parametrize("n, p", [(3, 1.5), (5, 2.0)])
def test_capacity_independent_of_vertex_labels(n, p):
    # neither convergence nor the value may depend on vertex names and order
    base = grid_space(n, n)
    brackets = []
    for seed in range(4):
        s, lab = _relabelled(base, seed)
        fam = connecting_family(s, s.vertices, s.vertices, 3)
        res = capacity(s, [lab["0,0"]], fam, p, 1e-6, max_iter=2000)
        assert res.converged, (seed, res.iterations, res.gap)
        brackets.append((res.value * (1.0 - res.gap), res.value))
    assert max(lo for lo, _ in brackets) <= min(hi for _, hi in brackets) * (1 + 1e-12)


def _dense_capacity(C, a_idx, b_idx):
    """``[[S, C], [-S, C]]`` written out row block by row block."""
    k, n = C.shape
    G = np.zeros((2 * k, 2 * n))
    rows = np.arange(k)
    for sign, block in ((1.0, rows), (-1.0, rows + k)):
        G[block, n:] = C
        G[block, a_idx] = sign
        G[block, b_idx] -= sign
    return G


def _check_rows(idx, val, A, rng, monkeypatch):
    """Padded rows against the dense matrix: coefficients bit for bit,
    products on both storages within 1e-13, polish blocks exactly."""
    k, n = A.shape
    assert idx.shape == val.shape and idx.shape[0] == k
    D = np.zeros_like(A)
    np.add.at(D, (np.arange(k)[:, None], idx), val)
    assert D.tobytes() == A.tobytes()
    assert np.count_nonzero(val) == np.count_nonzero(A)
    z = rng.uniform(0.0, 2.0, n)
    y = rng.uniform(0.0, 2.0, k)
    for fill in (0.0, 1.0):  # dense storage, then padded storage
        monkeypatch.setattr(_solver, "_SPARSE_FILL", fill)
        G = _solver._Rows(idx, val, n)
        assert (G.dense is None) == (fill == 1.0)
        assert np.allclose(G.dot(z), A @ z, rtol=1e-13, atol=0)
        assert np.allclose(G.tdot(y), A.T @ y, rtol=1e-13, atol=0)
        for _ in range(3):
            rows, cols = rng.random(k) < 0.6, rng.random(n) < 0.7
            assert G.block(rows, cols).tobytes() == A[np.ix_(rows, cols)].tobytes()


def test_padded_rows_match_dense_matrix(monkeypatch):
    # walks that revisit vertices and constant curves, at lam 0 and 1; the
    # capacity rows over (f, rho) on the nonconstant curves
    rng = random.Random(613)
    nrng = np.random.default_rng(613)
    for _ in range(10):
        s = random_connected_space(rng, rng.randint(3, 9), extra_edges=3)
        curves = mixed_curves(rng, s, rng.randint(1, 10))
        for lam in (0, 1):
            table = _hop_table(s, curves)
            idx, val = table.rows(lam)
            _check_rows(idx, val, table.matrix(lam), nrng, monkeypatch)
        table = _hop_table(s, [c for c in curves if not c.is_constant])
        C = table.matrix(0)
        cap = _solver._capacity_rows(*table.rows(0), table.start, table.end, len(s))
        _check_rows(*cap, _dense_capacity(C, table.start, table.end), nrng, monkeypatch)


@pytest.mark.parametrize(
    "n, h, simple, sparse",
    # rows fill 4 / 81 and 11 / 36 of the columns
    [(9, 3, True, True), (6, 10, False, False)],
)
def test_storage_choice_keeps_certificates(monkeypatch, n, h, simple, sparse):
    s = grid_space(n, n)
    if simple:
        fam = connecting_family(s, s.vertices, s.vertices, h, simple_only=True)
    else:
        fam = connecting_family(s, ["0,0"], [f"{n - 1},{n - 1}"], h)
    table = _hop_table(s, list(fam))
    idx, val = table.rows(0)
    assert (idx.shape[1] <= _solver._SPARSE_FILL * len(s)) == sparse
    m = s.measure_vector()
    rhs = np.ones(len(idx))
    for p in (1.0, 2.0):
        # padded rows, the dense matrix (always multiplied densely), and the
        # padded rows in the storage that the fill rule did not choose
        runs = [solve_nonneg((idx, val), rhs, m, p), solve_nonneg(table.matrix(0), rhs, m, p)]
        monkeypatch.setattr(_solver, "_SPARSE_FILL", 0.0 if sparse else 1.0)
        runs.append(solve_nonneg((idx, val), rhs, m, p))
        monkeypatch.undo()
        assert all(r.converged for r in runs)
        assert max(r.dual_value for r in runs) <= min(r.value for r in runs) * (1 + 1e-12)


def _ramp(v: str) -> float:
    i, j = (int(x) for x in v.split(","))
    return i + 0.5 * j + 0.3 * math.sin(1.3 * i + 0.7 * j)


def test_p4_gradient_insensitive_to_rhs_roundoff():
    # a scale and an offset of f change the increments only by rounding
    # (about 1e-15 relative); once, that turned 225 iterations into 11500
    s = grid_space(20, 20)
    fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
    brackets = []
    for a, b in ((1.0, 0.0), (1.0656, 0.0), (1.0, 0.9077), (1.0656, 0.9077)):
        f = {v: b + a * _ramp(v) for v in s.vertices}
        res = n_gradient(s, f, fam, 4.0, max_iter=1000)
        assert res.converged, (a, b, res.iterations, res.gap)
        brackets.append((res.value * (1.0 - res.gap) / a**4, res.value / a**4))
    assert max(lo for lo, _ in brackets) <= min(hi for _, hi in brackets)


def test_gradient_holds_no_dense_constraint_matrix():
    # the rows reach the solver padded; one dense k x n float64 array of
    # this family is over twice the traced peak of the whole solve
    s = grid_space(12, 12)
    fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
    f = {v: _ramp(v) for v in s.vertices}
    tracemalloc.start()
    try:
        res = n_gradient(s, f, fam, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < len(fam) * len(s) * 8


def _full_tdot(G, y):
    """``G.T @ y`` over every stored row, zero duals included."""
    if G.dense is not None:
        return G.dense.T @ y
    return np.bincount(G.idx.ravel(), (G.val * y[:, None]).ravel(), G.n)


def _padded_instances():
    """Hop tables of the simple paths (h <= 3) of the 10x10 and 8x8 grids,
    whose gradient and capacity rows stay below the dense threshold."""
    out = []
    for n in (10, 8):
        s = grid_space(n, n)
        fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
        table = _hop_table(s, list(fam))
        out.append((s, table))
    return out


def test_sparse_tdot_equals_full_rows():
    (s10, t10), (s8, t8) = _padded_instances()
    grad = _solver._Rows(*t10.rows(0), len(s10))
    cap = _solver._Rows(*_solver._capacity_rows(*t8.rows(0), t8.start, t8.end, len(s8)), 2 * len(s8))
    assert (cap.val < 0).any() and (cap.val == 0).any()
    rng = np.random.default_rng(29)
    for G in (grad, cap):
        assert G.dense is None
        k = len(G.idx) - len(G.idx) % 2  # an even count has an exact half
        for support in (0, 1, k // 2 - 1, k // 2, k // 2 + 1, k):
            y = np.zeros(len(G.idx))
            on = rng.permutation(k)[:support]
            y[on] = rng.uniform(0.0, 1.0, support) * 10.0 ** rng.integers(-8, 3, support)
            # signed zeros among the dropped rows change no bit either
            y[rng.permutation(np.flatnonzero(y == 0))[: (len(y) - support) // 2]] = -0.0
            assert np.array_equal(G.tdot(y), _full_tdot(G, y)), support


def test_sparse_tdot_keeps_solves_bit_identical(monkeypatch):
    # _ascent (p = 2) and _pdhg (p = 1) on a gradient and a capacity instance
    (s10, t10), (s8, t8) = _padded_instances()
    fv = np.array([_ramp(v) for v in s10.vertices])
    rhs = np.abs(fv[t10.end] - fv[t10.start])
    keep = rhs > 0
    idx, val = t10.rows(0)
    m10, m8 = s10.measure_vector(), s8.measure_vector()
    lo = np.array([1.0 if v == "0,0" else 0.0 for v in s8.vertices])
    hi = np.full(len(s8), math.inf)
    solves = [
        lambda p: solve_nonneg((idx[keep], val[keep]), rhs[keep], m10, p),
        lambda p: solve_capacity(t8.rows(0), t8.start, t8.end, m8, p, lo, hi),
    ]
    bits = lambda r: (r.value, r.gap, r.dual_value, r.iterations, r.x.tobytes(), r.y.tobytes())  # noqa: E731
    for solve in solves:
        for p in (1.0, 2.0):
            sparse = solve(p)
            monkeypatch.setattr(_solver._Rows, "tdot", _full_tdot)
            full = solve(p)
            monkeypatch.undo()
            assert sparse.converged and full.converged
            assert bits(sparse) == bits(full)


def test_ascent_makes_G_z_once_per_iteration(monkeypatch):
    # the line search reads only the dual value, so before the first polish
    # (iteration 250) the only product G z is the one at the extrapolated point
    s = grid_space(10, 10)
    fam = connecting_family(s, s.vertices, s.vertices, 3, simple_only=True)
    f = {v: _ramp(v) for v in s.vertices}
    calls = []
    dot = _solver._Rows.dot
    monkeypatch.setattr(_solver._Rows, "dot", lambda G, z: calls.append(1) or dot(G, z))
    res = n_gradient(s, f, fam, 2.0)
    assert res.converged and res.iterations < 250
    assert len(calls) == res.iterations
