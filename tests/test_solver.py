import math
import random

import numpy as np
import pytest

from helpers import oracle_min_power
from modcalc import MetricMeasureSpace, capacity, connecting_family, grid_space
from modcalc._solver import solve_capacity, solve_nonneg


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
