"""The row presolve of ``n_gradient`` and ``capacity``: a curve whose hops
are all one-hop curves of the family is implied by them and dropped, and of
the one-hop curves on each edge only the first is solved on.  The results
are checked against the whole family, dropped curves included."""

import random

import numpy as np
import pytest

from helpers import (
    oracle_capacity,
    oracle_min_power,
    random_connected_space,
    random_edge_walk,
    random_function,
)
from modcalc import (
    _solver,
    capacity,
    connecting_family,
    explicit_family,
    grid_space,
    is_upper_gradient,
    n_gradient,
)
from modcalc.curve import _hop_table
from modcalc.modulus import admissibility_matrix


def _all_pairs_instances(seed: int, count: int):
    """Random spaces with edge lengths in [0.5, 2] and a random ``f``, each
    with its all-pairs walk or simple-path family of at most 1 to 3 hops."""
    rng = random.Random(seed)
    for _ in range(count):
        s = random_connected_space(rng, rng.randint(3, 7), extra_edges=rng.randint(0, 3))
        fam = connecting_family(
            s, s.vertices, s.vertices, rng.randint(1, 3), simple_only=rng.random() < 0.5
        )
        yield rng, s, random_function(rng, s), fam


def _first_edge_curves(fam) -> set:
    """The first one-hop curve of each unordered end pair, in family order."""
    seen, first = set(), set()
    for c in fam:
        pair = frozenset(c.vertices)
        if len(c.vertices) == 2 and pair not in seen:
            seen.add(pair)
            first.add(c)
    return first


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_gradient_is_an_upper_gradient_on_the_whole_family(p):
    for _, s, f, fam in _all_pairs_instances(401, 100):
        res = n_gradient(s, f, fam, p)
        assert res.converged
        assert is_upper_gradient(s, f, res.rho, fam) == (True, None)
        # the solve ran on the first one-hop curve of every edge alone
        assert set(res.dual_weights) == _first_edge_curves(fam)
        assert len(res.dual_weights) == len(s.edges)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_capacity_witness_meets_every_row_of_the_whole_family(p):
    for rng, s, _, fam in _all_pairs_instances(409, 40):
        E = rng.sample(s.vertices, rng.randint(1, 2))
        truncated = rng.random() < 0.5
        res = capacity(s, E, fam, p, truncated=truncated)
        assert res.converged
        # |f(end) - f(start)| <= path integral of rho on every curve
        assert is_upper_gradient(s, res.f, res.rho, fam) == (True, None)
        assert all(res.f[v] >= 1.0 for v in E)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_values_bracket_the_full_family_oracles(p):
    for rng, s, f, fam in _all_pairs_instances(419, 4):
        res = n_gradient(s, f, fam, p, 1e-8)
        A, curves = admissibility_matrix(s, fam, 0)
        rhs = np.array([abs(f[c.end] - f[c.start]) for c in curves])
        want, _ = oracle_min_power(A[rhs > 0], rhs[rhs > 0], s.measure_vector(), p)
        slack = 1e-7 * want
        assert res.value * (1.0 - res.gap) - slack <= want <= res.value + slack

        E = rng.sample(s.vertices, 1)
        cap = capacity(s, E, fam, p, 1e-8)
        want = oracle_capacity(s, E, curves, p, False)
        slack = 1e-6 * want
        assert cap.value * (1.0 - cap.gap) - slack <= want <= cap.value + slack


def test_families_without_their_own_hops_solve_every_row():
    # corner to corner, and explicit walks of at least two hops (closed ones
    # among them): no curve is implied, so each solve is the one over the
    # full rows, bit for bit
    rng = random.Random(431)
    cases = []
    for nx, ny, h in ((3, 3, 6), (4, 3, 5)):
        g = grid_space(nx, ny)
        cases.append((g, connecting_family(g, ["0,0"], [f"{nx - 1},{ny - 1}"], h)))
    for _ in range(4):
        s = random_connected_space(rng, rng.randint(4, 7), extra_edges=2)
        walks = [random_edge_walk(rng, s, 4, min_hops=2) for _ in range(rng.randint(2, 6))]
        cases.append((s, explicit_family(walks)))
    for s, fam in cases:
        curves = list(fam)
        f = random_function(rng, s)
        rhs = np.array([abs(f[c.end] - f[c.start]) for c in curves])
        keep = rhs > 0
        table = _hop_table(s, curves)
        assert table.presolve()[0].all()
        idx, val = table.rows(0)
        m = s.measure_vector()
        for p in (1.0, 2.0):
            got = n_gradient(s, f, fam, p)
            want = _solver.solve_nonneg((idx[keep], val[keep]), rhs[keep], m, p)
            assert got.value == want.value and got.gap == want.gap
            assert got.iterations == want.iterations
            assert np.array(list(got.rho.values())).tobytes() == want.x.tobytes()
            assert list(got.dual_weights.values()) == want.y.tolist()

            lo = np.array([1.0 if v == curves[0].start else 0.0 for v in s.vertices])
            got = capacity(s, [curves[0].start], fam, p)
            want = _solver.solve_capacity(
                table.rows(0), table.start, table.end, m, p, lo, np.full(len(m), np.inf)
            )
            assert got.value == want.value and got.gap == want.gap
            assert got.iterations == want.iterations
