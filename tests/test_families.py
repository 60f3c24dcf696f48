import copy
import importlib
import math
import pickle
import random
import sys

import pytest

from helpers import brute_walks, random_connected_space, random_disconnected_space
from modcalc import (
    CurveFamily,
    MetricMeasureSpace,
    SpaceError,
    admissible_check,
    capacity,
    connecting_family,
    endpoints_in,
    explicit_family,
    family_through,
    grid_space,
    h_gradient_sequence,
    hop_slope_density,
    is_upper_gradient,
    modulus,
    n_gradient,
    path_space,
    ug_calculus,
)
from modcalc.curve import _curves, _hop_table, make_curve, validate_curve
from modcalc.families import _CURVE_BUDGET, family_from_json, family_to_json

# the modules themselves: the attribute modcalc.modulus is the function
modulus_module = importlib.import_module("modcalc.modulus")
families_module = importlib.import_module("modcalc.families")


def triangle():
    return MetricMeasureSpace(
        ["a", "b", "c"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)],
        {"a": 1.0, "b": 1.0, "c": 1.0},
    )


def test_connecting_examples():
    disconnected = MetricMeasureSpace(
        ["a", "b"], [], {"a": 1.0, "b": 1.0}
    )
    assert len(connecting_family(disconnected, ["a"], ["b"], 3)) == 0

    p = path_space(3)
    fam = connecting_family(p, ["0"], ["2"], 2, simple_only=True)
    assert [c.vertices for c in fam] == [("0", "1", "2")]

    t = triangle()
    fam2 = connecting_family(t, ["a"], ["b"], 2, simple_only=True)
    assert sorted(c.vertices for c in fam2) == [("a", "b"), ("a", "c", "b")]

    with pytest.raises(SpaceError):
        connecting_family(p, [], ["2"], 2)
    with pytest.raises(SpaceError):
        connecting_family(p, ["0"], ["2"], 0)


def test_family_through_examples():
    p = path_space(3)
    empty = family_through(p, [], 3)
    assert len(empty) == 0 and empty.label == "through(0,h<=3)"
    with pytest.raises(SpaceError, match="max_hops"):
        family_through(p, ["1"], 0)
    fam = family_through(p, ["1"], 1)
    assert sorted(c.vertices for c in fam) == [
        ("0", "1"),
        ("1", "0"),
        ("1", "2"),
        ("2", "1"),
    ]
    all_one_hop = family_through(p, p.vertices, 1)
    assert len(all_one_hop) == 4  # every oriented edge of the path


def test_endpoints_in_examples():
    p = path_space(3)
    fam = endpoints_in(p, ["0", "2"], 2)
    seqs = {c.vertices for c in fam}
    assert ("0", "1", "2") in seqs and ("2", "1", "0") in seqs
    assert ("0",) in seqs and ("2",) in seqs
    empty = endpoints_in(p, [], 2)
    assert len(empty) == 0 and empty.label == "endpoints(0,h<=2)"
    with pytest.raises(SpaceError, match="max_hops"):
        endpoints_in(p, ["1"], 0)
    single = endpoints_in(p, ["1"], 1)
    assert ("1",) in {c.vertices for c in single}


def test_counts_match_brute_force():
    rng = random.Random(41)
    for _ in range(8):
        s = random_connected_space(rng, rng.randint(3, 8), extra_edges=2)
        hops = rng.randint(1, 3)
        all_walks = brute_walks(s, hops, simple=False)
        all_simple = brute_walks(s, hops, simple=True)

        E = set(rng.sample(s.vertices, rng.randint(1, len(s))))
        F = set(rng.sample(s.vertices, rng.randint(1, len(s))))

        # the enumeration itself lists every walk once, in sorted order
        got = connecting_family(s, E, F, hops)
        want = sorted({w for w in all_walks if w[0] in E and w[-1] in F})
        assert [c.vertices for c in got] == want

        got_s = connecting_family(s, E, F, hops, simple_only=True)
        want_s = sorted({w for w in all_simple if w[0] in E and w[-1] in F})
        assert [c.vertices for c in got_s] == want_s

        got_t = family_through(s, E, hops)
        want_t = sorted({w for w in all_simple if any(v in E for v in w)})
        assert [c.vertices for c in got_t] == want_t

        got_e = endpoints_in(s, E, hops)
        want_e = sorted({(v,) for v in E}) + sorted(
            {w for w in all_walks if w[0] in E and w[-1] in E}
        )
        assert [c.vertices for c in got_e] == want_e


def test_pruning_by_hop_distance_keeps_the_family():
    # walks are not extended where F is out of hop reach; the family must
    # equal the unpruned one (targets = every vertex) filtered by its end
    rng = random.Random(42)
    for make in (random_connected_space, random_disconnected_space) * 5:
        s = make(rng, rng.randint(4, 9), extra_edges=1)
        hops = rng.randint(2, 6)
        E = rng.sample(s.vertices, rng.randint(1, 3))
        F = set(rng.sample(s.vertices, rng.randint(1, 2)))
        for simple in (False, True):
            got = connecting_family(s, E, F, hops, simple)
            every = connecting_family(s, E, s.vertices, hops, simple)
            assert [c.vertices for c in got] == [
                c.vertices for c in every if c.end in F
            ]
        got_e = [c.vertices for c in endpoints_in(s, F, hops) if not c.is_constant]
        every = connecting_family(s, F, s.vertices, hops)
        assert got_e == [c.vertices for c in every if c.end in F]

    g = grid_space(8, 8)
    assert len(connecting_family(g, ["0,0"], ["7,7"], 14)) == math.comb(14, 7)


def test_family_through_prunes_walks_out_of_reach():
    # a walk that has not met E yet only steps where E stays within the hops
    # it has left; listing every simple path of the grid took 43968 steps
    # here.  A step is a call of the depth-first search's extend.
    g = grid_space(12, 12)
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "extend":
            calls.append(frame)

    sys.setprofile(count)
    try:
        fam = family_through(g, ["0,0"], 6)
    finally:
        sys.setprofile(None)
    assert len(fam) == 772 and all("0,0" in c.vertices for c in fam)
    assert 0 < len(calls) < 2000


def test_walk_enumeration_stops_at_the_curve_budget():
    g = grid_space(20, 20)
    with pytest.raises(SpaceError, match=f"more than {_CURVE_BUDGET} curves.*does not scale"):
        connecting_family(g, g.vertices, g.vertices, 6)
    with pytest.raises(SpaceError, match="constraint generation"):
        family_through(g, g.vertices, 6)


def test_monotone_in_max_hops():
    rng = random.Random(43)
    s = random_connected_space(rng, 7, extra_edges=2)
    prev: set = set()
    for hops in (1, 2, 3, 4):
        fam = connecting_family(s, s.vertices, s.vertices, hops).normalized()
        seqs = {c.vertices for c in fam}
        assert prev <= seqs
        prev = seqs


def test_every_enumerated_curve_validates():
    rng = random.Random(47)
    s = random_connected_space(rng, 7, extra_edges=3)
    for fam in (
        connecting_family(s, s.vertices, s.vertices, 3),
        family_through(s, [s.vertices[0]], 3),
        endpoints_in(s, s.vertices[:3], 2),
    ):
        for c in fam:
            validate_curve(s, c)
            # enumeration builds the curve that make_curve builds
            assert c == make_curve(s, c.vertices)
            if not c.is_constant:
                assert c.times[0] == 0.0 and c.times[-1] == 1.0


def test_family_json_round_trip():
    p = path_space(3)
    fam = connecting_family(p, ["0"], ["2"], 2, simple_only=True)
    fam2 = family_from_json(p, family_to_json(fam))
    assert [c.vertices for c in fam2] == [c.vertices for c in fam]

    fam3 = family_from_json(
        p, {"type": "connecting", "E": ["0"], "F": ["2"], "max_hops": 2, "simple": True}
    )
    assert [c.vertices for c in fam3] == [("0", "1", "2")]
    fam4 = family_from_json(p, {"type": "through", "E": ["1"], "max_hops": 1})
    assert len(fam4) == 4
    fam5 = family_from_json(p, {"type": "endpoints", "E": ["0", "2"], "max_hops": 2})
    assert ("0",) in {c.vertices for c in fam5}


def _string_walks(space, starts, max_hops, simple, keep):
    """Every edge walk from ``starts`` with 1..max_hops hops that ``keep``
    accepts, by a depth-first search over ``space.neighbors`` that visits
    starts and neighbors sorted by id, without pruning."""
    out = []

    def extend(seq):
        if len(seq) > 1 and keep(seq):
            out.append(tuple(seq))
        if len(seq) - 1 < max_hops:
            for v, _ in space.neighbors(seq[-1]):
                if not (simple and v in seq):
                    extend(seq + [v])

    for s in sorted(set(starts)):
        extend([s])
    return out


def _enumeration_cases():
    rng = random.Random(53)
    spaces = [grid_space(3, 3), grid_space(2, 4), grid_space(4, 4), path_space(4)]
    spaces += [random_connected_space(rng, rng.randint(3, 8), extra_edges=3) for _ in range(6)]
    spaces += [random_disconnected_space(rng, rng.randint(3, 6), extra_edges=1) for _ in range(3)]
    for s in spaces:
        for hops in (1, 2, 3):
            E = rng.sample(s.vertices, rng.randint(1, len(s)))
            F = rng.sample(s.vertices, rng.randint(1, len(s)))
            yield s, E, F, hops


def test_enumeration_matches_a_string_search_through_curves():
    # the families are built on vertex indices; their curves, vertices and
    # times, are those of the string walks made by _curves, in order
    for s, E, F, hops in _enumeration_cases():
        ends, meets = set(F), lambda w: any(v in E for v in w)
        cases = [
            (
                connecting_family(s, E, F, hops),
                _string_walks(s, E, hops, False, lambda w: w[-1] in ends),
            ),
            (
                connecting_family(s, E, F, hops, simple_only=True),
                _string_walks(s, E, hops, True, lambda w: w[-1] in ends),
            ),
            (family_through(s, E, hops), _string_walks(s, s.vertices, hops, True, meets)),
            (
                endpoints_in(s, E, hops),
                [(v,) for v in sorted(set(E))]
                + _string_walks(s, E, hops, False, lambda w: w[-1] in E),
            ),
        ]
        for fam, seqs in cases:
            want = _curves(s, seqs)
            assert len(fam) == len(want)
            assert [(c.vertices, c.times) for c in fam] == [(c.vertices, c.times) for c in want]


def _bits(result):
    """The fields of a result, floats by their bits; the family label apart."""
    fields = dict(vars(result))
    fields.pop("family_label", None)
    fields.pop("label", None)
    return repr(sorted(fields.items(), key=lambda kv: kv[0]))


def test_a_family_table_and_its_rebuilt_table_give_the_same_bits():
    # an enumerated family hands the solves its own table, and makes no
    # curve for them; the explicit family of its curves has the table
    # rebuilt from vertex strings
    rng = random.Random(59)
    reported = 0
    for s, E, F, hops in list(_enumeration_cases())[::4]:
        f = {v: rng.uniform(-2.0, 3.0) for v in s.vertices}
        rho = {v: rng.uniform(0.0, 1.0) for v in s.vertices}
        for make in (
            lambda: connecting_family(s, E, F, hops, simple_only=True),
            lambda: connecting_family(s, s.vertices, s.vertices, hops),
            lambda: endpoints_in(s, E, hops),
        ):
            explicit = explicit_family(list(make()))
            # max_iter bounds the p = 1 capacity solves that do not reach tol
            # soon (one here ran 400000 iterations; ROADMAP item 4): a solve
            # stopped there has its bits too
            for p in (1.0, 2.0):
                calls = [
                    lambda fm: n_gradient(s, f, fm, p, 1e-6, 2000),
                    lambda fm: capacity(s, E[:1], fm, p, 1e-6, max_iter=2000),
                    lambda fm: capacity(s, E[:1], fm, p, 1e-6, True, 2000),
                    lambda fm: modulus(s, fm, p, 0, 1e-6, 2000),
                    lambda fm: modulus(s, fm, p, 1, 1e-6, 2000),
                ]
                for call in calls:
                    assert _bits(call(make())) == _bits(call(explicit))
            fam = make()
            for lam in (0, 1):
                got = admissible_check(s, rho, fam, lam)
                assert repr(got) == repr(admissible_check(s, rho, explicit, lam))
            capacity(s, E[:1], fam, 2.0, 1e-6, max_iter=50)
            # the checks return their worst curves, made for those rows alone
            got = is_upper_gradient(s, f, rho, fam)
            assert got == is_upper_gradient(s, f, rho, explicit)
            reported += got[1] is not None
            rho_f, rho_g = hop_slope_density(s, f, fam), hop_slope_density(s, rho, fam)
            alt = {v: 0.1 * x for v, x in rho.items()}
            got = ug_calculus(s, f, rho, rho_f, rho_g, math.atan, fam, alt)
            assert got == ug_calculus(s, f, rho, rho_f, rho_g, math.atan, explicit, alt)
            reported += got["min"]["worst"] is not None
            grad, steps = h_gradient_sequence(s, f, 2.0, fam, n_steps=2)
            grad_x, steps_x = h_gradient_sequence(s, f, 2.0, explicit, n_steps=2)
            assert _bits(grad) == _bits(grad_x) and repr(steps) == repr(steps_x)
            assert fam._curves is None  # none of them made every curve
            assert grad.family_label == fam.label
            a, b = _hop_table(s, fam), _hop_table(s, explicit)
            assert a is fam._table and b is not _hop_table(s, explicit)
            for name in ("cid", "u", "v", "d", "start", "end"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert reported > 0


def test_json_connecting_and_through_families_keep_their_table():
    # _walks lists them unique and sorted, so they are their own normalized()
    for s, E, F, hops in _enumeration_cases():
        for obj in (
            {"type": "connecting", "E": E, "F": F, "max_hops": hops},
            {"type": "connecting", "E": E, "F": F, "max_hops": hops, "simple": True},
            {"type": "through", "E": E, "max_hops": hops},
        ):
            fam = family_from_json(s, obj)
            assert _hop_table(s, fam) is fam._table is not None
            assert fam == fam.normalized()
        endpoints = family_from_json(s, {"type": "endpoints", "E": E, "max_hops": hops})
        assert endpoints == endpoints_in(s, E, hops).normalized()


def test_a_json_explicit_family_keeps_its_table(monkeypatch):
    # it hands the solves its checked table, makes no curve for n_gradient's
    # or capacity's solve or for admissible_check, and for modulus only the
    # curves of its last working set; every result has the bits of the
    # explicit family of the same curves
    made, rows = [], []
    make, solve = families_module._made_curves, modulus_module.solve_nonneg
    counted_make = lambda *a: made.append(len(a[1])) or make(*a)  # noqa: E731
    counted_solve = lambda A, *a: rows.append(len(A[0])) or solve(A, *a)  # noqa: E731
    monkeypatch.setattr(families_module, "_made_curves", counted_make)
    monkeypatch.setattr(modulus_module, "solve_nonneg", counted_solve)
    rng = random.Random(61)
    partial = 0
    for s, E, F, hops in list(_enumeration_cases())[1::4]:
        objs = []
        for c in connecting_family(s, E, s.vertices, hops):
            objs.append({"vertices": list(c.vertices)})
            if rng.random() < 0.4:
                cuts = sorted(rng.sample(range(1, 97), len(c.vertices) - 2))
                objs[-1]["times"] = [0.0] + [k / 97 for k in cuts] + [1.0]
        obj = {"type": "explicit", "curves": objs}
        explicit = explicit_family(list(family_from_json(s, obj)))
        f = {v: rng.uniform(-2.0, 3.0) for v in s.vertices}
        rho = {v: rng.uniform(0.0, 1.0) for v in s.vertices}
        made.clear()  # the curves of the two families read above
        fam = family_from_json(s, obj)
        assert _hop_table(s, fam) is fam._table
        for p in (1.0, 2.0):
            assert _bits(capacity(s, E[:1], fam, p, 1e-6, max_iter=2000)) == _bits(
                capacity(s, E[:1], explicit, p, 1e-6, max_iter=2000)
            )
            for lam in (0, 1):
                got = admissible_check(s, rho, fam, lam)
                assert repr(got) == repr(admissible_check(s, rho, explicit, lam))
        assert fam._curves is None and made == []
        for p in (1.0, 2.0):
            # the curves of its kept rows, each once: the family repeats none
            got = n_gradient(s, f, fam, p, 1e-6, 2000)
            assert _bits(got) == _bits(n_gradient(s, f, explicit, p, 1e-6, 2000))
            assert made == [len(got.dual_weights)] and fam._curves is None
            made.clear()
        for p in (1.0, 2.0):
            for lam in (0, 1):
                rows.clear()
                unread = fam._curves is None
                got = modulus(s, fam, p, lam, 1e-6, 2000)
                assert _bits(got) == _bits(modulus(s, explicit, p, lam, 1e-6, 2000))
                if not unread:  # a solve on the whole family made every curve
                    assert made == []
                elif rows[-1] < len(fam):
                    assert made == [rows[-1]] and fam._curves is None
                    partial += 1
                else:
                    assert made == [len(fam)]
                made.clear()
    assert partial > 0


def test_a_family_is_immutable():
    s = grid_space(3, 3)
    for fam in (
        connecting_family(s, ["0,0"], ["2,2"], 4),
        explicit_family([make_curve(s, ["0,0", "0,1"])]),
        CurveFamily([], "x"),
    ):
        before = hash(fam)
        for name in ("label", "_curves", "_space", "_table", "other"):
            with pytest.raises(AttributeError):
                setattr(fam, name, None)
            with pytest.raises(AttributeError):
                delattr(fam, name)
        assert len(fam.curves) == len(fam) and hash(fam) == before
        assert fam.label in ("connect(1->1,h<=4)", "explicit", "x")


def test_a_family_copies_and_pickles_with_its_table():
    s = grid_space(3, 3)
    curves = [{"vertices": ["0,0", "0,1", "1,1"], "times": [0.0, 0.25, 1.0]}, {"vertices": ["0,0", "1,0"]}]
    for fam in (
        connecting_family(s, ["0,0"], ["2,2"], 4),
        explicit_family([make_curve(s, ["0,0", "0,1"])]),
        family_from_json(s, {"type": "explicit", "curves": curves}),
    ):
        twins = copy.copy(fam), copy.deepcopy(fam), pickle.loads(pickle.dumps(fam))
        # a family on a table (enumerated or read from JSON) stays unread, with it
        state = (True, False) if fam._table is not None else (False, True)
        assert [(x._curves is None, x._table is None) for x in (fam, *twins)] == [state] * 4
        for twin in twins:
            assert twin == fam and twin.label == fam.label
            with pytest.raises(AttributeError):
                twin.label = "y"
